//! The streaming session store.
//!
//! The store is *concurrently* sharded: every shard is an independent
//! piece of state behind its own [`std::sync::Mutex`], so the whole API
//! is `&self` and ingest scales across cores (requests for different
//! keys hit different shards and never contend). Each entry colocates
//! the [`Session`] record with a caller-supplied *extension* state
//! (`E`) — the detection core stores its per-key evidence and policy
//! state there, giving the hot path one lock acquisition instead of one
//! per subsystem.
//!
//! # One idle order per shard
//!
//! A shard keeps its live sessions in a table (the private `table`
//! module): a slab indexed by key and linked by last touch. Recording an
//! exchange (the only place `last_seen` is written) relinks the entry to
//! the warm end under the lock that path already holds, so **capacity
//! eviction** compares the shards' cold ends — one `(last_seen, key)`
//! each, one lock at a time — and **idle expiry** pops cold ends until
//! one is still inside the idle timeout; [`ShardedTracker::sweep_slice`]
//! does a bounded amount of that per call so a live server can afford
//! to sweep. A sweep only finalizes: it never visits a session still
//! inside the timeout, so what an extension keeps that goes stale
//! sooner (the core's beacon tokens and challenge record) expires where
//! it is read.
//!
//! **What is exact.** With a clock that never runs backwards within a
//! shard (a reactor's clock, every simulated harness) touch order *is*
//! `last_seen` order, so a single-threaded caller evicts exactly the
//! globally idlest session (ties of up to eight toward the smaller key)
//! and a sweep finalizes exactly the expired ones. The order is a
//! function of the operation history alone, never of `HashMap`
//! iteration, so identical runs pick identical victims.
//!
//! **What is best-effort.** Under concurrent ingest the shards are
//! peeked one lock at a time: a session touched between the peek and
//! the pop survives and the shard's next-coldest goes instead, and
//! racing inserts may briefly overshoot [`TrackerConfig::max_sessions`]
//! (an insert keeps evicting until the count is back under the cap, so
//! by about the number of inserts racing, not more with every race).
//! Threads that hand in clocks out of step with each other get
//! least-recently-*touched* eviction, and an expired session can sit
//! behind a younger cold end until that one expires too (at most one
//! idle timeout late).
//!
//! **Why `finalized` has no cap.** Eviction and rollover casualties wait
//! in their shard until a sweep or drain collects them, and
//! [`ShardedTracker::drain`] promises every key exactly once
//! (`tests/saturation.rs`), so the list is never silently truncated.
//! Its bound is the caller's: `botwall-serve` ticks
//! [`ShardedTracker::sweep_slice`] from every reactor; a library caller
//! that evicts but never sweeps holds every casualty until it drains.
//!
//! # Carries
//!
//! A *carry* is per-key state parked while the key has no live session
//! (a CAPTCHA pass answered after the sweep, what a lease evicted
//! mid-fetch produced), absorbed by the key's next incarnation. A shard
//! parks carries in a second table of the same type as its sessions: at
//! most `max_sessions.div_ceil(shards)` (6 250 at the defaults), the
//! least recently parked going first at the bound, and each dead
//! [`TrackerConfig::idle_timeout_ms`] after it was parked or last handed
//! back — dropped by the sweep step that expires sessions, and read as
//! absent before that.
//!
//! # Two-phase exchanges
//!
//! An exchange reaches a session one of two ways, and nothing else
//! records one. [`ShardedTracker::begin_exchange`] runs the caller's
//! gate inside the shard critical section; the gate either finishes the
//! exchange there or hands back an [`ExchangeLease`] (stamped with the
//! entry's incarnation), so the caller can produce the response — e.g.
//! fetch a slow origin — with **no lock held** and fold it back in at
//! [`ShardedTracker::commit`]. A lease whose incarnation was evicted or
//! rolled over mid-flight commits through the deferred-carry channel
//! instead of being dropped. ([`ShardedTracker::observe`] is a gate that
//! records a finished exchange and finishes.)
//!
//! # What a session weighs
//!
//! A live session is one slab slot (its [`Session`], its extension
//! state and two links) plus one 8-byte index bucket (the slot and 32
//! bits of its key's hash; the [`SessionKey`] is stored only in the
//! slot). Under the detection core's extension state a slot is 208
//! bytes on a 64-bit target, 120 of them the [`Session`]: the 13 `u32`
//! counters the Table-2 features and the §3.2 policy read and the
//! seen-URL set they need, never a log of records or a byte tally.
//! State a session may never need stays behind a pointer until it does
//! (token state and its place in its instrumentation RNG stream until a
//! page is served, a challenge record until one is issued). A session's
//! two lists keep their first item inline, in the 24 bytes of the `Vec`
//! they spill to at the second (the seen-URL set here, the core's
//! evidence list in its extension state), and `Vec` grows from there
//! (4 → 8 … 512), so a long session's caps and growth are what they
//! were. A stranger's first exchange leaves one heap block, ~48 bytes
//! for a short `User-Agent`: the key's agent, one `Arc<str>`. At every
//! per-session cap (512 remembered URLs, 64 page tokens, every script
//! fetched) a session holds ~15.6 KB: a token keeps its script's seed,
//! never the source. Looking a known key up copies nothing: the index
//! is searched by the hash of the request's borrowed parts
//! (`dyn KeyParts`), and a bucket whose tag matches is confirmed against
//! the key in its slot.
//! `crates/gateway/tests/session_weight.rs` holds these counts.

use crate::key::{KeyParts, KeyRef, SessionKey};
use crate::record::SeenUrls;
use crate::stats::SessionCounters;
use crate::table::{Stamped, Table};
use crate::time::SimTime;
use botwall_http::{Request, RequestView, Response, ResponseSummary};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Configuration for [`ShardedTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Idle time after which a session is finalized and a parked carry
    /// expires (paper: one hour).
    pub idle_timeout_ms: u64,
    /// Maximum live sessions; beyond this, the most idle session is
    /// finalized early to bound memory (a DoS guard the paper's design
    /// goal of low memory implies). Under concurrent ingest the bound is
    /// enforced best-effort (racing inserts may briefly overshoot it by
    /// about their number). Each shard parks at most its share of it in
    /// carries, `max_sessions.div_ceil(shards)`.
    pub max_sessions: usize,
    /// Number of key-hash shards the live-session map is split into.
    /// Each shard is an independent map behind its own mutex, so this is
    /// also the ingest concurrency limit. `0` is treated as `1`.
    pub shards: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            idle_timeout_ms: 3_600_000,
            max_sessions: 100_000,
            shards: 16,
        }
    }
}

/// One live (or finalized) session.
#[derive(Debug, Clone)]
pub struct Session {
    key: SessionKey,
    started: SimTime,
    last_seen: SimTime,
    counters: SessionCounters,
    seen_urls: SeenUrls,
}

impl Session {
    fn new(key: SessionKey, now: SimTime) -> Session {
        Session {
            key,
            started: now,
            last_seen: now,
            counters: SessionCounters::new(),
            seen_urls: SeenUrls::default(),
        }
    }

    /// The session identity.
    pub fn key(&self) -> &SessionKey {
        &self.key
    }

    /// When the first request arrived.
    pub fn started(&self) -> SimTime {
        self.started
    }

    /// When the most recent request arrived.
    pub fn last_seen(&self) -> SimTime {
        self.last_seen
    }

    /// Total requests observed.
    pub fn request_count(&self) -> u64 {
        u64::from(self.counters.total)
    }

    /// The incremental counters.
    pub fn counters(&self) -> &SessionCounters {
        &self.counters
    }

    /// Requests per second over the session's lifetime (0 for
    /// single-request sessions).
    pub fn request_rate(&self) -> f64 {
        let span_ms = self.last_seen - self.started;
        if span_ms == 0 {
            0.0
        } else {
            f64::from(self.counters.total) * 1000.0 / span_ms as f64
        }
    }

    fn observe(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        now: SimTime,
    ) {
        let record = self.seen_urls.record(request, response);
        self.counters.update(&record);
        self.last_seen = now;
    }
}

/// Per-key extension state colocated with each live session.
///
/// The detection core stores its per-key evidence/verdict/policy/token
/// state under the same shard lock as the session record. Two hooks
/// control cross-incarnation flow: [`SessionExt::on_rollover`] decides
/// what survives an idle rollover (when a key returns after the idle
/// timeout, the old incarnation is finalized with its state and the
/// successor starts from the carry-over), and [`SessionExt::absorb`]
/// folds in a *deferred* [`SessionExt::Carry`] — per-key state that
/// arrived while no session was live (e.g. a CAPTCHA pass verified after
/// the session was swept), stashed in the key's shard via
/// [`ShardedTracker::with_entry_and_carry`] and delivered to the key's
/// next incarnation the moment it is created.
pub trait SessionExt: Default {
    /// Deferred per-key state that can arrive while the key has no live
    /// session, held in the key's shard until the next incarnation
    /// starts.
    type Carry: Send + std::fmt::Debug;

    /// Derives the successor incarnation's starting state when the
    /// previous incarnation is finalized by idle rollover. Defaults to a
    /// clean slate.
    fn on_rollover(&self) -> Self {
        Self::default()
    }

    /// Folds a stashed carry into a freshly created incarnation (called
    /// under the shard lock, before the first exchange is recorded).
    /// Defaults to discarding the carry.
    fn absorb(&mut self, _carry: Self::Carry, _session: &Session) {}
}

impl SessionExt for () {
    type Carry = ();
}

/// A finalized session paired with the extension state it accumulated.
///
/// Derefs to [`Session`], so consumers that only care about the record
/// (`request_count()`, `counters()`, …) read through transparently.
#[derive(Debug, Clone)]
pub struct Finalized<E> {
    /// The finished session record.
    pub session: Session,
    /// The extension state that lived alongside it.
    pub ext: E,
}

impl<E> Deref for Finalized<E> {
    type Target = Session;

    fn deref(&self) -> &Session {
        &self.session
    }
}

/// One live entry: the session record, its extension state, and the
/// incarnation stamp leases re-bind against. Stamps are unique for the
/// lifetime of the tracker, so a lease taken against one incarnation can
/// never commit into a successor that reused the key.
#[derive(Debug)]
struct Entry<E> {
    session: Session,
    ext: E,
    incarnation: u64,
}

/// A live entry is filed under its session's key and ordered by its
/// last exchange.
impl<E> Stamped for Entry<E> {
    fn key(&self) -> &SessionKey {
        &self.session.key
    }

    fn stamp(&self) -> SimTime {
        self.session.last_seen
    }
}

/// A carry parked for a key with no live session, stamped with when it
/// was parked or last handed back.
#[derive(Debug)]
struct Parked<C> {
    key: SessionKey,
    at: SimTime,
    carry: C,
}

impl<C> Stamped for Parked<C> {
    fn key(&self) -> &SessionKey {
        &self.key
    }

    fn stamp(&self) -> SimTime {
        self.at
    }
}

/// How many sessions one insert at the cap may evict: one, plus up to
/// four more while inserts that raced past the cap check hold the count
/// at or over it.
const EVICTIONS_PER_INSERT: usize = 5;

/// One shard: its live entries and its parked carries, each a table in
/// idle order (see the module docs), the finalized sessions (rollover
/// and eviction casualties) not yet collected by a sweep or drain, and
/// how many sessions it has evicted for capacity.
#[derive(Debug)]
struct Shard<E: SessionExt> {
    live: Table<Entry<E>>,
    carries: Table<Parked<E::Carry>>,
    finalized: Vec<Finalized<E>>,
    evicted: u64,
}

impl<E: SessionExt> Default for Shard<E> {
    fn default() -> Self {
        Shard {
            live: Table::default(),
            carries: Table::default(),
            finalized: Vec::new(),
            evicted: 0,
        }
    }
}

impl<E: SessionExt> Shard<E> {
    /// The entry a lease was taken on, if `slot` still holds it. Stamps
    /// are never reused, so only that entry carries `incarnation`: a
    /// rollover in place, an eviction, or the slot gone to another key
    /// (or the slab to a drain) all read as gone.
    fn leased(&mut self, slot: u32, incarnation: u64) -> Option<&mut Entry<E>> {
        self.live
            .occupant(slot)
            .filter(|entry| entry.incarnation == incarnation)
    }
}

/// The idlest eviction candidate seen so far: its `last_seen`, key and
/// shard.
type Idlest = Option<(SimTime, SessionKey, usize)>;

/// Offers a locked shard's coldest live entry as the eviction victim:
/// it replaces `idlest` if it has been idle longer (ties toward the
/// smaller key).
fn nominate<E: SessionExt>(shard: &mut Shard<E>, idx: usize, idlest: &mut Idlest) {
    let Some(slot) = shard.live.coldest() else {
        return;
    };
    let session = &shard.live.get(slot).session;
    let idler = match idlest {
        None => true,
        Some((t, k, _)) => (session.last_seen, &session.key) < (*t, k),
    };
    if idler {
        *idlest = Some((session.last_seen, session.key.clone(), idx));
    }
}

/// A live entry pinned inside its shard's critical section, handed to a
/// [`ShardedTracker::begin_exchange`] gate and a
/// [`ShardedTracker::commit`] fold. The guard exposes the session and
/// its extension state, and lets the caller decide *when* in the
/// critical section the exchange is recorded — the enforcement gate
/// reads pre-exchange counters, the response is built, and only then is
/// the exchange folded in, all without releasing the shard lock.
#[derive(Debug)]
pub struct EntryGuard<'a, E> {
    session: &'a mut Session,
    ext: &'a mut E,
    recorded: bool,
}

impl<E> EntryGuard<'_, E> {
    /// The session as of this point in the critical section (before
    /// [`EntryGuard::record`], its counters exclude the in-flight
    /// exchange).
    pub fn session(&self) -> &Session {
        self.session
    }

    /// The colocated extension state.
    pub fn ext(&mut self) -> &mut E {
        self.ext
    }

    /// Both halves at once, for callers that read the session while
    /// mutating the extension state.
    pub fn parts(&mut self) -> (&Session, &mut E) {
        (self.session, self.ext)
    }

    /// Folds the finished exchange into the session record (counters,
    /// seen URLs, `last_seen`): the request, and what a record keeps
    /// of its response. Call at most once, from a gate that finishes or
    /// a fold; one that never records has the exchange recorded for it
    /// (responseless) on exit.
    pub fn record(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        now: SimTime,
    ) {
        debug_assert!(!self.recorded, "one exchange, one record");
        self.session.observe(request, response, now);
        self.recorded = true;
    }
}

/// Streaming `<IP, User-Agent>` session store with idle-timeout
/// finalization, sharded for concurrent ingest.
///
/// The live set is split into [`TrackerConfig::shards`] key-hash shards
/// (stable FNV-1a via [`SessionKey::shard_hash`], so a key lands on the
/// same shard in every run), each behind its own mutex — the entire API
/// is `&self` and the tracker is `Send + Sync` whenever `E` is. All
/// cross-shard walks — [`sweep`], [`drain`], capacity eviction — visit
/// shards in index order and never depend on `HashMap` iteration order,
/// keeping batch output deterministic; no call ever holds two shard
/// locks at once (a debug build panics if one tries), so the tracker
/// cannot deadlock against itself.
///
/// [`sweep`]: ShardedTracker::sweep
/// [`drain`]: ShardedTracker::drain
///
/// # Examples
///
/// ```
/// use botwall_http::{Method, Request, Response, StatusCode};
/// use botwall_http::request::ClientIp;
/// use botwall_sessions::{SessionTracker, TrackerConfig, SimTime};
///
/// let t = SessionTracker::new(TrackerConfig::default());
/// let req = Request::builder(Method::Get, "/a")
///     .client(ClientIp::new(1))
///     .build().unwrap();
/// let resp = Response::empty(StatusCode::OK);
/// t.observe(&req, &resp, SimTime::ZERO);
/// // One hour and one millisecond later the session has expired.
/// let done = t.sweep(SimTime::from_hours(1) + 1);
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedTracker<E: SessionExt> {
    config: TrackerConfig,
    shards: Vec<Mutex<Shard<E>>>,
    live_total: AtomicUsize,
    /// The shard the next [`ShardedTracker::sweep_slice`] call takes.
    sweep_cursor: AtomicUsize,
    tracker_id: u64,
    next_incarnation: AtomicU64,
}

/// What [`ShardedTracker::census`] counted across all shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census {
    /// Live sessions: entries linked into a shard's idle order.
    pub live: usize,
    /// Slab slots ever allocated, occupied or vacant. Vacant slots are
    /// reused before a slab grows, so this is the high-water mark of
    /// live sessions per shard, summed.
    pub slots: usize,
    /// Finalized sessions (eviction and rollover casualties) waiting
    /// for a sweep or drain to collect them.
    pub pending: usize,
    /// Carries parked for keys with no live session.
    pub carries: usize,
}

/// Process-wide source of tracker identities: incarnation stamps are
/// only unique *within* one tracker, so every lease also carries the
/// identity of the tracker that minted it and
/// [`ShardedTracker::commit`] refuses leases from any other (committing
/// a foreign lease could otherwise panic on a shard-index mismatch or,
/// worse, silently record an exchange into an unrelated session whose
/// stamp happened to collide). The counter is never rendered — only
/// compared for equality — so it cannot disturb run determinism.
static NEXT_TRACKER_ID: AtomicU64 = AtomicU64::new(0);

/// A session leased out of its shard's critical section by
/// [`ShardedTracker::begin_exchange`]: the key, its shard, the slab slot
/// its entry was in, and the incarnation stamp the eventual
/// [`ShardedTracker::commit`] re-binds against (plus the minting
/// tracker's identity — a lease is only valid against the tracker that
/// issued it). The lease holds **no lock** — other requests for the
/// same shard (even the same session) proceed while it is outstanding —
/// and owns no entry state, so dropping it without committing leaks
/// nothing: the exchange is simply never recorded, and the session stays
/// subject to ordinary sweep/eviction.
#[derive(Debug)]
#[must_use = "a lease represents an exchange in flight; commit it (or drop it to abandon the exchange)"]
pub struct ExchangeLease {
    tracker: u64,
    key: SessionKey,
    shard: usize,
    slot: u32,
    incarnation: u64,
}

impl ExchangeLease {
    /// The leased session's key.
    pub fn key(&self) -> &SessionKey {
        &self.key
    }

    /// The shard the leased session lives in.
    pub fn shard(&self) -> usize {
        self.shard
    }
}

/// What a [`ShardedTracker::begin_exchange`] gate callback decides about
/// the critical section it is running in, with a payload of its own for
/// each outcome.
#[derive(Debug)]
pub enum Gate<F, L> {
    /// The exchange completes inside this critical section — recorded by
    /// the callback via [`EntryGuard::record`], or auto-recorded
    /// (responseless) on exit.
    Finish(F),
    /// Release the shard and lease the session: the caller fetches the
    /// response outside any lock and records the exchange at
    /// [`ShardedTracker::commit`]. The gate callback must **not** have
    /// recorded the exchange.
    Lease(L),
}

/// What [`ShardedTracker::begin_exchange`] produced.
#[derive(Debug)]
pub enum Begun<F, L> {
    /// The gate finished the exchange inside its one critical section.
    Finished(F),
    /// The session is leased; the shard mutex is already released.
    Leased(L, ExchangeLease),
}

/// The plain session store: a [`ShardedTracker`] with no extension state.
pub type SessionTracker = ShardedTracker<()>;

impl<E: SessionExt> ShardedTracker<E> {
    /// Creates an empty tracker.
    pub fn new(config: TrackerConfig) -> ShardedTracker<E> {
        let shards = config.shards.max(1);
        ShardedTracker {
            config,
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            live_total: AtomicUsize::new(0),
            sweep_cursor: AtomicUsize::new(0),
            tracker_id: NEXT_TRACKER_ID.fetch_add(1, Ordering::Relaxed),
            next_incarnation: AtomicU64::new(0),
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Number of shards the live set is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Live-session count per shard (diagnostics / load-balance checks).
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|idx| self.lock_shard(idx).live.len())
            .collect()
    }

    fn shard_index(&self, shard_hash: u64) -> usize {
        (shard_hash % self.shards.len() as u64) as usize
    }

    fn lock_shard(&self, idx: usize) -> crate::sync::ShardGuard<'_, Shard<E>> {
        crate::sync::lock_shard_or_recover(&self.shards[idx])
    }

    /// Feeds one finished exchange into the store, creating or rolling
    /// over the session as needed, and returns its key: a
    /// [`ShardedTracker::begin_exchange`] whose gate records the
    /// exchange and finishes.
    ///
    /// If the keyed session exists but has been idle past the timeout, it
    /// is finalized and a fresh session starts — matching the paper's
    /// definition (a returning client after an hour is a *new* session).
    pub fn observe(&self, request: &Request, response: &Response, now: SimTime) -> SessionKey {
        let view = request.view();
        let (key, _, _) = self.begin_exchange(&view, now, |entry| {
            entry.record(&view, Some(response.summary()), now);
            Gate::<(), ()>::Finish(())
        });
        key
    }

    /// Phase one of the two-phase request protocol: resolves the keyed
    /// entry (capacity eviction, idle rollover, creation, deferred-carry
    /// absorption) and runs the `gate` callback inside the shard
    /// critical section, where the guard's session exposes
    /// *pre-exchange* counters (what an enforcement gate wants). The
    /// callback chooses the path:
    ///
    /// * [`Gate::Finish`] — the exchange completes here, in one lock
    ///   (recorded by the callback or auto-recorded on exit); or
    /// * [`Gate::Lease`] — the shard mutex is released and an
    ///   [`ExchangeLease`] stamped with the entry's incarnation comes
    ///   back. The caller produces the response with **no lock held**
    ///   (a slow origin no longer stalls the shard) and then records
    ///   the exchange through [`ShardedTracker::commit`].
    ///
    /// A leased gate callback must not record the exchange; recording
    /// belongs to the commit.
    ///
    /// The key is looked up by the request's borrowed parts: a known key
    /// comes back as a clone of the one the shard holds, and only a key
    /// the shard inserts is built (its `User-Agent` copied once, shared
    /// by the index and the session). What comes back is the key and the
    /// index of the shard it lives in (the lease carries it too) beside
    /// what the gate decided.
    pub fn begin_exchange<F, L>(
        &self,
        request: &RequestView<'_>,
        now: SimTime,
        gate: impl FnOnce(&mut EntryGuard<'_, E>) -> Gate<F, L>,
    ) -> (SessionKey, usize, Begun<F, L>) {
        let parts = KeyRef::of_view(request);
        let idx = self.shard_index(parts.shard_hash());
        // The key is resolved once, inside the critical section the
        // exchange runs in: a known key pays one lock and one hash even
        // when the store is full, and allocates nothing.
        let mut locked = self.lock_shard(idx);
        let lookup = &parts as &dyn KeyParts;
        // Hashed once: a miss's re-find after an eviction and its insert
        // reuse the tag (the shard's table outlives the unlock).
        let tag = locked.live.tag(lookup);
        let mut found = locked.live.find_tagged(tag, lookup);
        // A never-seen key at the cap: let go of the shard, evict (shard
        // locks one at a time — never two at once, so lock order cannot
        // deadlock) and come back. Inserts that raced past the check
        // each evict again while the count is still at the cap, so the
        // overshoot cannot ratchet up; at most `EVICTIONS_PER_INSERT`
        // times, then the insert proceeds regardless: the bound is a
        // memory guard, and a state with no evictable victim
        // (max_sessions of 0, or every candidate racing away) must not
        // stall ingest.
        let mut evictions = 0;
        while found.is_none()
            && evictions < EVICTIONS_PER_INSERT
            && self.live_total.load(Ordering::Relaxed) >= self.config.max_sessions
        {
            let mut idlest = None;
            nominate(&mut locked, idx, &mut idlest);
            drop(locked);
            self.evict_most_idle(idx, idlest);
            evictions += 1;
            locked = self.lock_shard(idx);
            found = locked.live.find_tagged(tag, lookup);
        }
        // From here the shard stays locked through rollover AND insert,
        // so a racing same-key request can never slip a fresh entry in
        // between and discard the rollover carry-over state.
        let shard = &mut *locked;
        let mut created = false;
        let (key, slot) = match found {
            Some(slot) => {
                let entry = shard.live.get_mut(slot);
                let key = entry.session.key.clone();
                if self.idle(entry.session.last_seen, now) {
                    // Idle rollover, in the predecessor's slot: it is
                    // finalized with the state it accumulated and the
                    // successor starts from its rollover carry-over.
                    created = true;
                    let successor = self.incarnate(key.clone(), now, entry.ext.on_rollover());
                    let Entry { session, ext, .. } = std::mem::replace(entry, successor);
                    shard.finalized.push(Finalized { session, ext });
                    shard.live.touch(slot);
                }
                (key, slot)
            }
            None => {
                created = true;
                self.live_total.fetch_add(1, Ordering::Relaxed);
                let key = parts.to_key();
                let slot = shard
                    .live
                    .insert_tagged(tag, self.incarnate(key.clone(), now, E::default()));
                (key, slot)
            }
        };
        // A deferred carry (state that arrived while the key had no live
        // session) lands in the incarnation that starts now — before the
        // callback, so gates already see its effect.
        if created && !shard.carries.is_empty() {
            if let Some(carry) = self.unpark(&mut shard.carries, &key, now) {
                let entry = shard.live.get_mut(slot);
                entry.ext.absorb(carry, &entry.session);
            }
        }
        let entry = shard.live.get_mut(slot);
        let incarnation = entry.incarnation;
        let mut guard = EntryGuard {
            session: &mut entry.session,
            ext: &mut entry.ext,
            recorded: false,
        };
        let begun = match gate(&mut guard) {
            Gate::Finish(done) => {
                if !guard.recorded {
                    guard.record(request, None, now);
                }
                Begun::Finished(done)
            }
            Gate::Lease(leased) => {
                debug_assert!(
                    !guard.recorded,
                    "a leased exchange is recorded at commit, not at the gate"
                );
                Begun::Leased(
                    leased,
                    ExchangeLease {
                        tracker: self.tracker_id,
                        key: key.clone(),
                        shard: idx,
                        slot,
                        incarnation,
                    },
                )
            }
        };
        if guard.recorded {
            shard.live.touch(slot);
        }
        (key, idx, begun)
    }

    /// A fresh incarnation of `key`, first seen `now`.
    fn incarnate(&self, key: SessionKey, now: SimTime, ext: E) -> Entry<E> {
        Entry {
            session: Session::new(key, now),
            ext,
            incarnation: self.next_incarnation.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// The idle rule, for a session last seen or a carry last parked at
    /// `stamp`: idle past the timeout as of `now` it is dead. A dead
    /// session's key rolls it over at its next exchange, a sweep
    /// finalizes it, and [`ShardedTracker::with_entry_and_carry`] reads
    /// it as absent; a dead carry is dropped wherever it is reached.
    fn idle(&self, stamp: SimTime, now: SimTime) -> bool {
        now.since(stamp) > self.config.idle_timeout_ms
    }

    /// Carries a shard parks at most: its share of
    /// [`TrackerConfig::max_sessions`].
    fn carry_bound(&self) -> usize {
        self.config.max_sessions.div_ceil(self.shards.len())
    }

    /// Takes `key`'s carry out of a locked shard's table: `None` when
    /// none is parked or the one parked is idle past the timeout.
    fn unpark(
        &self,
        carries: &mut Table<Parked<E::Carry>>,
        key: &SessionKey,
        now: SimTime,
    ) -> Option<E::Carry> {
        let parked = carries.remove(carries.find(key)?);
        (!self.idle(parked.at, now)).then_some(parked.carry)
    }

    /// Phase two: re-acquires the leased session's shard, re-binds the
    /// entry **by incarnation** in the slab slot it was leased in (no
    /// key lookup), and runs `fold` against it — recording the exchange
    /// (via [`EntryGuard::record`], or auto-recorded responseless on
    /// exit) and folding whatever the out-of-lock fetch produced.
    ///
    /// When the leased incarnation is gone — evicted for capacity, or
    /// rolled over because the key returned after the idle timeout
    /// while the fetch was in flight — `lost` runs instead, under the
    /// same shard lock, with the key's live *successor* entry (if one
    /// exists, found by key) and its deferred-carry slot: evidence the
    /// exchange produced is folded into the successor or parked in the
    /// carry channel for the next incarnation, never silently dropped.
    pub fn commit<R>(
        &self,
        lease: ExchangeLease,
        request: &RequestView<'_>,
        now: SimTime,
        fold: impl FnOnce(&mut EntryGuard<'_, E>) -> R,
        lost: impl FnOnce(Option<(&Session, &mut E)>, &mut Option<E::Carry>) -> R,
    ) -> R {
        let ExchangeLease {
            tracker,
            key,
            shard: idx,
            slot,
            incarnation,
        } = lease;
        // A lease is only meaningful against the tracker that minted it:
        // another instance's shard index may be out of bounds, and its
        // incarnation stamps can collide with ours — re-binding one
        // would record an exchange into an unrelated session. This is a
        // caller bug, so fail loudly instead of routing to `lost`.
        assert_eq!(
            tracker, self.tracker_id,
            "ExchangeLease committed against a tracker that did not mint it"
        );
        let mut shard = self.lock_shard(idx);
        let shard = &mut *shard;
        if let Some(entry) = shard.leased(slot, incarnation) {
            let mut guard = EntryGuard {
                session: &mut entry.session,
                ext: &mut entry.ext,
                recorded: false,
            };
            let r = fold(&mut guard);
            if !guard.recorded {
                guard.record(request, None, now);
            }
            shard.live.touch(slot);
            return r;
        }
        // The stamp moved: whatever holds the key now succeeded the
        // leased incarnation.
        let successor = shard.live.find(&key);
        self.with_carry(shard, &key, successor, now, lost)
    }

    /// Runs `f` against a leased session's entry **without consuming the
    /// lease** — the same incarnation re-bind as
    /// [`ShardedTracker::commit`], minus the exchange recording. This is
    /// the streaming serve's mid-lease touch: instrumentation state is
    /// minted into the session when the origin body *starts* flowing,
    /// and the exchange itself still commits (or lands in the lost path)
    /// when the body finishes. One shard lock.
    ///
    /// `None` when the leased incarnation is gone (evicted or rolled
    /// over); the caller decides whether that degrades or aborts the
    /// work it wanted the session state for.
    pub fn inspect_lease<R>(
        &self,
        lease: &ExchangeLease,
        f: impl FnOnce(&Session, &mut E) -> R,
    ) -> Option<R> {
        assert_eq!(
            lease.tracker, self.tracker_id,
            "ExchangeLease inspected against a tracker that did not mint it"
        );
        let mut shard = self.lock_shard(lease.shard);
        let entry = shard.leased(lease.slot, lease.incarnation)?;
        Some(f(&entry.session, &mut entry.ext))
    }

    /// Runs `f` against the entry in `slot` (if any) of a locked shard
    /// and the deferred-carry slot of `key` (empty if the carry parked
    /// there is dead as of `now`), then parks whatever carry `f` left
    /// there, stamped `now`. At the shard's bound the least recently
    /// parked carry makes room.
    fn with_carry<R>(
        &self,
        shard: &mut Shard<E>,
        key: &SessionKey,
        slot: Option<u32>,
        now: SimTime,
        f: impl FnOnce(Option<(&Session, &mut E)>, &mut Option<E::Carry>) -> R,
    ) -> R {
        let mut parked = self.unpark(&mut shard.carries, key, now);
        let r = match slot {
            Some(slot) => {
                let entry = shard.live.get_mut(slot);
                f(Some((&entry.session, &mut entry.ext)), &mut parked)
            }
            None => f(None, &mut parked),
        };
        if let Some(carry) = parked {
            let carries = &mut shard.carries;
            if carries.len() >= self.carry_bound() {
                if let Some(coldest) = carries.coldest() {
                    carries.remove(coldest);
                }
            }
            carries.insert(Parked {
                key: key.clone(),
                at: now,
                carry,
            });
        }
        r
    }

    /// Sessions finalized early to hold [`TrackerConfig::max_sessions`]
    /// since the tracker was created, summed one shard lock at a time.
    /// Moving means the cap is biting.
    pub fn evicted_total(&self) -> u64 {
        (0..self.shards.len())
            .map(|idx| self.lock_shard(idx).evicted)
            .sum()
    }

    /// Looks up a live session, returning a clone of its record (the
    /// original lives behind the shard lock).
    pub fn get(&self, key: &SessionKey) -> Option<Session> {
        let shard = self.lock_shard(self.shard_index(key.shard_hash()));
        let slot = shard.live.find(key)?;
        Some(shard.live.get(slot).session.clone())
    }

    /// Runs `f` against a live session and its extension state under the
    /// shard lock; `None` when the key has no live session.
    pub fn with_entry<R>(
        &self,
        key: &SessionKey,
        f: impl FnOnce(&Session, &mut E) -> R,
    ) -> Option<R> {
        let mut shard = self.lock_shard(self.shard_index(key.shard_hash()));
        let slot = shard.live.find(key)?;
        let entry = shard.live.get_mut(slot);
        Some(f(&entry.session, &mut entry.ext))
    }

    /// Runs `f` against the key's live entry (if any) *and* its
    /// deferred-carry slot, under one shard lock. An entry idle past the
    /// timeout as of `now` is dead (its next exchange rolls it over) and
    /// reaches `f` as absent; so is a carry parked longer ago than that.
    /// The slot arrives with whatever live carry is stashed for the key;
    /// whatever the callback leaves in it is parked again, stamped `now`
    /// (at the shard's bound the least recently parked carry goes), and
    /// is what the key's next incarnation will absorb. This is how state
    /// that shows up while a key is dead — a CAPTCHA pass answered after
    /// the sweep — reaches the successor without any global table.
    pub fn with_entry_and_carry<R>(
        &self,
        key: &SessionKey,
        now: SimTime,
        f: impl FnOnce(Option<(&Session, &mut E)>, &mut Option<E::Carry>) -> R,
    ) -> R {
        let mut shard = self.lock_shard(self.shard_index(key.shard_hash()));
        let live = shard.live.find(key);
        let live = live.filter(|&slot| !self.idle(shard.live.get(slot).session.last_seen, now));
        self.with_carry(&mut shard, key, live, now, f)
    }

    /// Folds every live entry (shards in index order, one lock at a
    /// time) — how cross-key aggregates like per-key token occupancy are
    /// merged without a global table.
    pub fn fold_entries<A>(&self, init: A, mut f: impl FnMut(A, &Session, &E) -> A) -> A {
        let mut acc = init;
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            for entry in shard.live.values() {
                acc = f(acc, &entry.session, &entry.ext);
            }
        }
        acc
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.live_total.load(Ordering::Relaxed)
    }

    /// Finalizes every session idle past the timeout as of `now` and
    /// returns all sessions finalized since the last collection
    /// (including rollover and eviction casualties). Shards are visited
    /// in index order — each yielding its casualties then its expired
    /// keys in key order — so the batch is deterministically ordered.
    /// A session still inside the timeout is left as it is.
    ///
    /// Each shard takes the step [`ShardedTracker::sweep_slice`] takes,
    /// with no budget: one lock, the expired sessions and carries popped
    /// off the cold ends of their idle orders.
    pub fn sweep(&self, now: SimTime) -> Vec<Finalized<E>> {
        let mut out = Vec::new();
        for idx in 0..self.shards.len() {
            let (mut step, expired) = self.sweep_shard(idx, now, usize::MAX);
            step[expired..].sort_unstable_by(|a, b| a.session.key.cmp(&b.session.key));
            out.append(&mut step);
        }
        out
    }

    /// One bounded step of a sweep, cheap enough for a serving thread:
    /// takes the next shard in rotation and, under its one lock,
    /// collects its eviction and rollover casualties, finalizes up to
    /// `budget` sessions idle past the timeout as of `now` (idlest
    /// first) and drops up to `budget` carries parked longer ago than
    /// that. Returns the casualties, then the expired.
    ///
    /// [`ShardedTracker::shard_count`] consecutive calls that all come
    /// back empty mean nothing is left to collect as of `now` — the
    /// state one [`ShardedTracker::sweep`] leaves. Concurrent callers
    /// share the rotation and land on different shards.
    pub fn sweep_slice(&self, now: SimTime, budget: usize) -> Vec<Finalized<E>> {
        let idx = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.sweep_shard(idx, now, budget).0
    }

    /// One shard's step of a sweep, under its one lock: its casualties,
    /// then up to `budget` entries and up to `budget` carries popped off
    /// the cold ends while idle past the timeout. Returns the finalized
    /// and where the expired start among them.
    fn sweep_shard(&self, idx: usize, now: SimTime, budget: usize) -> (Vec<Finalized<E>>, usize) {
        let mut shard = self.lock_shard(idx);
        let shard = &mut *shard;
        let mut out = std::mem::take(&mut shard.finalized);
        let expired = out.len();
        shard.live.pop_expired(
            budget,
            |entry| self.idle(entry.session.last_seen, now),
            |entry| out.push(self.retire(entry)),
        );
        shard
            .carries
            .pop_expired(budget, |parked| self.idle(parked.at, now), drop);
        (out, expired)
    }

    /// Finalizes everything unconditionally (end of experiment) and
    /// returns all remaining sessions: prior casualties first, then live
    /// sessions shard by shard, key-ordered within each shard.
    pub fn drain(&self) -> Vec<Finalized<E>> {
        let mut out = Vec::new();
        for idx in 0..self.shards.len() {
            out.append(&mut self.lock_shard(idx).finalized);
        }
        for idx in 0..self.shards.len() {
            // The parked carries and the uncollected casualties stay.
            let live = self.lock_shard(idx).live.take();
            let mut live: Vec<Finalized<E>> = live
                .into_values()
                .map(|entry| Finalized {
                    session: entry.session,
                    ext: entry.ext,
                })
                .collect();
            self.live_total.fetch_sub(live.len(), Ordering::Relaxed);
            live.sort_unstable_by(|a, b| a.session.key.cmp(&b.session.key));
            out.append(&mut live);
        }
        out
    }

    /// Makes room for one never-seen key: finalizes the session that has
    /// been idle longest across all shards (ties toward the smaller
    /// key, see the module docs) as an eviction casualty.
    ///
    /// `idlest` arrives holding the candidate of shard `own`, nominated
    /// while the caller still held that lock for its lookup. The other
    /// shards are peeked one short lock at a time — each offers the one
    /// `(last_seen, key)` at its cold end — and the winner's shard is
    /// locked once more to pop it: `shards` acquisitions in all and a
    /// constant number of entries read, however many are live.
    ///
    /// Between the peek and the pop the winner may have been touched or
    /// taken by a racing evictor. Whatever is coldest in its shard by
    /// then goes instead: under concurrent ingest the bound matters
    /// more than the exact victim, and a pop cannot race away while the
    /// lock is held.
    fn evict_most_idle(&self, own: usize, mut idlest: Idlest) {
        for idx in (0..self.shards.len()).filter(|&idx| idx != own) {
            nominate(&mut self.lock_shard(idx), idx, &mut idlest);
        }
        let Some((_, _, idx)) = idlest else {
            return;
        };
        let mut shard = self.lock_shard(idx);
        if let Some(slot) = shard.live.coldest() {
            let casualty = self.retire(shard.live.remove(slot));
            shard.finalized.push(casualty);
            shard.evicted += 1;
        }
    }

    /// Finalizes an entry just taken out of a locked shard; the live
    /// count follows.
    fn retire(&self, entry: Entry<E>) -> Finalized<E> {
        let Entry { session, ext, .. } = entry;
        self.live_total.fetch_sub(1, Ordering::Relaxed);
        Finalized { session, ext }
    }

    /// Counts what the tracker holds (one shard lock at a time) and
    /// checks that each shard's two tables agree with themselves: every
    /// index bucket names a filed slot whose key hashes to its tag and
    /// is reachable from its home, one bucket a value, the idle order
    /// links exactly the indexed values, both ways, and the free list
    /// names exactly the vacant slab slots, once each. A soak or model
    /// test calls this after the operations it distrusts.
    ///
    /// # Panics
    ///
    /// If a shard's index, slab, idle order and free list disagree.
    pub fn census(&self) -> Census {
        let mut census = Census::default();
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            shard.live.check(&format!("shard {idx} live"));
            shard.carries.check(&format!("shard {idx} carries"));
            census.live += shard.live.len();
            census.slots += shard.live.slots();
            census.pending += shard.finalized.len();
            census.carries += shard.carries.len();
        }
        census
    }

    /// Each shard's idle order, coldest first, as `(last_seen, key)`.
    pub fn idle_order(&self) -> Vec<Vec<(SimTime, SessionKey)>> {
        (0..self.shards.len())
            .map(|idx| {
                let shard = self.lock_shard(idx);
                shard
                    .live
                    .order()
                    .map(|entry| (entry.session.last_seen, entry.session.key.clone()))
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MAX_RECORDS_PER_SESSION;
    use crate::table::TIE_WALK_BOUND;
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, StatusCode};
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::convert::Infallible;

    /// Finishes `r`'s exchange at `now` through a gate that runs `f` on
    /// the session's extension state first; what `f` returned.
    fn finish<E: SessionExt, R>(
        t: &ShardedTracker<E>,
        r: &Request,
        now: SimTime,
        f: impl FnOnce(&mut E) -> R,
    ) -> R {
        let gate = |entry: &mut EntryGuard<'_, E>| Gate::<R, Infallible>::Finish(f(entry.ext()));
        match t.begin_exchange(&r.view(), now, gate) {
            (_, _, Begun::Finished(out)) => out,
            (_, _, Begun::Leased(never, _)) => match never {},
        }
    }

    fn req(ip: u32, ua: &str, uri: &str, referer: Option<&str>) -> Request {
        let mut b = Request::builder(Method::Get, uri)
            .header("User-Agent", ua)
            .client(ClientIp::new(ip));
        if let Some(r) = referer {
            b = b.header("Referer", r);
        }
        b.build().unwrap()
    }

    fn ok() -> Response {
        Response::builder(StatusCode::OK)
            .header("Content-Type", "text/html")
            .build()
    }

    #[test]
    fn one_session_per_key() {
        let t = SessionTracker::new(TrackerConfig::default());
        t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        t.observe(
            &req(1, "A", "http://h/2", None),
            &ok(),
            SimTime::from_secs(1),
        );
        t.observe(
            &req(1, "B", "http://h/3", None),
            &ok(),
            SimTime::from_secs(2),
        );
        t.observe(
            &req(2, "A", "http://h/4", None),
            &ok(),
            SimTime::from_secs(3),
        );
        assert_eq!(t.live_count(), 3);
    }

    #[test]
    fn idle_timeout_rolls_over_session() {
        let t = SessionTracker::new(TrackerConfig::default());
        let k = t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        // Just inside the window: same session.
        t.observe(
            &req(1, "A", "http://h/2", None),
            &ok(),
            SimTime::from_hours(1),
        );
        assert_eq!(t.get(&k).unwrap().request_count(), 2);
        // Past the window: rollover.
        t.observe(
            &req(1, "A", "http://h/3", None),
            &ok(),
            SimTime::from_hours(2) + 1,
        );
        assert_eq!(t.get(&k).unwrap().request_count(), 1);
        let done = t.sweep(SimTime::from_hours(2) + 2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request_count(), 2);
    }

    #[test]
    fn sweep_finalizes_idle_sessions_only() {
        let t = SessionTracker::new(TrackerConfig::default());
        t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        t.observe(
            &req(2, "A", "http://h/1", None),
            &ok(),
            SimTime::from_hours(1),
        );
        let done = t.sweep(SimTime::from_hours(1) + 1);
        assert_eq!(done.len(), 1, "only the hour-idle session expires");
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn unseen_referer_tracking() {
        let t = SessionTracker::new(TrackerConfig::default());
        let k = t.observe(&req(1, "A", "http://h/a.html", None), &ok(), SimTime::ZERO);
        // Referer names the previously fetched page: seen.
        t.observe(
            &req(1, "A", "http://h/b.html", Some("http://h/a.html")),
            &ok(),
            SimTime::from_secs(1),
        );
        // Referer names a page never requested here: unseen.
        t.observe(
            &req(1, "A", "http://h/c.html", Some("http://elsewhere/x.html")),
            &ok(),
            SimTime::from_secs(2),
        );
        let s = t.get(&k).unwrap();
        assert_eq!(s.counters().with_referer, 2);
        assert_eq!(s.counters().unseen_referer, 1);
        assert_eq!(s.counters().link_following, 1);
    }

    /// Over the socket a browser sends origin-form targets with a
    /// `Host`, and the `Referer` of the next request spells the page
    /// whole: the page it names was seen. Absolute-form targets, what a
    /// proxy is sent, read the same.
    #[test]
    fn a_referer_read_off_the_wire_names_a_seen_page() {
        for (page, next) in [
            ("/a.html", "/b.html"),
            ("http://site.example/a.html", "http://site.example/b.html"),
        ] {
            let t = SessionTracker::new(TrackerConfig::default());
            let observe = |raw: String, now: SimTime| {
                let read = botwall_http::wire::read_incoming(raw.as_bytes(), ClientIp::new(1))
                    .expect("the request parses")
                    .expect("the request is whole");
                let view = read.view();
                let (key, _, _) = t.begin_exchange(view, now, |entry| {
                    entry.record(view, Some(ok().summary()), now);
                    Gate::<(), ()>::Finish(())
                });
                key
            };
            let head = |target: &str, referer: &str| {
                format!(
                    "GET {target} HTTP/1.1\r\nHost: site.example\r\nUser-Agent: A\r\n{referer}\r\n"
                )
            };
            observe(head(page, ""), SimTime::ZERO);
            let k = observe(
                head(next, "Referer: http://site.example/a.html\r\n"),
                SimTime::from_secs(1),
            );
            let c = t.get(&k).unwrap().counters().clone();
            let referers = (c.with_referer, c.unseen_referer, c.link_following);
            assert_eq!(referers, (1, 0, 1), "{page}");
        }
    }

    #[test]
    fn remembered_urls_are_bounded_but_counters_continue() {
        let t = SessionTracker::new(TrackerConfig::default());
        let requests = MAX_RECORDS_PER_SESSION as u64 + 10;
        let mut k = None;
        for i in 0..requests {
            let key = t.observe(
                &req(1, "A", &format!("http://h/{i}.html"), None),
                &ok(),
                SimTime::from_secs(i),
            );
            k = Some(key);
        }
        let s = t.get(&k.unwrap()).unwrap();
        assert_eq!(s.seen_urls.len(), MAX_RECORDS_PER_SESSION);
        assert_eq!(s.request_count(), requests);
    }

    #[test]
    fn remembered_urls_are_bounded_like_the_record_log() {
        // A client that keeps asking for new URLs inside the idle
        // timeout: the session remembers the first distinct ones only.
        let t = SessionTracker::new(TrackerConfig::default());
        let url = |i: u64| format!("http://h/{i}.html");
        let at = SimTime::from_millis;
        let mut k = None;
        for i in 0..2_000 {
            k = Some(t.observe(&req(1, "A", &url(i), None), &ok(), at(i)));
        }
        let key = k.unwrap();
        let s = t.get(&key).unwrap();
        assert_eq!(s.seen_urls.len(), MAX_RECORDS_PER_SESSION);
        assert_eq!(s.request_count(), 2_000);
        // A Referer naming a remembered URL reads seen; one naming a
        // URL past the bound reads unseen.
        t.observe(&req(1, "A", "http://h/x", Some(&url(1))), &ok(), at(2_000));
        assert_eq!(t.get(&key).unwrap().counters().unseen_referer, 0);
        t.observe(
            &req(1, "A", "http://h/y", Some(&url(1_500))),
            &ok(),
            at(2_001),
        );
        let s = t.get(&key).unwrap();
        assert_eq!(s.counters().with_referer, 2);
        assert_eq!(s.counters().unseen_referer, 1);
        assert_eq!(s.seen_urls.len(), MAX_RECORDS_PER_SESSION);
    }

    #[test]
    fn capacity_eviction_finalizes_most_idle() {
        let cfg = TrackerConfig {
            max_sessions: 2,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        t.observe(
            &req(2, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(10),
        );
        // Third distinct key forces eviction of the most idle (ip=1).
        t.observe(
            &req(3, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(20),
        );
        assert_eq!(t.live_count(), 2);
        let done = t.drain();
        // 2 live drained + 1 evicted = 3 total, evicted is ip 1.
        assert_eq!(done.len(), 3);
        let evicted = &done[0];
        assert_eq!(evicted.key().ip(), ClientIp::new(1));
    }

    #[test]
    fn request_rate() {
        let t = SessionTracker::new(TrackerConfig::default());
        let k = t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        t.observe(
            &req(1, "A", "http://h/2", None),
            &ok(),
            SimTime::from_secs(1),
        );
        t.observe(
            &req(1, "A", "http://h/3", None),
            &ok(),
            SimTime::from_secs(2),
        );
        let s = t.get(&k).unwrap();
        assert!((s.request_rate() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_tie_breaks_on_key_not_map_order() {
        // Two sessions with IDENTICAL last_seen: the evicted one must be
        // chosen by key comparison, not HashMap iteration order (which is
        // seeded per map instance and differs run to run).
        let cfg = TrackerConfig {
            max_sessions: 2,
            ..TrackerConfig::default()
        };
        for _ in 0..16 {
            let t = SessionTracker::new(cfg.clone());
            t.observe(&req(7, "A", "http://h/1", None), &ok(), SimTime::ZERO);
            t.observe(&req(3, "A", "http://h/1", None), &ok(), SimTime::ZERO);
            // Third key forces an eviction; both candidates are equally
            // idle, so the smaller key (ip 3) must lose every time.
            t.observe(
                &req(9, "A", "http://h/1", None),
                &ok(),
                SimTime::from_secs(5),
            );
            let done = t.drain();
            assert_eq!(
                done[0].key().ip(),
                ClientIp::new(3),
                "tie must break on key"
            );
        }
    }

    #[test]
    fn sharding_distributes_sessions_and_preserves_totals() {
        let cfg = TrackerConfig {
            shards: 8,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        assert_eq!(t.shard_count(), 8);
        for ip in 0..200 {
            t.observe(&req(ip, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        }
        assert_eq!(t.live_count(), 200);
        let sizes = t.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 200);
        // FNV over distinct IPs should touch more than one shard.
        assert!(sizes.iter().filter(|s| **s > 0).count() > 1);
        assert_eq!(t.drain().len(), 200);
        assert_eq!(t.live_count(), 0);
    }

    #[test]
    fn drain_order_is_deterministic_across_trackers() {
        // Same input into two independent trackers (different HashMap
        // hash seeds) must drain in the same order.
        let run = || {
            let t = SessionTracker::new(TrackerConfig::default());
            for ip in 0..100 {
                t.observe(
                    &req(ip * 31 % 97, &format!("ua{}", ip % 7), "http://h/1", None),
                    &ok(),
                    SimTime::from_secs(ip as u64),
                );
            }
            t.drain()
                .iter()
                .map(|s| s.key().clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn sweep_order_is_deterministic_across_trackers() {
        let run = || {
            let t = SessionTracker::new(TrackerConfig {
                shards: 4,
                ..TrackerConfig::default()
            });
            for ip in 0..60 {
                t.observe(&req(ip, "A", "http://h/1", None), &ok(), SimTime::ZERO);
            }
            t.sweep(SimTime::from_hours(2))
                .iter()
                .map(|s| s.key().clone())
                .collect::<Vec<_>>()
        };
        let keys = run();
        assert_eq!(keys.len(), 60);
        assert_eq!(keys, run());
    }

    #[test]
    fn single_shard_config_behaves_like_unsharded() {
        let cfg = TrackerConfig {
            shards: 1,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        assert_eq!(t.shard_count(), 1);
        let k = t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        assert_eq!(t.get(&k).unwrap().request_count(), 1);
        assert_eq!(t.live_count(), 1);
    }

    #[test]
    fn zero_shards_is_clamped_to_one() {
        let cfg = TrackerConfig {
            shards: 0,
            ..TrackerConfig::default()
        };
        let t: SessionTracker = SessionTracker::new(cfg);
        assert_eq!(t.shard_count(), 1);
    }

    #[test]
    fn zero_max_sessions_cannot_stall_ingest() {
        // A memory bound smaller than one session is degenerate, but it
        // must degrade to best-effort (evict-then-insert), never into a
        // retry spin that hangs the request path.
        let cfg = TrackerConfig {
            max_sessions: 0,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for ip in 0..5 {
            t.observe(&req(ip, "A", "http://h/1", None), &ok(), SimTime::ZERO);
            assert!(t.live_count() <= 1, "each insert evicts the previous");
        }
        // 4 evicted casualties + 1 live.
        assert_eq!(t.drain().len(), 5);
    }

    #[test]
    fn rollover_at_capacity_keeps_the_carry_over() {
        // The successor of a rolled-over session must inherit the
        // carry-over even when the store is at its capacity bound.
        let cfg = TrackerConfig {
            max_sessions: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let r = req(8, "A", "http://h/1", None);
        finish(&t, &r, SimTime::ZERO, |e| e.touched += 1);
        t.observe(&r, &ok(), SimTime::from_hours(2));
        let key = SessionKey::of(&r);
        assert_eq!(
            t.with_entry(&key, |_, e| (e.touched, e.carried)),
            Some((0, true)),
            "carry marker must survive rollover under capacity pressure"
        );
    }

    #[test]
    fn drain_empties_everything() {
        let t = SessionTracker::new(TrackerConfig::default());
        t.observe(&req(1, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        t.observe(&req(2, "B", "http://h/2", None), &ok(), SimTime::ZERO);
        let done = t.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(t.live_count(), 0);
        assert!(t.drain().is_empty());
    }

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Tally {
        touched: u64,
        carried: bool,
    }

    impl SessionExt for Tally {
        type Carry = u64;

        fn absorb(&mut self, carry: u64, _session: &Session) {
            self.touched += carry;
        }

        fn on_rollover(&self) -> Tally {
            // The touch count resets with the incarnation; the carry
            // marker survives (models the policy block flag).
            Tally {
                touched: 0,
                carried: true,
            }
        }
    }

    #[test]
    fn extension_state_rides_with_its_session() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(5, "A", "http://h/1", None);
        for i in 0..3 {
            finish(&t, &r, SimTime::from_secs(i), |e| e.touched += 1);
        }
        let key = SessionKey::of(&r);
        assert_eq!(t.with_entry(&key, |_, e| e.touched), Some(3));
        let done = t.drain();
        assert_eq!(done[0].ext.touched, 3);
        assert!(!done[0].ext.carried);
    }

    #[test]
    fn rollover_finalizes_state_with_its_incarnation_and_carries_over() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(6, "A", "http://h/1", None);
        finish(&t, &r, SimTime::ZERO, |e| e.touched += 1);
        // Past the idle timeout: the old incarnation (touched=1) is
        // finalized; the successor starts from on_rollover (carried).
        let later = SimTime::from_hours(2);
        finish(&t, &r, later, |e| e.touched += 1);
        let key = SessionKey::of(&r);
        assert_eq!(
            t.with_entry(&key, |_, e| (e.touched, e.carried)),
            Some((1, true))
        );
        let done = t.sweep(later + 1);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].ext.touched, 1);
        assert!(!done[0].ext.carried);
    }

    #[test]
    fn with_exchange_gates_on_pre_exchange_counters() {
        let t: SessionTracker = SessionTracker::new(TrackerConfig::default());
        let r = req(12, "A", "http://h/1", None);
        let (_, _, begun) = t.begin_exchange(&r.view(), SimTime::ZERO, |entry| {
            let before = entry.session().request_count();
            entry.record(&r.view(), Some(ok().summary()), SimTime::ZERO);
            let after = entry.session().request_count();
            Gate::<_, ()>::Finish((before, after))
        });
        assert!(matches!(begun, Begun::Finished((0, 1))));
        // A gate that finishes without recording still counts the exchange.
        finish(&t, &r, SimTime::from_secs(1), |_| ());
        assert_eq!(t.get(&SessionKey::of(&r)).unwrap().request_count(), 2);
    }

    #[test]
    fn stashed_carry_is_absorbed_by_the_next_incarnation() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(13, "A", "http://h/1", None);
        let key = SessionKey::of(&r);
        // No live session: the carry parks in the shard.
        t.with_entry_and_carry(&key, SimTime::ZERO, |entry, slot| {
            assert!(entry.is_none());
            *slot = Some(41);
        });
        assert_eq!(t.census().carries, 1);
        // First exchange absorbs it before the callback runs.
        assert_eq!(finish(&t, &r, SimTime::ZERO, |e| e.touched), 41);
        assert_eq!(t.census().carries, 0, "carry is consumed, not replayed");
        // A live entry takes precedence: the slot stays untouched when
        // the callback credits the entry directly.
        t.with_entry_and_carry(&key, SimTime::from_hours(1), |entry, slot| {
            let (_, e) = entry.expect("live");
            e.touched += 1;
            assert!(slot.is_none());
        });
        assert_eq!(t.with_entry(&key, |_, e| e.touched), Some(42));
        // Idle past the timeout, the entry is dead: the credit parks for
        // the key's next incarnation instead of dying with this one.
        t.with_entry_and_carry(&key, SimTime::from_hours(1) + 1, |entry, slot| {
            assert!(entry.is_none(), "an idle entry reads as absent");
            *slot = Some(8);
        });
        assert_eq!(t.census().carries, 1);
        let later = SimTime::from_hours(2);
        assert_eq!(finish(&t, &r, later, |e| e.touched), 8);
    }

    #[test]
    fn a_carry_expires_at_the_idle_timeout_whoever_reaches_it_first() {
        let cfg = TrackerConfig {
            shards: 1,
            ..TrackerConfig::default()
        };
        let timeout = cfg.idle_timeout_ms;
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let r = req(14, "A", "http://h/1", None);
        let key = SessionKey::of(&r);
        let park = |at: SimTime| {
            t.with_entry_and_carry(&key, at, |entry, slot| {
                assert!(entry.is_none());
                *slot = Some(7);
            })
        };
        let parked = SimTime::from_hours(3);
        let dead = parked + timeout + 1;
        // The key's next exchange gets there first: the carry is dead.
        park(parked);
        assert_eq!(t.census().carries, 1);
        assert_eq!(finish(&t, &r, dead, |e| e.touched), 0);
        assert_eq!(t.census().carries, 0);
        t.drain();
        // A slice gets there first: at the timeout the carry is still
        // parked, a millisecond past it the slice drops it.
        park(parked);
        assert!(t.sweep_slice(parked + timeout, 8).is_empty());
        assert_eq!(t.census().carries, 1);
        assert!(t.sweep_slice(dead, 8).is_empty());
        assert_eq!(t.census().carries, 0);
        assert_eq!(finish(&t, &r, dead, |e| e.touched), 0);
        // Inside the timeout the key's return still absorbs it.
        t.drain();
        park(parked);
        assert_eq!(finish(&t, &r, parked + timeout, |e| e.touched), 7);
        assert_eq!(t.census().carries, 0);
    }

    #[test]
    fn concurrent_ingest_loses_no_requests() {
        use std::sync::Arc;
        let t: Arc<SessionTracker> = Arc::new(SessionTracker::new(TrackerConfig::default()));
        let threads = 4;
        let per_thread = 500u64;
        let handles: Vec<_> = (0..threads)
            .map(|n| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        // Distinct key space per thread plus a shared key
                        // every thread hammers (cross-shard contention).
                        let ip = if i % 5 == 0 {
                            9999
                        } else {
                            n * 1000 + i as u32
                        };
                        t.observe(
                            &req(ip, "A", "http://h/1", None),
                            &ok(),
                            SimTime::from_secs(i),
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = t.drain().iter().map(|s| s.request_count()).sum();
        assert_eq!(total, threads as u64 * per_thread);
        assert_eq!(t.live_count(), 0);
    }

    /// Leases out a request for `t`, asserting it was not finished fused.
    fn lease_out(t: &ShardedTracker<Tally>, r: &Request, now: SimTime) -> ExchangeLease {
        match t.begin_exchange(&r.view(), now, |_| Gate::Lease(())) {
            (_, _, Begun::Leased((), lease)) => lease,
            (_, _, Begun::Finished(())) => panic!("Gate::Lease must lease"),
        }
    }

    #[test]
    fn begin_then_commit_records_one_exchange() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(40, "A", "http://h/1", None);
        let (key, _, begun) = t.begin_exchange(&r.view(), SimTime::ZERO, |entry| {
            assert_eq!(entry.session().request_count(), 0, "pre-exchange gate");
            entry.ext().touched += 1;
            Gate::<(), _>::Lease(entry.session().request_count())
        });
        let Begun::Leased(pre_count, lease) = begun else {
            panic!("expected a lease");
        };
        assert_eq!(pre_count, 0);
        assert_eq!(lease.key(), &key);
        // Nothing recorded while the lease is outstanding.
        assert_eq!(t.get(&key).unwrap().request_count(), 0);
        let resp = ok();
        let folded = t.commit(
            lease,
            &r.view(),
            SimTime::from_secs(1),
            |entry| {
                entry.record(&r.view(), Some(resp.summary()), SimTime::from_secs(1));
                entry.ext().touched += 1;
                true
            },
            |_, _| false,
        );
        assert!(folded, "live lease must take the fold path");
        let s = t.get(&key).unwrap();
        assert_eq!(s.request_count(), 1);
        assert_eq!(s.last_seen(), SimTime::from_secs(1));
        assert_eq!(t.with_entry(&key, |_, e| e.touched), Some(2));
    }

    #[test]
    fn fused_and_leased_paths_share_entry_resolution() {
        // A Gate::Finish that records nothing is auto-recorded
        // (responseless) on exit.
        let t: SessionTracker = SessionTracker::new(TrackerConfig::default());
        let r = req(41, "A", "http://h/1", None);
        let gate = |_: &mut EntryGuard<'_, ()>| Gate::<u32, ()>::Finish(7);
        let (key, _, begun) = t.begin_exchange(&r.view(), SimTime::ZERO, gate);
        assert!(matches!(begun, Begun::Finished(7)));
        assert_eq!(t.get(&key).unwrap().request_count(), 1);
    }

    #[test]
    fn commit_after_eviction_routes_through_the_carry_channel() {
        let cfg = TrackerConfig {
            max_sessions: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let leased = req(42, "A", "http://h/1", None);
        let lease = lease_out(&t, &leased, SimTime::ZERO);
        // Another key forces the leased session out of the store.
        t.observe(
            &req(43, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(5),
        );
        assert!(t.get(lease.key()).is_none(), "leased entry evicted");
        let went_lost = t.commit(
            lease,
            &leased.view(),
            SimTime::from_secs(6),
            |_| false,
            |successor, slot| {
                assert!(successor.is_none(), "no live successor after eviction");
                *slot = Some(11);
                true
            },
        );
        assert!(went_lost);
        assert_eq!(t.census().carries, 1);
        // The key's next incarnation absorbs the parked evidence.
        assert_eq!(
            finish(&t, &leased, SimTime::from_secs(7), |e| e.touched),
            11
        );
    }

    #[test]
    fn commit_after_rollover_sees_the_live_successor() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(44, "A", "http://h/1", None);
        t.observe(&r, &ok(), SimTime::ZERO);
        let lease = lease_out(&t, &r, SimTime::from_secs(1));
        // The key returns after the idle timeout while the lease is in
        // flight: the leased incarnation is finalized and a successor
        // (with the rollover carry-over) takes the key.
        let later = SimTime::from_hours(2);
        t.observe(&r, &ok(), later);
        let committed_into_successor = t.commit(
            lease,
            &r.view(),
            later + 1,
            |_| false,
            |successor, slot| {
                let (_, ext) = successor.expect("successor is live");
                assert!(ext.carried, "rollover carry-over intact at lost-commit");
                ext.touched += 100;
                assert!(slot.is_none());
                true
            },
        );
        assert!(committed_into_successor);
        let key = SessionKey::of(&r);
        assert_eq!(
            t.with_entry(&key, |_, e| (e.touched, e.carried)),
            Some((100, true))
        );
        // The finalized leased incarnation never got the exchange.
        let done = t.sweep(SimTime::from_hours(9));
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[0].request_count(),
            1,
            "the leased exchange was never recorded into the rolled-over incarnation"
        );
    }

    #[test]
    fn two_concurrent_leases_on_one_session_both_commit() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(45, "A", "http://h/1", None);
        let a = lease_out(&t, &r, SimTime::ZERO);
        let b = lease_out(&t, &r, SimTime::from_secs(1));
        let resp = ok();
        // Commit out of order: the incarnation is unchanged, so both
        // re-bind and each records its own exchange.
        for (lease, at) in [(b, SimTime::from_secs(2)), (a, SimTime::from_secs(3))] {
            let ok_path = t.commit(
                lease,
                &r.view(),
                at,
                |entry| {
                    entry.record(&r.view(), Some(resp.summary()), at);
                    true
                },
                |_, _| false,
            );
            assert!(ok_path);
        }
        let key = SessionKey::of(&r);
        assert_eq!(t.get(&key).unwrap().request_count(), 2);
    }

    #[test]
    fn a_dropped_lease_leaks_nothing_and_sweep_reclaims() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(46, "A", "http://h/1", None);
        let key = SessionKey::of(&r);
        let lease = lease_out(&t, &r, SimTime::ZERO);
        drop(lease);
        // The entry exists (the gate created it) but holds no in-flight
        // state: its exchange was never recorded, carries are empty, and
        // an ordinary sweep finalizes it like any idle session.
        assert_eq!(t.get(&key).unwrap().request_count(), 0);
        assert_eq!(t.census().carries, 0);
        let done = t.sweep(SimTime::from_hours(2));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].request_count(), 0);
        assert_eq!(t.live_count(), 0);
        // And a commit is impossible by construction: the lease is gone.
    }

    #[test]
    fn stale_lease_cannot_touch_a_reused_keys_new_incarnation() {
        // Evict the leased entry, then let the SAME key start a fresh
        // incarnation before the commit lands: the stale lease must take
        // the lost path (incarnation mismatch), not fold into the
        // imposter.
        let cfg = TrackerConfig {
            max_sessions: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let r = req(47, "A", "http://h/1", None);
        let lease = lease_out(&t, &r, SimTime::ZERO);
        // Evict it with another key...
        t.observe(
            &req(48, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(1),
        );
        // ...then revive the original key as a NEW incarnation.
        t.observe(&r, &ok(), SimTime::from_secs(2));
        let took_lost_path = t.commit(
            lease,
            &r.view(),
            SimTime::from_secs(3),
            |_| false,
            |successor, _| {
                let (session, ext) = successor.expect("new incarnation is live");
                assert_eq!(session.request_count(), 1);
                ext.touched += 1;
                true
            },
        );
        assert!(took_lost_path, "stale incarnation must not re-bind");
        let key = SessionKey::of(&r);
        assert_eq!(
            t.get(&key).unwrap().request_count(),
            1,
            "the stale lease recorded nothing into the new incarnation"
        );
    }

    #[test]
    #[should_panic(expected = "did not mint it")]
    fn a_lease_cannot_commit_against_a_different_tracker() {
        // Incarnation stamps are only unique per tracker; a lease minted
        // by tracker A must be rejected by tracker B outright rather
        // than re-binding into an unrelated session that happens to
        // share the stamp.
        let a: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let b: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(49, "A", "http://h/1", None);
        let lease = lease_out(&a, &r, SimTime::ZERO);
        // Give B a same-key entry so a silent re-bind would be possible
        // if only incarnations were compared.
        b.observe(&r, &ok(), SimTime::ZERO);
        b.commit(lease, &r.view(), SimTime::from_secs(1), |_| (), |_, _| ());
    }

    #[test]
    fn carry_bound_is_configurable_and_deterministic() {
        // One shard's share of two sessions: two carries.
        let cfg = TrackerConfig {
            max_sessions: 2,
            shards: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        for (ip, at) in [(5u32, 1), (3, 2), (9, 3)] {
            let key = SessionKey::of(&req(ip, "A", "http://h/1", None));
            t.with_entry_and_carry(&key, SimTime::from_secs(at), |_, slot| {
                *slot = Some(u64::from(ip))
            });
        }
        // Parking the third dropped the least recently parked (ip 5),
        // not the smallest key (ip 3).
        assert_eq!(t.census().carries, 2);
        let at = SimTime::from_secs(4);
        let dropped = finish(&t, &req(5, "A", "http://h/1", None), at, |e| e.touched);
        assert_eq!(dropped, 0, "the least recently parked lost its carry");
        let kept = finish(&t, &req(3, "A", "http://h/1", None), at, |e| e.touched);
        assert_eq!(kept, 3, "the surviving carry is absorbed");
        // Parked at one instant, the tie goes to the smaller key.
        let t: ShardedTracker<Tally> = ShardedTracker::new(t.config().clone());
        for ip in [5u32, 3, 9] {
            let key = SessionKey::of(&req(ip, "A", "http://h/1", None));
            t.with_entry_and_carry(&key, SimTime::ZERO, |_, slot| *slot = Some(u64::from(ip)));
        }
        let dropped = finish(&t, &req(3, "A", "http://h/1", None), at, |e| e.touched);
        assert_eq!(dropped, 0, "a tie drops the smaller key");
    }

    #[test]
    fn a_parked_conviction_outlives_a_bound_of_newer_carries() {
        // A full shard of carries, then a conviction parked under the
        // shard's smallest key: the flood it takes to push the
        // conviction out is a whole bound of newer carries, whatever the
        // keys sort like.
        const BOUND: u32 = 16;
        let cfg = TrackerConfig {
            max_sessions: BOUND as usize,
            shards: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let park = |ip: u32, at: u64, carry: u64| {
            let key = SessionKey::of(&req(ip, "A", "http://h/1", None));
            t.with_entry_and_carry(&key, SimTime::from_secs(at), |_, slot| *slot = Some(carry));
        };
        for ip in 100..100 + BOUND {
            park(ip, u64::from(ip), 1);
        }
        assert_eq!(t.census().carries, BOUND as usize);
        let conviction = SessionKey::of(&req(1, "A", "http://h/1", None));
        park(1, 1_000, 99);
        let parked =
            |t: &ShardedTracker<Tally>| t.lock_shard(0).carries.find(&conviction).is_some();
        let mut flood = 0;
        while parked(&t) {
            flood += 1;
            park(1_000 + flood, 1_000 + u64::from(flood), 1);
            assert!(flood <= BOUND, "the conviction outlived its bound");
        }
        assert_eq!(flood, BOUND);
        assert_eq!(t.census().carries, BOUND as usize);
    }

    #[test]
    fn a_touch_moves_a_session_off_the_cold_end() {
        let cfg = TrackerConfig {
            max_sessions: 3,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for ip in 1..=3 {
            t.observe(
                &req(ip, "A", "http://h/1", None),
                &ok(),
                SimTime::from_secs(u64::from(ip)),
            );
        }
        // The oldest arrival comes back: the second-oldest is now idlest.
        t.observe(
            &req(1, "A", "http://h/2", None),
            &ok(),
            SimTime::from_secs(4),
        );
        t.observe(
            &req(9, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(5),
        );
        assert_eq!(t.evicted_total(), 1);
        let casualties = t.sweep(SimTime::from_secs(5));
        assert_eq!(casualties.len(), 1);
        assert_eq!(casualties[0].key().ip(), ClientIp::new(2));
        t.census();
    }

    #[test]
    fn one_shared_instant_costs_a_bounded_walk_and_a_repeatable_victim() {
        // A simulated clock that never moves: the whole shard is one run
        // of equally idle sessions, far longer than the tie walk. The
        // bound must hold anyway, and the victims must repeat.
        let run = || {
            let t = SessionTracker::new(TrackerConfig {
                max_sessions: 200,
                shards: 1,
                ..TrackerConfig::default()
            });
            // Descending keys, so the smallest key is never at the cold
            // end: only the walk can find a smaller one.
            for ip in (0..400u32).rev() {
                t.observe(&req(ip, "A", "http://h/1", None), &ok(), SimTime::ZERO);
                assert!(t.live_count() <= 200);
            }
            t.census();
            t.sweep(SimTime::ZERO)
                .iter()
                .map(|c| c.key().ip())
                .collect::<Vec<_>>()
        };
        let victims = run();
        assert_eq!(victims.len(), 200);
        // The first eviction looks TIE_WALK_BOUND entries in from the
        // cold end (ips 399, 398, …) and takes the smallest of those.
        assert_eq!(victims[0], ClientIp::new(400 - TIE_WALK_BOUND as u32));
        assert_eq!(victims, run());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_known_key_pays_one_lock_at_the_cap_and_a_stranger_one_per_shard_more() {
        use crate::sync::counters;
        let cfg = TrackerConfig {
            max_sessions: 4,
            shards: 8,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for ip in 0..4 {
            t.observe(&req(ip, "A", "http://h/1", None), &ok(), SimTime::ZERO);
        }
        counters::reset();
        t.observe(
            &req(2, "A", "http://h/2", None),
            &ok(),
            SimTime::from_secs(1),
        );
        assert_eq!(counters::snapshot(), 1, "known key, full tracker");
        counters::reset();
        t.observe(
            &req(77, "A", "http://h/1", None),
            &ok(),
            SimTime::from_secs(2),
        );
        // The miss, seven other shards peeked, the pop, the insert.
        assert_eq!(counters::snapshot(), 8 + 2, "stranger, full tracker");
        assert_eq!(t.live_count(), 4);
    }

    #[test]
    fn slices_rotate_through_the_shards_within_their_budget() {
        let cfg = TrackerConfig {
            shards: 2,
            max_sessions: 12,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        for ip in 0..12 {
            t.observe(
                &req(ip, "A", "http://h/1", None),
                &ok(),
                SimTime::from_secs(u64::from(ip)),
            );
        }
        let sizes = t.shard_sizes();
        // Nothing idle: a slice finalizes nothing.
        for _ in 0..4 {
            assert!(t.sweep_slice(SimTime::from_secs(20), 2).is_empty());
        }
        // Everything idle: each slice finalizes at most `budget`, idlest
        // first, from the shard whose turn it is.
        let later = SimTime::from_hours(2);
        let first = t.sweep_slice(later, 3);
        let second = t.sweep_slice(later, 3);
        assert_eq!(first.len(), 3.min(sizes[0]));
        assert_eq!(second.len(), 3.min(sizes[1]));
        assert!(first
            .windows(2)
            .all(|w| w[0].last_seen() <= w[1].last_seen()));
        let mut left = 12 - first.len() - second.len();
        assert_eq!(t.live_count(), left);
        let mut quiet = 0;
        while quiet < t.shard_count() {
            let n = t.sweep_slice(later, 3).len();
            assert!(n <= 3);
            left -= n;
            quiet = if n == 0 { quiet + 1 } else { 0 };
        }
        assert_eq!((left, t.live_count()), (0, 0));
        assert_eq!(
            t.census(),
            Census {
                live: 0,
                slots: 12,
                pending: 0,
                carries: 0,
            }
        );
    }

    #[test]
    fn a_slice_collects_the_casualties_evictions_left() {
        let cfg = TrackerConfig {
            shards: 1,
            max_sessions: 2,
            ..TrackerConfig::default()
        };
        let t = SessionTracker::new(cfg);
        for ip in 0..4 {
            let r = req(ip, "A", "http://h/1", None);
            t.observe(&r, &ok(), SimTime::from_secs(u64::from(ip)));
        }
        assert_eq!(t.census().pending, 2, "two evictions wait in the shard");
        let done = t.sweep_slice(SimTime::from_secs(4), 8);
        assert_eq!(done.len(), 2);
        assert_eq!(t.census().pending, 0);
        assert_eq!(t.evicted_total(), 2);
    }

    proptest! {
        /// The flat seen-URL set answers, counts and renders as the
        /// `BTreeSet` it replaced, kept the same way: any URL (of a
        /// sequence long enough to fill it, with repeats) is remembered
        /// while fewer than the cap are. It holds one hash inline and
        /// spills at the second distinct one, and a set equals the one
        /// rebuilt from the model, whichever way each was filled.
        #[test]
        fn the_seen_set_behaves_as_a_capped_btree_set(
            urls in vec(prop_oneof![0u64..600, any::<u64>()], 0..1_400),
            probes in vec(0u64..600, 1..32),
        ) {
            let (mut seen, mut model) = (SeenUrls::default(), BTreeSet::new());
            for (i, &url) in urls.iter().enumerate() {
                seen.insert(url);
                if model.len() < MAX_RECORDS_PER_SESSION {
                    model.insert(url);
                }
                let probe = probes[i % probes.len()];
                prop_assert_eq!(seen.contains(probe), model.contains(&probe));
                prop_assert_eq!(seen.contains(url), model.contains(&url));
                prop_assert_eq!(seen.len(), model.len());
                prop_assert_eq!(seen.is_inline(), model.len() <= 1);
                if model.len() <= 2 {
                    prop_assert_eq!(format!("{seen:?}"), format!("{model:?}"));
                    prop_assert_eq!(format!("{seen:#?}"), format!("{model:#?}"));
                    let mut rebuilt = SeenUrls::default();
                    model.iter().rev().for_each(|&hash| rebuilt.insert(hash));
                    prop_assert_eq!(&seen, &rebuilt);
                }
            }
            prop_assert!(seen.len() <= MAX_RECORDS_PER_SESSION);
            prop_assert_eq!(format!("{seen:#?}"), format!("{model:#?}"));
            prop_assert_eq!(format!("{seen:?}"), format!("{model:?}"));
        }
    }
}
