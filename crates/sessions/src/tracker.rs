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
//! A shard keeps its entries in a slab (`key → slot` through one hash
//! map) and threads them onto one doubly linked list by slot index,
//! ordered by **last touch**: wherever an exchange is recorded (the only
//! place `last_seen` is written) the entry is relinked to the warm end,
//! under the shard lock that path already holds. Everything that asks
//! "who has been idle longest" reads the cold end of that list instead
//! of scanning:
//!
//! * **Capacity eviction** compares the cold ends of the shards — one
//!   `(last_seen, key)` each, one lock at a time — and finalizes the
//!   idlest. Within a shard a run of sessions sharing the cold end's
//!   `last_seen` is resolved toward the smallest key by a walk of at
//!   most eight entries (`TIE_WALK_BOUND`), cached until the run
//!   changes.
//! * **Idle expiry** pops cold ends until the first one still inside
//!   the idle timeout; [`ShardedTracker::sweep_slice`] does a bounded
//!   amount of that per call so a live server can afford to sweep.
//!
//! **What is exact.** With a clock that never runs backwards within a
//! shard (a reactor's clock, every simulated harness) touch order *is*
//! `last_seen` order, so a single-threaded caller evicts exactly the
//! globally idlest session (ties of up to `TIE_WALK_BOUND` toward the
//! smaller key) and a sweep finalizes exactly the expired ones. The
//! order is a function of the operation history alone, never of
//! `HashMap` iteration, so identical runs pick identical victims.
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

use crate::key::SessionKey;
use crate::record::RequestRecord;
use crate::stats::SessionCounters;
use crate::time::SimTime;
use botwall_http::{Request, RequestView, Response, ResponseSummary};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Deref;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Records one session keeps in its log, and distinct URLs it
/// remembers for the `Referer` check: one bound on a session's memory.
/// Its counters keep counting past it.
const MAX_RECORDS_PER_SESSION: usize = 512;

/// Configuration for [`ShardedTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// Idle time after which a session is finalized (paper: one hour).
    pub idle_timeout_ms: u64,
    /// Maximum live sessions; beyond this, the most idle session is
    /// finalized early to bound memory (a DoS guard the paper's design
    /// goal of low memory implies). Under concurrent ingest the bound is
    /// enforced best-effort (racing inserts may briefly overshoot it by
    /// about their number).
    pub max_sessions: usize,
    /// Number of key-hash shards the live-session map is split into.
    /// Each shard is an independent map behind its own mutex, so this is
    /// also the ingest concurrency limit. `0` is treated as `1`.
    pub shards: usize,
    /// Bound on deferred carries held per shard (state that arrives for
    /// a key while it has no live session, e.g. a CAPTCHA pass answered
    /// after the sweep). Beyond it the smallest key is dropped
    /// (deterministic, unlike arbitrary map eviction). `0` disables
    /// carry parking entirely.
    pub max_carries_per_shard: usize,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            idle_timeout_ms: 3_600_000,
            max_sessions: 100_000,
            shards: 16,
            max_carries_per_shard: 8_192,
        }
    }
}

/// One live (or finalized) session.
#[derive(Debug, Clone)]
pub struct Session {
    key: SessionKey,
    started: SimTime,
    last_seen: SimTime,
    records: Vec<RequestRecord>,
    counters: SessionCounters,
    // BTreeSet, not HashSet: iteration (and Debug) order must be
    // deterministic so identical runs render byte-identical reports.
    // At most `MAX_RECORDS_PER_SESSION` of them: the first distinct
    // URLs the session asked for.
    seen_urls: BTreeSet<u64>,
}

impl Session {
    fn new(key: SessionKey, now: SimTime) -> Session {
        Session {
            key,
            started: now,
            last_seen: now,
            records: Vec::new(),
            counters: SessionCounters::new(),
            seen_urls: BTreeSet::new(),
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

    /// Total requests observed (counters keep counting even after the
    /// record log is full).
    pub fn request_count(&self) -> u64 {
        self.counters.total
    }

    /// The bounded record log.
    pub fn records(&self) -> &[RequestRecord] {
        &self.records
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
            self.counters.total as f64 * 1000.0 / span_ms as f64
        }
    }

    /// `sent`, when given, is what the response came to on the wire:
    /// a body that was streamed past is not in `response` to be
    /// measured.
    fn observe(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        sent: Option<u64>,
        now: SimTime,
    ) {
        let referer_seen = request
            .referer()
            .map(|r| self.seen_urls.contains(&RequestRecord::hash_url(r)))
            .unwrap_or(false);
        let index = (self.counters.total + 1) as u32;
        let mut rec = RequestRecord::from_exchange(index, now, request, response, referer_seen);
        if let Some(sent) = sent {
            rec.bytes = request.wire_len() as u64 + sent;
        }
        if self.seen_urls.len() < MAX_RECORDS_PER_SESSION {
            self.seen_urls.insert(rec.url_hash);
        }
        self.counters.update(&rec);
        if self.records.len() < MAX_RECORDS_PER_SESSION {
            self.records.push(rec);
        }
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

    /// Occupancy this extension state contributes to the tracker's
    /// per-shard atomic gauges ([`ShardedTracker::gauge_totals`]) —
    /// e.g. `[outstanding tokens, outstanding challenges]` for the
    /// detection core. Called under the shard lock around every entry
    /// mutation and removal, so it must be cheap. Defaults to all-zero
    /// (the gauges compile down to no-ops for stateless extensions).
    fn gauge(&self) -> [u64; EXT_GAUGES] {
        [0; EXT_GAUGES]
    }
}

/// Number of occupancy columns [`SessionExt::gauge`] reports. The
/// meaning of each column is the extension type's to define; the
/// tracker only maintains live-census totals per shard.
pub const EXT_GAUGES: usize = 2;

impl SessionExt for () {
    type Carry = ();
}

/// A finalized session paired with the extension state it accumulated.
///
/// Derefs to [`Session`], so consumers that only care about the record
/// (`request_count()`, `records()`, …) read through transparently.
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

/// "No slot": the end of a shard's idle order, or an unset link.
const NIL: u32 = u32::MAX;

/// How many entries an eviction may walk through a run of sessions that
/// share the cold end's `last_seen` to find the smallest key. Simulated
/// clocks put thousands of sessions on one instant; neither a touch nor
/// an eviction may cost more than a fixed number of entries there.
const TIE_WALK_BOUND: usize = 8;

/// How many sessions one insert at the cap may evict: one, plus up to
/// four more while inserts that raced past the cap check hold the count
/// at or over it.
const EVICTIONS_PER_INSERT: usize = 5;

/// One slab slot's occupant: the entry plus its neighbours in the
/// shard's idle order, as slot indices.
#[derive(Debug)]
struct Node<E> {
    entry: Entry<E>,
    /// The next colder entry ([`NIL`] at the cold end).
    prev: u32,
    /// The next warmer entry ([`NIL`] at the warm end).
    next: u32,
}

/// One shard: its live entries in a slab, indexed by key and linked in
/// idle order (see the module docs); the finalized sessions (rollover
/// and eviction casualties) not yet collected by a sweep or drain; and
/// the deferred carries awaiting their key's next incarnation.
#[derive(Debug)]
struct Shard<E: SessionExt> {
    live: HashMap<SessionKey, u32>,
    slab: Vec<Option<Node<E>>>,
    /// Vacant slab slots, reused before the slab grows.
    free: Vec<u32>,
    /// The least recently touched entry.
    cold: u32,
    /// The most recently touched entry.
    warm: u32,
    /// The eviction victim [`Shard::coldest`] last worked out (the
    /// smallest key of the cold end's run), or [`NIL`] once the run
    /// changed under it.
    victim: u32,
    /// Where the maintenance walk of [`ShardedTracker::sweep_slice`]
    /// resumes, in slot order.
    hand: usize,
    finalized: Vec<Finalized<E>>,
    /// Ordered, so the bound's victim (the smallest key) is one step.
    carry: BTreeMap<SessionKey, E::Carry>,
}

impl<E: SessionExt> Default for Shard<E> {
    fn default() -> Self {
        Shard {
            live: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            cold: NIL,
            warm: NIL,
            victim: NIL,
            hand: 0,
            finalized: Vec::new(),
            carry: BTreeMap::new(),
        }
    }
}

impl<E: SessionExt> Shard<E> {
    fn node(&self, slot: u32) -> &Node<E> {
        self.slab[slot as usize]
            .as_ref()
            .expect("a linked slot holds an entry")
    }

    fn node_mut(&mut self, slot: u32) -> &mut Node<E> {
        self.slab[slot as usize]
            .as_mut()
            .expect("a linked slot holds an entry")
    }

    /// The entry a lease was taken on, if `slot` still holds it. Stamps
    /// are never reused, so only that entry carries `incarnation`: a
    /// rollover in place, an eviction, or the slot gone to another key
    /// (or the slab to a drain) all read as gone.
    fn leased(&mut self, slot: u32, incarnation: u64) -> Option<&mut Entry<E>> {
        let node = self.slab.get_mut(slot as usize)?.as_mut()?;
        (node.entry.incarnation == incarnation).then_some(&mut node.entry)
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = *self.node(slot);
        match prev {
            NIL => self.cold = next,
            colder => self.node_mut(colder).next = next,
        }
        match next {
            NIL => self.warm = prev,
            warmer => self.node_mut(warmer).prev = prev,
        }
    }

    fn link_warm(&mut self, slot: u32) {
        let colder = self.warm;
        let node = self.node_mut(slot);
        node.prev = colder;
        node.next = NIL;
        match colder {
            NIL => self.cold = slot,
            colder => self.node_mut(colder).next = slot,
        }
        self.warm = slot;
        // Only a list this short can see its warm end inside the tie
        // walk of its cold end.
        if self.live.len() <= TIE_WALK_BOUND {
            self.victim = NIL;
        }
    }

    /// Moves an entry whose `last_seen` was just written to the warm end.
    fn touch(&mut self, slot: u32) {
        if self.victim == slot {
            self.victim = NIL;
        }
        if self.warm != slot {
            self.unlink(slot);
            self.link_warm(slot);
        }
    }

    fn insert(&mut self, entry: Entry<E>) -> u32 {
        let key = entry.session.key.clone();
        let node = Some(Node {
            entry,
            prev: NIL,
            next: NIL,
        });
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = node;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len())
                    .ok()
                    .filter(|&slot| slot != NIL)
                    .expect("a shard holds fewer than 2^32 - 1 entries");
                self.slab.push(node);
                slot
            }
        };
        self.live.insert(key, slot);
        self.link_warm(slot);
        slot
    }

    fn remove(&mut self, slot: u32) -> Entry<E> {
        if self.victim == slot {
            self.victim = NIL;
        }
        self.unlink(slot);
        let node = self.slab[slot as usize]
            .take()
            .expect("a linked slot holds an entry");
        self.free.push(slot);
        self.live.remove(&node.entry.session.key);
        node.entry
    }

    /// Empties the live set and hands back its slab; the parked carries
    /// and the uncollected casualties stay.
    fn take_live(&mut self) -> Vec<Option<Node<E>>> {
        let carry = std::mem::take(&mut self.carry);
        let finalized = std::mem::take(&mut self.finalized);
        let fresh = Shard {
            carry,
            finalized,
            ..Shard::default()
        };
        std::mem::replace(self, fresh).slab
    }

    /// The slot capacity eviction would take from this shard: the cold
    /// end, or the smallest key among the (at most [`TIE_WALK_BOUND`])
    /// entries that follow it with the same `last_seen`.
    fn coldest(&mut self) -> Option<u32> {
        if self.victim == NIL && self.cold != NIL {
            let mut best = self.node(self.cold);
            let mut victim = self.cold;
            let mut at = best.next;
            for _ in 1..TIE_WALK_BOUND {
                if at == NIL {
                    break;
                }
                let node = self.node(at);
                if node.entry.session.last_seen != best.entry.session.last_seen {
                    break;
                }
                if node.entry.session.key < best.entry.session.key {
                    (best, victim) = (node, at);
                }
                at = node.next;
            }
            self.victim = victim;
        }
        (self.victim != NIL).then_some(self.victim)
    }
}

/// The idlest eviction candidate seen so far: its `last_seen`, key and
/// shard.
type Idlest = Option<(SimTime, SessionKey, usize)>;

/// Offers a locked shard's [`Shard::coldest`] entry as the eviction
/// victim: it replaces `idlest` if it has been idle longer (ties toward
/// the smaller key).
fn nominate<E: SessionExt>(shard: &mut Shard<E>, idx: usize, idlest: &mut Idlest) {
    let Some(slot) = shard.coldest() else {
        return;
    };
    let session = &shard.node(slot).entry.session;
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
    /// bounded log, `last_seen`): the request, and what a record keeps
    /// of its response. Call at most once, from a gate that finishes or
    /// a fold; one that never records has the exchange recorded for it
    /// (responseless) on exit.
    pub fn record(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        now: SimTime,
    ) {
        self.record_as(request, response, None, now);
    }

    /// [`EntryGuard::record`] for a response whose body went past as a
    /// stream: `head` is what is left of it to look at, and `sent` what
    /// it came to on the wire, which is what the record's `bytes`
    /// counts.
    pub fn record_streamed(
        &mut self,
        request: &RequestView<'_>,
        head: ResponseSummary,
        sent: u64,
        now: SimTime,
    ) {
        self.record_as(request, Some(head), Some(sent), now);
    }

    fn record_as(
        &mut self,
        request: &RequestView<'_>,
        response: Option<ResponseSummary>,
        sent: Option<u64>,
        now: SimTime,
    ) {
        debug_assert!(!self.recorded, "one exchange, one record");
        self.session.observe(request, response, sent, now);
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
/// locks at once, so the tracker cannot deadlock against itself.
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
/// let done = t.sweep(SimTime::from_hours(1) + 1, |_, _| ());
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedTracker<E: SessionExt> {
    config: TrackerConfig,
    shards: Vec<Mutex<Shard<E>>>,
    cells: Vec<ShardCell>,
    live_total: AtomicUsize,
    /// The shard the next [`ShardedTracker::sweep_slice`] call takes.
    sweep_cursor: AtomicUsize,
    tracker_id: u64,
    next_incarnation: AtomicU64,
}

/// One shard's lock-free readouts — the extension-occupancy gauge
/// columns and the capacity-eviction count — cache-line padded like the
/// gateway's counter cells. Updated only while the owning shard's lock
/// is held, so each cell is internally consistent; summing across cells
/// without locks is the usual relaxed snapshot.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ShardCell {
    gauges: [AtomicI64; EXT_GAUGES],
    evicted: AtomicU64,
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
            cells: (0..shards).map(|_| ShardCell::default()).collect(),
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

    fn shard_index(&self, key: &SessionKey) -> usize {
        (key.shard_hash() % self.shards.len() as u64) as usize
    }

    fn lock_shard(&self, idx: usize) -> std::sync::MutexGuard<'_, Shard<E>> {
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
    /// The key is built here, once, with its shard hash: what comes back
    /// is the key and the index of the shard it lives in (the lease
    /// carries it too) beside what the gate decided.
    pub fn begin_exchange<F, L>(
        &self,
        request: &RequestView<'_>,
        now: SimTime,
        gate: impl FnOnce(&mut EntryGuard<'_, E>) -> Gate<F, L>,
    ) -> (SessionKey, usize, Begun<F, L>) {
        let key = SessionKey::of_view(request);
        let idx = self.shard_index(&key);
        // The key is resolved once, inside the critical section the
        // exchange runs in: a known key pays one lock and one hash even
        // when the store is full.
        let mut locked = self.lock_shard(idx);
        let mut found = locked.live.get(&key).copied();
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
            found = locked.live.get(&key).copied();
        }
        // From here the shard stays locked through rollover AND insert,
        // so a racing same-key request can never slip a fresh entry in
        // between and discard the rollover carry-over state.
        let shard = &mut *locked;
        let mut created = false;
        // Gauge census as of section entry: whatever entry is live under
        // the key right now (the one a rollover would finalize).
        let mut gauge_before = [0; EXT_GAUGES];
        let slot = match found {
            Some(slot) => {
                let entry = &mut shard.node_mut(slot).entry;
                gauge_before = entry.ext.gauge();
                if self.idle(&entry.session, now) {
                    // Idle rollover, in the predecessor's slot: it is
                    // finalized with the state it accumulated and the
                    // successor starts from its rollover carry-over.
                    created = true;
                    let successor = self.incarnate(key.clone(), now, entry.ext.on_rollover());
                    let Entry { session, ext, .. } = std::mem::replace(entry, successor);
                    shard.finalized.push(Finalized { session, ext });
                    shard.touch(slot);
                }
                slot
            }
            None => {
                created = true;
                self.live_total.fetch_add(1, Ordering::Relaxed);
                shard.insert(self.incarnate(key.clone(), now, E::default()))
            }
        };
        // A deferred carry (state that arrived while the key had no live
        // session) lands in the incarnation that starts now — before the
        // callback, so gates already see its effect.
        if created && !shard.carry.is_empty() {
            if let Some(carry) = shard.carry.remove(&key) {
                let entry = &mut shard.node_mut(slot).entry;
                entry.ext.absorb(carry, &entry.session);
            }
        }
        let entry = &mut shard.node_mut(slot).entry;
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
        let recorded = guard.recorded;
        let gauge_after = entry.ext.gauge();
        if recorded {
            shard.touch(slot);
        }
        self.gauge_apply(idx, gauge_before, gauge_after);
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

    /// The idle rule: a session idle past the timeout as of `now` is
    /// dead — its key's next exchange rolls it over, a sweep finalizes
    /// it, and [`ShardedTracker::with_entry_and_carry`] reads it as
    /// absent.
    fn idle(&self, session: &Session, now: SimTime) -> bool {
        now.since(session.last_seen) > self.config.idle_timeout_ms
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
            let r = self.bind(idx, entry, |entry| {
                let mut guard = EntryGuard {
                    session: &mut entry.session,
                    ext: &mut entry.ext,
                    recorded: false,
                };
                let r = fold(&mut guard);
                if !guard.recorded {
                    guard.record(request, None, now);
                }
                r
            });
            shard.touch(slot);
            return r;
        }
        // The stamp moved: whatever holds the key now succeeded the
        // leased incarnation.
        let successor = shard.live.get(&key).copied();
        self.with_carry(idx, shard, &key, successor, lost)
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
        Some(self.bind(lease.shard, entry, |e| f(&e.session, &mut e.ext)))
    }

    /// Runs `f` against one entry of the locked shard `idx`, keeping the
    /// shard's gauges in step with whatever `f` changes.
    fn bind<R>(&self, idx: usize, entry: &mut Entry<E>, f: impl FnOnce(&mut Entry<E>) -> R) -> R {
        let before = entry.ext.gauge();
        let r = f(entry);
        self.gauge_apply(idx, before, entry.ext.gauge());
        r
    }

    /// Runs `f` against the entry in `slot` (if any) of the locked shard
    /// `idx` and the deferred-carry slot of `key`, then parks whatever
    /// carry `f` left there (subject to the per-shard bound).
    fn with_carry<R>(
        &self,
        idx: usize,
        shard: &mut Shard<E>,
        key: &SessionKey,
        slot: Option<u32>,
        f: impl FnOnce(Option<(&Session, &mut E)>, &mut Option<E::Carry>) -> R,
    ) -> R {
        let mut parked = shard.carry.remove(key);
        let r = match slot {
            Some(slot) => self.bind(idx, &mut shard.node_mut(slot).entry, |e| {
                f(Some((&e.session, &mut e.ext)), &mut parked)
            }),
            None => f(None, &mut parked),
        };
        let bound = self.config.max_carries_per_shard;
        if let Some(carry) = parked.filter(|_| bound > 0) {
            if shard.carry.len() >= bound && !shard.carry.contains_key(key) {
                shard.carry.pop_first();
            }
            shard.carry.insert(key.clone(), carry);
        }
        r
    }

    /// Applies the census delta a critical section produced to one
    /// shard's gauge columns (called while that shard's lock is held).
    fn gauge_apply(&self, idx: usize, before: [u64; EXT_GAUGES], after: [u64; EXT_GAUGES]) {
        for col in 0..EXT_GAUGES {
            let delta = after[col] as i64 - before[col] as i64;
            if delta != 0 {
                self.cells[idx].gauges[col].fetch_add(delta, Ordering::Relaxed);
            }
        }
    }

    /// Subtracts a removed entry's gauge contribution (eviction, sweep
    /// expiry, drain; a rollover goes through [`gauge_apply`]).
    ///
    /// [`gauge_apply`]: ShardedTracker::gauge_apply
    fn gauge_remove(&self, idx: usize, gauge: [u64; EXT_GAUGES]) {
        for (col, &count) in gauge.iter().enumerate() {
            if count != 0 {
                self.cells[idx].gauges[col].fetch_sub(count as i64, Ordering::Relaxed);
            }
        }
    }

    /// The live-census totals of [`SessionExt::gauge`] across all
    /// shards, maintained incrementally at every entry mutation and
    /// removal — an O(shards) atomic read, where folding the same
    /// totals out of the entries ([`ShardedTracker::fold_entries`]) is
    /// O(live sessions) and takes every shard lock.
    pub fn gauge_totals(&self) -> [u64; EXT_GAUGES] {
        let mut out = [0u64; EXT_GAUGES];
        for (col, total) in out.iter_mut().enumerate() {
            let sum: i64 = self
                .cells
                .iter()
                .map(|cell| cell.gauges[col].load(Ordering::Relaxed))
                .sum();
            *total = sum.max(0) as u64;
        }
        out
    }

    /// Sessions finalized early to hold [`TrackerConfig::max_sessions`]
    /// since the tracker was created (a lock-free sum of per-shard
    /// counters). Moving means the cap is biting.
    pub fn evicted_total(&self) -> u64 {
        self.cells
            .iter()
            .map(|cell| cell.evicted.load(Ordering::Relaxed))
            .sum()
    }

    /// Looks up a live session, returning a clone of its record (the
    /// original lives behind the shard lock).
    pub fn get(&self, key: &SessionKey) -> Option<Session> {
        let shard = self.lock_shard(self.shard_index(key));
        let slot = *shard.live.get(key)?;
        Some(shard.node(slot).entry.session.clone())
    }

    /// Runs `f` against a live session and its extension state under the
    /// shard lock; `None` when the key has no live session.
    pub fn with_entry<R>(
        &self,
        key: &SessionKey,
        f: impl FnOnce(&Session, &mut E) -> R,
    ) -> Option<R> {
        let idx = self.shard_index(key);
        let mut shard = self.lock_shard(idx);
        let slot = *shard.live.get(key)?;
        Some(self.bind(idx, &mut shard.node_mut(slot).entry, |e| {
            f(&e.session, &mut e.ext)
        }))
    }

    /// Runs `f` against the key's live entry (if any) *and* its
    /// deferred-carry slot, under one shard lock. An entry idle past the
    /// timeout as of `now` is dead (its next exchange rolls it over) and
    /// reaches `f` as absent. The slot arrives with whatever carry is
    /// currently stashed for the key; whatever the callback leaves in it
    /// (subject to the per-shard bound) is what the key's next
    /// incarnation will absorb. This is how state that shows up while a
    /// key is dead — a CAPTCHA pass answered after the sweep — reaches
    /// the successor without any global table.
    pub fn with_entry_and_carry<R>(
        &self,
        key: &SessionKey,
        now: SimTime,
        f: impl FnOnce(Option<(&Session, &mut E)>, &mut Option<E::Carry>) -> R,
    ) -> R {
        let idx = self.shard_index(key);
        let mut shard = self.lock_shard(idx);
        let live = shard.live.get(key).copied();
        let live = live.filter(|&slot| !self.idle(&shard.node(slot).entry.session, now));
        self.with_carry(idx, &mut shard, key, live, f)
    }

    /// Folds every live entry (shards in index order, one lock at a
    /// time) — how cross-key aggregates like per-key token occupancy are
    /// merged without a global table.
    pub fn fold_entries<A>(&self, init: A, mut f: impl FnMut(A, &Session, &E) -> A) -> A {
        let mut acc = init;
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            for node in shard.slab.iter().flatten() {
                acc = f(acc, &node.entry.session, &node.entry.ext);
            }
        }
        acc
    }

    /// Deferred carries currently stashed across all shards.
    pub fn carry_count(&self) -> usize {
        (0..self.shards.len())
            .map(|idx| self.lock_shard(idx).carry.len())
            .sum()
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.live_total.load(Ordering::Relaxed)
    }

    /// Finalizes every session idle past the timeout as of `now`, runs
    /// `visit` over every live session left (maintenance: expiring
    /// per-key tokens and stale challenge records rides this instead of
    /// any global registry sweep), and returns all sessions finalized
    /// since the last collection (including rollover and eviction
    /// casualties). Shards are visited in index order — each yielding
    /// its casualties then its expired keys in key order — so the batch
    /// is deterministically ordered.
    ///
    /// Each shard takes the step [`ShardedTracker::sweep_slice`] takes,
    /// with no budget: one lock, the expired popped off the cold end of
    /// its idle order, and one visit per live session.
    pub fn sweep(
        &self,
        now: SimTime,
        mut visit: impl FnMut(&Session, &mut E),
    ) -> Vec<Finalized<E>> {
        let mut out = Vec::new();
        for idx in 0..self.shards.len() {
            let (mut step, expired) = self.sweep_shard(idx, now, usize::MAX, &mut visit);
            step[expired..].sort_unstable_by(|a, b| a.session.key.cmp(&b.session.key));
            out.append(&mut step);
        }
        out
    }

    /// One bounded step of a sweep, cheap enough for a serving thread:
    /// takes the next shard in rotation and, under its one lock,
    /// collects its eviction and rollover casualties, finalizes up to
    /// `budget` sessions idle past the timeout as of `now` (idlest
    /// first), and runs `visit` over the next `budget` slab slots of the
    /// shard's maintenance walk (resumed where the shard's previous step
    /// stopped). Returns the casualties, then the expired.
    ///
    /// [`ShardedTracker::shard_count`] consecutive calls that all come
    /// back empty mean nothing is left to collect as of `now` — the
    /// state one [`ShardedTracker::sweep`] leaves. Concurrent callers
    /// share the rotation and land on different shards.
    pub fn sweep_slice(
        &self,
        now: SimTime,
        budget: usize,
        mut visit: impl FnMut(&Session, &mut E),
    ) -> Vec<Finalized<E>> {
        let idx = self.sweep_cursor.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.sweep_shard(idx, now, budget, &mut visit).0
    }

    /// One shard's step of a sweep, under its one lock: its casualties,
    /// then up to `budget` entries popped off the cold end while idle
    /// past the timeout, then `visit` over the next `budget` slab slots
    /// of its maintenance walk. Returns the finalized and where the
    /// expired start among them.
    fn sweep_shard(
        &self,
        idx: usize,
        now: SimTime,
        budget: usize,
        visit: &mut impl FnMut(&Session, &mut E),
    ) -> (Vec<Finalized<E>>, usize) {
        let mut shard = self.lock_shard(idx);
        let shard = &mut *shard;
        let mut out = std::mem::take(&mut shard.finalized);
        let expired = out.len();
        for _ in 0..budget {
            let slot = shard.cold;
            if slot == NIL || !self.idle(&shard.node(slot).entry.session, now) {
                break;
            }
            out.push(self.retire(idx, shard, slot));
        }
        for _ in 0..budget.min(shard.slab.len()) {
            if shard.hand >= shard.slab.len() {
                shard.hand = 0;
            }
            if let Some(node) = &mut shard.slab[shard.hand] {
                self.bind(idx, &mut node.entry, |e| visit(&e.session, &mut e.ext));
            }
            shard.hand += 1;
        }
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
            let mut shard = self.lock_shard(idx);
            let slab = shard.take_live();
            drop(shard);
            let mut live: Vec<Finalized<E>> = slab
                .into_iter()
                .flatten()
                .map(|Node { entry, .. }| Finalized {
                    session: entry.session,
                    ext: entry.ext,
                })
                .collect();
            self.live_total.fetch_sub(live.len(), Ordering::Relaxed);
            for f in &live {
                self.gauge_remove(idx, f.ext.gauge());
            }
            live.sort_unstable_by(|a, b| a.session.key.cmp(&b.session.key));
            out.append(&mut live);
        }
        out
    }

    /// Makes room for one never-seen key: finalizes the session that has
    /// been idle longest across all shards (ties toward the smaller
    /// key, see [`Shard::coldest`]) as an eviction casualty.
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
        if let Some(slot) = shard.coldest() {
            let casualty = self.retire(idx, &mut shard, slot);
            shard.finalized.push(casualty);
            self.cells[idx].evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes one live entry out of a *locked* shard, finalized; the live
    /// count and the gauges follow.
    fn retire(&self, idx: usize, shard: &mut Shard<E>, slot: u32) -> Finalized<E> {
        let Entry { session, ext, .. } = shard.remove(slot);
        self.live_total.fetch_sub(1, Ordering::Relaxed);
        self.gauge_remove(idx, ext.gauge());
        Finalized { session, ext }
    }

    /// Counts what the tracker holds (one shard lock at a time) and
    /// checks that each shard's structures agree: every indexed key
    /// sits in the slot the index names, the idle order links exactly
    /// the indexed entries, both ways, and the free list names exactly
    /// the vacant slab slots, once each. A soak or model test calls
    /// this after the operations it distrusts.
    ///
    /// # Panics
    ///
    /// If a shard's index, slab, idle order and free list disagree.
    pub fn census(&self) -> Census {
        let mut census = Census::default();
        for idx in 0..self.shards.len() {
            let shard = self.lock_shard(idx);
            for (key, &slot) in &shard.live {
                assert_eq!(&shard.node(slot).entry.session.key, key, "shard {idx}");
            }
            let (mut linked, mut colder, mut at) = (0, NIL, shard.cold);
            while at != NIL {
                assert_eq!(shard.node(at).prev, colder, "shard {idx} slot {at}");
                linked += 1;
                assert!(linked <= shard.live.len(), "shard {idx}: a cycle");
                (colder, at) = (at, shard.node(at).next);
            }
            assert_eq!(shard.warm, colder, "shard {idx}: warm end");
            assert_eq!(linked, shard.live.len(), "shard {idx}: linked vs indexed");
            let vacant: Vec<u32> = (0..shard.slab.len() as u32)
                .filter(|&slot| shard.slab[slot as usize].is_none())
                .collect();
            let mut free = shard.free.clone();
            free.sort_unstable();
            assert_eq!(free, vacant, "shard {idx}: free list vs vacant slots");
            assert_eq!(linked + vacant.len(), shard.slab.len(), "shard {idx}");
            assert!(
                !vacant.contains(&shard.victim),
                "shard {idx}: a stale victim"
            );
            census.live += linked;
            census.slots += shard.slab.len();
            census.pending += shard.finalized.len();
        }
        census
    }

    /// Each shard's idle order, coldest first, as `(last_seen, key)`.
    pub fn idle_order(&self) -> Vec<Vec<(SimTime, SessionKey)>> {
        (0..self.shards.len())
            .map(|idx| {
                let shard = self.lock_shard(idx);
                let mut order = Vec::with_capacity(shard.live.len());
                let mut at = shard.cold;
                while at != NIL {
                    let node = shard.node(at);
                    order.push((node.entry.session.last_seen, node.entry.session.key.clone()));
                    at = node.next;
                }
                order
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, StatusCode};
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
        let done = t.sweep(SimTime::from_hours(2) + 2, |_, _| ());
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
        let done = t.sweep(SimTime::from_hours(1) + 1, |_, _| ());
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

    #[test]
    fn record_log_is_bounded_but_counters_continue() {
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
        assert_eq!(s.records().len(), MAX_RECORDS_PER_SESSION);
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
        assert_eq!(s.records().len(), MAX_RECORDS_PER_SESSION);
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
            t.sweep(SimTime::from_hours(2), |_, _| ())
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
        let done = t.sweep(later + 1, |_, _| ());
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
        assert_eq!(t.carry_count(), 1);
        // First exchange absorbs it before the callback runs.
        assert_eq!(finish(&t, &r, SimTime::ZERO, |e| e.touched), 41);
        assert_eq!(t.carry_count(), 0, "carry is consumed, not replayed");
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
        assert_eq!(t.carry_count(), 1);
        let later = SimTime::from_hours(2);
        assert_eq!(finish(&t, &r, later, |e| e.touched), 8);
    }

    #[test]
    fn carry_survives_sweep_until_the_key_returns() {
        let t: ShardedTracker<Tally> = ShardedTracker::new(TrackerConfig::default());
        let r = req(14, "A", "http://h/1", None);
        let key = SessionKey::of(&r);
        t.observe(&r, &ok(), SimTime::ZERO);
        assert_eq!(t.sweep(SimTime::from_hours(2), |_, _| ()).len(), 1);
        t.with_entry_and_carry(&key, SimTime::from_hours(3), |_, slot| *slot = Some(7));
        // Sweeps do not disturb parked carries.
        assert!(t.sweep(SimTime::from_hours(4), |_, _| ()).is_empty());
        assert_eq!(t.carry_count(), 1);
        assert_eq!(finish(&t, &r, SimTime::from_hours(5), |e| e.touched), 7);
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
        assert_eq!(t.carry_count(), 1);
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
        let done = t.sweep(SimTime::from_hours(9), |_, _| ());
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
        assert_eq!(t.carry_count(), 0);
        let done = t.sweep(SimTime::from_hours(2), |_, _| ());
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
        let cfg = TrackerConfig {
            max_carries_per_shard: 2,
            shards: 1,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        for ip in [5u32, 3, 9] {
            let key = SessionKey::of(&req(ip, "A", "http://h/1", None));
            t.with_entry_and_carry(&key, SimTime::ZERO, |_, slot| *slot = Some(u64::from(ip)));
        }
        // Bound 2: inserting the third dropped the smallest key (ip 3).
        assert_eq!(t.carry_count(), 2);
        let kept = finish(&t, &req(5, "A", "http://h/1", None), SimTime::ZERO, |e| {
            e.touched
        });
        assert_eq!(kept, 5, "surviving carry is absorbed");
        let dropped = finish(&t, &req(3, "A", "http://h/1", None), SimTime::ZERO, |e| {
            e.touched
        });
        assert_eq!(dropped, 0, "smallest key lost its carry at the bound");
    }

    #[test]
    fn zero_carry_bound_disables_parking() {
        let cfg = TrackerConfig {
            max_carries_per_shard: 0,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Tally> = ShardedTracker::new(cfg);
        let key = SessionKey::of(&req(50, "A", "http://h/1", None));
        t.with_entry_and_carry(&key, SimTime::ZERO, |_, slot| *slot = Some(1));
        assert_eq!(t.carry_count(), 0);
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
        let casualties = t.sweep(SimTime::from_secs(5), |_, _| ());
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
            t.sweep(SimTime::ZERO, |_, _| ())
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
        // Nothing idle: a slice finalizes nothing and visits `budget`
        // live entries of one shard, resuming where the last one stopped.
        let mut visited = 0;
        for _ in 0..4 {
            let done = t.sweep_slice(SimTime::from_secs(20), 2, |_, e| {
                e.touched += 1;
                visited += 1;
            });
            assert!(done.is_empty());
        }
        assert_eq!(visited, 8, "four slices, two visits each");
        let once = t.fold_entries(0, |n, _, e| n + usize::from(e.touched == 1));
        assert_eq!(once, 8, "no entry visited twice before the rest had a turn");
        // Everything idle: each slice finalizes at most `budget`, idlest
        // first, from the shard whose turn it is.
        let later = SimTime::from_hours(2);
        let first = t.sweep_slice(later, 3, |_, _| ());
        let second = t.sweep_slice(later, 3, |_, _| ());
        assert_eq!(first.len(), 3.min(sizes[0]));
        assert_eq!(second.len(), 3.min(sizes[1]));
        assert!(first
            .windows(2)
            .all(|w| w[0].last_seen() <= w[1].last_seen()));
        let mut left = 12 - first.len() - second.len();
        assert_eq!(t.live_count(), left);
        let mut quiet = 0;
        while quiet < t.shard_count() {
            let n = t.sweep_slice(later, 3, |_, _| ()).len();
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
                pending: 0
            }
        );
    }

    #[test]
    fn a_slice_collects_casualties_and_keeps_the_gauges_in_step() {
        let cfg = TrackerConfig {
            shards: 1,
            max_sessions: 2,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Gauged> = ShardedTracker::new(cfg);
        for ip in 0..4 {
            let r = req(ip, "A", "http://h/1", None);
            finish(&t, &r, SimTime::from_secs(u64::from(ip)), |e| e.touched = 5);
        }
        assert_eq!(t.census().pending, 2, "two evictions wait in the shard");
        assert_eq!(t.gauge_totals(), [10, 0]);
        // The visit is the TTL closure's stand-in: it empties the state.
        let done = t.sweep_slice(SimTime::from_secs(4), 8, |_, e| e.touched = 0);
        assert_eq!(done.len(), 2);
        assert_eq!(t.census().pending, 0);
        assert_eq!(t.gauge_totals(), [0, 0]);
        assert_eq!(t.evicted_total(), 2);
    }

    /// Extension whose gauge reports its `touched` count in column 0 and
    /// whether it is a rollover successor in column 1.
    #[derive(Debug, Default)]
    struct Gauged {
        touched: u64,
        carried: bool,
    }

    impl SessionExt for Gauged {
        type Carry = ();

        fn on_rollover(&self) -> Gauged {
            Gauged {
                touched: 0,
                carried: true,
            }
        }

        fn gauge(&self) -> [u64; EXT_GAUGES] {
            [self.touched, u64::from(self.carried)]
        }
    }

    #[test]
    fn gauges_track_live_census_through_mutation_rollover_and_flush() {
        let t: ShardedTracker<Gauged> = ShardedTracker::new(TrackerConfig::default());
        let a = req(60, "A", "http://h/1", None);
        let b = req(61, "A", "http://h/1", None);
        finish(&t, &a, SimTime::ZERO, |e| e.touched = 3);
        finish(&t, &b, SimTime::ZERO, |e| e.touched = 4);
        assert_eq!(t.gauge_totals(), [7, 0]);
        // Mutation through with_entry moves the gauge.
        t.with_entry(&SessionKey::of(&a), |_, e| e.touched = 1);
        assert_eq!(t.gauge_totals(), [5, 0]);
        // Rollover: the old census leaves with the finalized entry; the
        // successor contributes its own (carried) column.
        finish(&t, &a, SimTime::from_hours(2), |e| e.touched = 10);
        assert_eq!(t.gauge_totals(), [14, 1]);
        // Sweep flushes the idle remainder (b) and the rollover casualty.
        let done = t.sweep(SimTime::from_hours(2) + 1, |_, _| ());
        assert_eq!(done.len(), 2);
        assert_eq!(t.gauge_totals(), [10, 1]);
        // What a sweep's visit changes in the live sessions moves the
        // gauge too.
        assert!(t
            .sweep(SimTime::from_hours(2) + 1, |_, e| e.touched = 0)
            .is_empty());
        assert_eq!(t.gauge_totals(), [0, 1]);
        // Drain empties everything; the gauges return to zero.
        t.drain();
        assert_eq!(t.gauge_totals(), [0, 0]);
    }

    #[test]
    fn gauges_match_a_full_fold_after_mixed_traffic() {
        let cfg = TrackerConfig {
            max_sessions: 30,
            shards: 4,
            ..TrackerConfig::default()
        };
        let t: ShardedTracker<Gauged> = ShardedTracker::new(cfg);
        for i in 0..200u32 {
            let r = req(i % 40, "A", "http://h/1", None);
            finish(&t, &r, SimTime::from_secs(u64::from(i)), |e| {
                e.touched = u64::from(i % 5)
            });
        }
        t.sweep(SimTime::from_secs(90), |_, _| ());
        let folded = t.fold_entries([0u64, 0], |acc, _, e| {
            let g = e.gauge();
            [acc[0] + g[0], acc[1] + g[1]]
        });
        assert_eq!(t.gauge_totals(), folded, "gauges must mirror the fold");
    }
}
