//! The online detection engine.
//!
//! [`Detector`] wires together the session tracker, the instrumentation
//! classification stream, and the set-algebra classifier, producing verdict
//! transitions in real time — the paper's core claim is that this works
//! "on-line at data request rates".
//!
//! # Staged evidence application
//!
//! Following the paper's "quick decision first" staging (§4.1), the
//! per-exchange fast path folds only *hard* evidence into the online
//! verdict (decoy fetches, beacon replays/forgeries, hidden links,
//! browser-type mismatches, mouse events, CAPTCHA passes), plus the
//! count-based no-browser-signals promotion that catches probe-blind
//! crawlers. Soft browser-test signals (CSS/JS downloads, JS execution)
//! are *accumulated* per exchange but only *applied* — via the full
//! set-algebra rule — in batch when a session flushes at [`Detector::sweep`]
//! / [`Detector::drain`] boundaries. Most exchanges carry no new evidence
//! at all, so the fast path is a cached-verdict read.
//!
//! # Shard-owned state
//!
//! All per-key mutable state — the evidence set, the cached fast-path
//! verdict, the enforcement [`PolicyState`], the outstanding beacon
//! tokens ([`TokenState`]), and the outstanding CAPTCHA challenge record
//! — lives in a [`KeyState`] colocated with the session record inside
//! the tracker's shard entry ([`ShardedTracker<KeyState>`]). A token or
//! a challenge record expires where it is read, an hour after its issue
//! ([`TokenState::redeem`], [`KeyState::outstanding_challenge`]), like a
//! probe nonce: no pass over live sessions purges it. The
//! request path is a **two-phase lease/commit protocol**:
//! [`Detector::gate`] runs policy gate → sighting resolution inside one
//! shard critical section and, for every decision that needs no origin
//! (rejections, challenges, probe objects, beacon redemptions), also
//! produces the response, records the exchange, and folds its evidence
//! there — one lock, done. A request that needs origin content instead
//! comes back as a [`Gated::NeedsOrigin`] lease (stamped with the
//! entry's incarnation): the caller fetches the origin with **no lock
//! held**, so one slow origin never stalls the other sessions on its
//! shard, then [`Detector::commit_exchange`] re-acquires the shard,
//! re-binds by incarnation, and records + folds the finished exchange —
//! two lock acquisitions total. The whole API is `&self`, and the
//! detector is `Send + Sync`: requests for different keys proceed in
//! parallel on different shards. Incarnation pairing is structural —
//! when a key rolls over or is evicted, its state is finalized *with*
//! its session, so a flushed predecessor can never steal (or leak into)
//! a successor's evidence, and a stale lease can never commit into a
//! successor. State that arrives while a key has no live session — a
//! late CAPTCHA pass, a lost leased exchange — rides the tracker's
//! deferred-carry channel ([`KeyCarry`]) to the key's next incarnation.

use crate::classifier::{self, Label, Reason, Verdict, MIN_REQUESTS_TO_CLASSIFY};
use crate::evidence::{EvidenceKind, EvidenceKinds, EvidenceSet};
use crate::policy::{Action, PolicyEngine, PolicyState};
use botwall_http::{RequestView, ResponseSummary, UserAgent};
use botwall_instrument::{Classified, KeyOutcome, ProbeKind, Sighting, TokenState};
use botwall_sessions::{
    Finalized, Session, SessionExt, SessionKey, ShardedTracker, SimTime, TrackerConfig,
};

/// Configuration for [`Detector`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectorConfig {
    /// Session tracking parameters (idle timeout, session cap, shards).
    pub tracker: TrackerConfig,
}

/// What the detector made of one recorded exchange: reported by
/// [`Detector::gate`] for an answer it gave, and by
/// [`Detector::commit_exchange`] for an origin serve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObserveOutcome {
    /// The session this exchange belongs to.
    pub key: SessionKey,
    /// The fast-path verdict after folding in this exchange: hard
    /// evidence plus the no-browser-signals promotion. Soft signals are
    /// applied in batch at flush (see the module docs), so a session with
    /// only CSS/JS evidence reads `Undecided` here.
    pub verdict: Verdict,
}

/// A finished session with its evidence and final label.
#[derive(Debug, Clone)]
pub struct CompletedSession {
    /// The underlying session (its counters and times).
    pub session: Session,
    /// All evidence collected.
    pub evidence: EvidenceSet,
    /// The final label per the set-algebra classifier.
    pub label: Label,
    /// The reason backing the label.
    pub reason: Reason,
    /// Whether the session met the >10-request classification minimum.
    pub classifiable: bool,
}

/// An outstanding CAPTCHA challenge for one session: which challenge the
/// session must answer, when it was issued, and how many wrong answers
/// it has burned. Colocated in [`KeyState`], replacing the old global
/// issue-table mutex — matching, clearing, and attempt counting all
/// happen under the session's shard lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChallengeState {
    /// The outstanding challenge's id.
    pub id: u64,
    /// When it was issued.
    pub issued: SimTime,
    /// Wrong answers so far.
    pub attempts: u32,
}

impl ChallengeState {
    /// A freshly issued challenge record.
    pub fn new(id: u64, issued: SimTime) -> ChallengeState {
        ChallengeState {
            id,
            issued,
            attempts: 0,
        }
    }
}

/// A CAPTCHA pass verified while its key had no live session (swept or
/// evicted between issue and answer). It rides the detector's
/// deferred-carry payload ([`KeyCarry`]) to the key's next incarnation,
/// so a correct answer is never silently dropped and no global pending
/// table exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingCaptchaPass {
    /// When the pass was verified.
    pub at: SimTime,
}

/// The detector's deferred-carry payload: per-key state that arrived
/// while the key had no live session, parked in the key's tracker shard
/// and absorbed by the next incarnation the moment it is created. Two
/// producers feed it: a CAPTCHA pass verified after the session was
/// swept, and a leased exchange whose incarnation was evicted mid-fetch
/// ([`Detector::commit_exchange`]'s lost path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KeyCarry {
    /// A CAPTCHA pass awaiting the next incarnation (ground-truth human
    /// evidence, credited before the first exchange is recorded).
    pub pass: Option<PendingCaptchaPass>,
    /// Origin exchanges whose leased entry was gone by commit time; the
    /// successor absorbs the count into [`KeyState::lost_commits`].
    pub lost_exchanges: u32,
    /// The evidence kinds those lost exchanges classified, merged
    /// across all of them. A decoy fetch or forged beacon committed
    /// into the carry enforces on the successor exactly as if it had
    /// been recorded live — eviction mid-fetch cannot launder evidence.
    pub lost_kinds: EvidenceKinds,
    /// When the most recent evidence-bearing lost exchange committed
    /// (the observation timestamp the successor records).
    pub lost_at: SimTime,
}

impl From<PendingCaptchaPass> for KeyCarry {
    fn from(pass: PendingCaptchaPass) -> KeyCarry {
        KeyCarry {
            pass: Some(pass),
            ..KeyCarry::default()
        }
    }
}

/// Per-key detection state, colocated with the session record in its
/// tracker shard entry: the accumulated evidence, the cached fast-path
/// verdict, the enforcement state, the outstanding beacon tokens, and
/// the outstanding challenge record.
///
/// Every live session carries one inline, so it is sized to the common
/// case, a session that was never served a page nor challenged: 80
/// bytes on a 64-bit target, the token state and the challenge record
/// one pointer each until they hold something. Its counters saturate
/// rather than wrap.
#[derive(Debug)]
pub struct KeyState {
    /// Evidence accumulated for the live incarnation.
    pub evidence: EvidenceSet,
    /// The cached fast-path verdict.
    pub verdict: Verdict,
    /// Rate-bucket and block state for the policy engine.
    pub policy: PolicyState,
    /// Outstanding beacon keys and their scripts (seeds until fetched)
    /// for this session.
    pub tokens: TokenState,
    /// The last CAPTCHA challenge record issued to this session, if it
    /// was not answered or burned; [`KeyState::outstanding_challenge`]
    /// reads it only while it is fresh. Boxed: only a challenged
    /// session holds one, and every other pays a pointer, not the
    /// record.
    pub challenge: Option<Box<ChallengeState>>,
    /// Leased exchanges of this key whose entry was gone by commit time
    /// (diagnostic; absorbed from [`KeyCarry::lost_exchanges`] or bumped
    /// directly when the lost commit finds a live successor).
    pub lost_commits: u32,
    /// Leased exchanges currently in flight (origin fetch outstanding):
    /// incremented when [`Detector::gate`] leases, decremented when
    /// [`Detector::commit_exchange`] folds the fetch back in. The gate
    /// folds this into the behavioural thresholds so a burst riding a
    /// slow origin is seen *before* its commits land (an abandoned lease
    /// leaks its count until the incarnation rolls over — erring toward
    /// enforcement, never under it).
    pub in_flight: u32,
}

impl Default for KeyState {
    fn default() -> Self {
        KeyState {
            evidence: EvidenceSet::new(),
            verdict: Verdict::Undecided,
            policy: PolicyState::default(),
            tokens: TokenState::default(),
            challenge: None,
            lost_commits: 0,
            in_flight: 0,
        }
    }
}

impl SessionExt for KeyState {
    type Carry = KeyCarry;

    /// At idle rollover, evidence, verdict, tokens, and any outstanding
    /// challenge start clean (the successor is a *new* session and must
    /// be judged on its own behaviour; its beacon keys and challenges
    /// are long expired), but the policy block flag survives — a blocked
    /// robot does not earn a reset by going quiet for an hour.
    fn on_rollover(&self) -> KeyState {
        KeyState {
            policy: self.policy.carry_over(),
            ..KeyState::default()
        }
    }

    /// A deferred carry reaches the key's next incarnation here. A
    /// CAPTCHA pass lands as ground-truth-human evidence before the
    /// first exchange is even recorded, so the gate already sees a
    /// proven human, whom it never rate limits; lost leased exchanges
    /// land on the diagnostic counter.
    fn absorb(&mut self, carry: KeyCarry, session: &Session) {
        if let Some(pass) = carry.pass {
            self.record_captcha_pass(session.request_count() as u32, pass.at);
        }
        self.lost_commits = self.lost_commits.saturating_add(carry.lost_exchanges);
        self.absorb_lost_evidence(
            carry.lost_kinds,
            session.request_count() as u32,
            carry.lost_at,
        );
    }
}

/// How long a challenge record stands after its issue: past it, the
/// session reads as holding none (the paper's session idle timeout, an
/// hour, as for a beacon token).
const CHALLENGE_LIFETIME_MS: u64 = 3_600_000;

impl KeyState {
    /// The challenge record this session must answer as of `now`, if it
    /// holds one issued no more than an hour before: an older record
    /// reads as none, and is replaced by the next challenge or leaves
    /// with the session.
    pub fn outstanding_challenge(&mut self, now: SimTime) -> Option<&mut ChallengeState> {
        self.challenge
            .as_deref_mut()
            .filter(|ch| now.since(ch.issued) <= CHALLENGE_LIFETIME_MS)
    }

    /// Records a ground-truth CAPTCHA pass directly on this state (hard
    /// human evidence; the fast-path verdict updates immediately). For
    /// callers already holding the session's shard lock — a verified
    /// answer (the gateway's `verify_captcha`) and the carry absorption
    /// both route through here.
    pub fn record_captcha_pass(&mut self, index: u32, at: SimTime) {
        self.evidence.record(EvidenceKind::PassedCaptcha, index, at);
        self.verdict =
            classifier::classify_hard(&self.evidence).expect("captcha pass is hard evidence");
    }

    /// Records one evidence observation and returns whether it was hard:
    /// listed in the classifier's hard-evidence table, so the caller
    /// re-runs [`classifier::classify_hard`] for the verdict.
    fn accumulate(&mut self, kind: EvidenceKind, index: u32, now: SimTime) -> bool {
        self.evidence.record(kind, index, now);
        classifier::is_hard(kind)
    }

    /// Folds the merged evidence kinds of lost leased exchanges into
    /// this incarnation: records each kind at `index`/`at` and re-runs
    /// the hard classifier if any is decisive. Carried evidence
    /// enforces exactly like evidence recorded live — only the original
    /// observation index and time are gone (replaced by the absorb
    /// point), never the signal itself.
    fn absorb_lost_evidence(&mut self, kinds: EvidenceKinds, index: u32, at: SimTime) {
        let mut hard = false;
        for kind in kinds.iter() {
            hard |= self.accumulate(kind, index, at);
        }
        if hard {
            self.verdict =
                classifier::classify_hard(&self.evidence).expect("hard evidence just recorded");
        }
    }

    /// Whether a browser-test signal the set algebra credits (CSS
    /// download, JS execution) has been accumulated — soft evidence that
    /// exempts the session from the no-browser-signals promotion until
    /// the batch pass decides it. Merely *fetching* the .js file is not
    /// a signal: crawlers download every link, the set algebra ignores
    /// it, and waiting can never exonerate such a session.
    fn has_browser_signals(&self) -> bool {
        self.evidence.has(EvidenceKind::DownloadedCss)
            || self.evidence.has(EvidenceKind::ExecutedJs)
    }
}

/// What a [`Detector::gate`] respond callback decides about the request:
/// which of the two ways the exchange reaches the session.
#[derive(Debug)]
pub enum GateRespond<T> {
    /// The response is produced here, inside the gate's one critical
    /// section (rejections, challenges, probe objects — everything that
    /// needs no origin), and the exchange is recorded there: what the
    /// session's record keeps of it, and the caller's payload (the
    /// answer itself, in whatever form the caller writes it).
    Respond(ResponseSummary, T),
    /// The request needs the origin: release the shard and lease the
    /// session ([`Gated::NeedsOrigin`]); the caller fetches outside any
    /// lock, and the exchange is recorded when it commits at
    /// [`Detector::commit_exchange`].
    NeedsOrigin,
}

/// What [`Detector::gate`] produced.
#[derive(Debug)]
pub enum Gated<T> {
    /// The request was decided inside one fused critical section.
    Done {
        /// The observation after folding the exchange.
        outcome: ObserveOutcome,
        /// The respond callback's payload.
        value: T,
        /// The tracker shard the session lives in.
        shard: usize,
    },
    /// The session is leased for an origin fetch; no lock is held.
    NeedsOrigin(OriginLease),
}

/// A session leased across an origin fetch: the tracker lease (key +
/// incarnation stamp) plus the gate-phase resolution the commit needs
/// — the classified sighting and the pre-exchange verdict. Holds no
/// lock and no entry state; dropping it abandons the exchange (it is
/// never recorded) without leaking anything.
#[derive(Debug)]
#[must_use = "a lease represents an exchange in flight; commit it via Detector::commit_exchange"]
pub struct OriginLease {
    lease: botwall_sessions::ExchangeLease,
    classified: Classified,
    verdict: Verdict,
}

impl OriginLease {
    /// The leased session's key.
    pub fn key(&self) -> &SessionKey {
        self.lease.key()
    }

    /// The tracker shard the leased session lives in.
    pub fn shard(&self) -> usize {
        self.lease.shard()
    }
}

/// The online human/robot detector.
///
/// Shard-parallel and `Send + Sync`: every method takes `&self`, and all
/// per-key state lives inside the sharded tracker (see the module docs).
///
/// # Examples
///
/// ```
/// use botwall_core::{Detector, DetectorConfig, GateRespond, Gated, PolicyConfig, PolicyEngine};
/// use botwall_core::classifier::Verdict;
/// use botwall_http::request::ClientIp;
/// use botwall_http::{Method, Request, Response, StatusCode};
/// use botwall_instrument::Sighting;
/// use botwall_sessions::SimTime;
///
/// let det = Detector::new(DetectorConfig::default());
/// let policy = PolicyEngine::new(PolicyConfig::default());
/// let req = Request::builder(Method::Get, "http://h/a.html")
///     .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
///     .client(ClientIp::new(1))
///     .build()
///     .unwrap();
/// // Answered inside the gate's one critical section, which hands the
/// // respond callback the session's own state, its beacon tokens too.
/// let (now, sighting) = (SimTime::ZERO, Sighting::Ordinary);
/// let gated = det.gate(&req.view(), &sighting, now, true, &policy, |_, _, state, _| {
///     assert!(state.tokens.is_empty(), "no page has been minted into it yet");
///     GateRespond::Respond(Response::empty(StatusCode::OK).summary(), ())
/// });
/// let Gated::Done { outcome, .. } = gated else { unreachable!("answered in the gate") };
/// assert_eq!(outcome.verdict, Verdict::Undecided);
/// ```
#[derive(Debug)]
pub struct Detector {
    tracker: ShardedTracker<KeyState>,
}

impl Detector {
    /// Creates a detector.
    pub fn new(config: DetectorConfig) -> Detector {
        Detector {
            tracker: ShardedTracker::new(config.tracker),
        }
    }

    /// Phase one of the two-phase request protocol: policy gate →
    /// sighting resolution → (for decisions that need no origin)
    /// response production, exchange observation, and fast-path
    /// classification, all inside **one** shard critical section.
    ///
    /// The flow inside the critical section:
    ///
    /// 1. **Gate.** With `enforce`, the policy engine decides on the
    ///    verdict and counters *as of the previous request*. The first
    ///    exchange of an incarnation has nothing to rate-limit yet and
    ///    passes — unless a rollover carried a block flag, which holds.
    /// 2. **Resolve.** The engine's stateless [`Sighting`] is resolved
    ///    against per-session state: a beacon-shaped fetch redeems its
    ///    key in the session's colocated [`TokenState`] (the operation
    ///    that used to write-lock a global token table).
    /// 3. **Respond or lease.** The caller either builds the response
    ///    here — probe objects out of session state, rejections,
    ///    challenges into the session's [`ChallengeState`] — finishing
    ///    the exchange in this one lock ([`GateRespond::Respond`]), or
    ///    declares the request needs the origin
    ///    ([`GateRespond::NeedsOrigin`]): the shard mutex is released
    ///    and a [`Gated::NeedsOrigin`] lease comes back, stamped with
    ///    the entry's incarnation. The caller fetches the origin with
    ///    **no lock held** — a slow origin stalls nobody — and folds
    ///    the result in at [`Detector::commit_exchange`].
    ///
    /// Fused respond callbacks run under the shard lock: they must not
    /// call back into this detector. After a lease is returned the lock
    /// is free — reentering the detector (even for the same key) is
    /// safe.
    ///
    /// **Enforcement under concurrent leases.** The gate consumes the
    /// session's rate-bucket token immediately (so N concurrent
    /// requests still burn N tokens and the rate limit engages
    /// mid-burst), and [`KeyState::in_flight`] counts the leases still
    /// awaiting their origin: the gate folds it into the behavioural
    /// thresholds (history gate and sustained rate — see
    /// [`PolicyEngine::decide`]), so a robot-classified burst riding a
    /// slow origin is blocked *while* its fetches are outstanding, not
    /// origin-latency × concurrency later. What still waits for commits
    /// is whatever needs the exchanges' *outcomes*: error/CGI ratios
    /// and evidence-driven verdict promotions — those signals do not
    /// exist until the origin answers.
    pub fn gate<T>(
        &self,
        request: &RequestView<'_>,
        sighting: &Sighting,
        now: SimTime,
        enforce: bool,
        policy: &PolicyEngine,
        respond: impl FnOnce(Action, &Session, &mut KeyState, &Classified) -> GateRespond<T>,
    ) -> Gated<T> {
        use botwall_sessions::{Begun, Gate};
        let agent = request.user_agent();
        let (key, shard, begun) = self.tracker.begin_exchange(request, now, |entry| {
            // 1. Policy gate on pre-exchange state.
            let action = {
                let (session, state) = entry.parts();
                if !enforce {
                    Action::Allow
                } else if session.request_count() == 0 {
                    // An incarnation's first exchange creates the
                    // state — nothing to enforce against yet, except
                    // a block flag carried over an idle rollover.
                    if state.policy.is_blocked() {
                        Action::Block
                    } else {
                        Action::Allow
                    }
                } else {
                    // Leases outstanding are requests the session has
                    // already issued: count them in the sustained rate
                    // (span extended to `now` — they arrived after the
                    // last recorded exchange) so behavioural blocking
                    // engages mid-burst instead of lagging until the
                    // commits land.
                    let session_rate = if state.in_flight == 0 {
                        session.request_rate()
                    } else {
                        let span_ms = now.since(session.started());
                        if span_ms == 0 {
                            0.0
                        } else {
                            (session.request_count() + u64::from(state.in_flight)) as f64 * 1000.0
                                / span_ms as f64
                        }
                    };
                    policy.decide(
                        &mut state.policy,
                        state.verdict,
                        session.counters(),
                        session_rate,
                        state.in_flight,
                        now,
                    )
                }
            };
            // 2. Resolve the sighting against session token state.
            let classified = sighting.resolve(&mut entry.ext().tokens, now);
            // 3. Respond here (fused) or lease for an origin fetch.
            let decided = {
                let (session, state) = entry.parts();
                respond(action, session, state, &classified)
            };
            match decided {
                GateRespond::Respond(response, value) => {
                    // 4. Record the exchange and fold its evidence.
                    entry.record(request, Some(response), now);
                    let (session, state) = entry.parts();
                    let verdict = fold_exchange(state, session, &classified, agent, now);
                    Gate::Finish((value, verdict))
                }
                GateRespond::NeedsOrigin => {
                    let state = entry.ext();
                    // The lease is in flight from this moment: later
                    // gates for the same key fold it into their
                    // thresholds even though it commits only when the
                    // origin answers.
                    state.in_flight = state.in_flight.saturating_add(1);
                    Gate::Lease((classified, state.verdict))
                }
            }
        });
        match begun {
            Begun::Finished((value, verdict)) => Gated::Done {
                outcome: ObserveOutcome { key, verdict },
                value,
                shard,
            },
            Begun::Leased((classified, verdict), lease) => Gated::NeedsOrigin(OriginLease {
                lease,
                classified,
                verdict,
            }),
        }
    }

    /// Phase two: folds an origin fetch back into the leased session —
    /// one more shard acquisition, re-bound **by incarnation**. The
    /// exchange is recorded and its evidence folded exactly as the fused
    /// path does. `head` is the response as far as a record reads it
    /// (status and headers; a page's instrumentation was minted into
    /// the session earlier, through [`Detector::with_lease_state`]). What
    /// the exchange came to on the wire is not the session's to keep: the
    /// gateway's byte ledger counts it.
    ///
    /// If the leased incarnation is gone — evicted for capacity, or
    /// rolled over because the key returned after the idle timeout
    /// mid-fetch — the exchange commits through the deferred-carry
    /// channel instead: a live successor absorbs it immediately,
    /// otherwise a [`KeyCarry`] parks in the key's shard for the next
    /// incarnation. Evidence is redirected, never dropped.
    pub fn commit_exchange(
        &self,
        lease: OriginLease,
        request: &RequestView<'_>,
        head: ResponseSummary,
        now: SimTime,
    ) -> ObserveOutcome {
        let OriginLease {
            lease,
            classified,
            verdict,
        } = lease;
        let key = lease.key().clone();
        let agent = request.user_agent();
        let verdict = self.tracker.commit(
            lease,
            request,
            now,
            |entry| {
                // The fetch is back: this lease no longer counts toward
                // the in-flight burst. Saturating because a rollover
                // mid-fetch resets the counter to zero and this commit
                // would then land on the lost path — but a racing
                // same-key re-gate between those two steps must never
                // underflow.
                let state = entry.ext();
                state.in_flight = state.in_flight.saturating_sub(1);
                entry.record(request, Some(head), now);
                let (session, state) = entry.parts();
                fold_exchange(state, session, &classified, agent, now)
            },
            |successor, slot| {
                // The classified evidence survives the eviction: a live
                // successor absorbs it now, otherwise it parks in the
                // carry for the next incarnation. Either way a decoy
                // fetch or forged beacon still enforces — losing the
                // incarnation mid-fetch is not an evidence laundry.
                let kinds = classified_kinds(&classified, agent);
                match successor {
                    Some((session, state)) => {
                        state.lost_commits = state.lost_commits.saturating_add(1);
                        state.absorb_lost_evidence(kinds, session.request_count() as u32, now);
                    }
                    None => {
                        let carry = slot.get_or_insert_with(KeyCarry::default);
                        carry.lost_exchanges = carry.lost_exchanges.saturating_add(1);
                        carry.lost_kinds.merge(kinds);
                        carry.lost_at = now;
                    }
                }
                // Best available observation: the pre-exchange verdict.
                verdict
            },
        );
        ObserveOutcome { key, verdict }
    }

    /// Runs `f` against a leased session's live state **without
    /// consuming the lease**. This is the streaming serve's begin hook:
    /// when the origin response head arrives, the gateway mints this
    /// page's instrumentation into the session (token issue, RNG draw)
    /// while the body is still in flight, then commits the exchange via
    /// [`Detector::commit_exchange`] once the body finishes. `None`
    /// when the leased incarnation is gone (evicted or rolled over
    /// mid-fetch) — the caller degrades to an uninstrumented stream and
    /// the eventual commit takes the lost path. One shard lock.
    pub fn with_lease_state<R>(
        &self,
        lease: &OriginLease,
        f: impl FnOnce(&Session, &mut KeyState) -> R,
    ) -> Option<R> {
        self.tracker.inspect_lease(&lease.lease, f)
    }

    /// The current fast-path verdict for a live session.
    pub fn verdict(&self, key: &SessionKey) -> Verdict {
        self.tracker
            .with_entry(key, |_, state| state.verdict)
            .unwrap_or(Verdict::Undecided)
    }

    /// A snapshot of the evidence collected so far for a live session
    /// (the original lives behind its shard lock).
    pub fn evidence(&self, key: &SessionKey) -> Option<EvidenceSet> {
        self.tracker
            .with_entry(key, |_, state| state.evidence.clone())
    }

    /// Runs `f` against a live session and its colocated detection/policy
    /// state under the key's shard lock; `None` when the key has no live
    /// session. This is the gateway's one-lock enforcement gate.
    pub fn with_key_state<R>(
        &self,
        key: &SessionKey,
        f: impl FnOnce(&Session, &mut KeyState) -> R,
    ) -> Option<R> {
        self.tracker.with_entry(key, f)
    }

    /// Read access to the underlying session tracker.
    pub fn tracker(&self) -> &ShardedTracker<KeyState> {
        &self.tracker
    }

    /// Folds every live session's colocated state (shards in index
    /// order, one lock at a time, never two). O(live sessions): what a
    /// stats snapshot counts occupancy with, so it must not run inside
    /// a shard critical section.
    pub fn fold_key_states<A>(&self, init: A, f: impl FnMut(A, &Session, &KeyState) -> A) -> A {
        self.tracker.fold_entries(init, f)
    }

    /// Expires idle sessions as of `now`, applying the batch set-algebra
    /// classification to each and finalizing their labels. Nothing of a
    /// live session is touched: its beacon tokens and challenge record
    /// expire where they are read ([`TokenState::redeem`],
    /// [`KeyState::outstanding_challenge`]), and leave with the session.
    pub fn sweep(&self, now: SimTime) -> Vec<CompletedSession> {
        let finished = self.tracker.sweep(now);
        self.complete(finished)
    }

    /// One bounded step of [`Detector::sweep`], on the next tracker
    /// shard in rotation (see [`ShardedTracker::sweep_slice`]): what a
    /// serving thread can afford between two poll batches.
    pub fn sweep_slice(&self, now: SimTime, budget: usize) -> Vec<CompletedSession> {
        let finished = self.tracker.sweep_slice(now, budget);
        self.complete(finished)
    }

    /// Finalizes everything (end of experiment).
    pub fn drain(&self) -> Vec<CompletedSession> {
        let finished = self.tracker.drain();
        let mut out = self.complete(finished);
        out.sort_by(|a, b| a.session.key().cmp(b.session.key()));
        out
    }

    /// The batch boundary: accumulated evidence is applied through the
    /// full set-algebra rule for every flushed session at once. Pairing
    /// is structural — each finalized session carries the state of its
    /// own incarnation (tokens and challenge records leave with it).
    fn complete(&self, finished: Vec<Finalized<KeyState>>) -> Vec<CompletedSession> {
        finished
            .into_iter()
            .map(|Finalized { session, ext }| {
                let verdict = classifier::classify_online(&ext.evidence);
                let (label, reason) = classifier::finalize(verdict);
                CompletedSession {
                    classifiable: session.request_count() > MIN_REQUESTS_TO_CLASSIFY,
                    session,
                    evidence: ext.evidence,
                    label,
                    reason,
                }
            })
            .collect()
    }
}

/// Maps one classified exchange to the evidence kinds it proves — the
/// single source of truth shared by the live fold ([`fold_exchange`])
/// and the lost-commit carry, so an exchange committed after its
/// incarnation's eviction yields exactly the kinds it would have
/// recorded live. Declaration order of [`EvidenceKind::ALL`] matches
/// the recording order the live path always used.
fn classified_kinds(classified: &Classified, user_agent: Option<&str>) -> EvidenceKinds {
    let mut kinds = EvidenceKinds::EMPTY;
    match classified {
        Classified::MouseBeacon { outcome, .. } => {
            kinds.insert(match outcome {
                KeyOutcome::Valid => EvidenceKind::MouseEvent,
                KeyOutcome::Replay => EvidenceKind::ReplayedBeacon,
                KeyOutcome::Decoy => EvidenceKind::FetchedDecoy,
                KeyOutcome::Unknown => EvidenceKind::ForgedBeacon,
            });
        }
        Classified::Probe(hit) => match hit.kind {
            ProbeKind::CssProbe => kinds.insert(EvidenceKind::DownloadedCss),
            ProbeKind::JsFile => kinds.insert(EvidenceKind::DownloadedJsFile),
            ProbeKind::AgentBeacon => {
                kinds.insert(EvidenceKind::ExecutedJs);
                if let Some(reported) = &hit.reported_agent {
                    let header = user_agent.unwrap_or("");
                    if !reported.is_empty() && UserAgent::canonicalize(header) != *reported {
                        kinds.insert(EvidenceKind::UaMismatch);
                    }
                }
                if let Some(auto) = &hit.automation {
                    // The "Detecting Bot Detection" leaks: an admitted
                    // webdriver flag or a headless-shaped empty plugin
                    // list are hard robot evidence on their own.
                    if auto.webdriver {
                        kinds.insert(EvidenceKind::AutomationFlag);
                    }
                    if auto.plugins == 0 {
                        kinds.insert(EvidenceKind::HeadlessFingerprint);
                    }
                }
            }
            ProbeKind::HiddenLink => kinds.insert(EvidenceKind::HiddenLinkFollowed),
            ProbeKind::TransparentPixel | ProbeKind::MouseBeacon => {}
        },
        Classified::Ordinary => {}
    }
    kinds
}

/// Folds one recorded exchange's evidence into the key state and updates
/// the fast-path verdict. Runs under the session's shard lock (called
/// from [`Detector::gate`] and [`Detector::commit_exchange`]); the
/// session's counters already include the exchange. Returns the
/// verdict after the fold.
fn fold_exchange(
    state: &mut KeyState,
    session: &Session,
    classified: &Classified,
    user_agent: Option<&str>,
    now: SimTime,
) -> Verdict {
    let request_count = session.request_count();
    let index = request_count as u32;

    let mut hard = false;
    for kind in classified_kinds(classified, user_agent).iter() {
        hard |= state.accumulate(kind, index, now);
    }

    if hard {
        state.verdict =
            classifier::classify_hard(&state.evidence).expect("hard evidence just recorded");
    } else if state.verdict == Verdict::ProvisionalRobot(Reason::NoBrowserSignals)
        && state.has_browser_signals()
    {
        // Browser signals arrived after the no-signal promotion
        // (e.g. a human whose CSS probe fetch trailed a burst of
        // asset requests): the promotion's premise no longer
        // holds. Drop back to Undecided; the batch pass at
        // flush decides.
        state.verdict = Verdict::Undecided;
    } else if state.verdict == Verdict::Undecided && request_count > MIN_REQUESTS_TO_CLASSIFY {
        if !state.has_browser_signals() {
            // A session past the classification minimum with no
            // browser signals at all is robot-leaning: crawlers,
            // spammers and scanners never touch a probe, and
            // waiting longer cannot exonerate them (§3.1's noise
            // rule doubles as the browser-test window).
            state.verdict = Verdict::ProvisionalRobot(Reason::NoBrowserSignals);
        } else if state.evidence.has(EvidenceKind::ExecutedJs) {
            // JS executed but still no mouse event after the
            // classification minimum: the S_JS − S_MM term leans
            // robot. Promoting here keeps the paper's §4.1
            // adversary (a JS-capable bot) under robot-class
            // enforcement while it is live; a later mouse event
            // (hard) overturns this, and the flush applies the
            // full set algebra either way.
            state.verdict = Verdict::ProvisionalRobot(Reason::JsWithoutMouse);
        }
    }
    state.verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyConfig;
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request, Response, StatusCode};
    use botwall_instrument::{InstrumentConfig, ProbeManifest, RewriteEngine};

    const HTML: &str = "<html><head></head><body></body></html>";

    fn req(ip: u32, uri: &str, ua: &str) -> Request {
        Request::builder(Method::Get, uri)
            .header("User-Agent", ua)
            .client(ClientIp::new(ip))
            .build()
            .unwrap()
    }

    fn ok() -> ResponseSummary {
        Response::builder(StatusCode::OK)
            .header("Content-Type", "text/html")
            .build()
            .summary()
    }

    /// The server side of an instrument → classify → detect loop,
    /// driven the way the gateway drives it: a probe or beacon fetch is
    /// answered inside the gate, anything else is leased for the origin
    /// and committed, and a page is minted into the session's own
    /// tokens while its lease is out.
    struct Pipeline {
        engine: RewriteEngine,
        det: Detector,
        policy: PolicyEngine,
    }

    impl Pipeline {
        fn new(config: DetectorConfig) -> Pipeline {
            Pipeline {
                engine: RewriteEngine::new(InstrumentConfig::default(), 5),
                det: Detector::new(config),
                policy: PolicyEngine::new(PolicyConfig::default()),
            }
        }

        /// Client `ip` fetches `uri` as `ua` at `now`; what the detector
        /// made of it.
        fn fetch(&self, ip: u32, uri: &str, ua: &str, now: SimTime) -> ObserveOutcome {
            self.exchange(&req(ip, uri, ua), now, false).0
        }

        /// Client `ip` fetches the site's page as `ua` at `now`; what
        /// was minted into its session.
        fn page(&self, ip: u32, ua: &str, now: SimTime) -> ProbeManifest {
            let page = req(ip, "http://h/index.html", ua);
            self.exchange(&page, now, true).1.expect("a live lease")
        }

        fn exchange(
            &self,
            request: &Request,
            now: SimTime,
            page: bool,
        ) -> (ObserveOutcome, Option<ProbeManifest>) {
            let view = request.view();
            let sighting = self.engine.classify_view(&view, now);
            let gated = self.det.gate(
                &view,
                &sighting,
                now,
                false,
                &self.policy,
                |_, _, _, classified| match classified {
                    Classified::Ordinary => GateRespond::NeedsOrigin,
                    _ => GateRespond::Respond(ok(), ()),
                },
            );
            let lease = match gated {
                Gated::Done { outcome, .. } => return (outcome, None),
                Gated::NeedsOrigin(lease) => lease,
            };
            let mint = |_: &Session, state: &mut KeyState| {
                self.engine
                    .build_session_page(HTML, request, &mut state.tokens, || 5, now)
                    .manifest
            };
            let manifest = page.then(|| self.det.with_lease_state(&lease, mint));
            let outcome = self.det.commit_exchange(lease, &view, ok(), now);
            (outcome, manifest.flatten())
        }
    }

    fn pipeline() -> Pipeline {
        Pipeline::new(DetectorConfig::default())
    }

    /// A pipeline whose tracker holds one session.
    fn one_session() -> Pipeline {
        Pipeline::new(DetectorConfig {
            tracker: TrackerConfig {
                max_sessions: 1,
                ..TrackerConfig::default()
            },
        })
    }

    /// Gates `r` with the request leased for the origin.
    fn lease_out(p: &Pipeline, r: &Request, sighting: &Sighting, now: SimTime) -> OriginLease {
        leased(
            p.det
                .gate(&r.view(), sighting, now, false, &p.policy, |_, _, _, _| {
                    GateRespond::<()>::NeedsOrigin
                }),
        )
    }

    #[test]
    fn mouse_beacon_yields_human_verdict() {
        let p = pipeline();
        let ua = "Mozilla/5.0 Firefox/1.5";
        // Page fetch: the beacon key is minted into client 1's session.
        let page = req(1, "http://h/index.html", ua);
        let (before, manifest) = p.exchange(&page, SimTime::ZERO, true);
        assert_eq!(before.verdict, Verdict::Undecided);
        // Beacon fetch after mouse movement.
        let beacon = manifest.unwrap().mouse_beacon.unwrap();
        let out = p.fetch(1, &beacon.to_string(), ua, SimTime::from_secs(2));
        assert_eq!(out.verdict, Verdict::Human(Reason::MouseActivity));
        assert_eq!(p.det.tracker().get(&out.key).unwrap().request_count(), 2);
    }

    #[test]
    fn decoy_fetch_yields_robot_verdict() {
        let p = pipeline();
        let manifest = p.page(2, "Mozilla/5.0", SimTime::ZERO);
        let decoy = manifest.decoy_beacons[0].clone();
        let out = p.fetch(2, &decoy.to_string(), "Mozilla/5.0", SimTime::ZERO);
        assert_eq!(out.verdict, Verdict::Robot(Reason::DecoyFetched));
    }

    #[test]
    fn ua_mismatch_detected_via_agent_beacon() {
        let p = pipeline();
        // The robot's JS engine reports its true agent, but the header
        // claims IE.
        let claimed = "Mozilla/4.0 (compatible; MSIE 6.0)";
        let agent_url = p.page(3, claimed, SimTime::ZERO).agent_beacon.unwrap();
        let honest = "evilbot/1.0";
        let fetch = format!("{agent_url}?agent={}", UserAgent::canonicalize(honest));
        let out = p.fetch(3, &fetch, claimed, SimTime::ZERO);
        assert_eq!(out.verdict, Verdict::Robot(Reason::BrowserTypeMismatch));
    }

    #[test]
    fn automation_leak_detected_via_agent_beacon() {
        let p = pipeline();
        let ua = "Mozilla/5.0 (Windows) Firefox/1.5";
        let agent = UserAgent::canonicalize(ua);
        // Client `ip` is served the page, then reports through its beacon.
        let report = |ip, flags: &str| {
            let agent_url = p.page(ip, ua, SimTime::ZERO).agent_beacon.unwrap();
            let fetch = format!("{agent_url}?agent={agent}&{flags}");
            p.fetch(ip, &fetch, ua, SimTime::ZERO).verdict
        };
        // Webdriver flag admitted: hard robot even with a matching agent.
        let leak = Verdict::Robot(Reason::AutomationLeak);
        assert_eq!(report(31, "wd=1&pl=3"), leak);
        // Empty plugin list: the headless fingerprint also decides alone.
        assert_eq!(report(32, "wd=0&pl=0"), leak);
        // A clean report (webdriver off, plugins present) stays soft.
        assert_eq!(report(33, "wd=0&pl=3"), Verdict::Undecided);
    }

    #[test]
    fn matching_agent_accumulates_js_without_deciding_online() {
        let p = pipeline();
        let ua = "Mozilla/5.0 (Windows) Firefox/1.5";
        let agent_url = p.page(4, ua, SimTime::ZERO).agent_beacon.unwrap();
        let fetch = format!("{agent_url}?agent={}", UserAgent::canonicalize(ua));
        let out = p.fetch(4, &fetch, ua, SimTime::ZERO);
        // JS execution is soft evidence: accumulated now, applied at the
        // batch flush. The fast path stays undecided.
        assert_eq!(out.verdict, Verdict::Undecided);
        let e = p.det.evidence(&out.key).unwrap();
        assert!(e.has(EvidenceKind::ExecutedJs));
        assert!(!e.has(EvidenceKind::UaMismatch));
        // Flush: JS-without-mouse decides robot via set algebra.
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Robot);
        assert_eq!(done[0].reason, Reason::JsWithoutMouse);
    }

    #[test]
    fn css_probe_accumulates_and_flushes_human() {
        let p = pipeline();
        let css = p.page(5, "Mozilla/5.0", SimTime::ZERO).css_probe.unwrap();
        let out = p.fetch(5, &css.to_string(), "Mozilla/5.0", SimTime::ZERO);
        // Soft evidence: no online decision, but the batch pass at flush
        // applies S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM) ⇒ human.
        assert_eq!(out.verdict, Verdict::Undecided);
        let evidence = p.det.evidence(&out.key).unwrap();
        assert!(evidence.has(EvidenceKind::DownloadedCss));
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Human);
        assert_eq!(done[0].reason, Reason::BrowserTestPassed);
    }

    #[test]
    fn soft_signals_exempt_sessions_from_no_signal_promotion() {
        // A long session whose only evidence is a CSS download must stay
        // undecided online (a no-JS human), not get promoted to
        // provisional robot.
        let p = pipeline();
        let css = p.page(14, "Mozilla/5.0", SimTime::ZERO).css_probe.unwrap();
        p.fetch(14, &css.to_string(), "Mozilla/5.0", SimTime::ZERO);
        let mut last = Verdict::Undecided;
        for i in 0..20 {
            let uri = format!("http://h/{i}.html");
            last = p
                .fetch(14, &uri, "Mozilla/5.0", SimTime::from_secs(i))
                .verdict;
        }
        assert_eq!(last, Verdict::Undecided);
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Human);
    }

    #[test]
    fn hidden_link_is_robot() {
        let p = pipeline();
        let hidden = p.page(6, "crawler/2.0", SimTime::ZERO).hidden_link.unwrap();
        let out = p.fetch(6, &hidden.to_string(), "crawler/2.0", SimTime::ZERO);
        assert_eq!(out.verdict, Verdict::Robot(Reason::HiddenLink));
    }

    #[test]
    fn drain_labels_sessions() {
        let p = pipeline();
        // Session with zero probe evidence across 12 requests: robot.
        for i in 0..12 {
            let uri = format!("http://h/{i}.html");
            p.fetch(8, &uri, "wget/1.0", SimTime::from_secs(i));
        }
        let done = p.det.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].label, Label::Robot);
        assert_eq!(done[0].reason, Reason::NoBrowserSignals);
        assert!(done[0].classifiable);
    }

    #[test]
    fn classifiable_threshold_is_strictly_greater() {
        // The paper classifies sessions of more than 10 requests.
        let classifiable = |requests: u64| {
            let p = pipeline();
            for i in 0..requests {
                let uri = format!("http://h/{i}.html");
                p.fetch(12, &uri, "A", SimTime::from_secs(i));
            }
            p.det.drain()[0].classifiable
        };
        assert!(!classifiable(MIN_REQUESTS_TO_CLASSIFY), "10 is not enough");
        assert!(
            classifiable(MIN_REQUESTS_TO_CLASSIFY + 1),
            "11 requests classify"
        );
    }

    #[test]
    fn short_sessions_marked_unclassifiable() {
        let p = pipeline();
        p.fetch(9, "http://h/a.html", "x", SimTime::ZERO);
        let done = p.det.drain();
        assert!(!done[0].classifiable, "1 request < minimum of >10");
    }

    #[test]
    fn js_without_mouse_promotes_past_the_classification_minimum() {
        // The §4.1 adversary: executes JS honestly, never mouses. Soft
        // classification waits for the flush, but past the >10-request
        // minimum the fast path must lean robot so enforcement applies
        // while the bot is live.
        let p = pipeline();
        let ua = "Mozilla/5.0 Firefox/1.5";
        let agent_url = p.page(17, ua, SimTime::ZERO).agent_beacon.unwrap();
        let fetch = format!("{agent_url}?agent={}", UserAgent::canonicalize(ua));
        let out = p.fetch(17, &fetch, ua, SimTime::ZERO);
        assert_eq!(out.verdict, Verdict::Undecided, "below the minimum");
        let mut last = Verdict::Undecided;
        for i in 0..12 {
            let uri = format!("http://h/{i}.html");
            last = p.fetch(17, &uri, ua, SimTime::from_secs(1 + i)).verdict;
        }
        assert_eq!(last, Verdict::ProvisionalRobot(Reason::JsWithoutMouse));
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Robot);
        assert_eq!(done[0].reason, Reason::JsWithoutMouse);
    }

    #[test]
    fn js_file_fetch_alone_does_not_block_the_no_signal_promotion() {
        // Crawlers download every link including the planted .js file —
        // without executing it. The set algebra ignores the bare fetch,
        // so the no-signal promotion must still fire and keep the
        // crawler under robot-class enforcement while it is live.
        let p = pipeline();
        let js = p.page(18, "crawler/1.0", SimTime::ZERO).js_file.unwrap();
        let out = p.fetch(18, &js.to_string(), "crawler/1.0", SimTime::ZERO);
        let evidence = p.det.evidence(&out.key).unwrap();
        assert!(evidence.has(EvidenceKind::DownloadedJsFile));
        let mut last = Verdict::Undecided;
        for i in 0..12 {
            let uri = format!("http://h/{i}.html");
            last = p
                .fetch(18, &uri, "crawler/1.0", SimTime::from_secs(1 + i))
                .verdict;
        }
        assert_eq!(last, Verdict::ProvisionalRobot(Reason::NoBrowserSignals));
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Robot);
    }

    #[test]
    fn late_browser_signals_clear_the_no_signal_promotion() {
        // A human whose CSS-probe fetch trails a burst of asset requests:
        // 11+ ordinary exchanges promote the session to provisional
        // robot, but the probe download must demote it back to Undecided
        // (and the flush must label it Human).
        let p = pipeline();
        let css = p.page(15, "Mozilla/5.0", SimTime::ZERO).css_probe.unwrap();
        let mut last = Verdict::Undecided;
        for i in 0..12 {
            let uri = format!("http://h/asset{i}.png");
            last = p
                .fetch(15, &uri, "Mozilla/5.0", SimTime::from_secs(i))
                .verdict;
        }
        assert_eq!(last, Verdict::ProvisionalRobot(Reason::NoBrowserSignals));
        let out = p.fetch(15, &css.to_string(), "Mozilla/5.0", SimTime::from_secs(20));
        assert_eq!(out.verdict, Verdict::Undecided, "promotion premise gone");
        let done = p.det.drain();
        assert_eq!(done[0].label, Label::Human);
    }

    #[test]
    fn rollover_keeps_evidence_with_its_own_incarnation() {
        // A session goes idle past the timeout; the same key returns and
        // produces hard robot evidence. The old incarnation must flush
        // with *its* (empty) evidence, and the new incarnation must keep
        // the robot verdict instead of having its state stolen.
        let p = pipeline();
        p.fetch(16, "http://h/a.html", "Mozilla/5.0", SimTime::ZERO);
        // Two hours later the key returns — a fresh incarnation — is
        // served the page and fetches a decoy beacon.
        let later = SimTime::from_hours(2);
        let decoy = p.page(16, "Mozilla/5.0", later).decoy_beacons[0].clone();
        let out = p.fetch(16, &decoy.to_string(), "Mozilla/5.0", later);
        assert_eq!(out.verdict, Verdict::Robot(Reason::DecoyFetched));
        // Flush the rolled-over incarnation only: it must NOT take the
        // new incarnation's decoy evidence with it.
        let done = p.det.sweep(later + 1);
        assert_eq!(done.len(), 1);
        assert!(!done[0].evidence.has(EvidenceKind::FetchedDecoy));
        assert_eq!(done[0].reason, Reason::NoBrowserSignals);
        // The live incarnation still holds its hard evidence online...
        assert_eq!(
            p.det.verdict(&out.key),
            Verdict::Robot(Reason::DecoyFetched)
        );
        // ...and flushes Robot.
        let done = p.det.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].label, Label::Robot);
        assert_eq!(done[0].reason, Reason::DecoyFetched);
    }

    #[test]
    fn sweep_respects_idle_timeout() {
        let p = pipeline();
        p.fetch(10, "http://h/a.html", "x", SimTime::ZERO);
        assert!(p.det.sweep(SimTime::from_secs(10)).is_empty());
        let done = p.det.sweep(SimTime::from_hours(2));
        assert_eq!(done.len(), 1);
    }

    /// Unwraps a fused gate result.
    fn done<T>(gated: Gated<T>) -> (ObserveOutcome, T) {
        match gated {
            Gated::Done { outcome, value, .. } => (outcome, value),
            Gated::NeedsOrigin(lease) => panic!("unexpected lease for {:?}", lease.key()),
        }
    }

    /// Unwraps a leased gate result.
    fn leased<T>(gated: Gated<T>) -> OriginLease {
        match gated {
            Gated::NeedsOrigin(lease) => lease,
            Gated::Done { outcome, .. } => panic!("expected a lease, got {outcome:?}"),
        }
    }

    #[test]
    fn gate_gates_on_pre_exchange_state_then_records_fused() {
        let p = pipeline();
        let r = req(30, "http://h/a.html", "wget/1.0");
        let gated = p.det.gate(
            &r.view(),
            &Sighting::Ordinary,
            SimTime::ZERO,
            true,
            &p.policy,
            |action, session, _state, classified| {
                assert_eq!(
                    session.request_count(),
                    0,
                    "the gate must see pre-exchange counters"
                );
                assert_eq!(classified, &Classified::Ordinary);
                GateRespond::Respond(ok(), (action, 7u32))
            },
        );
        let (out, (action, seen)) = done(gated);
        assert_eq!(seen, 7);
        assert_eq!(action, Action::Allow, "first exchange passes");
        let session = p.det.tracker().get(&out.key).unwrap();
        assert_eq!(session.request_count(), 1, "the exchange was recorded");
        assert_eq!(session.counters().resp_2xx, 1, "with what it was answered");
    }

    #[test]
    fn leased_exchange_commits_outside_the_gate() {
        let p = pipeline();
        let r = req(40, "http://h/a.html", "Mozilla/5.0");
        let lease = leased(p.det.gate(
            &r.view(),
            &Sighting::Ordinary,
            SimTime::ZERO,
            true,
            &p.policy,
            |action, _, _, _| {
                assert_eq!(action, Action::Allow);
                GateRespond::<()>::NeedsOrigin
            },
        ));
        assert_eq!(p.det.verdict(lease.key()), Verdict::Undecided);
        // Nothing recorded while the origin fetch is in flight — and the
        // shard is free: the detector is fully reentrant here, even for
        // the same key.
        let tracker = p.det.tracker();
        assert_eq!(tracker.get(lease.key()).unwrap().request_count(), 0);
        p.fetch(40, "http://h/a.html", "Mozilla/5.0", SimTime::from_secs(1));
        let out = p
            .det
            .commit_exchange(lease, &r.view(), ok(), SimTime::from_secs(2));
        // The live lease commits through the fold path, behind the
        // interleaved exchange.
        assert_eq!(tracker.get(&out.key).unwrap().request_count(), 2);
    }

    #[test]
    fn concurrent_leased_burst_is_blocked_while_its_origins_hang() {
        let p = pipeline();
        // A loose robot bucket so the token-bucket throttle cannot mask
        // the behavioural threshold under test; rate threshold at the
        // default 10 req/s.
        let policy = PolicyEngine::new(PolicyConfig {
            robot_rate_per_sec: 100.0,
            robot_burst: 100.0,
            ..PolicyConfig::default()
        });
        let r = req(44, "http://h/a.html", "wget/1.0");
        // Recorded history: 6 exchanges over 2 s (3 req/s — under the
        // threshold), then classify the session as a robot.
        let mut key = None;
        for i in 0..6u64 {
            let at = SimTime::from_millis(i * 400);
            key = Some(p.fetch(44, "http://h/a.html", "wget/1.0", at).key);
        }
        let key = key.unwrap();
        p.det.with_key_state(&key, |_, state| {
            state.verdict = Verdict::Robot(Reason::DecoyFetched);
        });
        // A concurrent burst at t=2s: every request leases (slow origin,
        // nothing commits). Without the in-flight fold the recorded rate
        // stays 3 req/s for the whole burst and all 30 would pass; with
        // it the gate sees (6 + in_flight) / 2s and blocks mid-burst.
        let now = SimTime::from_secs(2);
        let mut leases = Vec::new();
        let mut blocked_at = None;
        for i in 0..30u32 {
            let gated = p.det.gate(
                &r.view(),
                &Sighting::Ordinary,
                now,
                true,
                &policy,
                |action, _, _, _| {
                    if action == Action::Allow {
                        GateRespond::NeedsOrigin
                    } else {
                        let forbidden = Response::empty(StatusCode::FORBIDDEN).summary();
                        GateRespond::Respond(forbidden, action)
                    }
                },
            );
            match gated {
                Gated::NeedsOrigin(lease) => leases.push(lease),
                Gated::Done { value: action, .. } => {
                    assert_eq!(action, Action::Block, "burst must block, not throttle");
                    blocked_at = Some(i);
                    break;
                }
            }
        }
        // (6 + i) / 2s crosses 10 req/s at the 16th in-flight lease.
        assert_eq!(
            blocked_at,
            Some(15),
            "behavioural blocking engages mid-burst, before any commit lands"
        );
        assert_eq!(
            p.det.with_key_state(&key, |_, state| state.in_flight),
            Some(15)
        );
        // The hanging origins answer: every commit folds its lease back
        // in and the in-flight census drains to zero.
        for lease in leases {
            p.det.commit_exchange(lease, &r.view(), ok(), now + 100);
        }
        assert_eq!(
            p.det.with_key_state(&key, |_, state| state.in_flight),
            Some(0),
            "commits drain the in-flight census"
        );
    }

    #[test]
    fn a_carried_kind_sets_the_verdict_only_when_hard() {
        for kind in EvidenceKind::ALL {
            let mut kinds = EvidenceKinds::EMPTY;
            kinds.insert(kind);
            let mut state = KeyState::default();
            state.absorb_lost_evidence(kinds, 3, SimTime::ZERO);
            assert!(state.evidence.has(kind), "{kind:?}");
            // A soft kind waits for the batch pass; a hard one decides.
            let expected = classifier::classify_hard(&state.evidence).unwrap_or(Verdict::Undecided);
            assert_eq!(state.verdict, expected, "{kind:?}");
        }
    }

    #[test]
    fn lost_commit_parks_a_carry_absorbed_by_the_next_incarnation() {
        let p = one_session();
        let r = req(41, "http://h/a.html", "Mozilla/5.0");
        let lease = lease_out(&p, &r, &Sighting::Ordinary, SimTime::ZERO);
        // Another key evicts the leased session while the fetch runs.
        let other = p.fetch(42, "http://h/b.html", "Mozilla/5.0", SimTime::from_secs(1));
        let out = p
            .det
            .commit_exchange(lease, &r.view(), ok(), SimTime::from_secs(2));
        // The evicted lease folds into nobody: the stranger's record is
        // untouched...
        assert_eq!(out.verdict, Verdict::Undecided);
        let stranger = p.det.tracker().get(&other.key).unwrap();
        assert_eq!(stranger.request_count(), 1);
        // ...and the key's next incarnation absorbs the lost exchange.
        let next = p.fetch(41, "http://h/a.html", "Mozilla/5.0", SimTime::from_secs(3));
        assert_eq!(
            p.det
                .with_key_state(&next.key, |_, state| state.lost_commits),
            Some(1)
        );
    }

    /// A hidden-link follow — hard robot evidence — as the engine's
    /// stateless sighting.
    fn hidden_link(nonce: u64) -> Sighting {
        use botwall_instrument::ProbeHit;
        Sighting::Probe(ProbeHit {
            kind: ProbeKind::HiddenLink,
            nonce,
            reported_agent: None,
            automation: None,
        })
    }

    #[test]
    fn lost_commit_carries_hard_evidence_to_the_next_incarnation() {
        let p = one_session();
        // The exchange caught mid-flight is a hidden-link follow.
        let r = req(45, "http://h/trap.html", "Mozilla/5.0");
        let lease = lease_out(&p, &r, &hidden_link(7), SimTime::ZERO);
        // Another key evicts the leased session while the fetch runs.
        p.fetch(46, "http://h/b.html", "Mozilla/5.0", SimTime::from_secs(1));
        let out = p
            .det
            .commit_exchange(lease, &r.view(), ok(), SimTime::from_secs(2));
        assert_eq!(out.verdict, Verdict::Undecided);
        // The eviction must not launder the evidence: the key's next
        // incarnation inherits the hidden-link signal, not just a
        // lost-commit count, and is convicted on arrival.
        let next = p.fetch(
            45,
            "http://h/trap.html",
            "Mozilla/5.0",
            SimTime::from_secs(3),
        );
        assert_eq!(next.verdict, Verdict::Robot(Reason::HiddenLink));
        p.det
            .with_key_state(&next.key, |_, state| {
                assert_eq!(state.lost_commits, 1);
                assert!(state.evidence.has(EvidenceKind::HiddenLinkFollowed));
                assert_eq!(state.verdict, Verdict::Robot(Reason::HiddenLink));
            })
            .expect("next incarnation is live");
    }

    #[test]
    fn lost_commit_with_a_live_successor_convicts_it_immediately() {
        let p = pipeline();
        let r = req(47, "http://h/trap.html", "Mozilla/5.0");
        let lease = lease_out(&p, &r, &hidden_link(9), SimTime::ZERO);
        // The key returns after the idle timeout mid-fetch: a successor
        // incarnation is live when the commit finally lands.
        let later = SimTime::from_hours(2);
        let successor = p.fetch(47, "http://h/trap.html", "Mozilla/5.0", later);
        p.det.commit_exchange(lease, &r.view(), ok(), later + 1);
        // The successor takes the evidence directly at commit time — no
        // further request needed to convict it — and the rolled-over
        // lease's exchange is not folded into its record.
        p.det
            .with_key_state(&successor.key, |session, state| {
                assert_eq!(session.request_count(), 1);
                assert_eq!(state.lost_commits, 1);
                assert!(state.evidence.has(EvidenceKind::HiddenLinkFollowed));
                assert_eq!(state.verdict, Verdict::Robot(Reason::HiddenLink));
            })
            .expect("successor is live");
    }

    #[test]
    fn lost_commit_after_rollover_lands_on_the_successor_with_its_block_intact() {
        let p = pipeline();
        let r = req(43, "http://h/a.html", "Mozilla/5.0");
        let out = p.fetch(43, "http://h/a.html", "Mozilla/5.0", SimTime::ZERO);
        p.det
            .with_key_state(&out.key, |_, state| state.policy.block());
        // Lease while blocked? No — enforcement off for the lease so the
        // gate allows it; the point is the successor's carried state.
        let lease = lease_out(&p, &r, &Sighting::Ordinary, SimTime::from_secs(1));
        // The key returns after the idle timeout mid-fetch: rollover.
        let later = SimTime::from_hours(2);
        p.fetch(43, "http://h/a.html", "Mozilla/5.0", later);
        p.det.commit_exchange(lease, &r.view(), ok(), later + 1);
        // The successor took the lost commit directly — and its
        // rollover-carried block flag is untouched.
        p.det
            .with_key_state(&out.key, |session, state| {
                assert_eq!(session.request_count(), 1);
                assert_eq!(state.lost_commits, 1);
                assert!(state.policy.is_blocked(), "carried block flag survives");
            })
            .expect("successor is live");
    }

    #[test]
    fn gate_redeems_beacons_against_session_tokens() {
        use botwall_instrument::BeaconKey;
        let p = pipeline();
        let out = p.fetch(31, "http://h/index.html", "Mozilla/5.0", SimTime::ZERO);
        // A page rewrite (normally the gateway's `begin_page_stream`) parked
        // a beacon key in the session's colocated token state.
        let key = BeaconKey::from_raw(0xfeed);
        p.det.with_key_state(&out.key, |_, state| {
            state
                .tokens
                .issue("/index.html", key, vec![], None, SimTime::ZERO, 64);
        });
        // The beacon fetch resolves inside the same critical section —
        // the fused single-lock path, never leased.
        let beacon = botwall_instrument::beacon::encode("h", key);
        let r1 = req(31, &beacon.to_string(), "Mozilla/5.0");
        let (out, ()) = done(p.det.gate(
            &r1.view(),
            &Sighting::MouseBeacon(key),
            SimTime::from_secs(1),
            true,
            &p.policy,
            |_, _, _, classified| {
                assert!(matches!(
                    classified,
                    Classified::MouseBeacon {
                        outcome: KeyOutcome::Valid,
                        ..
                    }
                ));
                GateRespond::Respond(ok(), ())
            },
        ));
        assert_eq!(out.verdict, Verdict::Human(Reason::MouseActivity));
    }

    #[test]
    fn gate_holds_a_carried_block_on_the_rollover_request() {
        let p = pipeline();
        let r = req(32, "http://h/a.html", "wget/1.0");
        let out = p.fetch(32, "http://h/a.html", "wget/1.0", SimTime::ZERO);
        p.det
            .with_key_state(&out.key, |_, state| state.policy.block());
        // Two hours idle: the return request starts a new incarnation,
        // but the carried block must gate it immediately.
        let later = SimTime::from_hours(2);
        let (out, action) = done(p.det.gate(
            &r.view(),
            &Sighting::Ordinary,
            later,
            true,
            &p.policy,
            |action, _, _, _| {
                GateRespond::Respond(Response::empty(StatusCode::FORBIDDEN).summary(), action)
            },
        ));
        assert_eq!(action, Action::Block);
        let counters = p.det.tracker().get(&out.key).unwrap().counters().clone();
        assert_eq!((counters.total, counters.resp_4xx), (1, 1));
    }

    #[test]
    fn pending_pass_carry_reaches_the_next_incarnation() {
        let p = pipeline();
        let key = SessionKey::of(&req(33, "http://h/a.html", "Mozilla/5.0"));
        // A CAPTCHA pass verified while the key has no live session
        // parks in the shard...
        let at = SimTime::from_secs(5);
        p.det
            .tracker()
            .with_entry_and_carry(&key, at, |entry, slot| {
                assert!(entry.is_none());
                *slot = Some(KeyCarry::from(PendingCaptchaPass { at }));
            });
        // ...and the key's first exchange absorbs it as ground truth.
        let out = p.fetch(33, "http://h/a.html", "Mozilla/5.0", SimTime::from_secs(6));
        assert_eq!(out.verdict, Verdict::Human(Reason::CaptchaPassed));
        let evidence = p.det.evidence(&out.key).unwrap();
        assert!(evidence.has(EvidenceKind::PassedCaptcha));
    }

    #[test]
    fn detector_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Detector>();
    }

    #[test]
    fn parallel_observe_keeps_per_key_verdicts_isolated() {
        let p = pipeline();
        std::thread::scope(|s| {
            for n in 0..4u32 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let uri = format!("http://h/{i}.html");
                        p.fetch(100 + n, &uri, "wget/1.0", SimTime::from_secs(i));
                    }
                });
            }
        });
        // Every thread's key is independently promoted to no-signal robot.
        for n in 0..4u32 {
            let key = SessionKey::new(ClientIp::new(100 + n), "wget/1.0");
            assert_eq!(
                p.det.verdict(&key),
                Verdict::ProvisionalRobot(Reason::NoBrowserSignals)
            );
        }
        let done = p.det.drain();
        assert_eq!(done.len(), 4);
        assert_eq!(
            done.iter().map(|c| c.session.request_count()).sum::<u64>(),
            800
        );
    }
}
