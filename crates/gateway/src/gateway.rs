//! The gateway engine: one `handle` call per exchange.
//!
//! # Concurrency
//!
//! The entire request path is `&self` and the gateway is `Send + Sync`:
//! wrap it in an [`std::sync::Arc`] and call [`Gateway::handle`] from as
//! many threads as the hardware offers.
//!
//! Since PR 5 the request path is a **two-phase lease/commit protocol**
//! with an exact lock taxonomy:
//!
//! * **Non-origin decisions: one shard lock.** Blocks, throttles,
//!   challenges, probe objects, and beacon redemptions are produced
//!   inside the gate's single fused critical section
//!   ([`botwall_core::Detector::gate`]), exactly as in PR 4. The gate
//!   ([`Gateway::gate`]) reads a request view, not an owned request,
//!   and gives back an [`Answer`] a front door writes as fixed bytes:
//!   an answered request is never made owned at all.
//! * **Origin serves: two shard locks, three for a page, none held
//!   during the fetch.** The gate resolves policy and sighting under
//!   the first acquisition and returns a lease; the origin is fetched
//!   with **no lock held** (one slow origin never stalls the other
//!   sessions on its shard); a page takes one more to mint its
//!   instrumentation into the session before its first byte leaves
//!   ([`Gateway::begin_page_stream`]); and the commit re-binds the
//!   entry *by incarnation* to record the exchange and fold its
//!   evidence. A session evicted or rolled over mid-fetch commits
//!   through the deferred-carry channel instead of dropping evidence.
//!
//! # One commit
//!
//! Every origin serve is committed by [`Gateway::commit_page_stream`],
//! the one caller of [`botwall_core::Detector::commit_exchange`]: an
//! origin response is a [`PageStream`] (a page through the rewriter,
//! anything else a [`PageStream::relay`]); when its body has ended the
//! commit records its head in the session and its wire bytes in the
//! byte ledger. The TCP front door drives that directly, chunk by chunk.
//! [`Gateway::finish_page_stream`] is the same commit with the page's
//! [`ProbeManifest`] derived on top, for a caller that reads it. A
//! caller that holds the origin's answer whole
//! ([`Gateway::handle_with`]'s closure, [`Gateway::complete`]) goes
//! through the same entry points as a stream of one chunk:
//! [`Origin::Page`] is [`Gateway::begin_page_stream`], one
//! [`PageStream::write`], [`Gateway::finish_page_stream`];
//! [`Origin::Response`] and [`Origin::NotFound`] are relays. So an
//! eval, an example or a test
//! that never opens a socket commits through what the socket path
//! commits through.
//!
//! Everything the request touches is one of three kinds:
//!
//! * **shard-local** — the session record and its colocated `KeyState`
//!   (evidence, verdict, rate bucket, block flag, beacon tokens with
//!   the seeds their scripts are written from on each fetch,
//!   outstanding CAPTCHA challenge), all inside the one shard entry; a
//!   token or challenge record expires where the request reads it, an
//!   hour after its issue, so a sweep never visits a live session;
//! * **immutable-shared** — the config, thresholds, and the
//!   [`RewriteEngine`] (page rewriting and probe classification
//!   with no interior mutability at all — probe URLs authenticate
//!   themselves, so classification is recomputation, not lookup);
//! * **global-atomic** — the cache-line-padded per-shard counter cells
//!   merged at [`Gateway::stats`] and the CAPTCHA id counter. What live
//!   sessions hold (tokens, challenge records) is counted when a
//!   snapshot asks, one shard lock at a time, off the request path.
//!
//! There is no `RwLock`, no global mutex, and no cross-shard anything on
//! the request path; a debug-build regression test asserts the exact
//! shard-lock counts for each taxonomy class. Because no lock spans the
//! origin fetch, the callback may even reenter the gateway, and
//! executor-driven callers can split the phases across tasks with
//! [`Gateway::handle_deferred`] / [`Gateway::complete`].

use crate::config::{GatewayBuilder, GatewayConfig};
use crate::decision::{Answer, Decision, Origin};
use botwall_captcha::{CaptchaService, Challenge};
use botwall_core::classifier::Verdict;
use botwall_core::{
    Action, ChallengeState, CompletedSession, Detector, GateRespond, Gated, KeyCarry,
    ObserveOutcome, OriginLease, PendingCaptchaPass, PolicyConfig, PolicyEngine,
};
use botwall_http::{ContentClass, Request, RequestView, Response, ResponseSummary, StatusCode};
use botwall_instrument::{
    FinishedStream, ProbeManifest, RewriteEngine, StreamSink, StreamingRewrite,
};
use botwall_sessions::{Session, SessionKey, SimTime};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Salt applied to the gateway seed for the CAPTCHA generator, so the
/// instrumentation and challenge RNG streams never collide.
const CAPTCHA_SEED_SALT: u64 = 0x0c47_c4a0;

/// Wrong answers one outstanding challenge record takes before it is
/// burned: the id is consumed service-wide and the next request
/// re-challenges with a fresh one.
const MAX_CHALLENGE_ATTEMPTS: u32 = 3;

/// A point-in-time snapshot of gateway activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Exchanges handled.
    pub requests: u64,
    /// Requests served (origin content, pages, probe objects).
    pub served: u64,
    /// Requests rejected with 429.
    pub throttled: u64,
    /// Requests rejected with 403.
    pub blocked: u64,
    /// Requests answered with a CAPTCHA interstitial.
    pub challenged: u64,
    /// Served requests that were instrumentation traffic.
    pub probe_requests: u64,
    /// Sessions flushed through sweep/drain.
    pub completed_sessions: u64,
    /// Live sessions at snapshot time.
    pub live_sessions: usize,
    /// Sessions finalized early to hold the tracker's `max_sessions`
    /// since start, summed over the shards' counts: when this moves,
    /// the cap is biting.
    pub evicted_sessions: u64,
    /// Tracker shards at snapshot time.
    pub shard_count: usize,
    /// Total bytes moved (requests + responses).
    pub total_bytes: u64,
    /// Bytes attributable to instrumentation: HTML inflation, probe
    /// object payloads, probe-request wire bytes.
    pub instrumentation_bytes: u64,
    /// Challenges issued.
    pub captcha_issued: u64,
    /// Challenges passed.
    pub captcha_passed: u64,
    /// Challenges failed.
    pub captcha_failed: u64,
    /// Challenge records live sessions hold at snapshot time, counted
    /// by a walk over every live session. A record past its hour still
    /// counts until the session is challenged again or ends: it expires
    /// where it is read, not here.
    pub pending_challenges: u64,
    /// Beacon-token entries live sessions hold at snapshot time,
    /// counted by a walk over every live session. An entry past its
    /// hour still counts until the session's entry bound rotates it out
    /// or the session ends.
    pub token_entries: u64,
}

/// One cache-line-padded cell of per-request counters. Requests update
/// the cell their session key hashes to, so concurrent handlers touch
/// different cache lines instead of serializing on one hot counter word.
#[derive(Debug, Default)]
#[repr(align(128))]
struct CounterCell {
    requests: AtomicU64,
    served: AtomicU64,
    throttled: AtomicU64,
    blocked: AtomicU64,
    challenged: AtomicU64,
    probe_requests: AtomicU64,
    total_bytes: AtomicU64,
    instrumentation_bytes: AtomicU64,
}

/// Request counters sharded by session-key hash, merged at
/// [`Gateway::stats`] time. Every request lands in exactly one outcome
/// column (served / throttled / blocked / challenged), so the merged
/// ledger balances exactly even under concurrent ingest.
#[derive(Debug)]
struct ShardedCounters {
    cells: Vec<CounterCell>,
}

impl ShardedCounters {
    fn new(shards: usize) -> ShardedCounters {
        ShardedCounters {
            cells: (0..shards.max(1)).map(|_| CounterCell::default()).collect(),
        }
    }

    /// The cell of tracker shard `shard`: one per shard, so a session's
    /// requests land where its entry lives.
    fn cell(&self, shard: usize) -> &CounterCell {
        &self.cells[shard]
    }

    fn sum(&self, f: impl Fn(&CounterCell) -> &AtomicU64) -> u64 {
        self.cells
            .iter()
            .map(|c| f(c).load(Ordering::Relaxed))
            .sum()
    }
}

/// What [`Gateway::gate`] made of a request. No lock is held in either
/// variant.
#[derive(Debug)]
#[must_use = "write the answer, or fetch the origin for the lease and commit it"]
pub enum Gate {
    /// The gate answered without the origin (a refusal, a challenge, a
    /// probe object, a beacon's image): final, recorded and counted.
    Answered {
        /// What to send.
        answer: Answer,
        /// The session the exchange belongs to.
        key: SessionKey,
        /// The session's verdict after folding the exchange.
        verdict: Verdict,
    },
    /// The session is leased for an origin fetch: pair it with the
    /// request it was taken for ([`PendingOrigin::new`]), fetch, then
    /// commit ([`Gateway::complete`] or the page stream).
    Leased(OriginLease),
}

/// A gated request whose decision may still be waiting on the origin —
/// the executor-facing half of the two-phase protocol, returned by
/// [`Gateway::handle_deferred`]. No lock is held in either variant.
// Same trade as `Decision`: one short-lived value per request, moved
// straight to the caller — boxing `Ready` buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
#[must_use = "resolve the pending serve: match on it and complete AwaitingOrigin leases"]
pub enum PendingServe {
    /// The gate decided without the origin (rejection, challenge, probe
    /// object, beacon redemption): the decision is final.
    Ready(Decision),
    /// The session is leased: fetch the origin — on another thread, in
    /// an async task, whenever — then call [`Gateway::complete`].
    AwaitingOrigin(PendingOrigin),
}

/// The lease half of a [`PendingServe`]: the session lease plus the
/// request it was taken for (owned, so the token is `'static` and can
/// cross threads/tasks). Dropping it abandons the exchange — nothing is
/// recorded and nothing leaks; the requests ledger simply keeps one
/// request that never reached an outcome column.
#[derive(Debug)]
#[must_use = "a pending origin serve must be completed (or dropped to abandon the exchange)"]
pub struct PendingOrigin {
    lease: OriginLease,
    request: Request,
}

impl PendingOrigin {
    /// A lease [`Gateway::gate`] handed out, with the request it was
    /// taken for: the owned request a front door builds only now that
    /// the origin is to be asked.
    pub fn new(lease: OriginLease, request: Request) -> PendingOrigin {
        PendingOrigin { lease, request }
    }

    /// The request awaiting its origin content.
    pub fn request(&self) -> &Request {
        &self.request
    }

    /// The session the exchange belongs to.
    pub fn key(&self) -> &SessionKey {
        self.lease.key()
    }
}

/// An origin response on its way to the client as a stream. An HTML
/// page goes through the rewriter: [`Gateway::begin_page_stream`] makes
/// the stream once the origin response head turns out to be a page,
/// origin body bytes go in via [`PageStream::write`] (a chunk) or
/// [`PageStream::write_runs`] (a step of runs) and rewritten bytes come
/// out as they resolve. Anything else is a
/// [`PageStream::relay`], whose bytes pass untouched. Either way
/// [`Gateway::commit_page_stream`] commits the exchange when the body
/// ends. Holds no lock and no engine borrow — it rides inside a
/// connection slot across event-loop turns.
#[derive(Debug)]
pub struct PageStream {
    /// `None` for a relay, and when the lease died before a page's
    /// stream began: the page passes through uninstrumented.
    rewrite: Option<StreamingRewrite>,
    /// What the commit records of the response: its status and class.
    /// The body is long gone to the client by then, and the byte ledger
    /// counts what went on the wire, not this summary's `wire_len`.
    head: ResponseSummary,
}

impl PageStream {
    /// A stream that passes its bytes through and records `head` (the
    /// origin's status and the class its `Content-Type` names) when it
    /// is committed: how a caller streams an origin response that is
    /// not a page through the same [`Gateway::commit_page_stream`].
    pub fn relay(head: ResponseSummary) -> PageStream {
        PageStream {
            rewrite: None,
            head,
        }
    }

    /// Feeds one origin body chunk; rewritten output goes to `out` (a
    /// `Vec<u8>` appends it) as soon as it resolves. The one-run
    /// [`PageStream::write_runs`].
    pub fn write(&mut self, chunk: &[u8], out: &mut impl StreamSink) {
        self.write_runs(chunk, std::slice::from_ref(&(0..chunk.len())), out);
    }

    /// Feeds one stream step: the body's next bytes are `runs` of `buf`
    /// (the data of every chunk one read delivered, say), rewritten as
    /// one step ([`StreamingRewrite::write_runs`]) or, for a relay,
    /// passed on as they lie.
    pub fn write_runs(&mut self, buf: &[u8], runs: &[Range<usize>], out: &mut impl StreamSink) {
        match &mut self.rewrite {
            Some(rewrite) => rewrite.write_runs(buf, runs, out),
            None => runs.iter().for_each(|run| out.run(buf, run.clone())),
        }
    }

    /// High-water mark of bytes the rewriter has held back — the
    /// O(chunk)-memory gauge (0 for passthrough streams).
    pub fn peak_buffered(&self) -> usize {
        self.rewrite.as_ref().map_or(0, |r| r.peak_buffered())
    }
}

/// What a finished streaming serve amounted to, returned by
/// [`Gateway::finish_page_stream`] (the streaming counterpart of
/// [`Decision::Serve`] — the body itself already went to the client).
#[derive(Debug)]
pub struct StreamedServe {
    /// The session served.
    pub key: SessionKey,
    /// The session's verdict after folding the exchange.
    pub verdict: Verdict,
    /// The injected-probe manifest (`None` on the lost-lease
    /// passthrough — nothing was injected).
    pub manifest: Option<ProbeManifest>,
}

/// The single front door over the detection core.
///
/// One `Gateway` owns the whole per-deployment composition the paper
/// describes: the immutable page-rewrite engine, the sessionized
/// detector (sharded tracker with colocated evidence/policy/token/
/// challenge state), the policy engine, and the stateless CAPTCHA
/// service. Every exchange goes through [`Gateway::handle`] or
/// [`Gateway::handle_with`]; idle sessions flush through
/// [`Gateway::sweep`] / [`Gateway::drain`]. All of it takes `&self` —
/// see the module docs for the locking model.
///
/// # Examples
///
/// ```
/// use botwall_gateway::{Decision, Gateway};
/// use botwall_http::request::ClientIp;
/// use botwall_http::{Method, Request};
/// use botwall_sessions::SimTime;
///
/// let gw = Gateway::builder().seed(1).build();
/// let req = Request::builder(Method::Get, "http://site.example/x.html")
///     .header("User-Agent", "curl/7.0")
///     .client(ClientIp::new(9))
///     .build()
///     .unwrap();
/// // No origin hooked up: ordinary paths 404, but the exchange is
/// // observed and sessionized all the same.
/// let d = gw.handle(&req, SimTime::ZERO);
/// assert!(d.is_serve());
/// assert_eq!(gw.stats().live_sessions, 1);
/// ```
pub struct Gateway {
    config: GatewayConfig,
    engine: RewriteEngine,
    detector: Detector,
    policy: PolicyEngine,
    captcha: CaptchaService,
    counters: ShardedCounters,
    completed_sessions: AtomicU64,
}

/// The status line and headers every page serve answers with: `200`,
/// `text/html`, uncacheable. A front door that streams a page writes
/// them and ends the head with its own framing and `Connection` lines.
pub const PAGE_HEAD_LINES: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nCache-Control: no-cache, no-store\r\n";

/// What a page stream records: [`page_response`] of no body, summarised
/// without building it.
const PAGE_HEAD: ResponseSummary = ResponseSummary {
    status: StatusCode::OK,
    class: Some(ContentClass::Html),
    wire_len: PAGE_HEAD_LINES.len() + "\r\n".len(),
};

/// The uncacheable `200 text/html` a page serve answers with, `body`
/// whole, for the caller that holds it so.
fn page_response(body: Vec<u8>) -> Response {
    let mut response = Response::builder(StatusCode::OK)
        .header("Content-Type", "text/html")
        .body_bytes(body)
        .build();
    RewriteEngine::mark_uncacheable(&mut response);
    response
}

impl fmt::Debug for Gateway {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Starts a [`GatewayBuilder`].
    pub fn builder() -> GatewayBuilder {
        GatewayBuilder::new()
    }

    /// Assembles a gateway from its config (the builder's terminal step).
    pub(crate) fn from_config(config: GatewayConfig) -> Gateway {
        let detector = Detector::new(config.detector.clone());
        Gateway {
            engine: RewriteEngine::new(config.instrument.clone(), config.seed),
            counters: ShardedCounters::new(detector.tracker().shard_count()),
            detector,
            policy: PolicyEngine::new(PolicyConfig::default()),
            captcha: CaptchaService::new(config.captcha, config.seed ^ CAPTCHA_SEED_SALT),
            completed_sessions: AtomicU64::new(0),
            config,
        }
    }

    /// The configuration this gateway was built with.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Read access to the detection engine (verdicts, evidence, tracker).
    pub fn detector(&self) -> &Detector {
        &self.detector
    }

    /// The shared, immutable rewrite engine.
    pub fn engine(&self) -> &RewriteEngine {
        &self.engine
    }

    /// The current fast-path verdict for a session.
    pub fn verdict(&self, key: &SessionKey) -> Verdict {
        self.detector.verdict(key)
    }

    /// Whether a session is blocked.
    pub fn is_blocked(&self, key: &SessionKey) -> bool {
        self.detector
            .with_key_state(key, |_, state| state.policy.is_blocked())
            .unwrap_or(false)
    }

    /// Handles one exchange with no origin behind the gateway: probe and
    /// beacon traffic is answered in full; allowed ordinary paths 404.
    pub fn handle(&self, request: &Request, now: SimTime) -> Decision {
        self.handle_with(request, now, |_| Origin::NotFound)
    }

    /// Handles one exchange end to end: classify against the
    /// instrumentation, gate through policy with the session's verdict
    /// as of the previous request, serve probe objects directly, pull
    /// origin content through `origin` for allowed ordinary requests
    /// (instrumenting HTML pages on the way out), and feed the final
    /// exchange back into the detector — error responses included, so
    /// rejected traffic keeps feeding the behavioural thresholds.
    ///
    /// Decisions that need no origin complete inside one shard critical
    /// section. When origin content is needed, the session is *leased*:
    /// the `origin` callback runs with **no lock held** (it may block,
    /// sleep, or even reenter this gateway without stalling any other
    /// session), and what it returns is committed as a stream of one
    /// chunk (see the module docs): this is [`Gateway::handle_deferred`],
    /// `origin` on the lease's copy of `request`, then
    /// [`Gateway::complete`]. To run the fetch elsewhere entirely
    /// (thread pool, async task), call those two yourself.
    pub fn handle_with<F>(&self, request: &Request, now: SimTime, origin: F) -> Decision
    where
        F: FnOnce(&Request) -> Origin,
    {
        match self.handle_deferred(request, now) {
            PendingServe::Ready(decision) => decision,
            PendingServe::AwaitingOrigin(pending) => {
                // No lock is held here: a slow origin stalls only this
                // request, never its shard.
                let fetched = origin(pending.request());
                self.complete(pending, fetched, now)
            }
        }
    }

    /// The executor-facing split of [`Gateway::handle_with`]: runs the
    /// gate phase now and, instead of fetching the origin itself, hands
    /// back a [`PendingServe`] token. `Ready` decisions are final
    /// (rejections, challenges, probe objects, beacon redemptions);
    /// `AwaitingOrigin` tokens carry the session lease across threads or
    /// tasks until [`Gateway::complete`] commits the fetched content. No
    /// lock is held while a token is outstanding.
    ///
    /// # Examples
    ///
    /// ```
    /// use botwall_gateway::{Gateway, Origin, PendingServe};
    /// use botwall_http::request::ClientIp;
    /// use botwall_http::{Method, Request};
    /// use botwall_sessions::SimTime;
    ///
    /// let gw = Gateway::builder().seed(7).build();
    /// let req = Request::builder(Method::Get, "http://site.example/index.html")
    ///     .header("User-Agent", "Mozilla/5.0")
    ///     .client(ClientIp::new(1))
    ///     .build()
    ///     .unwrap();
    /// // Phase one: gate the request. An ordinary allowed request needs
    /// // origin content, so the session comes back leased.
    /// let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&req, SimTime::ZERO)
    /// else {
    ///     panic!("fresh ordinary requests await the origin");
    /// };
    /// // ...fetch the origin with no gateway lock held (any thread)...
    /// let html = "<html><head></head><body>hi</body></html>".to_string();
    /// // Phase two: commit the fetched content; the page is
    /// // instrumented into the leased session's state.
    /// let decision = gw.complete(pending, Origin::Page(html), SimTime::ZERO);
    /// assert!(decision.is_serve());
    /// ```
    pub fn handle_deferred(&self, request: &Request, now: SimTime) -> PendingServe {
        let mut written = Vec::new();
        match self.gate(&request.view(), now, false, &mut written) {
            Gate::Answered {
                answer,
                key,
                verdict,
            } => PendingServe::Ready(answer.into_decision(key, verdict, &written)),
            Gate::Leased(lease) => {
                PendingServe::AwaitingOrigin(PendingOrigin::new(lease, request.clone()))
            }
        }
    }

    /// Commits a deferred origin fetch the caller holds whole (see
    /// [`Gateway::handle_deferred`]), as a stream of one chunk: a page
    /// is begun, written as its one chunk and finished; a response (the
    /// 404 for no answer at all) is a relay that has nothing left to
    /// write.
    pub fn complete(&self, pending: PendingOrigin, fetched: Origin, now: SimTime) -> Decision {
        let mut out = Vec::new();
        let (stream, relayed) = match fetched {
            Origin::Page(html) => {
                let mut stream = self.begin_page_stream(&pending, now);
                out.reserve(html.len() + 512);
                stream.write(html.as_bytes(), &mut out);
                (stream, None)
            }
            Origin::Response(response) => (PageStream::relay(response.summary()), Some(response)),
            Origin::NotFound => {
                let response = Response::empty(StatusCode::NOT_FOUND);
                (PageStream::relay(response.summary()), Some(response))
            }
        };
        let sent = (stream.head.wire_len + out.len()) as u64;
        let served = self.finish_page_stream(pending, stream, &mut out, sent, now);
        Decision::Serve {
            response: relayed.unwrap_or_else(|| page_response(out)),
            manifest: served.manifest,
            verdict: served.verdict,
            key: served.key,
        }
    }

    /// Phase two, begin. Called when the origin response head reveals
    /// an HTML page: one short critical section re-binds the lease to
    /// mint this page's instrumentation — the RNG draw, probe URLs (on
    /// the request's `Host` when its target names none), and the beacon
    /// token *issued into the session immediately*, its script a seed
    /// until somebody fetches it, so a fast browser redeeming a probe
    /// mid-stream already hits live state — and returns a
    /// [`PageStream`] to pump origin body chunks through. The rewrite
    /// is byte-identical for every chunking of the body, the one chunk
    /// of [`Origin::Page`] via [`Gateway::complete`] included.
    ///
    /// A lease whose incarnation died mid-fetch degrades to a
    /// passthrough stream: the page goes out uninstrumented (there is
    /// no session state to hold its beacon token) and the eventual
    /// [`Gateway::commit_page_stream`] commits through the
    /// deferred-carry channel.
    pub fn begin_page_stream(&self, pending: &PendingOrigin, now: SimTime) -> PageStream {
        let rewrite = self
            .detector
            .with_lease_state(&pending.lease, |session, state| {
                self.engine.begin_session_page(
                    &pending.request,
                    &mut state.tokens,
                    || self.stream_seed(session),
                    now,
                )
            });
        PageStream {
            rewrite,
            head: PAGE_HEAD,
        }
    }

    /// Phase two, commit: the one every origin serve ends in. The
    /// origin body has finished (or died): flush the rewriter's held
    /// tail into `out`, record the exchange, and fold its evidence.
    /// `wire_bytes` is what the caller already put on the wire for this
    /// response (head + encoded chunks); the tail flushed here is added
    /// on top, and the byte ledger counts the sum and the request. The
    /// session keeps no byte count of its own. Returns the session's verdict
    /// after folding the exchange; what the page was minted with is not
    /// spelled out ([`Gateway::finish_page_stream`] is this commit and
    /// the manifest).
    ///
    /// The recorded response is the summary the stream carries (a page's
    /// `200 text/html`, a relay's origin status and `Content-Type`
    /// class) — the body bytes are long gone to the client, which is the
    /// point of streaming. Evidence folding only reads the status and
    /// the class, so detection is unaffected.
    pub fn commit_page_stream(
        &self,
        pending: PendingOrigin,
        stream: PageStream,
        out: &mut Vec<u8>,
        wire_bytes: u64,
        now: SimTime,
    ) -> Verdict {
        let PendingOrigin { lease, request } = pending;
        let (outcome, _) = self.commit_stream(lease, &request, stream, out, wire_bytes, now);
        outcome.verdict
    }

    /// [`Gateway::commit_page_stream`], and the manifest of what the
    /// page was minted with, for a caller that reads it.
    pub fn finish_page_stream(
        &self,
        pending: PendingOrigin,
        stream: PageStream,
        out: &mut Vec<u8>,
        wire_bytes: u64,
        now: SimTime,
    ) -> StreamedServe {
        let PendingOrigin { lease, request } = pending;
        let (outcome, finished) = self.commit_stream(lease, &request, stream, out, wire_bytes, now);
        StreamedServe {
            key: outcome.key,
            verdict: outcome.verdict,
            manifest: finished
                .map(|finished| finished.manifest(request.uri(), request.authority().as_deref())),
        }
    }

    /// [`Gateway::commit_page_stream`] over a borrowed request, handing
    /// back what the rewriter finished with.
    fn commit_stream(
        &self,
        lease: OriginLease,
        request: &Request,
        stream: PageStream,
        out: &mut Vec<u8>,
        wire_bytes: u64,
        now: SimTime,
    ) -> (ObserveOutcome, Option<FinishedStream>) {
        let cell = self.counters.cell(lease.shard());
        let tail_start = out.len();
        let finished = stream.rewrite.map(|rewrite| {
            let finished = rewrite.finish(out);
            // The page's wire bytes are tallied below; only the
            // injected share moves into the overhead column.
            cell.instrumentation_bytes
                .fetch_add(finished.html_overhead as u64, Ordering::Relaxed);
            finished
        });
        let sent = wire_bytes + (out.len() - tail_start) as u64;
        // The body is already with the client; live or lost, what is
        // left to record is its head (in_flight bookkeeping and the
        // recording itself happen inside commit_exchange).
        let outcome = self
            .detector
            .commit_exchange(lease, &request.view(), stream.head, now);
        cell.total_bytes
            .fetch_add(request.wire_len() as u64 + sent, Ordering::Relaxed);
        cell.served.fetch_add(1, Ordering::Release);
        (outcome, finished)
    }

    /// The instrumentation RNG stream of one session incarnation.
    fn stream_seed(&self, session: &Session) -> u64 {
        self.engine
            .session_stream_seed(session.key().shard_hash(), session.started())
    }

    /// Phase one, the one gate path: the request as the gate reads it
    /// (read in place off a connection by a front door, or lent by an
    /// owned [`Request`] through [`Request::view`] in
    /// [`Gateway::handle_with`] and [`Gateway::handle_deferred`]) goes
    /// through one shard critical section covering the policy gate,
    /// sighting resolution and — for every answer that needs no origin —
    /// the answer itself, recorded and counted before the lock is let go.
    /// That answer is appended to `out`, `close` deciding its
    /// `Connection` line: a probe object inside the section (a script is
    /// written there from the session's token entry, which keeps no
    /// source), a refusal or the interstitial once it is over.
    pub fn gate(
        &self,
        request: &RequestView<'_>,
        now: SimTime,
        close: bool,
        out: &mut Vec<u8>,
    ) -> Gate {
        // Stateless pre-classification: probe URLs authenticate
        // themselves against the engine's keyed-hash scheme, beacon
        // URLs are recognized by shape. No state is touched until the
        // session's own critical section resolves the rest.
        let sighting = self.engine.classify_view(request, now);

        let gated = self.detector.gate(
            request,
            &sighting,
            now,
            self.config.enforcement,
            &self.policy,
            |action, _session, state, classified| {
                let answer = match action {
                    Action::Block => Answer::Block,
                    // §4.2 escape hatch: a throttled session can be
                    // offered a CAPTCHA instead of a bare 429 — solving
                    // it makes the session ground-truth human and sheds
                    // the rate limit.
                    Action::Throttle
                        if self.config.challenge_on_throttle && self.captcha.is_enabled() =>
                    {
                        let challenge = self.captcha.issue();
                        state.challenge = Some(Box::new(ChallengeState::new(challenge.id, now)));
                        Answer::Challenge(challenge)
                    }
                    Action::Throttle => Answer::Throttle,
                    // Instrumentation traffic is answered by the gateway
                    // itself, a script written from this session's own
                    // token state; ordinary allowed traffic leases the
                    // session and fetches the origin outside the lock.
                    Action::Allow => match self.engine.object_in_session(
                        classified,
                        &state.tokens,
                        request,
                        now,
                        close,
                        out,
                    ) {
                        Some(object) => Answer::Probe(object),
                        None => return GateRespond::NeedsOrigin,
                    },
                };
                let summary = answer.summary();
                GateRespond::Respond(summary, (answer, summary.wire_len))
            },
        );

        match gated {
            Gated::Done {
                outcome,
                value: (answer, answer_len),
                shard,
            } => {
                // A probe object is in `out` already; the rest needs no
                // lock to be written, and neither does the accounting:
                // the byte ledgers are atomic cells.
                answer.write(close, out);
                let cell = self.counters.cell(shard);
                cell.requests.fetch_add(1, Ordering::Relaxed);
                let bytes = (request.wire_len() + answer_len) as u64;
                cell.total_bytes.fetch_add(bytes, Ordering::Relaxed);
                if !matches!(sighting, botwall_instrument::Sighting::Ordinary) {
                    cell.instrumentation_bytes
                        .fetch_add(bytes, Ordering::Relaxed);
                }
                let column = match answer {
                    Answer::Block => &cell.blocked,
                    Answer::Throttle => &cell.throttled,
                    Answer::Challenge(_) => &cell.challenged,
                    Answer::Probe(_) => {
                        cell.probe_requests.fetch_add(1, Ordering::Relaxed);
                        &cell.served
                    }
                };
                column.fetch_add(1, Ordering::Release);
                Gate::Answered {
                    answer,
                    key: outcome.key,
                    verdict: outcome.verdict,
                }
            }
            Gated::NeedsOrigin(lease) => {
                let cell = self.counters.cell(lease.shard());
                cell.requests.fetch_add(1, Ordering::Relaxed);
                Gate::Leased(lease)
            }
        }
    }

    /// Offers a CAPTCHA if the serving policy says so.
    pub fn offer_captcha(&self) -> Option<Challenge> {
        self.captcha.is_enabled().then(|| self.captcha.issue())
    }

    /// Verifies a CAPTCHA answer; on success the session is marked
    /// ground-truth human. Everything per-key — the outstanding
    /// challenge record, attempt counting, the pass evidence — updates
    /// under the session's one shard lock, and challenge ids are
    /// single-use service-wide, so a captured `(id, answer)` pair is
    /// worthless after its first successful submission.
    ///
    /// A session answering its outstanding challenge record gets a
    /// small fixed attempt budget on the record's authority (exhausting
    /// it consumes the id service-wide and drops the record, so the
    /// next request re-challenges with a fresh one). A record stands an
    /// hour after its issue; an older one reads as no record at all
    /// ([`botwall_core::KeyState::outstanding_challenge`]). Any other
    /// id — an earlier challenge of the same session, or the opt-in
    /// offer flow — is accepted if the answer is correct and the id
    /// unconsumed, exactly as the old outstanding table accepted any
    /// live entry; wrong answers there consume nothing, so spraying
    /// garbage at predictable ids cannot invalidate anyone's challenge.
    /// If the keyed session is no longer live (swept or evicted between
    /// issue and answer), the pass parks in the key's shard as a
    /// deferred carry and is credited to the next incarnation on its
    /// first exchange — a correct answer is never silently dropped.
    pub fn verify_captcha(&self, key: &SessionKey, id: u64, answer: &str, now: SimTime) -> bool {
        let tracker = self.detector.tracker();
        tracker.with_entry_and_carry(key, now, |entry, carry| {
            match entry {
                // Only a live session takes the credit directly: one idle
                // past the timeout reads as absent (crediting it would
                // bury the pass with the old incarnation).
                Some((session, state)) => {
                    let passed = match state.outstanding_challenge(now) {
                        Some(record) if record.id == id => {
                            // The outstanding record is the single-use
                            // authority for its own id: accept on its
                            // say-so (immune to id pre-burning), within
                            // the attempt budget.
                            if self.captcha.verify_attempt(id, answer) {
                                state.challenge = None;
                                true
                            } else {
                                record.attempts += 1;
                                if record.attempts >= MAX_CHALLENGE_ATTEMPTS {
                                    // Ground out: consume the id
                                    // everywhere and drop the record so
                                    // the next request re-challenges.
                                    self.captcha.burn(id);
                                    state.challenge = None;
                                }
                                false
                            }
                        }
                        _ => {
                            // No record, one past its lifetime, or an
                            // *older* challenge of this session (two
                            // tabs each rendered one): a correct answer
                            // to any still-unconsumed id proves the
                            // human, exactly as the old outstanding
                            // table accepted any live entry.
                            let passed = self.captcha.verify_once(id, answer);
                            if passed {
                                state.challenge = None;
                            }
                            passed
                        }
                    };
                    if passed {
                        state.record_captcha_pass(session.request_count() as u32, now);
                    }
                    passed
                }
                None => {
                    // Dead key: consume-on-success only, so garbage
                    // sprayed at predictable ids can never pre-burn the
                    // pass a swept session's answer depends on. The pass
                    // merges into any carry already parked for the key
                    // (e.g. a lost leased exchange).
                    let passed = self.captcha.verify_once(id, answer);
                    if passed {
                        carry.get_or_insert_with(KeyCarry::default).pass =
                            Some(PendingCaptchaPass { at: now });
                    }
                    passed
                }
            }
        })
    }

    /// Expires idle sessions as of `now`, applying the batch
    /// classification to every flushed session. A sweep only finalizes:
    /// tokens and challenge records of flushed sessions leave *with
    /// their entries*, and those of a live session expire where they
    /// are read and are bounded by its entry cap, so long runs cannot
    /// grow an unbounded table anywhere.
    pub fn sweep(&self, now: SimTime) -> Vec<CompletedSession> {
        let completed = self.detector.sweep(now);
        self.finish(completed)
    }

    /// One bounded step of [`Gateway::sweep`]: the next tracker shard in
    /// rotation gives up its eviction and rollover casualties and up to
    /// `budget` idle sessions (see
    /// [`botwall_sessions::ShardedTracker::sweep_slice`]). Microseconds
    /// with nothing idle, so a serving thread can call it on a timer;
    /// concurrent callers take different shards.
    pub fn sweep_slice(&self, now: SimTime, budget: usize) -> Vec<CompletedSession> {
        let completed = self.detector.sweep_slice(now, budget);
        self.finish(completed)
    }

    /// Flushes every session unconditionally (end of deployment).
    pub fn drain(&self) -> Vec<CompletedSession> {
        let completed = self.detector.drain();
        self.finish(completed)
    }

    /// Post-flush bookkeeping shared by sweep and drain: the count of
    /// completed sessions. Per-key policy state needs no cleanup — it
    /// lives in the shard entry and is gone the moment the entry
    /// flushes, while a still-live successor incarnation keeps its own
    /// carried state.
    fn finish(&self, completed: Vec<CompletedSession>) -> Vec<CompletedSession> {
        self.completed_sessions
            .fetch_add(completed.len() as u64, Ordering::Relaxed);
        completed
    }

    /// Snapshots the gateway's activity counters and counts what live
    /// sessions hold.
    ///
    /// O(live sessions): tokens and challenge records are counted by a
    /// walk over every live session ([`Detector::fold_key_states`]) and
    /// evictions are summed shard by shard, each shard lock taken twice,
    /// one at a time (on a 2-core Xeon VM ~0.8 ms at 100 000 sessions,
    /// 1.7 ms when each holds a page's token). Never call it, or
    /// `Gateway`'s `Debug`, from inside a shard critical section: it
    /// would wait on the lock its caller holds (a debug build panics).
    pub fn stats(&self) -> GatewayStats {
        let (captcha_issued, captcha_passed, captcha_failed) = self.captcha.stats();
        let tracker = self.detector.tracker();
        let (token_entries, pending_challenges) =
            self.detector
                .fold_key_states((0, 0), |(tokens, challenges), _, state| {
                    (
                        tokens + state.tokens.len() as u64,
                        challenges + u64::from(state.challenge.is_some()),
                    )
                });
        // Outcomes first, then requests: each request is counted before
        // its outcome, whose increment releases it, so a snapshot taken
        // while traffic flows never shows an outcome without its request.
        let served = self.counters.sum(|c| &c.served);
        let throttled = self.counters.sum(|c| &c.throttled);
        let blocked = self.counters.sum(|c| &c.blocked);
        let challenged = self.counters.sum(|c| &c.challenged);
        fence(Ordering::Acquire);
        GatewayStats {
            requests: self.counters.sum(|c| &c.requests),
            served,
            throttled,
            blocked,
            challenged,
            probe_requests: self.counters.sum(|c| &c.probe_requests),
            completed_sessions: self.completed_sessions.load(Ordering::Relaxed),
            live_sessions: tracker.live_count(),
            evicted_sessions: tracker.evicted_total(),
            shard_count: tracker.shard_count(),
            total_bytes: self.counters.sum(|c| &c.total_bytes),
            instrumentation_bytes: self.counters.sum(|c| &c.instrumentation_bytes),
            captcha_issued,
            captcha_passed,
            captcha_failed,
            pending_challenges,
            token_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EvidenceKind;
    use botwall_captcha::ServingPolicy;
    use botwall_core::classifier::{Label, Reason};
    use botwall_http::request::ClientIp;
    use botwall_http::Method;

    const HTML: &str = "<html><head></head><body><p>x</p></body></html>";

    fn req(ip: u32, uri: &str, ua: &str) -> Request {
        Request::builder(Method::Get, uri)
            .header("User-Agent", ua)
            .client(ClientIp::new(ip))
            .build()
            .unwrap()
    }

    fn page_decision(gw: &Gateway, ip: u32, ua: &str, at: SimTime) -> Decision {
        let r = req(ip, "http://site.example/index.html", ua);
        gw.handle_with(&r, at, |_| Origin::Page(HTML.into()))
    }

    include!("../tests/support/robot.rs");

    /// A gateway seeded `seed` that serves a throttled session a
    /// challenge in place of the 429.
    fn challenging(seed: u64) -> Gateway {
        Gateway::builder()
            .seed(seed)
            .challenge_on_throttle(true)
            .build()
    }

    /// A crawler that turned robot on its tenth request without a
    /// browser signal, and has not proven anything since.
    const CRAWLER_VERDICT: Verdict = Verdict::ProvisionalRobot(Reason::NoBrowserSignals);

    #[test]
    fn gateway_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gateway>();
    }

    #[test]
    fn pages_come_back_instrumented() {
        let gw = Gateway::builder().seed(3).build();
        match page_decision(&gw, 1, "Mozilla/5.0", SimTime::ZERO) {
            Decision::Serve {
                manifest, response, ..
            } => {
                assert!(String::from_utf8_lossy(response.body()).contains("onmousemove"));
                assert!(manifest.unwrap().mouse_beacon.is_some());
            }
            other => panic!("{other:?}"),
        }
        let stats = gw.stats();
        assert_eq!(stats.requests, 1);
        assert_eq!(stats.served, 1);
        assert_eq!(stats.probe_requests, 0, "a page is origin traffic");
        assert!(stats.instrumentation_bytes > 0);
        assert!(stats.total_bytes > stats.instrumentation_bytes);
    }

    #[test]
    fn the_origin_callback_sees_the_callers_request() {
        // `handle_with` hands its callback the request the lease carries,
        // a copy of the caller's: every part of it must arrive as sent.
        let gw = Gateway::builder().seed(21).build();
        let r = Request::builder(Method::Post, "http://site.example/cgi-bin/form?q=1")
            .header("User-Agent", "Mozilla/5.0")
            .header("Referer", "http://site.example/index.html")
            .header("X-Extra", "kept")
            .body_bytes(b"name=value".to_vec())
            .client(ClientIp::new(40))
            .build()
            .unwrap();
        let mut seen = None;
        let d = gw.handle_with(&r, SimTime::ZERO, |asked| {
            seen = Some(asked.clone());
            Origin::NotFound
        });
        assert_eq!(d.status(), StatusCode::NOT_FOUND);
        let seen = seen.expect("an allowed ordinary request asks the origin");
        assert_eq!(seen.method(), &Method::Post);
        assert_eq!(
            seen.uri().to_string(),
            "http://site.example/cgi-bin/form?q=1"
        );
        assert_eq!(seen.headers().get("X-Extra"), Some("kept"));
        assert_eq!(seen.referer(), Some("http://site.example/index.html"));
        assert_eq!(seen.body(), b"name=value");
        assert_eq!(seen.client(), ClientIp::new(40));
        assert_eq!(seen, r, "nothing else moved either");
    }

    /// A page big enough that a 4 096-byte chunk is not all of it, with
    /// every injection anchor somewhere a cut can land.
    fn long_page() -> String {
        format!(
            "<html><head><title>t</title></head><body class=\"x\">{}<p>end</p></body></html>",
            "<p>filler &amp; more filler</p>".repeat(200)
        )
    }

    /// Everything one page serve to a fresh session leaves behind: the
    /// body the client got, the manifest, the gateway's whole snapshot
    /// and the session's counters.
    type Observed = (
        Vec<u8>,
        Option<ProbeManifest>,
        GatewayStats,
        botwall_sessions::SessionCounters,
    );

    /// Gates a page request at a fresh gateway, hands the lease to
    /// `serve`, and collects what the serve left behind.
    fn observe_serve(
        serve: impl FnOnce(&Gateway, PendingOrigin) -> (Vec<u8>, Option<ProbeManifest>),
    ) -> Observed {
        let gw = Gateway::builder().seed(11).build();
        let r = req(9, "http://site.example/index.html", "Mozilla/5.0");
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        let (body, manifest) = serve(&gw, pending);
        let counters = gw
            .detector()
            .with_key_state(&SessionKey::of(&r), |session, state| {
                assert_eq!(state.in_flight, 0, "the lease came back");
                session.counters().clone()
            })
            .expect("the session is live");
        (body, manifest, gw.stats(), counters)
    }

    /// Streams `page` the way the front door does, in pieces of the
    /// lengths `next_len` hands out, tallying the head it would have
    /// written and every body byte on its way past.
    fn stream_in_pieces(
        gw: &Gateway,
        pending: PendingOrigin,
        page: &str,
        mut next_len: impl FnMut() -> usize,
    ) -> (Vec<u8>, Option<ProbeManifest>) {
        let mut stream = gw.begin_page_stream(&pending, SimTime::ZERO);
        assert!(stream.rewrite.is_some());
        let head = stream.head.wire_len;
        let mut out = Vec::new();
        let mut rest = page.as_bytes();
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(next_len().clamp(1, rest.len()));
            stream.write(piece, &mut out);
            rest = tail;
        }
        let sent = (head + out.len()) as u64;
        let served = gw.finish_page_stream(pending, stream, &mut out, sent, SimTime::ZERO);
        (out, served.manifest)
    }

    #[test]
    fn streamed_page_is_byte_identical_to_buffered_serve() {
        use rand::{Rng, SeedableRng};
        // The same page to the same fresh session, held whole
        // (`complete` with `Origin::Page`: the one-chunk adapter) and
        // streamed in pieces: one commit, so the same bytes on the wire,
        // the same manifest, the same ledger to the byte and the same
        // session record, whatever the chunking.
        let page = long_page();
        let whole = observe_serve(|gw, pending| {
            match gw.complete(pending, Origin::Page(page.clone()), SimTime::ZERO) {
                Decision::Serve {
                    response, manifest, ..
                } => (response.body().to_vec(), manifest),
                other => panic!("{other:?}"),
            }
        });
        let (body, manifest, stats, _) = &whole;
        let manifest = manifest.as_ref().unwrap();
        assert!(manifest.mouse_beacon.is_some());
        assert_eq!(manifest.html_overhead, body.len() - page.len());
        assert_eq!(stats.served, 1);
        assert_eq!(stats.instrumentation_bytes, manifest.html_overhead as u64);
        assert!(
            stats.total_bytes >= body.len() as u64,
            "the ledger counts the body: {stats:?}"
        );
        for size in [1, 7, 4096] {
            let streamed =
                observe_serve(|gw, pending| stream_in_pieces(gw, pending, &page, || size));
            assert!(streamed == whole, "{size}-byte chunks diverged");
        }
        for seed in 0..24 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let streamed = observe_serve(|gw, pending| {
                stream_in_pieces(gw, pending, &page, || rng.gen_range(1..600))
            });
            assert!(streamed == whole, "split seed {seed} diverged");
        }
    }

    #[test]
    fn a_lease_lost_before_complete_still_serves_and_commits_through_the_carry() {
        // One session fits; a stranger arrives between the gate and
        // `complete`, so the leased incarnation is evicted mid-fetch.
        let gw = Gateway::builder()
            .seed(14)
            .detector(botwall_core::DetectorConfig {
                tracker: botwall_sessions::TrackerConfig {
                    max_sessions: 1,
                    ..Default::default()
                },
            })
            .build();
        let r = req(12, "http://site.example/index.html", "Mozilla/5.0");
        let key = SessionKey::of(&r);
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        gw.handle(
            &req(13, "http://site.example/x", "Mozilla/5.0"),
            SimTime::from_secs(1),
        );
        assert!(gw.detector().tracker().get(&key).is_none(), "evicted");
        // The adapter takes the passthrough stream: the page goes out as
        // the origin sent it, nothing is minted...
        match gw.complete(pending, Origin::Page(HTML.into()), SimTime::from_secs(2)) {
            Decision::Serve {
                response, manifest, ..
            } => {
                assert_eq!(response.body(), HTML.as_bytes());
                assert!(response.is_uncacheable());
                assert!(manifest.is_none());
            }
            other => panic!("{other:?}"),
        }
        let stats = gw.stats();
        assert_eq!(
            (stats.requests, stats.served),
            (2, 2),
            "the ledger balances"
        );
        assert_eq!((stats.token_entries, stats.instrumentation_bytes), (0, 0));
        // ...and the exchange commits through the carry channel: parked,
        // then absorbed by the key's next incarnation, whose in-flight
        // count starts from nothing.
        assert_eq!(gw.detector().tracker().census().carries, 1);
        gw.handle(&r, SimTime::from_secs(3));
        assert_eq!(gw.detector().tracker().census().carries, 0);
        let in_flight = gw
            .detector()
            .with_key_state(&key, |_, state| state.in_flight)
            .unwrap();
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn a_lease_whose_slot_went_to_another_key_commits_through_the_lost_path() {
        // One shard holding one session: the leased session is evicted
        // mid-fetch by a stranger, whose entry takes the freed slab slot.
        // The slot the lease names now holds another key's session; only
        // the incarnation stamp tells the two apart.
        let gw = Gateway::builder()
            .seed(17)
            .detector(botwall_core::DetectorConfig {
                tracker: botwall_sessions::TrackerConfig {
                    max_sessions: 1,
                    shards: 1,
                    ..Default::default()
                },
            })
            .build();
        let r = req(30, "http://site.example/index.html", "Mozilla/5.0");
        let key = SessionKey::of(&r);
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        let stranger = req(31, "http://site.example/x", "Mozilla/5.0");
        gw.handle(&stranger, SimTime::from_secs(1));
        let tracker = gw.detector().tracker();
        assert!(tracker.get(&key).is_none(), "evicted");
        assert_eq!(tracker.census().slots, 1, "the stranger took the slot");
        let newcomer = |gw: &Gateway| {
            gw.detector()
                .with_key_state(&SessionKey::of(&stranger), |session, state| {
                    (session.request_count(), state.in_flight, state.tokens.len())
                })
                .expect("the stranger is live")
        };
        let before = newcomer(&gw);
        // The page passes through uninstrumented: nothing is minted into
        // the stranger's session...
        let mut stream = gw.begin_page_stream(&pending, SimTime::from_secs(2));
        assert!(stream.rewrite.is_none());
        let mut out = Vec::new();
        stream.write(HTML.as_bytes(), &mut out);
        assert_eq!(out, HTML.as_bytes());
        let sent = out.len() as u64;
        let served = gw.finish_page_stream(pending, stream, &mut out, sent, SimTime::from_secs(2));
        assert!(served.manifest.is_none());
        // ...nor committed into it: the exchange parks for the leased
        // key's next incarnation.
        assert_eq!(newcomer(&gw), before);
        assert_eq!(tracker.census().carries, 1);
        assert_eq!(gw.stats().token_entries, 0);
        // The key's return absorbs the carry.
        gw.handle(&r, SimTime::from_secs(3));
        assert_eq!(tracker.census().carries, 0);
        let in_flight = gw
            .detector()
            .with_key_state(&key, |_, state| state.in_flight)
            .expect("the key is back");
        assert_eq!(in_flight, 0);
    }

    #[test]
    fn streamed_page_token_redeems_mid_stream() {
        // The beacon token is issued at begin_page_stream, before the
        // body has streamed: a fast browser can redeem a probe while the
        // page is still going out.
        let gw = Gateway::builder().seed(12).build();
        let r = req(10, "http://site.example/index.html", "Mozilla/5.0");
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        let mut stream = gw.begin_page_stream(&pending, SimTime::ZERO);
        let mut out = Vec::new();
        stream.write(&HTML.as_bytes()[..10], &mut out); // body mid-flight
        let js_uri = {
            // The generated script probe is live in the session already.
            let streamed_manifest = gw
                .detector
                .with_lease_state(&pending.lease, |_, state| state.tokens.len())
                .unwrap();
            assert_eq!(streamed_manifest, 1);
            let finished = gw.finish_page_stream(pending, stream, &mut out, 0, SimTime::ZERO);
            finished.manifest.unwrap().js_file.unwrap()
        };
        // And the script URL classifies + serves as a probe afterwards.
        let probe_req = req(10, &js_uri.to_string(), "Mozilla/5.0");
        match gw.handle(&probe_req, SimTime::from_secs(1)) {
            Decision::Serve { response, .. } => assert!(!response.body().is_empty()),
            other => panic!("{other:?}"),
        }
        assert_eq!(gw.stats().probe_requests, 1);
    }

    #[test]
    fn a_relay_stream_passes_bytes_through_and_records_the_origins_head() {
        let gw = Gateway::builder().seed(13).build();
        let r = req(11, "http://site.example/style", "Mozilla/5.0");
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        let key = pending.key().clone();
        let head = Response::builder(StatusCode::NOT_FOUND)
            .header("Content-Type", "text/css")
            .build();
        let mut stream = PageStream::relay(head.summary());
        assert!(stream.rewrite.is_none());
        let mut out = Vec::new();
        stream.write(b"<html><body>not a page to us</body></html>", &mut out);
        let sent = out.len() as u64;
        let streamed = gw.finish_page_stream(pending, stream, &mut out, sent, SimTime::ZERO);
        assert_eq!(out, b"<html><body>not a page to us</body></html>");
        assert!(streamed.manifest.is_none());
        // The exchange is on the session's record as the origin answered
        // it, not as a synthesized page.
        let (errors, embedded, in_flight) = gw
            .detector()
            .with_key_state(&key, |session, state| {
                let counters = session.counters();
                (counters.resp_4xx, counters.embedded_obj, state.in_flight)
            })
            .unwrap();
        assert_eq!((errors, embedded, in_flight), (1, 1, 0));
        let stats = gw.stats();
        assert_eq!((stats.served, stats.token_entries), (1, 0));
        assert_eq!(stats.instrumentation_bytes, 0);
        assert_eq!(stats.total_bytes, r.wire_len() as u64 + sent);
    }

    #[test]
    fn a_relayed_asset_is_ledgered_like_the_asset_held_whole() {
        // A 10 KB asset relayed the way the front door relays one: the
        // stream carries only a head, and the byte ledger still counts
        // what went past on the wire.
        let gw = Gateway::builder().seed(15).build();
        let r = req(16, "http://site.example/logo.png", "Mozilla/5.0");
        let PendingServe::AwaitingOrigin(pending) = gw.handle_deferred(&r, SimTime::ZERO) else {
            panic!("ordinary request leases");
        };
        let head = Response::builder(StatusCode::OK)
            .header("Content-Type", "image/png")
            .build();
        let mut stream = PageStream::relay(head.summary());
        let mut out = Vec::new();
        for piece in vec![7u8; 10 * 1024].chunks(1500) {
            stream.write(piece, &mut out);
        }
        let sent = (head.wire_len() + out.len()) as u64;
        gw.finish_page_stream(pending, stream, &mut out, sent, SimTime::ZERO);
        let streamed = gw.stats().total_bytes;
        assert!(streamed >= 10 * 1024, "head only: {streamed}");
        assert_eq!(streamed, r.wire_len() as u64 + sent);
        // The same asset held whole is counted the same way: the request
        // and the response as it went on the wire.
        let whole = Gateway::builder().seed(15).build();
        let asset = Response::builder(StatusCode::OK)
            .header("Content-Type", "image/png")
            .header("Content-Length", "10240")
            .body_bytes(vec![7u8; 10 * 1024])
            .build();
        whole.handle_with(&r, SimTime::ZERO, |_| Origin::Response(asset.clone()));
        assert_eq!(
            whole.stats().total_bytes,
            (r.wire_len() + asset.wire_len()) as u64
        );
    }

    #[test]
    fn a_page_stream_records_what_the_page_response_summarises_to() {
        assert_eq!(PAGE_HEAD, page_response(Vec::new()).summary());
    }

    #[test]
    fn mouse_beacon_flows_to_human_verdict() {
        let gw = Gateway::builder().seed(4).build();
        let manifest = match page_decision(&gw, 2, "Mozilla/5.0", SimTime::ZERO) {
            Decision::Serve { manifest, .. } => manifest.unwrap(),
            other => panic!("{other:?}"),
        };
        let beacon = manifest.mouse_beacon.unwrap();
        let r = req(2, &beacon.to_string(), "Mozilla/5.0");
        let d = gw.handle(&r, SimTime::from_secs(2));
        assert_eq!(
            d.verdict(),
            Some(Verdict::Human(Reason::MouseActivity)),
            "{d:?}"
        );
        assert_eq!(
            gw.stats().probe_requests,
            1,
            "beacon is instrumentation traffic"
        );
        let done = gw.drain();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].label, Label::Human);
    }

    #[test]
    fn probe_objects_are_served_by_the_gateway() {
        let gw = Gateway::builder().seed(5).build();
        let manifest = match page_decision(&gw, 3, "Mozilla/5.0", SimTime::ZERO) {
            Decision::Serve { manifest, .. } => manifest.unwrap(),
            other => panic!("{other:?}"),
        };
        let css = manifest.css_probe.unwrap();
        assert_eq!(gw.stats().probe_requests, 0);
        let d = gw.handle(&req(3, &css.to_string(), "Mozilla/5.0"), SimTime::ZERO);
        match d {
            Decision::Serve { response, .. } => assert_eq!(response.status(), StatusCode::OK),
            other => panic!("{other:?}"),
        }
        assert_eq!(gw.stats().probe_requests, 1);
    }

    #[test]
    fn generated_script_serves_from_session_state() {
        let gw = Gateway::builder().seed(35).build();
        let manifest = match page_decision(&gw, 14, "Mozilla/5.0", SimTime::ZERO) {
            Decision::Serve { manifest, .. } => manifest.unwrap(),
            other => panic!("{other:?}"),
        };
        let js = manifest.js_file.unwrap();
        let d = gw.handle(&req(14, &js.to_string(), "Mozilla/5.0"), SimTime::ZERO);
        match d {
            Decision::Serve { response, .. } => {
                let body = String::from_utf8(response.body().to_vec()).unwrap();
                assert!(
                    body.contains("new Image()"),
                    "script must come back from the session's token state"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_signal_sessions_get_throttled_then_survive_enforcement_off() {
        let mut throttled = 0;
        let gw = Gateway::builder().seed(6).build();
        for i in 0..40 {
            let r = req(4, &format!("http://site.example/{i}.html"), "wget/1.0");
            if !gw
                .handle_with(&r, SimTime::from_secs(i / 4), |_| Origin::Page(HTML.into()))
                .is_serve()
            {
                throttled += 1;
            }
        }
        assert!(throttled > 0, "no-signal session must hit the robot limit");
        // Enforcement off: everything flows.
        let open = Gateway::builder().seed(6).enforcement(false).build();
        for i in 0..40 {
            let r = req(4, &format!("http://site.example/{i}.html"), "wget/1.0");
            assert!(open
                .handle_with(&r, SimTime::from_secs(i / 4), |_| Origin::Page(HTML.into()))
                .is_serve());
        }
    }

    #[test]
    fn captcha_pass_recorded() {
        let gw = Gateway::builder()
            .seed(7)
            .captcha(ServingPolicy::OptionalWithIncentive)
            .build();
        let r = req(7, "http://site.example/a.html", "x");
        let d = gw.handle_with(&r, SimTime::ZERO, |_| Origin::Page(HTML.into()));
        assert!(d.is_serve(), "{d:?}");
        let ch = gw.offer_captcha().expect("the optional policy offers one");
        let key = SessionKey::of(&r);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, SimTime::from_secs(1)));
        assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
        // The observation carries the session's current request index.
        let e = gw.detector().evidence(&key).unwrap();
        assert_eq!(e.first(EvidenceKind::PassedCaptcha).unwrap().at_request, 1);
    }

    #[test]
    fn captcha_pass_in_the_stale_unswept_window_credits_the_next_incarnation() {
        // The user answers correctly after the idle timeout but BEFORE
        // any sweep: the old incarnation still sits in the tracker, yet
        // it is dead — its next exchange rolls it over. The pass must
        // ride to the successor, not be buried with the corpse.
        let gw = challenging(22);
        let (ch, r, at) = challenge_a_robot(&gw, 10, SimTime::ZERO);
        let key = SessionKey::of(&r);
        // Answer lands idle_timeout + ε later; no sweep has run.
        let late = at + SimTime::from_hours(1).as_millis() + 1;
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, late));
        // The next request rolls the session over — and must be served
        // as the proven human.
        let d = gw.handle_with(&r, late + 1, |_| Origin::Page(HTML.into()));
        match d {
            Decision::Serve { verdict, .. } => {
                assert_eq!(verdict, Verdict::Human(Reason::CaptchaPassed));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn captcha_pass_survives_session_expiry_between_issue_and_answer() {
        // The user solves the challenge, but slower than the idle
        // timeout: the session is swept away before the answer arrives.
        // The pass must carry over to the key's next incarnation instead
        // of vanishing into a re-challenge loop.
        let gw = challenging(21);
        let (ch, r, _) = challenge_a_robot(&gw, 9, SimTime::ZERO);
        let key = SessionKey::of(&r);
        // The session idles out and is flushed before the answer lands.
        assert_eq!(gw.sweep(SimTime::from_hours(2)).len(), 1);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, SimTime::from_hours(2) + 1));
        // The key's next exchange is served, and the pending pass is
        // credited to the new incarnation.
        let d = gw.handle_with(&r, SimTime::from_hours(2) + 2, |_| {
            Origin::Page(HTML.into())
        });
        match d {
            Decision::Serve { verdict, .. } => {
                assert_eq!(verdict, Verdict::Human(Reason::CaptchaPassed));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn a_solved_challenge_cannot_be_replayed_by_other_sessions() {
        // One bot observes a human solving challenge (id, answer) and
        // the whole fleet replays it: only the first verification may
        // ever succeed. (The old global issue table got this by deleting
        // the entry; the stateless service gets it from the redeemed-id
        // set.)
        let gw = challenging(24);
        let (ch, human, at) = challenge_a_robot(&gw, 20, SimTime::ZERO);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&SessionKey::of(&human), ch.id, &answer, at + 1));
        // Every replaying bot session fails verification, stays
        // unproven, and keeps getting challenged.
        for bot in 21..26u32 {
            let (_, r, at) = challenge_a_robot(&gw, bot, SimTime::ZERO);
            let key = SessionKey::of(&r);
            assert!(
                !gw.verify_captcha(&key, ch.id, &answer, at + 1),
                "replayed (id, answer) must not verify"
            );
            assert_eq!(gw.verdict(&key), CRAWLER_VERDICT);
            let d = gw.handle_with(&r, at + 2, |_| Origin::NotFound);
            assert!(matches!(d, Decision::Challenge(_)), "{d:?}");
        }
        // And a dead-key replay parks no phantom carry either: the key's
        // first request is served unproven.
        let r = req(99, "http://site.example/index.html", "Mozilla/5.0");
        let ghost = SessionKey::of(&r);
        assert!(!gw.verify_captcha(&ghost, ch.id, &answer, SimTime::from_secs(5)));
        assert_eq!(gw.detector().tracker().census().carries, 0);
        let d = gw.handle_with(&r, SimTime::from_secs(6), |_| Origin::NotFound);
        assert_eq!(d.verdict(), Some(Verdict::Undecided), "{d:?}");
    }

    #[test]
    fn an_earlier_challenge_of_the_same_session_still_verifies() {
        // Two tabs: the session is challenged twice (ids A then B, the
        // record holds B), and the human solves the one they rendered
        // first. A correct answer to A must still prove them — the old
        // outstanding table accepted any live entry.
        let gw = challenging(25);
        let (a, r, at) = challenge_a_robot(&gw, 27, SimTime::ZERO);
        let key = SessionKey::of(&r);
        let Decision::Challenge(b) = gw.handle_with(&r, at, |_| Origin::NotFound) else {
            panic!("challenge expected");
        };
        assert_ne!(a.id, b.id);
        let answer = a.answer().to_string();
        assert!(gw.verify_captcha(&key, a.id, &answer, at + 1));
        assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
        assert_eq!(
            gw.stats().pending_challenges,
            0,
            "record cleared by the pass"
        );
    }

    #[test]
    fn garbage_sprayed_at_predictable_ids_cannot_preburn_a_deferred_pass() {
        // A swept session's correct answer rides the deferred-carry
        // channel; an attacker spraying wrong answers at the (sequential,
        // guessable) id beforehand must not consume it.
        let gw = challenging(26);
        let (ch, r, _) = challenge_a_robot(&gw, 28, SimTime::ZERO);
        let key = SessionKey::of(&r);
        // The session is swept before the answer arrives...
        assert_eq!(gw.sweep(SimTime::from_hours(2)).len(), 1);
        // ...and an attacker grinds wrong answers at the id from a key
        // that has no session at all.
        let attacker = req(666, "http://site.example/x.html", "evil/1.0");
        let attacker_key = SessionKey::of(&attacker);
        for i in 0..10 {
            assert!(!gw.verify_captcha(
                &attacker_key,
                ch.id,
                &format!("wrong{i}"),
                SimTime::from_hours(2) + i
            ));
        }
        // The human's late correct answer still lands and carries over.
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, SimTime::from_hours(2) + 100));
        let d = gw.handle_with(&r, SimTime::from_hours(2) + 200, |_| Origin::NotFound);
        assert_eq!(
            d.verdict(),
            Some(Verdict::Human(Reason::CaptchaPassed)),
            "{d:?}"
        );
    }

    #[test]
    fn wrong_answers_burn_attempts_then_the_record() {
        let gw = challenging(23);
        let (ch, r, at) = challenge_a_robot(&gw, 11, SimTime::ZERO);
        let key = SessionKey::of(&r);
        assert_eq!(gw.stats().pending_challenges, 1);
        for i in 0..MAX_CHALLENGE_ATTEMPTS {
            assert!(!gw.verify_captcha(&key, ch.id, "wrong", at + 1 + u64::from(i)));
        }
        // Record burned: the outstanding-challenge column drops to zero
        // without any sweep.
        assert_eq!(gw.stats().pending_challenges, 0);
        assert_eq!(gw.stats().captcha_failed, u64::from(MAX_CHALLENGE_ATTEMPTS));
        assert_eq!(gw.verdict(&key), CRAWLER_VERDICT);
    }

    #[test]
    fn an_hour_old_challenge_record_reads_as_no_record() {
        // No sweep runs: the record expires where the answer reads it.
        let gw = challenging(24);
        let (ch, r, at) = challenge_a_robot(&gw, 12, SimTime::ZERO);
        let key = SessionKey::of(&r);
        // A request forty minutes on keeps the session live; the bucket
        // has refilled, so it is served and the record stands.
        let forty = at + 40 * 60 * 1_000;
        assert!(matches!(
            gw.handle_with(&r, forty, |_| Origin::NotFound),
            Decision::Serve { .. }
        ));
        let past = at + SimTime::from_hours(1).as_millis() + 1;
        for _ in 0..=MAX_CHALLENGE_ATTEMPTS {
            assert!(!gw.verify_captcha(&key, ch.id, "wrong", past));
        }
        // Not one attempt was spent on the record, nor its id burned.
        assert_eq!(gw.stats().pending_challenges, 1);
        assert_eq!(gw.verdict(&key), CRAWLER_VERDICT);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, past));
        assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
        assert_eq!(gw.stats().pending_challenges, 0);
        assert_eq!(gw.stats().live_sessions, 1, "the session stayed live");
    }

    #[test]
    fn challenge_attempt_budget_is_configurable() {
        // The last wrong answer the budget allows burns the record; the
        // next request re-challenges with a fresh id.
        let gw = challenging(51);
        let (ch, r, at) = challenge_a_robot(&gw, 52, SimTime::ZERO);
        let key = SessionKey::of(&r);
        for _ in 0..MAX_CHALLENGE_ATTEMPTS {
            assert_eq!(gw.stats().pending_challenges, 1, "the record stands");
            assert!(!gw.verify_captcha(&key, ch.id, "wrong", at + 1));
        }
        assert_eq!(
            gw.stats().pending_challenges,
            0,
            "the budget's last wrong answer burns the record"
        );
        let Decision::Challenge(fresh) = gw.handle_with(&r, at + 2, |_| Origin::NotFound) else {
            panic!("re-challenge expected");
        };
        assert_ne!(fresh.id, ch.id, "burned id is never re-served");
        // The burned id is consumed service-wide: even the right answer
        // is worthless now.
        let answer = ch.answer().to_string();
        assert!(!gw.verify_captcha(&key, ch.id, &answer, at + 3));
    }

    #[test]
    fn origin_variants_map_to_responses() {
        let gw = Gateway::builder().seed(8).build();
        let r = req(6, "http://site.example/asset.bin", "Mozilla/5.0");
        let d = gw.handle_with(&r, SimTime::ZERO, |_| {
            Origin::Response(
                Response::builder(StatusCode::OK)
                    .header("Content-Type", "application/octet-stream")
                    .body_bytes(vec![1, 2, 3])
                    .build(),
            )
        });
        match d {
            Decision::Serve {
                response, manifest, ..
            } => {
                assert_eq!(response.body(), &[1, 2, 3]);
                assert!(manifest.is_none());
            }
            other => panic!("{other:?}"),
        }
        let d = gw.handle(
            &req(6, "http://site.example/nope", "Mozilla/5.0"),
            SimTime::ZERO,
        );
        assert_eq!(d.status(), StatusCode::NOT_FOUND);
    }

    #[test]
    fn sweep_flushes_idle_sessions_and_forgets_policy_state() {
        let gw = Gateway::builder().seed(9).build();
        page_decision(&gw, 7, "Mozilla/5.0", SimTime::ZERO);
        assert!(gw.sweep(SimTime::from_secs(10)).is_empty());
        let done = gw.sweep(SimTime::from_hours(2));
        assert_eq!(done.len(), 1);
        assert_eq!(gw.stats().completed_sessions, 1);
        assert_eq!(gw.stats().live_sessions, 0);
    }

    #[test]
    fn stats_snapshot_reports_shards() {
        let gw = Gateway::builder().seed(11).build();
        assert_eq!(gw.stats().shard_count, 16);
    }

    #[test]
    fn stats_merge_token_and_challenge_occupancy_across_shards() {
        let gw = Gateway::builder().seed(36).build();
        assert_eq!(gw.stats().token_entries, 0);
        // Each instrumented page parks one token entry in its session's
        // shard; the snapshot folds them back together.
        for ip in 0..8 {
            page_decision(&gw, 100 + ip, "Mozilla/5.0", SimTime::ZERO);
        }
        let stats = gw.stats();
        assert_eq!(stats.token_entries, 8);
        assert_eq!(stats.pending_challenges, 0);
        // Sweeping the sessions takes their tokens with them — no
        // orphaned global table to leak.
        gw.sweep(SimTime::from_hours(2));
        let stats = gw.stats();
        assert_eq!(stats.token_entries, 0);
        assert_eq!(stats.live_sessions, 0);
    }

    #[test]
    fn stats_parity_across_identical_runs() {
        // The decentralized stats must reproduce exactly: same traffic,
        // same snapshot, field for field.
        let run = || {
            let gw = Gateway::builder()
                .seed(37)
                .challenge_on_throttle(true)
                .build();
            for i in 0..30u64 {
                let r = req(
                    (1 + i % 3) as u32,
                    &format!("http://site.example/{}.html", i % 7),
                    "wget/1.0",
                );
                gw.handle_with(&r, SimTime::from_secs(i), |_| Origin::Page(HTML.into()));
            }
            gw.stats()
        };
        assert_eq!(run(), run());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn lock_ledger_pins_the_two_phase_taxonomy() {
        use botwall_sessions::sync::counters;
        // The PR-5 taxonomy: decisions that need no origin cost exactly
        // one shard lock (the fused gate section); origin serves cost
        // exactly two (gate + commit) and a page a third (begin), with
        // NONE held during the fetch: in process, the numbers the
        // server path has always paid.
        let gw = Gateway::builder().seed(38).build();
        let manifest = match page_decision(&gw, 60, "Mozilla/5.0", SimTime::ZERO) {
            Decision::Serve { manifest, .. } => manifest.unwrap(),
            other => panic!("{other:?}"),
        };
        let beacon = manifest.mouse_beacon.unwrap();
        let d = gw.handle(
            &req(60, &beacon.to_string(), "Mozilla/5.0"),
            SimTime::from_secs(1),
        );
        assert_eq!(d.verdict(), Some(Verdict::Human(Reason::MouseActivity)));

        // Origin serves: a steady-state ordinary pass-through takes gate
        // + commit, a fully instrumented page serve gate + begin +
        // commit.
        let r = req(60, "http://site.example/steady.html", "Mozilla/5.0");
        counters::reset();
        let d = gw.handle_with(&r, SimTime::from_secs(2), |_| {
            Origin::Response(Response::empty(StatusCode::OK))
        });
        assert!(d.is_serve(), "{d:?}");
        assert_eq!(
            counters::snapshot(),
            2,
            "non-page origin serve = exactly (gate, commit) shard locks"
        );
        counters::reset();
        let d = page_decision(&gw, 60, "Mozilla/5.0", SimTime::from_secs(3));
        assert!(d.is_serve());
        assert_eq!(counters::snapshot(), 3, "page serve");

        // Proof that no lock spans the fetch: the origin callback can
        // itself drive a full request through the SAME session's shard.
        counters::reset();
        let d = gw.handle_with(
            &req(60, "http://site.example/outer.html", "Mozilla/5.0"),
            SimTime::from_secs(4),
            |_| {
                let nested = gw.handle_with(
                    &req(60, "http://site.example/nested.html", "Mozilla/5.0"),
                    SimTime::from_secs(4),
                    |_| Origin::Response(Response::empty(StatusCode::OK)),
                );
                assert!(nested.is_serve(), "reentrant same-key handle: {nested:?}");
                Origin::Response(Response::empty(StatusCode::OK))
            },
        );
        assert!(d.is_serve(), "{d:?}");
        assert_eq!(counters::snapshot(), 4, "outer (2) + nested (2)");

        // Non-origin decisions stay single-lock: beacon redemption...
        let Decision::Serve { manifest, .. } =
            page_decision(&gw, 60, "Mozilla/5.0", SimTime::from_secs(5))
        else {
            unreachable!()
        };
        let beacon = manifest.unwrap().mouse_beacon.unwrap();
        counters::reset();
        gw.handle(
            &req(60, &beacon.to_string(), "Mozilla/5.0"),
            SimTime::from_secs(6),
        );
        assert_eq!(counters::snapshot(), 1, "beacon redemption");
        // ...probe objects...
        let Decision::Serve { manifest, .. } =
            page_decision(&gw, 60, "Mozilla/5.0", SimTime::from_secs(7))
        else {
            unreachable!()
        };
        let css = manifest.unwrap().css_probe.unwrap();
        counters::reset();
        let d = gw.handle(
            &req(60, &css.to_string(), "Mozilla/5.0"),
            SimTime::from_secs(8),
        );
        assert!(d.is_serve());
        assert_eq!(counters::snapshot(), 1, "probe serve");
        // ...and challenges (the origin is never consulted).
        let gw = challenging(39);
        let (_, r, at) = challenge_a_robot(&gw, 61, SimTime::ZERO);
        counters::reset();
        let d = gw.handle_with(&r, at, |_| {
            panic!("challenged requests must not touch the origin")
        });
        assert!(matches!(d, Decision::Challenge(_)), "{d:?}");
        assert_eq!(counters::snapshot(), 1, "challenge");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_stats_snapshot_takes_each_shard_lock_twice_one_at_a_time() {
        use botwall_sessions::sync::counters;
        // Two passes over the shards: the fold that counts tokens and
        // challenges, then the eviction sum. The ledger panics on a
        // shard lock taken while one is held, so a snapshot that
        // finishes held one at a time.
        let gw = Gateway::builder().seed(40).build();
        for ip in 0..40 {
            page_decision(&gw, 200 + ip, "Mozilla/5.0", SimTime::ZERO);
        }
        let shards = gw.detector().tracker().shard_count() as u64;
        counters::reset();
        let stats = gw.stats();
        assert_eq!(counters::snapshot(), 2 * shards, "{shards} shards");
        assert_eq!((stats.live_sessions, stats.token_entries), (40, 40));
    }

    #[test]
    fn handle_deferred_splits_the_phases_across_call_sites() {
        let gw = Gateway::builder().seed(50).build();
        let r = req(70, "http://site.example/index.html", "Mozilla/5.0");
        let pending = match gw.handle_deferred(&r, SimTime::ZERO) {
            PendingServe::AwaitingOrigin(p) => p,
            PendingServe::Ready(d) => panic!("ordinary request needs the origin: {d:?}"),
        };
        assert_eq!(pending.key(), &SessionKey::of(&r));
        assert_eq!(pending.request().uri(), r.uri());
        // While the token is outstanding, no lock is held and the
        // exchange is not yet recorded.
        assert_eq!(gw.stats().requests, 1);
        assert_eq!(
            gw.detector()
                .tracker()
                .get(pending.key())
                .unwrap()
                .request_count(),
            0
        );
        let d = gw.complete(pending, Origin::Page(HTML.into()), SimTime::from_secs(1));
        match &d {
            Decision::Serve {
                manifest, response, ..
            } => {
                assert!(String::from_utf8_lossy(response.body()).contains("onmousemove"));
                assert!(manifest.as_ref().unwrap().mouse_beacon.is_some());
            }
            other => panic!("{other:?}"),
        }
        let stats = gw.stats();
        assert_eq!((stats.requests, stats.served), (1, 1));
        // A probe fetch resolves Ready: no origin involved.
        let Decision::Serve { manifest, .. } = d else {
            unreachable!()
        };
        let css = manifest.unwrap().css_probe.unwrap();
        match gw.handle_deferred(
            &req(70, &css.to_string(), "Mozilla/5.0"),
            SimTime::from_secs(2),
        ) {
            PendingServe::Ready(d) => assert!(d.is_serve()),
            PendingServe::AwaitingOrigin(_) => panic!("probe traffic never leases"),
        }
    }

    #[test]
    fn dropping_a_pending_origin_abandons_the_exchange_cleanly() {
        let gw = Gateway::builder().seed(52).build();
        let r = req(71, "http://site.example/index.html", "Mozilla/5.0");
        let key = SessionKey::of(&r);
        match gw.handle_deferred(&r, SimTime::ZERO) {
            PendingServe::AwaitingOrigin(pending) => drop(pending),
            PendingServe::Ready(d) => panic!("{d:?}"),
        }
        // The gate created the session, but the abandoned exchange was
        // never recorded and nothing parked anywhere.
        assert_eq!(
            gw.detector().tracker().get(&key).unwrap().request_count(),
            0
        );
        assert_eq!(gw.detector().tracker().census().carries, 0);
        assert_eq!(gw.stats().served, 0);
        // Sweep reclaims the empty session like any idle one.
        assert_eq!(gw.sweep(SimTime::from_hours(2)).len(), 1);
        assert_eq!(gw.stats().live_sessions, 0);
    }

    #[test]
    fn stats_count_the_tokens_and_challenge_a_session_holds() {
        let gw = challenging(53);
        // Three pages, one token entry each.
        for at in 0..3 {
            let d = page_decision(&gw, 80, ROBOT_UA, SimTime::from_secs(at));
            assert!(d.is_serve(), "{d:?}");
        }
        // The same crawler goes on until a throttle challenges it; a
        // challenge mints no token, nor does a page it never fetches.
        challenge_a_robot(&gw, 80, SimTime::from_secs(3));
        let stats = gw.stats();
        assert_eq!((stats.token_entries, stats.pending_challenges), (3, 1));
        // Both leave with the session.
        assert_eq!(gw.sweep(SimTime::from_hours(2)).len(), 1);
        let stats = gw.stats();
        assert_eq!((stats.token_entries, stats.pending_challenges), (0, 0));
    }

    #[test]
    fn blocked_sessions_stay_blocked_across_idle_rollover() {
        // A robot trips the behavioural thresholds and gets blocked, goes
        // quiet past the idle timeout, then returns: the successor
        // incarnation must still be blocked (the policy block flag
        // carries over at rollover; only a full flush with no live
        // successor clears it).
        let gw = Gateway::builder().seed(30).build();
        let mk = |i: u64| {
            req(
                12,
                &format!("http://site.example/cgi-bin/x{i}?q=1"),
                "wget/1.0",
            )
        };
        let key = SessionKey::of(&mk(0));
        let mut saw_block = false;
        for i in 0..40 {
            let d = gw.handle_with(&mk(i), SimTime::from_secs(i), |_| Origin::NotFound);
            if matches!(d, Decision::Block) {
                saw_block = true;
                break;
            }
        }
        assert!(saw_block, "CGI storm over 404s must trip a threshold");
        assert!(gw.is_blocked(&key));
        // Two hours later, the same key returns: still blocked.
        let later = SimTime::from_hours(3);
        let d = gw.handle_with(&mk(99), later, |_| Origin::NotFound);
        assert!(matches!(d, Decision::Block), "{d:?}");
        assert!(gw.is_blocked(&key));
        // A sweep flushes both incarnations; with no live successor the
        // key starts clean.
        gw.sweep(SimTime::from_hours(5));
        assert!(!gw.is_blocked(&key));
    }

    #[test]
    fn throttle_escape_hatch_serves_a_challenge_instead_of_429() {
        // A no-signal crawler at one request a second (under the
        // blocking rate threshold, over the robot bucket's refill) is
        // challenged where the rate limit bites, never answered 429.
        let gw = challenging(31);
        let (ch, r, at) = challenge_a_robot(&gw, 13, SimTime::ZERO);
        let stats = gw.stats();
        assert_eq!((stats.throttled, stats.challenged), (0, 1));
        assert_eq!(
            stats.requests,
            stats.served + stats.throttled + stats.blocked + stats.challenged,
            "every request lands in exactly one outcome column"
        );
        // Solving the challenge lifts the limit: ground-truth human.
        let key = SessionKey::of(&r);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, at + 1));
        assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
        for i in 0..20 {
            let r = req(13, &format!("http://site.example/{i}.html"), ROBOT_UA);
            let d = gw.handle_with(&r, at + 2, |_| Origin::Page(HTML.into()));
            assert!(d.is_serve(), "proven humans are never rate limited: {d:?}");
        }
        let stats = gw.stats();
        assert_eq!((stats.challenged, stats.captcha_passed), (1, 1));
    }

    #[test]
    fn throttled_robot_is_challenged_until_it_passes() {
        // Until the session solves one, every request past the limit is
        // answered with a fresh challenge, never with the page.
        let gw = challenging(5);
        let (_, r, at) = challenge_a_robot(&gw, 5, SimTime::ZERO);
        let mut last = None;
        for i in 1..=3u64 {
            let d = gw.handle_with(&r, at + i, |_| Origin::Page(HTML.into()));
            let Decision::Challenge(ch) = d else {
                panic!("an unsolved session is challenged again, not {d:?}");
            };
            last = Some(ch);
        }
        // Solve the latest: the session becomes ground-truth human and
        // is served.
        let ch = last.unwrap();
        let key = SessionKey::of(&r);
        let answer = ch.answer().to_string();
        assert!(gw.verify_captcha(&key, ch.id, &answer, at + 4));
        assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
        let d = gw.handle_with(&r, at + 5, |_| Origin::Page(HTML.into()));
        assert!(d.is_serve(), "{d:?}");
        let stats = gw.stats();
        assert_eq!((stats.challenged, stats.captcha_passed), (4, 1));
    }

    #[test]
    fn concurrent_handles_share_one_gateway() {
        use std::sync::Arc;
        let gw = Arc::new(Gateway::builder().seed(32).build());
        let handles: Vec<_> = (0..4u32)
            .map(|n| {
                let gw = Arc::clone(&gw);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let r = req(
                            40 + n,
                            &format!("http://site.example/{i}.html"),
                            "Mozilla/5.0",
                        );
                        gw.handle_with(&r, SimTime::from_secs(i), |_| Origin::Page(HTML.into()));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = gw.stats();
        assert_eq!(stats.requests, 200);
        assert_eq!(
            stats.requests,
            stats.served + stats.throttled + stats.blocked + stats.challenged
        );
        assert_eq!(stats.live_sessions, 4);
    }
}
