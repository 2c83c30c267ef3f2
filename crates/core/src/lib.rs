//! The `botwall` detector: the primary contribution of Park, Pai, Lee &
//! Calo, *Securing Web Service by Automatic Robot Detection* (USENIX
//! 2006), as a reusable library.
//!
//! The paper frames robot detection as a practical Turing test over HTTP
//! request streams and contributes two real-time algorithms:
//!
//! 1. **Human activity detection** (§2.1): injected JavaScript fetches a
//!    keyed beacon on mouse/keyboard events; a valid key proves a human.
//! 2. **Standard browser testing** (§2.2): probes (an empty CSS file, the
//!    script file, hidden links) separate clients that behave like stock
//!    browsers from goal-oriented robots.
//!
//! Sessions are then classified with the set-algebra rule
//! `S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)` and robot sessions are rate
//! limited and blocked on behavioural thresholds (§3.2). A staged
//! pipeline (§4.1) escalates boundary cases to a machine-learning
//! classifier (`botwall-ml`).
//!
//! # Architecture
//!
//! * [`evidence`] — per-session evidence sets with first-detection indices
//! * [`classifier`] — the set-algebra rule, online and final forms
//! * [`detector`] — the streaming engine over `<IP, User-Agent>` sessions
//! * [`policy`] — rate limiting and behavioural blocking
//! * [`staged`] — fast-path/boundary-case escalation
//! * [`report`] — Table-1 and Figure-2 aggregation
//!
//! # Examples
//!
//! ```
//! use botwall_core::{Detector, DetectorConfig, GateRespond, Gated, PolicyConfig, PolicyEngine};
//! use botwall_core::classifier::{Reason, Verdict};
//! use botwall_http::request::ClientIp;
//! use botwall_http::{Method, Request, Response, StatusCode};
//! use botwall_instrument::{InstrumentConfig, RewriteEngine};
//! use botwall_sessions::SimTime;
//!
//! let engine = RewriteEngine::new(InstrumentConfig::default(), 7);
//! let det = Detector::new(DetectorConfig::default());
//! let policy = PolicyEngine::new(PolicyConfig::default());
//! let ok = Response::empty(StatusCode::OK).summary();
//! let get = |uri: &str| {
//!     Request::builder(Method::Get, uri)
//!         .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
//!         .client(ClientIp::new(1))
//!         .build()
//!         .unwrap()
//! };
//!
//! // Server side: client 1 asks for a page. The gate leases its session
//! // for the origin fetch, the page's instrumentation is minted into the
//! // session's own beacon tokens, the body streams through with no lock
//! // held, and the exchange commits.
//! let page = get("http://site.example/index.html");
//! let now = SimTime::ZERO;
//! let sighting = engine.classify_view(&page.view(), now);
//! let gated = det.gate(&page.view(), &sighting, now, true, &policy, |_, _, _, _| {
//!     GateRespond::<()>::NeedsOrigin
//! });
//! let Gated::NeedsOrigin(lease) = gated else { unreachable!("a page needs the origin") };
//! let mut stream = det
//!     .with_lease_state(&lease, |_, state| {
//!         // 1: the session's RNG stream.
//!         engine.begin_session_page(&page, &mut state.tokens, || 1, now)
//!     })
//!     .expect("the lease is live");
//! let mut html = Vec::new();
//! stream.write(b"<html><head></head><body></body></html>", &mut html);
//! let manifest = stream.finish(&mut html).manifest(page.uri(), page.authority().as_deref());
//! det.commit_exchange(lease, &page.view(), ok, now);
//!
//! // Client side: a human moves the mouse, firing the beacon. The gate
//! // redeems its key against the session's tokens and answers it itself.
//! let beacon = get(&manifest.mouse_beacon.unwrap().to_string());
//! let now = SimTime::from_secs(3);
//! let sighting = engine.classify_view(&beacon.view(), now);
//! let gated = det.gate(&beacon.view(), &sighting, now, true, &policy, |_, _, _, _| {
//!     GateRespond::Respond(ok, ())
//! });
//! let Gated::Done { outcome, .. } = gated else { unreachable!("a beacon is answered in the gate") };
//! assert_eq!(outcome.verdict, Verdict::Human(Reason::MouseActivity));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classifier;
pub mod detector;
pub mod evidence;
pub mod policy;
pub mod report;
pub mod staged;

pub use classifier::{Label, Reason, Verdict};
pub use detector::{
    ChallengeState, CompletedSession, Detector, DetectorConfig, GateRespond, Gated, KeyCarry,
    KeyState, ObserveOutcome, OriginLease, PendingCaptchaPass,
};
pub use evidence::{EvidenceKind, EvidenceSet};
pub use policy::{Action, PolicyConfig, PolicyEngine, PolicyState};
pub use report::{Figure2Report, RequestCdf, Table1Report};
pub use staged::{BoundaryClassifier, Stage, StagedDecision, StagedPipeline};
