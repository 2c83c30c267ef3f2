//! Page instrumentation for `botwall`: the mechanics of §2.1 and §2.2 of
//! Park et al., *Securing Web Service by Automatic Robot Detection*
//! (USENIX 2006).
//!
//! The instrumentation rewrites HTML pages on their way to the client,
//! planting four kinds of evidence sources:
//!
//! * a **mouse-event beacon**: injected JavaScript whose event handler
//!   fetches a fake image URL carrying a per-client 128-bit key, recorded
//!   in per-session [`token::TokenState`]; `m` decoy functions catch
//!   robots that blindly fetch script-referenced URLs with probability
//!   `m/(m+1)`;
//! * an **agent-string beacon** proving JavaScript execution and reporting
//!   `navigator.userAgent` for mismatch checks;
//! * an **empty CSS probe** that standard browsers fetch and goal-oriented
//!   robots skip;
//! * a **hidden link** behind a transparent 1×1 image that humans cannot
//!   see but blind crawlers follow.
//!
//! Two top-level types split the work along the mutability boundary:
//! the immutable, freely shareable [`RewriteEngine`] (rewriting,
//! stateless MAC-nonce probe classification, script generation) and the
//! per-session [`TokenState`] (outstanding beacon keys + the 16-byte
//! seeds their scripts are written from on every fetch), which callers
//! colocate with their other per-session state. The engine's stateless
//! [`Sighting`] of a request resolves against that state into the
//! [`Classified`] stream `botwall-core` builds the detector on.
//!
//! # Examples
//!
//! ```
//! use botwall_http::{Method, Request};
//! use botwall_instrument::{Classified, InstrumentConfig, KeyOutcome, RewriteEngine, TokenState};
//! use botwall_sessions::SimTime;
//!
//! let engine = RewriteEngine::new(InstrumentConfig::default(), 42);
//! let mut tokens = TokenState::default(); // one session's
//! let page = Request::builder(Method::Get, "http://www.example.com/foo.html")
//!     .build()
//!     .unwrap();
//! // 7: the session's RNG stream, each page picking it up where the
//! // last left it. The page goes through as the origin sends it, here
//! // in one chunk.
//! let mut stream = engine.begin_session_page(&page, &mut tokens, || 7, SimTime::ZERO);
//! let mut html = Vec::new();
//! stream.write(b"<html><head></head><body></body></html>", &mut html);
//! let finished = stream.finish(&mut html);
//! assert!(String::from_utf8(html).unwrap().contains("<script"));
//! let manifest = finished.manifest(page.uri(), page.authority().as_deref());
//! assert_eq!(manifest.decoy_beacons.len(), botwall_instrument::token::DECOYS);
//!
//! // The mouse moves: the beacon fetch redeems the page's key, once.
//! let beacon = Request::builder(Method::Get, manifest.mouse_beacon.unwrap().to_string())
//!     .build()
//!     .unwrap();
//! let now = SimTime::from_secs(3);
//! let classified = engine.classify(&beacon, now).resolve(&mut tokens, now);
//! assert!(matches!(
//!     classified,
//!     Classified::MouseBeacon { outcome: KeyOutcome::Valid, .. }
//! ));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beacon;
pub mod engine;
pub mod jsgen;
pub mod probe;
pub mod rewrite;
mod scan;
pub mod stream;
pub mod token;

pub use engine::{IssuedPageToken, RewriteEngine, Sighting};
pub use jsgen::Obfuscation;
pub use probe::{AutomationReport, ProbeHit, ProbeKind, ProbeObject};
pub use rewrite::{Classified, InstrumentConfig, ProbeManifest};
pub use stream::{FinishedStream, StreamSink, StreamingRewrite, MAX_HELD_BYTES};
pub use token::{
    BeaconKey, KeyOutcome, ScriptRecipe, ScriptSeed, TokenState, MAX_TOKENS_PER_SESSION,
};
