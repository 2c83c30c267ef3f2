//! Page instrumentation for `botwall`: the mechanics of §2.1 and §2.2 of
//! Park et al., *Securing Web Service by Automatic Robot Detection*
//! (USENIX 2006).
//!
//! The instrumenter rewrites HTML pages on their way to the client,
//! planting four kinds of evidence sources:
//!
//! * a **mouse-event beacon**: injected JavaScript whose event handler
//!   fetches a fake image URL carrying a per-client 128-bit key, recorded
//!   in per-session [`token::TokenState`] (or the paper's literal per-IP
//!   [`token::TokenTable`]); `m` decoy functions catch robots that
//!   blindly fetch script-referenced URLs with probability `m/(m+1)`;
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
//! per-session [`TokenState`] (outstanding beacon keys + their scripts,
//! a 16-byte seed each until first fetched), which callers colocate
//! with their other per-session state.
//! [`Instrumenter`] composes both into a self-contained single-owner
//! endpoint; `botwall-core` builds the detector on top of the
//! [`Classified`] stream either produces.
//!
//! # Examples
//!
//! ```
//! use botwall_http::request::ClientIp;
//! use botwall_http::Uri;
//! use botwall_instrument::{InstrumentConfig, Instrumenter};
//! use botwall_sessions::SimTime;
//!
//! let mut ins = Instrumenter::new(InstrumentConfig::default(), 42);
//! let page: Uri = "http://www.example.com/foo.html".parse().unwrap();
//! let (html, manifest) = ins.instrument_page(
//!     "<html><head></head><body></body></html>",
//!     &page,
//!     ClientIp::new(1),
//!     SimTime::ZERO,
//! );
//! assert!(html.contains("<script"));
//! assert_eq!(manifest.decoy_beacons.len(), ins.config().decoys);
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

pub use engine::{BuiltPage, IssuedPageToken, RewriteEngine, Sighting};
pub use jsgen::Obfuscation;
pub use probe::{AutomationReport, ProbeHit, ProbeKind};
pub use rewrite::{Classified, InstrumentConfig, Instrumenter, InstrumenterStats, ProbeManifest};
pub use stream::{AssetProxyConfig, FinishedStream, StreamingRewrite, MAX_HELD_BYTES};
pub use token::{BeaconKey, KeyOutcome, ScriptSeed, TokenState, TokenTable, TokenTableConfig};
