//! One front door for robot detection: the [`Gateway`] request-decision
//! API.
//!
//! The paper deploys its detector as a single in-line component that sees
//! every exchange and decides serve / throttle / block / challenge
//! "on-line at data request rates". This crate packages that composition
//! — instrumentation, sessionized detection, policy enforcement, and
//! CAPTCHA serving — behind one entry point so embedders never hand-wire
//! `RewriteEngine` → `Detector` → `PolicyEngine` → `CaptchaService`
//! themselves:
//!
//! * [`Gateway::handle`] / [`Gateway::handle_with`] take a request and
//!   return a typed [`Decision`]: `Serve` (with the rewritten HTML when
//!   the origin produced a page), `Throttle`, `Block`, or
//!   `Challenge`.
//! * [`Gateway::gate`] is the one gate path: it reads a
//!   [`botwall_http::RequestView`] (what a front door reads in place
//!   off its socket buffer, or what an owned request lends through
//!   [`botwall_http::Request::view`]) and answers it alone — a
//!   refusal, a challenge or a probe object ([`Answer`], written as
//!   fixed bytes) — or leases the session for the origin.
//!   [`Gateway::handle_deferred`] is it over an owned request, and
//!   `handle_with` is `handle_deferred`, its origin callback on the
//!   lease's request, then [`Gateway::complete`].
//! * [`Gateway::handle_deferred`] gates now and hands back a lease for
//!   an origin fetched elsewhere; [`Gateway::begin_page_stream`],
//!   [`PageStream`] and [`Gateway::commit_page_stream`] relay its
//!   response as it arrives and commit it, which is what the TCP front
//!   door does. That is the only commit there is:
//!   [`Gateway::finish_page_stream`] is it with the page's manifest
//!   derived on top, and `handle_with` and [`Gateway::complete`] reach
//!   it as a stream of one chunk.
//! * [`Gateway::sweep`] / [`Gateway::drain`] flush idle / all sessions,
//!   applying the batch set-algebra classification and returning
//!   [`CompletedSession`]s.
//! * [`Gateway::stats`] snapshots a [`GatewayStats`].
//!
//! Build one with [`Gateway::builder`]; the builder takes the
//! instrumentation, detector and CAPTCHA-serving configuration, and
//! whether the policy engine enforces.
//! The gateway decides online with the browser test and the CAPTCHA, as
//! the paper's deployment did. The §4.1 machine-learning stage runs
//! offline, over the [`CompletedSession`]s a sweep or drain returns
//! (`botwall_ml::staged`).
//!
//! # Examples
//!
//! ```
//! use botwall_gateway::{Decision, Gateway, Origin};
//! use botwall_http::request::ClientIp;
//! use botwall_http::{Method, Request};
//! use botwall_sessions::SimTime;
//!
//! let gw = Gateway::builder().seed(7).build();
//! let req = Request::builder(Method::Get, "http://site.example/index.html")
//!     .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
//!     .client(ClientIp::new(1))
//!     .build()
//!     .unwrap();
//! let html = "<html><head></head><body></body></html>";
//! let decision = gw.handle_with(&req, SimTime::ZERO, |_| Origin::Page(html.into()));
//! match decision {
//!     Decision::Serve { response, manifest, .. } => {
//!         let body = String::from_utf8_lossy(response.body());
//!         assert!(body.contains("onmousemove"));
//!         assert!(manifest.unwrap().css_probe.is_some());
//!     }
//!     other => panic!("expected Serve, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decision;
pub mod gateway;

pub use botwall_core::{CompletedSession, EvidenceKind};
/// What [`PageStream::write`] writes to; re-exported for callers that
/// implement their own.
pub use botwall_instrument::StreamSink;
pub use config::{GatewayBuilder, GatewayConfig};
pub use decision::{Answer, Decision, Origin};
pub use gateway::{
    Gate, Gateway, GatewayStats, PageStream, PendingOrigin, PendingServe, StreamedServe,
    PAGE_HEAD_LINES,
};
