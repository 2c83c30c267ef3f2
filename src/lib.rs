//! `botwall` — automatic Web robot detection.
//!
//! A production-quality Rust reproduction of Park, Pai, Lee & Calo,
//! *Securing Web Service by Automatic Robot Detection* (USENIX Annual
//! Technical Conference, 2006): real-time discrimination of human from
//! robot HTTP traffic via human-activity detection (keyed mouse-event
//! beacons) and standard-browser testing (CSS probes, hidden links),
//! with an AdaBoost study over the paper's 12 behavioural features.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`http`] | `botwall-http` | HTTP substrate |
//! | [`webgraph`] | `botwall-webgraph` | synthetic web content |
//! | [`sessions`] | `botwall-sessions` | sharded `<IP, User-Agent>` sessionization |
//! | [`instrument`] | `botwall-instrument` | page rewriting + probes |
//! | [`detect`] | `botwall-core` | **the detector** (the paper's contribution) |
//! | [`gateway`] | `botwall-gateway` | **the front door**: one request-decision API |
//! | [`ml`] | `botwall-ml` | Table-2 features, AdaBoost, baselines |
//! | [`captcha`] | `botwall-captcha` | CAPTCHA oracle |
//! | [`agents`] | `botwall-agents` | human/robot workload models |
//! | [`codeen`] | `botwall-codeen` | open-proxy network simulation |
//!
//! # Examples
//!
//! Embedders drive everything through one [`gateway::Gateway`]: hand it
//! each request, supply origin HTML when asked, and act on the typed
//! [`gateway::Decision`].
//!
//! ```
//! use botwall::gateway::{Decision, Gateway, Origin};
//! use botwall::http::request::ClientIp;
//! use botwall::http::{Method, Request};
//! use botwall::sessions::SimTime;
//!
//! let mut gw = Gateway::builder().seed(2006).build();
//!
//! // A client fetches a page; the gateway instruments it in flight.
//! let req = Request::builder(Method::Get, "http://www.example.com/index.html")
//!     .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
//!     .client(ClientIp::new(1))
//!     .build()
//!     .unwrap();
//! let html = "<html><head></head><body><p>hello</p></body></html>";
//! let decision = gw.handle_with(&req, SimTime::ZERO, |_| Origin::Page(html.into()));
//!
//! let Decision::Serve { response, manifest, .. } = decision else {
//!     panic!("fresh sessions are served");
//! };
//! let body = String::from_utf8_lossy(response.body());
//! assert!(body.contains("onmousemove")); // mouse-beacon handler
//! let manifest = manifest.unwrap();
//! assert!(manifest.css_probe.is_some()); // §2.2 standard-browser probe
//!
//! // The human moves the mouse: the keyed beacon fires, and the session
//! // verdict goes Human.
//! let beacon = manifest.mouse_beacon.unwrap();
//! let req = Request::builder(Method::Get, beacon.to_string())
//!     .header("User-Agent", "Mozilla/5.0 Firefox/1.5")
//!     .client(ClientIp::new(1))
//!     .build()
//!     .unwrap();
//! let decision = gw.handle(&req, SimTime::from_secs(2));
//! assert!(matches!(
//!     decision.verdict(),
//!     Some(botwall::detect::Verdict::Human(_))
//! ));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench/src/bin/` for
//! the per-table/figure experiment harnesses.

#![forbid(unsafe_code)]

pub use botwall_agents as agents;
pub use botwall_captcha as captcha;
pub use botwall_codeen as codeen;
pub use botwall_core as detect;
pub use botwall_gateway as gateway;
pub use botwall_http as http;
pub use botwall_instrument as instrument;
pub use botwall_ml as ml;
pub use botwall_sessions as sessions;
pub use botwall_webgraph as webgraph;
