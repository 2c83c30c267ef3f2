//! Open-proxy network simulation for `botwall` — the CoDeeN stand-in.
//!
//! The paper's evaluation substrate is CoDeeN, an open-proxy CDN on 400+
//! PlanetLab nodes handling 20M+ requests/day. This crate reproduces the
//! pieces of it that the experiments depend on:
//!
//! * [`node`] — what a proxy node deploys ([`Deployment`]) and the
//!   gateway that is the node: the full request path of instrumentation
//!   (page rewriting + probe serving), detection, and §3.2 policy
//!   enforcement, in front of the `botwall-webgraph` substrate; each
//!   session on a node is a `botwall_agents::world::Client` of its
//!   gateway.
//! * [`network`] — many nodes, client/session scheduling, merged
//!   accounting; [`network::Network::run`] executes a whole experiment.
//! * [`abuse`] — the delivered-abuse → complaint model.
//! * [`timeline`] — the 2005 deployment-schedule replay behind Figure 3.
//! * [`metrics`] — bandwidth/overhead ledgers (the 0.3% claim).
//!
//! # Examples
//!
//! ```
//! use botwall_agents::Population;
//! use botwall_codeen::network::{Network, NetworkConfig};
//! use botwall_webgraph::WebConfig;
//!
//! let config = NetworkConfig {
//!     nodes: 2,
//!     sessions: 10,
//!     web: WebConfig::small(),
//!     ..NetworkConfig::default()
//! };
//! let report = Network::run(&config, &Population::demo(), 42);
//! assert_eq!(report.summaries.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abuse;
pub mod metrics;
pub mod network;
pub mod node;
pub mod timeline;

pub use abuse::{complaints_for, ComplaintConfig, ComplaintTally};
pub use metrics::{BandwidthLedger, NodeStats};
pub use network::{Network, NetworkConfig, RunReport, SessionSummary};
pub use node::Deployment;
pub use timeline::{replay, MonthRow, TimelineConfig};
