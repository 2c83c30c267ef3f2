//! A single proxy node: the [`Gateway`] in the request path, fronting
//! the [`Web`] origin substrate.
//!
//! CoDeeN nodes sit between clients and origin servers; our node does
//! the same. A session on a node is a [`Client`] of the node's gateway
//! ([`ProxyNode::client`]): each fetch is one `Gateway::handle_with`
//! call, which classifies probe traffic, gates through policy, rewrites
//! origin HTML and feeds the detector, in front of the webgraph origin
//! (`botwall_agents::origin`) of the site the request's host names. That
//! origin runs **between** the gateway's two critical sections with no
//! lock held — a slow upstream stalls only its own request, never the
//! other sessions on its shard. The node's own job is the deployment
//! (which probes, enforcement, CAPTCHAs) and its books.

use crate::metrics::{BandwidthLedger, NodeStats};
use botwall_agents::world::Client;
use botwall_captcha::ServingPolicy;
use botwall_core::CompletedSession;
use botwall_gateway::Gateway;
use botwall_http::request::ClientIp;
use botwall_http::Uri;
use botwall_instrument::InstrumentConfig;
use botwall_sessions::SimTime;
use botwall_webgraph::Web;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which detection features a node has deployed (drives the Figure-3
/// timeline: browser test arrived late August 2005, mouse detection
/// January 2006).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deployment {
    /// CSS probe + hidden link + JS-file tracking (standard browser test).
    pub browser_test: bool,
    /// Mouse-event beacons (human activity detection).
    pub mouse_detection: bool,
    /// Rate limiting + behavioural blocking of robot sessions.
    pub enforcement: bool,
    /// Optional CAPTCHA offers.
    pub captcha: bool,
}

impl Deployment {
    /// Nothing deployed (the pre-August-2005 state).
    pub fn none() -> Deployment {
        Deployment {
            browser_test: false,
            mouse_detection: false,
            enforcement: false,
            captcha: false,
        }
    }

    /// Browser test + enforcement (the late-August-2005 state).
    pub fn browser_test_only() -> Deployment {
        Deployment {
            browser_test: true,
            mouse_detection: false,
            enforcement: true,
            captcha: false,
        }
    }

    /// Everything (the January-2006 state, as measured in Table 1).
    pub fn full() -> Deployment {
        Deployment {
            browser_test: true,
            mouse_detection: true,
            enforcement: true,
            captcha: true,
        }
    }
}

/// One proxy node.
///
/// `Send + Sync` like the gateway it wraps: the whole serve path is
/// `&self`, so one node can take traffic from many threads.
#[derive(Debug)]
pub struct ProxyNode {
    id: u32,
    web: Arc<Web>,
    gateway: Arc<Gateway>,
    sessions: AtomicU64,
}

impl ProxyNode {
    /// Creates a node over the shared web substrate.
    pub fn new(id: u32, web: Arc<Web>, deployment: Deployment, seed: u64) -> ProxyNode {
        let instrument = InstrumentConfig {
            css_probe: deployment.browser_test,
            hidden_link: deployment.browser_test,
            mouse_beacon: deployment.mouse_detection,
            ..InstrumentConfig::default()
        };
        let gateway = Gateway::builder()
            .instrument(instrument)
            .captcha(if deployment.captcha {
                ServingPolicy::OptionalWithIncentive
            } else {
                ServingPolicy::Disabled
            })
            .enforcement(deployment.enforcement)
            .seed(seed)
            .build();
        ProxyNode {
            id,
            web,
            gateway: Arc::new(gateway),
            sessions: AtomicU64::new(0),
        }
    }

    /// The node id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Node statistics, derived from the gateway's counters.
    pub fn stats(&self) -> NodeStats {
        let g = self.gateway.stats();
        NodeStats {
            allowed: g.served,
            throttled: g.throttled,
            blocked: g.blocked,
            sessions: self.sessions.load(Ordering::Relaxed),
        }
    }

    /// Bandwidth ledger, derived from the gateway's byte counters.
    pub fn bandwidth(&self) -> BandwidthLedger {
        let g = self.gateway.stats();
        BandwidthLedger {
            total_bytes: g.total_bytes,
            instrumentation_bytes: g.instrumentation_bytes,
        }
    }

    /// Finalizes everything at the end of an experiment.
    pub fn drain(&self) -> Vec<CompletedSession> {
        self.gateway.drain()
    }

    /// A session on this node: the client `(ip, user_agent)` of its
    /// gateway, in front of its web, entering at `entry` at `start`.
    pub fn client(&self, visitor: (ClientIp, String), entry: Uri, start: SimTime) -> Client {
        let (gateway, web) = (Arc::clone(&self.gateway), Arc::clone(&self.web));
        Client::new(gateway, web, visitor, entry, start)
    }

    /// Notes that a session finished (stats bookkeeping).
    pub fn finish_session(&self) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_agents::world::{ClientWorld, FetchSpec};
    use botwall_http::StatusCode;
    use botwall_webgraph::WebConfig;

    fn node(deployment: Deployment) -> ProxyNode {
        let web = Arc::new(Web::generate(&WebConfig::small(), 5));
        ProxyNode::new(0, web, deployment, 42)
    }

    fn entry(node: &ProxyNode) -> Uri {
        let host = node.web.sites().next().unwrap().host().to_string();
        Uri::absolute(&host, "/index.html")
    }

    #[test]
    fn serves_instrumented_pages_under_full_deployment() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(1), "ua".into()), e.clone(), SimTime::ZERO);
        let out = s.fetch(FetchSpec::get(e));
        assert_eq!(out.status, StatusCode::OK);
        let view = out.page.expect("page");
        let m = view.manifest.expect("manifest");
        assert!(m.css_probe.is_some());
        assert!(m.mouse_beacon.is_some());
    }

    #[test]
    fn browser_test_only_has_no_mouse_beacon() {
        let n = node(Deployment::browser_test_only());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(1), "ua".into()), e.clone(), SimTime::ZERO);
        let view = s.fetch(FetchSpec::get(e)).page.expect("page");
        let m = view.manifest.expect("manifest");
        assert!(m.css_probe.is_some());
        assert!(m.mouse_beacon.is_none(), "mouse detection not deployed");
    }

    #[test]
    fn no_deployment_serves_untouched_pages() {
        let n = node(Deployment::none());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(1), "ua".into()), e.clone(), SimTime::ZERO);
        let view = s.fetch(FetchSpec::get(e)).page.expect("page");
        let m = view.manifest.expect("manifest always present");
        assert!(m.css_probe.is_none());
        assert!(m.mouse_beacon.is_none());
        assert!(m.hidden_link.is_none());
    }

    #[test]
    fn unknown_host_is_bad_gateway() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(1), "ua".into()), e, SimTime::ZERO);
        let uri: Uri = "http://unknown.example/".parse().unwrap();
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn vuln_paths_404_and_eventually_block() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let host = e.host().unwrap().to_string();
        let mut s = n.client((ClientIp::new(9), "scanner".into()), e, SimTime::ZERO);
        let mut saw_block = false;
        for i in 0..60 {
            let uri = Uri::absolute(&host, format!("/exploit_{i}.php"));
            let out = s.fetch(FetchSpec::get(uri));
            s.sleep(20);
            if out.status == StatusCode::FORBIDDEN {
                saw_block = true;
                break;
            }
        }
        assert!(saw_block, "an error storm must trip the blocking threshold");
    }

    #[test]
    fn redirect_pages_answer_302() {
        let n = node(Deployment::full());
        let web = n.web.clone();
        let site = web.sites().next().unwrap();
        let Some(stub) = site.pages().find(|p| p.redirect_to.is_some()) else {
            return; // This seed generated no redirect stubs; fine.
        };
        let uri = Uri::absolute(site.host(), stub.path.clone());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(2), "ua".into()), e, SimTime::ZERO);
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::FOUND);
    }

    #[test]
    fn bandwidth_ledger_tracks_overhead() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let mut s = n.client((ClientIp::new(1), "ua".into()), e.clone(), SimTime::ZERO);
        let view = s.fetch(FetchSpec::get(e)).page.unwrap();
        let css = view.manifest.unwrap().css_probe.unwrap();
        s.fetch(FetchSpec::get(css));
        let bw = n.bandwidth();
        assert!(bw.total_bytes > 0);
        assert!(bw.instrumentation_bytes > 0);
        assert!(bw.instrumentation_bytes < bw.total_bytes);
    }
}
