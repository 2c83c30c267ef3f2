//! A single proxy node: the [`Gateway`] in the request path, fronting
//! the [`Web`] origin substrate.
//!
//! CoDeeN nodes sit between clients and origin servers; our node does
//! the same. A [`NodeSession`] fetches the way every in-process world
//! does ([`fetch_through`]): one `Gateway::handle_with` call, which
//! classifies probe traffic, gates through policy, rewrites origin HTML
//! and feeds the detector, in front of the webgraph origin
//! (`botwall_agents::origin`) of the site the request's host names. That
//! origin runs **between** the gateway's two critical sections with no
//! lock held — a slow upstream stalls only its own request, never the
//! other sessions on its shard. The node's own job is the deployment
//! (which probes, enforcement, CAPTCHAs) and the per-session tallies.

use crate::metrics::{BandwidthLedger, NodeStats};
use botwall_agents::world::{fetch_through, ClientWorld, FetchOutcome, FetchSpec};
use botwall_captcha::{Challenge, ServingPolicy};
use botwall_core::{CompletedSession, Detector};
use botwall_gateway::Gateway;
use botwall_http::request::ClientIp;
use botwall_http::{StatusCode, Uri};
use botwall_instrument::InstrumentConfig;
use botwall_sessions::{SessionKey, SimTime};
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
    gateway: Gateway,
    deployment: Deployment,
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
            gateway,
            deployment,
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

    /// The deployment state.
    pub fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// The gateway fronting this node.
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// Immutable access to the detector (verdicts, evidence).
    pub fn detector(&self) -> &Detector {
        self.gateway.detector()
    }

    /// Marks a CAPTCHA pass for a session.
    pub fn record_captcha_pass(&self, key: &SessionKey, now: SimTime) {
        self.gateway.record_captcha_pass(key, now);
    }

    /// Expires idle sessions.
    pub fn sweep(&self, now: SimTime) -> Vec<CompletedSession> {
        self.gateway.sweep(now)
    }

    /// Finalizes everything at the end of an experiment.
    pub fn drain(&self) -> Vec<CompletedSession> {
        self.gateway.drain()
    }

    /// Offers a CAPTCHA if the deployment serves them.
    pub fn offer_captcha(&self) -> Option<Challenge> {
        self.gateway.offer_captcha()
    }

    /// Verifies a CAPTCHA answer; on success the session is marked
    /// ground-truth human.
    pub fn answer_captcha(&self, key: &SessionKey, id: u64, answer: &str, now: SimTime) -> bool {
        self.gateway.verify_captcha(key, id, answer, now)
    }

    /// Notes that a session finished (stats bookkeeping).
    pub fn finish_session(&self) {
        self.sessions.fetch_add(1, Ordering::Relaxed);
    }
}

/// A per-session [`ClientWorld`] binding an agent to a node.
///
/// Borrows the node immutably: many sessions can drive one node
/// concurrently, each keeping its own per-session tallies.
#[derive(Debug)]
pub struct NodeSession<'a> {
    node: &'a ProxyNode,
    ip: ClientIp,
    user_agent: String,
    entry: Uri,
    now: SimTime,
    captcha_offered: bool,
    /// Requests the policy allowed.
    pub allowed: u64,
    /// Requests throttled.
    pub throttled: u64,
    /// Requests blocked.
    pub blocked: u64,
    /// Total requests issued.
    pub requests: u64,
    /// Whether a CAPTCHA was passed.
    pub captcha_passed: bool,
}

impl<'a> NodeSession<'a> {
    /// Binds a session for `ip`/`user_agent` starting at `start`.
    pub fn new(
        node: &'a ProxyNode,
        ip: ClientIp,
        user_agent: String,
        entry: Uri,
        start: SimTime,
    ) -> NodeSession<'a> {
        NodeSession {
            node,
            ip,
            user_agent,
            entry,
            now: start,
            captcha_offered: false,
            allowed: 0,
            throttled: 0,
            blocked: 0,
            requests: 0,
            captcha_passed: false,
        }
    }

    /// The session key this world produces.
    pub fn key(&self) -> SessionKey {
        SessionKey::new(self.ip, self.user_agent.clone())
    }

    /// The session's current clock.
    pub fn clock(&self) -> SimTime {
        self.now
    }
}

impl ClientWorld for NodeSession<'_> {
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
        self.now += 40; // Network round trip.
        self.requests += 1;
        let site = self.node.web.site_for(&spec.uri);
        let client = (self.ip, self.user_agent.as_str());
        let out = fetch_through(&self.node.gateway, site, client, &spec, self.now);
        match out.status {
            StatusCode::TOO_MANY_REQUESTS => self.throttled += 1,
            StatusCode::FORBIDDEN => self.blocked += 1,
            _ => self.allowed += 1,
        }
        out
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sleep(&mut self, ms: u64) {
        self.now += ms;
    }

    fn client_ip(&self) -> ClientIp {
        self.ip
    }

    fn entry_point(&self) -> Uri {
        self.entry.clone()
    }

    fn offer_captcha(&mut self) -> Option<Challenge> {
        if self.captcha_offered {
            return None;
        }
        self.captcha_offered = true;
        self.node.offer_captcha()
    }

    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
        let key = self.key();
        let ok = self.node.answer_captcha(&key, id, answer, self.now);
        if ok {
            self.captcha_passed = true;
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let mut s = NodeSession::new(&n, ClientIp::new(1), "ua".into(), e.clone(), SimTime::ZERO);
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
        let mut s = NodeSession::new(&n, ClientIp::new(1), "ua".into(), e.clone(), SimTime::ZERO);
        let view = s.fetch(FetchSpec::get(e)).page.expect("page");
        let m = view.manifest.expect("manifest");
        assert!(m.css_probe.is_some());
        assert!(m.mouse_beacon.is_none(), "mouse detection not deployed");
    }

    #[test]
    fn no_deployment_serves_untouched_pages() {
        let n = node(Deployment::none());
        let e = entry(&n);
        let mut s = NodeSession::new(&n, ClientIp::new(1), "ua".into(), e.clone(), SimTime::ZERO);
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
        let mut s = NodeSession::new(&n, ClientIp::new(1), "ua".into(), e, SimTime::ZERO);
        let uri: Uri = "http://unknown.example/".parse().unwrap();
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn vuln_paths_404_and_eventually_block() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let host = e.host().unwrap().to_string();
        let mut s = NodeSession::new(&n, ClientIp::new(9), "scanner".into(), e, SimTime::ZERO);
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
        let mut s = NodeSession::new(&n, ClientIp::new(2), "ua".into(), e, SimTime::ZERO);
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::FOUND);
    }

    #[test]
    fn bandwidth_ledger_tracks_overhead() {
        let n = node(Deployment::full());
        let e = entry(&n);
        let mut s = NodeSession::new(&n, ClientIp::new(1), "ua".into(), e.clone(), SimTime::ZERO);
        let view = s.fetch(FetchSpec::get(e)).page.unwrap();
        let css = view.manifest.unwrap().css_probe.unwrap();
        s.fetch(FetchSpec::get(css));
        let bw = n.bandwidth();
        assert!(bw.total_bytes > 0);
        assert!(bw.instrumentation_bytes > 0);
        assert!(bw.instrumentation_bytes < bw.total_bytes);
    }
}
