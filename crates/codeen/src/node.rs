//! A single proxy node: the [`Gateway`] in the request path, fronting
//! the `Web` origin substrate.
//!
//! CoDeeN nodes sit between clients and origin servers; our node does
//! the same. A node is its gateway, built by [`Deployment::gateway`]
//! from which probes, enforcement and CAPTCHAs it deploys. A session on
//! a node is a `botwall_agents::world::Client` of that gateway: each
//! fetch is one `Gateway::handle_with` call, which classifies probe
//! traffic, gates through policy, rewrites origin HTML and feeds the
//! detector, in front of the webgraph origin (`botwall_agents::origin`)
//! of the site the request's host names. That origin runs **between**
//! the gateway's two critical sections with no lock held — a slow
//! upstream stalls only its own request, never the other sessions on
//! its shard. The node's books are the gateway's `GatewayStats`.

use botwall_captcha::ServingPolicy;
use botwall_gateway::Gateway;
use botwall_instrument::InstrumentConfig;

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

    /// The gateway of a node with this deployment, seeded with `seed`.
    pub fn gateway(self, seed: u64) -> Gateway {
        let instrument = InstrumentConfig {
            css_probe: self.browser_test,
            hidden_link: self.browser_test,
            mouse_beacon: self.mouse_detection,
            ..InstrumentConfig::default()
        };
        Gateway::builder()
            .instrument(instrument)
            .captcha(if self.captcha {
                ServingPolicy::OptionalWithIncentive
            } else {
                ServingPolicy::Disabled
            })
            .enforcement(self.enforcement)
            .seed(seed)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_agents::world::{Client, ClientWorld, FetchSpec};
    use botwall_http::request::ClientIp;
    use botwall_http::{StatusCode, Uri};
    use botwall_sessions::SimTime;
    use botwall_webgraph::{Web, WebConfig};
    use std::sync::Arc;

    /// A session of `(ip, ua)` on a node with `deployment`, entering at
    /// the first site's index page.
    fn session(deployment: Deployment, ip: u32, ua: &str) -> Client {
        let web = Arc::new(Web::generate(&WebConfig::small(), 5));
        let host = web.sites().next().unwrap().host().to_string();
        let gateway = Arc::new(deployment.gateway(42));
        let visitor = (ClientIp::new(ip), ua.to_string());
        let entry = Uri::absolute(&host, "/index.html");
        Client::new(gateway, web, visitor, entry, SimTime::ZERO)
    }

    #[test]
    fn serves_instrumented_pages_under_full_deployment() {
        let mut s = session(Deployment::full(), 1, "ua");
        let out = s.fetch(FetchSpec::get(s.entry_point()));
        assert_eq!(out.status, StatusCode::OK);
        let view = out.page.expect("page");
        let m = view.manifest.expect("manifest");
        assert!(m.css_probe.is_some());
        assert!(m.mouse_beacon.is_some());
    }

    #[test]
    fn browser_test_only_has_no_mouse_beacon() {
        let mut s = session(Deployment::browser_test_only(), 1, "ua");
        let view = s.fetch(FetchSpec::get(s.entry_point())).page.expect("page");
        let m = view.manifest.expect("manifest");
        assert!(m.css_probe.is_some());
        assert!(m.mouse_beacon.is_none(), "mouse detection not deployed");
    }

    #[test]
    fn no_deployment_serves_untouched_pages() {
        let mut s = session(Deployment::none(), 1, "ua");
        let view = s.fetch(FetchSpec::get(s.entry_point())).page.expect("page");
        let m = view.manifest.expect("manifest always present");
        assert!(m.css_probe.is_none());
        assert!(m.mouse_beacon.is_none());
        assert!(m.hidden_link.is_none());
    }

    #[test]
    fn unknown_host_is_bad_gateway() {
        let mut s = session(Deployment::full(), 1, "ua");
        let uri: Uri = "http://unknown.example/".parse().unwrap();
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::BAD_GATEWAY);
    }

    #[test]
    fn vuln_paths_404_and_eventually_block() {
        let mut s = session(Deployment::full(), 9, "scanner");
        let host = s.entry_point().host().unwrap().to_string();
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
        let mut s = session(Deployment::full(), 2, "ua");
        let site = s.web().sites().next().unwrap();
        let Some(stub) = site.pages().find(|p| p.redirect_to.is_some()) else {
            return; // This seed generated no redirect stubs; fine.
        };
        let uri = Uri::absolute(site.host(), stub.path.clone());
        let out = s.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::FOUND);
    }

    #[test]
    fn bandwidth_ledger_tracks_overhead() {
        let mut s = session(Deployment::full(), 1, "ua");
        let view = s.fetch(FetchSpec::get(s.entry_point())).page.unwrap();
        let css = view.manifest.unwrap().css_probe.unwrap();
        s.fetch(FetchSpec::get(css));
        let bw = s.gateway().stats();
        assert!(bw.total_bytes > 0);
        assert!(bw.instrumentation_bytes > 0);
        assert!(bw.instrumentation_bytes < bw.total_bytes);
    }
}
