//! A self-contained [`ClientWorld`] for unit tests and examples.
//!
//! `MockWorld` is a [`Client`] of a [`Gateway`] in front of a single
//! generated site: the gate, the rewriter, the detector and the webgraph
//! origin the proxy nodes run, with enforcement off, so an agent is never
//! throttled or blocked mid-test. Beside what the client counts it
//! tallies the shape of what the agent sent, and reads what its probe
//! fetches proved off the session's evidence — so agent models can be
//! tested end to end without the full network simulation.

use crate::world::{Client, ClientWorld, FetchOutcome, FetchSpec};
use botwall_captcha::Challenge;
use botwall_gateway::{EvidenceKind, Gateway};
use botwall_http::request::ClientIp;
use botwall_http::{Method, StatusCode, Uri};
use botwall_sessions::SimTime;
use botwall_webgraph::{Site, SiteConfig, Web};
use std::sync::Arc;

/// A one-site world with full instrumentation and hit counters.
#[derive(Debug)]
pub struct MockWorld {
    client: Client,
    /// Favicon fetches.
    pub favicon_hits: u64,
    /// robots.txt fetches.
    pub robots_txt_hits: u64,
    /// Fetches answered with an HTML page.
    pub page_fetches: u64,
    /// Of those, the fetches that carried a Referer.
    pub page_fetches_with_referer: u64,
    /// Fetches of a `/cgi-bin/` path.
    pub cgi_hits: u64,
    /// POST requests.
    pub post_count: u64,
    /// 404 responses served.
    pub not_found: u64,
    /// Flat log of `METHOD uri` lines, for determinism assertions.
    pub request_log: Vec<String>,
}

impl MockWorld {
    /// Creates a world with a deterministic site and instrumentation.
    pub fn new(seed: u64) -> MockWorld {
        let site = Site::generate("mock.example.com", &SiteConfig::default(), seed);
        let entry = Uri::absolute(site.host(), "/index.html");
        let gateway = Gateway::builder()
            .seed(seed ^ 0x5eed)
            .enforcement(false)
            .build();
        let client = Client::new(
            Arc::new(gateway),
            Arc::new(Web::from_sites(vec![site])),
            (ClientIp::new(0x0A00_0001), "mock-agent".into()),
            entry,
            SimTime::ZERO,
        );
        MockWorld {
            client,
            favicon_hits: 0,
            robots_txt_hits: 0,
            page_fetches: 0,
            page_fetches_with_referer: 0,
            cgi_hits: 0,
            post_count: 0,
            not_found: 0,
            request_log: Vec::new(),
        }
    }

    /// The underlying site (for assertions).
    pub fn site(&self) -> &Site {
        self.client.web().sites().next().expect("one site")
    }

    /// The client the agent fetches as (its ledger counts every fetch
    /// and CAPTCHA pass).
    pub fn client(&self) -> &Client {
        &self.client
    }

    /// How many times the session's evidence recorded `kind`.
    fn evidence(&self, kind: EvidenceKind) -> u64 {
        self.client
            .gateway()
            .detector()
            .evidence(&self.client.key())
            .map_or(0, |evidence| u64::from(evidence.count(kind)))
    }

    /// Valid mouse-beacon redemptions.
    pub fn mouse_beacon_hits(&self) -> u64 {
        self.evidence(EvidenceKind::MouseEvent)
    }

    /// Decoy beacon fetches.
    pub fn decoy_hits(&self) -> u64 {
        self.evidence(EvidenceKind::FetchedDecoy)
    }

    /// Beacon-shaped fetches whose key was never issued here (forgeries
    /// or cross-session theft).
    pub fn unknown_beacon_hits(&self) -> u64 {
        self.evidence(EvidenceKind::ForgedBeacon)
    }

    /// CSS probe fetches.
    pub fn css_probe_hits(&self) -> u64 {
        self.evidence(EvidenceKind::DownloadedCss)
    }

    /// Generated-script downloads.
    pub fn js_file_hits(&self) -> u64 {
        self.evidence(EvidenceKind::DownloadedJsFile)
    }

    /// Agent-beacon fetches (JS execution).
    pub fn agent_beacon_hits(&self) -> u64 {
        self.evidence(EvidenceKind::ExecutedJs)
    }

    /// Hidden-link fetches.
    pub fn hidden_link_hits(&self) -> u64 {
        self.evidence(EvidenceKind::HiddenLinkFollowed)
    }
}

impl ClientWorld for MockWorld {
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
        self.request_log
            .push(format!("{} {}", spec.method, spec.uri));
        let path = spec.uri.path();
        self.post_count += u64::from(spec.method == Method::Post);
        self.favicon_hits += u64::from(path.eq_ignore_ascii_case("/favicon.ico"));
        self.robots_txt_hits += u64::from(path.eq_ignore_ascii_case("/robots.txt"));
        self.cgi_hits += u64::from(path.contains("/cgi-bin/"));
        let with_referer = spec.referer.is_some();
        let out = self.client.fetch(spec);
        if out.page.is_some() {
            self.page_fetches += 1;
            self.page_fetches_with_referer += u64::from(with_referer);
        }
        self.not_found += u64::from(out.status == StatusCode::NOT_FOUND);
        out
    }

    fn now(&self) -> SimTime {
        self.client.now()
    }

    fn sleep(&mut self, ms: u64) {
        self.client.sleep(ms);
    }

    fn entry_point(&self) -> Uri {
        self.client.entry_point()
    }

    fn offer_captcha(&mut self) -> Option<Challenge> {
        self.client.offer_captcha()
    }

    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
        self.client.answer_captcha(id, answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_come_back_instrumented() {
        let mut w = MockWorld::new(1);
        let entry = w.entry_point();
        let out = w.fetch(FetchSpec::get(entry));
        let view = out.page.expect("index is a page");
        let m = view.manifest.expect("instrumented");
        assert!(m.css_probe.is_some());
        assert!(view.html.contains("onmousemove"));
        assert_eq!(w.page_fetches, 1);
    }

    #[test]
    fn unknown_paths_are_404() {
        let mut w = MockWorld::new(2);
        let uri = Uri::absolute("mock.example.com", "/no/such/thing.html");
        let out = w.fetch(FetchSpec::get(uri));
        assert_eq!(out.status, StatusCode::NOT_FOUND);
        assert_eq!(w.not_found, 1);
    }

    #[test]
    fn captcha_offered_once() {
        let mut w = MockWorld::new(3);
        let ch = w.offer_captcha().expect("first offer");
        assert!(w.offer_captcha().is_none(), "only one offer per session");
        let answer = ch.answer().to_string();
        assert!(w.answer_captcha(ch.id, &answer));
        assert_eq!(w.client().gateway().stats().captcha_passed, 1);
    }

    #[test]
    fn time_advances_on_fetch_and_sleep() {
        let mut w = MockWorld::new(4);
        let t0 = w.now();
        w.fetch(FetchSpec::get(w.entry_point()));
        assert!(w.now() > t0);
        let t1 = w.now();
        w.sleep(1000);
        assert_eq!(w.now() - t1, 1000);
    }

    /// Fetches `uri` `times` times, each answered `200`.
    fn fetch_ok(w: &mut MockWorld, uri: &Uri, times: usize) {
        for _ in 0..times {
            assert_eq!(w.fetch(FetchSpec::get(uri.clone())).status, StatusCode::OK);
        }
    }

    /// Each probe tally reads the one evidence kind its fetch records.
    /// Once each (every probe of a page, a decoy, a forged beacon, and
    /// the real mouse beacon twice: valid, then a replay) all seven and
    /// the session's replay count read 1; fetched a different number of
    /// times each, a tally reading another's kind would read another's
    /// count.
    #[test]
    fn each_probe_tally_reads_its_evidence_kind() {
        let mut w = MockWorld::new(5);
        let page = w.fetch(FetchSpec::get(w.entry_point())).page.unwrap();
        let m = page.manifest.unwrap();
        let forged = Uri::absolute(w.site().host(), format!("/{:032x}.jpg", 0xDEAD_BEEF_u64));
        let probes = [
            m.css_probe.unwrap(),
            m.js_file.unwrap(),
            m.agent_beacon.unwrap(),
            m.hidden_link.unwrap(),
            m.decoy_beacons[0].clone(),
            forged,
        ];
        let mouse = m.mouse_beacon.unwrap();
        let tallies = |w: &MockWorld| {
            [
                w.css_probe_hits(),
                w.js_file_hits(),
                w.agent_beacon_hits(),
                w.hidden_link_hits(),
                w.decoy_hits(),
                w.unknown_beacon_hits(),
                w.mouse_beacon_hits(),
                w.evidence(EvidenceKind::ReplayedBeacon),
            ]
        };
        for uri in &probes {
            fetch_ok(&mut w, uri, 1);
        }
        fetch_ok(&mut w, &mouse, 2);
        assert_eq!(tallies(&w), [1; 8]);
        for (n, uri) in probes.iter().enumerate() {
            fetch_ok(&mut w, uri, n + 1);
        }
        fetch_ok(&mut w, &mouse, 7);
        assert_eq!(tallies(&w), [2, 3, 4, 5, 6, 7, 1, 8]);
    }
}
