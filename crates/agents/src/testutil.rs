//! A self-contained [`ClientWorld`] for unit tests and examples.
//!
//! `MockWorld` wires a single generated site through a real
//! [`RewriteEngine`] and its one client's [`TokenState`], classifies
//! every fetch the way a proxy node would, and tallies probe hits — so
//! agent models can be tested end to end without the full network
//! simulation.

use crate::world::{ClientWorld, FetchOutcome, FetchSpec, PageView};
use botwall_captcha::{CaptchaService, Challenge, ServingPolicy};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, StatusCode, Uri};
use botwall_instrument::{
    Classified, InstrumentConfig, KeyOutcome, ProbeKind, RewriteEngine, TokenState,
};
use botwall_sessions::SimTime;
use botwall_webgraph::{render, Site, SiteConfig};

/// A one-site world with full instrumentation and hit counters.
#[derive(Debug)]
pub struct MockWorld {
    site: Site,
    engine: RewriteEngine,
    /// The one client's session state.
    tokens: TokenState,
    captcha: CaptchaService,
    captcha_offered: bool,
    now: SimTime,
    ip: ClientIp,
    /// Valid mouse-beacon redemptions.
    pub mouse_beacon_hits: u64,
    /// Decoy beacon fetches.
    pub decoy_hits: u64,
    /// Replayed beacon fetches.
    pub replay_hits: u64,
    /// Beacon-shaped fetches whose key was never issued here (forgeries
    /// or cross-session theft).
    pub unknown_beacon_hits: u64,
    /// CSS probe fetches.
    pub css_probe_hits: u64,
    /// Generated-script downloads.
    pub js_file_hits: u64,
    /// Agent-beacon fetches (JS execution).
    pub agent_beacon_hits: u64,
    /// Hidden-link fetches.
    pub hidden_link_hits: u64,
    /// Favicon fetches.
    pub favicon_hits: u64,
    /// robots.txt fetches.
    pub robots_txt_hits: u64,
    /// HTML page fetches.
    pub page_fetches: u64,
    /// HTML page fetches that carried a Referer.
    pub page_fetches_with_referer: u64,
    /// CGI fetches.
    pub cgi_hits: u64,
    /// POST requests.
    pub post_count: u64,
    /// 404 responses served.
    pub not_found: u64,
    /// Total fetches.
    pub total_fetches: u64,
    /// CAPTCHA passes.
    pub captcha_passes: u64,
    /// Flat log of `METHOD uri` lines, for determinism assertions.
    pub request_log: Vec<String>,
}

impl MockWorld {
    /// Creates a world with a deterministic site and instrumentation.
    pub fn new(seed: u64) -> MockWorld {
        MockWorld {
            site: Site::generate("mock.example.com", &SiteConfig::default(), seed),
            engine: RewriteEngine::new(InstrumentConfig::default(), seed ^ 0x5eed),
            tokens: TokenState::default(),
            captcha: CaptchaService::new(ServingPolicy::OptionalWithIncentive, seed ^ 0xcafe),
            captcha_offered: false,
            now: SimTime::ZERO,
            ip: ClientIp::new(0x0A00_0001),
            mouse_beacon_hits: 0,
            decoy_hits: 0,
            replay_hits: 0,
            unknown_beacon_hits: 0,
            css_probe_hits: 0,
            js_file_hits: 0,
            agent_beacon_hits: 0,
            hidden_link_hits: 0,
            favicon_hits: 0,
            robots_txt_hits: 0,
            page_fetches: 0,
            page_fetches_with_referer: 0,
            cgi_hits: 0,
            post_count: 0,
            not_found: 0,
            total_fetches: 0,
            captcha_passes: 0,
            request_log: Vec::new(),
        }
    }

    /// The underlying site (for assertions).
    pub fn site(&self) -> &Site {
        &self.site
    }

    fn build_request(&self, spec: &FetchSpec) -> Request {
        let mut b = Request::builder(spec.method.clone(), spec.uri.to_string())
            .header("User-Agent", "mock-agent")
            .client(self.ip);
        if let Some(r) = &spec.referer {
            b = b.header("Referer", r.clone());
        }
        b.body_bytes(spec.body.clone())
            .build()
            .expect("specs carry valid uris")
    }
}

impl ClientWorld for MockWorld {
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
        self.total_fetches += 1;
        self.now += 50;
        self.request_log
            .push(format!("{} {}", spec.method, spec.uri));
        if spec.method == Method::Post {
            self.post_count += 1;
        }
        let request = self.build_request(&spec);
        // Instrumentation traffic first, exactly like a proxy node.
        let classified = self
            .engine
            .classify(&request, self.now)
            .resolve(&mut self.tokens, self.now);
        match &classified {
            Classified::MouseBeacon { outcome, .. } => match outcome {
                KeyOutcome::Valid => self.mouse_beacon_hits += 1,
                KeyOutcome::Decoy => self.decoy_hits += 1,
                KeyOutcome::Replay => self.replay_hits += 1,
                KeyOutcome::Unknown => self.unknown_beacon_hits += 1,
            },
            Classified::Probe(hit) => match hit.kind {
                ProbeKind::CssProbe => self.css_probe_hits += 1,
                ProbeKind::JsFile => self.js_file_hits += 1,
                ProbeKind::AgentBeacon => self.agent_beacon_hits += 1,
                ProbeKind::HiddenLink => self.hidden_link_hits += 1,
                ProbeKind::TransparentPixel | ProbeKind::MouseBeacon => {}
            },
            Classified::Ordinary => {}
        }
        if let Some(resp) = self
            .engine
            .respond_in_session(&classified, &mut self.tokens, &request)
        {
            return FetchOutcome {
                status: resp.status(),
                page: None,
                body_len: resp.body().len(),
            };
        }
        // Origin content.
        let path = spec.uri.path().to_string();
        if path.eq_ignore_ascii_case("/favicon.ico") {
            self.favicon_hits += 1;
            return FetchOutcome {
                status: StatusCode::OK,
                page: None,
                body_len: 512,
            };
        }
        if path.eq_ignore_ascii_case("/robots.txt") {
            self.robots_txt_hits += 1;
            return FetchOutcome {
                status: StatusCode::OK,
                page: None,
                body_len: 64,
            };
        }
        if path.contains("/cgi-bin/") {
            self.cgi_hits += 1;
            return FetchOutcome {
                status: StatusCode::OK,
                page: None,
                body_len: 256,
            };
        }
        if let Some(page) = self.site.page_by_path(&path) {
            self.page_fetches += 1;
            if spec.referer.is_some() {
                self.page_fetches_with_referer += 1;
            }
            let host = self.site.host().to_string();
            let html = render::render_page(&self.site, page);
            // One client, one session: the stream the engine derives
            // for it at time zero.
            let stream = self
                .engine
                .session_stream_seed(u64::from(self.ip.as_u32()), SimTime::ZERO);
            let built = self.engine.build_session_page(
                &html,
                &request,
                &mut self.tokens,
                || stream,
                self.now,
            );
            let (html, manifest) = (built.html, built.manifest);
            let links = page
                .links
                .iter()
                .filter_map(|id| self.site.page(*id))
                .map(|p| Uri::absolute(&host, p.path.clone()))
                .collect();
            let embedded = page
                .assets
                .iter()
                .map(|a| Uri::absolute(&host, a.path.clone()))
                .collect();
            let cgi = page
                .cgi_endpoint
                .as_ref()
                .map(|c| Uri::absolute(&host, c.clone()));
            return FetchOutcome {
                status: StatusCode::OK,
                body_len: html.len(),
                page: Some(PageView {
                    links,
                    embedded,
                    cgi,
                    manifest: Some(manifest),
                    html,
                }),
            };
        }
        if self.site.asset(&path).is_some() {
            let (_, body) = render::render_asset(&self.site, &path).expect("asset exists");
            return FetchOutcome {
                status: StatusCode::OK,
                page: None,
                body_len: body.len(),
            };
        }
        self.not_found += 1;
        FetchOutcome {
            status: StatusCode::NOT_FOUND,
            page: None,
            body_len: 0,
        }
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
        Uri::absolute(self.site.host(), "/index.html")
    }

    fn offer_captcha(&mut self) -> Option<Challenge> {
        if self.captcha_offered {
            return None;
        }
        self.captcha_offered = true;
        Some(self.captcha.issue())
    }

    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
        let ok = self.captcha.verify_once(id, answer);
        if ok {
            self.captcha_passes += 1;
        }
        ok
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
        assert_eq!(w.captcha_passes, 1);
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
}
