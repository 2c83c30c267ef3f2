//! Instrumentation configuration, the per-page probe manifest, and the
//! classification of a request against the instrumentation.
//!
//! The machinery that uses them is the immutable [`crate::RewriteEngine`]
//! (rewriting, probe minting, stateless classification) and the
//! per-session [`crate::TokenState`] a [`crate::Sighting`] resolves
//! against.

use crate::jsgen::Obfuscation;
use crate::probe::ProbeHit;
use crate::token::{BeaconKey, KeyOutcome};
use botwall_http::Uri;

/// Configuration for the instrumentation scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentConfig {
    /// Number of decoy functions `m` (§2.1); a blind fetcher is caught
    /// with probability `m/(m+1)`.
    pub decoys: usize,
    /// Script obfuscation level.
    pub obfuscation: Obfuscation,
    /// Inject the empty CSS probe (§2.2).
    pub css_probe: bool,
    /// Inject the hidden-link trap (§2.2).
    pub hidden_link: bool,
    /// Inject the mouse-event beacon machinery (§2.1).
    pub mouse_beacon: bool,
}

impl Default for InstrumentConfig {
    fn default() -> Self {
        InstrumentConfig {
            decoys: 5,
            obfuscation: Obfuscation::Lexical,
            css_probe: true,
            hidden_link: true,
            mouse_beacon: true,
        }
    }
}

/// Everything the instrumenter injected into one page.
///
/// Agents consume this as the "parsed DOM" view of the instrumented page:
/// a browser fetches `css_probe` because the link tag is there, fires
/// `mouse_beacon` when its user moves the mouse, and never touches
/// `hidden_link`; a blind crawler scans the HTML bytes instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeManifest {
    /// The page that was instrumented.
    pub page: Uri,
    /// URL of the generated external script.
    pub js_file: Option<Uri>,
    /// URL the script fetches on execution (reports the agent string).
    pub agent_beacon: Option<Uri>,
    /// URL the event handler fetches on mouse/keyboard activity.
    pub mouse_beacon: Option<Uri>,
    /// Decoy beacon URLs embedded in the script.
    pub decoy_beacons: Vec<Uri>,
    /// URL of the empty CSS probe.
    pub css_probe: Option<Uri>,
    /// URL of the hidden link target.
    pub hidden_link: Option<Uri>,
    /// URL of the transparent 1×1 image that masks the hidden link.
    pub transparent_pixel: Option<Uri>,
    /// Bytes added to the HTML by rewriting.
    pub html_overhead: usize,
}

/// Classification of an incoming request against the instrumentation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Classified {
    /// A mouse-beacon fetch carrying `key`; `outcome` is the token-state
    /// verdict (valid/replay/decoy/unknown).
    MouseBeacon {
        /// The key presented in the URL.
        key: BeaconKey,
        /// The token-state verdict for this session and key.
        outcome: KeyOutcome,
    },
    /// A non-beacon probe hit (CSS probe, JS file, agent beacon, hidden
    /// link, transparent pixel).
    Probe(ProbeHit),
    /// Not instrumentation traffic.
    Ordinary,
}

#[cfg(test)]
mod tests {
    //! What the configuration switches, the manifest and [`Classified`]
    //! promise, driven through the engine and one session's token state.

    use super::*;
    use crate::probe::ProbeKind;
    use crate::{RewriteEngine, TokenState};
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request};
    use botwall_sessions::SimTime;

    const HTML: &str = "<html><head><title>t</title></head><body><p>content</p></body></html>";

    /// One engine and one session's state, on RNG stream `stream_seed`.
    struct OneSession {
        engine: RewriteEngine,
        tokens: TokenState,
        stream_seed: u64,
    }

    fn session(config: InstrumentConfig, stream_seed: u64) -> OneSession {
        OneSession {
            engine: RewriteEngine::new(config, 77),
            tokens: TokenState::default(),
            stream_seed,
        }
    }

    fn default_session() -> OneSession {
        session(InstrumentConfig::default(), 9)
    }

    fn get(uri: &Uri) -> Request {
        Request::builder(Method::Get, uri.to_string())
            .client(ClientIp::new(5))
            .build()
            .unwrap()
    }

    impl OneSession {
        fn page(&mut self, html: &str) -> (String, ProbeManifest) {
            let request = get(&"http://site.example/index.html".parse().unwrap());
            let seed = self.stream_seed;
            let mut stream =
                self.engine
                    .begin_session_page(&request, &mut self.tokens, || seed, SimTime::ZERO);
            let mut out = Vec::new();
            stream.write(html.as_bytes(), &mut out);
            let finished = stream.finish(&mut out);
            let manifest = finished.manifest(request.uri(), request.authority().as_deref());
            (String::from_utf8(out).unwrap(), manifest)
        }

        fn classify(&mut self, uri: &Uri, now: SimTime) -> Classified {
            self.engine
                .classify(&get(uri), now)
                .resolve(&mut self.tokens, now)
        }
    }

    fn outcome(classified: Classified) -> KeyOutcome {
        match classified {
            Classified::MouseBeacon { outcome, .. } => outcome,
            other => panic!("expected mouse beacon, got {other:?}"),
        }
    }

    #[test]
    fn injects_all_probes() {
        let (html, m) = default_session().page(HTML);
        assert!(html.contains("onmousemove=\"return "));
        assert!(html.contains("rel=\"stylesheet\""));
        assert!(html.contains("width=\"1\" height=\"1\""));
        assert!(m.css_probe.is_some());
        assert!(m.js_file.is_some());
        assert!(m.mouse_beacon.is_some());
        assert!(m.agent_beacon.is_some());
        assert!(m.hidden_link.is_some());
        assert_eq!(m.decoy_beacons.len(), 5);
        assert_eq!(m.html_overhead, html.len() - HTML.len());
    }

    #[test]
    fn disabled_probes_are_not_injected() {
        let config = InstrumentConfig {
            css_probe: false,
            hidden_link: false,
            mouse_beacon: false,
            ..InstrumentConfig::default()
        };
        let mut s = session(config, 9);
        let (html, m) = s.page(HTML);
        assert_eq!(html, HTML);
        assert!(m.css_probe.is_none());
        assert!(m.mouse_beacon.is_none());
        assert!(m.hidden_link.is_none());
        assert_eq!(m.html_overhead, 0);
        assert!(s.tokens.is_empty());
    }

    #[test]
    fn mouse_beacon_classification_lifecycle() {
        let mut s = default_session();
        let beacon = s.page(HTML).1.mouse_beacon.unwrap();
        assert_eq!(
            outcome(s.classify(&beacon, SimTime::from_secs(1))),
            KeyOutcome::Valid
        );
        // Second fetch is a replay.
        assert_eq!(
            outcome(s.classify(&beacon, SimTime::from_secs(2))),
            KeyOutcome::Replay
        );
    }

    #[test]
    fn decoy_fetch_is_flagged() {
        let mut s = default_session();
        let decoy = s.page(HTML).1.decoy_beacons[2].clone();
        assert_eq!(
            outcome(s.classify(&decoy, SimTime::from_secs(1))),
            KeyOutcome::Decoy
        );
    }

    #[test]
    fn stolen_key_from_other_client_is_unknown() {
        let mut owner = default_session();
        let beacon = owner.page(HTML).1.mouse_beacon.unwrap();
        let mut thief = session(InstrumentConfig::default(), 10);
        thief.page(HTML);
        assert_eq!(
            outcome(thief.classify(&beacon, SimTime::from_secs(1))),
            KeyOutcome::Unknown
        );
        assert_eq!(
            outcome(owner.classify(&beacon, SimTime::from_secs(2))),
            KeyOutcome::Valid,
            "the theft spent nothing"
        );
    }

    #[test]
    fn js_file_serves_generated_source() {
        let mut s = default_session();
        let js_url = s.page(HTML).1.js_file.unwrap();
        let classified = s.classify(&js_url, SimTime::from_secs(1));
        let Classified::Probe(hit) = &classified else {
            panic!("expected a probe hit, got {classified:?}");
        };
        assert_eq!(hit.kind, ProbeKind::JsFile);
        let mut out = Vec::new();
        let resp = s
            .engine
            .object_in_session(
                &classified,
                &s.tokens,
                &get(&js_url).view(),
                SimTime::ZERO,
                false,
                &mut out,
            )
            .map(|o| o.to_response(&out))
            .expect("probe response");
        assert!(resp.is_uncacheable());
        let body = String::from_utf8(resp.body().to_vec()).unwrap();
        assert!(body.contains("new Image()"));
        assert!(body.contains("navigator.userAgent"));
    }

    #[test]
    fn css_probe_serves_empty_uncacheable_css() {
        let mut s = default_session();
        let css = s.page(HTML).1.css_probe.unwrap();
        let classified = s.classify(&css, SimTime::ZERO);
        let mut out = Vec::new();
        let resp = s
            .engine
            .object_in_session(
                &classified,
                &s.tokens,
                &get(&css).view(),
                SimTime::ZERO,
                false,
                &mut out,
            )
            .map(|o| o.to_response(&out))
            .unwrap();
        assert_eq!(resp.content_type(), Some("text/css"));
        assert!(resp.body().is_empty());
        assert!(resp.is_uncacheable());
    }

    #[test]
    fn ordinary_traffic_passes_through() {
        let mut s = default_session();
        s.page(HTML);
        let other = "http://site.example/other.html".parse().unwrap();
        assert_eq!(s.classify(&other, SimTime::ZERO), Classified::Ordinary);
        let mut out = Vec::new();
        let answer = s.engine.object_in_session(
            &Classified::Ordinary,
            &s.tokens,
            &get(&other).view(),
            SimTime::ZERO,
            false,
            &mut out,
        );
        assert!(answer.is_none() && out.is_empty());
    }

    #[test]
    fn missing_head_and_body_degrade_gracefully() {
        let (html, m) = default_session().page("<p>no structure at all</p>");
        // Probes still present in the output, tags appended around content.
        assert!(html.contains("rel=\"stylesheet\""));
        assert!(html.contains(&m.hidden_link.unwrap().to_string()));
        assert!(html.contains("no structure at all"));
    }

    #[test]
    fn keys_differ_across_pages_and_clients() {
        let mut a = default_session();
        let (m1, m2) = (a.page(HTML).1, a.page(HTML).1);
        assert_ne!(m1.mouse_beacon, m2.mouse_beacon, "fresh key per serve");
        assert_ne!(m1.css_probe, m2.css_probe, "fresh nonce per serve");
        let other = session(InstrumentConfig::default(), 10).page(HTML).1;
        assert_ne!(m1.mouse_beacon, other.mouse_beacon, "fresh key per session");
        assert_ne!(m1.css_probe, other.css_probe);
    }
}
