//! Property tests: instrumentation invariants under arbitrary HTML and
//! request streams.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Uri};
use botwall_instrument::{
    Classified, InstrumentConfig, KeyOutcome, ProbeManifest, RewriteEngine, TokenState,
};
use botwall_sessions::SimTime;
use proptest::prelude::*;

fn get(uri: &str, from: u32) -> Request {
    Request::builder(Method::Get, uri)
        .client(ClientIp::new(from))
        .build()
        .unwrap()
}

/// Serves `html` as `client`'s page into `tokens`, on the RNG stream the
/// engine derives for that client's session.
fn serve(
    engine: &RewriteEngine,
    tokens: &mut TokenState,
    html: &str,
    client: u32,
) -> (String, ProbeManifest) {
    let page = get("http://prop.example/page.html", client);
    let seed = engine.session_stream_seed(u64::from(client), SimTime::ZERO);
    let mut stream = engine.begin_session_page(&page, tokens, || seed, SimTime::ZERO);
    let mut out = Vec::new();
    stream.write(html.as_bytes(), &mut out);
    let finished = stream.finish(&mut out);
    let manifest = finished.manifest(page.uri(), page.authority().as_deref());
    (String::from_utf8(out).unwrap(), manifest)
}

proptest! {
    /// Whatever the input HTML, rewriting injects all enabled probes and
    /// the output still contains the original text content.
    #[test]
    fn rewrite_preserves_content_and_injects(html in "[ -~]{0,300}") {
        let engine = RewriteEngine::new(InstrumentConfig::default(), 1);
        let (out, manifest) = serve(&engine, &mut TokenState::default(), &html, 1);
        prop_assert!(manifest.css_probe.is_some());
        prop_assert!(manifest.mouse_beacon.is_some());
        prop_assert!(manifest.hidden_link.is_some());
        prop_assert!(out.len() >= html.len());
        prop_assert_eq!(manifest.html_overhead, out.len() - html.len());
        // The original content survives (rewriting only inserts).
        if !html.is_empty() {
            prop_assert!(out.contains(&html) || html.to_ascii_lowercase().contains("<body")
                || html.to_ascii_lowercase().contains("</head>"),
                "original content lost");
        }
    }

    /// Every URL in the manifest classifies back to the right category,
    /// and the mouse beacon validates exactly once for the right client.
    #[test]
    fn manifest_urls_classify_consistently(client in 1u32..1000, seed in 0u64..500) {
        let engine = RewriteEngine::new(InstrumentConfig::default(), seed);
        let mut tokens = TokenState::default();
        let (_, m) = serve(&engine, &mut tokens, "<html><body></body></html>", client);
        let mut classify = |uri: &Uri| {
            engine
                .classify(&get(&uri.to_string(), client), SimTime::ZERO)
                .resolve(&mut tokens, SimTime::ZERO)
        };
        // CSS probe classifies as probe.
        prop_assert!(matches!(classify(m.css_probe.as_ref().unwrap()), Classified::Probe(_)));
        // Mouse beacon: valid once, replay after.
        let beacon = m.mouse_beacon.clone().unwrap();
        match classify(&beacon) {
            Classified::MouseBeacon { outcome, .. } => prop_assert_eq!(outcome, KeyOutcome::Valid),
            other => prop_assert!(false, "not a beacon: {other:?}"),
        }
        match classify(&beacon) {
            Classified::MouseBeacon { outcome, .. } => prop_assert_eq!(outcome, KeyOutcome::Replay),
            other => prop_assert!(false, "not a beacon: {other:?}"),
        }
        // Every decoy classifies as a decoy for this client.
        for d in &m.decoy_beacons {
            match classify(d) {
                Classified::MouseBeacon { outcome, .. } => {
                    prop_assert_eq!(outcome, KeyOutcome::Decoy)
                }
                other => prop_assert!(false, "not a beacon: {other:?}"),
            }
        }
    }

    /// Ordinary site URLs never classify as instrumentation.
    #[test]
    fn ordinary_urls_stay_ordinary(path in "/[a-z]{1,10}(\\.(html|jpg|css|js))?") {
        let engine = RewriteEngine::new(InstrumentConfig::default(), 2);
        let mut tokens = TokenState::default();
        serve(&engine, &mut tokens, "<html></html>", 1);
        let req = get(&format!("http://prop.example{path}"), 1);
        prop_assert_eq!(
            engine.classify(&req, SimTime::ZERO).resolve(&mut tokens, SimTime::ZERO),
            Classified::Ordinary
        );
    }

    /// Manifests for different clients never share beacon keys.
    #[test]
    fn keys_are_client_unique(a in 1u32..500, b in 501u32..1000) {
        let engine = RewriteEngine::new(InstrumentConfig::default(), 3);
        let (_, ma) = serve(&engine, &mut TokenState::default(), "<html></html>", a);
        let (_, mb) = serve(&engine, &mut TokenState::default(), "<html></html>", b);
        prop_assert_ne!(ma.mouse_beacon, mb.mouse_beacon);
        prop_assert_ne!(ma.css_probe, mb.css_probe);
    }
}
