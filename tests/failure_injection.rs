//! Failure injection: malformed wire input, replayed and forged beacons,
//! token pressure, and hostile HTML — the gateway must degrade safely,
//! never panic, and keep robots classified as robots.

use botwall::detect::{DetectorConfig, EvidenceKind, Reason, Verdict};
use botwall::gateway::{Decision, Gateway, Origin};
use botwall::http::request::ClientIp;
use botwall::http::{wire, HttpError, Method, Request, Uri};
use botwall::instrument::{ProbeManifest, MAX_TOKENS_PER_SESSION};
use botwall::sessions::{SessionKey, SimTime, TrackerConfig};

const HTML: &str = "<html><head></head><body><p>x</p></body></html>";

fn get(client: u32, uri: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", "x")
        .client(ClientIp::new(client))
        .build()
        .unwrap()
}

/// Serves `html` to `client` as the victim site's index page.
fn serve_page(gw: &Gateway, client: u32, html: &str, at: SimTime) -> (String, ProbeManifest) {
    let page = get(client, "http://victim.example/index.html");
    match gw.handle_with(&page, at, |_| Origin::Page(html.into())) {
        Decision::Serve {
            response,
            manifest: Some(manifest),
            ..
        } => (
            String::from_utf8_lossy(response.body()).into_owned(),
            manifest,
        ),
        other => panic!("expected an instrumented page, got {other:?}"),
    }
}

/// `client` fetches `uri` (a beacon); its session's key.
fn fetch(gw: &Gateway, client: u32, uri: &Uri, at: SimTime) -> SessionKey {
    let request = get(client, &uri.to_string());
    let _ = gw.handle(&request, at);
    SessionKey::of(&request)
}

fn has(gw: &Gateway, key: &SessionKey, kind: EvidenceKind) -> bool {
    gw.detector().evidence(key).expect("live session").has(kind)
}

#[test]
fn malformed_wire_input_is_rejected_not_panicked() {
    let cases: &[&[u8]] = &[
        b"",
        b"\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET / HTTP/1.1\r\nBad Header Line\r\n\r\n",
        b"POST / HTTP/1.1\r\nContent-Length: 1000000\r\n\r\nshort",
        b"HTTP/1.1 9000 Nope\r\n\r\n",
        &[0xff, 0xfe, 0x00, 0x01, 0x02][..],
    ];
    for raw in cases {
        let req = wire::parse_request(raw, ClientIp::new(1));
        assert!(req.is_err(), "accepted {raw:?}");
    }
    // Specific error taxonomy spot checks.
    assert!(matches!(
        wire::parse_request(
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nab",
            ClientIp::new(1)
        ),
        Err(HttpError::TruncatedBody { .. })
    ));
}

#[test]
fn replayed_beacon_is_robot_evidence() {
    let gw = Gateway::builder().seed(3).build();
    let (_, m) = serve_page(&gw, 10, HTML, SimTime::ZERO);
    let beacon = m.mouse_beacon.unwrap();
    // First redemption: human.
    let key = fetch(&gw, 10, &beacon, SimTime::from_secs(1));
    assert_eq!(gw.verdict(&key), Verdict::Human(Reason::MouseActivity));
    assert!(!has(&gw, &key, EvidenceKind::ReplayedBeacon));
    // Replay: the verdict flips to robot and stays there.
    fetch(&gw, 10, &beacon, SimTime::from_secs(2));
    assert!(has(&gw, &key, EvidenceKind::ReplayedBeacon));
    assert_eq!(gw.verdict(&key), Verdict::Robot(Reason::BeaconAbuse));
    fetch(&gw, 10, &beacon, SimTime::from_secs(3));
    assert_eq!(gw.verdict(&key), Verdict::Robot(Reason::BeaconAbuse));
}

#[test]
fn guessed_keys_never_validate() {
    let gw = Gateway::builder().seed(4).build();
    serve_page(&gw, 11, HTML, SimTime::ZERO);
    // An attacker fabricates beacon-shaped URLs with random keys.
    for i in 0..100u128 {
        let forged = format!("http://victim.example/{:032x}.jpg", 0xDEAD_0000 + i);
        let key = fetch(&gw, 11, &forged.parse().unwrap(), SimTime::from_secs(1));
        assert!(
            has(&gw, &key, EvidenceKind::ForgedBeacon),
            "beacon-shaped URL misclassified"
        );
        assert!(
            !has(&gw, &key, EvidenceKind::MouseEvent),
            "guessed key validated"
        );
        assert_eq!(gw.verdict(&key), Verdict::Robot(Reason::BeaconAbuse));
    }
}

/// Far more clients and pages than the gateway is sized for: what it
/// holds for them stays inside `max_sessions` × `MAX_TOKENS_PER_SESSION`.
#[test]
fn token_table_pressure_stays_bounded() {
    // Enforcement off: a client's burst of pages is served, not
    // throttled, so every page issues its token.
    let gw = Gateway::builder()
        .enforcement(false)
        .detector(DetectorConfig {
            tracker: TrackerConfig {
                max_sessions: 100,
                ..TrackerConfig::default()
            },
        })
        .seed(5)
        .build();
    // 1,000 clients × 72 pages each: past both bounds.
    let pages = MAX_TOKENS_PER_SESSION + 8;
    for c in 0..1_000u32 {
        for _ in 0..pages {
            serve_page(&gw, c, HTML, SimTime::from_secs(c as u64));
        }
    }
    let stats = gw.stats();
    assert!(stats.live_sessions <= 100, "{stats:?}");
    assert!(
        stats.token_entries <= 100 * MAX_TOKENS_PER_SESSION as u64,
        "{stats:?}"
    );
}

#[test]
fn hostile_html_does_not_break_rewriting() {
    let gw = Gateway::builder().seed(6).build();
    let cases = [
        "",
        "<",
        "<body",
        "<BODY><BODY><BODY>",
        "</body></head><head><body>",
        "plain text, no markup at all",
        "<html><head><body>unclosed everything",
        &"<p>x</p>".repeat(10_000),
    ];
    for html in cases {
        let (out, manifest) = serve_page(&gw, 1, html, SimTime::ZERO);
        // Whatever the input, the probes must be present in the output.
        assert!(out.contains("stylesheet"), "css probe missing for {html:?}");
        assert!(manifest.mouse_beacon.is_some());
    }
}

#[test]
fn detector_tolerates_responseless_exchanges() {
    use botwall::sessions::{Gate, SessionTracker};
    let t = SessionTracker::new(TrackerConfig::default());
    let req = Request::builder(Method::Get, "http://h/x")
        .client(ClientIp::new(1))
        .build()
        .unwrap();
    // A gate that finishes without recording: the exchange is recorded
    // for it, with no response.
    let (key, _, _) = t.begin_exchange(&req.view(), SimTime::ZERO, |_| Gate::<(), ()>::Finish(()));
    let s = t.get(&key).unwrap();
    assert_eq!(s.records()[0].status_class, 0);
}

#[test]
fn cross_client_beacon_theft_fails() {
    let gw = Gateway::builder().seed(7).build();
    let (victim, thief) = (20, 21);
    let (_, m) = serve_page(&gw, victim, HTML, SimTime::ZERO);
    serve_page(&gw, thief, HTML, SimTime::ZERO);
    let stolen = m.mouse_beacon.unwrap();
    // The thief's session never held that key: a forgery, on the thief.
    let key = fetch(&gw, thief, &stolen, SimTime::from_secs(1));
    assert!(has(&gw, &key, EvidenceKind::ForgedBeacon));
    assert!(!has(&gw, &key, EvidenceKind::MouseEvent));
    assert_eq!(gw.verdict(&key), Verdict::Robot(Reason::BeaconAbuse));
    // And it spent nothing: the victim's own mouse still redeems it.
    let key = fetch(&gw, victim, &stolen, SimTime::from_secs(2));
    assert_eq!(gw.verdict(&key), Verdict::Human(Reason::MouseActivity));
}
