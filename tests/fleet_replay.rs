//! Fleet-scale replay regression: a coordinated fleet harvests one
//! member's probe URLs, mouse beacon, and solved CAPTCHA pair, then
//! replays them from many other sessions. The defenses under test:
//!
//! - **Beacon key binding**: a mouse-beacon token redeems only in the
//!   session it was issued to — every cross-session replay reads as a
//!   forged beacon (hard robot evidence), never as mouse activity.
//! - **CAPTCHA single-use, service-wide**: a solved `(id, answer)` pair
//!   proves exactly one session human; every other session re-submitting
//!   it fails verification.
//! - **Probe nonce freshness (MAC binding)**: harvested probe URLs stop
//!   classifying as instrumentation after the ~1h freshness window — no
//!   registry remembers them, the MAC itself goes stale.

use botwall::detect::{Label, Reason, Verdict};
use botwall::gateway::{Decision, Gateway, Origin};
use botwall::http::request::ClientIp;
use botwall::http::{Method, Request};
use botwall::sessions::{SessionKey, SimTime};

const HTML: &str = "<html><head><title>f</title></head><body><p>x</p></body></html>";
const FLEET: u32 = 24;

fn req(ip: u32, uri: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", "Mozilla/5.0 (Windows) Firefox/1.5")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

fn page(gw: &Gateway, ip: u32, uri: &str, at: SimTime) -> Decision {
    gw.handle_with(&req(ip, uri), at, |_| Origin::Page(HTML.into()))
}

include!("../crates/gateway/tests/support/robot.rs");

/// One member earns a mouse beacon; the rest of the fleet replays it.
/// The harvester stays human, every replayer accrues forged-beacon
/// evidence and ends the run labeled Robot.
#[test]
fn cross_session_beacon_replay_reads_forged_at_fleet_scale() {
    let gw = Gateway::builder().seed(606).build();

    // Member 0 browses and harvests its own (valid) mouse beacon.
    let d = page(&gw, 0, "http://f.example/index.html", SimTime::ZERO);
    let Decision::Serve { manifest, .. } = d else {
        panic!("fresh session must serve: {d:?}");
    };
    let beacon = manifest
        .expect("page was instrumented")
        .mouse_beacon
        .expect("mouse beacon issued");

    // The legitimate redemption, in the issuing session.
    let d = gw.handle(&req(0, &beacon.to_string()), SimTime::from_secs(2));
    assert_eq!(
        d.verdict(),
        Some(Verdict::Human(Reason::MouseActivity)),
        "the issuing session's redemption is mouse activity"
    );

    // Every other fleet member replays the harvested URL from its own
    // session. The token is keyed to member 0: nobody else's redemption
    // may read valid, and each replay is hard robot evidence.
    for ip in 1..FLEET {
        let at = SimTime::from_secs(3) + u64::from(ip) * 500;
        // Establish the session first (a beacon can't be the only
        // exchange a session ever makes — the fleet browses too).
        page(&gw, ip, "http://f.example/index.html", at);
        let d = gw.handle(&req(ip, &beacon.to_string()), at + 100);
        assert_eq!(
            d.verdict(),
            Some(Verdict::Robot(Reason::BeaconAbuse)),
            "fleet member {ip}'s replay must read as beacon abuse"
        );
    }

    let done = gw.drain();
    assert_eq!(done.len(), FLEET as usize);
    for cs in &done {
        let is_harvester = *cs.session.key() == SessionKey::of(&req(0, "http://x/"));
        if is_harvester {
            assert_eq!(cs.label, Label::Human, "the issuing session stays human");
        } else {
            assert_eq!(
                cs.label,
                Label::Robot,
                "replaying member {:?} must end Robot",
                cs.session.key()
            );
            assert_eq!(cs.reason, Reason::BeaconAbuse);
        }
    }
}

/// A solved CAPTCHA pair shared across the fleet: the first submission
/// (the solver's own) passes; the same `(id, answer)` re-submitted from
/// every other session fails, and nobody else is promoted to human.
#[test]
fn shared_captcha_pair_is_single_use_service_wide() {
    let gw = Gateway::builder()
        .seed(607)
        .challenge_on_throttle(true)
        .build();

    // Member 0 crawls into a challenge and solves honestly.
    let (ch, r0, at) = challenge_a_robot(&gw, 0, SimTime::ZERO);
    let key0 = SessionKey::of(&r0);
    let answer = ch.answer().to_string();
    assert!(gw.verify_captcha(&key0, ch.id, &answer, at + 1));
    assert_eq!(gw.verdict(&key0), Verdict::Human(Reason::CaptchaPassed));

    // The pair goes into the fleet cache; every other member replays it.
    for ip in 1..FLEET {
        // The member crawls into a challenge of its own...
        let (_, ri, at) = challenge_a_robot(&gw, ip, SimTime::from_secs(u64::from(ip)));
        let keyi = SessionKey::of(&ri);
        // ...and submits the harvested pair instead of its own.
        assert!(
            !gw.verify_captcha(&keyi, ch.id, &answer, at + 100),
            "member {ip} reusing the solved pair must fail"
        );
        assert_ne!(
            gw.verdict(&keyi),
            Verdict::Human(Reason::CaptchaPassed),
            "member {ip} must not be promoted by a replayed pair"
        );
    }

    let stats = gw.stats();
    assert_eq!(stats.captcha_passed, 1, "exactly one pass service-wide");
    assert_eq!(
        stats.captcha_failed,
        u64::from(FLEET - 1),
        "every replay counted as a failure"
    );
}

/// Harvested probe URLs go stale: past the freshness window the MAC no
/// longer verifies, the URL classifies as ordinary traffic, and
/// redeeming it earns no browser-signal evidence.
#[test]
fn harvested_probe_urls_stop_classifying_after_the_freshness_window() {
    let gw = Gateway::builder().seed(608).build();

    let issued_at = SimTime::from_hours(5);
    let d = page(&gw, 0, "http://f.example/index.html", issued_at);
    let Decision::Serve { manifest, .. } = d else {
        panic!("{d:?}");
    };
    let m = manifest.expect("instrumented");
    let css = m.css_probe.expect("css probe");
    let beacon = m.mouse_beacon.expect("mouse beacon");

    // Fresh: the CSS probe is instrumentation traffic.
    let probes = gw.stats().probe_requests;
    let d = gw.handle(&req(0, &css.to_string()), issued_at + 1_000);
    assert!(d.is_serve(), "{d:?}");
    assert_eq!(
        gw.stats().probe_requests,
        probes + 1,
        "a fresh probe URL classifies as instrumentation"
    );

    // Two hours later (a session kept alive by steady traffic), the
    // same URLs are ordinary requests: stale-nonce MACs fail closed.
    let stale_at = issued_at + 2 * 3_600_000;
    let d = gw.handle_with(&req(0, &css.to_string()), stale_at, |_| {
        Origin::Page(HTML.into())
    });
    assert!(d.is_serve(), "{d:?}");
    assert_eq!(
        gw.stats().probe_requests,
        probes + 1,
        "a stale probe URL is ordinary traffic"
    );

    // The stale mouse beacon earns no human promotion either.
    let d = gw.handle_with(&req(0, &beacon.to_string()), stale_at + 1_000, |_| {
        Origin::Page(HTML.into())
    });
    assert_ne!(
        d.verdict(),
        Some(Verdict::Human(Reason::MouseActivity)),
        "a stale beacon must not prove mouse activity"
    );
}
