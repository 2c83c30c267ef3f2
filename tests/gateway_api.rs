//! The gateway's public API contract: value round trips of the decision
//! and config types, and the three end-to-end flows the paper's deployment
//! story rests on — a human proving themselves by mouse activity, a
//! crawler walking into enforcement, and a throttled crawler's challenge
//! pass.

use botwall::captcha::ServingPolicy;
use botwall::detect::{Label, Reason, Verdict};
use botwall::gateway::{Decision, Gateway, GatewayConfig, Origin};
use botwall::http::request::ClientIp;
use botwall::http::{Method, Request, StatusCode};
use botwall::sessions::{SessionKey, SimTime};

const HTML: &str = "<html><head><title>t</title></head><body><p>x</p></body></html>";

fn req(ip: u32, uri: &str, ua: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", ua)
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

fn page(gw: &mut Gateway, ip: u32, uri: &str, ua: &str, at: SimTime) -> Decision {
    gw.handle_with(&req(ip, uri, ua), at, |_| Origin::Page(HTML.into()))
}

include!("../crates/gateway/tests/support/robot.rs");

/// `GatewayConfig` and `Decision` clone to equal values, and a gateway
/// built from a config hands back that config.
#[test]
fn decision_and_config_clone_to_equal_values() {
    let config = GatewayConfig {
        seed: 1234,
        enforcement: false,
        captcha: ServingPolicy::Disabled,
        challenge_on_throttle: true,
        ..GatewayConfig::default()
    };
    let restored = config.clone();
    assert_eq!(config, restored);
    let gw = Gateway::builder().config(config.clone()).build();
    assert_eq!(gw.config(), &config);

    // Value-level round trip for a served decision.
    let mut gw = Gateway::builder().seed(5).build();
    let d = page(
        &mut gw,
        1,
        "http://h.example/index.html",
        "Mozilla/5.0",
        SimTime::ZERO,
    );
    assert_eq!(d.clone(), d);
}

/// A human: page fetch → CSS probe → mouse beacon ⇒ `Serve` with a
/// `Human(MouseActivity)` verdict online and a `Human` label at flush.
#[test]
fn human_mouse_flow_ends_human() {
    let mut gw = Gateway::builder().seed(11).build();
    let ua = "Mozilla/5.0 (Windows) Firefox/1.5";
    let d = page(&mut gw, 1, "http://h.example/index.html", ua, SimTime::ZERO);
    let Decision::Serve {
        manifest, verdict, ..
    } = d
    else {
        panic!("fresh session must be served: {d:?}");
    };
    assert_eq!(verdict, Verdict::Undecided);
    let manifest = manifest.expect("page was instrumented");

    // Standard browser behaviour: fetch the CSS probe.
    let css = manifest.css_probe.unwrap();
    let d = gw.handle(&req(1, &css.to_string(), ua), SimTime::from_secs(1));
    assert!(d.is_serve());

    // The user moves the mouse: the keyed beacon fires.
    let beacon = manifest.mouse_beacon.unwrap();
    let probes = gw.stats().probe_requests;
    let d = gw.handle(&req(1, &beacon.to_string(), ua), SimTime::from_secs(3));
    match d {
        Decision::Serve { verdict, .. } => {
            assert_eq!(verdict, Verdict::Human(Reason::MouseActivity));
            assert_eq!(
                gw.stats().probe_requests,
                probes + 1,
                "beacon fetches are instrumentation traffic"
            );
        }
        other => panic!("beacon fetch must serve: {other:?}"),
    }

    let done = gw.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].label, Label::Human);
    assert_eq!(done[0].reason, Reason::MouseActivity);
}

/// A crawler: follows the hidden link (hard robot evidence), keeps
/// hammering, and the policy engine blocks it.
#[test]
fn crawler_hidden_link_flow_ends_blocked() {
    let mut gw = Gateway::builder().seed(12).build();
    let ua = "crawler/2.0";
    let d = page(&mut gw, 2, "http://h.example/index.html", ua, SimTime::ZERO);
    let Decision::Serve { manifest, .. } = d else {
        panic!("{d:?}");
    };
    // A blind crawler scans the HTML and follows the invisible link.
    let hidden = manifest.unwrap().hidden_link.unwrap();
    let d = gw.handle(&req(2, &hidden.to_string(), ua), SimTime::from_secs(1));
    assert_eq!(
        d.verdict(),
        Some(Verdict::Robot(Reason::HiddenLink)),
        "hard evidence decides on the fast path"
    );

    // It keeps crawling at robot pace; the rate limit and behavioural
    // thresholds take over — eventually every request is a hard 403.
    let mut saw_block = false;
    for i in 0..80u64 {
        let d = page(
            &mut gw,
            2,
            &format!("http://h.example/p{i}.html"),
            ua,
            SimTime::from_secs(2) + i * 100,
        );
        if matches!(d, Decision::Block) {
            saw_block = true;
            break;
        }
    }
    assert!(saw_block, "a hidden-link robot must end up blocked");
    assert!(gw.stats().blocked > 0);
    let done = gw.drain();
    assert_eq!(done[0].label, Label::Robot);
    assert_eq!(done[0].reason, Reason::HiddenLink);
}

/// The challenge flow: a throttled crawler is challenged (issue), a
/// wrong answer unlocks nothing, and a re-issued challenge answered
/// right makes it `CaptchaPassed`, served normally after.
#[test]
fn challenge_flow_issue_verify_captcha_passed() {
    let gw = Gateway::builder()
        .seed(13)
        .challenge_on_throttle(true)
        .build();

    // Issue: the crawler's first over-limit request is challenged.
    let (challenge, r, at) = challenge_a_robot(&gw, 3, SimTime::ZERO);
    let key = SessionKey::of(&r);
    assert!(d_status_is_403(&challenge));

    // A wrong answer does not unlock anything.
    assert!(!gw.verify_captcha(&key, challenge.id, "wrong", at + 1));
    assert_eq!(
        gw.verdict(&key),
        Verdict::ProvisionalRobot(Reason::NoBrowserSignals)
    );

    // Challenges are single-use: re-issue, then verify the right answer.
    let d = gw.handle_with(&r, at + 2, |_| Origin::Page(HTML.into()));
    let Decision::Challenge(challenge) = d else {
        panic!("still unproven: {d:?}");
    };
    let answer = challenge.answer().to_string();
    assert!(gw.verify_captcha(&key, challenge.id, &answer, at + 3));
    assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));

    // Served from here on.
    let d = gw.handle_with(&r, at + 4, |_| Origin::Page(HTML.into()));
    assert!(d.is_serve(), "{d:?}");
    let stats = gw.stats();
    assert_eq!(stats.challenged, 2);
    assert_eq!(stats.captcha_passed, 1);
    assert_eq!(stats.captcha_failed, 1);

    let done = gw.drain();
    assert_eq!(done[0].label, Label::Human);
    assert_eq!(done[0].reason, Reason::CaptchaPassed);
}

fn d_status_is_403(ch: &botwall::captcha::Challenge) -> bool {
    Decision::Challenge(ch.clone()).status() == StatusCode::FORBIDDEN
}

/// The same traffic through two gateways produces identical decisions
/// and stats — the front door inherits the stack's determinism.
#[test]
fn gateway_is_deterministic() {
    let run = || {
        let mut gw = Gateway::builder().seed(99).build();
        let mut statuses = Vec::new();
        for i in 0..30u32 {
            let ip = 1 + i % 3;
            let d = page(
                &mut gw,
                ip,
                &format!("http://h.example/{}.html", i % 7),
                "Mozilla/5.0",
                SimTime::from_secs(u64::from(i)),
            );
            statuses.push(d.status());
        }
        let labels: Vec<Label> = gw.drain().iter().map(|c| c.label).collect();
        (statuses, labels, gw.stats())
    };
    assert_eq!(run(), run());
}

/// The §4.2 throttle escape hatch, end to end: a robot-paced session is
/// rate limited, but instead of a bare 429 the gateway serves a CAPTCHA;
/// solving it makes the session ground-truth human and lifts the limit.
#[test]
fn throttle_escape_hatch_pass_unthrottles_the_session() {
    let gw = Gateway::builder()
        .seed(41)
        .challenge_on_throttle(true)
        .build();
    assert!(gw.config().challenge_on_throttle);

    // Crawl at 1 req/s with zero browser signals: the no-signal
    // promotion drops the session to the robot allowance, and the first
    // over-limit request comes back as a challenge, not a 429.
    let (ch, r, at) = challenge_a_robot(&gw, 8, SimTime::ZERO);
    let key = SessionKey::of(&r);
    assert_eq!(gw.stats().throttled, 0);
    assert_eq!(gw.stats().challenged, 1);

    // Pass → ground-truth human → unthrottled from here on.
    let answer = ch.answer().to_string();
    assert!(gw.verify_captcha(&key, ch.id, &answer, at + 1));
    assert_eq!(gw.verdict(&key), Verdict::Human(Reason::CaptchaPassed));
    for i in 0..30 {
        let r = req(8, &format!("http://h.example/{i}.html"), ROBOT_UA);
        let d = gw.handle_with(&r, at + 2, |_| Origin::Page(HTML.into()));
        assert!(d.is_serve(), "passed sessions are never limited: {d:?}");
    }
    let done = gw.drain();
    assert_eq!(done[0].label, Label::Human);
    assert_eq!(done[0].reason, Reason::CaptchaPassed);
}

/// The gateway is `Send + Sync`: one `Arc<Gateway>` takes traffic from
/// several threads, and the ledger still balances.
#[test]
fn shared_gateway_handles_traffic_from_multiple_threads() {
    use std::sync::Arc;
    let gw = Arc::new(Gateway::builder().seed(55).build());
    let handles: Vec<_> = (0..4u32)
        .map(|t| {
            let gw = Arc::clone(&gw);
            std::thread::spawn(move || {
                for i in 0..40u64 {
                    let r = req(
                        100 + t,
                        &format!("http://h.example/{i}.html"),
                        "Mozilla/5.0",
                    );
                    gw.handle_with(&r, SimTime::from_secs(i), |_| Origin::Page(HTML.into()));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let stats = gw.stats();
    assert_eq!(stats.requests, 160);
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged
    );
    assert_eq!(gw.drain().len(), 4);
}

/// The deferred two-phase surface: `handle_deferred` gates now and
/// returns a `PendingServe` token; the origin fetch happens on a
/// *different thread* (the token is `Send`), and `complete` commits the
/// result back into the session — the integration shape an
/// async/executor-driven embedder uses.
#[test]
fn deferred_pending_serve_crosses_threads_and_commits() {
    use botwall::gateway::PendingServe;
    use std::sync::Arc;
    let gw = Arc::new(Gateway::builder().seed(77).build());
    let r = req(300, "http://h.example/index.html", "Mozilla/5.0");
    let pending = match gw.handle_deferred(&r, SimTime::ZERO) {
        PendingServe::AwaitingOrigin(p) => p,
        PendingServe::Ready(d) => panic!("ordinary first request needs the origin: {d:?}"),
    };
    // Ship the token to a worker thread that "fetches" the origin and
    // commits; no gateway lock is held anywhere in between.
    let worker = {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || {
            gw.complete(pending, Origin::Page(HTML.into()), SimTime::from_secs(1))
        })
    };
    let d = worker.join().unwrap();
    let Decision::Serve {
        manifest, verdict, ..
    } = d
    else {
        panic!("committed page must serve");
    };
    assert_eq!(verdict, Verdict::Undecided);
    let manifest = manifest.expect("page was instrumented at commit");
    // The instrumentation issued at commit time is live session state:
    // the mouse beacon redeems exactly as in the fused flow.
    let beacon = manifest.mouse_beacon.expect("mouse beacon");
    let d = gw.handle(
        &req(300, &beacon.to_string(), "Mozilla/5.0"),
        SimTime::from_secs(2),
    );
    assert_eq!(d.verdict(), Some(Verdict::Human(Reason::MouseActivity)));
    let stats = gw.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.served, 2);
    let done = gw.drain();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].label, Label::Human);
}
