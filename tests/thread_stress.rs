//! Thread stress: many threads hammer one shared `Arc<Gateway>` with
//! interleaved human and robot traffic, then the books must balance
//! EXACTLY — the PR-3 guarantee that sharded counters, shard-owned
//! session state, and `&self` handling lose nothing under concurrency.

use botwall::gateway::{Decision, Gateway, Origin};
use botwall::http::request::ClientIp;
use botwall::http::{Method, Request, Response, StatusCode};
use botwall::sessions::{SessionKey, SimTime};
use std::sync::Arc;

const HTML: &str = "<html><head><title>t</title></head><body><p>x</p></body></html>";

fn req(ip: u32, uri: &str, ua: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", ua)
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

/// One thread's workload: a human session (page + probes + mouse beacon,
/// then polite browsing) interleaved with a robot session (no probes,
/// crawling fast enough to hit enforcement). Returns how many requests
/// the thread issued.
fn drive(gw: &Gateway, thread: u32, rounds: u64) -> u64 {
    let human_ip = 10_000 + thread;
    let robot_ip = 20_000 + thread;
    let human_ua = "Mozilla/5.0 (stress) Firefox/1.5";
    let robot_ua = "stressbot/1.0";
    let mut issued = 0u64;

    // Prove the human: fetch a page, then fire its mouse beacon.
    let d = gw.handle_with(
        &req(human_ip, "http://stress.example/index.html", human_ua),
        SimTime::ZERO,
        |_| Origin::Page(HTML.into()),
    );
    issued += 1;
    let beacon = match d {
        Decision::Serve { manifest, .. } => manifest.unwrap().mouse_beacon.unwrap(),
        other => panic!("fresh page fetch must serve: {other:?}"),
    };
    gw.handle(
        &req(human_ip, &beacon.to_string(), human_ua),
        SimTime::from_secs(1),
    );
    issued += 1;

    for i in 0..rounds {
        let t = SimTime::from_secs(2 + i);
        // Human browsing: always served (humans are never rate limited).
        let d = gw.handle_with(
            &req(
                human_ip,
                &format!("http://stress.example/h{}.html", i % 16),
                human_ua,
            ),
            t,
            |_| Origin::Response(Response::empty(StatusCode::OK)),
        );
        assert!(d.is_serve(), "proven human rejected: {d:?}");
        issued += 1;
        // Robot crawling: three requests per tick — fast enough to be
        // promoted to no-signal robot and throttled/blocked eventually.
        for j in 0..3 {
            gw.handle_with(
                &req(
                    robot_ip,
                    &format!("http://stress.example/r{i}_{j}.html"),
                    robot_ua,
                ),
                t,
                |_| Origin::Page(HTML.into()),
            );
            issued += 1;
        }
    }
    issued
}

#[test]
fn stats_ledger_balances_exactly_under_concurrency() {
    let threads = 8u32;
    let rounds = 150u64;
    let gw = Arc::new(Gateway::builder().seed(2026).build());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let gw = Arc::clone(&gw);
            std::thread::spawn(move || drive(&gw, t, rounds))
        })
        .collect();
    let issued: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let stats = gw.stats();
    assert_eq!(stats.requests, issued, "every request is counted once");
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged,
        "every request lands in exactly one outcome column: {stats:?}"
    );
    assert!(
        stats.throttled + stats.blocked > 0,
        "robots hit enforcement"
    );
    assert_eq!(
        stats.live_sessions,
        2 * threads as usize,
        "one human and one robot session per thread"
    );
    assert!(stats.total_bytes > 0);

    // Drain: complete (every session exactly once) and key-sorted.
    let done = gw.drain();
    assert_eq!(done.len(), 2 * threads as usize);
    let keys: Vec<SessionKey> = done.iter().map(|c| c.session.key().clone()).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    sorted.dedup();
    assert_eq!(keys, sorted, "drain output must be key-sorted, no dupes");
    let drained_requests: u64 = done.iter().map(|c| c.session.request_count()).sum();
    assert_eq!(
        drained_requests, issued,
        "no exchange lost between ingest and flush"
    );
    assert_eq!(gw.stats().live_sessions, 0);
    assert_eq!(gw.stats().completed_sessions, 2 * u64::from(threads));
}

#[test]
fn beacon_redemptions_stay_exact_while_traffic_flows_on_8_threads() {
    // PR-4 regression: beacon redemption is a shard-local token
    // operation (it used to write-lock a global table). Eight threads
    // continuously redeem fresh beacons while their robot halves hammer
    // ordinary traffic; every single redemption must come back Valid
    // (no thread may observe another session's token state), and the
    // ledger must still balance exactly.
    let threads = 8u32;
    let rounds = 60u64;
    let gw = Arc::new(Gateway::builder().seed(4040).build());
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let gw = Arc::clone(&gw);
            std::thread::spawn(move || {
                let human_ip = 40_000 + t;
                let robot_ip = 50_000 + t;
                let ua = "Mozilla/5.0 (beacon-stress)";
                let mut issued = 0u64;
                for i in 0..rounds {
                    let now = SimTime::from_secs(i);
                    // Fresh page → fresh beacon → immediate redemption.
                    let d = gw.handle_with(
                        &req(human_ip, &format!("http://stress.example/b{i}.html"), ua),
                        now,
                        |_| Origin::Page(HTML.into()),
                    );
                    issued += 1;
                    let beacon = match d {
                        Decision::Serve { manifest, .. } => manifest.unwrap().mouse_beacon.unwrap(),
                        other => panic!("human page fetch rejected: {other:?}"),
                    };
                    let d = gw.handle(&req(human_ip, &beacon.to_string(), ua), now + 10);
                    issued += 1;
                    assert!(
                        matches!(
                            d.verdict(),
                            Some(v) if v.is_final()
                        ),
                        "every redemption is Valid for its own session: {d:?}"
                    );
                    // Interleaved robot traffic on the same thread.
                    gw.handle_with(
                        &req(
                            robot_ip,
                            &format!("http://stress.example/r{i}.html"),
                            "beaconbot/1.0",
                        ),
                        now,
                        |_| Origin::Page(HTML.into()),
                    );
                    issued += 1;
                }
                issued
            })
        })
        .collect();
    let issued: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let stats = gw.stats();
    assert_eq!(stats.requests, issued);
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged
    );
    // Every human session ends Human on mouse evidence; token entries
    // drain with their sessions.
    let done = gw.drain();
    let humans = done
        .iter()
        .filter(|c| {
            c.session.key().ip().as_u32() >= 40_000 && c.session.key().ip().as_u32() < 50_000
        })
        .count();
    assert_eq!(humans, threads as usize);
    for cs in &done {
        if cs.session.key().ip().as_u32() < 50_000 {
            assert_eq!(
                cs.label,
                botwall::detect::Label::Human,
                "{:?}",
                cs.session.key()
            );
        }
    }
    assert_eq!(
        gw.stats().token_entries,
        0,
        "tokens flush with their entries"
    );
}

#[test]
fn slow_origin_does_not_stall_same_shard_neighbors() {
    // The PR-5 guarantee: the origin callback runs with NO shard lock
    // held. One session's origin hangs (blocked on a channel) while a
    // *same-shard* neighbor completes an entire workload — under the
    // PR-4 fused path this rendezvous would deadlock, because the
    // neighbor's requests need the shard mutex the sleeping origin
    // would be holding. Ledger totals stay exact throughout.
    use botwall::sessions::SessionKey;
    use std::sync::mpsc;

    let gw = Arc::new(Gateway::builder().seed(5050).build());
    let ua = "Mozilla/5.0 (slow-origin) Firefox/1.5";
    let shards = gw.stats().shard_count as u64;
    let shard_of = |ip: u32| {
        SessionKey::of(&req(ip, "http://stress.example/x.html", ua)).shard_hash() % shards
    };
    let slow_ip = 60_000u32;
    let neighbor_ip = (60_001..70_000u32)
        .find(|ip| shard_of(*ip) == shard_of(slow_ip))
        .expect("some nearby ip lands on the same shard");

    // Prove the neighbor human first so its steady-state loop is pure
    // origin serves (never throttled by the no-signal promotion).
    let d = gw.handle_with(
        &req(neighbor_ip, "http://stress.example/index.html", ua),
        SimTime::ZERO,
        |_| Origin::Page(HTML.into()),
    );
    let beacon = match d {
        Decision::Serve { manifest, .. } => manifest.unwrap().mouse_beacon.unwrap(),
        other => panic!("{other:?}"),
    };
    let d = gw.handle(
        &req(neighbor_ip, &beacon.to_string(), ua),
        SimTime::from_secs(1),
    );
    assert!(matches!(d.verdict(), Some(v) if v.is_final()));

    let (entered_tx, entered_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let slow = {
        let gw = Arc::clone(&gw);
        std::thread::spawn(move || {
            #[cfg(debug_assertions)]
            botwall::sessions::sync::counters::reset();
            let d = gw.handle_with(
                &req(slow_ip, "http://stress.example/slow.html", ua),
                SimTime::from_secs(2),
                |_| {
                    entered_tx.send(()).unwrap();
                    // The origin "hangs" until the neighbor's whole
                    // workload has completed on the same shard.
                    release_rx.recv().unwrap();
                    Origin::Page(HTML.into())
                },
            );
            assert!(d.is_serve(), "slow origin still serves: {d:?}");
            #[cfg(debug_assertions)]
            assert_eq!(
                botwall::sessions::sync::counters::snapshot(),
                3,
                "slow page serve = exactly (gate, begin, commit), no lock spans the fetch"
            );
        })
    };
    entered_rx.recv().unwrap(); // the slow fetch is now in flight
    #[cfg(debug_assertions)]
    botwall::sessions::sync::counters::reset();
    let rounds = 50u64;
    for i in 0..rounds {
        let d = gw.handle_with(
            &req(neighbor_ip, &format!("http://stress.example/n{i}.html"), ua),
            SimTime::from_secs(3 + i),
            |_| Origin::Response(Response::empty(StatusCode::OK)),
        );
        assert!(d.is_serve(), "same-shard neighbor proceeds: {d:?}");
    }
    #[cfg(debug_assertions)]
    assert_eq!(
        botwall::sessions::sync::counters::snapshot(),
        2 * rounds,
        "every neighbor serve costs exactly two shard locks"
    );
    release_tx.send(()).unwrap();
    slow.join().unwrap();

    let stats = gw.stats();
    assert_eq!(stats.requests, rounds + 3, "page + beacon + slow + rounds");
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged
    );
    assert_eq!(stats.served, rounds + 3, "nothing throttled or dropped");
    assert_eq!(gw.drain().len(), 2);
}

#[test]
fn under_attack_flips_while_traffic_is_in_flight() {
    use botwall::captcha::ServingPolicy;
    // The PR-3 bugfix: `set_under_attack` is an atomic `&self` toggle an
    // operator can flip mid-traffic, without a stop-the-world `&mut`.
    let gw = Arc::new(
        Gateway::builder()
            .seed(7)
            .captcha(ServingPolicy::MandatoryUnderAttack)
            .build(),
    );
    let traffic: Vec<_> = (0..4u32)
        .map(|t| {
            let gw = Arc::clone(&gw);
            std::thread::spawn(move || {
                let mut challenged = 0u32;
                for i in 0..400u64 {
                    let r = req(
                        30_000 + t,
                        &format!("http://stress.example/{i}.html"),
                        "Mozilla/5.0",
                    );
                    if let Decision::Challenge(_) =
                        gw.handle_with(&r, SimTime::from_secs(i), |_| Origin::Page(HTML.into()))
                    {
                        challenged += 1;
                    }
                }
                challenged
            })
        })
        .collect();
    // Flip the flag continuously while the traffic threads run.
    for i in 0..2_000u32 {
        gw.set_under_attack(i % 2 == 0);
    }
    gw.set_under_attack(true);
    let challenged: u32 = traffic.into_iter().map(|h| h.join().unwrap()).sum();
    // With the flag mostly toggling mid-run the exact count races by
    // design; the invariants are (a) no deadlock/panic, (b) the ledger
    // still balances, and (c) the final state takes effect.
    let stats = gw.stats();
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged
    );
    assert_eq!(u64::from(challenged), stats.challenged);
    let r = req(39_999, "http://stress.example/x.html", "Mozilla/5.0");
    let d = gw.handle_with(&r, SimTime::from_secs(9_999), |_| Origin::Page(HTML.into()));
    assert!(
        matches!(d, Decision::Challenge(_)),
        "under attack: unproven sessions are challenged ({d:?})"
    );
}

#[test]
fn a_stats_poller_never_sees_more_outcomes_than_requests() {
    // A snapshot walks every shard lock while the handlers take them:
    // no snapshot may show an outcome whose request it missed, and the
    // poller and the handlers all finishing shows no deadlock.
    let threads = 8u32;
    let gw = Arc::new(Gateway::builder().seed(2027).build());
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let (gw, done) = (Arc::clone(&gw), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut polls = 0u64;
            loop {
                let last = done.load(std::sync::atomic::Ordering::Acquire);
                let s = gw.stats();
                assert!(
                    s.served + s.throttled + s.blocked + s.challenged <= s.requests,
                    "a snapshot shows an outcome without its request: {s:?}"
                );
                polls += 1;
                if last {
                    return polls;
                }
            }
        })
    };
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let gw = Arc::clone(&gw);
            std::thread::spawn(move || drive(&gw, t, 150))
        })
        .collect();
    let issued: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    done.store(true, std::sync::atomic::Ordering::Release);
    assert!(
        poller.join().unwrap() > 1,
        "the poller ran beside the handlers"
    );
    let stats = gw.stats();
    assert_eq!(stats.requests, issued);
    assert_eq!(
        stats.requests,
        stats.served + stats.throttled + stats.blocked + stats.challenged,
        "{stats:?}"
    );
}
