//! Multi-reactor end-to-end exercises: several epoll event loops, each
//! with its own SO_REUSEPORT listener, sharing one [`Gateway`]. The
//! kernel decides which reactor a connection lands on, so these tests
//! open many connections and assert *global* properties — verdicts
//! converge across reactors, the connection cap is one shared budget,
//! a slow origin stalls only its own connection wherever it lands, and
//! a drain classifies every observed session exactly once.

use botwall_core::classifier::Verdict;
use botwall_gateway::Gateway;
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_serve::client::Client;
use botwall_serve::MockOrigin;
use botwall_sessions::SessionKey;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

mod support;
use support::{Fixture, PAGE};

fn request(path: &str, ua: &str) -> Request {
    Request::builder(Method::Get, path)
        .header("User-Agent", ua)
        .header("Host", "site.example")
        .build()
        .unwrap()
}

/// The session key the server derives for loopback traffic with `ua`.
fn loopback_key(ua: &str) -> SessionKey {
    let probe = Request::builder(Method::Get, "/")
        .header("User-Agent", ua)
        .client(ClientIp::new(u32::from_be_bytes([127, 0, 0, 1])))
        .build()
        .unwrap();
    SessionKey::of(&probe)
}

fn get(addr: SocketAddr, path: &str, ua: &str) -> Response {
    let mut conn = Client::connect(addr).unwrap();
    conn.roundtrip(&request(path, ua)).unwrap()
}

fn body_str(response: &Response) -> String {
    String::from_utf8(response.body().to_vec()).unwrap()
}

/// Every `"`-delimited absolute URL in `text`, reduced to path-and-query.
fn quoted_paths(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for chunk in text.split('"').skip(1).step_by(2) {
        if let Some(rest) = chunk.split("://").nth(1) {
            if let Some(slash) = rest.find('/') {
                out.push(rest[slash..].to_string());
            }
        }
    }
    out
}

/// One session's evidence must convict it no matter which reactor each
/// of its connections lands on: the decoy fetch happens on a fresh
/// socket (kernel-sharded to some reactor), and every later connection
/// — wherever *it* lands — sees the robot verdict, because session
/// state lives in the one shared gateway, not in any reactor.
#[test]
fn verdicts_converge_across_reactors() {
    let fx = Fixture::on_reactors(2, 21);
    let ua = "scraper/1.0 mr-converge";
    let body = body_str(&get(fx.addr, "/index.html", ua));
    let decoy = quoted_paths(&body)
        .into_iter()
        .find(|p| {
            p.ends_with(".html")
                && p.trim_start_matches('/')
                    .trim_end_matches(".html")
                    .bytes()
                    .all(|b| b.is_ascii_digit())
        })
        .expect("instrumented page plants a decoy link");
    // The decoy fetch rides its own connection.
    get(fx.addr, &decoy, ua);
    let key = loopback_key(ua);
    assert!(
        matches!(fx.gateway.verdict(&key), Verdict::Robot(_)),
        "decoy fetch convicts: {:?}",
        fx.gateway.verdict(&key)
    );
    // Many more fresh connections: the kernel spreads them over both
    // reactors, and each one must observe the conviction (enforcement
    // or plain service — never an un-convicted fresh session).
    for i in 0..8 {
        let response = get(fx.addr, &format!("/p{i}.html"), ua);
        assert!(
            matches!(
                response.status(),
                StatusCode::NOT_FOUND
                    | StatusCode::OK
                    | StatusCode::TOO_MANY_REQUESTS
                    | StatusCode::FORBIDDEN
            ),
            "unexpected status {}",
            response.status()
        );
    }
    assert!(
        matches!(fx.gateway.verdict(&key), Verdict::Robot(_)),
        "conviction survives traffic on every reactor"
    );
    let report = fx.finish();
    assert_eq!(report.connections, 10, "every socket was counted once");
    assert_eq!(report.requests, 10);
}

/// `max_connections` is one global budget, not a per-reactor quota:
/// with two reactors and a cap of 1, the second concurrent connection
/// answers 503 no matter which listener accepted it.
#[test]
fn connection_cap_is_global_across_reactors() {
    let fx = Fixture::with(
        Gateway::builder().seed(22).build(),
        |config| {
            config.max_connections = 1;
            config.threads = 2;
        },
        None,
    );
    let mut first = Client::connect(fx.addr).unwrap();
    // Complete a round trip so the first connection is fully accepted.
    let response = first
        .roundtrip(&request("/index.html", "Mozilla/5.0 mr-cap-a"))
        .unwrap();
    // No origin is wired, so the accepted connection answers 404.
    assert_eq!(response.status(), StatusCode::NOT_FOUND);
    // Repeat a few times so the rejects sample both listeners.
    for _ in 0..4 {
        let mut second = Client::connect(fx.addr).unwrap();
        let rejected = second.read_response().unwrap();
        assert_eq!(rejected.status(), StatusCode::SERVICE_UNAVAILABLE);
        assert_eq!(rejected.headers().get("Connection"), Some("close"));
    }
    // Releasing the held connection frees the one global slot.
    drop(first);
    std::thread::sleep(Duration::from_millis(100));
    let response = get(fx.addr, "/index.html", "Mozilla/5.0 mr-cap-b");
    assert_eq!(response.status(), StatusCode::NOT_FOUND);
    fx.finish();
}

/// A slow origin fetch parks one connection on one reactor; traffic on
/// the other reactors (and on the same one) keeps moving. With four
/// reactors the fast requests land everywhere, so this exercises
/// cross-reactor independence, not just same-loop fairness.
#[test]
fn slow_origin_stalls_no_other_reactor() {
    let origin = MockOrigin::new()
        .page("/slow.html", PAGE)
        .page("/fast.html", PAGE)
        .latency("/slow.html", Duration::from_millis(1500))
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(23).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = 4;
        },
        Some(origin),
    );
    let addr = fx.addr;
    let slow = std::thread::spawn(move || {
        let started = Instant::now();
        let response = get(addr, "/slow.html", "Mozilla/5.0 mr-slow");
        (response.status(), started.elapsed())
    });
    // Give the slow request time to reach its origin fetch.
    std::thread::sleep(Duration::from_millis(200));
    for i in 0..6 {
        let started = Instant::now();
        let fast = get(addr, "/fast.html", &format!("Mozilla/5.0 mr-fast-{i}"));
        let fast_elapsed = started.elapsed();
        assert_eq!(fast.status(), StatusCode::OK);
        assert!(
            fast_elapsed < Duration::from_millis(1000),
            "neighbor finished in {fast_elapsed:?} while the slow origin hung"
        );
    }
    let (slow_status, slow_elapsed) = slow.join().unwrap();
    assert_eq!(slow_status, StatusCode::OK, "the slow request still lands");
    assert!(
        slow_elapsed >= Duration::from_millis(1400),
        "{slow_elapsed:?}"
    );
    fx.finish();
}

/// Origin pools are per-worker: each reactor that handles traffic opens
/// its own upstream connection (never borrows a neighbor's), so a burst
/// of fresh client sockets spread over two reactors costs at most two
/// origin connects — and the merged report's pool counters still add up
/// to one upstream exchange per request.
#[test]
fn origin_pools_are_per_worker_and_counters_merge() {
    let origin = MockOrigin::new()
        .page("/index.html", PAGE)
        .keep_alive()
        .start()
        .unwrap();
    let origin_addr = origin.addr();
    let fx = Fixture::with(
        Gateway::builder().seed(25).build(),
        |config| {
            config.origin = Some(origin_addr);
            config.threads = 2;
        },
        Some(origin),
    );
    let ua = "Mozilla/5.0 mr-pool";
    // Fresh client connections, so the kernel shards them over both
    // reactors; each reactor reuses whatever it has parked.
    for _ in 0..8 {
        let response = get(fx.addr, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
        assert!(body_str(&response).contains("content"));
    }
    let report = fx.finish();
    assert!(
        (1..=2).contains(&report.origin_connects),
        "at most one origin connect per reactor, saw {}",
        report.origin_connects
    );
    assert_eq!(
        report.origin_connects + report.origin_reuses,
        8,
        "counters merge: one upstream exchange per request"
    );
    assert_eq!(report.origin_retries, 0);
}

/// Shutdown fans out to every reactor, each drains its own connections,
/// and exactly one drain pass classifies the shared session table:
/// every session observed on any reactor is counted once, nothing is
/// left in flight, and the merged report adds up.
#[test]
fn shutdown_drains_all_reactors_and_classifies_each_session_once() {
    let fx = Fixture::on_reactors(4, 24);
    let agents = [
        "Mozilla/5.0 mr-drain-a",
        "Mozilla/5.0 mr-drain-b",
        "wget/1.0 mr-drain-c",
        "Mozilla/5.0 mr-drain-d",
        "curl/7.0 mr-drain-e",
    ];
    for ua in agents {
        let response = get(fx.addr, "/index.html", ua);
        assert_eq!(response.status(), StatusCode::OK);
    }
    // Every leased exchange completed before the drain.
    for ua in agents {
        let in_flight = fx
            .gateway
            .detector()
            .with_key_state(&loopback_key(ua), |_, state| state.in_flight)
            .expect("session exists");
        assert_eq!(in_flight, 0, "{ua} left an exchange in flight");
    }
    let addr = fx.addr;
    let report = fx.finish();
    assert_eq!(report.requests, agents.len() as u64);
    assert_eq!(report.connections, agents.len() as u64);
    assert_eq!(
        report.drained_sessions,
        agents.len(),
        "conservation: every session observed on any reactor is classified at drain"
    );
    // All listeners are gone: new connections are refused (or reset).
    let refused = TcpStream::connect_timeout(&addr, Duration::from_millis(300));
    assert!(
        refused.is_err() || {
            let mut conn = Client::new(refused.unwrap());
            conn.roundtrip(&request("/index.html", "late/1.0")).is_err()
        },
        "the drained server must not accept new work"
    );
}
