//! Every answer the front door makes without the origin, pinned byte for
//! byte as it leaves the live server: the gate's refusals and probe
//! objects, the server's own `400`, `408` and over-cap `503`, and the
//! `404` and `502` of a lease no origin answered (with what the gateway
//! counted of them). Each expected string is what the server sent before
//! these answers were written as fixed bytes (a `Response` built,
//! re-headed and serialized); a script's body is the session's and only
//! its head is pinned around it.
//!
//! `PIN_DUMP=1 cargo test -p botwall-serve --test answer_bytes --
//! --nocapture` prints what the server sends instead of checking it.

mod support;

use botwall_core::classifier::{Reason, Verdict};
use botwall_http::request::ClientIp;
use botwall_serve::READ_TIMEOUT;
use botwall_sessions::SessionKey;
use std::io::Write;
use std::net::TcpListener;
use support::{exchange, get, read_raw, Fixture, ASSET_PATH};

const GIF: &[u8] = &[
    0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00, 0x00,
    0xff, 0xff, 0xff, 0x21, 0xf9, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0x2c, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0x01, 0x00, 0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3b,
];

const JPEG: &[u8] = &[
    0xff, 0xd8, 0xff, 0xe0, 0x00, 0x10, 0x4a, 0x46, 0x49, 0x46, 0x00, 0x01, 0x01, 0x00, 0x00, 0x01,
    0x00, 0x01, 0x00, 0x00, 0xff, 0xd9,
];

fn dumping() -> bool {
    std::env::var_os("PIN_DUMP").is_some()
}

/// Checks `raw` against `expected` (or prints it, dumping).
fn pin(what: &str, raw: &[u8], expected: &[u8]) {
    if dumping() {
        println!("{what}: {:?}", String::from_utf8_lossy(raw));
        return;
    }
    assert_eq!(
        String::from_utf8_lossy(raw),
        String::from_utf8_lossy(expected),
        "{what}"
    );
    assert_eq!(raw, expected, "{what}");
}

fn with_body(head: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = head.as_bytes().to_vec();
    raw.extend_from_slice(body);
    raw
}

fn loopback_key(ua: &str) -> SessionKey {
    SessionKey::new(ClientIp::new(0x7f00_0001), ua)
}

#[test]
fn the_gates_answers_are_the_bytes_they_always_were() {
    let fx = Fixture::start(|_| {}, || {});
    let mut conn = fx.connect();

    // A browser's walk: the page, its script, every probe.
    let human = "Mozilla/5.0 pin-human";
    let probes = support::browse(&mut conn, human);
    let css = exchange(&mut conn, &get(&probes.css, human, false));
    pin(
        "css",
        &css,
        b"HTTP/1.1 200 OK\r\nContent-Type: text/css\r\nCache-Control: no-cache, no-store\r\n\
          Content-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );
    let object = |content_type: &str, body: &[u8], close: &str| {
        with_body(
            &format!(
                "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\
                 Cache-Control: no-cache, no-store\r\nConnection: {close}\r\n\r\n",
                body.len()
            ),
            body,
        )
    };
    let pixel = exchange(&mut conn, &get(&probes.pixel, human, false));
    pin("pixel", &pixel, &object("image/gif", GIF, "keep-alive"));
    let script = exchange(&mut conn, &get(&probes.script, human, false));
    let source = support::body(&script).to_vec();
    assert!(String::from_utf8_lossy(&source).contains("function "));
    pin(
        "script",
        &script,
        &object("application/x-javascript", &source, "keep-alive"),
    );
    let agent = exchange(&mut conn, &get(&probes.agent_beacon, human, false));
    pin(
        "agent beacon",
        &agent,
        &object("image/gif", GIF, "keep-alive"),
    );
    let mouse = exchange(&mut conn, &get(&probes.mouse_beacon, human, false));
    pin(
        "mouse beacon",
        &mouse,
        &object("image/jpeg", JPEG, "keep-alive"),
    );
    // A client that closes after it is answered is told so.
    let hidden = exchange(&mut conn, &get(&probes.hidden_link, human, true));
    pin(
        "hidden link",
        &hidden,
        &object(
            "text/html",
            b"<html><body>nothing to see</body></html>",
            "close",
        ),
    );

    // A blocked robot: 403, keep-alive and close.
    let robot = "scraper/1.0 pin-robot";
    let mut conn = fx.connect();
    exchange(&mut conn, &get(ASSET_PATH, robot, false));
    fx.gateway
        .detector()
        .with_key_state(&loopback_key(robot), |_, state| state.policy.block());
    let refused = exchange(&mut conn, &get(ASSET_PATH, robot, false));
    pin(
        "403",
        &refused,
        b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );
    let refused = exchange(&mut conn, &get(ASSET_PATH, robot, true));
    pin(
        "403, closing",
        &refused,
        b"HTTP/1.1 403 Forbidden\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );

    // A robot over its rate allowance: 429 once its burst is spent.
    let fast = "scraper/1.0 pin-fast";
    let mut conn = fx.connect();
    exchange(&mut conn, &get(ASSET_PATH, fast, false));
    fx.gateway
        .detector()
        .with_key_state(&loopback_key(fast), |_, state| {
            state.verdict = Verdict::ProvisionalRobot(Reason::NoBrowserSignals)
        });
    let throttled = (0..8)
        .map(|_| exchange(&mut conn, &get(ASSET_PATH, fast, false)))
        .find(|raw| !raw.starts_with(b"HTTP/1.1 200"))
        .expect("the robot's burst runs out");
    pin(
        "429",
        &throttled,
        b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );

    // The server's own refusal of a request it cannot read.
    let mut conn = fx.connect();
    conn.write_all(b"NOT AN HTTP LINE\r\n\r\n").unwrap();
    pin(
        "400",
        &read_raw(&mut conn),
        b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    fx.finish();
}

#[test]
fn the_servers_own_answers_are_the_bytes_they_always_were() {
    // A request that never finishes arriving.
    let fx = Fixture::start(|_| {}, || {});
    let mut conn = fx.connect();
    conn.write_all(b"GET /index.html HTTP/1.1\r\nUser-Agent: slow")
        .unwrap();
    fx.advance_until_readable(&conn, READ_TIMEOUT);
    pin(
        "408",
        &read_raw(&mut conn),
        b"HTTP/1.1 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    );
    fx.finish();

    // A connection over the cap.
    let fx = Fixture::start(|c| c.max_connections = 1, || {});
    let mut first = fx.connect();
    exchange(&mut first, &get(ASSET_PATH, "Mozilla/5.0 pin-cap", false));
    let mut second = fx.connect();
    pin(
        "503",
        &read_raw(&mut second),
        b"HTTP/1.1 503 Service Unavailable\r\nConnection: close\r\nContent-Length: 0\r\n\r\n",
    );
    drop((first, second));
    fx.finish();
}

/// Checks what the gateway counted after one exchange against `expected`
/// `(requests, served, total_bytes)` (or prints it, dumping).
fn pin_stats(what: &str, fx: &Fixture, expected: (u64, u64, u64)) {
    let stats = fx.gateway.stats();
    let counted = (stats.requests, stats.served, stats.total_bytes);
    if dumping() {
        println!("{what} stats: {counted:?}");
        return;
    }
    assert_eq!(counted, expected, "{what}");
}

/// A lease no origin answered is committed all the same, and the server's
/// own empty answer is what it sends and what the gateway counts: the
/// bytes and counts recorded on a server that committed such a lease as
/// a whole `Origin::Response`.
#[test]
fn a_fetch_that_never_reached_an_origin_is_the_bytes_it_always_was() {
    let ua = "Mozilla/5.0 pin-fetch";
    // No origin configured.
    let fx = Fixture::start(|c| c.origin = None, || {});
    let raw = exchange(&mut fx.connect(), &get(ASSET_PATH, ua, false));
    pin(
        "404, no origin",
        &raw,
        b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );
    pin_stats("404, no origin", &fx, (1, 1, 108));
    fx.finish();

    // An origin nobody listens at.
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let fx = Fixture::start(move |c| c.origin = Some(dead), || {});
    let raw = exchange(&mut fx.connect(), &get(ASSET_PATH, ua, false));
    pin(
        "502, dead origin",
        &raw,
        b"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 0\r\nConnection: keep-alive\r\n\r\n",
    );
    pin_stats("502, dead origin", &fx, (1, 1, 110));
    fx.finish();
}
