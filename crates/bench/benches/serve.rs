//! The front door on the scale: one full loopback round trip per
//! iteration — TCP connect is amortised away by keep-alive, so the row
//! prices accept-to-answer latency through the event loop, the HTTP
//! framing, the gateway's deferred two-phase protocol, and the origin
//! fetch over a second non-blocking connection.
//!
//! Every iteration uses a fresh User-Agent, so each request creates its
//! own session and takes the first-contact path (session insert +
//! page instrumentation) — the worst-case row, not the warm-cache one.
//!
//! The serial row comes in two variants that differ only in upstream
//! connection handling: `serve_loopback` pins `origin_pool: 0` against a
//! close-per-request origin (a fresh TCP connect inside every
//! iteration), and `serve_loopback_pooled` runs the pooled default
//! against a keep-alive origin (after the first iteration every fetch
//! rides the parked connection). The gap between the rows is the price
//! of an origin connect on this loopback.
//!
//! The `reactor` group prices the event loop's own fixed costs, the
//! part of every request that is neither kernel nor library: re-arming
//! a deadline (a connection does it two or three times a request) and
//! one `poll` that finds one descriptor ready.

use botwall_gateway::Gateway;
use botwall_http::{Method, Request};
use botwall_serve::client::Client;
use botwall_serve::{MockOrigin, ServeConfig, Server};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reactor::{Interest, Reactor, Token};
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: &str = "<html><head><title>bench</title></head>\
<body><p>loopback page</p><a href=\"/about.html\">about</a></body></html>";

fn bench_loopback_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    group.throughput(Throughput::Elements(1));
    for (name, keep_alive_origin, origin_pool) in [
        ("serve_loopback", false, 0usize),
        (
            "serve_loopback_pooled",
            true,
            ServeConfig::default().origin_pool,
        ),
    ] {
        let mut origin = MockOrigin::new().page("/index.html", PAGE);
        if keep_alive_origin {
            origin = origin.keep_alive();
        }
        let origin = origin.start().unwrap();
        let gateway = Arc::new(Gateway::builder().seed(91).build());
        let config = ServeConfig {
            origin: Some(origin.addr()),
            origin_pool,
            ..ServeConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&gateway), config).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());

        group.bench_function(name, |b| {
            let mut conn = Client::connect(addr).unwrap();
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                let request = Request::builder(Method::Get, "/index.html")
                    .header("User-Agent", format!("bench/{i}"))
                    .header("Host", "bench.example")
                    .build()
                    .unwrap();
                let response = conn.roundtrip(&request).unwrap();
                assert!(response.status().is_success());
            })
        });

        shutdown.shutdown();
        join.join().unwrap().unwrap();
        drop(origin);
    }
    group.finish();
}

/// The same round trip under concurrency: four keep-alive client
/// threads share the port, the server runs `reactors` event loops
/// behind SO_REUSEPORT, and the row prices mean per-request latency at
/// that offered load. On a single-core container the three rows sit
/// flat — one core serializes the reactors — so the point of recording
/// them is the multi-core re-record: on real hardware the 2- and
/// 4-reactor rows should pull away from the 1-reactor row.
fn bench_parallel_roundtrip(c: &mut Criterion) {
    const CLIENTS: u64 = 4;
    let mut group = c.benchmark_group("serve_parallel");
    group.throughput(Throughput::Elements(1));
    for reactors in [1usize, 2, 4] {
        let origin = MockOrigin::new().page("/index.html", PAGE).start().unwrap();
        let gateway = Arc::new(Gateway::builder().seed(92 + reactors as u64).build());
        let config = ServeConfig {
            origin: Some(origin.addr()),
            threads: reactors,
            ..ServeConfig::default()
        };
        let mut server = Server::bind("127.0.0.1:0", Arc::clone(&gateway), config).unwrap();
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());

        // Fresh User-Agent per request across all samples, same as the
        // serial row: every request is a first-contact session.
        let next_ua = AtomicU64::new(0);
        group.bench_with_input(BenchmarkId::new("reactors", reactors), &reactors, |b, _| {
            b.iter_custom(|iters| {
                let started = Instant::now();
                std::thread::scope(|scope| {
                    for t in 0..CLIENTS {
                        let share = iters / CLIENTS + u64::from(iters % CLIENTS > t);
                        let next_ua = &next_ua;
                        scope.spawn(move || {
                            let mut conn = Client::connect(addr).unwrap();
                            for _ in 0..share {
                                let i = next_ua.fetch_add(1, Ordering::Relaxed);
                                let request = Request::builder(Method::Get, "/index.html")
                                    .header("User-Agent", format!("bench/{i}"))
                                    .header("Host", "bench.example")
                                    .build()
                                    .unwrap();
                                let response = conn.roundtrip(&request).unwrap();
                                assert!(response.status().is_success());
                            }
                        });
                    }
                });
                started.elapsed()
            })
        });

        shutdown.shutdown();
        join.join().unwrap().unwrap();
        drop(origin);
    }
    group.finish();
}

/// The event loop's fixed costs. `deadline_rearm` refreshes one live
/// token's timeout, `deadline_rearm_1k_tokens` does the same round-robin
/// over a thousand (the per-token table's cache behaviour), and
/// `poll_ready` is one `poll` with one descriptor ready and one deadline
/// armed: the `epoll_wait`, the clock read and the look at the wheel.
fn bench_reactor(c: &mut Criterion) {
    const TIMEOUT: Duration = Duration::from_secs(10);
    let mut group = c.benchmark_group("reactor");
    group.throughput(Throughput::Elements(1));
    group.bench_function("deadline_rearm", |b| {
        let mut reactor = Reactor::new().unwrap();
        b.iter(|| reactor.deadline(black_box(Token(1)), black_box(TIMEOUT)))
    });
    group.bench_function("deadline_rearm_1k_tokens", |b| {
        let mut reactor = Reactor::new().unwrap();
        let mut next = 0usize;
        b.iter(|| {
            next = (next + 1) % 1000;
            reactor.deadline(black_box(Token(next)), black_box(TIMEOUT))
        })
    });
    group.bench_function("poll_ready", |b| {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut reactor = Reactor::new().unwrap();
        reactor
            .register(&server, Token(1), Interest::READABLE)
            .unwrap();
        reactor.deadline(Token(1), TIMEOUT);
        // Never read: level-triggered, so every poll reports it again.
        client.write_all(b"x").unwrap();
        let mut events = Vec::new();
        b.iter(|| {
            reactor
                .poll(&mut events, Some(Duration::from_millis(500)))
                .unwrap();
            assert_eq!(events.len(), 1);
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_loopback_roundtrip,
    bench_parallel_roundtrip,
    bench_reactor
);
criterion_main!(benches);
