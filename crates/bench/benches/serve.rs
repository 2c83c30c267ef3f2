//! The front door under concurrency: four keep-alive client threads
//! share the port while the server runs one, two or four reactors, and
//! every request is a first-contact page serve through the origin. One
//! client's round trip is `benchmark/`'s end to end (`client.serve_us_*`).
//!
//! The `reactor` group prices re-arming a deadline, which a connection
//! does two or three times a request; one `poll` is `benchmark/`'s
//! `reactor.poll_ns`.

use botwall_gateway::Gateway;
use botwall_http::{Method, Request};
use botwall_serve::client::Client;
use botwall_serve::{MockOrigin, ServeConfig, Server};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use reactor::{Reactor, Token};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: &str = "<html><head><title>bench</title></head>\
<body><p>loopback page</p><a href=\"/about.html\">about</a></body></html>";

/// A page round trip under concurrency: four keep-alive client
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

        // Fresh User-Agent per request across all samples: every
        // request is a first-contact session.
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

/// The timer wheel's fixed cost. `deadline_rearm` refreshes one live
/// token's timeout, and `deadline_rearm_1k_tokens` does the same
/// round-robin over a thousand (the per-token table's cache behaviour).
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
    group.finish();
}

criterion_group!(benches, bench_parallel_roundtrip, bench_reactor);
criterion_main!(benches);
