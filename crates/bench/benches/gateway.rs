//! Head-of-line isolation at the gateway: one session's origin sleeps
//! while a neighbour on the same tracker shard keeps being served. The
//! per-call costs of the gate, the lease and the commit are
//! `benchmark/`'s `gateway.*` metrics; this bench holds what that
//! harness cannot, a slow origin beside a fast one.

use botwall_gateway::{Decision, Gateway, Origin};
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_sessions::{SessionKey, SimTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const HTML: &str = "<html><head><title>b</title></head><body><p>payload</p></body></html>";

fn req(ip: u32, uri: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", "bench-agent/1.0")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

/// Proves a session human (page + mouse beacon) so its steady-state
/// requests are pure origin serves.
fn prove_human(gw: &Gateway, ip: u32, clock: SimTime) {
    let d = gw.handle_with(&req(ip, "http://bench.example/index.html"), clock, |_| {
        Origin::Page(HTML.into())
    });
    let Decision::Serve { manifest, .. } = d else {
        unreachable!("fresh sessions are served");
    };
    let beacon = manifest.unwrap().mouse_beacon.unwrap();
    let d = gw.handle(&req(ip, &beacon.to_string()), clock + 10);
    assert!(
        matches!(d.verdict(), Some(v) if v.is_final()),
        "session must be proven human before the steady-state loop"
    );
}

/// One session's origin sleeps per fetch (0 / 100µs / 1ms) in a
/// background thread while the measured session, pinned to the SAME
/// tracker shard, serves ordinary origin requests. No lock spans an
/// origin fetch, so the neighbor's row should stay within noise of its
/// zero-latency row at every latency; a lock held across the fetch
/// would collapse it to the origin's latency.
fn bench_slow_origin(c: &mut Criterion) {
    let mut group = c.benchmark_group("slow_origin");
    group.throughput(Throughput::Elements(1));
    for (label, latency) in [
        ("0", Duration::ZERO),
        ("100us", Duration::from_micros(100)),
        ("1ms", Duration::from_millis(1)),
    ] {
        group.bench_with_input(
            BenchmarkId::new("same_shard_neighbor", label),
            &latency,
            |b, &latency| {
                let gw = Arc::new(Gateway::builder().seed(46).build());
                let shards = gw.stats().shard_count as u64;
                let shard_of = |ip: u32| {
                    SessionKey::of(&req(ip, "http://bench.example/x.html")).shard_hash() % shards
                };
                let slow_ip = 90_000u32;
                let neighbor_ip = (90_001..99_999u32)
                    .find(|ip| shard_of(*ip) == shard_of(slow_ip))
                    .expect("same-shard neighbor exists");
                prove_human(&gw, slow_ip, SimTime::ZERO);
                prove_human(&gw, neighbor_ip, SimTime::ZERO);

                let stop = Arc::new(AtomicBool::new(false));
                let slow = {
                    let gw = Arc::clone(&gw);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut clock = SimTime::from_secs(1);
                        let mut i = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            clock += 20;
                            i += 1;
                            let r = req(slow_ip, &format!("http://bench.example/s{}.html", i % 64));
                            gw.handle_with(&r, clock, |_| {
                                if latency > Duration::ZERO {
                                    std::thread::sleep(latency);
                                }
                                Origin::Response(Response::empty(StatusCode::OK))
                            });
                        }
                    })
                };

                let mut clock = SimTime::from_secs(1);
                let mut i = 0u64;
                b.iter(|| {
                    clock += 20;
                    i += 1;
                    let r = req(
                        neighbor_ip,
                        &format!("http://bench.example/n{}.html", i % 64),
                    );
                    black_box(gw.handle_with(&r, clock, |_| {
                        Origin::Response(Response::empty(StatusCode::OK))
                    }))
                });
                stop.store(true, Ordering::Relaxed);
                slow.join().unwrap();
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_slow_origin);
criterion_main!(benches);
