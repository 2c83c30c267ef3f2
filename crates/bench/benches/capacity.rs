//! Population-scale capacity rows: what a gateway costs when it is
//! *full*. Occupancy is prefilled outside every measured region; the
//! rows then isolate (a) handle latency under Zipf traffic at
//! million-session occupancy, (b) sweep cost with the full live set
//! and nothing idle, (c) eviction pressure once the session cap is hit
//! (each insert finalizes the idlest session first), (d) one sweep
//! slice of the live server's tick, with nothing idle and with
//! everything idle, and (e) carry-channel stash cost at the per-shard
//! carry bound (the min-key drop path).
//!
//! Passing `--quick` (the CI smoke mode) scales the populations down;
//! the benchmark IDs carry the scale, so quick rows never collide with
//! the full-scale rows recorded in `BENCH_baseline.json`.

use botwall_bench::{touch, Zipf};
use botwall_core::DetectorConfig;
use botwall_gateway::Gateway;
use botwall_http::request::ClientIp;
use botwall_http::{Method, Request};
use botwall_sessions::{SessionKey, SessionTracker, SimTime, TrackerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// CI smoke mode: scaled-down populations, same measured paths.
fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

fn req(ip: u32, uri: &str) -> Request {
    Request::builder(Method::Get, uri)
        .header("User-Agent", "bench-agent/1.0")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

/// A gateway sized to hold `cap` live sessions.
fn gateway_with_cap(cap: usize, seed: u64) -> Gateway {
    Gateway::builder()
        .seed(seed)
        .detector(DetectorConfig {
            tracker: TrackerConfig {
                max_sessions: cap,
                ..TrackerConfig::default()
            },
        })
        .build()
}

/// Occupancy rows: handle latency and sweep cost with the tracker
/// holding `n` live sessions.
fn bench_occupancy(c: &mut Criterion) {
    let n: u32 = if quick() { 20_000 } else { 1_000_000 };
    let gw = gateway_with_cap(n as usize + n as usize / 8, 71);
    // Spread arrivals over a minute so idle ordering is non-degenerate,
    // then keep the clock close: nothing expires mid-measurement.
    let now = botwall_bench::prefill(&gw, n, SimTime::ZERO, 60_000);
    assert_eq!(gw.stats().live_sessions, n as usize, "prefill holds");

    let mut group = c.benchmark_group("capacity");
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("handle_zipf_at_occupancy", n),
        &n,
        |b, &n| {
            let zipf = Zipf::new(n as usize, 1.0);
            let mut rng = ChaCha8Rng::seed_from_u64(72);
            b.iter(|| {
                let client = zipf.sample(&mut rng) as u32;
                touch(&gw, black_box(client), now);
            })
        },
    );
    group.finish();

    let mut group = c.benchmark_group("capacity");
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_with_input(BenchmarkId::new("sweep_at_occupancy", n), &n, |b, _| {
        b.iter_custom(|iters| {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                // Nothing is idle past the timeout: sixteen locks and
                // sixteen looks at a cold end.
                black_box(gw.sweep(now));
                elapsed += start.elapsed();
            }
            elapsed
        })
    });
    group.finish();
    assert_eq!(
        gw.stats().live_sessions,
        n as usize,
        "sweep at occupancy must evict nothing"
    );
}

/// Eviction pressure: the session cap is hit, and every further insert
/// first finalizes the session at the cold end of the idlest shard.
fn bench_eviction_pressure(c: &mut Criterion) {
    let cap: u32 = if quick() { 2_000 } else { 50_000 };
    let gw = gateway_with_cap(cap as usize, 73);
    let now = botwall_bench::prefill(&gw, cap, SimTime::ZERO, 60_000);

    let mut group = c.benchmark_group("capacity");
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("eviction_pressure_at_cap", cap),
        &cap,
        |b, &cap| {
            let mut ip = cap;
            b.iter(|| {
                ip = ip.wrapping_add(1);
                touch(&gw, black_box(ip), now);
            })
        },
    );
    group.finish();
}

/// What `botwall-serve` gives one sweep slice (its `SWEEP_BUDGET`).
const TICK_BUDGET: usize = 128;

/// One sweep slice at 100k live sessions: the stall a reactor takes per
/// tick. With nothing idle it is one shard's lock and one look at its
/// cold end (a slice reads nothing of a live session); with every
/// session idle it also finalizes, classifies and frees `TICK_BUDGET`
/// sessions.
fn bench_sweep_slice(c: &mut Criterion) {
    let n: u32 = if quick() { 10_000 } else { 100_000 };
    let gw = gateway_with_cap(n as usize + n as usize / 8, 74);
    let now = botwall_bench::prefill(&gw, n, SimTime::ZERO, 60_000);

    let mut group = c.benchmark_group("capacity");
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("sweep_slice_nothing_idle", n),
        &n,
        |b, _| b.iter(|| black_box(gw.sweep_slice(now, TICK_BUDGET))),
    );
    assert_eq!(gw.stats().live_sessions, n as usize, "nothing was idle");

    let later = now + 2 * 3_600_000;
    group.throughput(Throughput::Elements(TICK_BUDGET as u64));
    group.bench_with_input(
        BenchmarkId::new("sweep_slice_all_expired", n),
        &n,
        |b, &n| {
            b.iter_custom(|iters| {
                let mut elapsed = Duration::ZERO;
                for _ in 0..iters {
                    // Untimed: keep every shard's cold end expired.
                    if gw.stats().live_sessions < n as usize / 2 {
                        botwall_bench::prefill(&gw, n, SimTime::ZERO, 60_000);
                    }
                    let start = Instant::now();
                    let done = gw.sweep_slice(later, TICK_BUDGET);
                    assert_eq!(done.len(), TICK_BUDGET);
                    drop(black_box(done));
                    elapsed += start.elapsed();
                }
                elapsed
            })
        },
    );
    group.finish();
}

/// Carry-channel saturation: stash cost once a shard's deferred-carry
/// bound (its share of `max_sessions`) is reached and each stash must
/// drop the least recently parked.
fn bench_carry_saturation(c: &mut Criterion) {
    let per_shard: usize = if quick() { 512 } else { 8_192 };
    let shards = 16usize;
    let tracker: SessionTracker = SessionTracker::new(TrackerConfig {
        shards,
        max_sessions: per_shard * shards,
        ..TrackerConfig::default()
    });
    // Saturate every shard: all keys are dead (no session was ever
    // created), so each stash lands in the carry channel.
    let total = (per_shard * shards * 5) / 4;
    for ip in 0..total as u32 {
        let key = SessionKey::of(&req(ip, "http://cap.example.com/x.html"));
        tracker.with_entry_and_carry(&key, SimTime::ZERO, |_, carry| *carry = Some(()));
    }
    let carries = tracker.census().carries;
    assert!(carries >= per_shard, "carry channel saturated: {carries}");

    let mut group = c.benchmark_group("capacity");
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("carry_stash_saturated", per_shard),
        &per_shard,
        |b, _| {
            let mut ip = total as u32;
            b.iter(|| {
                ip = ip.wrapping_add(1);
                let key = SessionKey::of(&req(black_box(ip), "http://cap.example.com/x.html"));
                tracker.with_entry_and_carry(&key, SimTime::ZERO, |_, carry| *carry = Some(()));
            })
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_occupancy,
    bench_eviction_pressure,
    bench_sweep_slice,
    bench_carry_saturation
);
criterion_main!(benches);
