//! The population-scale proof obligation (ROADMAP: "millions of
//! users"): one `Arc<Gateway>` holds over a million live sessions
//! in-process, keeps serving Zipf traffic at that occupancy, sweeps the
//! full live set without evicting anything, and drains it all back out
//! with the ledger balanced.
//!
//! Release builds hold the literal ≥ 1M line; debug builds scale the
//! population down (the same code paths, ~10× fewer keys) so plain
//! `cargo test` stays tractable. The throughput numbers live in
//! `benches/capacity.rs` / `BENCH_baseline.json`; this test holds the
//! *correctness* properties at scale.

use botwall::detect::DetectorConfig;
use botwall::gateway::Gateway;
use botwall::sessions::{SimTime, TrackerConfig};
use botwall_bench::{touch, zipf_traffic, Zipf};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Live-session floor: the full million in release, scaled down (same
/// paths, fewer keys) under debug assertions.
fn target() -> u32 {
    if cfg!(debug_assertions) {
        120_000
    } else {
        1_200_000
    }
}

fn capacity_gateway(target: u32) -> Arc<Gateway> {
    // Headroom above the floor so prefill never triggers eviction.
    let cap = target as usize + target as usize / 8;
    Arc::new(
        Gateway::builder()
            .seed(2006)
            .detector(DetectorConfig {
                tracker: TrackerConfig {
                    max_sessions: cap,
                    ..TrackerConfig::default()
                },
            })
            .build(),
    )
}

/// Concurrent prefill over disjoint IP ranges — the multi-core ingest
/// shape — then every capacity property in sequence against the same
/// populated gateway (prefilling a million sessions is the expensive
/// part; do it once).
#[test]
fn million_session_occupancy_traffic_sweep_and_drain() {
    let n = target();
    let gw = capacity_gateway(n);
    let threads = 8u32;
    let span_ms = 60_000u64;

    // Prefill from `threads` workers, each owning a disjoint IP range,
    // with arrivals spread over a minute so idle ordering is
    // non-degenerate.
    std::thread::scope(|s| {
        for t in 0..threads {
            let gw = &gw;
            s.spawn(move || {
                let lo = t * (n / threads);
                let hi = if t == threads - 1 {
                    n
                } else {
                    lo + n / threads
                };
                for ip in lo..hi {
                    let at = SimTime::ZERO + (u64::from(ip) * span_ms) / u64::from(n);
                    touch(gw, ip, at);
                }
            });
        }
    });
    let now = SimTime::ZERO + span_ms;

    let stats = gw.stats();
    assert!(
        stats.live_sessions >= n as usize,
        "live-session floor: {} < {n}",
        stats.live_sessions
    );
    assert_eq!(
        stats.requests,
        u64::from(n),
        "one exchange per prefilled client"
    );

    // Zipf traffic at occupancy: the head of the distribution hammers a
    // few hot sessions, the tail touches cold ones — no session is
    // created or lost by revisits.
    let zipf = Zipf::new(n as usize, 1.0);
    let mut rng = ChaCha8Rng::seed_from_u64(72);
    let extra = 50_000u64;
    zipf_traffic(&gw, &zipf, extra, now, &mut rng);
    let stats = gw.stats();
    assert_eq!(stats.live_sessions, n as usize, "revisits create nothing");
    assert_eq!(stats.requests, u64::from(n) + extra);

    // Sweep with nothing idle past the timeout: it must finalize
    // nothing and leave occupancy untouched.
    let swept = gw.sweep(now);
    assert!(
        swept.is_empty(),
        "nothing is idle: sweep finalized {}",
        swept.len()
    );
    assert_eq!(gw.stats().live_sessions, n as usize);

    // Stats/fold parity: the O(1) gauge agrees with an actual walk over
    // every shard.
    let folded = gw.detector().fold_key_states(0usize, |acc, _, _| acc + 1);
    assert_eq!(folded, n as usize, "live gauge vs shard walk");

    // Drain conservation: every live session comes back exactly once,
    // request counts are conserved, and the tracker empties.
    let drained = gw.drain();
    assert_eq!(drained.len(), n as usize, "drain returns every session");
    let drained_requests: u64 = drained.iter().map(|c| c.session.request_count()).sum();
    assert_eq!(
        drained_requests,
        u64::from(n) + extra,
        "request ledger conserved through drain"
    );
    assert_eq!(gw.stats().live_sessions, 0, "drain empties the tracker");
}

/// Ten caps' worth of never-seen keys through a full tracker, from four
/// threads that each give the gateway a sweep slice every 64 requests
/// (what a reactor's tick does): the uncollected casualties stay within
/// a rotation's worth however long the churn runs, the slabs stay
/// within what the shards' shares of a full tracker can peak at and all
/// but stop growing once it is full, and every key is classified exactly
/// once, by a slice or by the drain.
#[test]
fn key_churn_at_the_cap_is_collected_by_slices_and_reuses_its_slots() {
    const CAP: u32 = 4_000;
    const THREADS: u32 = 4;
    const TICK: u32 = 64;
    const BUDGET: usize = 128;
    let keys = 10 * CAP;
    let gw = Arc::new(
        Gateway::builder()
            .seed(2006)
            .detector(DetectorConfig {
                tracker: TrackerConfig {
                    max_sessions: CAP as usize,
                    ..TrackerConfig::default()
                },
            })
            .build(),
    );
    let shards = gw.stats().shard_count;
    // A shard's casualties wait for its turn: one rotation of slices,
    // during which every thread sends TICK requests per slice. Twice
    // that, for threads that are between ticks.
    let pending_bound = 2 * shards * TICK as usize;
    // The slabs' total is the sum of each shard's own high-water mark,
    // so it runs past the live set's own peak by the shards' imbalance.
    // The live set peaks at the cap plus the concurrent overshoot this
    // test allows it at the end. A shard holds a binomial share of it
    // (one key in `shards`), each share peaks at its own time, and over
    // ten caps' worth of inserts a peak of PEAK_SIGMAS standard
    // deviations above the mean is further than any shard gets, let
    // alone all of them.
    const PEAK_SIGMAS: f64 = 4.0;
    let live_bound = (CAP + CAP / 8) as usize;
    let share_sigma = (live_bound as f64 * (shards as f64 - 1.0)).sqrt() / shards as f64;
    let slot_bound = live_bound + (shards as f64 * PEAK_SIGMAS * share_sigma) as usize;
    // "The slabs stop growing": a shard's mark still creeps up as rarer
    // peaks come round, by a deviation or so per doubling of the churn;
    // a slab that did not reuse its vacant slots would grow by a slot
    // per insert, half the churn's keys in its second half.
    let late_growth_bound = (shards as f64 * share_sigma) as usize;
    let slots_halfway = AtomicUsize::new(0);
    let clock = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (gw, slots_halfway, clock) = (&gw, &slots_halfway, &clock);
            s.spawn(move || {
                let per = keys / THREADS;
                for i in 0..per {
                    // Disjoint key ranges; one clock, as reactors
                    // share the wall's: a millisecond per request,
                    // whichever thread sends it. (A clock per thread
                    // lets the scheduler push them seconds apart, and
                    // eviction by last *touch* then drains the shards
                    // unevenly: the slabs' marks ran half again past
                    // the cap whenever another test shared the CPUs.)
                    let now = SimTime::from_millis(clock.fetch_add(1, Ordering::Relaxed));
                    touch(gw, t * per + i, now);
                    if i % TICK == TICK - 1 {
                        let done = gw.sweep_slice(now, BUDGET);
                        assert!(done.len() <= pending_bound + BUDGET);
                        let census = gw.detector().tracker().census();
                        assert!(
                            census.pending <= pending_bound,
                            "{} casualties uncollected",
                            census.pending
                        );
                        assert!(
                            census.slots <= slot_bound,
                            "{} slots, bound {slot_bound}",
                            census.slots
                        );
                        if i < per / 2 {
                            // Every thread's last look before its half.
                            slots_halfway.fetch_max(census.slots, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });

    let slots = gw.detector().tracker().census().slots;
    let slots_halfway = slots_halfway.into_inner();
    assert!(
        slots <= slots_halfway + late_growth_bound,
        "{slots_halfway} slots halfway through the churn, {slots} at its end"
    );
    let stats = gw.stats();
    let live = stats.live_sessions;
    assert!(live >= CAP as usize && live <= live_bound);
    assert_eq!(stats.evicted_sessions, u64::from(keys) - live as u64);
    assert!(
        stats.completed_sessions >= stats.evicted_sessions - pending_bound as u64,
        "slices classified {} of {} evictions",
        stats.completed_sessions,
        stats.evicted_sessions
    );
    let drained = gw.drain().len() as u64;
    assert_eq!(
        stats.completed_sessions + drained,
        u64::from(keys),
        "every key classified exactly once"
    );
    assert_eq!(gw.stats().completed_sessions, u64::from(keys));
    let census = gw.detector().tracker().census();
    assert_eq!((census.live, census.pending, census.slots), (0, 0, 0));
}
