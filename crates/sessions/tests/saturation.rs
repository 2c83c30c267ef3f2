//! Saturation edge cases: the tracker at *exactly* `max_sessions`, and
//! past it under concurrent inserts. The capacity harness measures what
//! this costs; these tests pin down what must stay true — the live
//! bound holds, every eviction picks the deterministic victim (most
//! idle, ties broken toward the smaller key), nothing is lost through
//! the eviction path, and the per-shard atomic gauges never drift from
//! a ground-truth walk over the live set.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_sessions::{
    Gate, SessionExt, SessionKey, ShardedTracker, SimTime, TrackerConfig, EXT_GAUGES,
};

fn req(ip: u32, path: u32) -> Request {
    Request::builder(Method::Get, format!("http://s.example/p{path}.html"))
        .header("User-Agent", "sat-test/1.0")
        .client(ClientIp::new(ip))
        .build()
        .unwrap()
}

fn ok() -> Response {
    Response::empty(StatusCode::OK)
}

fn cfg(max_sessions: usize) -> TrackerConfig {
    TrackerConfig {
        max_sessions,
        shards: 8,
        ..TrackerConfig::default()
    }
}

/// At exactly `max_sessions` nothing is evicted; the first insert past
/// the cap evicts exactly one session — the globally most idle.
#[test]
fn exactly_at_cap_holds_everyone_one_past_cap_evicts_the_most_idle() {
    const CAP: usize = 500;
    let t: ShardedTracker<()> = ShardedTracker::new(cfg(CAP));

    // Fill to the brim with staggered arrivals: ip 0 is the most idle.
    for ip in 0..CAP as u32 {
        t.observe(&req(ip, 0), &ok(), SimTime::ZERO + u64::from(ip) * 10);
    }
    assert_eq!(t.live_count(), CAP, "exactly at cap, everyone lives");

    // A sweep with nothing idle past the timeout is a no-op.
    let now = SimTime::ZERO + CAP as u64 * 10;
    assert!(t.sweep(now).is_empty(), "at-cap sweep must evict nothing");
    assert_eq!(t.live_count(), CAP);

    // One insert past the cap: the bound holds and the casualty is the
    // most idle session (ip 0), nothing else.
    t.observe(&req(CAP as u32, 0), &ok(), now);
    assert_eq!(t.live_count(), CAP, "the live bound holds past the cap");
    let casualties = t.sweep(now);
    assert_eq!(casualties.len(), 1, "exactly one eviction casualty");
    assert_eq!(
        casualties[0].key().ip(),
        ClientIp::new(0),
        "the most idle session is the victim"
    );
}

/// Equally idle candidates: the victim is chosen by key order (smaller
/// key loses), never by map iteration order — repeated runs agree.
#[test]
fn eviction_tie_break_is_deterministic_at_the_cap() {
    const CAP: usize = 64;
    for _ in 0..8 {
        let t: ShardedTracker<()> = ShardedTracker::new(cfg(CAP));
        // Every prefilled session has the IDENTICAL last_seen.
        let mut keys = Vec::new();
        for ip in 0..CAP as u32 {
            keys.push(t.observe(&req(ip, 0), &ok(), SimTime::ZERO));
        }
        let smallest = keys.iter().min().cloned().expect("nonempty");

        t.observe(&req(CAP as u32, 0), &ok(), SimTime::from_secs(5));
        let casualties = t.sweep(SimTime::from_secs(5));
        assert_eq!(casualties.len(), 1);
        assert_eq!(
            *casualties[0].key(),
            smallest,
            "equal idleness must tie-break toward the smallest key"
        );
    }
}

/// Concurrent inserts well past the cap: the live census stays inside
/// the best-effort envelope, and drain returns every session exactly
/// once with the full request ledger — eviction loses nothing.
///
/// The envelope, not an exact bound: inserts that race past the cap
/// check all land. Each keeps evicting while the count is still at the
/// cap, so the overshoot is the inserts in flight at one moment — at
/// most one per thread — and never accumulates across races.
#[test]
fn concurrent_inserts_past_cap_bound_live_and_conserve_requests() {
    const CAP: usize = 400;
    const THREADS: u32 = 8;
    const PER_THREAD: u32 = 300; // 2400 keys through a 400-slot tracker
    let t: ShardedTracker<()> = ShardedTracker::new(cfg(CAP));
    const SLACK: usize = THREADS as usize;

    std::thread::scope(|s| {
        for th in 0..THREADS {
            let t = &t;
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let ip = th * PER_THREAD + i;
                    t.observe(&req(ip, 0), &ok(), SimTime::ZERO + u64::from(i));
                    assert!(
                        t.live_count() <= CAP + SLACK,
                        "live bound violated under concurrent ingest"
                    );
                }
            });
        }
    });

    let total = u64::from(THREADS * PER_THREAD);
    assert!(
        t.live_count() <= CAP + SLACK && t.live_count() >= CAP,
        "saturated after the storm: {}",
        t.live_count()
    );
    let drained = t.drain();
    assert_eq!(
        drained.len() as u64,
        total,
        "every key surfaces exactly once (live or casualty)"
    );
    let requests: u64 = drained.iter().map(|s| s.request_count()).sum();
    assert_eq!(requests, total, "no exchange lost through eviction");
    assert_eq!(t.live_count(), 0, "drain empties the tracker");
}

/// Past the exact-scan bound (a shard larger than the per-shard sample
/// of 32), eviction samples the creation-order candidate queue instead
/// of walking the whole live map: the live bound holds at every insert,
/// every victim is drawn from the idle prefill (never a fresh insert),
/// and two trackers fed the identical history pick identical victim
/// sequences — queue order, not map iteration order.
#[test]
fn bounded_eviction_is_deterministic_and_targets_the_idle() {
    const CAP: usize = 100; // one shard, well past the sample bound
    fn run() -> Vec<SessionKey> {
        let t: ShardedTracker<()> = ShardedTracker::new(TrackerConfig {
            max_sessions: CAP,
            shards: 1,
            ..TrackerConfig::default()
        });
        // Staggered arrivals: smaller ip ⇒ more idle.
        for ip in 0..CAP as u32 {
            t.observe(&req(ip, 0), &ok(), SimTime::ZERO + u64::from(ip));
        }
        let prefill_end = SimTime::ZERO + CAP as u64;
        let now = SimTime::from_secs(60);
        for ip in CAP as u32..(CAP as u32 + 50) {
            t.observe(&req(ip, 0), &ok(), now);
            assert_eq!(t.live_count(), CAP, "live bound holds at every insert");
        }
        let casualties = t.sweep(now);
        assert_eq!(casualties.len(), 50, "one casualty per insert past cap");
        for c in &casualties {
            assert!(
                c.last_seen() < prefill_end,
                "victims come from the idle prefill, not the fresh inserts"
            );
        }
        casualties.iter().map(|c| c.key().clone()).collect()
    }
    assert_eq!(run(), run(), "identical history, identical victims");
}

/// A gauged extension for fold-parity checks: each session contributes
/// a deterministic occupancy to both gauge columns.
#[derive(Debug, Default)]
struct Gauged {
    tokens: u64,
    challenges: u64,
}

impl SessionExt for Gauged {
    type Carry = u64;

    fn absorb(&mut self, carry: u64, _session: &botwall_sessions::Session) {
        self.tokens += carry;
    }

    fn gauge(&self) -> [u64; EXT_GAUGES] {
        [self.tokens, self.challenges]
    }
}

/// The per-shard atomic gauges stay exactly in sync with a ground-truth
/// fold over the live entries — through saturation, eviction, carry
/// absorption, and drain.
#[test]
fn gauge_totals_match_the_fold_through_saturation_and_eviction() {
    const CAP: usize = 200;
    let t: ShardedTracker<Gauged> = ShardedTracker::new(cfg(CAP));

    // Stash a carry for a key that is not live yet: it must be absorbed
    // into the gauge the moment the session is created.
    let carried_key = SessionKey::of(&req(7, 0));
    t.with_entry_and_carry(&carried_key, SimTime::ZERO, |live, carry| {
        assert!(live.is_none(), "key 7 has no session yet");
        *carry = Some(3);
    });

    // Push 50% past the cap so evictions interleave with inserts, each
    // session carrying a distinct gauge contribution.
    for ip in 0..(CAP as u32 * 3 / 2) {
        let now = SimTime::ZERO + u64::from(ip) * 10;
        t.begin_exchange(&req(ip, 0).view(), now, |entry| {
            let ext = entry.ext();
            ext.tokens += u64::from(ip % 5);
            ext.challenges += u64::from(ip % 3);
            Gate::<(), ()>::Finish(())
        });
    }
    assert_eq!(t.live_count(), CAP);

    let folded = t.fold_entries([0u64; EXT_GAUGES], |mut acc, _, ext| {
        let g = ext.gauge();
        acc[0] += g[0];
        acc[1] += g[1];
        acc
    });
    assert_eq!(
        t.gauge_totals(),
        folded,
        "atomic gauges must match the ground-truth walk after eviction churn"
    );
    assert_eq!(
        t.shard_sizes().iter().sum::<usize>(),
        t.live_count(),
        "shard sizes fold to the live total"
    );

    // If key 7 is still live, its absorbed carry is visible in the fold.
    if let Some(tokens) = t.with_entry(&carried_key, |_, ext| ext.tokens) {
        assert!(tokens >= 3 + 2, "carry (3) + own contribution (7 % 5)");
    }

    // Draining removes every contribution from the gauges.
    t.drain();
    assert_eq!(
        t.gauge_totals(),
        [0u64; EXT_GAUGES],
        "empty tracker, zero gauges"
    );
}
