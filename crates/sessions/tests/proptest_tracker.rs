//! Property tests for the session tracker's invariants.

use botwall_http::request::ClientIp;
use botwall_http::{Method, Request, Response, StatusCode};
use botwall_sessions::{SessionKey, SessionTracker, SimTime, TrackerConfig};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Event {
    ip: u8,
    ua: u8,
    path: u8,
    gap_ms: u32,
}

fn arb_events() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(
        (0u8..4, 0u8..3, 0u8..16, 0u32..30_000).prop_map(|(ip, ua, path, gap_ms)| Event {
            ip,
            ua,
            path,
            gap_ms,
        }),
        1..120,
    )
}

/// Each event as the tracker saw it: its request and when it was stamped.
fn stamps(events: &[Event]) -> Vec<(Request, SimTime)> {
    let mut now = SimTime::ZERO;
    events
        .iter()
        .map(|e| {
            now += e.gap_ms as u64;
            let req = Request::builder(Method::Get, format!("http://h/p{}.html", e.path))
                .header("User-Agent", format!("ua-{}", e.ua))
                .client(ClientIp::new(e.ip as u32))
                .build()
                .unwrap();
            (req, now)
        })
        .collect()
}

fn replay(events: &[Event], config: TrackerConfig) -> (SessionTracker, u64, SimTime) {
    let t = SessionTracker::new(config);
    let mut end = SimTime::ZERO;
    for (req, now) in stamps(events) {
        t.observe(&req, &Response::empty(StatusCode::OK), now);
        end = now;
    }
    (t, events.len() as u64, end)
}

proptest! {
    /// No request is ever lost: live + finalized request counts sum to
    /// the number of observed events.
    #[test]
    fn conservation_of_requests(events in arb_events()) {
        let (t, total, _) = replay(&events, TrackerConfig::default());
        let drained = t.drain();
        let sum: u64 = drained.iter().map(|s| s.request_count()).sum();
        prop_assert_eq!(sum, total);
    }

    /// Sessions never contain a gap larger than the idle timeout: the
    /// events of a session's key stamped within its `[started,
    /// last_seen]` are exactly the requests it counted, and no two
    /// consecutive ones are more than the timeout apart.
    #[test]
    fn no_internal_gap_exceeds_timeout(events in arb_events()) {
        let config = TrackerConfig { idle_timeout_ms: 10_000, ..TrackerConfig::default() };
        let timeout = config.idle_timeout_ms;
        let (t, _, _) = replay(&events, config);
        let stamped = stamps(&events);
        for s in t.drain() {
            let times: Vec<SimTime> = stamped
                .iter()
                .filter(|(req, at)| {
                    SessionKey::of(req) == *s.key() && (s.started()..=s.last_seen()).contains(at)
                })
                .map(|&(_, at)| at)
                .collect();
            prop_assert_eq!(times.len() as u64, s.request_count());
            for pair in times.windows(2) {
                let gap = pair[1] - pair[0];
                prop_assert!(
                    gap <= timeout,
                    "gap {gap} exceeds timeout inside a session"
                );
            }
        }
    }

    /// A record's index is its place in the log, which holds the first
    /// requests of the session up to its cap of 512.
    #[test]
    fn record_indices_are_contiguous(events in arb_events()) {
        let (t, _, _) = replay(&events, TrackerConfig::default());
        for s in t.drain() {
            prop_assert_eq!(s.records().len() as u64, s.request_count().min(512));
        }
    }

    /// The live-session bound is never exceeded, no matter the stream.
    #[test]
    fn capacity_bound_holds(events in arb_events()) {
        let config = TrackerConfig { max_sessions: 3, ..TrackerConfig::default() };
        let t = SessionTracker::new(config);
        let mut now = SimTime::ZERO;
        for e in &events {
            now += e.gap_ms as u64;
            let req = Request::builder(Method::Get, "http://h/x")
                .header("User-Agent", format!("ua-{}", e.ua))
                .client(ClientIp::new(e.ip as u32))
                .build()
                .unwrap();
            t.observe(&req, &Response::empty(StatusCode::OK), now);
            prop_assert!(t.live_count() <= 3);
        }
    }

    /// Every counter agrees with a recomputation from the record log
    /// when the log was not truncated.
    #[test]
    fn counters_match_records(events in arb_events()) {
        let (t, _, _) = replay(&events, TrackerConfig::default());
        for s in t.drain() {
            if s.request_count() as usize != s.records().len() {
                continue; // Log truncated; counters keep counting.
            }
            let mut recomputed = botwall_sessions::SessionCounters::new();
            for r in s.records() {
                recomputed.update(r);
            }
            prop_assert_eq!(&recomputed, s.counters());
        }
    }

    /// Sweeping at a time beyond every event plus the timeout finalizes
    /// everything.
    #[test]
    fn sweep_past_horizon_finalizes_all(events in arb_events()) {
        let (t, _, end) = replay(&events, TrackerConfig::default());
        let done = t.sweep(end + 3_600_001);
        prop_assert_eq!(t.live_count(), 0);
        prop_assert!(!done.is_empty());
    }
}

// ---------------------------------------------------------------------
// The idle order, model-checked.
//
// The reference keeps what the tracker's per-shard lists are supposed
// to encode — every live key's `(last_seen, touch_seq)` — in a plain
// map and re-derives each answer by sorting it. The clock only moves
// forward (often by zero, so instants are shared), which is the regime
// where the tracker promises exactness; the key universe is small enough
// that a run of equally idle sessions never outgrows the tie walk.

use botwall_sessions::{Begun, ExchangeLease, Gate};
use std::collections::{BTreeMap, BTreeSet};

const MODEL_SHARDS: usize = 2;

fn model_config() -> TrackerConfig {
    TrackerConfig {
        max_sessions: 6,
        idle_timeout_ms: 10_000,
        shards: MODEL_SHARDS,
    }
}

fn model_request(ip: u8) -> Request {
    Request::builder(Method::Get, "http://h/x")
        .header("User-Agent", "model")
        .client(ClientIp::new(u32::from(ip)))
        .build()
        .unwrap()
}

#[derive(Debug, Clone, Copy)]
struct Live {
    last_seen: SimTime,
    touch_seq: u64,
    incarnation: u64,
}

#[derive(Debug, Default)]
struct Model {
    live: BTreeMap<SessionKey, Live>,
    /// Uncollected casualties per shard, in the order they fell.
    pending: [Vec<SessionKey>; MODEL_SHARDS],
    touches: u64,
    incarnations: u64,
    slices: usize,
}

fn shard_of(key: &SessionKey) -> usize {
    (key.shard_hash() % MODEL_SHARDS as u64) as usize
}

impl Model {
    fn fresh(&mut self, now: SimTime) -> Live {
        self.touches += 1;
        self.incarnations += 1;
        Live {
            last_seen: now,
            touch_seq: self.touches,
            incarnation: self.incarnations,
        }
    }

    /// What the tracker does before the gate runs: evict for a
    /// never-seen key at the cap, roll a stale session over, create.
    fn resolve(&mut self, key: &SessionKey, now: SimTime) -> u64 {
        let config = model_config();
        if !self.live.contains_key(key) && self.live.len() >= config.max_sessions {
            let victim = self
                .live
                .iter()
                .map(|(k, l)| (l.last_seen, k.clone()))
                .min()
                .expect("a full tracker has a victim")
                .1;
            self.live.remove(&victim);
            self.pending[shard_of(&victim)].push(victim);
        }
        let stale = self
            .live
            .get(key)
            .is_some_and(|l| now.since(l.last_seen) > config.idle_timeout_ms);
        if stale {
            self.pending[shard_of(key)].push(key.clone());
        }
        if stale || !self.live.contains_key(key) {
            let fresh = self.fresh(now);
            self.live.insert(key.clone(), fresh);
        }
        self.live[key].incarnation
    }

    fn record(&mut self, key: &SessionKey, now: SimTime) {
        self.touches += 1;
        let live = self.live.get_mut(key).expect("recorded into a live key");
        live.last_seen = now;
        live.touch_seq = self.touches;
    }

    /// One shard's reference order: `(last_seen, touch_seq, key)`, sorted.
    fn order(&self, shard: usize) -> Vec<(SimTime, SessionKey)> {
        let set: BTreeSet<(SimTime, u64, SessionKey)> = self
            .live
            .iter()
            .filter(|(k, _)| shard_of(k) == shard)
            .map(|(k, l)| (l.last_seen, l.touch_seq, k.clone()))
            .collect();
        set.into_iter().map(|(t, _, k)| (t, k)).collect()
    }

    /// Pops up to `budget` expired keys off the cold end of `shard`.
    fn expire(&mut self, shard: usize, now: SimTime, budget: usize) -> Vec<SessionKey> {
        let expired: Vec<SessionKey> = self
            .order(shard)
            .into_iter()
            .take_while(|(t, _)| now.since(*t) > model_config().idle_timeout_ms)
            .take(budget)
            .map(|(_, k)| k)
            .collect();
        for k in &expired {
            self.live.remove(k);
        }
        expired
    }
}

fn keys_of(done: &[botwall_sessions::Finalized<()>]) -> Vec<SessionKey> {
    done.iter().map(|f| f.key().clone()).collect()
}

proptest! {
    /// Arbitrary interleavings of recorded exchanges, leases, commits
    /// (some into sessions long gone), abandoned leases, slices, whole
    /// sweeps and drains: after every step the tracker's lists read
    /// exactly as the reference order, every collection returns exactly
    /// the reference's sessions in the documented order, and the census
    /// (which panics if index, slab, links and free list disagree)
    /// counts what the reference counts.
    #[test]
    fn idle_order_matches_the_reference_model(
        ops in proptest::collection::vec((0u8..20, 0u8..12, 0u8..6), 1..200)
    ) {
        let t = SessionTracker::new(model_config());
        let mut model = Model::default();
        let mut leases: Vec<(ExchangeLease, u64)> = Vec::new();
        let mut now = SimTime::ZERO;
        let ok = Response::empty(StatusCode::OK);
        for (op, ip, gap) in ops {
            now += [0, 0, 1, 7, 400, 5_000][gap as usize];
            let request = model_request(ip);
            let key = SessionKey::of(&request);
            match op {
                // A recorded exchange.
                0..=9 => {
                    t.observe(&request, &ok, now);
                    model.resolve(&key, now);
                    model.record(&key, now);
                }
                // A lease: the entry is resolved, nothing is recorded.
                10..=12 => {
                    let (_, _, begun) = t.begin_exchange(&request.view(), now, |_| Gate::<(), ()>::Lease(()));
                    let Begun::Leased((), lease) = begun else {
                        panic!("Gate::Lease leases");
                    };
                    leases.push((lease, model.resolve(&key, now)));
                }
                // The oldest lease commits, live or lost.
                13..=14 if !leases.is_empty() => {
                    let (lease, incarnation) = leases.remove(0);
                    let key = lease.key().clone();
                    let request = model_request(key.ip().as_u32() as u8);
                    let folded = t.commit(lease, &request.view(), now, |_| true, |_, _| false);
                    let live = model.live.get(&key).is_some_and(|l| l.incarnation == incarnation);
                    prop_assert_eq!(folded, live, "commit took the wrong path");
                    if live {
                        model.record(&key, now);
                    }
                }
                // The oldest lease is abandoned.
                15 if !leases.is_empty() => drop(leases.remove(0)),
                // One slice, two sessions' worth.
                16..=17 => {
                    let shard = model.slices % MODEL_SHARDS;
                    model.slices += 1;
                    let mut expected = std::mem::take(&mut model.pending[shard]);
                    expected.extend(model.expire(shard, now, 2));
                    prop_assert_eq!(keys_of(&t.sweep_slice(now, 2)), expected);
                }
                // A whole sweep: per shard, casualties then expired by key.
                18 => {
                    let mut expected = Vec::new();
                    for shard in 0..MODEL_SHARDS {
                        expected.append(&mut model.pending[shard]);
                        let mut expired = model.expire(shard, now, usize::MAX);
                        expired.sort();
                        expected.extend(expired);
                    }
                    prop_assert_eq!(keys_of(&t.sweep(now)), expected);
                }
                // A drain: every casualty, then the live by shard and key.
                19 if ip == 0 => {
                    let mut expected: Vec<SessionKey> =
                        model.pending.iter_mut().flat_map(std::mem::take).collect();
                    for shard in 0..MODEL_SHARDS {
                        expected.extend(model.live.keys().filter(|k| shard_of(k) == shard).cloned());
                    }
                    model.live.clear();
                    prop_assert_eq!(keys_of(&t.drain()), expected);
                }
                _ => {}
            }
            let census = t.census();
            prop_assert_eq!(census.live, model.live.len());
            prop_assert_eq!(t.live_count(), model.live.len());
            prop_assert_eq!(census.pending, model.pending.iter().map(Vec::len).sum::<usize>());
            prop_assert!(census.slots <= MODEL_SHARDS * model_config().max_sessions);
            for (shard, listed) in t.idle_order().iter().enumerate() {
                prop_assert_eq!(listed, &model.order(shard), "shard {}", shard);
            }
        }
    }
}
