//! CAPTCHA serving strategies.

use crate::challenge::Challenge;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// When challenges are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingPolicy {
    /// The paper's deployment: optional, incentivized with a bandwidth
    /// boost. The service offers a challenge whenever asked; "at most
    /// once per session" is the client's rule
    /// (`botwall_agents::world::Client::offer_captcha`), not the
    /// service's.
    OptionalWithIncentive,
    /// Never serve (control).
    Disabled,
}

/// Default difficulty of served challenges.
const DEFAULT_DIFFICULTY: f64 = 0.5;

/// Stateless challenge generation and verification, plus the serving
/// policy and aggregate pass statistics. [`CaptchaService::issue`] is
/// the one way a challenge is minted.
///
/// Since PR 4 the service keeps **no outstanding-challenge table** (the
/// old global `IssueTable` mutex is gone): a challenge is fully derived
/// from the service seed and its id ([`Challenge::derive`]), so issuing
/// is an atomic counter increment and verification is a re-derivation.
/// *Which* challenge a session must answer is per-session state; the
/// gateway keeps that record colocated with the session's other state in
/// its tracker shard entry. Everything on the request path (issue,
/// policy reads, `check`) is an atomic or immutable — never a lock.
///
/// Single-use is enforced here, globally: a successfully
/// [verified](CaptchaService::verify_once) id is marked in a sliding bit
/// window of redeemed ids (touched only on the rare answer-submission
/// path, never by request handling), so one solved `(id, answer)` pair
/// cannot be replayed — the property the old issue table provided by
/// deleting entries. Marking costs the same however full the window is.
#[derive(Debug)]
pub struct CaptchaService {
    policy: ServingPolicy,
    seed: u64,
    /// The id the next challenge gets: ids start at 1, so every one
    /// below it was issued.
    next_id: AtomicU64,
    passed: AtomicU64,
    failed: AtomicU64,
    /// Ids already redeemed. Only the `verify_*` calls and `burn` (the
    /// human-answers-a-challenge path) ever lock it; the request path
    /// never touches this.
    redeemed: Mutex<Redeemed>,
    /// Monotone validity floor, the redeemed window's: ids below it are
    /// rejected outright. It rises as the window slides, so an id that
    /// falls out of the window can never be replayed — sliding *retires*
    /// history instead of forgetting it (the old issue table got the
    /// same effect by evicting oldest outstanding entries). Read without
    /// the lock by `check`.
    min_valid_id: AtomicU64,
}

/// Ids the redeemed window spans: 2^20, one bit each, 128 KiB. Ids are
/// issued in sequence, so an id this far behind the newest redeemed one
/// belongs to a challenge that is ancient history.
const REDEEMED_WINDOW_IDS: u64 = 1 << 20;

/// Which ids of `[floor, floor + span)` were redeemed: one bit an id, in
/// a ring of words indexed by the id modulo the span. Every id below
/// `floor` counts as redeemed (retired).
#[derive(Debug)]
struct Redeemed {
    floor: u64,
    words: Box<[u64]>,
}

impl Redeemed {
    /// An empty window of `span` ids (a multiple of 64) from id 1, the
    /// first one issued.
    fn new(span: u64) -> Redeemed {
        assert!(span > 0 && span % 64 == 0, "a window of whole words");
        Redeemed {
            floor: 1,
            words: vec![0; (span / 64) as usize].into_boxed_slice(),
        }
    }

    fn span(&self) -> u64 {
        self.words.len() as u64 * 64
    }

    /// The word and bit that hold `id` while it is in the window.
    fn locate(&self, id: u64) -> (usize, u64) {
        let bit = id % self.span();
        ((bit / 64) as usize, 1 << (bit % 64))
    }

    /// Marks `id` redeemed; `false` if it already was, or is retired.
    /// An id past the window slides the floor up until it fits.
    fn mark(&mut self, id: u64) -> bool {
        if id < self.floor {
            return false;
        }
        let span = self.span();
        if id - self.floor >= span {
            self.slide(id + 1 - span);
        }
        let (word, bit) = self.locate(id);
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// Raises the floor to `floor`, clearing the bits of the ids it
    /// retires so the ring can hold the ids it admits: a word at a
    /// time, and the whole ring at most.
    fn slide(&mut self, floor: u64) {
        let span = self.span();
        if floor - self.floor >= span {
            self.words.fill(0);
        } else {
            let mut id = self.floor;
            while id < floor {
                let bit = id % span;
                let n = (64 - bit % 64).min(floor - id);
                self.words[(bit / 64) as usize] &= !((u64::MAX >> (64 - n)) << (bit % 64));
                id += n;
            }
        }
        self.floor = floor;
    }
}

impl CaptchaService {
    /// Creates a service.
    pub fn new(policy: ServingPolicy, seed: u64) -> CaptchaService {
        CaptchaService {
            policy,
            seed,
            next_id: AtomicU64::new(1),
            passed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            redeemed: Mutex::new(Redeemed::new(REDEEMED_WINDOW_IDS)),
            min_valid_id: AtomicU64::new(1),
        }
    }

    /// Shrinks the redeemed window to `span` ids (tests exercise the
    /// retirement path without a million issuances).
    #[cfg(test)]
    fn with_redeemed_window(mut self, span: u64) -> CaptchaService {
        self.redeemed = Mutex::new(Redeemed::new(span));
        self
    }

    /// Marks `id` redeemed; `false` if it already was (a replay), is
    /// retired, or was never issued.
    fn redeem_once(&self, id: u64) -> bool {
        if id >= self.next_id.load(Ordering::Relaxed) {
            return false;
        }
        let mut window = match self.redeemed.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let fresh = window.mark(id);
        // The ids the window slid past are retired, not forgotten:
        // they stop verifying entirely.
        self.min_valid_id.fetch_max(window.floor, Ordering::Relaxed);
        fresh
    }

    /// Whether this service serves challenges at all: the one serving
    /// predicate, read by the opt-in offer and the throttle's escape
    /// hatch alike.
    pub fn is_enabled(&self) -> bool {
        self.policy == ServingPolicy::OptionalWithIncentive
    }

    /// Issues a challenge: an atomic id draw plus a pure derivation.
    pub fn issue(&self) -> Challenge {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        Challenge::derive(self.seed, id, DEFAULT_DIFFICULTY)
    }

    /// Checks an answer against the challenge `id` derives to, without
    /// touching the pass/fail counters or consuming anything.
    /// Never-issued ids (at or past the counter) are rejected outright.
    pub fn check(&self, id: u64, answer: &str) -> bool {
        if !self.in_issued_range(id) {
            return false;
        }
        Challenge::derive(self.seed, id, DEFAULT_DIFFICULTY).check(answer)
    }

    /// Verifies an answer against the global single-use gate, consuming
    /// the id **only on success**: a wrong answer neither passes nor
    /// burns anything (so an attacker spraying garbage at predictable
    /// ids cannot invalidate challenges other sessions still hold),
    /// while the first correct submission wins the id and every replay
    /// after it fails. Grinding a fixed id costs one online call per
    /// guess against a ≥5-character random answer — the same per-guess
    /// economics as minting fresh challenges under the old table.
    /// Outcomes land in the pass/fail counters.
    pub fn verify_once(&self, id: u64, answer: &str) -> bool {
        let ok = self.check(id, answer) && self.redeem_once(id);
        if ok {
            self.passed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// One attempt of a multi-attempt window, for callers whose own
    /// per-session challenge record is the single-use authority: the
    /// record proves the id was issued to *this* caller and not yet
    /// answered, so a correct answer is accepted on the record's say-so
    /// — the global redeemed set is only *marked* (best-effort, to lock
    /// out record-less replays of the same pair), never consulted. That
    /// asymmetry matters: without it, whoever solves a session's
    /// sequentially predictable id first through the record-less
    /// [`CaptchaService::verify_once`] path would deny that session its
    /// pass. A wrong answer does not consume the id. Outcomes land in the pass/fail counters.
    pub fn verify_attempt(&self, id: u64, answer: &str) -> bool {
        let ok = self.check(id, answer);
        if ok {
            self.redeem_once(id);
            self.passed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Consumes an id outright (no answer): callers burn a challenge
    /// whose per-session attempt budget is exhausted, so the id cannot
    /// be ground from anywhere else either.
    pub fn burn(&self, id: u64) {
        self.redeem_once(id);
    }

    fn in_issued_range(&self, id: u64) -> bool {
        id >= self.min_valid_id.load(Ordering::Relaxed) && id < self.next_id.load(Ordering::Relaxed)
    }

    /// `(issued, passed, failed)` counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.next_id.load(Ordering::Relaxed) - 1,
            self.passed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn optional_policy_always_offers() {
        let s = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 1);
        assert!(s.is_enabled());
    }

    #[test]
    fn disabled_never_offers() {
        let s = CaptchaService::new(ServingPolicy::Disabled, 1);
        assert!(!s.is_enabled());
    }

    #[test]
    fn verify_lifecycle() {
        let s = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 2);
        let ch = s.issue();
        let answer = ch.answer().to_string();
        assert!(s.verify_once(ch.id, &answer));
        // Single-use: replaying the same correct pair fails, for this or
        // any other caller.
        assert!(!s.verify_once(ch.id, &answer));
        let ch2 = s.issue();
        assert!(!s.verify_once(ch2.id, "nope"));
        assert_eq!(s.stats(), (2, 1, 2));
        // `check` re-derives without moving counters or consuming ids.
        assert!(s.check(ch.id, &answer));
        assert_eq!(s.stats(), (2, 1, 2));
    }

    #[test]
    fn concurrent_replays_redeem_exactly_once() {
        use std::sync::Arc;
        let s = Arc::new(CaptchaService::new(ServingPolicy::OptionalWithIncentive, 5));
        let ch = s.issue();
        let answer = ch.answer().to_string();
        let winners: u32 = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                let answer = answer.clone();
                std::thread::spawn(move || u32::from(s.verify_once(ch.id, &answer)))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .sum();
        assert_eq!(winners, 1, "exactly one replayer may win the redemption");
        assert_eq!(s.stats().1, 1);
    }

    #[test]
    fn never_issued_ids_are_rejected() {
        let s = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 3);
        // Nothing issued yet: every id is out of range, even id 1.
        assert!(!s.verify_once(1, "anything"));
        assert!(!s.verify_once(999, "anything"));
        assert!(!s.verify_once(0, "anything"));
        let ch = s.issue();
        // Ids at or beyond the counter still fail.
        assert!(!s.check(ch.id + 1, ch.answer()));
    }

    #[test]
    fn redeemed_set_eviction_retires_ids_instead_of_forgetting_them() {
        // Once the redeemed window slides past an old id, that id must
        // stay dead forever — sliding must never re-open a solved
        // challenge for replay.
        let s =
            CaptchaService::new(ServingPolicy::OptionalWithIncentive, 6).with_redeemed_window(64);
        let first = s.issue();
        let first_answer = first.answer().to_string();
        assert!(s.verify_once(first.id, &first_answer));
        // Redeem an id a span and one past the first: the window slides
        // its floor two ids up.
        let mut ch = s.issue();
        while ch.id < first.id + 65 {
            ch = s.issue();
        }
        assert!(s.verify_once(ch.id, ch.answer()));
        // The slid-past first id is retired: even its correct answer is
        // rejected (validity floor), not replayable.
        assert!(!s.verify_once(first.id, &first_answer));
        assert!(!s.check(first.id, &first_answer));
        // An issued id the window slid past without redeeming is retired
        // too; the ones still inside verify once.
        let skipped = first.id + 1;
        assert!(!s.check(skipped, Challenge::derive(6, skipped, 0.5).answer()));
        let inside = ch.id - 1;
        let answer = Challenge::derive(6, inside, 0.5).answer().to_string();
        assert!(s.verify_once(inside, &answer));
        assert!(!s.verify_once(inside, &answer));
    }

    #[test]
    fn a_never_issued_id_cannot_be_burned_or_slide_the_window() {
        let s =
            CaptchaService::new(ServingPolicy::OptionalWithIncentive, 7).with_redeemed_window(64);
        let ch = s.issue();
        s.burn(ch.id + 1_000);
        assert!(s.verify_once(ch.id, ch.answer()));
    }

    /// Whether the model counts `id` redeemed.
    fn marked(window: &Redeemed, id: u64) -> bool {
        let (word, bit) = window.locate(id);
        id < window.floor || (id - window.floor < window.span() && window.words[word] & bit != 0)
    }

    proptest! {
        /// The window marks, refuses and retires as a set of redeemed
        /// ids with a floor below which every id is retired, the floor
        /// raised just enough to keep the newest mark within the span:
        /// ids behind, inside, just past and far past the window, on
        /// spans of one to four words.
        #[test]
        fn the_redeemed_window_is_a_set_above_a_floor(
            words in 1u64..5,
            ops in vec((0u8..4, 0u64..300), 1..300),
        ) {
            let span = words * 64;
            let mut window = Redeemed::new(span);
            let (mut floor, mut set) = (1u64, HashSet::new());
            for (kind, offset) in ops {
                let id = match kind {
                    0 => floor.saturating_sub(offset % 8),
                    1 => floor + offset % span,
                    2 => floor + span + offset % 8,
                    _ => floor + offset * 7,
                };
                let expected = id >= floor && {
                    if id - floor >= span {
                        floor = id + 1 - span;
                        set.retain(|&x| x >= floor);
                    }
                    set.insert(id)
                };
                prop_assert_eq!(window.mark(id), expected, "id {}", id);
                prop_assert_eq!(window.floor, floor);
                let near = [floor.saturating_sub(1), floor, id.saturating_sub(1), id + 1];
                for probe in near {
                    let want = probe < floor || set.contains(&probe);
                    prop_assert_eq!(marked(&window, probe), want, "probe {}", probe);
                }
            }
            for probe in floor.saturating_sub(2)..floor + span + 2 {
                let want = probe < floor || set.contains(&probe);
                prop_assert_eq!(marked(&window, probe), want, "probe {}", probe);
            }
        }
    }

    #[test]
    fn issue_is_lock_free_and_ids_stay_unique_across_threads() {
        use std::sync::Arc;
        let s = Arc::new(CaptchaService::new(ServingPolicy::OptionalWithIncentive, 8));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || (0..500).map(|_| s.issue().id).collect::<Vec<u64>>())
            })
            .collect();
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate challenge id {id}");
            }
        }
        assert_eq!(all.len(), 2000);
        // Every issued id still verifies against its derived answer.
        let some_id = *all.iter().next().unwrap();
        let ch = Challenge::derive(8, some_id, DEFAULT_DIFFICULTY);
        assert!(s.check(some_id, ch.answer()));
    }
}
