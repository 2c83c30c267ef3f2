//! CAPTCHA serving strategies.

use crate::challenge::Challenge;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// When challenges are offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingPolicy {
    /// The paper's deployment: optional, incentivized with a bandwidth
    /// boost, offered at most once per session.
    OptionalWithIncentive,
    /// Kandula-style: served to every client while under attack
    /// (impractical for normal operation, per §5 — "human users do not
    /// want to solve a quiz every time they access a Web page").
    MandatoryUnderAttack,
    /// Never serve (control).
    Disabled,
}

/// Default difficulty of served challenges.
const DEFAULT_DIFFICULTY: f64 = 0.5;

/// Stateless challenge generation and verification, plus the serving
/// policy and aggregate pass statistics.
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
/// [verified](CaptchaService::verify_once) id lands in a redeemed set (sharded by id, touched only on the rare
/// answer-submission path, never by request handling), so one solved
/// `(id, answer)` pair cannot be replayed — the property the old issue
/// table provided by deleting entries.
#[derive(Debug)]
pub struct CaptchaService {
    policy: ServingPolicy,
    under_attack: AtomicBool,
    seed: u64,
    next_id: AtomicU64,
    issued: AtomicU64,
    passed: AtomicU64,
    failed: AtomicU64,
    /// Ids already redeemed, sharded by id. Only the `verify_*` calls
    /// (the human-answers-a-challenge path) ever lock a shard; the
    /// request path never touches this.
    redeemed: Vec<Mutex<HashSet<u64>>>,
    /// Monotone validity floor: ids below it are rejected outright.
    /// Raised whenever the redeemed set evicts an old id, so an evicted
    /// id can never be replayed — eviction *retires* history instead of
    /// forgetting it (the old issue table got the same effect by
    /// evicting oldest outstanding entries).
    min_valid_id: AtomicU64,
    /// Redeemed ids retained per shard before retirement kicks in.
    redeemed_cap: usize,
}

/// Shards of the redeemed-id set.
const REDEEMED_SHARDS: usize = 16;
/// Redeemed ids retained per shard; beyond it the smallest (oldest) id
/// is dropped — by then its challenge is ancient history.
const MAX_REDEEMED_PER_SHARD: usize = 65_536;

impl CaptchaService {
    /// Creates a service.
    pub fn new(policy: ServingPolicy, seed: u64) -> CaptchaService {
        CaptchaService {
            policy,
            under_attack: AtomicBool::new(false),
            seed,
            next_id: AtomicU64::new(1),
            issued: AtomicU64::new(0),
            passed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            redeemed: (0..REDEEMED_SHARDS)
                .map(|_| Mutex::new(HashSet::new()))
                .collect(),
            min_valid_id: AtomicU64::new(1),
            redeemed_cap: MAX_REDEEMED_PER_SHARD,
        }
    }

    /// Shrinks the per-shard redeemed-id retention (tests exercise the
    /// retirement path without a million issuances).
    #[cfg(test)]
    fn with_redeemed_cap(mut self, cap: usize) -> CaptchaService {
        self.redeemed_cap = cap;
        self
    }

    /// Marks `id` redeemed; `false` if it already was (a replay).
    fn redeem_once(&self, id: u64) -> bool {
        let shard = &self.redeemed[(id % REDEEMED_SHARDS as u64) as usize];
        let mut set = match shard.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if !set.insert(id) {
            return false;
        }
        if set.len() > self.redeemed_cap {
            if let Some(&min) = set.iter().min() {
                set.remove(&min);
                // The evicted id is retired, not forgotten: everything
                // at or below it stops verifying entirely.
                self.min_valid_id.fetch_max(min + 1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Sets the attack flag consulted by
    /// [`ServingPolicy::MandatoryUnderAttack`]. Callable while traffic is
    /// in flight — flipping it never blocks request handling.
    pub fn set_under_attack(&self, yes: bool) {
        self.under_attack.store(yes, Ordering::Release);
    }

    /// Whether a challenge should be offered to a session that has not
    /// seen one yet.
    pub fn should_offer(&self) -> bool {
        match self.policy {
            ServingPolicy::OptionalWithIncentive => true,
            ServingPolicy::MandatoryUnderAttack => self.under_attack.load(Ordering::Acquire),
            ServingPolicy::Disabled => false,
        }
    }

    /// Whether solving is compulsory to proceed (vs. opt-in).
    pub fn is_mandatory(&self) -> bool {
        matches!(self.policy, ServingPolicy::MandatoryUnderAttack)
            && self.under_attack.load(Ordering::Acquire)
    }

    /// Whether this service can issue challenges at all.
    pub fn is_enabled(&self) -> bool {
        !matches!(self.policy, ServingPolicy::Disabled)
    }

    /// Issues a challenge: an atomic id draw plus a pure derivation.
    pub fn issue(&self) -> Challenge {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.issued.fetch_add(1, Ordering::Relaxed);
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
            self.issued.load(Ordering::Relaxed),
            self.passed.load(Ordering::Relaxed),
            self.failed.load(Ordering::Relaxed),
        )
    }

    /// Pass rate over answered challenges.
    pub fn pass_rate(&self) -> f64 {
        let (_, passed, failed) = self.stats();
        let answered = passed + failed;
        if answered == 0 {
            0.0
        } else {
            passed as f64 / answered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optional_policy_always_offers() {
        let s = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 1);
        assert!(s.should_offer());
        assert!(!s.is_mandatory());
        assert!(s.is_enabled());
    }

    #[test]
    fn mandatory_policy_tracks_attack_state() {
        let s = CaptchaService::new(ServingPolicy::MandatoryUnderAttack, 1);
        assert!(!s.should_offer());
        s.set_under_attack(true);
        assert!(s.should_offer());
        assert!(s.is_mandatory());
    }

    #[test]
    fn disabled_never_offers() {
        let s = CaptchaService::new(ServingPolicy::Disabled, 1);
        s.set_under_attack(true);
        assert!(!s.should_offer());
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
        assert!((s.pass_rate() - 1.0 / 3.0).abs() < 1e-12);
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
        // Once the redeemed set overflows and evicts an old id, that id
        // must stay dead forever — eviction must never re-open a solved
        // challenge for replay.
        let s = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 6).with_redeemed_cap(4);
        let first = s.issue();
        let first_answer = first.answer().to_string();
        assert!(s.verify_once(first.id, &first_answer));
        // Overflow the shard holding `first.id` until it evicts it.
        let mut spilled = 0usize;
        while spilled <= 4 {
            let ch = s.issue();
            if ch.id % REDEEMED_SHARDS as u64 == first.id % REDEEMED_SHARDS as u64 {
                let answer = ch.answer().to_string();
                assert!(s.verify_once(ch.id, &answer));
                spilled += 1;
            }
        }
        // The evicted first id is retired: even its correct answer is
        // rejected (validity floor), not replayable.
        assert!(!s.verify_once(first.id, &first_answer));
        assert!(!s.check(first.id, &first_answer));
    }

    #[test]
    fn issue_is_lock_free_and_ids_stay_unique_across_threads() {
        use std::collections::HashSet;
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
        let ch = Challenge::derive(8, some_id, ch_difficulty());
        assert!(s.check(some_id, ch.answer()));
    }

    fn ch_difficulty() -> f64 {
        0.5
    }

    #[test]
    fn attack_flag_flips_under_concurrent_traffic() {
        use std::sync::Arc;
        let s = Arc::new(CaptchaService::new(ServingPolicy::MandatoryUnderAttack, 9));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    // Must never deadlock or tear; the value itself races
                    // by design.
                    for _ in 0..10_000 {
                        let _ = s.is_mandatory();
                    }
                })
            })
            .collect();
        for i in 0..1_000 {
            s.set_under_attack(i % 2 == 0);
        }
        for r in readers {
            r.join().unwrap();
        }
        s.set_under_attack(true);
        assert!(s.is_mandatory());
    }
}
