//! Policy enforcement (§3.2).
//!
//! After classifying a session as robot, CoDeeN "enforced aggressive rate
//! limiting on the robot traffic … and blocked its traffic as soon as its
//! behavior deviated from predefined thresholds" (CGI request rate, GET
//! request rate, error response codes). This module implements that
//! enforcement: per-verdict token-bucket rate limits plus behavioural
//! blocking thresholds.
//!
//! Since PR 3 the engine itself is stateless per key: everything mutable
//! per session lives in a [`PolicyState`] the caller colocates with the
//! session record (inside the tracker's shard entry), so one shard lock
//! covers the whole enforcement decision. The engine keeps only the
//! immutable thresholds, and [`PolicyEngine::decide`] takes `&self`;
//! what it decided is counted by its caller.

use crate::classifier::Verdict;
use botwall_sessions::{SessionCounters, SimTime};

/// What the policy engine decides for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Serve normally.
    Allow,
    /// Reject this request (rate limit exceeded); serve a 429-style error.
    Throttle,
    /// The session is blocked outright; serve a 403-style error.
    Block,
}

/// Tunables for [`PolicyEngine`].
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// Sustained requests/second allowed for robot-classified sessions.
    pub robot_rate_per_sec: f64,
    /// Burst size for robot-classified sessions.
    pub robot_burst: f64,
    /// Sustained requests/second for undecided sessions (lenient).
    pub undecided_rate_per_sec: f64,
    /// Burst size for undecided sessions.
    pub undecided_burst: f64,
    /// Block a robot session once its CGI request share exceeds this.
    pub cgi_ratio_threshold: f64,
    /// Block a robot session once its 4xx share exceeds this.
    pub error_ratio_threshold: f64,
    /// Block a robot session once its sustained request rate (req/s over
    /// the whole session) exceeds this.
    pub rate_threshold: f64,
    /// Behavioural thresholds only engage after this many requests.
    pub min_requests_for_thresholds: u64,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        PolicyConfig {
            robot_rate_per_sec: 0.2,
            robot_burst: 2.0,
            undecided_rate_per_sec: 20.0,
            undecided_burst: 60.0,
            cgi_ratio_threshold: 0.5,
            error_ratio_threshold: 0.4,
            rate_threshold: 10.0,
            min_requests_for_thresholds: 10,
        }
    }
}

/// A classic token bucket, less what never changes: the tokens left and
/// when they were last refilled. Its capacity and refill rate are passed
/// in by whoever holds it (the policy engine reads them from its config
/// by rate class), so a session's bucket stores only its own state. The
/// default bucket is empty as of time zero.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TokenBucket {
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// A full bucket of `capacity` tokens as of `now`.
    pub fn full(capacity: f64, now: SimTime) -> TokenBucket {
        TokenBucket {
            tokens: capacity,
            last_refill: now,
        }
    }

    /// Attempts to take one token from a bucket of `capacity` refilling
    /// at `rate_per_sec`; returns `false` when empty.
    pub fn try_take(&mut self, capacity: f64, rate_per_sec: f64, now: SimTime) -> bool {
        if self.available(capacity, rate_per_sec, now) >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Current token count (after a refill to `now`).
    pub fn available(&mut self, capacity: f64, rate_per_sec: f64, now: SimTime) -> f64 {
        let elapsed = now.since(self.last_refill) as f64;
        let rate_per_ms = rate_per_sec / 1000.0;
        self.tokens = (self.tokens + elapsed * rate_per_ms).min(capacity);
        self.last_refill = now;
        self.tokens
    }
}

// Which rate class a bucket was provisioned for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RateClass {
    Robot,
    Undecided,
}

/// Per-session enforcement state: the rate bucket, the class it was
/// provisioned for (`None` until the first rate-limited request, when
/// the bucket means nothing yet) and the block flag. Lives inside the
/// session's tracker shard entry, so the enforcement decision shares
/// the session's shard lock. The class sits beside the bucket rather
/// than around it, so the three pack into 24 bytes.
#[derive(Debug, Clone, Default)]
pub struct PolicyState {
    bucket: TokenBucket,
    class: Option<RateClass>,
    blocked: bool,
}

impl PolicyState {
    /// Whether the session is blocked outright.
    pub fn is_blocked(&self) -> bool {
        self.blocked
    }

    /// Blocks the session (operator action or threshold trip).
    pub fn block(&mut self) {
        self.blocked = true;
    }

    /// State for the key's next incarnation at idle rollover: the block
    /// verdict survives (a blocked robot does not earn a reset by going
    /// quiet for an hour), while the rate bucket re-provisions from the
    /// fresh incarnation's verdict.
    pub fn carry_over(&self) -> PolicyState {
        PolicyState {
            blocked: self.blocked,
            ..PolicyState::default()
        }
    }
}

/// The enforcement decider: immutable thresholds plus atomic cross-key
/// totals. Per-session state is passed in as [`PolicyState`].
///
/// # Examples
///
/// ```
/// use botwall_core::classifier::{Reason, Verdict};
/// use botwall_core::policy::{Action, PolicyConfig, PolicyEngine, PolicyState};
/// use botwall_sessions::{SessionCounters, SimTime};
///
/// let engine = PolicyEngine::new(PolicyConfig::default());
/// let mut state = PolicyState::default();
/// let counters = SessionCounters::new();
/// let action = engine.decide(
///     &mut state,
///     Verdict::Human(Reason::MouseActivity),
///     &counters,
///     0.0,
///     0,
///     SimTime::ZERO,
/// );
/// assert_eq!(action, Action::Allow);
/// ```
#[derive(Debug, Default)]
pub struct PolicyEngine {
    config: PolicyConfig,
}

impl PolicyEngine {
    /// Creates an engine.
    pub fn new(config: PolicyConfig) -> PolicyEngine {
        PolicyEngine { config }
    }

    /// Decides the fate of the current request given the session's
    /// enforcement state, updating the state in place.
    ///
    /// `session_rate` is the session's sustained request rate in req/s
    /// (see [`botwall_sessions::Session::request_rate`]); callers with
    /// leases outstanding pass a rate that already counts them.
    ///
    /// `in_flight` is the number of leased exchanges currently awaiting
    /// their origin fetch: they are not in `counters` yet (recording
    /// happens at commit), but they are real requests the session has
    /// already issued, so the history gate counts them — without it, a
    /// burst riding a slow origin stays under
    /// `min_requests_for_thresholds` until the first commits land and
    /// behavioural blocking lags by origin latency × concurrency.
    pub fn decide(
        &self,
        state: &mut PolicyState,
        verdict: Verdict,
        counters: &SessionCounters,
        session_rate: f64,
        in_flight: u32,
        now: SimTime,
    ) -> Action {
        if state.blocked {
            return Action::Block;
        }
        let is_robot = matches!(verdict, Verdict::Robot(_) | Verdict::ProvisionalRobot(_));
        // Behavioural blocking thresholds apply to robot-classified
        // sessions with enough history — recorded or in flight.
        let effective_total = u64::from(counters.total) + u64::from(in_flight);
        if is_robot && effective_total >= self.config.min_requests_for_thresholds {
            let over_cgi = counters.cgi_ratio() > self.config.cgi_ratio_threshold;
            let over_err = counters.error_ratio() > self.config.error_ratio_threshold;
            let over_rate = session_rate > self.config.rate_threshold;
            if over_cgi || over_err || over_rate {
                state.blocked = true;
                return Action::Block;
            }
        }
        // Rate limiting: humans unlimited; robots tight; undecided loose.
        let (class, rate, burst) = match verdict {
            Verdict::Human(_) | Verdict::ProvisionalHuman(_) => return Action::Allow,
            Verdict::Robot(_) | Verdict::ProvisionalRobot(_) => (
                RateClass::Robot,
                self.config.robot_rate_per_sec,
                self.config.robot_burst,
            ),
            Verdict::Undecided => (
                RateClass::Undecided,
                self.config.undecided_rate_per_sec,
                self.config.undecided_burst,
            ),
        };
        // A verdict change re-provisions the bucket: a session promoted to
        // robot must not keep coasting on its undecided allowance.
        if state.class != Some(class) {
            state.class = Some(class);
            state.bucket = TokenBucket::full(burst, now);
        }
        if state.bucket.try_take(burst, rate, now) {
            Action::Allow
        } else {
            Action::Throttle
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::Reason;

    fn engine() -> PolicyEngine {
        PolicyEngine::new(PolicyConfig::default())
    }

    #[test]
    fn token_bucket_drains_and_refills() {
        let mut b = TokenBucket::full(2.0, SimTime::ZERO);
        let mut take = |at| b.try_take(2.0, 1.0, at);
        assert!(take(SimTime::ZERO));
        assert!(take(SimTime::ZERO));
        assert!(!take(SimTime::ZERO), "burst exhausted");
        // One second refills one token.
        assert!(take(SimTime::from_secs(1)));
        assert!(!take(SimTime::from_secs(1)));
    }

    #[test]
    fn bucket_never_exceeds_capacity() {
        let mut b = TokenBucket::full(3.0, SimTime::ZERO);
        assert!((b.available(3.0, 100.0, SimTime::from_hours(5)) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn humans_are_never_limited() {
        let e = engine();
        let mut s = PolicyState::default();
        let c = SessionCounters::new();
        for _ in 0..1000 {
            assert_eq!(
                e.decide(
                    &mut s,
                    Verdict::Human(Reason::MouseActivity),
                    &c,
                    100.0,
                    0,
                    SimTime::ZERO
                ),
                Action::Allow
            );
        }
    }

    #[test]
    fn robots_hit_the_rate_limit() {
        let e = engine();
        let mut s = PolicyState::default();
        let c = SessionCounters::new();
        let mut throttled = 0;
        for _ in 0..20 {
            if e.decide(
                &mut s,
                Verdict::Robot(Reason::DecoyFetched),
                &c,
                1.0,
                0,
                SimTime::ZERO,
            ) == Action::Throttle
            {
                throttled += 1;
            }
        }
        // Burst of 2 allowed, the rest throttled.
        assert_eq!(throttled, 18);
    }

    #[test]
    fn verdict_change_reprovisions_the_bucket() {
        // A session that coasts as Undecided must drop to the robot
        // allowance the moment it is classified.
        let e = engine();
        let mut s = PolicyState::default();
        let c = SessionCounters::new();
        for _ in 0..10 {
            assert_eq!(
                e.decide(&mut s, Verdict::Undecided, &c, 1.0, 0, SimTime::ZERO),
                Action::Allow
            );
        }
        let mut allowed = 0;
        for _ in 0..10 {
            if e.decide(
                &mut s,
                Verdict::ProvisionalRobot(Reason::NoBrowserSignals),
                &c,
                1.0,
                0,
                SimTime::ZERO,
            ) == Action::Allow
            {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 2, "fresh robot bucket: burst of 2 only");
    }

    #[test]
    fn cgi_storm_gets_blocked() {
        let e = engine();
        let mut s = PolicyState::default();
        let mut c = SessionCounters::new();
        c.total = 20;
        c.cgi = 15; // 75% CGI.
        let a = e.decide(
            &mut s,
            Verdict::Robot(Reason::NoBrowserSignals),
            &c,
            1.0,
            0,
            SimTime::ZERO,
        );
        assert_eq!(a, Action::Block);
        assert!(s.is_blocked());
        // Subsequent requests stay blocked.
        assert_eq!(
            e.decide(
                &mut s,
                Verdict::Undecided,
                &c,
                0.0,
                0,
                SimTime::from_secs(9)
            ),
            Action::Block
        );
    }

    #[test]
    fn error_storm_gets_blocked() {
        let e = engine();
        let mut s = PolicyState::default();
        let mut c = SessionCounters::new();
        c.total = 50;
        c.resp_4xx = 30;
        assert_eq!(
            e.decide(
                &mut s,
                Verdict::ProvisionalRobot(Reason::JsWithoutMouse),
                &c,
                0.1,
                0,
                SimTime::ZERO
            ),
            Action::Block
        );
    }

    #[test]
    fn high_request_rate_gets_blocked() {
        let e = engine();
        let mut s = PolicyState::default();
        let mut c = SessionCounters::new();
        c.total = 100;
        assert_eq!(
            e.decide(
                &mut s,
                Verdict::Robot(Reason::HiddenLink),
                &c,
                50.0,
                0,
                SimTime::ZERO
            ),
            Action::Block
        );
    }

    #[test]
    fn thresholds_require_history() {
        let e = engine();
        let mut s = PolicyState::default();
        let mut c = SessionCounters::new();
        c.total = 5; // Below min_requests_for_thresholds.
        c.cgi = 5;
        let a = e.decide(
            &mut s,
            Verdict::Robot(Reason::NoBrowserSignals),
            &c,
            1.0,
            0,
            SimTime::ZERO,
        );
        assert_ne!(a, Action::Block, "not enough history to block");
    }

    #[test]
    fn thresholds_do_not_block_humans() {
        let e = engine();
        let mut s = PolicyState::default();
        let mut c = SessionCounters::new();
        c.total = 100;
        c.cgi = 90;
        assert_eq!(
            e.decide(
                &mut s,
                Verdict::Human(Reason::MouseActivity),
                &c,
                50.0,
                0,
                SimTime::ZERO
            ),
            Action::Allow,
            "humans are exempt from robot thresholds"
        );
    }

    #[test]
    fn carry_over_keeps_the_block_but_drops_the_bucket() {
        let e = engine();
        let mut s = PolicyState::default();
        let c = SessionCounters::new();
        // Provision a bucket, then block.
        e.decide(&mut s, Verdict::Undecided, &c, 1.0, 0, SimTime::ZERO);
        assert_eq!(s.class, Some(RateClass::Undecided));
        s.block();
        let next = s.carry_over();
        assert!(next.is_blocked(), "block survives rollover");
        assert_eq!(next.class, None, "bucket re-provisions");
        // An unblocked session carries over clean.
        assert!(!PolicyState::default().carry_over().is_blocked());
    }

    #[test]
    fn undecided_sessions_get_loose_limit() {
        let e = engine();
        let mut s = PolicyState::default();
        let c = SessionCounters::new();
        let mut throttled = 0;
        for _ in 0..100 {
            if e.decide(&mut s, Verdict::Undecided, &c, 1.0, 0, SimTime::ZERO) == Action::Throttle {
                throttled += 1;
            }
        }
        assert_eq!(throttled, 40, "burst of 60 allowed out of 100");
    }
}
