//! Who solves a CAPTCHA, and how often: the solver model the in-process
//! humans draw from when the gateway offers them a challenge.
//!
//! The paper's footnote: "While some CAPTCHA tests can be solved by
//! character recognition, this one was optional, and active only for a
//! short period. We saw no abuse from clients passing the CAPTCHA test,
//! strongly suggesting they were human." The image distortion itself is
//! abstracted: what matters is who attempts an optional challenge and
//! with what probability they pass. Only the human model draws from it:
//! humans attempt optionally and mostly succeed.

use botwall_captcha::Challenge;
use rand::Rng;

/// How an agent population behaves when offered a challenge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverProfile {
    /// Probability the agent bothers to attempt an *optional* challenge.
    /// The paper's incentive (higher bandwidth) produced a 9.1% session
    /// pass rate — opt-in, not ability, is the limiting factor for humans.
    pub attempt_probability: f64,
    /// Probability an attempt succeeds at difficulty 0; effective success
    /// decays linearly with challenge difficulty down to `floor`.
    pub base_success: f64,
    /// Success floor at difficulty 1.
    pub floor: f64,
}

impl SolverProfile {
    /// A typical incentivized human (opt-in tuned so ≈9% of sessions
    /// pass, matching Table 1).
    pub fn human_default() -> SolverProfile {
        SolverProfile {
            attempt_probability: 0.40,
            base_success: 0.97,
            floor: 0.85,
        }
    }

    /// Effective success probability at a challenge's difficulty.
    pub fn success_at(&self, difficulty: f64) -> f64 {
        let d = difficulty.clamp(0.0, 1.0);
        self.base_success * (1.0 - d) + self.floor * d
    }

    /// Simulates an offer: `None` if the agent declines, `Some(passed)`
    /// otherwise.
    pub fn attempt<R: Rng>(&self, challenge: &Challenge, rng: &mut R) -> Option<bool> {
        if !rng.gen_bool(self.attempt_probability.clamp(0.0, 1.0)) {
            return None;
        }
        Some(rng.gen_bool(self.success_at(challenge.difficulty).clamp(0.0, 1.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rates(profile: SolverProfile, difficulty: f64, trials: u32) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let ch = Challenge::derive(1, 1, difficulty);
        let mut attempts = 0u32;
        let mut passes = 0u32;
        for _ in 0..trials {
            match profile.attempt(&ch, &mut rng) {
                Some(true) => {
                    attempts += 1;
                    passes += 1;
                }
                Some(false) => attempts += 1,
                None => {}
            }
        }
        (
            attempts as f64 / trials as f64,
            passes as f64 / trials as f64,
        )
    }

    #[test]
    fn humans_mostly_pass_when_they_try() {
        let (attempt_rate, pass_share) = rates(SolverProfile::human_default(), 0.5, 20_000);
        assert!((attempt_rate - 0.40).abs() < 0.02, "attempt {attempt_rate}");
        // Success at difficulty 0.5 ≈ 0.91, so pass ≈ 0.364.
        assert!((pass_share - 0.364).abs() < 0.03, "pass {pass_share}");
    }

    #[test]
    fn success_decays_with_difficulty() {
        let p = SolverProfile::human_default();
        assert!(p.success_at(0.0) > p.success_at(0.5));
        assert!(p.success_at(0.5) > p.success_at(1.0));
        assert_eq!(p.success_at(1.0), p.floor);
        // Out-of-range difficulty is clamped.
        assert_eq!(p.success_at(5.0), p.floor);
    }
}
