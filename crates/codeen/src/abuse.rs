//! The complaint model behind Figure 3.
//!
//! CoDeeN's operators fielded complaints from origin sites when abuse got
//! through the proxy: referrer spam in logs, click fraud, vulnerability
//! probes, password attempts. We model each *delivered* abusive request
//! as drawing a complaint with a small probability, so complaint volume
//! tracks delivered abuse — which is exactly the causal chain the paper's
//! Figure 3 demonstrates (complaints collapse ~10× once classification +
//! rate limiting cut delivery).

use crate::network::SessionSummary;
use rand::Rng;

/// Complaint-model tunables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplaintConfig {
    /// Probability each delivered abusive request *beyond the noise
    /// floor* draws a complaint.
    pub per_request_probability: f64,
    /// Origins do not notice (or bother reporting) abuse below this many
    /// delivered requests per session — which is why aggressive rate
    /// limiting kills complaints even though a classified robot still
    /// gets a trickle through.
    pub min_delivered: u64,
    /// Monthly background of complaints traced to humans (mistaken
    /// reports, disputes) regardless of robot traffic.
    pub human_background_per_month: f64,
}

impl Default for ComplaintConfig {
    fn default() -> Self {
        ComplaintConfig {
            per_request_probability: 0.01,
            min_delivered: 15,
            human_background_per_month: 0.7,
        }
    }
}

/// Complaints attributed per class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComplaintTally {
    /// Complaints caused by robot traffic.
    pub robot: u32,
    /// Complaints traced back to human activity.
    pub human: u32,
}

impl ComplaintTally {
    /// Total complaints.
    pub fn total(&self) -> u32 {
        self.robot + self.human
    }
}

/// Draws complaints for a batch of sessions (e.g. one simulated month).
pub fn complaints_for<R: Rng>(
    summaries: &[SessionSummary],
    config: &ComplaintConfig,
    rng: &mut R,
) -> ComplaintTally {
    let mut tally = ComplaintTally::default();
    for s in summaries {
        let delivered = s.abusive_delivered();
        let excess = delivered.saturating_sub(config.min_delivered);
        if excess == 0 {
            continue;
        }
        // P(at least one complaint) = 1 - (1-p)^excess.
        let p = 1.0 - (1.0 - config.per_request_probability).powi(excess as i32);
        if rng.gen_bool(p.clamp(0.0, 1.0)) {
            tally.robot += 1;
        }
    }
    // Human background: Bernoulli draws approximating a small Poisson.
    let lambda = config.human_background_per_month;
    let whole = lambda.floor() as u32;
    tally.human += whole;
    if rng.gen_bool((lambda - whole as f64).clamp(0.0, 1.0)) {
        tally.human += 1;
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_agents::AgentKind;
    use botwall_http::request::ClientIp;
    use botwall_sessions::SessionKey;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn summary(kind: AgentKind, allowed: u64) -> SessionSummary {
        SessionSummary {
            node: 0,
            key: SessionKey::new(ClientIp::new(1), "x"),
            kind,
            requests: allowed,
            allowed,
            throttled: 0,
            blocked: 0,
            captcha_passed: false,
            records: Vec::new(),
        }
    }

    #[test]
    fn no_abuse_no_robot_complaints() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let sessions = vec![
            summary(AgentKind::Human(botwall_http::BrowserFamily::Firefox), 100),
            summary(AgentKind::PoliteSpider, 100),
        ];
        let cfg = ComplaintConfig {
            human_background_per_month: 0.0,
            ..ComplaintConfig::default()
        };
        let t = complaints_for(&sessions, &cfg, &mut rng);
        assert_eq!(t.robot, 0);
    }

    #[test]
    fn delivered_abuse_draws_complaints() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let sessions: Vec<_> = (0..200)
            .map(|_| summary(AgentKind::ReferrerSpammer, 25))
            .collect();
        let cfg = ComplaintConfig {
            per_request_probability: 0.01,
            min_delivered: 15,
            human_background_per_month: 0.0,
        };
        let t = complaints_for(&sessions, &cfg, &mut rng);
        // Excess 10 per session → P ≈ 1-(0.99)^10 ≈ 0.096 → ≈19 of 200.
        assert!(t.robot > 8 && t.robot < 35, "robot complaints {}", t.robot);
    }

    #[test]
    fn squelched_abuse_draws_fewer_complaints() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let cfg = ComplaintConfig {
            human_background_per_month: 0.0,
            ..ComplaintConfig::default()
        };
        let loud: Vec<_> = (0..300)
            .map(|_| summary(AgentKind::ClickFraud, 30))
            .collect();
        let quiet: Vec<_> = (0..300)
            .map(|_| summary(AgentKind::ClickFraud, 12))
            .collect();
        let loud_t = complaints_for(&loud, &cfg, &mut rng);
        let quiet_t = complaints_for(&quiet, &cfg, &mut rng);
        assert!(
            quiet_t.robot * 3 < loud_t.robot,
            "rate limiting cuts complaints: {} vs {}",
            quiet_t.robot,
            loud_t.robot
        );
    }

    #[test]
    fn human_background_is_small_but_present() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let cfg = ComplaintConfig {
            per_request_probability: 0.0,
            human_background_per_month: 1.4,
            ..ComplaintConfig::default()
        };
        let t = complaints_for(&[], &cfg, &mut rng);
        assert!(t.human == 1 || t.human == 2);
    }
}
