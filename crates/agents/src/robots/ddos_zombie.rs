//! The DDoS zombie: one of "hundreds or thousands of compromised machines
//! … flooding Web sites" (abuse category 1). Hammers a single target at
//! high rate with no variety — the easiest species for rate limiting to
//! squelch once classified.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use rand_chacha::ChaCha8Rng;

/// A flooding robot.
#[derive(Debug, Clone)]
pub struct DdosZombie {
    /// Requests per session.
    pub requests: u32,
    /// Delay between requests, ms (small: it floods).
    pub delay_ms: u64,
}

impl Default for DdosZombie {
    fn default() -> Self {
        DdosZombie {
            requests: 120,
            delay_ms: 10,
        }
    }
}

impl Agent for DdosZombie {
    fn kind(&self) -> AgentKind {
        AgentKind::DdosZombie
    }

    fn user_agent(&self) -> String {
        "Mozilla/4.0 (compatible; MSIE 5.5; Windows 98)".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, _rng: &mut ChaCha8Rng) {
        let target = world.entry_point();
        for _ in 0..self.requests {
            world.fetch(FetchSpec::get(target.clone()));
            world.sleep(self.delay_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn floods_one_target() {
        let mut world = MockWorld::new(1);
        let mut bot = DdosZombie {
            requests: 50,
            delay_ms: 0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.client().ledger().requests, 50);
        // All fetches hit the same URL.
        let mut urls = world.request_log.clone();
        urls.dedup();
        assert_eq!(urls.len(), 1);
        assert_eq!(world.css_probe_hits(), 0);
    }
}
