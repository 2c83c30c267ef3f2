//! The e-mail address harvester: walks pages quickly looking for
//! `mailto:` addresses. Requests only HTML ("Some Web crawlers request
//! only HTML files, as do email address collectors" — §2.2), keeps no
//! rendering state, and sends no referrers.

use crate::agent::{Agent, AgentKind};
use crate::walk::crawl;
use crate::world::ClientWorld;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// An address-harvesting robot.
#[derive(Debug, Clone)]
pub struct EmailHarvester {
    /// Maximum pages per session.
    pub page_budget: u32,
    /// Delay between fetches, ms.
    pub delay_ms: u64,
}

impl Default for EmailHarvester {
    fn default() -> Self {
        EmailHarvester {
            page_budget: 35,
            delay_ms: 80,
        }
    }
}

impl Agent for EmailHarvester {
    fn kind(&self) -> AgentKind {
        AgentKind::EmailHarvester
    }

    fn user_agent(&self) -> String {
        // Forged: harvesters learned long ago to hide from UA filters.
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        // Harvesters of the period used HTML parsers tuned to find
        // addresses; they follow parsed anchor elements (visible links)
        // rather than grepping bytes, which keeps them out of the
        // hidden-link trap — and is why the trap alone catches only ~1%
        // of sessions (Table 1).
        let (budget, delay_ms) = (self.page_budget, self.delay_ms);
        crawl(world, budget, delay_ms, |_, frontier, _, view| {
            // Shuffle order a little so sessions differ.
            let mut links = view.links;
            if links.len() > 1 {
                let swap = rng.gen_range(0..links.len());
                links.swap(0, swap);
            }
            for link in links {
                frontier.push(link, None);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn html_only_no_probes() {
        let mut world = MockWorld::new(1);
        let mut bot = EmailHarvester::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert!(world.page_fetches > 1);
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.js_file_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
        assert_eq!(world.hidden_link_hits(), 0);
    }

    #[test]
    fn forges_a_browser_ua() {
        let bot = EmailHarvester::default();
        assert!(bot.user_agent().contains("Firefox"));
    }
}
