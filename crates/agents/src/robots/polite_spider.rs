//! The Robot-Exclusion-Protocol-compliant spider: fetches `robots.txt`
//! first, declares itself in the User-Agent with contact information, and
//! crawls visible links slowly. It is the one species an advisory REP
//! check (§5) would catch.

use crate::agent::{Agent, AgentKind};
use crate::walk::crawl;
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::Uri;
use rand_chacha::ChaCha8Rng;

/// A declared, polite crawler.
#[derive(Debug, Clone)]
pub struct PoliteSpider {
    /// Maximum pages per session.
    pub page_budget: u32,
    /// Politeness delay between fetches, ms.
    pub delay_ms: u64,
}

impl Default for PoliteSpider {
    fn default() -> Self {
        PoliteSpider {
            page_budget: 30,
            delay_ms: 1_000,
        }
    }
}

impl Agent for PoliteSpider {
    fn kind(&self) -> AgentKind {
        AgentKind::PoliteSpider
    }

    fn user_agent(&self) -> String {
        "FriendlySpider/1.2 (+http://friendly.example/bot.html; admin@friendly.example)".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, _rng: &mut ChaCha8Rng) {
        // REP: retrieve robots.txt before crawling.
        if let Some(host) = world.entry_point().host() {
            world.fetch(FetchSpec::get(Uri::absolute(host, "/robots.txt")));
        }
        let (budget, delay_ms) = (self.page_budget, self.delay_ms);
        crawl(world, budget, delay_ms, |_, frontier, _, view| {
            // Polite spiders parse properly and follow only visible links.
            for link in view.links {
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
    fn fetches_robots_txt_first() {
        let mut world = MockWorld::new(1);
        let mut bot = PoliteSpider::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.robots_txt_hits, 1);
        assert!(world.request_log[0].contains("/robots.txt"));
    }

    #[test]
    fn avoids_hidden_links_and_assets() {
        let mut world = MockWorld::new(2);
        let mut bot = PoliteSpider::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.hidden_link_hits(), 0, "parses the DOM, skips traps");
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
    }

    #[test]
    fn declares_itself() {
        let bot = PoliteSpider::default();
        let ua = bot.user_agent();
        assert!(ua.contains("+http://"), "REP contact info present");
        assert!(ua.to_lowercase().contains("spider"));
    }
}
