//! The e-mail address harvester: walks pages quickly looking for
//! `mailto:` addresses. Requests only HTML ("Some Web crawlers request
//! only HTML files, as do email address collectors" — §2.2), keeps no
//! rendering state, and sends no referrers.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashSet, VecDeque};

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
        let mut queue: VecDeque<Uri> = VecDeque::new();
        let mut seen: HashSet<String> = HashSet::new();
        queue.push_back(world.entry_point());
        let mut fetched = 0;
        while let Some(uri) = queue.pop_front() {
            if fetched >= self.page_budget {
                break;
            }
            if !seen.insert(uri.to_string()) {
                continue;
            }
            let out = world.fetch(FetchSpec::get(uri));
            fetched += 1;
            world.sleep(self.delay_ms);
            let Some(view) = out.page else { continue };
            // Shuffle order a little so sessions differ.
            let mut links = view.links.clone();
            if links.len() > 1 {
                let swap = rng.gen_range(0..links.len());
                links.swap(0, swap);
            }
            for link in links {
                queue.push_back(link);
            }
        }
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
