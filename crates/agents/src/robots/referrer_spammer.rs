//! The referrer spammer: issues requests whose forged `Referer` headers
//! advertise spam sites, to inflate search rankings via referrer logs and
//! trackback links (abuse category 2 in the paper's introduction; the
//! July-2005 complaint peak in Figure 3 was "mostly referrer spam and
//! click fraud").
//!
//! Tell-tales reproduced: HTML-only, *every* request carries a referrer,
//! and the referrer is always previously unseen — lighting up the
//! `REFERRER %` and `UNSEEN REFERRER %` features that the paper found
//! among the most informative.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A referrer-spamming robot.
#[derive(Debug, Clone)]
pub struct ReferrerSpammer {
    /// Requests per session.
    pub requests: u32,
    /// Delay between requests, ms.
    pub delay_ms: u64,
    /// Spam domains to advertise.
    pub spam_domains: Vec<String>,
}

impl Default for ReferrerSpammer {
    fn default() -> Self {
        ReferrerSpammer {
            requests: 25,
            delay_ms: 200,
            spam_domains: vec![
                "cheap-pills.example".to_string(),
                "casino-wins.example".to_string(),
                "rank-booster.example".to_string(),
            ],
        }
    }
}

impl Agent for ReferrerSpammer {
    fn kind(&self) -> AgentKind {
        AgentKind::ReferrerSpammer
    }

    fn user_agent(&self) -> String {
        "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1; SV1)".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        let entry = world.entry_point();
        let mut targets = vec![entry.clone()];
        for i in 0..self.requests {
            let target = targets[rng.gen_range(0..targets.len())].clone();
            let domain = &self.spam_domains[rng.gen_range(0..self.spam_domains.len())];
            // Unique path per request: the referrer is always unseen.
            let forged = format!("http://{domain}/promo/{i}_{}.html", rng.gen::<u32>());
            let out = world.fetch(FetchSpec::get_with_referer(target, forged));
            world.sleep(self.delay_ms);
            if let Some(view) = out.page {
                for l in view.links.into_iter().take(2) {
                    if !targets.iter().any(|t| t == &l) {
                        targets.push(l);
                    }
                }
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
    fn every_request_has_a_forged_referer() {
        let mut world = MockWorld::new(1);
        let mut bot = ReferrerSpammer::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.page_fetches, world.page_fetches_with_referer);
        assert!(world.page_fetches >= 20);
    }

    #[test]
    fn fetches_no_presentation_content() {
        let mut world = MockWorld::new(2);
        let mut bot = ReferrerSpammer::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
        assert_eq!(world.favicon_hits, 0);
    }
}
