//! The blind crawler: scans raw HTML bytes and follows *every* URL,
//! including the hidden link behind the transparent pixel — the exact
//! behaviour the hidden-link trap (§2.2) exists to catch. Fetches HTML
//! only; never downloads CSS, images, or scripts.

use crate::agent::{Agent, AgentKind};
use crate::walk::crawl;
use crate::world::ClientWorld;
use botwall_webgraph::scan;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`CrawlerBot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrawlerConfig {
    /// Maximum pages fetched per session.
    pub page_budget: u32,
    /// Delay between fetches in ms (crawlers are fast).
    pub delay_ms: u64,
    /// Whether the crawler forges a browser User-Agent.
    pub forge_ua: bool,
}

impl Default for CrawlerConfig {
    fn default() -> Self {
        CrawlerConfig {
            page_budget: 40,
            delay_ms: 120,
            forge_ua: true,
        }
    }
}

/// A breadth-first byte-scanning crawler.
#[derive(Debug, Clone)]
pub struct CrawlerBot {
    config: CrawlerConfig,
}

impl CrawlerBot {
    /// Creates a crawler.
    pub fn new(config: CrawlerConfig) -> CrawlerBot {
        CrawlerBot { config }
    }
}

impl Agent for CrawlerBot {
    fn kind(&self) -> AgentKind {
        AgentKind::Crawler
    }

    fn user_agent(&self) -> String {
        if self.config.forge_ua {
            // Forged to slip past signature matching.
            "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)".to_string()
        } else {
            "DeepCrawl/0.9".to_string()
        }
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, _rng: &mut ChaCha8Rng) {
        let (budget, delay_ms) = (self.config.page_budget, self.config.delay_ms);
        crawl(world, budget, delay_ms, |_, frontier, uri, view| {
            // Byte-level scanning: every href found in the raw markup is
            // followed — visible or not.
            for link in scan::scan_links(&view.html) {
                let Ok(resolved) = uri.join(&link) else {
                    continue;
                };
                // HTML-only: skip anything that looks like an asset.
                if !matches!(
                    resolved.extension().as_deref(),
                    Some("css") | Some("js") | Some("jpg") | Some("gif") | Some("png")
                ) {
                    frontier.push(resolved, None);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    fn run(config: CrawlerConfig, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(seed);
        let mut bot = CrawlerBot::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        bot.run_session(&mut world, &mut rng);
        world
    }

    #[test]
    fn follows_hidden_links() {
        let world = run(CrawlerConfig::default(), 1);
        assert!(
            world.hidden_link_hits() > 0,
            "a blind crawler must trip the hidden-link trap"
        );
    }

    #[test]
    fn fetches_no_presentation_content() {
        let world = run(CrawlerConfig::default(), 2);
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.js_file_hits(), 0);
        assert_eq!(world.agent_beacon_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
        assert_eq!(world.favicon_hits, 0);
    }

    #[test]
    fn respects_page_budget() {
        let world = run(
            CrawlerConfig {
                page_budget: 5,
                ..CrawlerConfig::default()
            },
            3,
        );
        assert!(world.client().ledger().requests <= 5);
    }

    #[test]
    fn never_revisits_a_url() {
        let world = run(CrawlerConfig::default(), 4);
        let mut sorted = world.request_log.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            world.request_log.len(),
            "no duplicate fetches"
        );
    }
}
