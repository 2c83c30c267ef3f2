//! The offline browser / site mirrorer: "there are some exceptions like
//! off-line browsers that download all the possible files for future
//! display" (§2.2). It fetches pages *and* every embedded object —
//! including the CSS probe — but never executes JavaScript and never
//! produces mouse events.
//!
//! This species is the paper's acknowledged false-positive source: under
//! the set algebra it lands in `S_CSS` without landing in `S_JS`, so it is
//! classified human. The gap between the human-set bounds (the 2.4% max
//! FPR) is populated by exactly these sessions.

use crate::agent::{Agent, AgentKind};
use crate::walk::{crawl, render, Script};
use crate::world::{ClientWorld, FetchSpec};
use rand_chacha::ChaCha8Rng;

/// A mirroring robot.
#[derive(Debug, Clone)]
pub struct OfflineBrowser {
    /// Maximum pages per session.
    pub page_budget: u32,
    /// Delay between fetches, ms.
    pub delay_ms: u64,
    /// Whether to follow hidden links too (tools differed; the default
    /// mirrors visible structure only, which is what makes this species a
    /// false positive rather than a hidden-link catch).
    pub follow_hidden: bool,
}

impl Default for OfflineBrowser {
    fn default() -> Self {
        OfflineBrowser {
            page_budget: 15,
            delay_ms: 250,
            follow_hidden: false,
        }
    }
}

impl Agent for OfflineBrowser {
    fn kind(&self) -> AgentKind {
        AgentKind::OfflineBrowser
    }

    fn user_agent(&self) -> String {
        // Mirroring tools mostly forged browser strings by 2006.
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.7.5) Gecko/20050512 Netscape/8.0"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, _rng: &mut ChaCha8Rng) {
        let (budget, delay_ms) = (self.page_budget, self.delay_ms);
        crawl(world, budget, delay_ms, |world, frontier, uri, view| {
            let page_url = uri.to_string();
            // Mirror every embedded object, including the CSS probe and
            // the script file — but never run anything.
            for asset in view.embedded {
                if frontier.mark(&asset) {
                    world.fetch(FetchSpec::get_with_referer(asset, page_url.clone()));
                }
            }
            if let Some(m) = &view.manifest {
                render(world, m, &page_url, true, Script::Download);
                if self.follow_hidden {
                    if let Some(hidden) = &m.hidden_link {
                        frontier.push(hidden.clone(), Some(page_url.clone()));
                    }
                }
            }
            for link in view.links {
                frontier.push(link, Some(page_url.clone()));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    fn run(follow_hidden: bool, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(seed);
        let mut bot = OfflineBrowser {
            follow_hidden,
            ..OfflineBrowser::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        bot.run_session(&mut world, &mut rng);
        world
    }

    #[test]
    fn downloads_probes_but_never_executes() {
        let world = run(false, 1);
        assert!(world.css_probe_hits() > 0, "mirrors the CSS probe");
        assert!(world.js_file_hits() > 0, "mirrors the script file");
        assert_eq!(world.agent_beacon_hits(), 0, "never executes JS");
        assert_eq!(world.mouse_beacon_hits(), 0, "no human at the controls");
        assert_eq!(world.decoy_hits(), 0, "mirrors don't fetch script URLs");
    }

    #[test]
    fn default_config_avoids_hidden_links() {
        let world = run(false, 2);
        assert_eq!(world.hidden_link_hits(), 0);
    }

    #[test]
    fn hidden_following_variant_gets_caught() {
        let world = run(true, 3);
        assert!(world.hidden_link_hits() > 0);
    }
}
