//! The LLM-driven browsing agent.
//!
//! A language-model agent reads pages through a text extraction layer:
//! no stylesheet fetches, no script execution, no pointer. Its pacing is
//! the inverse of a classic crawler's — *slow*, because every step waits
//! on model inference, landing squarely inside human think-time bands.
//! What stays non-human is the traversal: the agent works through the
//! site systematically (sorted, exhaustive, deduplicated), where humans
//! meander and repeat.
//!
//! Against the evidence lattice this adversary looks exactly like the
//! paper's no-signal crawlers — it never touches a probe — so the
//! browser test catches it on silence (`NoBrowserSignals`), pacing
//! notwithstanding. It earns its place in the escalation suite as the
//! honest negative: human rhythm alone does not beat the detector.

use crate::agent::{Agent, AgentKind};
use crate::walk::walk;
use crate::world::ClientWorld;
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// Configuration for [`LlmAgent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlmAgentConfig {
    /// Pages per session (the agent's step budget).
    pub pages: u32,
    /// Inter-request pacing band, ms — inference latency plus reading
    /// time, tuned to sit inside human think-time.
    pub think_time_ms: (u64, u64),
}

impl Default for LlmAgentConfig {
    fn default() -> Self {
        LlmAgentConfig {
            pages: 10,
            think_time_ms: (800, 4_000),
        }
    }
}

/// An LLM-backed agent traversing the site via a text browser.
#[derive(Debug, Clone)]
pub struct LlmAgent {
    config: LlmAgentConfig,
}

impl LlmAgent {
    /// Creates the agent.
    pub fn new(config: LlmAgentConfig) -> LlmAgent {
        LlmAgent { config }
    }
}

impl Agent for LlmAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::LlmAgent
    }

    fn user_agent(&self) -> String {
        // The tool layer forwards a stock browser header.
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        // Systematic frontier: lexicographically ordered, each page once.
        let mut frontier: BTreeSet<String> = BTreeSet::new();
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let (least, most) = self.config.think_time_ms;
        walk(world, self.config.pages, most, |world, page_url, view| {
            seen.insert(page_url.to_string());
            // The text layer surfaces links only; probes, stylesheets and
            // scripts never reach the model.
            for link in &view.links {
                let s = link.to_string();
                if !seen.contains(&s) {
                    frontier.insert(s);
                }
            }
            // "Inference": human-band pacing between steps.
            world.sleep(rng.gen_range(least..=most));
            // Next step: the first unvisited link in sorted order — the
            // systematic tell no human traversal produces.
            frontier.pop_first()?.parse::<Uri>().ok()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    fn run(config: LlmAgentConfig, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(seed);
        let mut agent = LlmAgent::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        agent.run_session(&mut world, &mut rng);
        world
    }

    #[test]
    fn never_touches_a_probe() {
        let world = run(LlmAgentConfig::default(), 1);
        assert!(world.page_fetches > 3, "traverses the site");
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.js_file_hits(), 0);
        assert_eq!(world.agent_beacon_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
        assert_eq!(world.decoy_hits(), 0);
    }

    #[test]
    fn traversal_is_systematic_and_deduplicated() {
        let world = run(LlmAgentConfig::default(), 2);
        // A redirect stub answers 302, not a page: the agent tries it
        // again instead of visiting it, so only pages count here.
        let is_page = |line: &String| {
            let uri: Uri = line.split_once(' ').unwrap().1.parse().unwrap();
            let page = world.site().page_by_path(uri.path());
            page.is_some_and(|p| p.redirect_to.is_none())
        };
        let pages: Vec<&String> = world.request_log.iter().filter(|l| is_page(l)).collect();
        let unique: BTreeSet<&String> = pages.iter().copied().collect();
        assert_eq!(pages.len(), unique.len(), "each page visited once");
        // Mostly-ascending order: the frontier-min policy only breaks
        // rank when a late-discovered link sorts below visited ground.
        let ascending = pages.windows(2).filter(|w| w[0] < w[1]).count();
        assert!(
            ascending * 4 >= (pages.len() - 1) * 3,
            "systematic traversal should be mostly ascending: {pages:?}"
        );
    }

    #[test]
    fn pacing_sits_in_the_human_band() {
        let config = LlmAgentConfig::default();
        let world = run(config, 3);
        let span = world.now().as_millis();
        let per_page = span / world.page_fetches.max(1);
        assert!(
            per_page >= config.think_time_ms.0,
            "per-page pacing {per_page}ms is slower than a crawler"
        );
    }
}
