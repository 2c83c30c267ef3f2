//! The headless-browser imitator — the modern escalation past §4.1's
//! smart bot.
//!
//! Where [`crate::robots::SmartBot`] merely *scans* for beacon URLs (and
//! gambles against the decoys), a headless browser genuinely renders the
//! page: it executes the injected script, so the real mouse handler is
//! wired up, and driving synthesized pointer events through it redeems
//! the *correct* keyed beacon — no decoy gamble at all. On the paper's
//! original evidence lattice this adversary is indistinguishable from a
//! human.
//!
//! What gives it away is the execution *environment*: off-the-shelf
//! automation frameworks leak machine-checkable signals — the
//! WebDriver-mandated `navigator.webdriver` flag and the empty
//! `navigator.plugins` array of a headless build — which the agent
//! reporter now ships alongside the agent string (the "Detecting Bot
//! Detection" catalogue). The [`HeadlessBrowser`] model leaks them; its
//! `stealth` variant patches them over, bounding honestly what this
//! detector family can and cannot catch.

use crate::agent::{Agent, AgentKind};
use crate::walk::{render, walk, Script};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::UserAgent;
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`HeadlessBrowser`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadlessConfig {
    /// Pages per session.
    pub pages: u32,
    /// Delay between pages, ms.
    pub delay_ms: u64,
    /// If `true`, the framework's leaks are patched: the reporter claims
    /// `webdriver = false` and a populated plugin list, exactly like a
    /// real desktop browser. The evader half of the honest eval.
    pub stealth: bool,
}

impl Default for HeadlessConfig {
    fn default() -> Self {
        HeadlessConfig {
            pages: 8,
            delay_ms: 700,
            stealth: false,
        }
    }
}

/// A headless browser driven by an automation framework.
#[derive(Debug, Clone)]
pub struct HeadlessBrowser {
    config: HeadlessConfig,
}

impl HeadlessBrowser {
    /// Creates the imitator.
    pub fn new(config: HeadlessConfig) -> HeadlessBrowser {
        HeadlessBrowser { config }
    }
}

impl Agent for HeadlessBrowser {
    fn kind(&self) -> AgentKind {
        if self.config.stealth {
            AgentKind::StealthHeadless
        } else {
            AgentKind::HeadlessBrowser
        }
    }

    fn user_agent(&self) -> String {
        // A real rendering engine behind the header: the UA is genuine.
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        // The script runs for real, so the reporter ships the *true*
        // environment — unless stealth patches it.
        let reported = UserAgent::canonicalize(&self.user_agent());
        let (wd, pl) = if self.config.stealth { (0, 3) } else { (1, 0) };
        let query = format!("agent={reported}&wd={wd}&pl={pl}");
        let (pages, delay_ms) = (self.config.pages, self.config.delay_ms);
        walk(world, pages, delay_ms * 4, |world, page_url, view| {
            if let Some(m) = &view.manifest {
                // A rendering engine pulls the whole probe suite.
                render(world, m, page_url, true, Script::Run(&query));
                // Synthesized mouse entropy dispatched through the live
                // handler redeems the genuine keyed beacon — decoys are
                // never touched, because the handler knows its own URL.
                if let Some(beacon) = &m.mouse_beacon {
                    world.fetch(FetchSpec::get_with_referer(beacon.clone(), page_url));
                }
            }
            world.sleep(delay_ms);
            view.links.choose(rng).cloned()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    fn run(config: HeadlessConfig, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(seed);
        let mut bot = HeadlessBrowser::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        bot.run_session(&mut world, &mut rng);
        world
    }

    #[test]
    fn redeems_the_real_mouse_beacon_without_decoy_gambles() {
        let world = run(HeadlessConfig::default(), 1);
        assert!(world.css_probe_hits() > 0);
        assert!(world.js_file_hits() > 0);
        assert!(world.agent_beacon_hits() > 0, "script executed");
        assert!(world.mouse_beacon_hits() > 0, "synthesized entropy redeems");
        assert_eq!(world.decoy_hits(), 0, "live handler never touches decoys");
        assert_eq!(world.hidden_link_hits(), 0, "renders, so sees the CSS hide");
    }

    #[test]
    fn leaky_and_stealth_variants_report_different_environments() {
        let leaky = run(HeadlessConfig::default(), 2);
        let stealth = run(
            HeadlessConfig {
                stealth: true,
                ..HeadlessConfig::default()
            },
            2,
        );
        let reporter = |w: &MockWorld| {
            w.request_log
                .iter()
                .find(|l| l.contains("?agent="))
                .cloned()
                .expect("agent beacon fired")
        };
        assert!(reporter(&leaky).contains("&wd=1&pl=0"), "framework leaks");
        assert!(reporter(&stealth).contains("&wd=0&pl=3"), "leaks patched");
    }

    #[test]
    fn kind_tracks_stealth() {
        assert_eq!(
            HeadlessBrowser::new(HeadlessConfig::default()).kind(),
            AgentKind::HeadlessBrowser
        );
        assert_eq!(
            HeadlessBrowser::new(HeadlessConfig {
                stealth: true,
                ..HeadlessConfig::default()
            })
            .kind(),
            AgentKind::StealthHeadless
        );
    }
}
