//! The JavaScript-capable adversary of §4.1: "A serious hacker could
//! implement a bot that could generate mouse or keystroke events if he or
//! she knows that a human activity detection mechanism has been
//! implemented."
//!
//! This model covers the escalation ladder short of full event forgery:
//!
//! * it downloads CSS and scripts like a browser (defeats the browser
//!   test),
//! * it *executes* the script far enough to fire the agent beacon
//!   (showing up in `S_JS`) — honestly or with a forged agent string,
//! * it optionally scans the script source for beacon URLs and fetches
//!   one blindly, which is precisely what the `m` decoys punish
//!   (caught with probability `m/(m+1)`),
//! * it never produces a true mouse event, so the set algebra lands it in
//!   `S_JS − S_MM`: robot.

use crate::agent::{Agent, AgentKind};
use crate::walk::{render, walk, Script};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::UserAgent;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`SmartBot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmartBotConfig {
    /// Pages per session.
    pub pages: u32,
    /// Delay between pages, ms.
    pub delay_ms: u64,
    /// If `true`, the agent beacon reports the same string as the
    /// User-Agent header (a careful forger); if `false`, the beacon
    /// reports the bot's real engine string and trips the browser-type
    /// mismatch (Table 1's 0.7%).
    pub forge_consistently: bool,
    /// If `true`, the bot scans the downloaded script for image URLs and
    /// blindly fetches one — gambling against the decoys.
    pub scan_beacons: bool,
}

impl Default for SmartBotConfig {
    fn default() -> Self {
        SmartBotConfig {
            pages: 8,
            delay_ms: 500,
            forge_consistently: true,
            scan_beacons: false,
        }
    }
}

/// The §4.1 adversary.
#[derive(Debug, Clone)]
pub struct SmartBot {
    config: SmartBotConfig,
}

impl SmartBot {
    /// Creates the bot.
    pub fn new(config: SmartBotConfig) -> SmartBot {
        SmartBot { config }
    }

    /// The engine string the bot's embedded interpreter reports when it
    /// is not forging.
    fn real_engine(&self) -> &'static str {
        "customjs-engine/0.4 (headless)"
    }
}

impl Agent for SmartBot {
    fn kind(&self) -> AgentKind {
        AgentKind::SmartBot
    }

    fn user_agent(&self) -> String {
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        // "Executing" the script fires the agent beacon with this string.
        let reported = if self.config.forge_consistently {
            UserAgent::canonicalize(&self.user_agent())
        } else {
            UserAgent::canonicalize(self.real_engine())
        };
        let query = format!("agent={reported}");
        let (pages, delay_ms) = (self.config.pages, self.config.delay_ms);
        // A bot does not give up on a 429: it backs off and retries —
        // which is exactly what keeps its session above the >10-request
        // classification floor even while throttled.
        walk(world, pages, delay_ms * 4, |world, page_url, view| {
            if let Some(m) = &view.manifest {
                // Behave like a browser for the probe suite.
                render(world, m, page_url, true, Script::Run(&query));
                // Optionally gamble on a scanned beacon URL. The bot sees
                // the m+1 candidates via static scanning and cannot tell
                // them apart, so it picks uniformly — the paper's
                // m/(m+1) catch probability.
                if self.config.scan_beacons {
                    let mut candidates = m.decoy_beacons.clone();
                    candidates.extend(m.mouse_beacon.clone());
                    if !candidates.is_empty() {
                        let pick = candidates.swap_remove(rng.gen_range(0..candidates.len()));
                        world.fetch(FetchSpec::get_with_referer(pick, page_url));
                    }
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

    fn run(config: SmartBotConfig, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(seed);
        let mut bot = SmartBot::new(config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        bot.run_session(&mut world, &mut rng);
        world
    }

    #[test]
    fn executes_js_but_never_moves_the_mouse() {
        let world = run(SmartBotConfig::default(), 1);
        assert!(world.css_probe_hits() > 0);
        assert!(world.js_file_hits() > 0);
        assert!(world.agent_beacon_hits() > 0, "lands in S_JS");
        assert_eq!(world.mouse_beacon_hits(), 0, "never in S_MM");
    }

    #[test]
    fn beacon_scanning_gets_caught_at_decoy_rate() {
        // Across many independent gambles, decoy hits ≈ m/(m+1) of all
        // beacon fetches (m = 5 decoys by default).
        let mut decoys = 0u64;
        let mut valids = 0u64;
        for seed in 0..60 {
            let world = run(
                SmartBotConfig {
                    scan_beacons: true,
                    pages: 4,
                    ..SmartBotConfig::default()
                },
                seed,
            );
            decoys += world.decoy_hits();
            valids += world.mouse_beacon_hits();
        }
        let total = decoys + valids;
        assert!(total > 100, "enough gambles: {total}");
        let rate = decoys as f64 / total as f64;
        assert!(
            (rate - 5.0 / 6.0).abs() < 0.08,
            "decoy rate {rate} vs expected {}",
            5.0 / 6.0
        );
    }

    #[test]
    fn sloppy_forger_reports_inconsistent_agent() {
        // The world can't check mismatch itself (that's the detector's
        // job); here we just confirm the two modes issue different agent
        // beacon URLs.
        let consistent = run(
            SmartBotConfig {
                forge_consistently: true,
                ..SmartBotConfig::default()
            },
            7,
        );
        let sloppy = run(
            SmartBotConfig {
                forge_consistently: false,
                ..SmartBotConfig::default()
            },
            7,
        );
        let find_agent = |w: &MockWorld| {
            w.request_log
                .iter()
                .find(|l| l.contains("?agent="))
                .cloned()
                .expect("agent beacon fired")
        };
        let a = find_agent(&consistent);
        let b = find_agent(&sloppy);
        assert!(a.contains("firefox"), "consistent forger claims Firefox");
        assert!(b.contains("customjs-engine"), "sloppy forger leaks: {b}");
    }
}
