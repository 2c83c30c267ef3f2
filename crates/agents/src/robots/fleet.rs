//! The coordinated fleet: many sessions, one shared loot bag.
//!
//! Each member scrapes what its own sessions are given — beacon-shaped
//! image URLs scanned out of the injected script, and the answer to any
//! CAPTCHA one member bothered to solve — and deposits it in a cache the
//! whole fleet shares. Later sessions spend the loot instead of earning
//! their own: they replay harvested beacon URLs and re-submit the solved
//! `(id, answer)` pair.
//!
//! Both moves are exactly what the hardening in PRs 4–5 exists to stop:
//! a beacon key is bound to the session it was issued to, so a
//! cross-session redemption reads as a forged key (hard robot evidence),
//! and a CAPTCHA id is burned service-wide on first acceptance, so the
//! shared answer buys nothing twice.

use crate::agent::{Agent, AgentKind};
use crate::walk::{render, walk, Script};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::{Uri, UserAgent};
use rand::seq::SliceRandom;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// The fleet's shared loot: harvested beacon-shaped URLs and solved
/// CAPTCHA pairs, deposited by any member and spent by all.
#[derive(Debug, Default)]
pub struct FleetCache {
    /// Beacon-shaped URLs scanned from instrumented pages (the scanner
    /// cannot tell the real mouse beacon from the decoys).
    pub beacon_urls: Vec<Uri>,
    /// Solved CAPTCHA `(id, answer)` pairs.
    pub captcha_answers: Vec<(u64, String)>,
}

/// How many harvested URLs the cache keeps (oldest dropped first).
const CACHE_CAP: usize = 256;

/// Configuration for [`FleetBot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Pages per session.
    pub pages: u32,
    /// Delay between pages, ms.
    pub delay_ms: u64,
    /// How many harvested URLs one session replays before browsing.
    pub replays_per_session: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            pages: 6,
            delay_ms: 400,
            replays_per_session: 3,
        }
    }
}

/// One member of the coordinated fleet.
#[derive(Debug, Clone)]
pub struct FleetBot {
    config: FleetConfig,
    cache: Arc<Mutex<FleetCache>>,
}

impl FleetBot {
    /// Creates a member wired to the fleet's shared cache.
    pub fn new(config: FleetConfig, cache: Arc<Mutex<FleetCache>>) -> FleetBot {
        FleetBot { config, cache }
    }

    /// A fresh single-member fleet (tests, demos).
    pub fn solo(config: FleetConfig) -> FleetBot {
        FleetBot::new(config, Arc::new(Mutex::new(FleetCache::default())))
    }

    /// The shared cache handle.
    pub fn cache(&self) -> Arc<Mutex<FleetCache>> {
        Arc::clone(&self.cache)
    }
}

impl Agent for FleetBot {
    fn kind(&self) -> AgentKind {
        AgentKind::FleetBot
    }

    fn user_agent(&self) -> String {
        "Mozilla/5.0 (Windows; U; Windows NT 5.1; en-US; rv:1.8.0.1) Gecko/20060111 Firefox/1.5.0.1"
            .to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        // Spend loot first: replay URLs harvested by earlier sessions.
        let (replays, solved) = {
            let cache = self.cache.lock().expect("fleet cache");
            let n = (self.config.replays_per_session as usize).min(cache.beacon_urls.len());
            let start = cache.beacon_urls.len() - n;
            (
                cache.beacon_urls[start..].to_vec(),
                cache.captcha_answers.last().cloned(),
            )
        };
        for url in replays {
            world.fetch(FetchSpec::get(url));
            world.sleep(self.config.delay_ms / 2);
        }
        // Re-submit the fleet's solved CAPTCHA pair (burned service-wide
        // after its first acceptance, so this buys nothing).
        if let Some((id, answer)) = &solved {
            world.answer_captcha(*id, answer);
        }

        // Then browse and harvest like the §4.1 scanner.
        let query = format!(
            "agent={}&wd=0&pl=3",
            UserAgent::canonicalize(&self.user_agent())
        );
        let (pages, delay_ms) = (self.config.pages, self.config.delay_ms);
        walk(world, pages, delay_ms * 4, |world, page_url, view| {
            if let Some(m) = &view.manifest {
                // Blend in: fetch the probe suite and fire the reporter
                // with a consistent forgery (header-matching agent, clean
                // environment) — the fleet's tell is its loot, not its
                // fingerprint.
                render(world, m, page_url, true, Script::Run(&query));
                // Harvest every beacon-shaped URL the scanner can see.
                let mut cache = self.cache.lock().expect("fleet cache");
                for url in m.decoy_beacons.iter().chain(m.mouse_beacon.iter()).cloned() {
                    cache.beacon_urls.push(url);
                }
                if cache.beacon_urls.len() > CACHE_CAP {
                    let drop = cache.beacon_urls.len() - CACHE_CAP;
                    cache.beacon_urls.drain(..drop);
                }
            }
            // One member solves the CAPTCHA honestly and shares the pair.
            if solved.is_none() {
                if let Some(ch) = world.offer_captcha() {
                    let answer = ch.answer().to_string();
                    world.answer_captcha(ch.id, &answer);
                    self.cache
                        .lock()
                        .expect("fleet cache")
                        .captcha_answers
                        .push((ch.id, answer));
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

    #[test]
    fn harvests_into_the_shared_cache() {
        let bot = FleetBot::solo(FleetConfig::default());
        let cache = bot.cache();
        let mut world = MockWorld::new(1);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut member = bot.clone();
        member.run_session(&mut world, &mut rng);
        let loot = cache.lock().unwrap();
        assert!(!loot.beacon_urls.is_empty(), "beacon URLs harvested");
        assert!(!loot.captcha_answers.is_empty(), "captcha pair shared");
    }

    #[test]
    fn later_members_replay_harvested_urls() {
        let bot = FleetBot::solo(FleetConfig::default());
        let cache = bot.cache();
        let mut first = bot.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        first.run_session(&mut MockWorld::new(2), &mut rng);
        let harvested = cache.lock().unwrap().beacon_urls.len();
        assert!(harvested > 0);

        // The second member replays loot it never earned: in its own
        // session those keys were never issued, so they land as decoy or
        // unknown (forged) fetches.
        let mut second = bot.clone();
        let mut world = MockWorld::new(3);
        second.run_session(&mut world, &mut rng);
        assert!(
            world.decoy_hits() + world.unknown_beacon_hits() > 0,
            "cross-session replays misfire: decoys={} unknown={}",
            world.decoy_hits(),
            world.unknown_beacon_hits()
        );
    }

    #[test]
    fn cache_is_bounded() {
        let bot = FleetBot::solo(FleetConfig {
            pages: 60,
            ..FleetConfig::default()
        });
        let cache = bot.cache();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for seed in 0..20 {
            let mut member = bot.clone();
            member.run_session(&mut MockWorld::new(seed), &mut rng);
        }
        assert!(cache.lock().unwrap().beacon_urls.len() <= CACHE_CAP);
    }
}
