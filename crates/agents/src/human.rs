//! The human browsing model.
//!
//! A human drives a browser: fetches a page, lets the browser pull in its
//! embedded objects (including the injected CSS probe and script), dwells
//! while reading, moves the mouse (firing the beacon — once, thanks to the
//! `do_once` flag in the generated script), and clicks a *visible* link.
//! Humans never fetch the hidden link — they cannot see it.
//!
//! The first mouse event is modelled per page view with probability
//! `mouse_move_per_page`; this geometric page distribution is what shapes
//! the Figure-2 mouse CDF (80% of mouse movers detected within ~20
//! requests).

use crate::agent::{Agent, AgentKind};
use crate::browser::BrowserProfile;
use crate::oracle::SolverProfile;
use crate::walk::{get, render, Script};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::UserAgent;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Tunables for the human model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HumanConfig {
    /// Pages visited per session (min, max).
    pub pages: (u32, u32),
    /// Dwell time per page in ms (min, max).
    pub think_time_ms: (u64, u64),
    /// Probability the user moves the mouse during any given page view.
    pub mouse_move_per_page: f64,
    /// Probability the user attempts an offered CAPTCHA (the incentive
    /// opt-in rate).
    pub captcha: SolverProfile,
}

impl Default for HumanConfig {
    fn default() -> Self {
        HumanConfig {
            pages: (2, 12),
            think_time_ms: (2_000, 30_000),
            mouse_move_per_page: 0.45,
            captcha: SolverProfile::human_default(),
        }
    }
}

/// A human driving one browser configuration.
#[derive(Debug, Clone)]
pub struct HumanAgent {
    profile: BrowserProfile,
    config: HumanConfig,
}

impl HumanAgent {
    /// Creates a human with the given browser and behaviour.
    pub fn new(profile: BrowserProfile, config: HumanConfig) -> HumanAgent {
        HumanAgent { profile, config }
    }

    /// The browser profile in use.
    pub fn profile(&self) -> &BrowserProfile {
        &self.profile
    }
}

impl Agent for HumanAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::Human(self.profile.family)
    }

    fn user_agent(&self) -> String {
        self.profile.user_agent().to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        let pages = rng.gen_range(self.config.pages.0..=self.config.pages.1);
        // Running the script, the agent reporter fires with the *true*
        // canonicalized agent string plus the benign environment facts
        // every real desktop browser reports — no webdriver, a populated
        // plugin list.
        let query = format!(
            "agent={}&wd=0&pl=3",
            UserAgent::canonicalize(&self.user_agent())
        );
        let script = if self.profile.js_enabled {
            Script::Run(&query)
        } else {
            Script::Skip
        };
        let mut current = world.entry_point();
        let mut referer: Option<String> = None;
        let mut moved_mouse = false;
        let mut fetched_favicon = false;
        let mut captcha_offered = false;

        for _ in 0..pages {
            let outcome = world.fetch(get(current.clone(), referer.clone()));
            let Some(view) = outcome.page else {
                // Redirect loops or errors: a human gives up quickly.
                break;
            };
            let page_url = current.to_string();

            // The browser pulls embedded objects automatically.
            for asset in &view.embedded {
                let class_css = asset.extension().as_deref() == Some("css");
                let class_js = asset.extension().as_deref() == Some("js");
                if class_css && !self.profile.fetches_css {
                    continue;
                }
                if class_js && !self.profile.js_enabled {
                    // A JS-disabled browser still downloads nothing it
                    // will not run; it skips script files.
                    continue;
                }
                if !class_css && !class_js && !self.profile.fetches_images {
                    continue;
                }
                world.fetch(FetchSpec::get_with_referer(asset.clone(), page_url.clone()));
            }
            // The injected CSS probe is just another stylesheet link; the
            // script runs when JavaScript is on.
            if let Some(manifest) = &view.manifest {
                render(world, manifest, &page_url, self.profile.fetches_css, script);
            }
            if self.profile.fetches_favicon && !fetched_favicon {
                fetched_favicon = true;
                if let Some(host) = current.host() {
                    let fav = botwall_http::Uri::absolute(host, "/favicon.ico");
                    world.fetch(FetchSpec::get(fav));
                }
            }

            // CAPTCHA offer (once per session).
            if !captcha_offered {
                captcha_offered = true;
                if let Some(ch) = world.offer_captcha() {
                    if let Some(success) = self.config.captcha.attempt(&ch, rng) {
                        let answer = if success {
                            ch.answer().to_string()
                        } else {
                            "wrong-guess".to_string()
                        };
                        world.answer_captcha(ch.id, &answer);
                    }
                }
            }

            // Dwell on the page; somewhere in there, maybe move the mouse.
            let dwell = rng.gen_range(self.config.think_time_ms.0..=self.config.think_time_ms.1);
            world.sleep(dwell / 2);
            if !moved_mouse
                && self.profile.js_enabled
                && rng.gen_bool(self.config.mouse_move_per_page)
            {
                moved_mouse = true;
                if let Some(beacon) = view.manifest.as_ref().and_then(|m| m.mouse_beacon.clone()) {
                    world.fetch(FetchSpec::get_with_referer(beacon, page_url.clone()));
                }
            }
            world.sleep(dwell / 2);

            // Click a visible link (humans only follow what they can see).
            let next = view
                .links
                .iter()
                .filter(|l| Some(l.path()) != view.manifest.as_ref().map(|m| m.page.path()))
                .collect::<Vec<_>>();
            if next.is_empty() {
                break;
            }
            // Clicking a link IS mouse activity: a human physically cannot
            // navigate without moving the mouse (or typing — either fires
            // the handler). The paper hooks exactly this via `onclick` on
            // anchors, so the first navigation redeems the beacon if the
            // page dwell did not already.
            if !moved_mouse && self.profile.js_enabled {
                moved_mouse = true;
                if let Some(beacon) = view.manifest.as_ref().and_then(|m| m.mouse_beacon.clone()) {
                    world.fetch(FetchSpec::get_with_referer(beacon, page_url.clone()));
                }
            }
            let pick = next[rng.gen_range(0..next.len())].clone();
            referer = Some(page_url);
            current = pick;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use botwall_http::BrowserFamily;
    use rand_chacha::rand_core::SeedableRng;

    fn run(profile: BrowserProfile, config: HumanConfig, seed: u64) -> MockWorld {
        let mut world = MockWorld::new(7);
        let mut agent = HumanAgent::new(profile, config);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        agent.run_session(&mut world, &mut rng);
        world
    }

    fn eager_config() -> HumanConfig {
        HumanConfig {
            pages: (6, 6),
            think_time_ms: (10, 20),
            mouse_move_per_page: 1.0,
            ..HumanConfig::default()
        }
    }

    #[test]
    fn js_human_fires_all_probes_but_never_hidden_link() {
        let world = run(
            BrowserProfile::standard(BrowserFamily::Firefox),
            eager_config(),
            1,
        );
        assert!(world.css_probe_hits() > 0, "fetched CSS probe");
        assert!(world.js_file_hits() > 0, "downloaded the script");
        assert!(world.agent_beacon_hits() > 0, "executed the script");
        assert!(world.mouse_beacon_hits() > 0, "moved the mouse");
        assert_eq!(
            world.hidden_link_hits(),
            0,
            "humans cannot see hidden links"
        );
        assert_eq!(world.decoy_hits(), 0, "humans run the real handler only");
    }

    #[test]
    fn js_disabled_human_fetches_css_but_no_beacons() {
        let world = run(
            BrowserProfile::js_disabled(BrowserFamily::Firefox),
            eager_config(),
            2,
        );
        assert!(world.css_probe_hits() > 0);
        assert_eq!(world.js_file_hits(), 0);
        assert_eq!(world.agent_beacon_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0, "no JS, no beacon");
    }

    #[test]
    fn mouse_fires_at_most_once() {
        let world = run(
            BrowserProfile::standard(BrowserFamily::InternetExplorer),
            eager_config(),
            3,
        );
        assert_eq!(world.mouse_beacon_hits(), 1, "do_once semantics");
    }

    #[test]
    fn favicon_once_for_fetching_browsers() {
        let world = run(
            BrowserProfile::standard(BrowserFamily::Firefox),
            eager_config(),
            4,
        );
        assert_eq!(world.favicon_hits, 1);
        let world = run(
            BrowserProfile::standard(BrowserFamily::Opera),
            eager_config(),
            5,
        );
        assert_eq!(world.favicon_hits, 0);
    }

    #[test]
    fn referers_follow_navigation() {
        let world = run(
            BrowserProfile::standard(BrowserFamily::Safari),
            eager_config(),
            6,
        );
        // After the first page, every page fetch carries a referer.
        assert!(world.page_fetches >= 2);
        assert!(world.page_fetches_with_referer >= world.page_fetches - 1);
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        let a = run(
            BrowserProfile::standard(BrowserFamily::Firefox),
            eager_config(),
            9,
        );
        let b = run(
            BrowserProfile::standard(BrowserFamily::Firefox),
            eager_config(),
            9,
        );
        assert_eq!(a.request_log, b.request_log);
    }
}
