//! Population mixes: sampling agents by weight.
//!
//! The [`Population::table1`] preset is calibrated so that a large run
//! reproduces the *shape* of the paper's Table 1 over CoDeeN traffic:
//! roughly 22–24% human sessions, ≈29% CSS downloads, ≈27% JS execution,
//! ≈9% CAPTCHA passes, ≈1% hidden-link follows and ≈0.7% browser-type
//! mismatches. The derivation (solving the share equations against the
//! paper's numbers) is documented in DESIGN.md.

use crate::agent::Agent;
use crate::browser::BrowserProfile;
use crate::human::{HumanAgent, HumanConfig};
use crate::oracle::SolverProfile;
use crate::robots::crawler::CrawlerConfig;
use crate::robots::fleet::{FleetCache, FleetConfig};
use crate::robots::headless::HeadlessConfig;
use crate::robots::llm_agent::LlmAgentConfig;
use crate::robots::smart_bot::SmartBotConfig;
use crate::robots::{
    ClickFraudBot, CrawlerBot, DdosZombie, EmailHarvester, FleetBot, HeadlessBrowser, LlmAgent,
    OfflineBrowser, PasswordCracker, PoliteSpider, ReferrerSpammer, SmartBot, VulnScanner,
};
use botwall_http::BrowserFamily;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};

/// A recipe for one agent kind, with enough configuration to build it.
#[derive(Debug, Clone)]
pub enum AgentSpec {
    /// A human with a (possibly JS-disabled) browser.
    Human {
        /// Browser family distribution is sampled uniformly from this.
        families: Vec<BrowserFamily>,
        /// Probability JavaScript is disabled (4–6% in the paper).
        js_disabled_probability: f64,
        /// Behaviour knobs.
        config: HumanConfig,
    },
    /// The blind byte-scanning crawler.
    Crawler(CrawlerConfig),
    /// The REP-compliant spider.
    PoliteSpider,
    /// The e-mail harvester.
    EmailHarvester,
    /// The referrer spammer.
    ReferrerSpammer,
    /// The click-fraud generator.
    ClickFraud,
    /// The vulnerability scanner.
    VulnScanner,
    /// The password cracker.
    PasswordCracker,
    /// The offline browser / mirrorer.
    OfflineBrowser,
    /// The JS-capable adversary.
    SmartBot(SmartBotConfig),
    /// The DDoS zombie.
    DdosZombie,
    /// The headless-browser imitator (leaky or stealth per its config).
    Headless(HeadlessConfig),
    /// A coordinated fleet member; every spec built from this entry
    /// shares the one cache, so sessions pool their loot.
    Fleet {
        /// Behaviour knobs.
        config: FleetConfig,
        /// The fleet-wide shared cache.
        cache: Arc<Mutex<FleetCache>>,
    },
    /// The LLM-driven browsing agent.
    LlmAgent(LlmAgentConfig),
}

impl AgentSpec {
    /// Builds a concrete agent from the spec.
    pub fn build(&self, rng: &mut ChaCha8Rng) -> Box<dyn Agent> {
        match self {
            AgentSpec::Human {
                families,
                js_disabled_probability,
                config,
            } => {
                let family = families[rng.gen_range(0..families.len())];
                let profile = if rng.gen_bool(*js_disabled_probability) {
                    BrowserProfile::js_disabled(family)
                } else {
                    BrowserProfile::standard(family)
                };
                Box::new(HumanAgent::new(profile, *config))
            }
            AgentSpec::Crawler(c) => Box::new(CrawlerBot::new(*c)),
            AgentSpec::PoliteSpider => Box::new(PoliteSpider::default()),
            AgentSpec::EmailHarvester => Box::new(EmailHarvester::default()),
            AgentSpec::ReferrerSpammer => Box::new(ReferrerSpammer::default()),
            AgentSpec::ClickFraud => Box::new(ClickFraudBot::default()),
            AgentSpec::VulnScanner => Box::new(VulnScanner::default()),
            AgentSpec::PasswordCracker => Box::new(PasswordCracker::default()),
            AgentSpec::OfflineBrowser => Box::new(OfflineBrowser::default()),
            AgentSpec::SmartBot(c) => Box::new(SmartBot::new(*c)),
            AgentSpec::DdosZombie => Box::new(DdosZombie::default()),
            AgentSpec::Headless(c) => Box::new(HeadlessBrowser::new(*c)),
            AgentSpec::Fleet { config, cache } => {
                Box::new(FleetBot::new(*config, Arc::clone(cache)))
            }
            AgentSpec::LlmAgent(c) => Box::new(LlmAgent::new(*c)),
        }
    }
}

/// A weighted mix of agent specs.
#[derive(Debug, Clone, Default)]
pub struct Population {
    entries: Vec<(AgentSpec, f64)>,
}

impl Population {
    /// An empty population.
    pub fn new() -> Population {
        Population::default()
    }

    /// Adds a spec with a weight.
    pub fn add(&mut self, spec: AgentSpec, weight: f64) -> &mut Self {
        assert!(weight >= 0.0, "weights are non-negative");
        self.entries.push((spec, weight));
        self
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.entries.iter().map(|(_, w)| w).sum()
    }

    /// Samples one agent.
    ///
    /// # Panics
    ///
    /// Panics if the population is empty or all weights are zero.
    pub fn sample(&self, rng: &mut ChaCha8Rng) -> Box<dyn Agent> {
        let total = self.total_weight();
        assert!(total > 0.0, "population must have positive weight");
        let mut pick = rng.gen_range(0.0..total);
        for (spec, w) in &self.entries {
            if pick < *w {
                return spec.build(rng);
            }
            pick -= w;
        }
        self.entries.last().expect("non-empty").0.build(rng)
    }

    /// The human mix used by the Table-1 calibration.
    fn table1_human_spec() -> AgentSpec {
        AgentSpec::Human {
            families: vec![
                // Rough 2006 desktop shares: IE dominant, Firefox rising.
                BrowserFamily::InternetExplorer,
                BrowserFamily::InternetExplorer,
                BrowserFamily::InternetExplorer,
                BrowserFamily::Firefox,
                BrowserFamily::Firefox,
                BrowserFamily::Mozilla,
                BrowserFamily::Safari,
                BrowserFamily::Netscape,
                BrowserFamily::Opera,
            ],
            js_disabled_probability: 0.05,
            config: HumanConfig {
                pages: (4, 14),
                think_time_ms: (1_500, 20_000),
                mouse_move_per_page: 0.55,
                captcha: SolverProfile {
                    attempt_probability: 0.40,
                    base_success: 0.97,
                    floor: 0.85,
                },
            },
        }
    }

    /// The calibrated Table-1 population (see module docs and DESIGN.md).
    pub fn table1() -> Population {
        let mut p = Population::new();
        p.add(Self::table1_human_spec(), 23.5);
        // Smart bots: most forge consistently; a sliver is sloppy and
        // trips the browser-type mismatch (0.7% of sessions); a fraction
        // gamble on scanned beacons.
        p.add(
            AgentSpec::SmartBot(SmartBotConfig {
                forge_consistently: true,
                scan_beacons: false,
                ..SmartBotConfig::default()
            }),
            3.4,
        );
        p.add(
            AgentSpec::SmartBot(SmartBotConfig {
                forge_consistently: true,
                scan_beacons: true,
                ..SmartBotConfig::default()
            }),
            0.7,
        );
        p.add(
            AgentSpec::SmartBot(SmartBotConfig {
                forge_consistently: false,
                scan_beacons: false,
                ..SmartBotConfig::default()
            }),
            0.7,
        );
        p.add(AgentSpec::OfflineBrowser, 0.6);
        p.add(AgentSpec::Crawler(CrawlerConfig::default()), 0.8);
        p.add(AgentSpec::PoliteSpider, 4.0);
        p.add(AgentSpec::EmailHarvester, 10.0);
        p.add(AgentSpec::ReferrerSpammer, 25.0);
        p.add(AgentSpec::ClickFraud, 12.0);
        p.add(AgentSpec::VulnScanner, 8.0);
        p.add(AgentSpec::PasswordCracker, 5.0);
        p.add(AgentSpec::DdosZombie, 6.0);
        p
    }

    /// The adversary-escalation mix: the human population and the
    /// polite-spider baseline, plus the modern adversaries — leaky and
    /// stealth headless imitators, one coordinated fleet (all members
    /// share a single loot cache), and the LLM browsing agent. Drives
    /// the per-adversary detection-rate eval.
    pub fn escalation() -> Population {
        let fleet_cache = Arc::new(Mutex::new(FleetCache::default()));
        let mut p = Population::new();
        p.add(Self::table1_human_spec(), 40.0);
        p.add(AgentSpec::PoliteSpider, 15.0);
        p.add(AgentSpec::Headless(HeadlessConfig::default()), 12.0);
        p.add(
            AgentSpec::Headless(HeadlessConfig {
                stealth: true,
                ..HeadlessConfig::default()
            }),
            8.0,
        );
        p.add(
            AgentSpec::Fleet {
                config: FleetConfig::default(),
                cache: fleet_cache,
            },
            15.0,
        );
        p.add(AgentSpec::LlmAgent(LlmAgentConfig::default()), 10.0);
        p
    }

    /// A small balanced mix for quick demos and tests.
    pub fn demo() -> Population {
        let mut p = Population::new();
        p.add(Self::table1_human_spec(), 4.0);
        p.add(AgentSpec::Crawler(CrawlerConfig::default()), 1.0);
        p.add(AgentSpec::ReferrerSpammer, 2.0);
        p.add(AgentSpec::SmartBot(SmartBotConfig::default()), 1.0);
        p.add(AgentSpec::VulnScanner, 1.0);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use crate::world::{Client, ClientWorld, FetchOutcome, FetchSpec};
    use botwall_captcha::Challenge;
    use botwall_gateway::Gateway;
    use botwall_http::request::ClientIp;
    use botwall_http::Uri;
    use botwall_sessions::{SessionCounters, SimTime};
    use botwall_webgraph::{Site, SiteConfig, Web};
    use rand_chacha::rand_core::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn sampling_respects_weights() {
        let mut p = Population::new();
        p.add(AgentSpec::DdosZombie, 9.0);
        p.add(AgentSpec::PoliteSpider, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut counts: HashMap<&'static str, u32> = HashMap::new();
        for _ in 0..2000 {
            let a = p.sample(&mut rng);
            *counts.entry(a.kind().name()).or_default() += 1;
        }
        let z = counts["ddos-zombie"] as f64 / 2000.0;
        assert!((z - 0.9).abs() < 0.03, "zombie share {z}");
    }

    #[test]
    fn table1_mix_sums_to_about_100() {
        let p = Population::table1();
        let w = p.total_weight();
        assert!((w - 100.0).abs() < 1.5, "total weight {w}");
    }

    #[test]
    fn table1_human_share_matches_target() {
        let p = Population::table1();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut humans = 0;
        let n = 4000;
        for _ in 0..n {
            if p.sample(&mut rng).kind().is_human() {
                humans += 1;
            }
        }
        let share = humans as f64 / n as f64;
        assert!((share - 0.235).abs() < 0.02, "human share {share}");
    }

    #[test]
    fn escalation_mix_covers_every_new_adversary() {
        let p = Population::escalation();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut seen: HashMap<&'static str, u32> = HashMap::new();
        for _ in 0..800 {
            *seen.entry(p.sample(&mut rng).kind().name()).or_default() += 1;
        }
        for name in [
            "human",
            "polite-spider",
            "headless-browser",
            "stealth-headless",
            "fleet-bot",
            "llm-agent",
        ] {
            assert!(seen[name] > 20, "{name} underrepresented: {seen:?}");
        }
    }

    #[test]
    fn fleet_members_share_one_cache() {
        let p = Population::escalation();
        let fleets: Vec<_> = (0..p.len())
            .filter_map(|i| match &p.entries[i].0 {
                AgentSpec::Fleet { cache, .. } => Some(Arc::clone(cache)),
                _ => None,
            })
            .collect();
        assert_eq!(fleets.len(), 1, "one fleet entry");
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn empty_population_panics_on_sample() {
        let p = Population::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        p.sample(&mut rng);
    }

    /// A [`MockWorld`] that folds what an agent sends into one FNV-1a
    /// digest: each fetch's method, target, `Referer`, body and the
    /// client clock it left at, then the clock the session ended at.
    struct Traced {
        world: MockWorld,
        digest: u64,
    }

    impl Traced {
        fn fold(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    impl ClientWorld for Traced {
        fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
            let line = format!(
                "{} {} {:?} {}\n",
                spec.method,
                spec.uri,
                spec.referer,
                self.world.now().as_millis()
            );
            self.fold(line.as_bytes());
            self.fold(&spec.body);
            self.world.fetch(spec)
        }

        fn now(&self) -> SimTime {
            self.world.now()
        }

        fn sleep(&mut self, ms: u64) {
            self.world.sleep(ms);
        }

        fn entry_point(&self) -> Uri {
            self.world.entry_point()
        }

        fn offer_captcha(&mut self) -> Option<Challenge> {
            self.world.offer_captcha()
        }

        fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
            self.world.answer_captcha(id, answer)
        }
    }

    /// Three sessions of the agent `build` makes, each built and run on
    /// its own seed (1–3; a fleet's later sessions spend the loot of its
    /// earlier ones).
    fn traces(build: impl Fn(&mut ChaCha8Rng) -> Box<dyn Agent>) -> [u64; 3] {
        [1, 2, 3].map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut agent = build(&mut rng);
            let mut traced = Traced {
                world: MockWorld::new(seed),
                digest: 0xcbf2_9ce4_8422_2325,
            };
            agent.run_session(&mut traced, &mut rng);
            let end = traced.world.now().as_millis().to_string();
            traced.fold(end.as_bytes());
            traced.digest
        })
    }

    /// Every entry of the Table-1 and escalation mixes, then a human
    /// with JavaScript off and an offline browser that follows the
    /// hidden link: their sessions hash to recorded digests, so a change
    /// to the shared walk, crawl or render that moves one fetch, sleep
    /// or RNG draw of any species fails here.
    #[test]
    fn every_species_sends_what_it_sent() {
        let digests: Vec<[u64; 3]> = every_species().iter().map(traces).collect();
        assert_eq!(digests, RECORDED, "{digests:#x?}");
    }

    /// What builds one species' agent from a seed's RNG.
    type Species = Box<dyn Fn(&mut ChaCha8Rng) -> Box<dyn Agent>>;

    /// Every entry of the Table-1 and escalation mixes, then a human
    /// with JavaScript off and an offline browser that follows the
    /// hidden link.
    fn every_species() -> Vec<Species> {
        let js_off = AgentSpec::Human {
            families: vec![BrowserFamily::Firefox],
            js_disabled_probability: 1.0,
            config: HumanConfig::default(),
        };
        let (table1, escalation) = (Population::table1(), Population::escalation());
        let specs = table1.entries.into_iter().chain(escalation.entries);
        let mut species: Vec<Species> = specs
            .map(|(spec, _)| spec)
            .chain([js_off])
            .map(|spec| Box::new(move |rng: &mut ChaCha8Rng| spec.build(rng)) as Species)
            .collect();
        species.push(Box::new(|_| {
            Box::new(OfflineBrowser {
                follow_hidden: true,
                ..OfflineBrowser::default()
            })
        }));
        species
    }

    #[rustfmt::skip]
    const RECORDED: [[u64; 3]; 21] = [
        [0xe785_ea71_7190_3ba8, 0x7f8c_3b2e_067c_1a6d, 0x7768_4dc1_2b3f_fbcc],
        [0xd698_2ce7_445c_b68a, 0xb7bc_63b5_e502_2c9b, 0x1c8e_b847_8259_cb01],
        [0x6184_1d90_9591_0a0a, 0x754e_f492_9b9c_06a5, 0x624f_ae01_f149_050b],
        [0x771b_e527_0059_7b1a, 0x52af_3f51_3c87_14af, 0x5757_996a_3fe8_ecc1],
        [0xdef7_9d0d_8a5f_128c, 0xaed4_9012_e4dd_6a50, 0x2253_70ba_388a_8160],
        [0xddf8_b69f_83ec_893a, 0xe4d6_bfee_58e5_96a6, 0xee8a_1275_4608_0e3c],
        [0x9f57_93f0_c4f4_9b39, 0x2bb6_77af_789e_d58f, 0x951a_4446_5e01_22c5],
        [0xa09c_f153_d0a9_b1b0, 0xdf6c_1977_1572_8163, 0xc9eb_d602_30c1_b163],
        [0x107a_7672_33c5_c1db, 0xc56a_617b_701d_29b8, 0x448a_705c_59a8_85c5],
        [0xdd0f_d8e6_e700_4218, 0x6e22_9a13_24a7_0d0b, 0x86e3_04cd_e5d1_4615],
        [0x92b1_3da8_d170_fcb8, 0x42d2_ab0c_33a6_9399, 0x4525_d03d_75b5_dc51],
        [0xa71a_ca37_2ad2_9531, 0xd8e7_47fd_a911_b904, 0xa9ec_e031_68a5_2ae8],
        [0xf3d1_0cf5_6d36_d7cb, 0xf3d1_0cf5_6d36_d7cb, 0xf3d1_0cf5_6d36_d7cb],
        [0xe785_ea71_7190_3ba8, 0x7f8c_3b2e_067c_1a6d, 0x7768_4dc1_2b3f_fbcc],
        [0x9f57_93f0_c4f4_9b39, 0x2bb6_77af_789e_d58f, 0x951a_4446_5e01_22c5],
        [0x08c8_9b8d_9b8f_4e95, 0x156c_dbb8_7cc1_3f41, 0x9e78_f12b_1233_bd03],
        [0xd994_6120_9272_9485, 0x7942_490a_e823_fb29, 0x55ca_b979_a89f_1a73],
        [0x353f_6657_b610_a96e, 0x393d_4c35_e635_24b9, 0xd88b_8cd0_e7a9_4b43],
        [0x8bc9_3344_29dc_6dc0, 0x84f7_19ec_6227_02ed, 0xbc00_e133_18f4_c7fb],
        [0x4648_4e89_2dce_2fb4, 0xc929_dec3_15cb_b019, 0xefb5_d940_3cce_07e7],
        [0xf865_fab4_778b_872f, 0xe58b_b8a9_8f00_4192, 0x9772_5790_a6f0_8c6a],
    ];

    /// The client's offline log and the gateway's live session are one
    /// account of the same exchanges: for every species, with
    /// enforcement off, on, and on with a challenge in place of each
    /// throttle, the client's records folded through
    /// [`SessionCounters::update`] are the counters the gateway keeps
    /// for its key, refusals and interstitials included.
    #[test]
    fn a_clients_log_folds_to_the_gateways_counters() {
        // (enforcement, challenge on throttle): refusals, challenges.
        for (enforcement, challenge) in [(false, false), (true, false), (true, true)] {
            let (mut refused, mut challenged) = (0, 0);
            for (n, build) in every_species().iter().enumerate() {
                for seed in [1, 2, 3] {
                    let mut rng = ChaCha8Rng::seed_from_u64(seed);
                    let mut agent = build(&mut rng);
                    let site = Site::generate("mock.example.com", &SiteConfig::default(), seed);
                    let entry = Uri::absolute(site.host(), "/index.html");
                    let gateway = Gateway::builder()
                        .seed(seed ^ 0x5eed)
                        .enforcement(enforcement)
                        .challenge_on_throttle(challenge)
                        .build();
                    let mut client = Client::new(
                        Arc::new(gateway),
                        Arc::new(Web::from_sites(vec![site])),
                        (ClientIp::new(0x0A00_0001), agent.user_agent()),
                        entry,
                        SimTime::ZERO,
                    );
                    agent.run_session(&mut client, &mut rng);
                    let mut folded = SessionCounters::new();
                    for record in client.records() {
                        folded.update(record);
                    }
                    let live = client
                        .gateway()
                        .detector()
                        .with_key_state(&client.key(), |session, _| session.counters().clone());
                    let at = format!("species {n}, seed {seed}, {enforcement}/{challenge}");
                    assert!(folded.total > 0, "{at}: nothing was sent");
                    assert_eq!(Some(folded), live, "{at}");
                    let ledger = client.ledger();
                    refused += ledger.throttled + ledger.blocked;
                    challenged += client.gateway().stats().challenged;
                }
            }
            let seen = (refused > 0, challenged > 0);
            assert_eq!(
                seen,
                (enforcement, challenge),
                "{refused} refused, {challenged} challenged"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let p = Population::table1();
        let kinds = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            (0..50)
                .map(|_| p.sample(&mut rng).kind().name())
                .collect::<Vec<_>>()
        };
        assert_eq!(kinds(7), kinds(7));
    }
}
