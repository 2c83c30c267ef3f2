//! Building the CAPTCHA-labelled corpus of §4.2, synthetically.
//!
//! The paper collected two weeks of CoDeeN traffic and labelled 42,975
//! human and 124,271 robot sessions via CAPTCHA. We generate a corpus of
//! the same ~1:2.9 class ratio by running long-form agents through the
//! proxy in *detect-only* mode (instrumentation on, enforcement off — so
//! robot sessions run their natural length instead of being truncated by
//! blocking) and labelling with ground truth, which is what the CAPTCHA
//! oracle approximated. The records of a session are the ones its client
//! logged (`Client::records` of the client `Network::run_agent` returns):
//! the gateway's live sessions keep only the counters those records fold
//! into, so the log the paper's offline stage reads is kept by the
//! simulated client, and read from it here, the one place that reads it.

use botwall_agents::robots::crawler::CrawlerConfig;
use botwall_agents::robots::smart_bot::SmartBotConfig;
use botwall_agents::robots::{
    ClickFraudBot, CrawlerBot, DdosZombie, EmailHarvester, OfflineBrowser, PasswordCracker,
    PoliteSpider, ReferrerSpammer, SmartBot, VulnScanner,
};
use botwall_agents::{Agent, BrowserProfile, HumanAgent, HumanConfig, SolverProfile};
use botwall_codeen::network::{Network, NetworkConfig};
use botwall_codeen::node::Deployment;
use botwall_core::Label;
use botwall_http::BrowserFamily;
use botwall_ml::Corpus;
use botwall_webgraph::{SiteConfig, WebConfig};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Human share (paper: 42,975 / 167,246 ≈ 0.257).
const HUMAN_SHARE: f64 = 0.257;

/// Observation-noise band: each session draws a per-record mutation
/// rate uniformly from this range. Models what the proxy really saw —
/// shared IPs, caches answering 304s, open tabs, half-broken clients —
/// without which the synthetic classes separate perfectly and Figure 4
/// flatlines at 100%.
const NOISE: (f64, f64) = (0.45, 0.75);

/// Corpus-generation tunables.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Total sessions to generate.
    pub sessions: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            sessions: 600,
            seed: 20060106,
        }
    }
}

/// Mutates a fraction of records to model proxy observation noise.
fn perturb(records: &mut [botwall_sessions::RequestRecord], rate: f64, rng: &mut ChaCha8Rng) {
    use botwall_http::{ContentClass, MethodKind};
    const CLASSES: [ContentClass; 8] = [
        ContentClass::Html,
        ContentClass::Html,
        ContentClass::Image,
        ContentClass::Css,
        ContentClass::Script,
        ContentClass::Cgi,
        ContentClass::Favicon,
        ContentClass::Other,
    ];
    for rec in records {
        if !rng.gen_bool(rate.clamp(0.0, 1.0)) {
            continue;
        }
        match rng.gen_range(0..5u32) {
            0 => rec.class = CLASSES[rng.gen_range(0..CLASSES.len())],
            1 => rec.status_class = [2u8, 2, 3, 3, 4][rng.gen_range(0..5)],
            2 => {
                rec.has_referer = !rec.has_referer;
                rec.referer_seen = rec.has_referer && rng.gen_bool(0.5);
            }
            3 => rec.referer_seen = rec.has_referer && !rec.referer_seen,
            _ => {
                rec.method = if rng.gen_bool(0.1) {
                    MethodKind::Head
                } else {
                    MethodKind::Get
                }
            }
        }
    }
}

/// Detect-only deployment: probes on, enforcement off.
fn detect_only() -> Deployment {
    Deployment {
        browser_test: true,
        mouse_detection: true,
        enforcement: false,
        captcha: false,
    }
}

fn long_human(rng: &mut ChaCha8Rng) -> Box<dyn Agent> {
    let families = [
        BrowserFamily::InternetExplorer,
        BrowserFamily::InternetExplorer,
        BrowserFamily::Firefox,
        BrowserFamily::Mozilla,
        BrowserFamily::Safari,
        BrowserFamily::Opera,
    ];
    let family = families[rng.gen_range(0..families.len())];
    let mut profile = if rng.gen_bool(0.05) {
        BrowserProfile::js_disabled(family)
    } else {
        BrowserProfile::standard(family)
    };
    // Dial-up era: a noticeable slice of users browsed with images off,
    // which drags their feature vectors toward the robot side.
    if rng.gen_bool(0.15) {
        profile.fetches_images = false;
        profile.fetches_favicon = false;
    }
    Box::new(HumanAgent::new(
        profile,
        HumanConfig {
            pages: (8, 40),
            think_time_ms: (300, 3_000),
            mouse_move_per_page: 0.45,
            captcha: SolverProfile::human_default(),
        },
    ))
}

fn long_robot(rng: &mut ChaCha8Rng) -> Box<dyn Agent> {
    // A fifth of the robot corpus is browser-mimicking (offline browsers
    // mirroring assets and referrers) — the hard overlap that keeps the
    // classifier away from 100%.
    if rng.gen_bool(0.25) {
        return Box::new(OfflineBrowser {
            page_budget: 60,
            delay_ms: 120,
            follow_hidden: false,
        });
    }
    match rng.gen_range(0..9u32) {
        0 => Box::new(CrawlerBot::new(CrawlerConfig {
            page_budget: 180,
            delay_ms: 100,
            forge_ua: true,
        })),
        1 => Box::new(PoliteSpider {
            page_budget: 170,
            delay_ms: 300,
        }),
        2 => Box::new(EmailHarvester {
            page_budget: 180,
            delay_ms: 60,
        }),
        3 => Box::new(ReferrerSpammer {
            requests: 180,
            delay_ms: 120,
            ..ReferrerSpammer::default()
        }),
        4 => Box::new(ClickFraudBot {
            clicks: 180,
            delay_ms: 150,
        }),
        5 => Box::new(VulnScanner {
            rounds: 12,
            delay_ms: 40,
        }),
        6 => Box::new(PasswordCracker {
            attempts: 180,
            delay_ms: 90,
        }),
        7 => Box::new(SmartBot::new(SmartBotConfig {
            pages: 35,
            delay_ms: 200,
            forge_consistently: true,
            scan_beacons: false,
        })),
        _ => Box::new(DdosZombie {
            requests: 200,
            delay_ms: 15,
        }),
    }
}

/// Generates the labelled corpus plus `(humans, robots)` counts. The
/// occasional offline browser is mixed into the *robot* class, exactly
/// the hard case the paper flags.
pub fn build_ml_corpus(config: &CorpusConfig) -> (Corpus, (usize, usize)) {
    let net_config = NetworkConfig {
        nodes: 4,
        web: WebConfig {
            sites: 6,
            site: SiteConfig {
                pages: 60,
                ..SiteConfig::default()
            },
        },
        deployment: detect_only(),
        sessions: 0,
        session_gap_ms: 300,
    };
    let mut network = Network::new(&net_config, config.seed);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xC0FFEE);
    let mut planned: Vec<bool> = Vec::with_capacity(config.sessions as usize);
    for _ in 0..config.sessions {
        planned.push(rng.gen_bool(HUMAN_SHARE));
    }
    let mut clients = Vec::with_capacity(planned.len());
    for &is_human in &planned {
        let mut agent: Box<dyn Agent> = if is_human {
            long_human(&mut rng)
        } else if rng.gen_bool(0.03) {
            Box::new(OfflineBrowser {
                page_budget: 40,
                delay_ms: 120,
                follow_hidden: false,
            })
        } else {
            long_robot(&mut rng)
        };
        let client = network.run_agent(agent.as_mut(), &mut rng, 300);
        clients.push((client.key(), agent.kind(), client));
    }
    let (completed, _, _) = network.finish();
    let mut corpus = Corpus::new();
    let mut humans = 0;
    let mut robots = 0;
    for cs in completed {
        let Some((_, kind, client)) = clients.iter().find(|(key, ..)| key == cs.session.key())
        else {
            continue;
        };
        let label = if kind.is_human() {
            humans += 1;
            Label::Human
        } else {
            robots += 1;
            Label::Robot
        };
        let mut records = client.records().to_vec();
        let rate = rng.gen_range(NOISE.0..NOISE.1);
        perturb(&mut records, rate, &mut rng);
        corpus.push(records, cs.session.key().user_agent().to_string(), label);
    }
    (corpus, (humans, robots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_ml::baselines::ua_signatures::UaSignatureMatcher;

    #[test]
    fn corpus_has_both_classes_and_long_sessions() {
        let (corpus, (humans, robots)) = build_ml_corpus(&CorpusConfig {
            sessions: 60,
            ..CorpusConfig::default()
        });
        assert_eq!(corpus.len(), humans + robots);
        assert!(humans > 5, "humans {humans}");
        assert!(robots > 20, "robots {robots}");
        let longest = corpus
            .sessions
            .iter()
            .map(|s| s.records.len())
            .max()
            .unwrap();
        assert!(longest >= 160, "need 160+ request sessions, got {longest}");
    }

    #[test]
    fn corpus_generation_is_deterministic() {
        let cfg = CorpusConfig {
            sessions: 30,
            ..CorpusConfig::default()
        };
        let (a, ca) = build_ml_corpus(&cfg);
        let (b, cb) = build_ml_corpus(&cfg);
        assert_eq!(ca, cb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.sessions.iter().zip(&b.sessions) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.user_agent, y.user_agent);
            assert_eq!(x.records, y.records);
        }
    }

    #[test]
    fn each_session_keeps_its_user_agent() {
        let (corpus, _) = build_ml_corpus(&CorpusConfig {
            sessions: 60,
            ..CorpusConfig::default()
        });
        assert!(corpus.sessions.iter().all(|s| !s.user_agent.is_empty()));
        // Signatures catch the robots that declare themselves, never a
        // human's browser string.
        let matcher = UaSignatureMatcher::default();
        let caught = |label: Label| {
            corpus
                .sessions
                .iter()
                .filter(|s| {
                    s.label == label && matcher.classify(Some(&s.user_agent)) == Label::Robot
                })
                .count()
        };
        assert_eq!(caught(Label::Human), 0);
        assert!(caught(Label::Robot) > 0);
    }
}
