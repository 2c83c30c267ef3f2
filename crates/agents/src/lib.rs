//! Workload models for `botwall`: the traffic sources that exercise the
//! detector.
//!
//! The paper evaluates on live CoDeeN traffic — humans behind real
//! browsers and a zoo of robots abusing an open proxy. This crate is the
//! synthetic stand-in: behavioural models that issue the same request
//! patterns against any [`ClientWorld`]. [`world::Client`] is the one
//! in-process world: a client of a [`botwall_gateway::Gateway`] in front
//! of the webgraph origin ([`origin`]), with its own clock, CAPTCHA
//! offer and status ledger. The proxy simulation in `botwall-codeen`
//! hands each session one, and [`testutil::MockWorld`] wraps one for
//! tests, so an agent's unit tests run the detector the proxies deploy.
//!
//! * [`human`] — browser-driving humans: asset fetching per
//!   [`browser::BrowserProfile`], think times, mouse events (at most one
//!   beacon, per the generated script's `do_once` flag), visible-link
//!   navigation, optional CAPTCHA attempts.
//! * [`robots`] — one module per species from the paper's abuse taxonomy:
//!   crawlers (blind, byte-scanning, hidden-link-tripping), polite REP
//!   spiders, e-mail harvesters, referrer spammers, click-fraud bots,
//!   vulnerability scanners, password crackers, offline browsers (the
//!   acknowledged false-positive source), JS-capable smart bots (§4.1's
//!   adversary), and DDoS zombies.
//! * [`population`] — weighted mixes, including the Table-1 calibration.
//! * [`oracle`] — who solves an offered CAPTCHA, and how often
//!   ([`SolverProfile`]).
//! * The shared fetch loops (private): the breadth-first *crawl* of the
//!   crawler, spider, harvester and offline browser; the
//!   `Referer`-chained *walk*, retrying a refused page at most twelve
//!   times, of the smart bot, headless browsers, fleet and LLM agent;
//!   and the *render* of a page's CSS probe, script and agent reporter.
//!   Each species supplies only its step: what it does with a page and
//!   where it goes next.
//! * [`world`] and [`origin`] — what an agent can do, and what the
//!   generated sites answer.
//!
//! # Examples
//!
//! ```
//! use botwall_agents::population::Population;
//! use botwall_agents::testutil::MockWorld;
//! use rand_chacha::rand_core::SeedableRng;
//!
//! let population = Population::demo();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let mut agent = population.sample(&mut rng);
//! let mut world = MockWorld::new(1);
//! agent.run_session(&mut world, &mut rng);
//! assert!(world.client().ledger().requests > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod browser;
pub mod human;
pub mod oracle;
pub mod origin;
pub mod population;
pub mod robots;
pub mod testutil;
mod walk;
pub mod world;

pub use agent::{Agent, AgentKind};
pub use browser::BrowserProfile;
pub use human::{HumanAgent, HumanConfig};
pub use oracle::SolverProfile;
pub use population::{AgentSpec, Population};
pub use world::{Client, ClientWorld, FetchOutcome, FetchSpec, Ledger, PageView};
