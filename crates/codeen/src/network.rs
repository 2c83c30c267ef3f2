//! The proxy network: many nodes, a shared web, and the session runner.

use crate::metrics::{BandwidthLedger, NodeStats};
use crate::node::Deployment;
use botwall_agents::{AgentKind, Client, ClientWorld, Population};
use botwall_core::CompletedSession;
use botwall_gateway::Gateway;
use botwall_http::request::ClientIp;
use botwall_http::Uri;
use botwall_sessions::{SessionKey, SimTime};
use botwall_webgraph::{Web, WebConfig};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Ground-truth summary of one simulated session.
#[derive(Debug, Clone)]
pub struct SessionSummary {
    /// The session key.
    pub key: SessionKey,
    /// Ground truth.
    pub kind: AgentKind,
    /// Requests issued by the agent.
    pub requests: u64,
    /// Requests served normally.
    pub allowed: u64,
    /// Requests throttled (429).
    pub throttled: u64,
    /// Requests blocked (403).
    pub blocked: u64,
}

impl SessionSummary {
    /// Abusive requests that actually got through (drives complaints).
    pub fn abusive_delivered(&self) -> u64 {
        if self.kind.generates_abuse() {
            self.allowed
        } else {
            0
        }
    }
}

/// Configuration for a network run.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of proxy nodes.
    pub nodes: u32,
    /// Web substrate configuration.
    pub web: WebConfig,
    /// Detection/enforcement deployment state.
    pub deployment: Deployment,
    /// Sessions to simulate.
    pub sessions: u32,
    /// Gap between session starts, ms (sessions are serialized; the gap
    /// keeps tracker timelines sane).
    pub session_gap_ms: u64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            nodes: 8,
            web: WebConfig::default(),
            deployment: Deployment::full(),
            sessions: 500,
            session_gap_ms: 500,
        }
    }
}

/// The result of a network run.
#[derive(Debug)]
pub struct RunReport {
    /// Every finished session with evidence and label.
    pub completed: Vec<CompletedSession>,
    /// Ground-truth summaries, parallel to the sessions simulated.
    pub summaries: Vec<SessionSummary>,
    /// Merged node statistics.
    pub stats: NodeStats,
    /// Merged bandwidth ledger.
    pub bandwidth: BandwidthLedger,
}

impl RunReport {
    /// Looks up the ground truth for a completed session.
    pub fn truth_of(&self, key: &SessionKey) -> Option<AgentKind> {
        self.summaries
            .iter()
            .find(|s| &s.key == key)
            .map(|s| s.kind)
    }
}

/// The CoDeeN-like proxy network: one gateway a node, in front of one
/// shared web.
#[derive(Debug)]
pub struct Network {
    gateways: Vec<Arc<Gateway>>,
    web: Arc<Web>,
    clock: SimTime,
    next_ip: u32,
}

impl Network {
    /// Builds a network of `config.nodes` nodes over a fresh web.
    pub fn new(config: &NetworkConfig, seed: u64) -> Network {
        let web = Arc::new(Web::generate(&config.web, seed));
        let gateways = (0..config.nodes)
            .map(|i| {
                let node_seed = seed.wrapping_add(u64::from(i) * 7919);
                Arc::new(config.deployment.gateway(node_seed))
            })
            .collect();
        Network {
            gateways,
            web,
            clock: SimTime::ZERO,
            next_ip: 0x0B00_0000,
        }
    }

    /// Runs one session from `population` on a pseudo-randomly chosen
    /// node, and returns its ground-truth summary.
    pub fn run_session(
        &mut self,
        population: &Population,
        rng: &mut ChaCha8Rng,
        gap_ms: u64,
    ) -> SessionSummary {
        let mut agent = population.sample(rng);
        let client = self.run_agent(agent.as_mut(), rng, gap_ms);
        let ledger = client.ledger();
        SessionSummary {
            key: client.key(),
            kind: agent.kind(),
            requests: ledger.requests,
            allowed: ledger.allowed,
            throttled: ledger.throttled,
            blocked: ledger.blocked,
        }
    }

    /// Runs one explicitly constructed agent on a pseudo-randomly chosen
    /// node (used by harnesses that need custom session shapes, e.g. the
    /// long sessions of the ML corpus), and returns the client it ran
    /// in: its key, its ledger and its log of records
    /// ([`Client::records`]), which the offline study folds into the
    /// session's features.
    pub fn run_agent(
        &mut self,
        agent: &mut dyn botwall_agents::Agent,
        rng: &mut ChaCha8Rng,
        gap_ms: u64,
    ) -> Client {
        let node_idx = rng.gen_range(0..self.gateways.len());
        let ip = ClientIp::new(self.next_ip);
        self.next_ip += 1;
        let site = self.web.pick_site(rng);
        let entry = Uri::absolute(site.host(), "/index.html");
        let gateway = Arc::clone(&self.gateways[node_idx]);
        let visitor = (ip, agent.user_agent());
        let mut client = Client::new(gateway, Arc::clone(&self.web), visitor, entry, self.clock);
        agent.run_session(&mut client, rng);
        self.clock = client.now() + gap_ms;
        client
    }

    /// Drains every node, returning all completed sessions and merged
    /// accounting: the outcome and byte counts of every node's gateway.
    /// Consumes the network.
    pub fn finish(self) -> (Vec<CompletedSession>, NodeStats, BandwidthLedger) {
        let mut completed = Vec::new();
        let mut stats = NodeStats::default();
        let mut bandwidth = BandwidthLedger::default();
        for gateway in &self.gateways {
            completed.extend(gateway.drain());
            let g = gateway.stats();
            stats.allowed += g.served;
            stats.throttled += g.throttled;
            stats.blocked += g.blocked;
            bandwidth.merge(&BandwidthLedger {
                total_bytes: g.total_bytes,
                instrumentation_bytes: g.instrumentation_bytes,
            });
        }
        (completed, stats, bandwidth)
    }

    /// Runs a full experiment: `config.sessions` sessions, then drains all
    /// nodes and merges the books.
    pub fn run(config: &NetworkConfig, population: &Population, seed: u64) -> RunReport {
        let mut network = Network::new(config, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5EED);
        let mut summaries = Vec::with_capacity(config.sessions as usize);
        for _ in 0..config.sessions {
            summaries.push(network.run_session(population, &mut rng, config.session_gap_ms));
        }
        let (completed, stats, bandwidth) = network.finish();
        RunReport {
            completed,
            summaries,
            stats,
            bandwidth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_core::Label;
    use botwall_webgraph::SiteConfig;

    fn small_config(sessions: u32) -> NetworkConfig {
        NetworkConfig {
            nodes: 2,
            web: WebConfig {
                sites: 2,
                site: SiteConfig {
                    pages: 12,
                    ..SiteConfig::default()
                },
            },
            deployment: Deployment::full(),
            sessions,
            session_gap_ms: 200,
        }
    }

    #[test]
    fn run_produces_one_summary_per_session() {
        let report = Network::run(&small_config(40), &Population::demo(), 1);
        assert_eq!(report.summaries.len(), 40);
        assert!(!report.completed.is_empty());
        assert!(report.stats.total() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = Network::run(&small_config(25), &Population::demo(), 9);
        let b = Network::run(&small_config(25), &Population::demo(), 9);
        assert_eq!(a.summaries.len(), b.summaries.len());
        for (x, y) in a.summaries.iter().zip(&b.summaries) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.requests, y.requests);
        }
        assert_eq!(a.bandwidth, b.bandwidth);
    }

    #[test]
    fn humans_are_mostly_classified_human() {
        let report = Network::run(&small_config(120), &Population::demo(), 3);
        let mut human_right = 0u32;
        let mut human_total = 0u32;
        for cs in &report.completed {
            if !cs.classifiable {
                continue;
            }
            let Some(kind) = report.truth_of(cs.session.key()) else {
                continue;
            };
            if kind.is_human() {
                human_total += 1;
                if cs.label == Label::Human {
                    human_right += 1;
                }
            }
        }
        assert!(human_total > 5, "enough classifiable human sessions");
        let acc = human_right as f64 / human_total as f64;
        assert!(acc > 0.8, "human accuracy {acc}");
    }

    #[test]
    fn abusive_robots_get_squelched_when_enforced() {
        let report = Network::run(&small_config(100), &Population::demo(), 4);
        let mut off_config = small_config(100);
        off_config.deployment = Deployment::none();
        let unprotected = Network::run(&off_config, &Population::demo(), 4);
        let delivered = |r: &RunReport| {
            r.summaries
                .iter()
                .map(|s| s.abusive_delivered())
                .sum::<u64>()
        };
        let on = delivered(&report);
        let off = delivered(&unprotected);
        assert!(
            (on as f64) < off as f64 * 0.9,
            "enforcement must cut abusive deliveries: {on} vs {off}"
        );
    }

    #[test]
    fn bandwidth_overhead_is_small() {
        let report = Network::run(&small_config(60), &Population::demo(), 5);
        let pct = report.bandwidth.overhead_pct();
        assert!(pct > 0.0);
        assert!(
            pct < 10.0,
            "overhead {pct}% should be a few percent at most"
        );
    }
}
