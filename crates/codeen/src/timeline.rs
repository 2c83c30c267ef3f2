//! The 2005 deployment timeline replay (Figure 3).
//!
//! Figure 3 plots complaints per month against CoDeeN through 2005:
//!
//! * **February**: deployment expands from ~100 US nodes to 300+
//!   worldwide; traffic (and abuse) grows through spring.
//! * **July**: complaint peak, mostly referrer spam and click fraud.
//! * **Late August**: the standard browser test + aggressive rate
//!   limiting deploy; complaints collapse (~10×) — two robot-related
//!   complaints over the following four months.
//! * **January 2006**: mouse-movement detection deploys; no robot
//!   complaints as of mid-April.
//!
//! The replay simulates each month with the deployment state of record
//! and a session volume proportional to node count and organic growth,
//! then draws complaints from delivered abuse.

use crate::abuse::{complaints_for, ComplaintConfig, ComplaintTally};
use crate::network::{Network, NetworkConfig};
use crate::node::Deployment;
use botwall_agents::Population;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One month of the replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonthRow {
    /// Month index: 0 = Jan 2005 … 12 = Jan 2006.
    pub month: u32,
    /// Proxy nodes deployed that month.
    pub nodes: u32,
    /// Sessions simulated.
    pub sessions: u32,
    /// Complaints drawn.
    pub complaints: ComplaintTally,
}

impl MonthRow {
    /// Short month label ("Jan" … "Dec", "Jan+").
    pub fn label(&self) -> &'static str {
        const NAMES: [&str; 13] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
            "Jan+",
        ];
        NAMES[self.month.min(12) as usize]
    }
}

/// Timeline configuration.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Sessions simulated per node per month (scales the experiment).
    pub sessions_per_node: f64,
    /// Complaint model.
    pub complaints: ComplaintConfig,
    /// Base network configuration (deployment/nodes/sessions overridden
    /// per month).
    pub network: NetworkConfig,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            sessions_per_node: 8.0,
            complaints: ComplaintConfig::default(),
            network: NetworkConfig::default(),
        }
    }
}

/// Node count per month: ~100 until the February expansion, 300+ after,
/// with mild growth.
pub fn nodes_in_month(month: u32) -> u32 {
    match month {
        0 => 100,
        1 => 200, // Expansion ramps through February.
        m if m <= 12 => 300 + 10 * (m - 2),
        _ => 400,
    }
}

/// Deployment state per month: nothing until late August (month 7),
/// browser test + enforcement Sep–Dec, full from January 2006 (month 12).
pub fn deployment_in_month(month: u32) -> Deployment {
    match month {
        0..=7 => Deployment::none(),
        8..=11 => Deployment::browser_test_only(),
        _ => Deployment::full(),
    }
}

/// Organic usage growth factor through the year (traffic grew as CoDeeN
/// "became widely used", peaking mid-year).
pub fn usage_factor(month: u32) -> f64 {
    match month {
        0 => 0.5,
        1 => 0.7,
        2 => 0.9,
        3 => 1.0,
        4 => 1.1,
        5 => 1.25,
        6 => 1.4, // July peak.
        7 => 1.35,
        _ => 1.3,
    }
}

/// Replays the 13-month timeline (Jan 2005 … Jan 2006).
pub fn replay(config: &TimelineConfig, population: &Population, seed: u64) -> Vec<MonthRow> {
    let mut rows = Vec::with_capacity(13);
    for month in 0..13u32 {
        let nodes = nodes_in_month(month);
        // Scale the simulated node count down (the detector state is per
        // node; 4–12 simulated nodes stand in for 100–400 real ones).
        let sim_nodes = (nodes / 50).clamp(2, 12);
        let sessions =
            (config.sessions_per_node * sim_nodes as f64 * usage_factor(month)).round() as u32;
        let net_config = NetworkConfig {
            nodes: sim_nodes,
            deployment: deployment_in_month(month),
            sessions,
            ..config.network.clone()
        };
        let report = Network::run(&net_config, population, seed.wrapping_add(month as u64));
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (month as u64) << 8);
        let complaints = complaints_for(&report.summaries, &config.complaints, &mut rng);
        rows.push(MonthRow {
            month,
            nodes,
            sessions,
            complaints,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_webgraph::{SiteConfig, WebConfig};

    fn quick_config() -> TimelineConfig {
        TimelineConfig {
            sessions_per_node: 4.0,
            complaints: ComplaintConfig::default(),
            network: NetworkConfig {
                web: WebConfig {
                    sites: 2,
                    site: SiteConfig {
                        pages: 10,
                        ..SiteConfig::default()
                    },
                },
                ..NetworkConfig::default()
            },
        }
    }

    #[test]
    fn schedule_matches_the_paper() {
        assert_eq!(nodes_in_month(0), 100);
        assert!(nodes_in_month(3) >= 300);
        assert_eq!(deployment_in_month(6), Deployment::none());
        assert_eq!(deployment_in_month(9), Deployment::browser_test_only());
        assert_eq!(deployment_in_month(12), Deployment::full());
        assert!(usage_factor(6) > usage_factor(0), "traffic grows to July");
    }

    #[test]
    fn replay_produces_thirteen_months() {
        let rows = replay(&quick_config(), &Population::demo(), 11);
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0].label(), "Jan");
        assert_eq!(rows[12].label(), "Jan+");
    }

    #[test]
    fn complaints_collapse_after_deployment() {
        let rows = replay(&quick_config(), &Population::table1(), 13);
        let pre: u32 = rows[3..8].iter().map(|r| r.complaints.robot).sum();
        let post: u32 = rows[8..13].iter().map(|r| r.complaints.robot).sum();
        assert!(
            post * 3 < pre.max(3),
            "post-deployment complaints must collapse: pre={pre} post={post}"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay(&quick_config(), &Population::demo(), 17);
        let b = replay(&quick_config(), &Population::demo(), 17);
        assert_eq!(a, b);
    }
}
