//! One harness per paper table/figure.

use crate::corpus::{build_ml_corpus, CorpusConfig};
use botwall_agents::Population;
use botwall_codeen::network::{Network, NetworkConfig, RunReport};
use botwall_codeen::node::Deployment;
use botwall_codeen::timeline::{self, MonthRow, TimelineConfig};
use botwall_core::report::{Figure2Report, Table1Report};
use botwall_core::staged::{NoBoundary, StagedPipeline};
use botwall_core::Label;
use botwall_instrument::beacon;
use botwall_ml::baselines::navtree::{DecisionTree, TreeConfig};
use botwall_ml::baselines::ua_signatures::UaSignatureMatcher;
use botwall_ml::{
    checkpoint_sweep, AdaBoostBoundary, AdaBoostConfig, AdaBoostModel, Attribute, CheckpointResult,
};
use botwall_webgraph::{SiteConfig, WebConfig};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The default experiment seed (the paper's collection start date,
/// grouped as yyyy_mm_dd).
#[allow(clippy::inconsistent_digit_grouping)]
pub const SEED: u64 = 2006_01_06;

/// A moderately sized CoDeeN-like network configuration.
pub fn codeen_config(sessions: u32) -> NetworkConfig {
    NetworkConfig {
        nodes: 8,
        web: WebConfig {
            sites: 8,
            site: SiteConfig {
                pages: 40,
                ..SiteConfig::default()
            },
        },
        deployment: Deployment::full(),
        sessions,
        session_gap_ms: 400,
    }
}

/// Runs the Table-1 experiment: a calibrated population through the fully
/// deployed network; returns the report plus the raw run.
pub fn run_table1(sessions: u32, seed: u64) -> (Table1Report, RunReport) {
    let report = Network::run(&codeen_config(sessions), &Population::table1(), seed);
    let table = Table1Report::from_sessions(&report.completed);
    (table, report)
}

/// §3.1 CAPTCHA-passer cross-statistics: of sessions that passed the
/// CAPTCHA, which share executed JS and fetched CSS (paper: 95.8% and
/// 99.2%).
#[derive(Debug, Clone, Copy)]
pub struct CaptchaCrossStats {
    /// CAPTCHA-passing sessions.
    pub passers: u64,
    /// Share of passers that executed JavaScript, percent.
    pub executed_js_pct: f64,
    /// Share of passers that downloaded the CSS probe, percent.
    pub downloaded_css_pct: f64,
}

/// Computes the §3.1 cross statistics from a run.
pub fn captcha_cross_stats(run: &RunReport) -> CaptchaCrossStats {
    use botwall_core::EvidenceKind;
    let mut passers = 0u64;
    let mut js = 0u64;
    let mut css = 0u64;
    for cs in &run.completed {
        if !cs.classifiable || !cs.evidence.has(EvidenceKind::PassedCaptcha) {
            continue;
        }
        passers += 1;
        if cs.evidence.has(EvidenceKind::ExecutedJs) {
            js += 1;
        }
        if cs.evidence.has(EvidenceKind::DownloadedCss) {
            css += 1;
        }
    }
    let pct = |n: u64| {
        if passers == 0 {
            0.0
        } else {
            n as f64 * 100.0 / passers as f64
        }
    };
    CaptchaCrossStats {
        passers,
        executed_js_pct: pct(js),
        downloaded_css_pct: pct(css),
    }
}

/// Runs the Figure-2 experiment: detection-latency CDFs.
pub fn run_figure2(sessions: u32, seed: u64) -> Figure2Report {
    let report = Network::run(&codeen_config(sessions), &Population::table1(), seed);
    Figure2Report::from_sessions(&report.completed)
}

/// Runs the Figure-3 experiment: the 2005 complaint timeline.
pub fn run_figure3(sessions_per_node: f64, seed: u64) -> Vec<MonthRow> {
    let config = TimelineConfig {
        sessions_per_node,
        network: NetworkConfig {
            web: WebConfig {
                sites: 4,
                site: SiteConfig {
                    pages: 30,
                    ..SiteConfig::default()
                },
            },
            ..NetworkConfig::default()
        },
        ..TimelineConfig::default()
    };
    timeline::replay(&config, &Population::table1(), seed)
}

/// The Figure-4 result: accuracy per classifier checkpoint, plus the
/// trained model at the largest checkpoint (for Table 2).
#[derive(Debug)]
pub struct Figure4Result {
    /// One row per checkpoint (20, 40, …, 160).
    pub checkpoints: Vec<CheckpointResult>,
    /// The model trained at the final checkpoint.
    pub final_model: AdaBoostModel,
    /// Class counts `(humans, robots)` in the corpus.
    pub class_counts: (usize, usize),
}

/// Runs the Figure-4 experiment: build the labelled corpus, split it
/// 50/50 per class, and sweep classifiers at multiples of 20 requests
/// with 200 AdaBoost rounds.
pub fn run_figure4(corpus_sessions: u32, seed: u64) -> Figure4Result {
    let (corpus, class_counts) = build_ml_corpus(&CorpusConfig {
        sessions: corpus_sessions,
        seed,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF16);
    let (train, test) = corpus.split_half(&mut rng);
    let checkpoints: Vec<usize> = (1..=8).map(|k| k * 20).collect();
    let config = AdaBoostConfig::default();
    let rows = checkpoint_sweep(&train, &test, &checkpoints, &config);
    let final_model = AdaBoostModel::train(&train.features_at(160, 1), &config);
    Figure4Result {
        checkpoints: rows,
        final_model,
        class_counts,
    }
}

/// Table-2 output: the attribute importance ranking of the final model.
pub fn run_table2(corpus_sessions: u32, seed: u64) -> Vec<(Attribute, f64)> {
    run_figure4(corpus_sessions, seed).final_model.importance()
}

/// The §3.2 overhead result.
#[derive(Debug, Clone, Copy)]
pub struct OverheadResult {
    /// Total simulated bytes.
    pub total_bytes: u64,
    /// Instrumentation bytes.
    pub instrumentation_bytes: u64,
    /// Overhead share, percent (paper: 0.3%).
    pub overhead_pct: f64,
}

/// Measures instrumentation bandwidth overhead on a Table-1-style run.
pub fn run_overhead(sessions: u32, seed: u64) -> OverheadResult {
    let (_, run) = run_table1(sessions, seed);
    OverheadResult {
        total_bytes: run.bandwidth.total_bytes,
        instrumentation_bytes: run.bandwidth.instrumentation_bytes,
        overhead_pct: run.bandwidth.overhead_pct(),
    }
}

/// One row of the decoy-count ablation.
#[derive(Debug, Clone, Copy)]
pub struct DecoyRow {
    /// Decoy count `m`.
    pub m: usize,
    /// Analytic catch probability `m/(m+1)`.
    pub analytic: f64,
    /// Monte-Carlo catch rate of a blind single-fetch robot.
    pub empirical: f64,
    /// Generated-script size in bytes at this `m` (page bloat).
    pub script_bytes: usize,
}

/// Sweeps the decoy count `m` (§2.1's only tunable): catch probability
/// versus script bloat.
pub fn run_decoys(trials: u32, seed: u64) -> Vec<DecoyRow> {
    use botwall_http::Uri;
    use botwall_instrument::jsgen::{generate, JsSpec, Obfuscation};
    use botwall_instrument::token::BeaconKey;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..=10usize)
        .map(|m| {
            let mut caught = 0u32;
            for _ in 0..trials {
                // A blind robot picks uniformly among m+1 candidates.
                if rng.gen_range(0..=m) != 0 {
                    caught += 1;
                }
            }
            let spec = JsSpec {
                mouse_beacon: beacon::encode("h.example", BeaconKey::from_raw(1)),
                decoys: (0..m)
                    .map(|i| beacon::encode("h.example", BeaconKey::from_raw(2 + i as u128)))
                    .collect(),
                agent_beacon: Uri::absolute("h.example", "/a.gif"),
                obfuscation: Obfuscation::Lexical,
                target_size: 0,
            };
            let js = generate(&spec, &mut rng);
            DecoyRow {
                m,
                analytic: beacon::blind_catch_probability(m),
                empirical: if m == 0 {
                    0.0
                } else {
                    caught as f64 / trials as f64
                },
                script_bytes: js.source.len(),
            }
        })
        .collect()
}

/// One row of the staged-pipeline ablation.
#[derive(Debug, Clone, Copy)]
pub struct StagedRow {
    /// Strategy name.
    pub strategy: &'static str,
    /// Accuracy against ground truth, percent.
    pub accuracy_pct: f64,
    /// Share of sessions decided by the fast path, percent.
    pub fast_path_pct: f64,
}

/// Compares decision strategies (§4.1's argument): browser-test only,
/// set algebra, staged with an AdaBoost boundary stage.
pub fn run_staged(sessions: u32, seed: u64) -> Vec<StagedRow> {
    let (_, run) = run_table1(sessions, seed);
    // Train a boundary model on a separate corpus.
    let f4 = run_figure4(200, seed ^ 0x57A6ED);
    let boundary = AdaBoostBoundary::new(f4.final_model.clone(), 20);
    let staged_ml = StagedPipeline::new(boundary);
    let staged_plain = StagedPipeline::new(NoBoundary);

    let mut rows = Vec::new();
    for strategy in ["browser-test-only", "set-algebra", "staged+adaboost"] {
        let mut right = 0u64;
        let mut total = 0u64;
        let mut fast = 0u64;
        for cs in &run.completed {
            if !cs.classifiable {
                continue;
            }
            let Some(kind) = run.truth_of(cs.session.key()) else {
                continue;
            };
            let truth = if kind.is_human() {
                Label::Human
            } else {
                Label::Robot
            };
            let (label, is_fast) = match strategy {
                "browser-test-only" => {
                    use botwall_core::EvidenceKind;
                    let css = cs.evidence.has(EvidenceKind::DownloadedCss);
                    (if css { Label::Human } else { Label::Robot }, true)
                }
                "set-algebra" => {
                    let d = staged_plain.decide(&cs.session, &cs.evidence);
                    (d.label, d.stage != botwall_core::Stage::Fallback)
                }
                _ => {
                    let d = staged_ml.decide(&cs.session, &cs.evidence);
                    (d.label, d.stage != botwall_core::Stage::MlBoundary)
                }
            };
            total += 1;
            if label == truth {
                right += 1;
            }
            if is_fast {
                fast += 1;
            }
        }
        rows.push(StagedRow {
            strategy,
            accuracy_pct: right as f64 * 100.0 / total.max(1) as f64,
            fast_path_pct: fast as f64 * 100.0 / total.max(1) as f64,
        });
    }
    rows
}

/// One row of the ML ablation.
#[derive(Debug, Clone)]
pub struct MlAblationRow {
    /// Classifier name.
    pub name: String,
    /// Test accuracy, percent.
    pub test_accuracy_pct: f64,
}

/// Compares AdaBoost (at several round counts) against the baselines:
/// the Tan&Kumar-style decision tree at the 160-request checkpoint, and
/// UA signature matching on each session's `User-Agent`, all on the same
/// corpus split.
pub fn run_ml_ablation(corpus_sessions: u32, seed: u64) -> Vec<MlAblationRow> {
    let (corpus, _) = build_ml_corpus(&CorpusConfig {
        sessions: corpus_sessions,
        seed,
    });
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xAB1A7E);
    let (train, test) = corpus.split_half(&mut rng);
    let train_set = train.features_at(160, 1);
    let test_set = test.features_at(160, 1);
    let mut rows = Vec::new();
    for rounds in [1usize, 10, 50, 200] {
        let model = AdaBoostModel::train(&train_set, &AdaBoostConfig { rounds });
        rows.push(MlAblationRow {
            name: format!("adaboost-{rounds}"),
            test_accuracy_pct: model.accuracy(&test_set) * 100.0,
        });
    }
    let tree = DecisionTree::train(&train_set, &TreeConfig::default());
    rows.push(MlAblationRow {
        name: "navtree (Tan&Kumar-style)".to_string(),
        test_accuracy_pct: tree.accuracy(&test_set) * 100.0,
    });
    // The signature matcher reads only each test session's own
    // User-Agent: it catches the robots that declare themselves.
    let matcher = UaSignatureMatcher::default();
    let right = test
        .sessions
        .iter()
        .filter(|s| matcher.classify(Some(&s.user_agent)) == s.label)
        .count();
    rows.push(MlAblationRow {
        name: "ua-signatures".to_string(),
        test_accuracy_pct: right as f64 * 100.0 / test.sessions.len().max(1) as f64,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shape_is_papery() {
        let (table, _) = run_table1(400, SEED);
        assert!(
            table.total_sessions > 100,
            "sessions {}",
            table.total_sessions
        );
        let css = table.pct(table.downloaded_css);
        let mm = table.pct(table.mouse_movement);
        let js = table.pct(table.executed_js);
        // Shape: css > js > mouse; human share in the 15–40% band; FPR
        // small.
        assert!(css > js && js >= mm, "css={css} js={js} mm={mm}");
        assert!((10.0..45.0).contains(&table.human_upper_bound_pct()));
        assert!(table.max_false_positive_rate_pct() < 12.0);
    }

    #[test]
    fn figure2_quantiles_are_ordered() {
        let f2 = run_figure2(300, SEED);
        assert!(!f2.mouse.is_empty());
        assert!(!f2.css.is_empty());
        // CSS detects faster than mouse at the 95th percentile, as in the
        // paper (19 vs 57 requests).
        let css95 = f2.css.quantile(0.95).unwrap();
        let mm95 = f2.mouse.quantile(0.95).unwrap();
        assert!(css95 <= mm95, "css95={css95} mm95={mm95}");
    }

    #[test]
    fn decoy_rows_match_formula() {
        let rows = run_decoys(4000, SEED);
        assert_eq!(rows.len(), 11);
        for r in &rows {
            assert!(
                (r.analytic - r.empirical).abs() < 0.05,
                "m={} analytic={} empirical={}",
                r.m,
                r.analytic,
                r.empirical
            );
        }
        // Script grows with m.
        assert!(rows[10].script_bytes > rows[0].script_bytes);
    }

    #[test]
    fn overhead_is_small() {
        let o = run_overhead(150, SEED);
        assert!(o.overhead_pct > 0.0);
        assert!(o.overhead_pct < 12.0, "overhead {}%", o.overhead_pct);
    }

    #[test]
    fn ml_ablation_ranks_adaboost_over_signatures() {
        let rows = run_ml_ablation(160, SEED);
        let acc = |name: &str| {
            rows.iter()
                .find(|r| r.name == name)
                .map(|r| r.test_accuracy_pct)
                .unwrap_or_else(|| panic!("no {name} row"))
        };
        // Signatures catch only the robots that declare themselves; the
        // learner sees what every robot does.
        assert!(acc("ua-signatures") > 0.0);
        assert!(acc("adaboost-200") > acc("ua-signatures"), "{rows:?}");
    }
}
