//! Cross-crate integration: agents → proxy → instrumenter → detector →
//! reports, end to end.

use botwall::agents::Population;
use botwall::codeen::network::{Network, NetworkConfig};
use botwall::codeen::node::Deployment;
use botwall::detect::classifier::classify_hard;
use botwall::detect::{Label, Reason, Verdict};
use botwall::webgraph::{SiteConfig, WebConfig};
use botwall_bench::{Figure2Report, Table1Report};

fn config(sessions: u32) -> NetworkConfig {
    NetworkConfig {
        nodes: 3,
        web: WebConfig {
            sites: 3,
            site: SiteConfig {
                pages: 20,
                ..SiteConfig::default()
            },
        },
        deployment: Deployment::full(),
        sessions,
        session_gap_ms: 300,
    }
}

#[test]
fn full_pipeline_is_deterministic_across_runs() {
    let a = Network::run(&config(60), &Population::table1(), 123);
    let b = Network::run(&config(60), &Population::table1(), 123);
    assert_eq!(a.summaries.len(), b.summaries.len());
    for (x, y) in a.summaries.iter().zip(&b.summaries) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.requests, y.requests);
        assert_eq!(x.allowed, y.allowed);
    }
    assert_eq!(a.bandwidth, b.bandwidth);
    let ta = Table1Report::from_sessions(&a.completed);
    let tb = Table1Report::from_sessions(&b.completed);
    assert_eq!(ta, tb);
}

#[test]
fn different_seeds_produce_different_traffic() {
    let a = Network::run(&config(40), &Population::table1(), 1);
    let b = Network::run(&config(40), &Population::table1(), 2);
    let kinds = |r: &botwall::codeen::network::RunReport| {
        r.summaries
            .iter()
            .map(|s| s.kind.name())
            .collect::<Vec<_>>()
    };
    assert_ne!(kinds(&a), kinds(&b));
}

#[test]
fn set_algebra_labels_match_ground_truth_mostly() {
    let report = Network::run(&config(250), &Population::table1(), 5);
    let mut right = 0u32;
    let mut total = 0u32;
    let mut human_fp = 0u32;
    let mut humans = 0u32;
    for cs in &report.completed {
        if !cs.classifiable {
            continue;
        }
        let Some(kind) = report.truth_of(cs.session.key()) else {
            continue;
        };
        let truth = if kind.is_human() {
            Label::Human
        } else {
            Label::Robot
        };
        total += 1;
        if cs.label == truth {
            right += 1;
        }
        if kind.is_human() {
            humans += 1;
            if cs.label == Label::Robot {
                human_fp += 1;
            }
        }
    }
    assert!(total > 150, "classifiable sessions: {total}");
    let acc = right as f64 / total as f64;
    assert!(acc > 0.85, "end-to-end accuracy {acc}");
    // The paper's headline: low false positives on humans.
    let fpr = human_fp as f64 / humans.max(1) as f64;
    assert!(fpr < 0.1, "human FPR {fpr}");
}

#[test]
fn table1_report_has_paper_shape() {
    let report = Network::run(&config(300), &Population::table1(), 9);
    let t = Table1Report::from_sessions(&report.completed);
    // CSS ≥ JS ≥ mouse ≥ CAPTCHA; hidden and mismatch are rare.
    let css = t.pct(t.downloaded_css);
    let js = t.pct(t.executed_js);
    let mm = t.pct(t.mouse_movement);
    let cap = t.pct(t.passed_captcha);
    assert!(css >= js, "css {css} vs js {js}");
    assert!(js >= mm, "js {js} vs mouse {mm}");
    assert!(mm >= cap, "mouse {mm} vs captcha {cap}");
    assert!(t.pct(t.followed_hidden) < 6.0);
    assert!(t.pct(t.ua_mismatch) < 4.0);
    // The bounds bracket correctly.
    assert!(t.human_upper_bound_pct() >= t.human_lower_bound_pct());
}

#[test]
fn figure2_css_detects_faster_than_mouse() {
    let report = Network::run(&config(300), &Population::table1(), 10);
    let f2 = Figure2Report::from_sessions(&report.completed);
    assert!(f2.css.len() > 20);
    assert!(f2.mouse.len() > 20);
    for q in [0.5, 0.8, 0.95] {
        let css = f2.css.quantile(q).unwrap();
        let mouse = f2.mouse.quantile(q).unwrap();
        assert!(css <= mouse, "q{q}: css {css} must not lag mouse {mouse}");
    }
}

#[test]
fn humans_with_mouse_evidence_carry_the_right_kind() {
    let report = Network::run(&config(120), &Population::table1(), 11);
    for cs in &report.completed {
        // A mouse beacon with no robot tell beside it.
        if classify_hard(&cs.evidence) == Some(Verdict::Human(Reason::MouseActivity)) {
            assert_eq!(cs.label, Label::Human, "mouse evidence implies human label");
        }
    }
}

#[test]
fn enforcement_reduces_abuse_vs_undefended() {
    let defended = Network::run(&config(150), &Population::table1(), 12);
    let mut open = config(150);
    open.deployment = Deployment::none();
    let undefended = Network::run(&open, &Population::table1(), 12);
    let delivered = |r: &botwall::codeen::network::RunReport| {
        r.summaries
            .iter()
            .map(|s| s.abusive_delivered())
            .sum::<u64>()
    };
    let d = delivered(&defended);
    let u = delivered(&undefended);
    assert!(
        (d as f64) < u as f64 * 0.5,
        "defended {d} vs undefended {u}"
    );
}

/// What the clients counted is what the gateways counted: each session's
/// requests are allowed, throttled or blocked, and those tallies summed
/// over every session are the merged node statistics.
#[test]
fn client_ledgers_add_up_to_the_gateways() {
    for population in [Population::table1(), Population::escalation()] {
        let report = Network::run(&config(150), &population, 1);
        let mut sums = (0, 0, 0);
        for s in &report.summaries {
            assert_eq!(s.requests, s.allowed + s.throttled + s.blocked, "{s:?}");
            sums.0 += s.allowed;
            sums.1 += s.throttled;
            sums.2 += s.blocked;
        }
        let stats = &report.stats;
        assert_eq!(sums, (stats.allowed, stats.throttled, stats.blocked));
        assert!(stats.throttled + stats.blocked > 0, "nothing was refused");
    }
}
