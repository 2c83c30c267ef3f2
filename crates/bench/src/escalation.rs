//! The adversary-escalation evaluation.
//!
//! Runs the [`Population::escalation`] mix — humans, the polite-spider
//! baseline, and the modern adversaries (leaky/stealth headless
//! imitators, a coordinated fleet, an LLM browsing agent) — through the
//! fully deployed network, then scores the detector per ground-truth
//! kind: detection rate overall, detection rate on *hard* evidence
//! alone, and the false-positive rate on the human population. The
//! whole report is deterministic in its seed, so the determinism suite
//! byte-locks its rendering.

use crate::experiments::codeen_config;
use botwall_agents::Population;
use botwall_codeen::network::Network;
use botwall_core::classifier::classify_hard;
use botwall_core::{Label, Verdict};
use std::collections::BTreeMap;

/// Per-adversary detection scores.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryRow {
    /// Ground-truth kind name (`AgentKind::name`).
    pub kind: String,
    /// Classifiable sessions of this kind.
    pub sessions: u32,
    /// Share labeled Robot, percent.
    pub detected_pct: f64,
    /// Share carrying hard robot evidence (decoys, forged beacons,
    /// automation leaks, …), percent — detection that never waited for
    /// the batch set-algebra pass.
    pub hard_detected_pct: f64,
}

/// The escalation eval: one row per robot kind plus the human scores.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Sessions driven.
    pub sessions: u32,
    /// Classifiable human sessions.
    pub human_sessions: u32,
    /// Humans mislabeled Robot, percent (the paper's headline metric).
    pub human_false_positive_pct: f64,
    /// Robot rows, sorted by kind name.
    pub rows: Vec<AdversaryRow>,
}

impl EvalReport {
    /// The row for `kind`, if that kind appeared in the run.
    pub fn row(&self, kind: &str) -> Option<&AdversaryRow> {
        self.rows.iter().find(|r| r.kind == kind)
    }
}

/// Runs the escalation eval at the given scale.
pub fn run_escalation_eval(sessions: u32, seed: u64) -> EvalReport {
    let run = Network::run(&codeen_config(sessions), &Population::escalation(), seed);
    let mut humans = 0u32;
    let mut human_fp = 0u32;
    // kind -> (sessions, robot-labeled, hard-evidenced)
    let mut per_kind: BTreeMap<&'static str, (u32, u32, u32)> = BTreeMap::new();
    for cs in &run.completed {
        if !cs.classifiable {
            continue;
        }
        let Some(kind) = run.truth_of(cs.session.key()) else {
            continue;
        };
        if kind.is_human() {
            humans += 1;
            if cs.label == Label::Robot {
                human_fp += 1;
            }
            continue;
        }
        let entry = per_kind.entry(kind.name()).or_default();
        entry.0 += 1;
        if cs.label == Label::Robot {
            entry.1 += 1;
        }
        if matches!(classify_hard(&cs.evidence), Some(Verdict::Robot(_))) {
            entry.2 += 1;
        }
    }
    let pct = |n: u32, d: u32| {
        if d == 0 {
            0.0
        } else {
            n as f64 * 100.0 / d as f64
        }
    };
    EvalReport {
        sessions,
        human_sessions: humans,
        human_false_positive_pct: pct(human_fp, humans),
        rows: per_kind
            .into_iter()
            .map(|(kind, (n, robot, hard))| AdversaryRow {
                kind: kind.to_string(),
                sessions: n,
                detected_pct: pct(robot, n),
                hard_detected_pct: pct(hard, n),
            })
            .collect(),
    }
}
