//! `botwall-benchmark compare <dir-a> <dir-b>`: two sets of result
//! files (as `run --out <dir>` writes them), judged per workload and
//! metric by the rule for measuring in a small sandbox: a difference
//! counts only if B wins (or loses) at least nine tenths of the
//! same-seed pairs and the medians differ by more than the distance
//! between A's own quartiles; a metric whose spread is wider than its
//! bound is unresolved, not unchanged.

use crate::spec;
use crate::stats::{median, parse_result_metrics, quartiles};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// What the comparison says about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better, by the nine-tenths rule.
    Better,
    /// B is worse by the same rule, within the metric's bound.
    Worse,
    /// B's median is worse than A's by more than the bound.
    WorseBeyondBound,
    /// The runs do not decide it.
    Unresolved,
}

impl Verdict {
    /// As printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WorseBeyondBound => "worse-beyond-bound",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. Values are keyed by seed; `lower_is_better` and
/// `bound` come from [`spec::direction_and_bound`].
pub fn judge(
    a: &BTreeMap<u64, f64>,
    b: &BTreeMap<u64, f64>,
    lower_is_better: bool,
    bound: Option<f64>,
) -> Verdict {
    let values = |m: &BTreeMap<u64, f64>| m.values().copied().collect::<Vec<_>>();
    let (va, vb) = (values(a), values(b));
    if va.is_empty() || vb.is_empty() {
        return Verdict::Unresolved;
    }
    // Orient everything so that smaller is better.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let (med_a, med_b) = (sign * median(&va), sign * median(&vb));
    let [q1, _, q3] = quartiles(&va);
    let spread = q3 - q1;
    let (mut wins, mut losses, mut pairs) = (0usize, 0usize, 0usize);
    for (seed, &x) in a {
        if let Some(&y) = b.get(seed) {
            pairs += 1;
            wins += usize::from(sign * y < sign * x);
            losses += usize::from(sign * y > sign * x);
        }
    }
    let decisive = |count: usize| pairs > 0 && count * 10 >= pairs * 9;
    let resolved = (med_b - med_a).abs() > spread;
    let worst_b = vb
        .iter()
        .map(|&y| sign * y)
        .fold(f64::NEG_INFINITY, f64::max);
    let best_a = va.iter().map(|&x| sign * x).fold(f64::INFINITY, f64::min);
    if (resolved && decisive(wins)) || worst_b < best_a {
        return Verdict::Better;
    }
    if let Some(bound) = bound {
        let scale = med_a.abs().max(f64::MIN_POSITIVE);
        if spread / scale > bound {
            return Verdict::Unresolved;
        }
        if (med_b - med_a) / scale > bound {
            return Verdict::WorseBeyondBound;
        }
    }
    if resolved && decisive(losses) {
        return Verdict::Worse;
    }
    Verdict::Unresolved
}

/// `(workload, trace, metric) → seed → value` for every result file in `dir`.
type Results = BTreeMap<(String, String, String), BTreeMap<u64, f64>>;

fn load(dir: &Path) -> io::Result<Results> {
    let mut out = Results::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        // <workload>.<seed>.trace<0|1>.json
        let parts: Vec<&str> = name.split('.').collect();
        let [workload, seed, trace, "json"] = parts[..] else {
            continue;
        };
        let Ok(seed) = seed.parse::<u64>() else {
            continue;
        };
        let text = std::fs::read_to_string(&path)?;
        let Some(line) = text.lines().last() else {
            continue;
        };
        for (metric, value, _) in parse_result_metrics(line) {
            out.entry((workload.to_string(), trace.to_string(), metric))
                .or_default()
                .insert(seed, value);
        }
    }
    Ok(out)
}

/// Prints the comparison; `Ok(true)` if no metric is worse beyond its bound.
pub fn run(dir_a: &Path, dir_b: &Path) -> io::Result<bool> {
    let (a, b) = (load(dir_a)?, load(dir_b)?);
    if a.is_empty() || b.is_empty() {
        return Err(io::Error::other(
            "no result files (<workload>.<seed>.trace<n>.json) to compare",
        ));
    }
    println!(
        "{:<14} {:<36} {:>12} {:>12} {:>12} {:>12} {:>8}  verdict",
        "workload", "metric", "A q1", "A median", "A q3", "B median", "B/A"
    );
    let mut acceptable = true;
    for ((workload, trace, metric), values_a) in &a {
        let Some(values_b) = b.get(&(workload.clone(), trace.clone(), metric.clone())) else {
            continue;
        };
        let (lower, bound) = spec::direction_and_bound(metric).unwrap_or((true, None));
        let verdict = judge(values_a, values_b, lower, bound);
        acceptable &= verdict != Verdict::WorseBeyondBound;
        let va: Vec<f64> = values_a.values().copied().collect();
        let vb: Vec<f64> = values_b.values().copied().collect();
        let [q1, q2, q3] = quartiles(&va);
        let med_b = median(&vb);
        println!(
            "{workload:<14} {metric:<36} {q1:>12.4} {q2:>12.4} {q3:>12.4} {med_b:>12.4} {:>8.4}  {}",
            med_b / q2,
            verdict.name()
        );
    }
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> BTreeMap<u64, f64> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_nine_tenths_rule() {
        let a = runs(&[1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]);
        let faster = runs(&[0.90, 0.91, 0.89, 0.92, 0.88, 0.90, 0.91, 0.89, 0.90, 0.90]);
        let slower = runs(&[1.05, 1.06, 1.04, 1.07, 1.03, 1.05, 1.06, 1.04, 1.05, 1.05]);
        let much_slower = runs(&[1.3; 10]);
        assert_eq!(judge(&a, &faster, true, Some(0.1)), Verdict::Better);
        assert_eq!(judge(&a, &slower, true, Some(0.1)), Verdict::Worse);
        assert_eq!(
            judge(&a, &much_slower, true, Some(0.1)),
            Verdict::WorseBeyondBound
        );
        assert_eq!(judge(&a, &a, true, Some(0.1)), Verdict::Unresolved);
        // Higher-is-better flips the reading.
        assert_eq!(judge(&a, &faster, false, None), Verdict::Worse);
        // A spread wider than the bound decides nothing...
        let noisy = runs(&[1.0, 1.4, 0.7, 1.3, 0.8, 1.1, 0.9, 1.2, 1.0, 1.0]);
        assert_eq!(
            judge(&noisy, &much_slower, true, Some(0.1)),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &runs(&[0.5; 10]), true, Some(0.1)),
            Verdict::Better
        );
    }
}
