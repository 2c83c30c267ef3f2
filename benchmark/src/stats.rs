//! Order statistics, the metric record, and the small amount of JSON the
//! benchmark reads and writes (no serializer exists offline: the
//! workspace's `serde` is a marker shim).

use std::fmt::Write as _;

/// Sorts and returns the values.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `q`-quantile (0..=1) of already sorted values, interpolated
/// linearly between neighbours; `NaN` for no values.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// The median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values.to_vec()), 0.5)
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive
/// method): the rule the acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values.to_vec());
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return [only; 3];
    }
    [1, 2, 3].map(|i| {
        let at = i * (n + 1);
        let j = (at / 4).clamp(1, n - 1);
        let delta = at as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    })
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarises.
    pub samples: usize,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// A number as JSON: all its digits, and `null`-free (a value that could
/// not be measured is reported as -1 and fails the run elsewhere).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// The result line the contract asks for: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The number stored under `"key":` in a flat JSON object such as
/// `/admin/stats` (first occurrence; no nesting is understood).
pub fn json_field(text: &str, key: &str) -> Option<f64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Every `"name": {"value": v, "unit": "u"}` of a result line, in order.
pub fn parse_result_metrics(line: &str) -> Vec<(String, f64, String)> {
    let mut out = Vec::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    let mut rest = &line[start + 9..];
    while let Some(v) = rest.find("{\"value\":") {
        let name = rest[..v].rsplit('"').nth(1).unwrap_or_default().to_string();
        let body = &rest[v..];
        let end = body.find('}').unwrap_or(body.len());
        let value = json_field(&body[..end], "value");
        let unit = body[..end]
            .split("\"unit\":")
            .nth(1)
            .and_then(|u| u.split('"').nth(1))
            .unwrap_or_default()
            .to_string();
        if let Some(value) = value {
            out.push((name, value, unit));
        }
        rest = &body[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_round_trips() {
        let line = result_line(
            true,
            10,
            0,
            &[
                Metric::new("cost_x", 1.25, "x", 5),
                Metric::new("setup_s", 0.5, "s", 5),
            ],
        );
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert_eq!(
            parse_result_metrics(&line),
            vec![
                ("cost_x".to_string(), 1.25, "x".to_string()),
                ("setup_s".to_string(), 0.5, "s".to_string())
            ]
        );
        assert_eq!(
            json_field("{\"a\":1,\"requests\":42}", "requests"),
            Some(42.0)
        );
        assert_eq!(json_field(&line, "attempted"), Some(10.0));
    }
}
