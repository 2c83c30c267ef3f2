//! Aggregate reporting: Table 1 and Figure 2 of the paper.

use botwall_core::{CompletedSession, EvidenceKind};
use std::fmt;

/// The Table-1 session breakdown plus the §3.1 human-set bounds.
///
/// The paper reports, over 929,922 sessions: CSS 28.9%, JS 27.1%, mouse
/// 22.3%, CAPTCHA 9.1%, hidden links 1.0%, browser-type mismatch 0.7%;
/// `S_H` = 24.2% with lower bound 22.3% and max false-positive rate 2.4%.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table1Report {
    /// Sessions considered (those above the >10-request noise floor).
    pub total_sessions: u64,
    /// Sessions that downloaded the CSS probe.
    pub downloaded_css: u64,
    /// Sessions that executed the injected JavaScript.
    pub executed_js: u64,
    /// Sessions with a valid mouse-event beacon.
    pub mouse_movement: u64,
    /// Sessions that passed a CAPTCHA.
    pub passed_captcha: u64,
    /// Sessions that followed the hidden link.
    pub followed_hidden: u64,
    /// Sessions with a browser-type mismatch.
    pub ua_mismatch: u64,
    /// Sessions in the computed human set `S_H`.
    pub human_set: u64,
}

impl Table1Report {
    /// Builds the report from completed sessions, applying the paper's
    /// noise rule (only classifiable sessions count).
    pub fn from_sessions<'a>(
        sessions: impl IntoIterator<Item = &'a CompletedSession>,
    ) -> Table1Report {
        let mut r = Table1Report::default();
        for cs in sessions {
            if !cs.classifiable {
                continue;
            }
            r.total_sessions += 1;
            let e = &cs.evidence;
            if e.has(EvidenceKind::DownloadedCss) {
                r.downloaded_css += 1;
            }
            if e.has(EvidenceKind::ExecutedJs) {
                r.executed_js += 1;
            }
            if e.has(EvidenceKind::MouseEvent) {
                r.mouse_movement += 1;
            }
            if e.has(EvidenceKind::PassedCaptcha) {
                r.passed_captcha += 1;
            }
            if e.has(EvidenceKind::HiddenLinkFollowed) {
                r.followed_hidden += 1;
            }
            if e.has(EvidenceKind::UaMismatch) {
                r.ua_mismatch += 1;
            }
            // S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM), membership test.
            let css = e.has(EvidenceKind::DownloadedCss);
            let mm = e.has(EvidenceKind::MouseEvent);
            let js = e.has(EvidenceKind::ExecutedJs);
            // Deliberately non-minimal: the shape mirrors the formula above.
            #[allow(clippy::nonminimal_bool)]
            if (css || mm) && !(js && !mm) {
                r.human_set += 1;
            }
        }
        r
    }

    /// Share of `n` among total sessions, in percent.
    pub fn pct(&self, n: u64) -> f64 {
        if self.total_sessions == 0 {
            0.0
        } else {
            n as f64 * 100.0 / self.total_sessions as f64
        }
    }

    /// The lower bound on the human share: sessions with mouse movement.
    pub fn human_lower_bound_pct(&self) -> f64 {
        self.pct(self.mouse_movement)
    }

    /// The upper bound on the human share: `|S_H|`.
    pub fn human_upper_bound_pct(&self) -> f64 {
        self.pct(self.human_set)
    }

    /// The paper's maximum false-positive rate:
    /// `(upper − lower) / (100 − lower)` — potential false positives over
    /// the negative population.
    pub fn max_false_positive_rate_pct(&self) -> f64 {
        let lower = self.human_lower_bound_pct();
        let upper = self.human_upper_bound_pct();
        let negatives = 100.0 - lower;
        if negatives <= 0.0 {
            0.0
        } else {
            (upper - lower).max(0.0) * 100.0 / negatives
        }
    }
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28}{:>14}{:>14}",
            "Description", "# of Sessions", "Percentage(%)"
        )?;
        let rows = [
            ("Downloaded CSS", self.downloaded_css),
            ("Executed JavaScript", self.executed_js),
            ("Mouse movement detected", self.mouse_movement),
            ("Passed CAPTCHA test", self.passed_captcha),
            ("Followed hidden links", self.followed_hidden),
            ("Browser type mismatch", self.ua_mismatch),
        ];
        for (name, n) in rows {
            writeln!(f, "{:<28}{:>14}{:>14.1}", name, n, self.pct(n))?;
        }
        writeln!(
            f,
            "{:<28}{:>14}{:>14.1}",
            "Total sessions", self.total_sessions, 100.0
        )?;
        writeln!(
            f,
            "S_H = {} sessions ({:.1}%), lower bound {:.1}%, max FPR {:.1}%",
            self.human_set,
            self.human_upper_bound_pct(),
            self.human_lower_bound_pct(),
            self.max_false_positive_rate_pct()
        )
    }
}

/// An empirical CDF over "requests needed to detect" values (Figure 2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestCdf {
    sorted: Vec<u32>,
}

impl RequestCdf {
    /// Builds a CDF from raw first-detection indices.
    pub fn new(mut values: Vec<u32>) -> RequestCdf {
        values.sort_unstable();
        RequestCdf { sorted: values }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The value at quantile `q ∈ [0, 1]` (e.g. `0.95` → the request count
    /// by which 95% of detections happened). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u32> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        Some(self.sorted[idx])
    }

    /// Fraction of observations at or below `x`.
    pub fn fraction_at(&self, x: u32) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }
}

/// The three Figure-2 CDFs: CSS files, JavaScript files, mouse events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Figure2Report {
    /// First-detection indices for CSS probe downloads.
    pub css: RequestCdf,
    /// First-detection indices for JS file downloads.
    pub js: RequestCdf,
    /// First-detection indices for valid mouse events.
    pub mouse: RequestCdf,
}

impl Figure2Report {
    /// Builds the CDFs from completed sessions (classifiable only).
    pub fn from_sessions<'a>(
        sessions: impl IntoIterator<Item = &'a CompletedSession>,
    ) -> Figure2Report {
        let mut css = Vec::new();
        let mut js = Vec::new();
        let mut mouse = Vec::new();
        for cs in sessions {
            if !cs.classifiable {
                continue;
            }
            if let Some(o) = cs.evidence.first(EvidenceKind::DownloadedCss) {
                css.push(o.at_request);
            }
            if let Some(o) = cs.evidence.first(EvidenceKind::DownloadedJsFile) {
                js.push(o.at_request);
            }
            if let Some(o) = cs.evidence.first(EvidenceKind::MouseEvent) {
                mouse.push(o.at_request);
            }
        }
        Figure2Report {
            css: RequestCdf::new(css),
            js: RequestCdf::new(js),
            mouse: RequestCdf::new(mouse),
        }
    }
}

impl fmt::Display for Figure2Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10}{:>10}{:>10}{:>10}",
            "quantile", "CSS", "JS", "mouse"
        )?;
        for q in [0.5, 0.8, 0.9, 0.95, 0.99] {
            writeln!(
                f,
                "{:<10}{:>10}{:>10}{:>10}",
                format!("p{:.0}", q * 100.0),
                self.css.quantile(q).map_or("-".into(), |v| v.to_string()),
                self.js.quantile(q).map_or("-".into(), |v| v.to_string()),
                self.mouse.quantile(q).map_or("-".into(), |v| v.to_string()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_core::{EvidenceSet, Label, Reason};
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request, Response, StatusCode};
    use botwall_sessions::{SessionTracker, SimTime, TrackerConfig};

    fn completed(kinds: &[(EvidenceKind, u32)], classifiable: bool) -> CompletedSession {
        let tracker = SessionTracker::new(TrackerConfig::default());
        let n = if classifiable { 12 } else { 3 };
        let mut key = None;
        for i in 0..n {
            let r = Request::builder(Method::Get, format!("http://h/{i}"))
                .client(ClientIp::new(1))
                .build()
                .unwrap();
            key =
                Some(tracker.observe(&r, &Response::empty(StatusCode::OK), SimTime::from_secs(i)));
        }
        let session = tracker.get(&key.unwrap()).unwrap().clone();
        let mut evidence = EvidenceSet::new();
        for (k, idx) in kinds {
            evidence.record(*k, *idx, SimTime::ZERO);
        }
        CompletedSession {
            session,
            evidence,
            label: Label::Robot,
            reason: Reason::NoBrowserSignals,
            classifiable,
        }
    }

    #[test]
    fn table1_counts_evidence_kinds() {
        use EvidenceKind::*;
        let sessions = vec![
            completed(&[(DownloadedCss, 3), (MouseEvent, 7)], true),
            completed(&[(DownloadedCss, 2), (ExecutedJs, 4)], true),
            completed(&[(ExecutedJs, 9)], true),
            completed(&[], true),
            completed(&[(HiddenLinkFollowed, 1)], true),
        ];
        let r = Table1Report::from_sessions(&sessions);
        assert_eq!(r.total_sessions, 5);
        assert_eq!(r.downloaded_css, 2);
        assert_eq!(r.executed_js, 2);
        assert_eq!(r.mouse_movement, 1);
        assert_eq!(r.followed_hidden, 1);
        // S_H: session 1 (css+mm) only; session 2 is css+js-no-mouse.
        assert_eq!(r.human_set, 1);
        assert!((r.pct(r.downloaded_css) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn table1_skips_unclassifiable() {
        use EvidenceKind::*;
        let sessions = vec![
            completed(&[(DownloadedCss, 1)], false),
            completed(&[(DownloadedCss, 1)], true),
        ];
        let r = Table1Report::from_sessions(&sessions);
        assert_eq!(r.total_sessions, 1);
        assert_eq!(r.downloaded_css, 1);
    }

    #[test]
    fn fpr_matches_paper_arithmetic() {
        // Construct shares: lower 22.3%, upper 24.2% -> FPR 2.44%.
        let mut r = Table1Report {
            total_sessions: 1000,
            mouse_movement: 223,
            human_set: 242,
            ..Table1Report::default()
        };
        r.downloaded_css = 289;
        let fpr = r.max_false_positive_rate_pct();
        assert!((fpr - 1.9 * 100.0 / 77.7).abs() < 0.05, "fpr = {fpr}");
    }

    #[test]
    fn cdf_quantiles() {
        let cdf = RequestCdf::new(vec![5, 1, 3, 2, 4]);
        assert_eq!(cdf.quantile(0.0), Some(1));
        assert_eq!(cdf.quantile(0.2), Some(1));
        assert_eq!(cdf.quantile(0.5), Some(3));
        assert_eq!(cdf.quantile(1.0), Some(5));
        assert_eq!(cdf.len(), 5);
    }

    #[test]
    fn cdf_fraction_at() {
        let cdf = RequestCdf::new(vec![10, 20, 30, 40]);
        assert_eq!(cdf.fraction_at(9), 0.0);
        assert_eq!(cdf.fraction_at(10), 0.25);
        assert_eq!(cdf.fraction_at(25), 0.5);
        assert_eq!(cdf.fraction_at(100), 1.0);
    }

    #[test]
    fn cdf_is_monotone() {
        let cdf = RequestCdf::new((0..100).map(|i| (i * 7) % 53).collect());
        let mut prev = 0.0;
        for x in 0..60 {
            let f = cdf.fraction_at(x);
            assert!(f >= prev, "CDF must be monotone");
            prev = f;
        }
        assert_eq!(prev, 1.0);
    }

    #[test]
    fn empty_cdf() {
        let cdf = RequestCdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.fraction_at(10), 0.0);
    }

    #[test]
    fn figure2_collects_first_indices() {
        use EvidenceKind::*;
        let sessions = vec![
            completed(&[(DownloadedCss, 3), (MouseEvent, 15)], true),
            completed(&[(DownloadedCss, 7), (DownloadedJsFile, 8)], true),
            completed(&[(MouseEvent, 30)], true),
        ];
        let f2 = Figure2Report::from_sessions(&sessions);
        assert_eq!(f2.css.len(), 2);
        assert_eq!(f2.js.len(), 1);
        assert_eq!(f2.mouse.len(), 2);
        assert_eq!(f2.mouse.quantile(1.0), Some(30));
    }

    #[test]
    fn display_renders_tables() {
        let r = Table1Report {
            total_sessions: 10,
            downloaded_css: 3,
            ..Table1Report::default()
        };
        let s = r.to_string();
        assert!(s.contains("Downloaded CSS"));
        assert!(s.contains("30.0"));
        let f2 = Figure2Report::default();
        assert!(f2.to_string().contains("quantile"));
    }
}
