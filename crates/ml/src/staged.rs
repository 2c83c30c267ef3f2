//! The staged decision pipeline (§4.1).
//!
//! "A more practical solution may combine multiple approaches in a staged
//! manner — making quick decisions by fast analysis (e.g., standard
//! browser test), then perform a careful decision algorithm for boundary
//! cases (e.g., AI-based techniques)."
//!
//! Stage 1 is hard evidence, either way: definitive when present.
//! Stage 2 is the standard-browser test: cheap, early, covers most sessions.
//! Stage 3 hands *boundary* sessions to a pluggable classifier (the
//! AdaBoost model, as [`AdaBoostBoundary`](crate::AdaBoostBoundary),
//! implements [`BoundaryClassifier`]); set algebra decides what it leaves. All but stage 3 read the
//! detector's own verdict, [`classifier::classify_online`].
//!
//! Like the paper's, the pipeline runs offline: it decides completed
//! sessions after the gateway has flushed them. Its callers are the
//! `botwall-bench` `staged` experiment and the `ml_pipeline` example
//! (`figure4`, `table2` and `ablate_ml` train and score the model on its
//! own); the gateway itself decides online with the browser test and
//! the CAPTCHA.

use botwall_core::classifier::{self, Label, Verdict};
use botwall_core::evidence::{EvidenceKind, EvidenceSet};
use botwall_sessions::Session;

/// Which stage produced a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Hard evidence (a robot tell, a mouse event or a CAPTCHA pass; see
    /// [`classify_hard`](classifier::classify_hard)) decided immediately.
    HardEvidence,
    /// The fast standard-browser test decided.
    BrowserTest,
    /// The boundary classifier (machine learning) decided.
    MlBoundary,
    /// No stage could decide; the set-algebra default applied.
    Fallback,
}

/// A staged decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedDecision {
    /// The label assigned.
    pub label: Label,
    /// The stage that produced it.
    pub stage: Stage,
}

/// A pluggable classifier consulted for boundary cases.
///
/// Implemented by [`AdaBoostBoundary`](crate::AdaBoostBoundary) and by
/// any `Fn(&Session) -> Option<Label>`; `None` means the classifier
/// abstains and the pipeline falls back to set algebra.
pub trait BoundaryClassifier {
    /// Classifies a session, or abstains with `None`.
    fn classify_session(&self, session: &Session) -> Option<Label>;
}

/// A boundary classifier that always abstains.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoBoundary;

impl BoundaryClassifier for NoBoundary {
    fn classify_session(&self, _session: &Session) -> Option<Label> {
        None
    }
}

impl<F> BoundaryClassifier for F
where
    F: Fn(&Session) -> Option<Label>,
{
    fn classify_session(&self, session: &Session) -> Option<Label> {
        self(session)
    }
}

/// The browser test is trusted once a session has at least this many
/// requests without contradicting signals (Figure 2: CSS downloads
/// classify 95% of browser users within 19 requests).
const BROWSER_TEST_WINDOW: u64 = 19;

/// The staged decision pipeline.
///
/// # Examples
///
/// ```
/// use botwall_ml::staged::{NoBoundary, StagedPipeline, Stage};
/// use botwall_core::evidence::{EvidenceKind, EvidenceSet};
/// use botwall_core::classifier::Label;
/// use botwall_http::request::ClientIp;
/// use botwall_http::{Method, Request, Response, StatusCode};
/// use botwall_sessions::{SessionTracker, SimTime, TrackerConfig};
///
/// // A session of one request, as the tracker recorded it.
/// let tracker = SessionTracker::new(TrackerConfig::default());
/// let request = Request::builder(Method::Get, "http://h/index.html")
///     .client(ClientIp::new(1))
///     .build()
///     .unwrap();
/// let ok = Response::empty(StatusCode::OK);
/// let session = tracker.get(&tracker.observe(&request, &ok, SimTime::ZERO)).unwrap();
///
/// let pipeline = StagedPipeline::new(NoBoundary);
/// let mut e = EvidenceSet::new();
/// e.record(EvidenceKind::MouseEvent, 1, SimTime::ZERO);
/// // Hard evidence decides before any later stage reads the session.
/// let d = pipeline.decide(&session, &e);
/// assert_eq!(d.label, Label::Human);
/// assert_eq!(d.stage, Stage::HardEvidence);
/// ```
#[derive(Debug)]
pub struct StagedPipeline<C> {
    boundary: C,
}

impl<C: BoundaryClassifier> StagedPipeline<C> {
    /// Creates a pipeline with the given boundary classifier.
    pub fn new(boundary: C) -> StagedPipeline<C> {
        StagedPipeline { boundary }
    }

    /// Decides a session using evidence plus (for boundary cases) the
    /// session's request history.
    pub fn decide(&self, session: &Session, evidence: &EvidenceSet) -> StagedDecision {
        let verdict = classifier::classify_online(evidence);
        let (label, stage) = match verdict {
            Verdict::Human(_) | Verdict::Robot(_) => {
                (classifier::finalize(verdict).0, Stage::HardEvidence)
            }
            // Clean browser signal with no contradiction.
            Verdict::ProvisionalHuman(_) => (Label::Human, Stage::BrowserTest),
            // A long session that never touched any browser probe.
            Verdict::Undecided
                if !evidence.has(EvidenceKind::DownloadedJsFile)
                    && session.request_count() >= BROWSER_TEST_WINDOW =>
            {
                (Label::Robot, Stage::BrowserTest)
            }
            // JS without mouse, and a no-signal session that is short or
            // fetched the script file, are boundary cases.
            _ => match self.boundary.classify_session(session) {
                Some(label) => (label, Stage::MlBoundary),
                None => (classifier::finalize(verdict).0, Stage::Fallback),
            },
        };
        StagedDecision { label, stage }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request, Response, StatusCode};
    use botwall_sessions::{SessionTracker, SimTime, TrackerConfig};

    fn session(requests: u64) -> Session {
        let t = SessionTracker::new(TrackerConfig::default());
        let mut key = None;
        for i in 0..requests {
            let r = Request::builder(Method::Get, format!("http://h/{i}.html"))
                .header("User-Agent", "x")
                .client(ClientIp::new(1))
                .build()
                .unwrap();
            key = Some(t.observe(&r, &Response::empty(StatusCode::OK), SimTime::from_secs(i)));
        }
        t.get(&key.unwrap()).unwrap().clone()
    }

    fn ev(kinds: &[EvidenceKind]) -> EvidenceSet {
        let mut e = EvidenceSet::new();
        for (i, k) in kinds.iter().enumerate() {
            e.record(*k, (i + 1) as u32, SimTime::ZERO);
        }
        e
    }

    #[test]
    fn hard_evidence_short_circuits() {
        let p = StagedPipeline::new(NoBoundary);
        let d = p.decide(&session(5), &ev(&[EvidenceKind::HiddenLinkFollowed]));
        assert_eq!(d.stage, Stage::HardEvidence);
        assert_eq!(d.label, Label::Robot);
        let d = p.decide(&session(5), &ev(&[EvidenceKind::MouseEvent]));
        assert_eq!(d.label, Label::Human);
    }

    #[test]
    fn browser_test_decides_css_sessions() {
        let p = StagedPipeline::new(NoBoundary);
        let d = p.decide(&session(8), &ev(&[EvidenceKind::DownloadedCss]));
        assert_eq!(d.stage, Stage::BrowserTest);
        assert_eq!(d.label, Label::Human);
    }

    #[test]
    fn long_signalless_sessions_are_robots_via_browser_test() {
        let p = StagedPipeline::new(NoBoundary);
        let d = p.decide(&session(25), &EvidenceSet::new());
        assert_eq!(d.stage, Stage::BrowserTest);
        assert_eq!(d.label, Label::Robot);
    }

    #[test]
    fn the_browser_test_window_is_nineteen_requests() {
        let p = StagedPipeline::new(NoBoundary);
        let d = p.decide(&session(18), &EvidenceSet::new());
        assert_eq!(d.stage, Stage::Fallback);
        let d = p.decide(&session(19), &EvidenceSet::new());
        assert_eq!((d.stage, d.label), (Stage::BrowserTest, Label::Robot));
    }

    #[test]
    fn short_signalless_sessions_fall_through() {
        let p = StagedPipeline::new(NoBoundary);
        let d = p.decide(&session(5), &EvidenceSet::new());
        assert_eq!(d.stage, Stage::Fallback);
    }

    #[test]
    fn boundary_classifier_gets_js_without_mouse() {
        // An ML stage that labels everything human, to prove it is
        // consulted for the boundary case.
        let ml = |_: &Session| Some(Label::Human);
        let p = StagedPipeline::new(ml);
        let d = p.decide(
            &session(30),
            &ev(&[EvidenceKind::DownloadedCss, EvidenceKind::ExecutedJs]),
        );
        assert_eq!(d.stage, Stage::MlBoundary);
        assert_eq!(d.label, Label::Human);
    }

    #[test]
    fn abstaining_ml_falls_back_to_set_algebra() {
        let p = StagedPipeline::new(NoBoundary);
        let e = ev(&[EvidenceKind::DownloadedCss, EvidenceKind::ExecutedJs]);
        let d = p.decide(&session(30), &e);
        assert_eq!(d.stage, Stage::Fallback);
        // Set algebra: JS without mouse ⇒ robot.
        assert_eq!(d.label, Label::Robot);
    }

    #[test]
    fn a_script_fetch_keeps_a_long_signalless_session_a_boundary_case() {
        // Fetching the .js file is not a browser signal, yet the browser
        // test does not convict on its absence either: the ML stage decides.
        let e = ev(&[EvidenceKind::DownloadedJsFile]);
        let ml = |_: &Session| Some(Label::Human);
        let d = StagedPipeline::new(ml).decide(&session(30), &e);
        assert_eq!((d.stage, d.label), (Stage::MlBoundary, Label::Human));
        let d = StagedPipeline::new(NoBoundary).decide(&session(30), &e);
        assert_eq!((d.stage, d.label), (Stage::Fallback, Label::Robot));
    }
}
