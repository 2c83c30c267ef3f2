//! The set-algebra classifier (§3.1).
//!
//! The paper computes the human session set as
//!
//! ```text
//! S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM)
//! ```
//!
//! sessions that downloaded the CSS probe or produced a mouse event, minus
//! sessions that executed JavaScript yet never produced a mouse event
//! (those are definitely robots: the script ran, no human was at the
//! controls). Hard evidence — decoy fetches, replays, hidden-link
//! follows, browser-type mismatches — short-circuits to Robot; a valid
//! mouse event or CAPTCHA pass short-circuits to Human.

use crate::evidence::{EvidenceKind, EvidenceSet};

/// Requests a session must exceed to be classified at all: the paper's
/// noise rule counts only sessions of more than 10 requests (§3.1).
/// The online fast path waits as long before it leans robot on the
/// absence of browser signals.
pub(crate) const MIN_REQUESTS_TO_CLASSIFY: u64 = 10;

/// A final binary label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Traffic judged human-originated.
    Human,
    /// Traffic judged robot-originated.
    Robot,
}

/// Why a verdict was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reason {
    /// Valid mouse-event beacon: human activity detected (§2.1).
    MouseActivity,
    /// CAPTCHA solved (ground truth).
    CaptchaPassed,
    /// CSS probe downloaded and no JS-without-mouse contradiction: the
    /// browser test passed (§2.2).
    BrowserTestPassed,
    /// Executed JavaScript but never produced a mouse event
    /// (`S_JS − S_MM`).
    JsWithoutMouse,
    /// Fetched a decoy beacon.
    DecoyFetched,
    /// Replayed or forged a beacon key.
    BeaconAbuse,
    /// Followed the hidden link.
    HiddenLink,
    /// JavaScript-reported agent contradicts the User-Agent header.
    BrowserTypeMismatch,
    /// The executing script leaked an automation-framework signal
    /// (`navigator.webdriver` set, or a headless-shaped plugin list).
    AutomationLeak,
    /// No positive browser/human evidence appeared at all.
    NoBrowserSignals,
}

/// An online verdict: confidence grows as evidence accumulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not enough evidence either way.
    Undecided,
    /// Tentatively human (browser test passed; may be overturned by the
    /// JS-without-mouse rule or hard robot evidence).
    ProvisionalHuman(Reason),
    /// Tentatively robot (e.g. JS executed, no mouse yet; a later mouse
    /// event overturns this).
    ProvisionalRobot(Reason),
    /// Definitely human.
    Human(Reason),
    /// Definitely robot.
    Robot(Reason),
}

impl Verdict {
    /// Collapses the verdict to a label, treating provisional states as
    /// their tendency and `Undecided` as robot-leaning only when asked to
    /// default that way.
    pub fn label(self, undecided_default: Label) -> Label {
        match self {
            Verdict::Human(_) | Verdict::ProvisionalHuman(_) => Label::Human,
            Verdict::Robot(_) | Verdict::ProvisionalRobot(_) => Label::Robot,
            Verdict::Undecided => undecided_default,
        }
    }

    /// Whether the verdict is final (will not change with more evidence of
    /// the kinds already seen).
    pub fn is_final(self) -> bool {
        matches!(self, Verdict::Human(_) | Verdict::Robot(_))
    }
}

/// Applies the paper's set-algebra formula to a finished session.
///
/// # Examples
///
/// ```
/// use botwall_core::classifier::{classify_final, Label};
/// use botwall_core::evidence::{EvidenceKind, EvidenceSet};
/// use botwall_sessions::SimTime;
///
/// // Downloaded CSS, executed JS, no mouse: S_JS − S_MM ⇒ robot.
/// let mut e = EvidenceSet::new();
/// e.record(EvidenceKind::DownloadedCss, 2, SimTime::ZERO);
/// e.record(EvidenceKind::ExecutedJs, 3, SimTime::ZERO);
/// assert_eq!(classify_final(&e), Label::Robot);
/// ```
pub fn classify_final(evidence: &EvidenceSet) -> Label {
    // Hard evidence dominates in either direction; mouse events win over
    // robot evidence only if no robot tell is present (a session that both
    // fetched decoys and produced mouse events is a robot mimicking).
    if evidence.any_hard_robot() {
        return Label::Robot;
    }
    if evidence.any_hard_human() {
        return Label::Human;
    }
    let css = evidence.has(EvidenceKind::DownloadedCss);
    let mm = evidence.has(EvidenceKind::MouseEvent);
    let js = evidence.has(EvidenceKind::ExecutedJs);
    // S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM).
    let in_union = css || mm;
    let in_subtrahend = js && !mm;
    if in_union && !in_subtrahend {
        Label::Human
    } else {
        Label::Robot
    }
}

/// Folds only *hard* evidence into a verdict: the quick-decision stage a
/// streaming detector can afford on every exchange. Returns `None` when
/// no hard evidence is present — soft signals (CSS, JS) are left for the
/// batch set-algebra pass at session flush.
pub fn classify_hard(evidence: &EvidenceSet) -> Option<Verdict> {
    // Hard robot evidence is never overturned.
    if evidence.has(EvidenceKind::FetchedDecoy) {
        return Some(Verdict::Robot(Reason::DecoyFetched));
    }
    if evidence.has(EvidenceKind::ReplayedBeacon) || evidence.has(EvidenceKind::ForgedBeacon) {
        return Some(Verdict::Robot(Reason::BeaconAbuse));
    }
    if evidence.has(EvidenceKind::HiddenLinkFollowed) {
        return Some(Verdict::Robot(Reason::HiddenLink));
    }
    if evidence.has(EvidenceKind::UaMismatch) {
        return Some(Verdict::Robot(Reason::BrowserTypeMismatch));
    }
    if evidence.has(EvidenceKind::AutomationFlag) || evidence.has(EvidenceKind::HeadlessFingerprint)
    {
        return Some(Verdict::Robot(Reason::AutomationLeak));
    }
    // Hard human evidence.
    if evidence.has(EvidenceKind::MouseEvent) {
        return Some(Verdict::Human(Reason::MouseActivity));
    }
    if evidence.has(EvidenceKind::PassedCaptcha) {
        return Some(Verdict::Human(Reason::CaptchaPassed));
    }
    None
}

/// Produces the full verdict for a session: hard evidence first, then the
/// soft browser-test signals. This is the batch form the detector applies
/// at session flush boundaries.
pub fn classify_online(evidence: &EvidenceSet) -> Verdict {
    if let Some(v) = classify_hard(evidence) {
        return v;
    }
    // Soft signals.
    let css = evidence.has(EvidenceKind::DownloadedCss);
    let js = evidence.has(EvidenceKind::ExecutedJs);
    match (css, js) {
        // JS ran but no mouse (yet): robot-leaning — the longer this
        // holds, the stronger it gets; finalized by classify_final.
        (_, true) => Verdict::ProvisionalRobot(Reason::JsWithoutMouse),
        (true, false) => Verdict::ProvisionalHuman(Reason::BrowserTestPassed),
        (false, false) => Verdict::Undecided,
    }
}

/// Labels an undecided finished session: no browser signals at all means
/// robot (crawlers fetching only HTML never trip any probe).
pub fn finalize(verdict: Verdict) -> (Label, Reason) {
    match verdict {
        Verdict::Human(r) => (Label::Human, r),
        Verdict::ProvisionalHuman(r) => (Label::Human, r),
        Verdict::Robot(r) => (Label::Robot, r),
        Verdict::ProvisionalRobot(r) => (Label::Robot, r),
        Verdict::Undecided => (Label::Robot, Reason::NoBrowserSignals),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_sessions::SimTime;

    fn ev(kinds: &[EvidenceKind]) -> EvidenceSet {
        let mut e = EvidenceSet::new();
        for (i, k) in kinds.iter().enumerate() {
            e.record(*k, (i + 1) as u32, SimTime::ZERO);
        }
        e
    }

    #[test]
    fn set_algebra_truth_table() {
        use EvidenceKind::*;
        // (css, mm, js) -> expected
        let cases = [
            (false, false, false, Label::Robot), // nothing: robot
            (true, false, false, Label::Human),  // css only
            (false, true, false, Label::Human),  // mouse only
            (false, false, true, Label::Robot),  // js only: JS-no-mouse
            (true, true, false, Label::Human),
            (true, false, true, Label::Robot), // css + js, no mouse
            (false, true, true, Label::Human), // js + mouse
            (true, true, true, Label::Human),
        ];
        for (css, mm, js, expected) in cases {
            let mut kinds = Vec::new();
            if css {
                kinds.push(DownloadedCss);
            }
            if mm {
                kinds.push(MouseEvent);
            }
            if js {
                kinds.push(ExecutedJs);
            }
            assert_eq!(
                classify_final(&ev(&kinds)),
                expected,
                "css={css} mm={mm} js={js}"
            );
        }
    }

    #[test]
    fn hard_robot_evidence_beats_mouse() {
        use EvidenceKind::*;
        // A bot that fakes mouse events but also fetched a decoy.
        let e = ev(&[MouseEvent, FetchedDecoy]);
        assert_eq!(classify_final(&e), Label::Robot);
        assert_eq!(classify_online(&e), Verdict::Robot(Reason::DecoyFetched));
    }

    #[test]
    fn captcha_pass_is_human() {
        use EvidenceKind::*;
        let e = ev(&[PassedCaptcha]);
        assert_eq!(classify_final(&e), Label::Human);
        assert_eq!(classify_online(&e), Verdict::Human(Reason::CaptchaPassed));
    }

    #[test]
    fn classify_hard_ignores_soft_signals() {
        use EvidenceKind::*;
        assert_eq!(classify_hard(&ev(&[])), None);
        assert_eq!(classify_hard(&ev(&[DownloadedCss, ExecutedJs])), None);
        assert_eq!(
            classify_hard(&ev(&[DownloadedCss, FetchedDecoy])),
            Some(Verdict::Robot(Reason::DecoyFetched))
        );
        assert_eq!(
            classify_hard(&ev(&[MouseEvent])),
            Some(Verdict::Human(Reason::MouseActivity))
        );
        // classify_online agrees wherever classify_hard decides.
        for kinds in [
            vec![FetchedDecoy],
            vec![ReplayedBeacon],
            vec![HiddenLinkFollowed],
            vec![UaMismatch],
            vec![AutomationFlag],
            vec![HeadlessFingerprint],
            vec![MouseEvent],
            vec![PassedCaptcha],
            vec![DownloadedCss, HiddenLinkFollowed, MouseEvent],
        ] {
            let e = ev(&kinds);
            assert_eq!(classify_hard(&e), Some(classify_online(&e)), "{kinds:?}");
        }
    }

    #[test]
    fn automation_leak_beats_synthesized_mouse_entropy() {
        use EvidenceKind::*;
        // A headless imitator that redeems a mouse beacon but admits
        // `navigator.webdriver` is still a robot.
        let e = ev(&[DownloadedCss, ExecutedJs, MouseEvent, AutomationFlag]);
        assert_eq!(classify_final(&e), Label::Robot);
        assert_eq!(classify_online(&e), Verdict::Robot(Reason::AutomationLeak));
        let e = ev(&[MouseEvent, HeadlessFingerprint]);
        assert_eq!(classify_final(&e), Label::Robot);
        assert_eq!(classify_online(&e), Verdict::Robot(Reason::AutomationLeak));
    }

    #[test]
    fn online_progression_browser_then_human() {
        use EvidenceKind::*;
        let mut e = EvidenceSet::new();
        assert_eq!(classify_online(&e), Verdict::Undecided);
        e.record(DownloadedCss, 4, SimTime::ZERO);
        assert_eq!(
            classify_online(&e),
            Verdict::ProvisionalHuman(Reason::BrowserTestPassed)
        );
        e.record(ExecutedJs, 6, SimTime::ZERO);
        assert_eq!(
            classify_online(&e),
            Verdict::ProvisionalRobot(Reason::JsWithoutMouse)
        );
        e.record(MouseEvent, 9, SimTime::ZERO);
        assert_eq!(classify_online(&e), Verdict::Human(Reason::MouseActivity));
    }

    #[test]
    fn finalize_defaults_undecided_to_robot() {
        assert_eq!(
            finalize(Verdict::Undecided),
            (Label::Robot, Reason::NoBrowserSignals)
        );
        assert_eq!(
            finalize(Verdict::ProvisionalHuman(Reason::BrowserTestPassed)),
            (Label::Human, Reason::BrowserTestPassed)
        );
        assert_eq!(
            finalize(Verdict::ProvisionalRobot(Reason::JsWithoutMouse)),
            (Label::Robot, Reason::JsWithoutMouse)
        );
    }

    #[test]
    fn online_and_final_agree_on_finished_sessions() {
        use EvidenceKind::*;
        // For every subset of soft+hard signals, finalize(online) must
        // equal classify_final.
        let all = [
            DownloadedCss,
            DownloadedJsFile,
            ExecutedJs,
            MouseEvent,
            FetchedDecoy,
            HiddenLinkFollowed,
            UaMismatch,
            PassedCaptcha,
            AutomationFlag,
            HeadlessFingerprint,
        ];
        for mask in 0u32..(1 << all.len()) {
            let kinds: Vec<EvidenceKind> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, k)| *k)
                .collect();
            let e = ev(&kinds);
            let (label, _) = finalize(classify_online(&e));
            assert_eq!(label, classify_final(&e), "disagreement on {kinds:?}");
        }
    }

    #[test]
    fn verdict_label_collapse() {
        assert_eq!(Verdict::Undecided.label(Label::Robot), Label::Robot);
        assert_eq!(Verdict::Undecided.label(Label::Human), Label::Human);
        assert_eq!(
            Verdict::ProvisionalHuman(Reason::BrowserTestPassed).label(Label::Robot),
            Label::Human
        );
        assert!(Verdict::Human(Reason::MouseActivity).is_final());
        assert!(!Verdict::ProvisionalRobot(Reason::JsWithoutMouse).is_final());
    }
}
