//! The set-algebra classifier (§3.1): the one place a session's label
//! is decided.
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
//! controls). Hard evidence short-circuits the formula. A decoy fetch, a
//! replayed or forged beacon key, a hidden-link follow, a browser-type
//! mismatch, and an automation leak (`navigator.webdriver` set, or a
//! headless-shaped plugin list) each decide Robot; failing those, a valid
//! mouse event or a CAPTCHA pass decides Human. One private table lists
//! these kinds in that order; [`classify_hard`] and the detector both
//! read it.

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
    /// Whether the verdict is final (will not change with more evidence of
    /// the kinds already seen).
    pub fn is_final(self) -> bool {
        matches!(self, Verdict::Human(_) | Verdict::Robot(_))
    }
}

/// The hard evidence kinds and the verdict each decides on its own, in
/// precedence order: every robot tell before either human proof, so a
/// session that fetched a decoy and also redeemed a mouse beacon is a
/// robot mimicking a human. The one list of which kinds are hard.
#[rustfmt::skip]
const HARD: [(EvidenceKind, Verdict); 9] = [
    (EvidenceKind::FetchedDecoy, Verdict::Robot(Reason::DecoyFetched)),
    (EvidenceKind::ReplayedBeacon, Verdict::Robot(Reason::BeaconAbuse)),
    (EvidenceKind::ForgedBeacon, Verdict::Robot(Reason::BeaconAbuse)),
    (EvidenceKind::HiddenLinkFollowed, Verdict::Robot(Reason::HiddenLink)),
    (EvidenceKind::UaMismatch, Verdict::Robot(Reason::BrowserTypeMismatch)),
    (EvidenceKind::AutomationFlag, Verdict::Robot(Reason::AutomationLeak)),
    (EvidenceKind::HeadlessFingerprint, Verdict::Robot(Reason::AutomationLeak)),
    (EvidenceKind::MouseEvent, Verdict::Human(Reason::MouseActivity)),
    (EvidenceKind::PassedCaptcha, Verdict::Human(Reason::CaptchaPassed)),
];

/// Whether `kind` decides a verdict on its own (is listed in `HARD`).
pub(crate) fn is_hard(kind: EvidenceKind) -> bool {
    HARD.iter().any(|&(hard, _)| hard == kind)
}

/// Folds only *hard* evidence into a verdict: the quick-decision stage a
/// streaming detector can afford on every exchange. Returns `None` when
/// no hard evidence is present — soft signals (CSS, JS) are left for the
/// batch set-algebra pass at session flush.
pub fn classify_hard(evidence: &EvidenceSet) -> Option<Verdict> {
    HARD.iter()
        .find(|&&(kind, _)| evidence.has(kind))
        .map(|&(_, verdict)| verdict)
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
        // holds, the stronger it gets; a finished session keeps it.
        (_, true) => Verdict::ProvisionalRobot(Reason::JsWithoutMouse),
        (true, false) => Verdict::ProvisionalHuman(Reason::BrowserTestPassed),
        (false, false) => Verdict::Undecided,
    }
}

/// Labels a finished session, the one collapse of a [`Verdict`] to a
/// [`Label`]: a provisional verdict keeps its tendency, and no browser
/// signals at all means robot (crawlers fetching only HTML never trip
/// any probe).
///
/// # Examples
///
/// ```
/// use botwall_core::classifier::{classify_online, finalize, Label, Reason};
/// use botwall_core::evidence::{EvidenceKind, EvidenceSet};
/// use botwall_sessions::SimTime;
///
/// // Downloaded CSS, executed JS, no mouse: S_JS − S_MM ⇒ robot.
/// let mut e = EvidenceSet::new();
/// e.record(EvidenceKind::DownloadedCss, 2, SimTime::ZERO);
/// e.record(EvidenceKind::ExecutedJs, 3, SimTime::ZERO);
/// assert_eq!(
///     finalize(classify_online(&e)),
///     (Label::Robot, Reason::JsWithoutMouse)
/// );
/// ```
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

    /// A finished session's label.
    fn label(e: &EvidenceSet) -> Label {
        finalize(classify_online(e)).0
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
            assert_eq!(label(&ev(&kinds)), expected, "css={css} mm={mm} js={js}");
        }
    }

    #[test]
    fn hard_robot_evidence_beats_mouse() {
        use EvidenceKind::*;
        // A bot that fakes mouse events but also fetched a decoy.
        let e = ev(&[MouseEvent, FetchedDecoy]);
        assert_eq!(label(&e), Label::Robot);
        assert_eq!(classify_online(&e), Verdict::Robot(Reason::DecoyFetched));
    }

    #[test]
    fn captcha_pass_is_human() {
        use EvidenceKind::*;
        let e = ev(&[PassedCaptcha]);
        assert_eq!(label(&e), Label::Human);
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
    fn hard_evidence_partition() {
        use EvidenceKind::*;
        let robot = [
            (FetchedDecoy, Reason::DecoyFetched),
            (ReplayedBeacon, Reason::BeaconAbuse),
            (ForgedBeacon, Reason::BeaconAbuse),
            (HiddenLinkFollowed, Reason::HiddenLink),
            (UaMismatch, Reason::BrowserTypeMismatch),
            (AutomationFlag, Reason::AutomationLeak),
            (HeadlessFingerprint, Reason::AutomationLeak),
        ];
        for (kind, reason) in robot {
            assert_eq!(classify_hard(&ev(&[kind])), Some(Verdict::Robot(reason)));
            assert!(is_hard(kind), "{kind:?}");
        }
        for (kind, reason) in [
            (MouseEvent, Reason::MouseActivity),
            (PassedCaptcha, Reason::CaptchaPassed),
        ] {
            assert_eq!(classify_hard(&ev(&[kind])), Some(Verdict::Human(reason)));
            assert!(is_hard(kind), "{kind:?}");
        }
        // Soft signals are neither.
        for kind in [DownloadedCss, DownloadedJsFile, ExecutedJs] {
            assert_eq!(classify_hard(&ev(&[kind])), None, "{kind:?}");
            assert!(!is_hard(kind), "{kind:?}");
        }
    }

    #[test]
    fn hard_evidence_on_a_growing_set() {
        use EvidenceKind::*;
        let mut e = EvidenceSet::new();
        e.record(DownloadedCss, 1, SimTime::ZERO);
        assert_eq!(classify_hard(&e), None);
        e.record(MouseEvent, 2, SimTime::ZERO);
        assert_eq!(
            classify_hard(&e),
            Some(Verdict::Human(Reason::MouseActivity))
        );
        // A robot tell recorded later still outranks the human proof.
        e.record(FetchedDecoy, 3, SimTime::ZERO);
        assert_eq!(
            classify_hard(&e),
            Some(Verdict::Robot(Reason::DecoyFetched))
        );
    }

    #[test]
    fn automation_leak_beats_synthesized_mouse_entropy() {
        use EvidenceKind::*;
        // A headless imitator that redeems a mouse beacon but admits
        // `navigator.webdriver` is still a robot.
        let e = ev(&[DownloadedCss, ExecutedJs, MouseEvent, AutomationFlag]);
        assert_eq!(label(&e), Label::Robot);
        assert_eq!(classify_online(&e), Verdict::Robot(Reason::AutomationLeak));
        let e = ev(&[MouseEvent, HeadlessFingerprint]);
        assert_eq!(label(&e), Label::Robot);
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
        // The paper's rule, written out as the reference: any robot tell
        // decides Robot, else any human proof decides Human, else
        // S_H = (S_CSS ∪ S_MM) − (S_JS − S_MM).
        let robot_tells = [
            FetchedDecoy,
            ReplayedBeacon,
            ForgedBeacon,
            HiddenLinkFollowed,
            UaMismatch,
            AutomationFlag,
            HeadlessFingerprint,
        ];
        let human_proofs = [MouseEvent, PassedCaptcha];
        for mask in 0u32..(1 << EvidenceKind::ALL.len()) {
            let kinds: Vec<EvidenceKind> = EvidenceKind::ALL
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, k)| *k)
                .collect();
            let e = ev(&kinds);
            let robot_tell = robot_tells.iter().any(|&k| e.has(k));
            let human_proof = human_proofs.iter().any(|&k| e.has(k));
            let (css, mm, js) = (e.has(DownloadedCss), e.has(MouseEvent), e.has(ExecutedJs));
            // Deliberately non-minimal: the shape mirrors the formula.
            #[allow(clippy::nonminimal_bool)]
            let in_s_h = (css || mm) && !(js && !mm);
            let expected = if robot_tell {
                Label::Robot
            } else if human_proof || in_s_h {
                Label::Human
            } else {
                Label::Robot
            };
            assert_eq!(label(&e), expected, "disagreement on {kinds:?}");
            assert_eq!(
                classify_hard(&e).is_some(),
                robot_tell || human_proof,
                "hard evidence on {kinds:?}"
            );
        }
    }

    #[test]
    fn verdict_label_collapse() {
        // A definite verdict keeps its label and reason, and only a
        // definite verdict is final.
        assert_eq!(
            finalize(Verdict::Human(Reason::MouseActivity)),
            (Label::Human, Reason::MouseActivity)
        );
        assert_eq!(
            finalize(Verdict::Robot(Reason::HiddenLink)),
            (Label::Robot, Reason::HiddenLink)
        );
        assert!(Verdict::Human(Reason::MouseActivity).is_final());
        assert!(!Verdict::ProvisionalRobot(Reason::JsWithoutMouse).is_final());
    }
}
