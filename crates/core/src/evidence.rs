//! Per-session evidence accumulation.
//!
//! Every detection signal the paper uses is an *evidence kind*; the
//! detector records the first occurrence of each kind together with the
//! request index at which it arrived — that index is exactly what
//! Figure 2 plots ("number of requests required to detect").

use botwall_sessions::SimTime;

/// A detection signal observed within a session. Which kinds are hard,
/// and what each decides, is [`crate::classifier::classify_hard`]'s table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvidenceKind {
    /// Fetched the injected empty CSS probe (standard-browser behaviour).
    DownloadedCss,
    /// Fetched the injected external JavaScript file.
    DownloadedJsFile,
    /// Fired the agent beacon — proves JavaScript execution.
    ExecutedJs,
    /// Redeemed a valid mouse-event beacon key — proves human activity.
    MouseEvent,
    /// Fetched one of the decoy beacon URLs — a blind robot.
    FetchedDecoy,
    /// Presented an already-redeemed beacon key — a replay attack.
    ReplayedBeacon,
    /// Presented a beacon-shaped key never issued to this client — key
    /// guessing or cross-client theft.
    ForgedBeacon,
    /// Followed the hidden link humans cannot see.
    HiddenLinkFollowed,
    /// The JavaScript-reported agent string contradicts the User-Agent
    /// header (browser type mismatch, Table 1).
    UaMismatch,
    /// Passed a CAPTCHA challenge (ground-truth human, §3.1).
    PassedCaptcha,
    /// The executing script admitted automation control
    /// (`navigator.webdriver` was truthy) — the flag WebDriver-compliant
    /// frameworks must raise and naive headless drivers forget to hide.
    AutomationFlag,
    /// The executing script reported a headless-shaped environment (an
    /// empty `navigator.plugins` array), the classic headless-browser
    /// fingerprint real desktop browsers of the era never exhibit.
    HeadlessFingerprint,
}

impl EvidenceKind {
    /// Every kind, in declaration order — the bit positions of
    /// [`EvidenceKinds`] and the recording order when a carried set is
    /// folded back into an [`EvidenceSet`].
    pub const ALL: [EvidenceKind; 12] = [
        EvidenceKind::DownloadedCss,
        EvidenceKind::DownloadedJsFile,
        EvidenceKind::ExecutedJs,
        EvidenceKind::MouseEvent,
        EvidenceKind::FetchedDecoy,
        EvidenceKind::ReplayedBeacon,
        EvidenceKind::ForgedBeacon,
        EvidenceKind::HiddenLinkFollowed,
        EvidenceKind::UaMismatch,
        EvidenceKind::PassedCaptcha,
        EvidenceKind::AutomationFlag,
        EvidenceKind::HeadlessFingerprint,
    ];
}

/// A compact set of evidence *kinds* — no observation indices or
/// timestamps, just which signals fired. `Copy` and two bytes wide, so
/// it can ride the detector's deferred-carry payload when a leased
/// exchange outlives its session incarnation: the kinds survive the
/// eviction and fold into the successor's [`EvidenceSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvidenceKinds(u16);

impl EvidenceKinds {
    /// The empty set.
    pub const EMPTY: EvidenceKinds = EvidenceKinds(0);

    /// Adds one kind (idempotent).
    pub fn insert(&mut self, kind: EvidenceKind) {
        self.0 |= 1 << kind as u16;
    }

    /// Whether `kind` is in the set.
    pub fn contains(self, kind: EvidenceKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }

    /// Unions `other` into this set.
    pub fn merge(&mut self, other: EvidenceKinds) {
        self.0 |= other.0;
    }

    /// Whether no kind is set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The kinds present, in declaration order.
    pub fn iter(self) -> impl Iterator<Item = EvidenceKind> {
        EvidenceKind::ALL
            .into_iter()
            .filter(move |&kind| self.contains(kind))
    }
}

/// First observation of one evidence kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// 1-based request index within the session when first observed.
    pub at_request: u32,
    /// Simulated time when first observed.
    pub at_time: SimTime,
}

/// The set of evidence collected for one session.
///
/// Only the *first* observation per kind is retained (Figure 2 needs
/// first-detection indices) along with a per-kind count; the verdict it
/// implies is [`crate::classifier`]'s to decide.
///
/// # Examples
///
/// ```
/// use botwall_core::evidence::{EvidenceKind, EvidenceSet};
/// use botwall_sessions::SimTime;
///
/// let mut e = EvidenceSet::new();
/// e.record(EvidenceKind::DownloadedCss, 3, SimTime::from_secs(1));
/// e.record(EvidenceKind::DownloadedCss, 9, SimTime::from_secs(2));
/// assert_eq!(e.first(EvidenceKind::DownloadedCss).unwrap().at_request, 3);
/// assert_eq!(e.count(EvidenceKind::DownloadedCss), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvidenceSet {
    entries: Vec<(EvidenceKind, Observation, u32)>,
}

impl EvidenceSet {
    /// Creates an empty set.
    pub fn new() -> EvidenceSet {
        EvidenceSet::default()
    }

    /// Records an observation of `kind` at request `index`. The count
    /// saturates at `u32::MAX`.
    pub fn record(&mut self, kind: EvidenceKind, index: u32, time: SimTime) {
        for (k, _, count) in self.entries.iter_mut() {
            if *k == kind {
                *count = count.saturating_add(1);
                return;
            }
        }
        botwall_sessions::reserve_one(&mut self.entries);
        self.entries.push((
            kind,
            Observation {
                at_request: index,
                at_time: time,
            },
            1,
        ));
    }

    /// Whether `kind` has been observed.
    pub fn has(&self, kind: EvidenceKind) -> bool {
        self.entries.iter().any(|(k, _, _)| *k == kind)
    }

    /// First observation of `kind`, if any.
    pub fn first(&self, kind: EvidenceKind) -> Option<Observation> {
        self.entries
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|(_, o, _)| *o)
    }

    /// How many times `kind` was observed.
    pub fn count(&self, kind: EvidenceKind) -> u32 {
        self.entries
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map(|(_, _, c)| *c)
            .unwrap_or(0)
    }

    /// Iterates `(kind, first observation, count)`.
    pub fn iter(&self) -> impl Iterator<Item = (EvidenceKind, Observation, u32)> + '_ {
        self.entries.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_occurrence_is_kept() {
        let mut e = EvidenceSet::new();
        e.record(EvidenceKind::MouseEvent, 17, SimTime::from_secs(5));
        e.record(EvidenceKind::MouseEvent, 40, SimTime::from_secs(9));
        let o = e.first(EvidenceKind::MouseEvent).unwrap();
        assert_eq!(o.at_request, 17);
        assert_eq!(o.at_time, SimTime::from_secs(5));
        assert_eq!(e.count(EvidenceKind::MouseEvent), 2);
    }

    #[test]
    fn an_evidence_count_saturates() {
        let mut e = EvidenceSet::new();
        e.record(EvidenceKind::DownloadedCss, 1, SimTime::ZERO);
        e.entries[0].2 = u32::MAX - 1;
        for index in 2..5 {
            e.record(EvidenceKind::DownloadedCss, index, SimTime::ZERO);
        }
        assert_eq!(e.count(EvidenceKind::DownloadedCss), u32::MAX);
        assert_eq!(e.first(EvidenceKind::DownloadedCss).unwrap().at_request, 1);
    }

    #[test]
    fn the_first_kind_takes_one_slot() {
        let mut e = EvidenceSet::new();
        e.record(EvidenceKind::DownloadedCss, 1, SimTime::ZERO);
        assert_eq!(e.entries.capacity(), 1);
        e.record(EvidenceKind::DownloadedCss, 2, SimTime::ZERO);
        assert_eq!(e.entries.capacity(), 1, "a repeat kind adds no slot");
    }

    #[test]
    fn absent_kind() {
        let e = EvidenceSet::new();
        assert!(!e.has(EvidenceKind::DownloadedCss));
        assert_eq!(e.first(EvidenceKind::DownloadedCss), None);
        assert_eq!(e.count(EvidenceKind::DownloadedCss), 0);
    }
}
