//! Per-session evidence accumulation.
//!
//! Every detection signal the paper uses is an *evidence kind*; the
//! detector records the first occurrence of each kind together with the
//! request index at which it arrived — that index is exactly what
//! Figure 2 plots ("number of requests required to detect").

use botwall_sessions::SimTime;
use std::fmt;

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
/// implies is [`crate::classifier`]'s to decide. Entries keep the order
/// their kinds were first seen in.
///
/// Most sessions see one kind or none (a stranger replaying a CSS
/// probe), so the first entry is kept inline, in the 24 bytes a `Vec`
/// takes, and a set of one kind holds no heap block. The second kind
/// spills both into a vector, which grows as `Vec` does (4 → 8 → 16).
/// The inline entry packs its kind into its count's top byte, so it
/// also spills before its count would reach 2^24; a count keeps
/// saturating at `u32::MAX`.
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
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EvidenceSet {
    entries: Entries,
}

/// One entry: a kind, its first observation and its count.
type Entry = (EvidenceKind, Observation, u32);

/// Bits of an inline entry's count; the kind is the byte above them.
const COUNT_BITS: u32 = 24;

/// The largest count an inline entry holds.
const INLINE_COUNT_MAX: u32 = (1 << COUNT_BITS) - 1;

/// A set's one representation: an inline entry iff the set holds one
/// kind whose count is at most [`INLINE_COUNT_MAX`], so `==` compares
/// values.
#[derive(Clone, Default, PartialEq, Eq)]
enum Entries {
    #[default]
    Empty,
    /// The observation's fields, flat (an [`Observation`] has four
    /// bytes of padding), and `kind << COUNT_BITS | count`.
    One {
        at_time: SimTime,
        at_request: u32,
        kind_count: u32,
    },
    Many(Vec<Entry>),
}

impl EvidenceSet {
    /// Creates an empty set.
    pub fn new() -> EvidenceSet {
        EvidenceSet::default()
    }

    /// Records an observation of `kind` at request `index`. The count
    /// saturates at `u32::MAX`.
    pub fn record(&mut self, kind: EvidenceKind, index: u32, time: SimTime) {
        match &mut self.entries {
            Entries::Empty => {
                self.entries = Entries::One {
                    at_time: time,
                    at_request: index,
                    kind_count: ((kind as u32) << COUNT_BITS) | 1,
                }
            }
            Entries::One { kind_count, .. }
                if *kind_count >> COUNT_BITS == kind as u32
                    && *kind_count & INLINE_COUNT_MAX < INLINE_COUNT_MAX =>
            {
                *kind_count += 1
            }
            // A second kind, or a count the inline entry cannot hold:
            // spill, then record there.
            Entries::One { .. } => {
                let mut entries = Vec::new();
                entries.extend(self.iter());
                self.entries = Entries::Many(entries);
                self.record(kind, index, time);
            }
            Entries::Many(entries) => match entries.iter_mut().find(|(k, _, _)| *k == kind) {
                Some((_, _, count)) => *count = count.saturating_add(1),
                None => entries.push((
                    kind,
                    Observation {
                        at_request: index,
                        at_time: time,
                    },
                    1,
                )),
            },
        }
    }

    /// Whether `kind` has been observed.
    pub fn has(&self, kind: EvidenceKind) -> bool {
        self.find(kind).is_some()
    }

    /// First observation of `kind`, if any.
    pub fn first(&self, kind: EvidenceKind) -> Option<Observation> {
        self.find(kind).map(|(_, o, _)| o)
    }

    /// How many times `kind` was observed.
    pub fn count(&self, kind: EvidenceKind) -> u32 {
        self.find(kind).map_or(0, |(_, _, c)| c)
    }

    /// Iterates `(kind, first observation, count)`, in the order the
    /// kinds were first seen.
    pub fn iter(&self) -> impl Iterator<Item = (EvidenceKind, Observation, u32)> + '_ {
        let (inline, spilled) = match &self.entries {
            Entries::Empty => (None, &[][..]),
            &Entries::One {
                at_time,
                at_request,
                kind_count,
            } => {
                let kind = EvidenceKind::ALL[(kind_count >> COUNT_BITS) as usize];
                let first = Observation {
                    at_request,
                    at_time,
                };
                (Some((kind, first, kind_count & INLINE_COUNT_MAX)), &[][..])
            }
            Entries::Many(entries) => (None, &entries[..]),
        };
        inline.into_iter().chain(spilled.iter().copied())
    }

    fn find(&self, kind: EvidenceKind) -> Option<Entry> {
        self.iter().find(|(k, _, _)| *k == kind)
    }
}

/// Renders as a `Vec` of its entries would, whichever representation
/// holds them: the CoDeeN report's pinned digest reads this rendering.
impl fmt::Debug for EvidenceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvidenceSet")
            .field("entries", &self.iter().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The set as it was kept before its first entry went inline: the
    /// model the property holds it to, and the `Debug` it renders as.
    mod old {
        #[derive(Debug, Clone, Default, PartialEq)]
        pub struct EvidenceSet {
            pub entries: Vec<super::Entry>,
        }
    }

    impl old::EvidenceSet {
        fn record(&mut self, kind: EvidenceKind, index: u32, time: SimTime) {
            match self.entries.iter_mut().find(|(k, _, _)| *k == kind) {
                Some((_, _, count)) => *count = count.saturating_add(1),
                None => self.entries.push((
                    kind,
                    Observation {
                        at_request: index,
                        at_time: time,
                    },
                    1,
                )),
            }
        }
    }

    /// The one set that holds `entries`, built directly.
    fn from_entries(entries: &[Entry]) -> EvidenceSet {
        let entries = match *entries {
            [] => Entries::Empty,
            [(kind, first, count)] if count <= INLINE_COUNT_MAX => Entries::One {
                at_time: first.at_time,
                at_request: first.at_request,
                kind_count: ((kind as u32) << COUNT_BITS) | count,
            },
            _ => Entries::Many(entries.to_vec()),
        };
        EvidenceSet { entries }
    }

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
        let first = Observation {
            at_request: 1,
            at_time: SimTime::ZERO,
        };
        let mut e = from_entries(&[(EvidenceKind::DownloadedCss, first, u32::MAX - 1)]);
        for index in 2..5 {
            e.record(EvidenceKind::DownloadedCss, index, SimTime::ZERO);
        }
        assert_eq!(e.count(EvidenceKind::DownloadedCss), u32::MAX);
        assert_eq!(e.first(EvidenceKind::DownloadedCss).unwrap().at_request, 1);
    }

    /// The first kind is the one inline slot, and a repeat of it stays
    /// there; a second kind spills both into a vector of `Vec`'s first
    /// size, four, so a longer list grows as `Vec` does.
    #[test]
    fn the_first_kind_takes_one_slot() {
        let mut e = EvidenceSet::new();
        e.record(EvidenceKind::DownloadedCss, 1, SimTime::ZERO);
        e.record(EvidenceKind::DownloadedCss, 2, SimTime::ZERO);
        assert!(
            matches!(e.entries, Entries::One { .. }),
            "a repeat kind adds no slot"
        );
        e.record(EvidenceKind::FetchedDecoy, 3, SimTime::ZERO);
        let Entries::Many(entries) = &e.entries else {
            panic!("a second kind spills: {e:?}");
        };
        assert_eq!((entries.len(), entries.capacity()), (2, 4));
    }

    #[test]
    fn an_inline_kind_is_read_back_as_itself() {
        for kind in EvidenceKind::ALL {
            let mut e = EvidenceSet::new();
            e.record(kind, 1, SimTime::ZERO);
            assert_eq!(e.iter().map(|(k, _, _)| k).collect::<Vec<_>>(), [kind]);
        }
    }

    #[test]
    fn absent_kind() {
        let e = EvidenceSet::new();
        assert!(!e.has(EvidenceKind::DownloadedCss));
        assert_eq!(e.first(EvidenceKind::DownloadedCss), None);
        assert_eq!(e.count(EvidenceKind::DownloadedCss), 0);
    }

    proptest! {
        /// Any sequence of records, from empty or from one kind whose
        /// count is small, at the inline limit or at `u32::MAX`, reads,
        /// iterates, compares and renders as the `Vec` of entries the
        /// set kept before: two sets are equal exactly when their models
        /// are, whichever way each was built. Most records repeat the
        /// starting kind, so a run crosses the inline limit before a
        /// second kind spills the set.
        #[test]
        fn the_evidence_set_behaves_as_its_entry_list(
            start in proptest::option::of(prop_oneof![
                1u32..4,
                INLINE_COUNT_MAX - 1..INLINE_COUNT_MAX + 2,
                u32::MAX - 2..=u32::MAX,
            ]),
            records in vec(
                (prop_oneof![Just(0usize), Just(0), 0usize..3, 0usize..12], 0u32..1_000, 0u64..10_000),
                0..40,
            ),
        ) {
            let mut model = old::EvidenceSet::default();
            if let Some(count) = start {
                let first = Observation { at_request: 0, at_time: SimTime::ZERO };
                model.entries.push((EvidenceKind::ALL[0], first, count));
            }
            let mut set = from_entries(&model.entries);
            let mut seen = Vec::new();
            for step in 0..=records.len() {
                if let Some(&(kind, index, ms)) = step.checked_sub(1).map(|at| &records[at]) {
                    let (kind, time) = (EvidenceKind::ALL[kind], SimTime::from_millis(ms));
                    set.record(kind, index, time);
                    model.record(kind, index, time);
                }
                for kind in EvidenceKind::ALL {
                    let entry = model.entries.iter().find(|(k, _, _)| *k == kind);
                    prop_assert_eq!(set.has(kind), entry.is_some());
                    prop_assert_eq!(set.first(kind), entry.map(|&(_, o, _)| o));
                    prop_assert_eq!(set.count(kind), entry.map_or(0, |&(_, _, c)| c));
                }
                prop_assert_eq!(set.iter().collect::<Vec<_>>(), model.entries.clone());
                prop_assert_eq!(format!("{set:?}"), format!("{model:?}"));
                prop_assert_eq!(format!("{set:#?}"), format!("{model:#?}"));
                seen.push((set.clone(), model.clone()));
            }
            for (a, model_a) in &seen {
                for (b, model_b) in &seen {
                    let same = model_a == model_b;
                    prop_assert_eq!(a == b, same);
                    prop_assert_eq!(*a == from_entries(&model_b.entries), same);
                }
            }
        }
    }
}
