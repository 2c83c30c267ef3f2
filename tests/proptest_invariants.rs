//! Cross-crate property tests on the detection invariants.

use botwall::detect::classifier::{classify_online, finalize, Label};
use botwall::detect::report::RequestCdf;
use botwall::detect::{EvidenceKind, EvidenceSet};
use botwall::instrument::beacon;
use botwall::instrument::token::{BeaconKey, KeyOutcome, TokenState};
use botwall::sessions::SimTime;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = EvidenceKind> {
    prop_oneof![
        Just(EvidenceKind::DownloadedCss),
        Just(EvidenceKind::DownloadedJsFile),
        Just(EvidenceKind::ExecutedJs),
        Just(EvidenceKind::MouseEvent),
        Just(EvidenceKind::FetchedDecoy),
        Just(EvidenceKind::ReplayedBeacon),
        Just(EvidenceKind::ForgedBeacon),
        Just(EvidenceKind::HiddenLinkFollowed),
        Just(EvidenceKind::UaMismatch),
        Just(EvidenceKind::AutomationFlag),
        Just(EvidenceKind::HeadlessFingerprint),
        Just(EvidenceKind::PassedCaptcha),
    ]
}

proptest! {
    /// Evidence order never changes the verdict, reason included (set
    /// semantics).
    #[test]
    fn evidence_order_is_irrelevant(kinds in proptest::collection::vec(arb_kind(), 0..12)) {
        let mut forward = EvidenceSet::new();
        for (i, k) in kinds.iter().enumerate() {
            forward.record(*k, i as u32 + 1, SimTime::ZERO);
        }
        let mut backward = EvidenceSet::new();
        for (i, k) in kinds.iter().rev().enumerate() {
            backward.record(*k, i as u32 + 1, SimTime::ZERO);
        }
        prop_assert_eq!(classify_online(&forward), classify_online(&backward));
    }

    /// Hard robot evidence forces Robot regardless of anything else.
    #[test]
    fn hard_robot_evidence_dominates(kinds in proptest::collection::vec(arb_kind(), 0..12)) {
        let mut e = EvidenceSet::new();
        e.record(EvidenceKind::HiddenLinkFollowed, 1, SimTime::ZERO);
        for (i, k) in kinds.iter().enumerate() {
            e.record(*k, i as u32 + 2, SimTime::ZERO);
        }
        prop_assert_eq!(finalize(classify_online(&e)).0, Label::Robot);
    }

    /// A session's token state never validates a key it did not issue,
    /// and never validates the same key twice.
    #[test]
    fn token_table_soundness(
        issued in proptest::collection::vec(any::<u128>(), 1..20),
        probes in proptest::collection::vec(any::<u128>(), 0..40),
    ) {
        let mut tokens = TokenState::default();
        for (i, k) in issued.iter().enumerate() {
            tokens.issue(format!("/p{i}"), BeaconKey::from_raw(*k), vec![], None, SimTime::ZERO, 64);
        }
        let mut redeemed = std::collections::HashSet::new();
        for p in &probes {
            let outcome = tokens.redeem(BeaconKey::from_raw(*p), SimTime::ZERO);
            match outcome {
                KeyOutcome::Valid => {
                    prop_assert!(issued.contains(p), "validated unissued key");
                    prop_assert!(redeemed.insert(*p), "validated a key twice");
                }
                KeyOutcome::Replay => {
                    prop_assert!(redeemed.contains(p), "replay without prior redemption");
                }
                KeyOutcome::Decoy | KeyOutcome::Unknown => {}
            }
        }
    }

    /// Beacon encode/decode roundtrips for every key and host.
    #[test]
    fn beacon_codec_roundtrip(key in any::<u128>(), host in "[a-z]{1,12}\\.[a-z]{2,4}") {
        let url = beacon::encode(&host, BeaconKey::from_raw(key));
        prop_assert_eq!(beacon::decode(&url), Some(BeaconKey::from_raw(key)));
    }

    /// Request CDFs are monotone and bounded in [0, 1], and quantiles are
    /// consistent with fractions.
    #[test]
    fn cdf_invariants(values in proptest::collection::vec(0u32..500, 1..100)) {
        let cdf = RequestCdf::new(values.clone());
        let mut prev = 0.0;
        for x in (0..500).step_by(13) {
            let f = cdf.fraction_at(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        for q in [0.1, 0.5, 0.9, 1.0] {
            let v = cdf.quantile(q).unwrap();
            // At least a q-fraction of observations are ≤ the q-quantile.
            prop_assert!(cdf.fraction_at(v) >= q - 1e-9);
        }
    }

    /// The decoy catch probability is monotone in m and bounded by 1.
    #[test]
    fn decoy_probability_monotone(m in 0usize..1000) {
        let p = beacon::blind_catch_probability(m);
        let p_next = beacon::blind_catch_probability(m + 1);
        prop_assert!((0.0..1.0).contains(&p));
        prop_assert!(p_next > p || m == 0 && p == 0.0 && p_next > 0.0);
    }
}
