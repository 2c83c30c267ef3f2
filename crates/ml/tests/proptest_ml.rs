//! Property tests for the learners.

use botwall_core::Label;
use botwall_http::{ContentClass, MethodKind};
use botwall_ml::features::{extract_prefix, make_record, Attribute, FeatureVector};
use botwall_ml::{AdaBoostConfig, AdaBoostModel, DecisionStump};
use proptest::prelude::*;

fn arb_samples() -> impl Strategy<Value = Vec<(FeatureVector, Label)>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0.0f64..1.0, 12),
            proptest::bool::ANY,
        )
            .prop_map(|(vals, robot)| {
                let mut x = FeatureVector::zero();
                x.0.copy_from_slice(&vals);
                (x, if robot { Label::Robot } else { Label::Human })
            }),
        2..60,
    )
}

proptest! {
    /// A trained stump's weighted error never exceeds 0.5 (predicting the
    /// weighted-majority class alone achieves that), and never beats 0.
    #[test]
    fn stump_error_is_bounded(samples in arb_samples()) {
        let weights = vec![1.0; samples.len()];
        let (_, err) = DecisionStump::train(&samples, &weights);
        prop_assert!((0.0..=0.5 + 1e-9).contains(&err), "err {err}");
    }

    /// The trained stump achieves exactly its reported error on the
    /// training set.
    #[test]
    fn stump_error_is_honest(samples in arb_samples()) {
        let weights = vec![1.0; samples.len()];
        let (stump, err) = DecisionStump::train(&samples, &weights);
        let misses = samples
            .iter()
            .filter(|(x, l)| stump.classify(x) != *l)
            .count() as f64
            / samples.len() as f64;
        prop_assert!((misses - err).abs() < 1e-9, "claimed {err}, actual {misses}");
    }

    /// AdaBoost's training accuracy is at least the best single stump's.
    #[test]
    fn boosting_no_worse_than_one_stump(samples in arb_samples()) {
        let weights = vec![1.0; samples.len()];
        let (stump, stump_err) = DecisionStump::train(&samples, &weights);
        let _ = stump;
        let model = AdaBoostModel::train(
            &samples,
            &AdaBoostConfig { rounds: 50 },
        );
        let model_err = 1.0 - model.accuracy(&samples);
        prop_assert!(
            model_err <= stump_err + 1e-9,
            "boosted {model_err} vs stump {stump_err}"
        );
    }

    /// Importance is a probability distribution over the 12 attributes.
    #[test]
    fn importance_is_a_distribution(samples in arb_samples()) {
        let model = AdaBoostModel::train(
            &samples,
            &AdaBoostConfig { rounds: 20 },
        );
        let imp = model.importance();
        prop_assert_eq!(imp.len(), 12);
        let sum: f64 = imp.iter().map(|(_, v)| v).sum();
        if model.is_empty() {
            prop_assert_eq!(sum, 0.0);
        } else {
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
        for (_, v) in imp {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&v));
        }
    }

    /// Feature extraction always lands in [0,1]^12 and prefix features of
    /// the full length equal full features.
    #[test]
    fn features_are_shares(
        classes in proptest::collection::vec(0u8..6, 1..80),
        cut in 1usize..200,
    ) {
        let records: Vec<_> = classes
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let class = match c {
                    0 => ContentClass::Html,
                    1 => ContentClass::Image,
                    2 => ContentClass::Css,
                    3 => ContentClass::Cgi,
                    4 => ContentClass::Favicon,
                    _ => ContentClass::Other,
                };
                make_record(MethodKind::Get, class, 2, i % 3 == 0, i % 6 == 0)
            })
            .collect();
        let fv = extract_prefix(&records, cut);
        for a in Attribute::ALL {
            prop_assert!((0.0..=1.0).contains(&fv.get(a)), "{} out of range", a.name());
        }
        let full = extract_prefix(&records, records.len());
        let beyond = extract_prefix(&records, records.len() + 50);
        prop_assert_eq!(full, beyond);
    }
}
