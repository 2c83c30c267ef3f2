//! Evaluation: confusion matrices and the Figure-4 checkpoint sweep.

use crate::adaboost::{AdaBoostConfig, AdaBoostModel};
use crate::dataset::Corpus;
use crate::features::FeatureVector;
use botwall_core::Label;
use std::fmt;

/// A binary confusion matrix with Robot as the positive class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Robots classified as robots.
    pub true_positive: u64,
    /// Humans classified as robots.
    pub false_positive: u64,
    /// Humans classified as humans.
    pub true_negative: u64,
    /// Robots classified as humans.
    pub false_negative: u64,
}

impl ConfusionMatrix {
    /// Tallies predictions against ground truth.
    pub fn tally(pairs: impl IntoIterator<Item = (Label, Label)>) -> ConfusionMatrix {
        let mut m = ConfusionMatrix::default();
        for (predicted, actual) in pairs {
            match (predicted, actual) {
                (Label::Robot, Label::Robot) => m.true_positive += 1,
                (Label::Robot, Label::Human) => m.false_positive += 1,
                (Label::Human, Label::Human) => m.true_negative += 1,
                (Label::Human, Label::Robot) => m.false_negative += 1,
            }
        }
        m
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.true_positive + self.false_positive + self.true_negative + self.false_negative
    }

    /// Overall accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        (self.true_positive + self.true_negative) as f64 / t as f64
    }

    /// Robot precision.
    pub fn precision(&self) -> f64 {
        let d = self.true_positive + self.false_positive;
        if d == 0 {
            0.0
        } else {
            self.true_positive as f64 / d as f64
        }
    }

    /// Robot recall.
    pub fn recall(&self) -> f64 {
        let d = self.true_positive + self.false_negative;
        if d == 0 {
            0.0
        } else {
            self.true_positive as f64 / d as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False-positive rate (humans misclassified as robots).
    pub fn false_positive_rate(&self) -> f64 {
        let d = self.false_positive + self.true_negative;
        if d == 0 {
            0.0
        } else {
            self.false_positive as f64 / d as f64
        }
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TP={} FP={} TN={} FN={}",
            self.true_positive, self.false_positive, self.true_negative, self.false_negative
        )?;
        write!(
            f,
            "acc={:.3} prec={:.3} rec={:.3} f1={:.3} fpr={:.3}",
            self.accuracy(),
            self.precision(),
            self.recall(),
            self.f1(),
            self.false_positive_rate()
        )
    }
}

/// Evaluates a trained model on `(feature, label)` pairs.
pub fn evaluate(model: &AdaBoostModel, samples: &[(FeatureVector, Label)]) -> ConfusionMatrix {
    ConfusionMatrix::tally(samples.iter().map(|(x, l)| (model.classify(x), *l)))
}

/// One point of the Figure-4 curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointResult {
    /// The request count the classifier was built at.
    pub checkpoint: usize,
    /// Accuracy on the training set, percent.
    pub train_accuracy_pct: f64,
    /// Accuracy on the test set, percent.
    pub test_accuracy_pct: f64,
    /// Weak learners in the ensemble.
    pub model_size: usize,
}

/// Runs the paper's Figure-4 protocol: for each checkpoint (multiples of
/// 20 requests), build a classifier on the training half using features
/// over the first `checkpoint` requests and measure accuracy on both
/// halves.
pub fn checkpoint_sweep(
    train: &Corpus,
    test: &Corpus,
    checkpoints: &[usize],
    config: &AdaBoostConfig,
) -> Vec<CheckpointResult> {
    checkpoints
        .iter()
        .map(|&cp| {
            let train_set = train.features_at(cp, 1);
            let test_set = test.features_at(cp, 1);
            let model = AdaBoostModel::train(&train_set, config);
            CheckpointResult {
                checkpoint: cp,
                train_accuracy_pct: model.accuracy(&train_set) * 100.0,
                test_accuracy_pct: model.accuracy(&test_set) * 100.0,
                model_size: model.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{make_record, Attribute};
    use botwall_http::{ContentClass, MethodKind};
    use botwall_sessions::RequestRecord;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn confusion_matrix_arithmetic() {
        let m = ConfusionMatrix {
            true_positive: 40,
            false_positive: 10,
            true_negative: 45,
            false_negative: 5,
        };
        assert_eq!(m.total(), 100);
        assert!((m.accuracy() - 0.85).abs() < 1e-12);
        assert!((m.precision() - 0.8).abs() < 1e-12);
        assert!((m.recall() - 40.0 / 45.0).abs() < 1e-12);
        assert!((m.false_positive_rate() - 10.0 / 55.0).abs() < 1e-12);
        assert!(m.f1() > 0.0);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        assert_eq!(m.precision(), 0.0);
        assert_eq!(m.recall(), 0.0);
        assert_eq!(m.f1(), 0.0);
    }

    #[test]
    fn tally_maps_quadrants() {
        let m = ConfusionMatrix::tally([
            (Label::Robot, Label::Robot),
            (Label::Robot, Label::Human),
            (Label::Human, Label::Human),
            (Label::Human, Label::Robot),
        ]);
        assert_eq!(m.true_positive, 1);
        assert_eq!(m.false_positive, 1);
        assert_eq!(m.true_negative, 1);
        assert_eq!(m.false_negative, 1);
    }

    /// Synthetic corpus where humans fetch images with referrers and
    /// robots fetch bare HTML; noisy.
    fn corpus(n: usize, seed: u64) -> Corpus {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut c = Corpus::new();
        for _ in 0..n {
            let robot = rng.gen_bool(0.5);
            let recs: Vec<RequestRecord> = (1..=160)
                .map(|_| {
                    let noise = rng.gen_bool(0.15);
                    let human_like = robot == noise;
                    if human_like {
                        make_record(MethodKind::Get, ContentClass::Image, 2, true, true)
                    } else {
                        make_record(MethodKind::Get, ContentClass::Html, 2, false, false)
                    }
                })
                .collect();
            c.push(
                recs,
                String::new(),
                if robot { Label::Robot } else { Label::Human },
            );
        }
        c
    }

    #[test]
    fn sweep_produces_one_result_per_checkpoint() {
        let all = corpus(120, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let (train, test) = all.split_half(&mut rng);
        let cps = [20, 40, 80];
        let results = checkpoint_sweep(&train, &test, &cps, &AdaBoostConfig { rounds: 30 });
        assert_eq!(results.len(), 3);
        for (r, cp) in results.iter().zip(cps) {
            assert_eq!(r.checkpoint, cp);
            assert!(r.test_accuracy_pct > 60.0, "accuracy {r:?}");
            assert!(r.train_accuracy_pct >= r.test_accuracy_pct - 15.0);
        }
    }

    #[test]
    fn more_requests_do_not_hurt_much() {
        // Later checkpoints see more data per session; accuracy at 160
        // must not be materially below accuracy at 20 on this noise model.
        let all = corpus(200, 9);
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let (train, test) = all.split_half(&mut rng);
        let results = checkpoint_sweep(&train, &test, &[20, 160], &AdaBoostConfig { rounds: 40 });
        assert!(results[1].test_accuracy_pct >= results[0].test_accuracy_pct - 2.0);
    }

    #[test]
    fn evaluate_agrees_with_model_accuracy() {
        let all = corpus(80, 11);
        let samples = all.features_at(40, 1);
        let model = AdaBoostModel::train(&samples, &AdaBoostConfig { rounds: 20 });
        let m = evaluate(&model, &samples);
        assert!((m.accuracy() - model.accuracy(&samples)).abs() < 1e-12);
        let _ = Attribute::ALL; // silence unused import paths in some cfgs
    }
}
