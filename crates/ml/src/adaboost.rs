//! AdaBoost over decision stumps (§4.2).
//!
//! The paper: "We used AdaBoost (Schapire) with 200 rounds" over the 12
//! Table-2 attributes, reporting 91–95% test accuracy depending on how
//! many requests the classifier sees. This is AdaBoost.M1 with the stump
//! learner from [`crate::stump`]; per-attribute cumulative `|α|` gives the
//! feature-importance ranking the paper discusses (`RESPCODE 3XX %`,
//! `REFERRER %` and `UNSEEN REFERRER %` were the most contributing).

use crate::features::{Attribute, FeatureVector, ATTRIBUTE_COUNT};
use crate::stump::DecisionStump;
use botwall_core::Label;

/// Training stops early once the weighted error reaches this floor
/// (perfect weak learner): the classifier is already consistent.
const MIN_ERROR: f64 = 1e-10;

/// Configuration for training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaBoostConfig {
    /// Boosting rounds (paper: 200).
    pub rounds: usize,
}

impl Default for AdaBoostConfig {
    fn default() -> Self {
        AdaBoostConfig { rounds: 200 }
    }
}

/// A trained boosted ensemble.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoostModel {
    stumps: Vec<(DecisionStump, f64)>,
}

impl AdaBoostModel {
    /// Trains a model on labelled feature vectors.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[(FeatureVector, Label)], config: &AdaBoostConfig) -> AdaBoostModel {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let n = samples.len();
        let mut weights = vec![1.0 / n as f64; n];
        let mut stumps: Vec<(DecisionStump, f64)> = Vec::with_capacity(config.rounds);
        for _round in 0..config.rounds {
            let (stump, err) = DecisionStump::train(samples, &weights);
            if err >= 0.5 {
                // No weak learner better than chance remains.
                break;
            }
            let err_c = err.max(MIN_ERROR);
            let alpha = 0.5 * ((1.0 - err_c) / err_c).ln();
            stumps.push((stump, alpha));
            if err <= MIN_ERROR {
                break;
            }
            // Reweight: misclassified samples up, correct ones down.
            let mut sum = 0.0;
            for (w, (x, label)) in weights.iter_mut().zip(samples) {
                let correct = stump.classify(x) == *label;
                *w *= if correct { (-alpha).exp() } else { alpha.exp() };
                sum += *w;
            }
            for w in weights.iter_mut() {
                *w /= sum;
            }
        }
        AdaBoostModel { stumps }
    }

    /// The ensemble margin: positive means Robot, negative means Human.
    pub fn score(&self, x: &FeatureVector) -> f64 {
        self.stumps
            .iter()
            .map(|(s, alpha)| match s.classify(x) {
                Label::Robot => *alpha,
                Label::Human => -*alpha,
            })
            .sum()
    }

    /// Classifies one feature vector.
    pub fn classify(&self, x: &FeatureVector) -> Label {
        if self.score(x) > 0.0 {
            Label::Robot
        } else {
            Label::Human
        }
    }

    /// Fraction of `samples` classified correctly.
    pub fn accuracy(&self, samples: &[(FeatureVector, Label)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let correct = samples
            .iter()
            .filter(|(x, l)| self.classify(x) == *l)
            .count();
        correct as f64 / samples.len() as f64
    }

    /// Number of weak learners kept.
    pub fn len(&self) -> usize {
        self.stumps.len()
    }

    /// Whether the ensemble is empty.
    pub fn is_empty(&self) -> bool {
        self.stumps.is_empty()
    }

    /// The trained stumps with their weights.
    pub fn stumps(&self) -> &[(DecisionStump, f64)] {
        &self.stumps
    }

    /// Cumulative `|α|` per attribute, normalized to sum to 1 — the
    /// feature-importance ranking.
    pub fn importance(&self) -> Vec<(Attribute, f64)> {
        let mut acc = [0.0f64; ATTRIBUTE_COUNT];
        for (s, alpha) in &self.stumps {
            acc[s.attribute] += alpha.abs();
        }
        let total: f64 = acc.iter().sum();
        let mut out: Vec<(Attribute, f64)> = Attribute::ALL
            .iter()
            .map(|a| {
                (
                    *a,
                    if total > 0.0 {
                        acc[a.index()] / total
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Synthetic task: robots have high CGI share and low image share;
    /// plus label noise.
    fn corpus(n: usize, noise: f64, seed: u64) -> Vec<(FeatureVector, Label)> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let robot = rng.gen_bool(0.5);
                let mut x = FeatureVector::zero();
                let cgi = Attribute::CgiPct.index();
                let img = Attribute::ImagePct.index();
                let r3 = Attribute::Resp3xxPct.index();
                if robot {
                    x.0[cgi] = rng.gen_range(0.3..1.0);
                    x.0[img] = rng.gen_range(0.0..0.3);
                    x.0[r3] = rng.gen_range(0.0..0.05);
                } else {
                    x.0[cgi] = rng.gen_range(0.0..0.4);
                    x.0[img] = rng.gen_range(0.2..0.8);
                    x.0[r3] = rng.gen_range(0.02..0.2);
                }
                let label = if rng.gen_bool(noise) {
                    if robot {
                        Label::Human
                    } else {
                        Label::Robot
                    }
                } else if robot {
                    Label::Robot
                } else {
                    Label::Human
                };
                (x, label)
            })
            .collect()
    }

    #[test]
    fn learns_a_separable_task_perfectly() {
        let data = corpus(400, 0.0, 1);
        let model = AdaBoostModel::train(&data, &AdaBoostConfig::default());
        assert!(
            model.accuracy(&data) > 0.99,
            "acc={}",
            model.accuracy(&data)
        );
    }

    #[test]
    fn generalizes_with_noise() {
        let train = corpus(600, 0.05, 2);
        let test = corpus(600, 0.05, 3);
        let model = AdaBoostModel::train(&train, &AdaBoostConfig::default());
        let acc = model.accuracy(&test);
        assert!(acc > 0.85, "test accuracy {acc}");
    }

    #[test]
    fn training_error_trends_down_with_rounds() {
        // The 0/1 training error is not strictly monotone round to round
        // (only the exponential-loss bound is), but it must trend down:
        // small slack between checkpoints, clear improvement end to end.
        let data = corpus(300, 0.1, 4);
        let mut prev = f64::INFINITY;
        let mut first = None;
        let mut last = 0.0;
        for rounds in [1, 5, 20, 80, 200] {
            let model = AdaBoostModel::train(&data, &AdaBoostConfig { rounds });
            let err = 1.0 - model.accuracy(&data);
            assert!(
                err <= prev + 0.05,
                "training error jumped: {err} > {prev} at {rounds} rounds"
            );
            first.get_or_insert(err);
            last = err;
            prev = err;
        }
        assert!(
            last <= first.unwrap(),
            "200 rounds must not be worse than 1 round: {last} vs {first:?}"
        );
    }

    #[test]
    fn importance_identifies_informative_attributes() {
        let data = corpus(500, 0.02, 5);
        let model = AdaBoostModel::train(&data, &AdaBoostConfig::default());
        let imp = model.importance();
        // The top-3 attributes must be the three the generator uses.
        let top: Vec<Attribute> = imp.iter().take(3).map(|(a, _)| *a).collect();
        for a in [
            Attribute::CgiPct,
            Attribute::ImagePct,
            Attribute::Resp3xxPct,
        ] {
            assert!(top.contains(&a), "{:?} missing from top-3 {top:?}", a);
        }
        // Importances are a distribution.
        let sum: f64 = imp.iter().map(|(_, v)| v).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn early_stop_on_perfect_stump() {
        // One attribute separates perfectly: training should stop after a
        // single round.
        let data: Vec<(FeatureVector, Label)> = (0..50)
            .map(|i| {
                let mut x = FeatureVector::zero();
                x.0[0] = i as f64 / 50.0;
                (x, if i < 25 { Label::Human } else { Label::Robot })
            })
            .collect();
        let model = AdaBoostModel::train(&data, &AdaBoostConfig::default());
        assert_eq!(model.len(), 1);
        assert_eq!(model.accuracy(&data), 1.0);
    }

    #[test]
    fn score_sign_matches_classification() {
        let data = corpus(200, 0.05, 6);
        let model = AdaBoostModel::train(&data, &AdaBoostConfig::default());
        for (x, _) in &data {
            let label = model.classify(x);
            let score = model.score(x);
            match label {
                Label::Robot => assert!(score > 0.0),
                Label::Human => assert!(score <= 0.0),
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        AdaBoostModel::train(&[], &AdaBoostConfig::default());
    }
}
