//! Decision stumps — the weak learners for AdaBoost.
//!
//! A stump thresholds one attribute: `predict Robot if x[attr] > t`
//! (or the flipped polarity). Training finds the (attribute, threshold,
//! polarity) triple minimizing weighted error by sorting each attribute's
//! values and scanning candidate cut points.

use crate::features::{FeatureVector, ATTRIBUTE_COUNT};
use botwall_core::Label;

/// A single-attribute threshold classifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionStump {
    /// Index of the attribute tested.
    pub attribute: usize,
    /// Decision threshold.
    pub threshold: f64,
    /// If `true`, predicts Robot when the value is **greater** than the
    /// threshold; if `false`, predicts Robot when **less or equal**.
    pub robot_above: bool,
}

impl DecisionStump {
    /// Classifies one feature vector.
    pub fn classify(&self, x: &FeatureVector) -> Label {
        let v = x.0[self.attribute];
        let above = v > self.threshold;
        if above == self.robot_above {
            Label::Robot
        } else {
            Label::Human
        }
    }

    /// Trains the stump minimizing weighted error over `samples`
    /// (`weights` must be non-negative and sum to something positive).
    ///
    /// Returns the stump and its weighted error.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or lengths differ.
    pub fn train(samples: &[(FeatureVector, Label)], weights: &[f64]) -> (DecisionStump, f64) {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        assert_eq!(samples.len(), weights.len(), "weight per sample");
        let total: f64 = weights.iter().sum();
        let mut best = DecisionStump {
            attribute: 0,
            threshold: 0.0,
            robot_above: true,
        };
        let mut best_err = f64::INFINITY;
        // Weight of all robots (used to initialize the scan).
        let robot_weight: f64 = samples
            .iter()
            .zip(weights)
            .filter(|((_, l), _)| *l == Label::Robot)
            .map(|(_, w)| *w)
            .sum();
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for attr in 0..ATTRIBUTE_COUNT {
            order.sort_by(|&a, &b| {
                samples[a].0 .0[attr]
                    .partial_cmp(&samples[b].0 .0[attr])
                    .expect("features are finite")
            });
            // Scan thresholds between consecutive distinct values.
            // Invariant while scanning: `robot_le` / `human_le` are the
            // weights of robot/human samples with value <= current cut.
            let mut robot_le = 0.0;
            let mut human_le = 0.0;
            let mut i = 0;
            while i < order.len() {
                let v = samples[order[i]].0 .0[attr];
                // Absorb the whole run of equal values.
                while i < order.len() && samples[order[i]].0 .0[attr] == v {
                    let idx = order[i];
                    match samples[idx].1 {
                        Label::Robot => robot_le += weights[idx],
                        Label::Human => human_le += weights[idx],
                    }
                    i += 1;
                }
                let threshold = if i < order.len() {
                    (v + samples[order[i]].0 .0[attr]) / 2.0
                } else {
                    // Threshold above the max: "above" side is empty.
                    v
                };
                // Polarity robot_above=true: predict Robot for x > t.
                // Errors: humans above t (human_total - human_le) plus
                // robots at or below t (robot_le).
                let err_above = robot_le + (total - robot_weight - human_le);
                // Flipped polarity errors are the complement.
                let err_below = total - err_above;
                for (err, robot_above) in [(err_above, true), (err_below, false)] {
                    if err < best_err {
                        best_err = err;
                        best = DecisionStump {
                            attribute: attr,
                            threshold,
                            robot_above,
                        };
                    }
                }
            }
        }
        (best, best_err / total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Attribute;

    fn fv(attr: Attribute, v: f64) -> FeatureVector {
        let mut x = FeatureVector::zero();
        x.0[attr.index()] = v;
        x
    }

    #[test]
    fn perfectly_separable_data_gets_zero_error() {
        let a = Attribute::CgiPct;
        let samples: Vec<(FeatureVector, Label)> = (0..10)
            .map(|i| {
                let v = i as f64 / 10.0;
                let label = if v > 0.45 { Label::Robot } else { Label::Human };
                (fv(a, v), label)
            })
            .collect();
        let weights = vec![1.0; samples.len()];
        let (stump, err) = DecisionStump::train(&samples, &weights);
        assert_eq!(err, 0.0);
        assert_eq!(stump.attribute, a.index());
        assert!(stump.robot_above);
        for (x, l) in &samples {
            assert_eq!(stump.classify(x), *l);
        }
    }

    #[test]
    fn flipped_polarity_is_found() {
        // Robots have LOW values here.
        let a = Attribute::ImagePct;
        let samples: Vec<(FeatureVector, Label)> = (0..10)
            .map(|i| {
                let v = i as f64 / 10.0;
                let label = if v < 0.5 { Label::Robot } else { Label::Human };
                (fv(a, v), label)
            })
            .collect();
        let weights = vec![1.0; samples.len()];
        let (stump, err) = DecisionStump::train(&samples, &weights);
        assert_eq!(err, 0.0);
        assert!(!stump.robot_above);
    }

    #[test]
    fn weighting_steers_the_split() {
        let a = Attribute::HtmlPct;
        // Two conflicting points; the heavy one must be classified right.
        let samples = vec![
            (fv(a, 0.2), Label::Robot),
            (fv(a, 0.2), Label::Human),
            (fv(a, 0.8), Label::Human),
        ];
        let heavy_robot = vec![10.0, 1.0, 1.0];
        let (stump, _) = DecisionStump::train(&samples, &heavy_robot);
        assert_eq!(stump.classify(&fv(a, 0.2)), Label::Robot);
        let heavy_human = vec![1.0, 10.0, 1.0];
        let (stump, _) = DecisionStump::train(&samples, &heavy_human);
        assert_eq!(stump.classify(&fv(a, 0.2)), Label::Human);
    }

    #[test]
    fn error_matches_exhaustive_search() {
        // Brute-force over a dense threshold grid must not beat the
        // trained stump.
        let a = Attribute::Resp3xxPct;
        let samples: Vec<(FeatureVector, Label)> = [
            (0.1, Label::Human),
            (0.3, Label::Robot),
            (0.35, Label::Human),
            (0.5, Label::Robot),
            (0.7, Label::Robot),
            (0.9, Label::Human),
        ]
        .iter()
        .map(|(v, l)| (fv(a, *v), *l))
        .collect();
        let weights = vec![1.0; samples.len()];
        let (_stump, err) = DecisionStump::train(&samples, &weights);
        let mut brute_best = f64::INFINITY;
        for t in 0..=100 {
            let threshold = t as f64 / 100.0;
            for robot_above in [true, false] {
                let s = DecisionStump {
                    attribute: a.index(),
                    threshold,
                    robot_above,
                };
                let e = samples.iter().filter(|(x, l)| s.classify(x) != *l).count() as f64
                    / samples.len() as f64;
                brute_best = brute_best.min(e);
            }
        }
        assert!(
            err <= brute_best + 1e-9,
            "trained {err} vs brute {brute_best}"
        );
    }

    #[test]
    fn uniform_labels_yield_zero_error() {
        let samples = vec![
            (fv(Attribute::HeadPct, 0.1), Label::Robot),
            (fv(Attribute::HeadPct, 0.9), Label::Robot),
        ];
        let (_, err) = DecisionStump::train(&samples, &[1.0, 1.0]);
        assert_eq!(err, 0.0, "predict-all-robot is error free");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_training_panics() {
        DecisionStump::train(&[], &[]);
    }
}
