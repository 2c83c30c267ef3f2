//! A Tan & Kumar-style navigational-pattern decision tree.
//!
//! Tan & Kumar (*Discovery of Web robot sessions based on their
//! navigational patterns*, DMKD 2002) classify sessions offline with a
//! decision tree over navigational features. The paper contrasts its own
//! scheme with this approach: the tree is accurate given many requests but
//! "is not adequate for real-time traffic analysis". We implement a
//! greedy entropy-split tree over the same Table-2 feature space to serve
//! as that baseline in the ablation benches.

use crate::features::{FeatureVector, ATTRIBUTE_COUNT};
use botwall_core::Label;

/// Configuration for tree induction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_split: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 6,
            min_split: 8,
        }
    }
}

/// A node of the tree.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(Label),
    Split {
        attribute: usize,
        threshold: f64,
        below: Box<Node>,
        above: Box<Node>,
    },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    root: Node,
}

impl DecisionTree {
    /// Trains a tree by greedy entropy minimization.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn train(samples: &[(FeatureVector, Label)], config: &TreeConfig) -> DecisionTree {
        assert!(!samples.is_empty(), "cannot train on an empty set");
        let idx: Vec<usize> = (0..samples.len()).collect();
        DecisionTree {
            root: build(samples, &idx, config, 0),
        }
    }

    /// Classifies one feature vector.
    pub fn classify(&self, x: &FeatureVector) -> Label {
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf(l) => return *l,
                Node::Split {
                    attribute,
                    threshold,
                    below,
                    above,
                } => {
                    node = if x.0[*attribute] <= *threshold {
                        below
                    } else {
                        above
                    };
                }
            }
        }
    }

    /// Fraction of `samples` classified correctly.
    pub fn accuracy(&self, samples: &[(FeatureVector, Label)]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples
            .iter()
            .filter(|(x, l)| self.classify(x) == *l)
            .count() as f64
            / samples.len() as f64
    }
}

fn majority(samples: &[(FeatureVector, Label)], idx: &[usize]) -> Label {
    let robots = idx
        .iter()
        .filter(|&&i| samples[i].1 == Label::Robot)
        .count();
    if robots * 2 >= idx.len() {
        Label::Robot
    } else {
        Label::Human
    }
}

fn entropy(robots: usize, total: usize) -> f64 {
    if total == 0 || robots == 0 || robots == total {
        return 0.0;
    }
    let p = robots as f64 / total as f64;
    -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
}

fn build(
    samples: &[(FeatureVector, Label)],
    idx: &[usize],
    config: &TreeConfig,
    depth: usize,
) -> Node {
    let robots = idx
        .iter()
        .filter(|&&i| samples[i].1 == Label::Robot)
        .count();
    if depth >= config.max_depth
        || idx.len() < config.min_split
        || robots == 0
        || robots == idx.len()
    {
        return Node::Leaf(majority(samples, idx));
    }
    let parent_h = entropy(robots, idx.len());
    let mut best: Option<(usize, f64, f64)> = None; // (attr, threshold, gain)
    let mut sorted = idx.to_vec();
    for attr in 0..ATTRIBUTE_COUNT {
        sorted.sort_by(|&a, &b| {
            samples[a].0 .0[attr]
                .partial_cmp(&samples[b].0 .0[attr])
                .expect("finite")
        });
        let mut robots_le = 0usize;
        for (pos, &i) in sorted.iter().enumerate() {
            if samples[i].1 == Label::Robot {
                robots_le += 1;
            }
            if pos + 1 >= sorted.len() {
                break;
            }
            let v = samples[i].0 .0[attr];
            let next = samples[sorted[pos + 1]].0 .0[attr];
            if v == next {
                continue;
            }
            let n_le = pos + 1;
            let n_gt = sorted.len() - n_le;
            let h = (n_le as f64 * entropy(robots_le, n_le)
                + n_gt as f64 * entropy(robots - robots_le, n_gt))
                / sorted.len() as f64;
            let gain = parent_h - h;
            if best.map(|(_, _, g)| gain > g).unwrap_or(gain > 1e-12) {
                best = Some((attr, (v + next) / 2.0, gain));
            }
        }
    }
    let Some((attribute, threshold, _)) = best else {
        return Node::Leaf(majority(samples, idx));
    };
    let (below_idx, above_idx): (Vec<usize>, Vec<usize>) = idx
        .iter()
        .partition(|&&i| samples[i].0 .0[attribute] <= threshold);
    if below_idx.is_empty() || above_idx.is_empty() {
        return Node::Leaf(majority(samples, idx));
    }
    Node::Split {
        attribute,
        threshold,
        below: Box::new(build(samples, &below_idx, config, depth + 1)),
        above: Box::new(build(samples, &above_idx, config, depth + 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Attribute;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Nodes in the tree under `node`, leaves included.
    fn node_count(node: &Node) -> usize {
        match node {
            Node::Leaf(_) => 1,
            Node::Split { below, above, .. } => 1 + node_count(below) + node_count(above),
        }
    }

    fn fv(pairs: &[(Attribute, f64)]) -> FeatureVector {
        let mut x = FeatureVector::zero();
        for (a, v) in pairs {
            x.0[a.index()] = *v;
        }
        x
    }

    #[test]
    fn learns_an_axis_aligned_rule() {
        let samples: Vec<(FeatureVector, Label)> = (0..40)
            .map(|i| {
                let v = i as f64 / 40.0;
                (
                    fv(&[(Attribute::HtmlPct, v)]),
                    if v > 0.6 { Label::Robot } else { Label::Human },
                )
            })
            .collect();
        let tree = DecisionTree::train(&samples, &TreeConfig::default());
        assert_eq!(tree.accuracy(&samples), 1.0);
    }

    #[test]
    fn learns_a_two_attribute_interaction() {
        // Robot iff HTML high AND REFERRER low — needs depth 2.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let samples: Vec<(FeatureVector, Label)> = (0..300)
            .map(|_| {
                let html: f64 = rng.gen();
                let refr: f64 = rng.gen();
                let label = if html > 0.5 && refr < 0.5 {
                    Label::Robot
                } else {
                    Label::Human
                };
                (
                    fv(&[(Attribute::HtmlPct, html), (Attribute::ReferrerPct, refr)]),
                    label,
                )
            })
            .collect();
        let tree = DecisionTree::train(&samples, &TreeConfig::default());
        assert!(tree.accuracy(&samples) > 0.95);
        assert!(node_count(&tree.root) >= 3, "must actually split");
    }

    #[test]
    fn depth_limit_is_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let samples: Vec<(FeatureVector, Label)> = (0..200)
            .map(|_| {
                let x: f64 = rng.gen();
                (
                    fv(&[(Attribute::CgiPct, x)]),
                    if rng.gen_bool(0.5) {
                        Label::Robot
                    } else {
                        Label::Human
                    },
                )
            })
            .collect();
        let shallow = DecisionTree::train(
            &samples,
            &TreeConfig {
                max_depth: 1,
                min_split: 2,
            },
        );
        // Depth 1: at most one split, three nodes.
        assert!(node_count(&shallow.root) <= 3);
    }

    #[test]
    fn pure_leaves_stop_recursion() {
        let samples = vec![
            (fv(&[(Attribute::HtmlPct, 0.1)]), Label::Human),
            (fv(&[(Attribute::HtmlPct, 0.2)]), Label::Human),
        ];
        let tree = DecisionTree::train(&samples, &TreeConfig::default());
        assert_eq!(node_count(&tree.root), 1);
        assert_eq!(
            tree.classify(&fv(&[(Attribute::HtmlPct, 0.9)])),
            Label::Human
        );
    }

    #[test]
    fn entropy_bounds() {
        assert_eq!(entropy(0, 10), 0.0);
        assert_eq!(entropy(10, 10), 0.0);
        assert!((entropy(5, 10) - 1.0).abs() < 1e-12);
        assert_eq!(entropy(0, 0), 0.0);
    }
}
