//! Labelled corpora and the paper's train/test protocol.
//!
//! §4.2: "we collected data by running CAPTCHA tests on CoDeeN for two
//! weeks, and classified 42,975 human sessions and 124,271 robot sessions
//! … We then divided each set into a training set and a test set, using
//! equal numbers of sessions drawn at random."

use crate::features::FeatureVector;
use botwall_core::Label;
use botwall_sessions::RequestRecord;
use rand::seq::SliceRandom;
use rand::Rng;

/// One labelled session: its record stream plus ground truth.
#[derive(Debug, Clone)]
pub struct LabelledSession {
    /// The per-request records (enough prefix for the largest checkpoint).
    pub records: Vec<RequestRecord>,
    /// Ground-truth label (from the CAPTCHA oracle in the paper).
    pub label: Label,
}

/// A labelled corpus of sessions.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    /// The sessions.
    pub sessions: Vec<LabelledSession>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Corpus {
        Corpus::default()
    }

    /// Adds a session.
    pub fn push(&mut self, records: Vec<RequestRecord>, label: Label) {
        self.sessions.push(LabelledSession { records, label });
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Count per label: `(humans, robots)`.
    pub fn class_counts(&self) -> (usize, usize) {
        let humans = self
            .sessions
            .iter()
            .filter(|s| s.label == Label::Human)
            .count();
        (humans, self.sessions.len() - humans)
    }

    /// The paper's split: each class is divided into equal-sized train and
    /// test halves drawn at random.
    pub fn split_half<R: Rng>(&self, rng: &mut R) -> (Corpus, Corpus) {
        let mut train = Corpus::new();
        let mut test = Corpus::new();
        for label in [Label::Human, Label::Robot] {
            let mut idx: Vec<usize> = self
                .sessions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.label == label)
                .map(|(i, _)| i)
                .collect();
            idx.shuffle(rng);
            let half = idx.len() / 2;
            for (pos, i) in idx.into_iter().enumerate() {
                let s = self.sessions[i].clone();
                if pos < half {
                    train.sessions.push(s);
                } else {
                    test.sessions.push(s);
                }
            }
        }
        (train, test)
    }

    /// Materializes `(features, label)` pairs at a request-count
    /// checkpoint, skipping sessions shorter than `min_requests`.
    pub fn features_at(
        &self,
        checkpoint: usize,
        min_requests: usize,
    ) -> Vec<(FeatureVector, Label)> {
        self.sessions
            .iter()
            .filter(|s| s.records.len() >= min_requests)
            .map(|s| {
                (
                    crate::features::extract_prefix(&s.records, checkpoint),
                    s.label,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::make_record;
    use botwall_http::{ContentClass, MethodKind};
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn corpus(humans: usize, robots: usize) -> Corpus {
        let mut c = Corpus::new();
        for i in 0..humans {
            let recs = (1..=20)
                .map(|j| make_record(j, MethodKind::Get, ContentClass::Image, 2, true, true))
                .collect();
            c.push(recs, Label::Human);
            let _ = i;
        }
        for i in 0..robots {
            let recs = (1..=20)
                .map(|j| make_record(j, MethodKind::Get, ContentClass::Html, 2, false, false))
                .collect();
            c.push(recs, Label::Robot);
            let _ = i;
        }
        c
    }

    #[test]
    fn class_counts() {
        let c = corpus(30, 70);
        assert_eq!(c.class_counts(), (30, 70));
        assert_eq!(c.len(), 100);
    }

    #[test]
    fn split_is_stratified_and_half() {
        let c = corpus(40, 100);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (train, test) = c.split_half(&mut rng);
        assert_eq!(train.class_counts(), (20, 50));
        assert_eq!(test.class_counts(), (20, 50));
        assert_eq!(train.len() + test.len(), c.len());
    }

    #[test]
    fn split_with_odd_counts_keeps_everything() {
        let c = corpus(5, 7);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let (train, test) = c.split_half(&mut rng);
        assert_eq!(train.len() + test.len(), 12);
        // Floor halves go to train.
        assert_eq!(train.class_counts(), (2, 3));
        assert_eq!(test.class_counts(), (3, 4));
    }

    #[test]
    fn split_is_deterministic_per_seed() {
        let c = corpus(20, 20);
        let (a1, _) = c.split_half(&mut ChaCha8Rng::seed_from_u64(9));
        let (a2, _) = c.split_half(&mut ChaCha8Rng::seed_from_u64(9));
        let ids1: Vec<Label> = a1.sessions.iter().map(|s| s.label).collect();
        let ids2: Vec<Label> = a2.sessions.iter().map(|s| s.label).collect();
        assert_eq!(ids1, ids2);
    }

    #[test]
    fn features_at_filters_short_sessions() {
        let mut c = corpus(2, 2);
        c.push(vec![], Label::Human); // Zero-length session.
        let feats = c.features_at(20, 10);
        assert_eq!(feats.len(), 4, "short session excluded");
    }
}
