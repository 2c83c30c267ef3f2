//! Machine learning for `botwall` (§4.2 of the paper) plus the baseline
//! classifiers of §5.
//!
//! The paper's ML study extracts 12 per-session attributes (Table 2),
//! trains AdaBoost with 200 rounds of decision stumps on a
//! CAPTCHA-labelled corpus, and measures accuracy as a function of how
//! many requests the classifier may observe (Figure 4: 91–95%). The most
//! informative attributes were `RESPCODE 3XX %`, `REFERRER %` and
//! `UNSEEN REFERRER %`.
//!
//! * [`features`] — the Table-2 attribute extractor (prefix-capable for
//!   the checkpoint protocol)
//! * [`stump`] / [`adaboost`] — the learner
//! * [`dataset`] — corpora and the stratified half/half split
//! * [`eval`] — confusion matrices and the Figure-4 checkpoint sweep
//! * [`boundary`] — adapter into `botwall-core`'s staged pipeline
//! * [`baselines`] — UA signature matching and a Tan&Kumar-style decision
//!   tree
//!
//! # Examples
//!
//! ```
//! use botwall_core::Label;
//! use botwall_ml::adaboost::{AdaBoostConfig, AdaBoostModel};
//! use botwall_ml::features::{Attribute, FeatureVector};
//!
//! // A toy task: robots never send referrers.
//! let samples: Vec<(FeatureVector, Label)> = (0..30)
//!     .map(|i| {
//!         let mut x = FeatureVector::zero();
//!         x.0[Attribute::ReferrerPct.index()] = i as f64 / 30.0;
//!         (x, if i < 15 { Label::Robot } else { Label::Human })
//!     })
//!     .collect();
//! let model = AdaBoostModel::train(&samples, &AdaBoostConfig::default());
//! assert_eq!(model.accuracy(&samples), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaboost;
pub mod baselines;
pub mod boundary;
pub mod dataset;
pub mod eval;
pub mod features;
pub mod stump;

pub use adaboost::{AdaBoostConfig, AdaBoostModel};
pub use boundary::AdaBoostBoundary;
pub use dataset::{Corpus, LabelledSession};
pub use eval::{checkpoint_sweep, evaluate, CheckpointResult, ConfusionMatrix};
pub use features::{Attribute, FeatureVector, ATTRIBUTE_COUNT};
pub use stump::DecisionStump;
