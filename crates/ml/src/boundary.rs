//! Plugging the AdaBoost model into the staged pipeline.
//!
//! §4.1 proposes "making quick decisions by fast analysis (e.g., standard
//! browser test), then perform a careful decision algorithm for boundary
//! cases (e.g., AI-based techniques)". The pipeline,
//! [`StagedPipeline`](crate::staged::StagedPipeline), accepts any
//! [`BoundaryClassifier`]; this module adapts a trained [`AdaBoostModel`]
//! to that trait. The pipeline runs offline over completed sessions: the
//! `botwall-bench` `staged` experiment and the `ml_pipeline` example use
//! this adapter.

use crate::adaboost::AdaBoostModel;
use crate::features;
use crate::staged::BoundaryClassifier;
use botwall_core::Label;
use botwall_sessions::Session;

/// An [`AdaBoostModel`] usable as the ML stage of the staged pipeline.
///
/// The model abstains (returns `None`) for sessions shorter than
/// `min_requests` — the paper's point that ML "needs a relatively large
/// number of requests" to be trustworthy.
#[derive(Debug, Clone)]
pub struct AdaBoostBoundary {
    model: AdaBoostModel,
    min_requests: usize,
}

impl AdaBoostBoundary {
    /// Wraps a trained model; it abstains below `min_requests`.
    pub fn new(model: AdaBoostModel, min_requests: usize) -> AdaBoostBoundary {
        AdaBoostBoundary {
            model,
            min_requests,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &AdaBoostModel {
        &self.model
    }
}

impl BoundaryClassifier for AdaBoostBoundary {
    fn classify_session(&self, session: &Session) -> Option<Label> {
        if (session.request_count() as usize) < self.min_requests {
            return None;
        }
        let fv = features::extract_from_counters(session.counters());
        Some(self.model.classify(&fv))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaboost::AdaBoostConfig;
    use crate::features::{Attribute, FeatureVector};
    use botwall_http::request::ClientIp;
    use botwall_http::{Method, Request, Response, StatusCode};
    use botwall_sessions::{SessionTracker, SimTime, TrackerConfig};

    fn model_preferring_html_robots() -> AdaBoostModel {
        // Train a tiny model: high HTML share ⇒ robot.
        let samples: Vec<(FeatureVector, Label)> = (0..20)
            .map(|i| {
                let mut x = FeatureVector::zero();
                x.0[Attribute::HtmlPct.index()] = i as f64 / 20.0;
                (x, if i >= 10 { Label::Robot } else { Label::Human })
            })
            .collect();
        AdaBoostModel::train(&samples, &AdaBoostConfig::default())
    }

    fn html_only_session(requests: u64) -> Session {
        let t = SessionTracker::new(TrackerConfig::default());
        let mut key = None;
        for i in 0..requests {
            let r = Request::builder(Method::Get, format!("http://h/{i}.html"))
                .client(ClientIp::new(1))
                .build()
                .unwrap();
            key = Some(
                t.observe(
                    &r,
                    &Response::builder(StatusCode::OK)
                        .header("Content-Type", "text/html")
                        .build(),
                    SimTime::from_secs(i),
                ),
            );
        }
        t.get(&key.unwrap()).unwrap().clone()
    }

    #[test]
    fn abstains_below_minimum() {
        let b = AdaBoostBoundary::new(model_preferring_html_robots(), 20);
        let s = html_only_session(5);
        assert_eq!(b.classify_session(&s), None);
    }

    #[test]
    fn classifies_long_sessions() {
        let b = AdaBoostBoundary::new(model_preferring_html_robots(), 20);
        let s = html_only_session(30);
        // 100% HTML session: robot under this model.
        assert_eq!(b.classify_session(&s), Some(Label::Robot));
    }
}
