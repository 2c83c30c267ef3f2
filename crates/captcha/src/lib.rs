//! CAPTCHA substrate for `botwall`.
//!
//! The paper deploys CAPTCHA as an *optional* test with a bandwidth
//! incentive (§3.1, §4.2): 9.1% of sessions passed it and those passes
//! are treated as ground-truth humans (95.8% of passers executed JS,
//! 99.2% fetched CSS — numbers the Table-1 harness reproduces). It
//! rejects Kandula-style quizzes served to everyone under attack as
//! impractical (§5), so [`policy::ServingPolicy`] has no such mode:
//! a challenge is offered, or, as an enforcement escape hatch, served
//! in place of a throttle.
//!
//! The image distortion is abstracted: a [`Challenge`] is derived from
//! its id under the service's seed, so the service verifies an answer
//! with no issue table, and accepts each id once. Who solves a challenge,
//! and how often, is the in-process clients' model
//! (`botwall_agents::SolverProfile`), not this crate's.
//!
//! # Examples
//!
//! ```
//! use botwall_captcha::{CaptchaService, ServingPolicy};
//!
//! let service = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 7);
//! let ch = service.issue();
//! // The service re-derives the challenge from its id to check an answer,
//! // and an id is redeemed once.
//! assert!(!service.verify_once(ch.id, "wrong"));
//! assert!(service.verify_once(ch.id, ch.answer()));
//! assert!(!service.verify_once(ch.id, ch.answer()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod challenge;
pub mod policy;

pub use challenge::Challenge;
pub use policy::{CaptchaService, ServingPolicy};
