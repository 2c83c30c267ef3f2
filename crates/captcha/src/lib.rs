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
//! The actual image distortion is abstracted: what matters to every
//! consumer is *who can solve it with what probability*, modelled by
//! [`oracle::SolverProfile`].
//!
//! # Examples
//!
//! ```
//! use botwall_captcha::{CaptchaService, ServingPolicy, SolverProfile};
//! use rand_chacha::rand_core::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let service = CaptchaService::new(ServingPolicy::OptionalWithIncentive, 7);
//! let ch = service.issue();
//! let human = SolverProfile::human_default();
//! // Opt-in is probabilistic; when attempted, humans usually pass.
//! let _outcome: Option<bool> = human.attempt(&ch, &mut rng);
//! // The service re-derives the challenge from its id to check an answer.
//! assert!(service.verify_once(ch.id, ch.answer()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod challenge;
pub mod oracle;
pub mod policy;

pub use challenge::Challenge;
pub use oracle::SolverProfile;
pub use policy::{CaptchaService, ServingPolicy};
