//! Baseline classifiers the paper positions itself against (§5).
//!
//! * [`ua_signatures`] — the ad-hoc per-site signature matching the paper
//!   says "has not been scaling" as robots evolve.
//! * [`navtree`] — a Tan & Kumar-style navigational-pattern decision tree:
//!   accurate offline, but "not adequate for real-time traffic analysis
//!   since it requires a relatively large number of requests".

pub mod navtree;
pub mod ua_signatures;
