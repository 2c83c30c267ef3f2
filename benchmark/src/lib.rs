//! The one-core serial serve benchmark for `botwall-serve`.
//!
//! A load generator pinned to one CPU spawns the server and an origin
//! on that same CPU, sends seeded traffic through the server one
//! operation at a time, and scores every block of operations against
//! the same block sent straight to the origin. See `README.md` for the
//! design and what each metric means.

#![warn(missing_docs)]

pub mod bed;
pub mod client;
pub mod compare;
pub mod content;
pub mod drive;
pub mod layers;
pub mod origin;
pub mod plan;
pub mod replay;
pub mod run;
pub mod spec;
pub mod stats;
pub mod sys;
