//! Experiment harnesses for the `botwall` reproduction.
//!
//! One public function per paper table/figure, shared between the binary
//! targets (`table1`, `figure2`, `figure3`, `figure4`, `table2`,
//! `overhead`, `decoys`, `staged`, `ablate_ml`) and the integration tests.
//! Every harness is deterministic in its seed. [`report`] aggregates
//! Table 1 and Figure 2 over the sessions a run completes.
//!
//! The criterion benches in `benches/` time what the end-to-end
//! `benchmark/` harness holds fixed or cannot drive: thread and reactor
//! scaling, million-session occupancy, parameter sweeps, hostile pages
//! and the offline learner. The request path's per-layer and end-to-end
//! numbers are `benchmark/`'s alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capacity;
pub mod corpus;
pub mod escalation;
pub mod experiments;
pub mod report;

pub use capacity::{capacity_request, prefill, touch, zipf_traffic, Zipf};
pub use corpus::{build_ml_corpus, CorpusConfig};
pub use escalation::{run_escalation_eval, AdversaryRow, EvalReport};
pub use experiments::*;
pub use report::{Figure2Report, RequestCdf, Table1Report};
