//! The benchmark of the MORE-Stress workspace: four named workloads, six
//! gated end-to-end metrics, and a traced run that splits the same
//! workloads layer by layer. See `README.md` beside this crate.
//!
//! Nothing here is product code, and nothing here changes product code:
//! every number comes from timing calls into the public functions of
//! `crates/*` and from the counters those functions already return.

#![warn(missing_docs)]

pub mod calib;
pub mod compare;
pub mod env;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workload;
