//! The campaign front door of the MORE-Stress workspace.
//!
//! The lower crates expose one simulator at a time; real usage is a
//! *campaign* — the paper's `config.yml` shape: one geometry and
//! material set, N TSV arrays, a sweep of thermal loads, one solver
//! configuration. This crate turns that into a first-class, config-driven
//! surface:
//!
//! * [`CampaignSpec`] — the typed scenario model, parsed from a YAML
//!   subset ([`yaml`]) with [`SpecError`]s that carry the offending
//!   1-based line, and printed back canonically by
//!   [`CampaignSpec::to_yaml`] (exact round-trip).
//! * [`CampaignRunner`] — the concurrent job scheduler: many campaigns
//!   admitted together, bounded in-flight jobs, round-robin fairness
//!   across campaigns, one shared simulator (and
//!   [`FactorCache`](morestress_linalg::FactorCache)) per distinct
//!   model, per-job panic/fault containment, and deterministic
//!   campaign-canonical result ordering regardless of completion order.
//! * [`results`] — the stable numeric results schema: the same
//!   two-level `{section: {key: number}}` JSON as the bench record
//!   (`BENCH_PR8.json`), accepted by the `check_bench_json` CI gate.
//! * the `morestress` CLI binary — `morestress campaign run <spec.yml>`.
//!
//! ```
//! use morestress_campaign::{CampaignRunner, CampaignSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CampaignSpec::parse(
//!     "name: demo\n\
//!      geometry:\n\
//!     \x20 height: 50\n\
//!     \x20 pitch: 15\n\
//!     \x20 diameter: 5\n\
//!     \x20 thickness: 0.5\n\
//!      loads:\n\
//!     \x20 - -100\n\
//!      tsv_array:\n\
//!     \x20 - tsv_num_x: 2\n\
//!     \x20\x20  tsv_num_y: 2\n",
//! )?;
//! let reports = CampaignRunner::new().run(&[spec])?;
//! assert_eq!(reports[0].solved(), 1);
//! # Ok(())
//! # }
//! ```

pub mod results;
pub mod runner;
pub mod spec;
pub mod yaml;

pub use runner::{CampaignReport, CampaignRunner, JobOutcome, JobReport, LocalStageCost};
pub use spec::{
    ArraySpec, CampaignSpec, MaterialSpec, ResolutionChoice, SolverChoice, SolverSpec, SpecError,
    SpecErrorKind, VerifyChoice,
};
pub use yaml::{YamlError, YamlErrorKind};
