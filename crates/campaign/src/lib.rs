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
//!   1-based line.
//! * [`CampaignRunner`] — the campaign scheduler: many campaigns run
//!   together, one task per array (all of its loads in one batched
//!   solve), at most pool-cap arrays in flight, one shared simulator (and
//!   [`FactorCache`](morestress_linalg::FactorCache)) per distinct
//!   model, per-job panic/fault containment, and deterministic
//!   campaign-canonical result ordering.
//! * [`results`] — the stable numeric results schema: a two-level
//!   `{section: {key: number}}` JSON record, its writer, and the reader
//!   and checker behind `morestress check`.
//! * the `morestress` CLI binary, the workspace's one command line —
//!   `morestress campaign run <spec.yml>`, `morestress repro` (the paper's
//!   tables) and `morestress check <record.json>` (the results schema).
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
