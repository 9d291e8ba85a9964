//! **MORE-Stress** — Model Order Reduction based Efficient Numerical
//! Algorithm for Thermal Stress Simulation of TSV Arrays in 2.5D/3D IC.
//!
//! A from-scratch Rust reproduction of the DATE 2025 paper by Zhu, Wang,
//! Lin, Wang and Huang (arXiv:2411.12690). This facade crate re-exports the
//! whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`rom`] | `morestress-core` | the MORE-Stress algorithm: one-shot local stage, global stage with batched multi-load solves (`solve_array_many`), sub-modeling, reconstruction |
//! | [`fem`] | `morestress-fem` | the full-FEM reference solver ("ANSYS substitute"), materials, stress recovery, batched `solve_thermal_stress_many` |
//! | [`mesh`] | `morestress-mesh` | graded structured hex meshes of unit blocks, arrays and chiplet stacks |
//! | [`linalg`] | `morestress-linalg` | CSR, supernodal sparse Cholesky, CG, GMRES, geometric and RCM orderings, the unified `SolverBackend` layer with `FactorCache` and multi-RHS `solve_many`, the one `LinearSolver` selection every stage maps to a backend, and the shared `WorkPool` runtime every parallel stage runs on |
//! | [`superpos`] | `morestress-superpos` | the linear-superposition baseline |
//! | [`chiplet`] | `morestress-chiplet` | the coarse package model driving sub-modeling |
//! | [`campaign`] | `morestress-campaign` | the campaign front door: YAML scenario specs, the concurrent `CampaignRunner` job scheduler, JSON results, and the `morestress` CLI |
//!
//! Every linear solve in the workspace — reference FEM, ROM global stage,
//! chiplet coarse model — names its solver with `linalg`'s one
//! `LinearSolver` selection and routes through the `SolverBackend` trait:
//! backends are *prepared* once per operator (factorization or
//! preconditioner build) and then solve any number of right-hand sides,
//! task-parallel for batches. A `FactorCache` memoizes prepared backends by
//! the words that determine their operator — for the global stage, the
//! layout and its ROMs — so re-solving the same array under new thermal
//! loads costs two triangular sweeps: no new factorization, no re-assembly.
//!
//! All task parallelism — the n+1 local solves, batched multi-RHS solves,
//! block-wise stress reconstruction — runs on one shared
//! [`WorkPool`](linalg::WorkPool): cap it with the `MORESTRESS_THREADS`
//! environment variable, or locally with `WorkPool::new(cap).install(||
//! ...)`. The cap bounds the pool's resident workers plus one calling
//! thread — it is a hard bound within any one call tree (nested stages
//! share the pool), while each *concurrent* application thread calling in
//! donates its own thread on top. Results are independent of the cap; the
//! `threads` parameters of the stage APIs only narrow a call below it.
//!
//! # Environment knobs
//!
//! One environment variable tunes the runtime without touching code; it
//! is also printed in the `morestress campaign run` header so logs record
//! the effective configuration:
//!
//! | Variable | Effect | Default |
//! |---|---|---|
//! | `MORESTRESS_THREADS` | Global [`WorkPool`](linalg::WorkPool) worker cap — the hard upper bound on resident workers for every parallel stage in the process. | `available_parallelism`, capped at 16 |
//!
//! Every solve is **bitwise identical across caps**: `MORESTRESS_THREADS`
//! changes wall time, never results (pinned by the thread-invariance and
//! campaign determinism suites).
//!
//! # Quickstart
//!
//! ```
//! use more_stress::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One-shot local stage for the paper's TSV (d=5, h=50, t=0.5, p=15 µm).
//! let geom = TsvGeometry::paper_defaults(15.0);
//! let sim = MoreStressSimulator::builder(&geom)
//!     .resolution(BlockResolution::coarse())
//!     .interpolation([3, 3, 3])
//!     .materials(MaterialSet::tsv_defaults())
//!     .build()?;
//! // Global stage: any array size / thermal load, in milliseconds.
//! let layout = BlockLayout::uniform(4, 4, BlockKind::Tsv);
//! let solution = sim.solve_array(&layout, -250.0, &GlobalBc::ClampedTopBottom)?;
//! let stress = sim.sample_midplane(&layout, &solution, -250.0, 4)?;
//! println!("peak von Mises: {:.1} MPa", stress.max());
//!
//! // Batched: many thermal loads from ONE cached factorization.
//! let sweep = sim.solve_array_many(
//!     &layout,
//!     &[-250.0, -150.0, -50.0, 85.0],
//!     &GlobalBc::ClampedTopBottom,
//! )?;
//! assert_eq!(sweep.len(), 4);
//! assert_eq!(sim.factor_cache().misses(), 1); // solve_array reused it too
//! # Ok(())
//! # }
//! ```
//!
//! Larger, slower walkthroughs are kept out of doctests and live in
//! `examples/` — run them with `cargo run --release --example quickstart`
//! (or `placement_sweep`). The paper's tables — array scaling, the chiplet
//! sub-modeling pipeline, the convergence study — regenerate with
//! `morestress repro` (`cargo run --release -p morestress-campaign --
//! repro all`).

pub use morestress_campaign as campaign;
pub use morestress_chiplet as chiplet;
pub use morestress_core as rom;
pub use morestress_fem as fem;
pub use morestress_linalg as linalg;
pub use morestress_mesh as mesh;
pub use morestress_superpos as superpos;

/// The most common imports, bundled.
pub mod prelude {
    pub use morestress_campaign::{CampaignReport, CampaignRunner, CampaignSpec};
    pub use morestress_chiplet::{
        standard_locations, ChipletGeometry, ChipletModel, ChipletResolution, Submodel,
    };
    pub use morestress_core::{
        sample_array_von_mises, GlobalBc, GlobalSolution, InterpolationGrid, LocalStage,
        LocalStageOptions, MoreStressSimulator, ReducedOrderModel, SimulatorBuilder,
    };
    pub use morestress_fem::{
        normalized_mae, sample_von_mises, solve_thermal_stress, solve_thermal_stress_many,
        stress_at, DirichletBcs, LinearSolver, Material, MaterialSet, PlaneGrid, ScalarField2d,
        StressSample,
    };
    pub use morestress_linalg::{
        FactorCache, PreparedSolver, SolveReport, SolverBackend, VerifyPolicy, WorkPool,
    };
    pub use morestress_mesh::{
        array_mesh, unit_block_mesh, BlockKind, BlockLayout, BlockResolution, TsvGeometry,
    };
    pub use morestress_superpos::{reference_midplane_field, SuperpositionSolver};
}
