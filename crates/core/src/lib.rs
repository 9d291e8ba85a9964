//! **MORE-Stress**: Model Order Reduction based Efficient Numerical
//! Algorithm for Thermal Stress Simulation of TSV Arrays in 2.5D/3D IC
//! (DATE 2025) — the core algorithm.
//!
//! TSV arrays are periodic: every unit block (one Cu via + liner in a p×p×h
//! silicon cell) is identical. MORE-Stress exploits this in two stages:
//!
//! * **One-shot local stage** ([`LocalStage`]) — a coarse grid of
//!   `(nx, ny, nz)` Lagrange interpolation nodes is placed on the *surface*
//!   of the unit block ([`InterpolationGrid`]). For every surface-node DoF,
//!   a Dirichlet problem on the block's fine mesh is solved (one sparse
//!   Cholesky factorization, n+1 right-hand sides, solved in parallel); the
//!   solutions are the *local basis functions* `f_0 … f_{n−1}` plus the
//!   thermal bubble `f_T` (Eq. 15). Galerkin projection yields the abstract
//!   element matrices `A_elem = FᵀA_local F`, `b_elem = Fᵀ b_local`
//!   (Eqs. 18–19), stored in a [`ReducedOrderModel`].
//! * **Global stage** ([`GlobalStage`]) — the array becomes an abstract
//!   mesh of such elements sharing surface nodes; standard assembly
//!   produces a small sparse system solved by GMRES (the paper's choice),
//!   CG or a direct factor — named by `morestress-linalg`'s one
//!   [`LinearSolver`](morestress_linalg::LinearSolver) selection, the same
//!   one the full-FEM driver takes. Displacement and stress anywhere are
//!   reconstructed from the basis.
//!
//! The only approximation is the Lagrange interpolation of the block
//! boundary displacement, so the error decays rapidly as `(nx, ny, nz)`
//! grows (Table 3 / Fig. 6 of the paper).
//!
//! Sub-modeling (§4.4) is supported through [`GlobalBc::SubmodelBoundary`]:
//! displacements interpolated from a coarse package-level solution are
//! imposed on the array boundary, and dummy (pure-Si) blocks can pad the
//! array via [`BlockLayout::padded`](morestress_mesh::BlockLayout::padded).
//!
//! # Quickstart
//!
//! ```
//! use morestress_core::{GlobalBc, MoreStressSimulator};
//! use morestress_mesh::{BlockKind, BlockLayout, TsvGeometry};
//!
//! # fn main() -> Result<(), morestress_core::RomError> {
//! let geom = TsvGeometry::paper_defaults(15.0);
//! let sim = MoreStressSimulator::builder(&geom).build()?;
//! // Solve a 4×4 standalone array under the paper's thermal load.
//! let layout = BlockLayout::uniform(4, 4, BlockKind::Tsv);
//! let solution = sim.solve_array(&layout, -250.0, &GlobalBc::ClampedTopBottom)?;
//! let field = sim.sample_midplane(&layout, &solution, -250.0, 10)?;
//! assert!(field.max() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are the FEM idiom

mod error;
mod global;
mod interp;
mod local;
mod model;
mod reconstruct;
mod simulator;
mod symmetry;

pub use error::RomError;
pub use global::{GlobalBc, GlobalLattice, GlobalSolution, GlobalStage, GlobalStats};
pub use interp::{lagrange_weights, InterpolationGrid};
pub use local::{LocalStage, LocalStageOptions, LocalStageStats};
pub use model::ReducedOrderModel;
pub use reconstruct::sample_array_von_mises;
pub use simulator::{MoreStressSimulator, SimulatorBuilder};
