//! 3-D linear thermoelastic finite elements on hexahedral meshes.
//!
//! This crate is the "ANSYS substitute" of the MORE-Stress reproduction: it
//! implements the governing equations of §3 of the paper (equilibrium,
//! isotropic thermoelastic constitutive law, small-strain kinematics) with
//! trilinear Hex8 elements, 2×2×2 Gauss quadrature, symmetric Dirichlet
//! elimination and direct (sparse Cholesky) or iterative (CG/GMRES) solves.
//! The solver is named by `morestress-linalg`'s [`LinearSolver`],
//! re-exported here — the one selection every stage of the workspace
//! shares.
//!
//! It plays two roles:
//!
//! 1. **Reference solver** — [`solve_thermal_stress`] on the full array mesh
//!    produces the ground truth against which both MORE-Stress and the
//!    linear-superposition baseline are scored (normalized MAE of the
//!    mid-plane von Mises field, exactly as in Tables 1–3 of the paper).
//! 2. **Building block** — the one-shot local stage of the ROM assembles its
//!    unit-block operator with [`assemble_system`] and reuses the same
//!    element kernels, so the ROM error really is *only* the interface
//!    interpolation error, as the paper argues.
//!
//! # Example
//!
//! ```
//! use morestress_fem::{solve_thermal_stress, DirichletBcs, LinearSolver, MaterialSet};
//! use morestress_mesh::{unit_block_mesh, BlockResolution, TsvGeometry};
//!
//! # fn main() -> Result<(), morestress_fem::FemError> {
//! let geom = TsvGeometry::paper_defaults(15.0);
//! let mesh = unit_block_mesh(&geom, &BlockResolution::coarse(), true);
//! let mats = MaterialSet::tsv_defaults();
//! // Clamp top and bottom (scenario 1 boundary conditions).
//! let mut bcs = DirichletBcs::new();
//! let (_, _, npz) = mesh.lattice_dims();
//! bcs.clamp_nodes(&mesh.plane_nodes(2, 0));
//! bcs.clamp_nodes(&mesh.plane_nodes(2, npz - 1));
//! let sol = solve_thermal_stress(&mesh, &mats, -250.0, &bcs, LinearSolver::DirectCholesky)?;
//! assert_eq!(sol.displacement.len(), 3 * mesh.num_nodes());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are the FEM idiom

mod assemble;
mod bc;
mod driver;
mod element;
mod error;
mod material;
mod stress;

pub use assemble::{assemble_system, AssembledSystem};
pub use bc::{DirichletBcs, ReducedSystem};
pub use driver::{solve_thermal_stress, solve_thermal_stress_many, FemSolution, SolveStats};
pub use element::{element_stiffness, element_thermal_load, Hex8, GAUSS_2X2X2};
pub use error::FemError;
pub use material::{Material, MaterialSet};
pub use morestress_linalg::LinearSolver;
pub use stress::{
    normalized_mae, sample_von_mises, stress_at, PlaneGrid, ScalarField2d, StressSample,
};
