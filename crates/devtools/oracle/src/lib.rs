//! Test oracles for the MORE-Stress workspace: reference implementations
//! the tests compare production code against.
//!
//! No product crate depends on this one. Every manifest that names it
//! does so under `[dev-dependencies]`, so nothing here ships in a product
//! build:
//!
//! * [`SparseCholesky`] — the scalar up-looking sparse Cholesky, with an
//!   elimination-tree symbolic analysis of its own (permuted copy,
//!   `etree`, per-row `ereach`) that shares nothing with the supernodal
//!   analysis of [`SupernodalCholesky`](morestress_linalg::SupernodalCholesky),
//!   the factorization the solver backends run.
//! * [`DenseLu`] — dense LU with partial pivoting, the reference for small
//!   dense solves.
//! * [`ScalarKernel`] — the plain slice loops of the dense microkernel,
//!   the per-loop reference of
//!   [`BlockedKernel`](morestress_linalg::BlockedKernel).
//! * [`transposed`], [`asymmetry`] and [`dense_asymmetry`] — the symmetry
//!   checks the assembly tests run on stiffness operators.
//!
//! Unit tests inside `morestress-linalg` cannot use this crate: it depends
//! on linalg, so its types would come from a second copy of that crate.
//! linalg's integration tests (`crates/linalg/tests`) can, and that is
//! where every comparison against these oracles lives.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are the FEM idiom

mod cholesky;
mod dense;
mod kernel;
mod sparse;

pub use cholesky::SparseCholesky;
pub use dense::{dense_asymmetry, DenseLu, LuError};
pub use kernel::ScalarKernel;
pub use sparse::{asymmetry, transposed};
