//! Dense and sparse linear algebra substrate for the MORE-Stress simulator.
//!
//! The MORE-Stress paper implements its numerics on top of PETSc; this crate
//! re-implements the subset actually needed by the algorithm, from scratch:
//!
//! * [`DenseMatrix`] — small dense matrices with LU solves (element matrices,
//!   Galerkin-projected reduced operators).
//! * [`CooMatrix`] / [`CsrMatrix`] — sparse matrix assembly and kernels
//!   (SpMV, sub-matrix extraction, transpose).
//! * [`SparseCholesky`] — the scalar up-looking sparse Cholesky
//!   factorization with elimination-tree symbolic analysis. No backend
//!   runs it: it is the independent reference the differential tests pin
//!   [`SupernodalCholesky`] against, and the home of the `etree`/`ereach`
//!   symbolic routines the supernodal analysis shares.
//! * [`DenseKernel`] / [`KernelChoice`] — the swappable dense microkernel
//!   layer (`kernel.rs`) every flop-bearing loop routes through: the
//!   supernodal rank-k updates, panel Cholesky, triangular sweeps, the
//!   contained shards' per-column clique condensation and the Krylov
//!   dot/axpy primitives. Two
//!   implementations: [`BlockedKernel`] (unrolled `mul_add` tiles with
//!   runtime FMA dispatch — the one production kernel) and
//!   [`ScalarKernel`] (the original loops, the differential oracle).
//! * [`SupernodalCholesky`] — the supernodal blocked Cholesky the
//!   `DirectCholesky` backend runs: dense column panels from
//!   relaxed supernode amalgamation, rank-k panel updates, and blocked
//!   multi-RHS triangular sweeps (`solve_panel`), so the paper's
//!   factor-once/solve-many economics (§4.2) run on dense contiguous
//!   kernels. The numeric factorization runs as an elimination-tree task
//!   DAG on the [`WorkPool`] ([`WorkPool::scope_dag`]), bitwise identical
//!   to the serial sweep at every pool cap. Orderings: geometric
//!   dissection of the block grid an operator's [`PartitionHint`]
//!   describes, or RCM; [`FillOrdering::Auto`] (the default) picks the
//!   first when the operator is hinted and the second otherwise.
//! * [`solve_cg`] / [`solve_gmres`] — preconditioned iterative solvers used
//!   by the global stage (the paper solves the global system with GMRES).
//! * [`MemoryFootprint`] — analytic heap accounting used to report the memory
//!   columns of Tables 1 and 2.
//! * [`SolverBackend`] / [`PreparedSolver`] — the unified solver backend
//!   layer every solve site in the workspace routes through: prepare once
//!   (factor or build a preconditioner), then solve any number of
//!   right-hand sides, batched task-parallel via
//!   [`PreparedSolver::solve_many`].
//! * [`FactorCache`] — content-addressed memo of prepared solvers, so
//!   repeated solves over the same operator (many thermal loads on one
//!   lattice) pay for one factorization; entries can be tagged with an
//!   exact provenance key, so a caller that knows what determines its
//!   operator finds it without assembling it again.
//! * [`ShardPlan`] / [`Sharded`] — domain-decomposition sharding of the
//!   operator: a K-way interior/interface partition cut from the block grid
//!   of the operator's [`PartitionHint`], and a Schur-complement backend
//!   that factors every interior block independently (concurrently, each
//!   bordered by its interface DoFs so one partial factorization also
//!   yields its Schur contribution) and couples them through one small
//!   factored interface system — so no single factorization ever spans the
//!   whole operator.
//! * [`WorkPool`] — the shared worker-pool runtime behind every parallel
//!   stage in the workspace (the n+1 local solves, batched multi-RHS global
//!   solves, block-wise stress reconstruction). One lazily-started set of
//!   resident workers replaces the per-call scoped thread spawns the
//!   stages used to pay for individually.
//!
//! # Threading model
//!
//! All parallelism routes through [`WorkPool::current`]: the process-wide
//! [`WorkPool::global`] pool by default (capped by the `MORESTRESS_THREADS`
//! environment variable, else `available_parallelism` clamped to 16), or an
//! explicitly-capped pool within a [`WorkPool::install`] scope. The
//! `threads` knobs across the workspace (`solve_many`'s `threads`
//! parameter, `LocalStageOptions::threads`) are *cap overrides*: they can
//! narrow a call below the pool cap but never widen it, and they never
//! spawn anything themselves; the global stage has no knob and runs at the
//! installed cap. Nested stages share the one pool, so within one call
//! tree live threads never exceed the cap however stages compose (independent application threads calling
//! in concurrently each add their own caller slot on top of the resident
//! workers — see the [`WorkPool`] module docs); [`SolveReport::workers`]
//! records the worker count a solve actually used.
//!
//! # Example
//!
//! ```
//! use morestress_linalg::{CooMatrix, SparseCholesky};
//!
//! # fn main() -> Result<(), morestress_linalg::LinalgError> {
//! // A small SPD system: 2x2 finite-difference Laplacian + identity.
//! let mut coo = CooMatrix::new(3, 3);
//! coo.push(0, 0, 3.0); coo.push(0, 1, -1.0);
//! coo.push(1, 0, -1.0); coo.push(1, 1, 3.0); coo.push(1, 2, -1.0);
//! coo.push(2, 1, -1.0); coo.push(2, 2, 3.0);
//! let a = coo.to_csr();
//! let chol = SparseCholesky::factor(&a)?;
//! let x = chol.solve(&[1.0, 2.0, 3.0]);
//! let r = a.residual(&x, &[1.0, 2.0, 3.0]);
//! assert!(r < 1e-12);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // indexed loops over parallel arrays are the FEM idiom

mod backend;
mod cholesky;
mod dense;
mod error;
pub mod fault;
mod iterative;
mod kernel;
mod memory;
mod ordering;
mod pool;
mod schur;
mod shard;
mod sparse;
mod supernodal;
mod vecops;

pub use backend::{
    default_solve_threads, matrix_fingerprint, Auto, BackendSolution, BatchSolution, Cg,
    DegradationStep, DegradationTrail, DirectCholesky, FactorCache, Gmres, PrecondSpec,
    PreparedSolver, Resilient, Rung, SolveReport, SolverBackend, VerifyPolicy,
    MAX_DEGRADATION_STEPS,
};
pub use cholesky::SparseCholesky;
pub use dense::{DenseLu, DenseMatrix};
pub use error::LinalgError;
pub use fault::FaultPlan;
pub use iterative::{
    refine, solve_cg, solve_gmres, CgOptions, GmresOptions, IdentityPreconditioner,
    IterativeSolution, JacobiPreconditioner, Preconditioner, RefineOptions, SsorPreconditioner,
};
pub use kernel::{BlockedKernel, DenseKernel, KernelChoice, ScalarKernel};
pub use memory::MemoryFootprint;
pub use ordering::{geometric_dissection, reverse_cuthill_mckee, FillOrdering, Permutation};
pub use pool::{TaskDag, WorkPool};
pub use schur::Sharded;
pub use shard::{PartitionHint, ShardPlan, ShardPlanStats};
pub use sparse::{CooMatrix, CsrMatrix};
pub use supernodal::{SupernodalCholesky, SupernodalOptions, SupernodeStats};
pub use vecops::{axpy, dot, dot_panel, norm2, norm_inf, scale, sub};

/// Shared unit-test operators (the direct-solver modules all exercise the
/// same 5-point lattice).
#[cfg(test)]
pub(crate) mod test_operators {
    use crate::{CooMatrix, CsrMatrix, PartitionHint};

    /// A 2-D 5-point Laplacian with a +0.1-shifted diagonal (SPD also with
    /// Neumann-ish edges): `nx · ny` DoFs.
    pub(crate) fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
        let n = nx * ny;
        let id = |i: usize, j: usize| j * nx + i;
        let mut coo = CooMatrix::new(n, n);
        for j in 0..ny {
            for i in 0..nx {
                let me = id(i, j);
                coo.push(me, me, 4.1);
                let mut link = |other: usize| coo.push(me, other, -1.0);
                if i > 0 {
                    link(id(i - 1, j));
                }
                if i + 1 < nx {
                    link(id(i + 1, j));
                }
                if j > 0 {
                    link(id(i, j - 1));
                }
                if j + 1 < ny {
                    link(id(i, j + 1));
                }
            }
        }
        coo.to_csr()
    }

    /// A `(bx·m+1) × (by·m+1)` point grid with 5-point-stencil coupling,
    /// and the block spans of a `bx × by` block grid of `m×m`-cell blocks.
    /// Neighboring points always share a block, so the hint is consistent
    /// with the sparsity — the shape of the reduced global operator with
    /// one DoF per surface node. The hint is returned beside the operator,
    /// not attached to it.
    pub(crate) fn hinted_grid(bx: usize, by: usize, m: usize) -> (CsrMatrix, PartitionHint) {
        let (nx, ny) = (bx * m + 1, by * m + 1);
        let idx = |x: usize, y: usize| y * nx + x;
        let span1 = |c: usize, blocks: usize| -> [usize; 2] {
            if c.is_multiple_of(m) {
                let plane = c / m;
                [plane.saturating_sub(1), plane.min(blocks - 1)]
            } else {
                [c / m, c / m]
            }
        };
        let mut coo = CooMatrix::new(nx * ny, nx * ny);
        let mut spans = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            for x in 0..nx {
                let v = idx(x, y);
                coo.push(v, v, 4.0);
                if x + 1 < nx {
                    coo.push(v, idx(x + 1, y), -1.0);
                    coo.push(idx(x + 1, y), v, -1.0);
                }
                if y + 1 < ny {
                    coo.push(v, idx(x, y + 1), -1.0);
                    coo.push(idx(x, y + 1), v, -1.0);
                }
                let sx = span1(x, bx);
                let sy = span1(y, by);
                spans.push([sx[0], sx[1], sy[0], sy[1]]);
            }
        }
        (coo.to_csr(), PartitionHint::new([bx, by], spans))
    }

    /// The [`hinted_grid`] operator carrying its hint: what `Auto` and
    /// `Geometric` dissect along the block grid.
    pub(crate) fn hinted_lattice(bx: usize, by: usize, m: usize) -> CsrMatrix {
        let (a, hint) = hinted_grid(bx, by, m);
        a.with_partition_hint(std::sync::Arc::new(hint))
    }
}
