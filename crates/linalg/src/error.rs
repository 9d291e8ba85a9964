//! Error taxonomy for the linear algebra stack.
//!
//! Every fallible kernel in this crate funnels into the one [`LinalgError`]
//! enum, so callers (the backend layer, the Schur solver, the ROM stages in
//! `morestress-core`) match on a single closed-ish surface. The table below
//! maps each variant to the layers that can produce it and to the rung of
//! the resilience ladder (`Resilient` / `Auto` in `backend.rs`) that handles
//! it:
//!
//! | Variant                 | Produced by                                             | Ladder handling                                                        |
//! |-------------------------|---------------------------------------------------------|------------------------------------------------------------------------|
//! | `DimensionMismatch`     | shape checks in every solve/prepare entry point          | never recovered — a caller bug, returned immediately                    |
//! | `NonFinite`             | operator/RHS/solution scans in `prepare` and `solve`     | never recovered — poisoned input data, returned immediately             |
//! | `NotPositiveDefinite`   | supernodal Cholesky pivots (per shard in Schur)          | diagonal-shift regularized re-factor, then GMRES                        |
//! | `DidNotConverge`        | CG/GMRES budget exhaustion, verified-residual enforcement| iterative refinement reusing the factor, then the next rung, then GMRES |
//!
//! The ladder records every recovery it performs as a `DegradationStep` in
//! `SolveReport::degradation`, so a successful-but-degraded solve keeps the
//! original failure reason instead of discarding it.

use std::error::Error;
use std::fmt;

/// Errors produced by the linear algebra kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum LinalgError {
    /// Matrix dimensions are inconsistent with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the operation that failed.
        context: &'static str,
        /// The dimension that was expected.
        expected: usize,
        /// The dimension that was supplied.
        found: usize,
    },
    /// A Cholesky factorization visited a non-positive pivot: the matrix is
    /// not (numerically) symmetric positive definite.
    NotPositiveDefinite {
        /// Row/column at which factorization broke down.
        row: usize,
        /// The offending pivot value.
        pivot: f64,
    },
    /// An iterative solver exhausted its iteration budget without reaching
    /// the requested tolerance.
    DidNotConverge {
        /// Iterations performed (for GMRES, total inner iterations).
        iterations: usize,
        /// Relative residual at the final iterate.
        residual: f64,
        /// Restart cycles performed (GMRES; 0 for CG and direct verifies).
        restarts: usize,
    },
    /// A NaN or infinity was found in input or output data — a poisoned
    /// operator value, right-hand side, or computed solution.
    NonFinite {
        /// Which vector/matrix the scan was over ("operator", "rhs",
        /// "solution").
        context: &'static str,
        /// Index of the first offending entry (nnz index for operators,
        /// element index for vectors).
        index: usize,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::DimensionMismatch {
                context,
                expected,
                found,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, found {found}"
            ),
            LinalgError::NotPositiveDefinite { row, pivot } => write!(
                f,
                "matrix is not positive definite (pivot {pivot:e} at row {row})"
            ),
            LinalgError::DidNotConverge {
                iterations,
                residual,
                restarts,
            } => {
                write!(
                    f,
                    "iterative solver did not converge after {iterations} iterations \
                     (relative residual {residual:e}"
                )?;
                if *restarts > 0 {
                    write!(f, ", {restarts} restarts")?;
                }
                write!(f, ")")
            }
            LinalgError::NonFinite { context, index } => {
                write!(f, "non-finite value in {context} at index {index}")
            }
        }
    }
}

impl Error for LinalgError {}
