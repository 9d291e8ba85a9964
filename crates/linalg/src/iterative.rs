//! Preconditioned iterative solvers.
//!
//! The paper solves the global reduced system with GMRES ("Eq. 20 is better
//! solved by iterative methods such as GMRES ... because we do not need to
//! solve the same equation repeatedly in the global stage", §4.3). The global
//! operator is in fact symmetric positive definite (it is a Galerkin
//! projection of an SPD operator), so CG applies too; both are provided,
//! and the benchmark's `iterative.{gmres,cg}_{ms,iters}` metrics compare
//! them on the same operator.

use crate::{axpy, dot, norm2, CsrMatrix, LinalgError};

/// Application of a preconditioner `z ≈ A⁻¹ r`.
///
/// Implementations must be cheap relative to a matrix–vector product.
pub trait Preconditioner {
    /// Computes `z ≈ A⁻¹ r` into `z`.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Jacobi (diagonal) preconditioner.
///
/// # Example
///
/// ```
/// use morestress_linalg::{CooMatrix, JacobiPreconditioner, Preconditioner};
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0);
/// coo.push(1, 1, 2.0);
/// let jac = JacobiPreconditioner::new(&coo.to_csr());
/// let mut z = vec![0.0; 2];
/// jac.apply(&[8.0, 8.0], &mut z);
/// assert_eq!(z, vec![2.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal. Zero diagonal
    /// entries are treated as 1 (no scaling) so the preconditioner is always
    /// well defined.
    pub fn new(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Self { inv_diag }
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Symmetric successive over-relaxation (SSOR) preconditioner.
///
/// `M = (D/ω + L) (ω/(2-ω) D⁻¹) (D/ω + U)` for `A = L + D + U`. Applied via
/// one forward and one backward Gauss–Seidel-like sweep. Symmetric for
/// symmetric `A`, so it is admissible inside CG.
#[derive(Debug, Clone)]
pub struct SsorPreconditioner {
    a: CsrMatrix,
    diag: Vec<f64>,
    omega: f64,
}

impl SsorPreconditioner {
    /// Builds the preconditioner. `omega` must lie in `(0, 2)`; `1.0` gives
    /// symmetric Gauss–Seidel.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `(0, 2)` or a diagonal entry is zero.
    pub fn new(a: &CsrMatrix, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "SSOR omega must be in (0,2)");
        let diag = a.diagonal();
        assert!(
            diag.iter().all(|&d| d != 0.0),
            "SSOR requires a nonzero diagonal"
        );
        Self {
            a: a.clone(),
            diag,
            omega,
        }
    }
}

impl Preconditioner for SsorPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let n = self.a.nrows();
        let w = self.omega;
        // Forward sweep: (D/ω + L) y = r.
        let mut y = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = self.a.row(i);
            let mut s = r[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j < i {
                    s -= v * y[j];
                }
            }
            y[i] = s * w / self.diag[i];
        }
        // Scale: y ← ((2-ω)/ω) D y.
        for i in 0..n {
            y[i] *= (2.0 - w) / w * self.diag[i];
        }
        // Backward sweep: (D/ω + U) z = y.
        for i in (0..n).rev() {
            let (cols, vals) = self.a.row(i);
            let mut s = y[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j > i {
                    s -= v * z[j];
                }
            }
            z[i] = s * w / self.diag[i];
        }
    }
}

/// Outcome of a converged iterative solve.
#[derive(Debug, Clone)]
pub struct IterativeSolution {
    /// The computed solution.
    pub x: Vec<f64>,
    /// Iterations performed (for GMRES: total inner iterations).
    pub iterations: usize,
    /// Final relative residual estimate.
    pub residual: f64,
}

/// Options for [`solve_cg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance `‖r‖/‖b‖`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iter: 10_000,
        }
    }
}

/// Preconditioned conjugate gradients for SPD systems.
///
/// # Errors
///
/// [`LinalgError::DidNotConverge`] if the tolerance is not met within
/// `max_iter` iterations; [`LinalgError::DimensionMismatch`] on shape errors.
///
/// # Example
///
/// ```
/// use morestress_linalg::{solve_cg, CgOptions, CooMatrix, JacobiPreconditioner};
///
/// # fn main() -> Result<(), morestress_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0); coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let sol = solve_cg(&a, &[2.0, 9.0], &JacobiPreconditioner::new(&a), CgOptions::default())?;
/// assert!((sol.x[0] - 1.0).abs() < 1e-9 && (sol.x[1] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn solve_cg<P>(
    a: &CsrMatrix,
    b: &[f64],
    precond: &P,
    opts: CgOptions,
) -> Result<IterativeSolution, LinalgError>
where
    P: Preconditioner + ?Sized,
{
    let n = a.nrows();
    if b.len() != n || a.ncols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "CG",
            expected: n,
            found: b.len(),
        });
    }
    let nb = norm2(b);
    if nb == 0.0 {
        return Ok(IterativeSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    // Last finite relative residual, for honest error reports: the initial
    // iterate x = 0 has ‖b − Ax‖/‖b‖ = 1.
    let mut last_rn = 1.0;
    for it in 0..opts.max_iter {
        a.spmv_into(&p, &mut ap);
        let alpha = rz / dot(&p, &ap);
        if !alpha.is_finite() {
            // Breakdown: pᵀAp ≤ 0 (indefinite operator) or a poisoned
            // value. Spinning to max_iter would only report NaN.
            return Err(LinalgError::DidNotConverge {
                iterations: it,
                residual: last_rn,
                restarts: 0,
            });
        }
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let rn = norm2(&r) / nb;
        if rn <= opts.tol {
            return Ok(IterativeSolution {
                x,
                iterations: it + 1,
                residual: rn,
            });
        }
        if !rn.is_finite() {
            return Err(LinalgError::DidNotConverge {
                iterations: it + 1,
                residual: last_rn,
                restarts: 0,
            });
        }
        last_rn = rn;
        precond.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(LinalgError::DidNotConverge {
        iterations: opts.max_iter,
        residual: last_rn,
        restarts: 0,
    })
}

/// Options for [`solve_gmres`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmresOptions {
    /// Relative residual tolerance `‖r‖/‖b‖`.
    pub tol: f64,
    /// Restart length (Krylov subspace dimension per cycle).
    pub restart: usize,
    /// Maximum number of restart cycles.
    pub max_restarts: usize,
}

impl Default for GmresOptions {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            restart: 60,
            max_restarts: 200,
        }
    }
}

/// Restarted GMRES with left preconditioning, modified Gram–Schmidt and
/// Givens rotations.
///
/// This is the solver the paper prescribes for the global reduced system
/// (§4.3).
///
/// # Errors
///
/// [`LinalgError::DidNotConverge`] if the tolerance is not met within the
/// restart budget; [`LinalgError::DimensionMismatch`] on shape errors.
pub fn solve_gmres<P>(
    a: &CsrMatrix,
    b: &[f64],
    precond: &P,
    opts: GmresOptions,
) -> Result<IterativeSolution, LinalgError>
where
    P: Preconditioner + ?Sized,
{
    let n = a.nrows();
    if b.len() != n || a.ncols() != n {
        return Err(LinalgError::DimensionMismatch {
            context: "GMRES",
            expected: n,
            found: b.len(),
        });
    }
    let nb = norm2(b);
    if nb == 0.0 {
        return Ok(IterativeSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let m = opts.restart.max(1).min(n);
    let mut x = vec![0.0; n];
    let mut total_iters = 0usize;
    let mut cycles = 0usize;

    let mut scratch = vec![0.0; n];
    // Preconditioned rhs norm for the relative stopping criterion (left
    // preconditioning minimizes ‖M⁻¹(b − Ax)‖).
    precond.apply(b, &mut scratch);
    let nmb = norm2(&scratch).max(f64::MIN_POSITIVE);

    for _cycle in 0..opts.max_restarts {
        // r = M⁻¹ (b - A x)
        let ax = a.spmv(&x);
        let raw: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let mut r = vec![0.0; n];
        precond.apply(&raw, &mut r);
        let beta = norm2(&r);
        if !beta.is_finite() {
            // A poisoned iterate cannot recover through more restarts.
            return Err(LinalgError::DidNotConverge {
                iterations: total_iters,
                residual: beta,
                restarts: cycles,
            });
        }
        if beta / nmb <= opts.tol {
            let rn = a.residual(&x, b);
            return Ok(IterativeSolution {
                x,
                iterations: total_iters,
                residual: rn,
            });
        }

        // Arnoldi with Givens rotations on the Hessenberg matrix.
        let mut v: Vec<Vec<f64>> = Vec::with_capacity(m + 1);
        v.push(r.iter().map(|ri| ri / beta).collect());
        let mut h = vec![vec![0.0f64; m]; m + 1]; // h[i][j]
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        g[0] = beta;
        let mut k_used = 0usize;
        let mut converged = false;
        cycles += 1;

        for j in 0..m {
            total_iters += 1;
            // w = M⁻¹ A v_j
            a.spmv_into(&v[j], &mut scratch);
            let mut w = vec![0.0; n];
            precond.apply(&scratch, &mut w);
            // Modified Gram–Schmidt.
            for (i, vi) in v.iter().enumerate() {
                let hij = dot(&w, vi);
                h[i][j] = hij;
                axpy(-hij, vi, &mut w);
            }
            let hnorm = norm2(&w);
            h[j + 1][j] = hnorm;
            // Apply previous Givens rotations to column j.
            for i in 0..j {
                let t = cs[i] * h[i][j] + sn[i] * h[i + 1][j];
                h[i + 1][j] = -sn[i] * h[i][j] + cs[i] * h[i + 1][j];
                h[i][j] = t;
            }
            // New rotation to kill h[j+1][j].
            let denom = (h[j][j] * h[j][j] + h[j + 1][j] * h[j + 1][j]).sqrt();
            if denom == 0.0 {
                cs[j] = 1.0;
                sn[j] = 0.0;
            } else {
                cs[j] = h[j][j] / denom;
                sn[j] = h[j + 1][j] / denom;
            }
            h[j][j] = cs[j] * h[j][j] + sn[j] * h[j + 1][j];
            h[j + 1][j] = 0.0;
            g[j + 1] = -sn[j] * g[j];
            g[j] *= cs[j];
            k_used = j + 1;

            let rel = g[j + 1].abs() / nmb;
            if rel <= opts.tol || hnorm == 0.0 {
                converged = true;
                break;
            }
            v.push(w.iter().map(|wi| wi / hnorm).collect());
        }

        // Back-substitute y from the triangularized Hessenberg system.
        let mut y = vec![0.0f64; k_used];
        for i in (0..k_used).rev() {
            let mut s = g[i];
            for j in (i + 1)..k_used {
                s -= h[i][j] * y[j];
            }
            y[i] = s / h[i][i];
        }
        for (j, yj) in y.iter().enumerate() {
            axpy(*yj, &v[j], &mut x);
        }
        if converged {
            let rn = a.residual(&x, b);
            return Ok(IterativeSolution {
                x,
                iterations: total_iters,
                residual: rn,
            });
        }
    }
    let rn = a.residual(&x, b);
    Err(LinalgError::DidNotConverge {
        iterations: total_iters,
        residual: rn,
        restarts: cycles,
    })
}

/// Options for [`refine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOptions {
    /// Target relative residual `‖b − Ax‖/‖b‖`.
    pub tol: f64,
    /// Maximum correction sweeps before giving up.
    pub max_sweeps: usize,
}

impl Default for RefineOptions {
    fn default() -> Self {
        Self {
            tol: 1e-12,
            max_sweeps: 4,
        }
    }
}

/// Iterative refinement of a direct solve: repeatedly solves the correction
/// equation `F dx = b − A x` with the supplied (possibly approximate or
/// regularized) factor application `correct` and updates `x += dx`.
///
/// Returns `(sweeps_performed, final_relative_residual)`. Refinement never
/// makes the iterate worse: a sweep whose update fails to strictly reduce
/// the residual is rolled back and the loop stops (stall detection), so the
/// caller can fall to the next rung of the degradation ladder with the best
/// iterate found so far still in `x`.
pub fn refine<F>(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    correct: F,
    opts: RefineOptions,
) -> (usize, f64)
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let mut best = a.residual(x, b);
    let mut sweeps = 0usize;
    let mut prev = vec![0.0; x.len()];
    while sweeps < opts.max_sweeps && best > opts.tol && best.is_finite() {
        let ax = a.spmv(x);
        let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let dx = correct(&r);
        prev.copy_from_slice(x);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        let rn = a.residual(x, b);
        if rn.is_nan() || rn >= best {
            // Stalled or regressed (a NaN residual counts): keep the best
            // iterate seen.
            x.copy_from_slice(&prev);
            break;
        }
        best = rn;
        sweeps += 1;
    }
    (sweeps, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// The identity preconditioner (no preconditioning).
    struct IdentityPreconditioner;

    impl Preconditioner for IdentityPreconditioner {
        fn apply(&self, r: &[f64], z: &mut [f64]) {
            z.copy_from_slice(r);
        }
    }

    fn spd_test_matrix(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    fn nonsymmetric_test_matrix(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 5.0);
            if i > 0 {
                coo.push(i, i - 1, -2.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_solves_spd() {
        let a = spd_test_matrix(64);
        let x_true: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let b = a.spmv(&x_true);
        let sol = solve_cg(&a, &b, &JacobiPreconditioner::new(&a), CgOptions::default()).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-9);
    }

    #[test]
    fn cg_with_ssor_converges_faster_than_identity() {
        let a = spd_test_matrix(256);
        let b: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos()).collect();
        let id = solve_cg(&a, &b, &IdentityPreconditioner, CgOptions::default()).unwrap();
        let ssor = SsorPreconditioner::new(&a, 1.0);
        let pre = solve_cg(&a, &b, &ssor, CgOptions::default()).unwrap();
        assert!(pre.iterations <= id.iterations);
        assert!(a.residual(&pre.x, &b) < 1e-9);
    }

    #[test]
    fn gmres_solves_nonsymmetric() {
        let a = nonsymmetric_test_matrix(80);
        let x_true: Vec<f64> = (0..80).map(|i| (i as f64 / 11.0).sin()).collect();
        let b = a.spmv(&x_true);
        let sol = solve_gmres(
            &a,
            &b,
            &JacobiPreconditioner::new(&a),
            GmresOptions::default(),
        )
        .unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-8, "residual {}", sol.residual);
    }

    #[test]
    fn gmres_restart_path_is_exercised() {
        let a = spd_test_matrix(100);
        let b = vec![1.0; 100];
        let opts = GmresOptions {
            restart: 5,
            max_restarts: 500,
            tol: 1e-10,
        };
        let sol = solve_gmres(&a, &b, &IdentityPreconditioner, opts).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-8);
        assert!(sol.iterations > 5, "must have restarted at least once");
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = spd_test_matrix(10);
        let sol = solve_cg(
            &a,
            &[0.0; 10],
            &IdentityPreconditioner,
            CgOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.x, vec![0.0; 10]);
        let sol = solve_gmres(
            &a,
            &[0.0; 10],
            &IdentityPreconditioner,
            GmresOptions::default(),
        )
        .unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        let a = spd_test_matrix(200);
        let b = vec![1.0; 200];
        let res = solve_cg(
            &a,
            &b,
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-14,
                max_iter: 2,
            },
        );
        assert!(matches!(res, Err(LinalgError::DidNotConverge { .. })));
    }

    #[test]
    fn cg_breakdown_reports_finite_state() {
        // A poisoned operator value turns alpha NaN on the first step; the
        // old loop would spin to max_iter and report a NaN residual.
        let mut a = spd_test_matrix(8);
        a.values_mut()[3] = f64::NAN;
        let res = solve_cg(
            &a,
            &[1.0; 8],
            &IdentityPreconditioner,
            CgOptions {
                tol: 1e-12,
                max_iter: 10_000,
            },
        );
        match res {
            Err(LinalgError::DidNotConverge {
                iterations,
                residual,
                restarts,
            }) => {
                assert!(iterations < 10_000, "breakdown must exit early");
                assert!(residual.is_finite(), "residual must be the last finite one");
                assert_eq!(restarts, 0);
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn gmres_error_reports_restart_count() {
        let a = spd_test_matrix(200);
        let b = vec![1.0; 200];
        let res = solve_gmres(
            &a,
            &b,
            &IdentityPreconditioner,
            GmresOptions {
                tol: 1e-14,
                restart: 4,
                max_restarts: 3,
            },
        );
        match res {
            Err(LinalgError::DidNotConverge {
                iterations,
                restarts,
                ..
            }) => {
                assert_eq!(restarts, 3);
                assert_eq!(iterations, 12);
            }
            other => panic!("expected DidNotConverge, got {other:?}"),
        }
    }

    #[test]
    fn refinement_improves_a_perturbed_factor_solve() {
        use crate::SupernodalCholesky;
        let a = spd_test_matrix(50);
        let x_true: Vec<f64> = (0..50).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let b = a.spmv(&x_true);
        // Factor a shifted operator — a deliberately wrong "factor" whose
        // single solve leaves an O(shift) error that refinement removes.
        let mut shifted = a.clone();
        for i in 0..50 {
            shifted.add_at(i, i, 0.05);
        }
        let factor = SupernodalCholesky::factor(&shifted).unwrap();
        let mut x = factor.solve(&b);
        let coarse = a.residual(&x, &b);
        let (sweeps, rn) = refine(
            &a,
            &b,
            &mut x,
            |r| factor.solve(r),
            RefineOptions {
                tol: 1e-12,
                max_sweeps: 40,
            },
        );
        assert!(sweeps > 0, "refinement must engage");
        assert!(rn < coarse * 1e-3, "refined {rn} vs coarse {coarse}");
        assert!((a.residual(&x, &b) - rn).abs() < 1e-14);
    }

    #[test]
    fn refinement_rolls_back_a_stalling_sweep() {
        let a = spd_test_matrix(10);
        let b = vec![1.0; 10];
        // A "correction" that makes things worse: refinement must keep the
        // initial iterate untouched and report zero sweeps.
        let mut x = vec![0.25; 10];
        let before = x.clone();
        let r0 = a.residual(&x, &b);
        let (sweeps, rn) = refine(
            &a,
            &b,
            &mut x,
            |r| r.iter().map(|v| v * 100.0).collect(),
            RefineOptions::default(),
        );
        assert_eq!(sweeps, 0);
        assert_eq!(x, before);
        assert!((rn - r0).abs() < 1e-14);
    }

    #[test]
    fn gmres_and_cg_agree_on_spd() {
        let a = spd_test_matrix(60);
        let b: Vec<f64> = (0..60).map(|i| ((i % 5) as f64) - 2.0).collect();
        let jac = JacobiPreconditioner::new(&a);
        let x1 = solve_cg(&a, &b, &jac, CgOptions::default()).unwrap().x;
        let x2 = solve_gmres(&a, &b, &jac, GmresOptions::default())
            .unwrap()
            .x;
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-7);
        }
    }
}
