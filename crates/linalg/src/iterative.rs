//! The Krylov engines: preconditioned CG, restarted GMRES and iterative
//! refinement.
//!
//! The paper solves the global reduced system with GMRES ("Eq. 20 is better
//! solved by iterative methods such as GMRES ... because we do not need to
//! solve the same equation repeatedly in the global stage", §4.3). The global
//! operator is in fact symmetric positive definite (it is a Galerkin
//! projection of an SPD operator), so CG applies too; both are provided,
//! and the benchmark's `iterative.{gmres,cg}_{ms,iters}` metrics compare
//! them on the same operator.
//!
//! Everything here is private to the crate. The product reaches it only
//! through the backends: `Cg` and `Gmres` (Jacobi), `Auto`'s iterative arm
//! (SSOR-CG), and the `Resilient` ladder's refinement and GMRES rungs. A
//! preconditioner is one [`Precond`] value, applied against the operator
//! the prepared solver holds.

use crate::backend::RhsSolve;
use crate::{axpy, dot, norm2, CsrMatrix, LinalgError};

/// SSOR's relaxation factor ω on `Auto`'s iterative arm.
const SSOR_OMEGA: f64 = 1.2;

/// GMRES restart length: the Krylov subspace dimension of one cycle.
pub(crate) const GMRES_RESTART: usize = 60;

/// GMRES restart cycles before a solve reports
/// [`LinalgError::DidNotConverge`].
const GMRES_CYCLES: usize = 200;

/// A built preconditioner `z ≈ A⁻¹ r`. It holds only what it derived from
/// the operator; [`apply`](Self::apply) takes the operator itself.
pub(crate) enum Precond {
    /// Jacobi (diagonal) scaling `z = D⁻¹ r`. A zero diagonal entry counts
    /// as 1 (no scaling), so it is always defined.
    Jacobi { inv_diag: Vec<f64> },
    /// Symmetric successive over-relaxation at ω = [`SSOR_OMEGA`]:
    /// `M = (D/ω + L) (ω/(2-ω) D⁻¹) (D/ω + U)` for `A = L + D + U`, applied
    /// by one forward and one backward Gauss–Seidel-like sweep. Symmetric
    /// for symmetric `A`, so it is admissible inside CG.
    Ssor { diag: Vec<f64> },
}

impl Precond {
    /// Jacobi from the diagonal of `a`.
    pub(crate) fn jacobi(a: &CsrMatrix) -> Self {
        let inv_diag = a
            .diagonal()
            .iter()
            .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
            .collect();
        Precond::Jacobi { inv_diag }
    }

    /// SSOR from the diagonal of `a`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] naming the first zero diagonal
    /// entry: both sweeps divide by it.
    pub(crate) fn ssor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        let diag = a.diagonal();
        if let Some(row) = diag.iter().position(|&d| d == 0.0) {
            return Err(LinalgError::NotPositiveDefinite { row, pivot: 0.0 });
        }
        Ok(Precond::Ssor { diag })
    }

    /// Heap bytes of what the preconditioner holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        let (Precond::Jacobi { inv_diag: d } | Precond::Ssor { diag: d }) = self;
        d.len() * std::mem::size_of::<f64>()
    }

    /// Computes `z ≈ A⁻¹ r` into `z`, for `a` the operator this was built
    /// from.
    pub(crate) fn apply(&self, a: &CsrMatrix, r: &[f64], z: &mut [f64]) {
        match self {
            Precond::Jacobi { inv_diag } => {
                for ((zi, ri), di) in z.iter_mut().zip(r).zip(inv_diag) {
                    *zi = ri * di;
                }
            }
            Precond::Ssor { diag } => {
                let n = a.nrows();
                let w = SSOR_OMEGA;
                // Forward sweep: (D/ω + L) y = r.
                let mut y = vec![0.0; n];
                for i in 0..n {
                    let (cols, vals) = a.row(i);
                    let mut s = r[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        if j < i {
                            s -= v * y[j];
                        }
                    }
                    y[i] = s * w / diag[i];
                }
                // Scale: y ← ((2-ω)/ω) D y.
                for i in 0..n {
                    y[i] *= (2.0 - w) / w * diag[i];
                }
                // Backward sweep: (D/ω + U) z = y.
                for i in (0..n).rev() {
                    let (cols, vals) = a.row(i);
                    let mut s = y[i];
                    for (&j, &v) in cols.iter().zip(vals) {
                        if j > i {
                            s -= v * z[j];
                        }
                    }
                    z[i] = s * w / diag[i];
                }
            }
        }
    }
}

/// A converged solve: `x` after `iterations`, at relative residual
/// `residual`.
fn solved(x: Vec<f64>, iterations: usize, residual: f64) -> RhsSolve {
    RhsSolve {
        x,
        iterations: Some(iterations),
        residual: Some(residual),
        ..RhsSolve::default()
    }
}

/// Preconditioned conjugate gradients for SPD systems, to relative residual
/// `‖r‖/‖b‖ ≤ tol` in at most `max_iter` iterations.
///
/// # Errors
///
/// [`LinalgError::DidNotConverge`] if the tolerance is not met within
/// `max_iter` iterations; [`LinalgError::DimensionMismatch`] on shape errors.
pub(crate) fn solve_cg(
    a: &CsrMatrix,
    b: &[f64],
    precond: &Precond,
    tol: f64,
    max_iter: usize,
) -> Result<RhsSolve, LinalgError> {
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
        return Ok(solved(vec![0.0; n], 0, 0.0));
    }
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    precond.apply(a, &r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    // Last finite relative residual, for honest error reports: the initial
    // iterate x = 0 has ‖b − Ax‖/‖b‖ = 1.
    let mut last_rn = 1.0;
    for it in 0..max_iter {
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
        if rn <= tol {
            return Ok(solved(x, it + 1, rn));
        }
        if !rn.is_finite() {
            return Err(LinalgError::DidNotConverge {
                iterations: it + 1,
                residual: last_rn,
                restarts: 0,
            });
        }
        last_rn = rn;
        precond.apply(a, &r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    Err(LinalgError::DidNotConverge {
        iterations: max_iter,
        residual: last_rn,
        restarts: 0,
    })
}

/// Restarted GMRES with left preconditioning, modified Gram–Schmidt and
/// Givens rotations, to relative residual `tol` — the solver the paper
/// prescribes for the global reduced system (§4.3). Cycles of
/// [`GMRES_RESTART`] iterations, at most [`GMRES_CYCLES`] of them.
///
/// # Errors
///
/// [`LinalgError::DidNotConverge`] if the tolerance is not met within the
/// restart budget; [`LinalgError::DimensionMismatch`] on shape errors.
pub(crate) fn solve_gmres(
    a: &CsrMatrix,
    b: &[f64],
    precond: &Precond,
    tol: f64,
) -> Result<RhsSolve, LinalgError> {
    gmres(a, b, precond, tol, GMRES_RESTART, GMRES_CYCLES)
}

/// [`solve_gmres`] with cycles of `restart` iterations, at most
/// `max_restarts` of them.
fn gmres(
    a: &CsrMatrix,
    b: &[f64],
    precond: &Precond,
    tol: f64,
    restart: usize,
    max_restarts: usize,
) -> Result<RhsSolve, LinalgError> {
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
        return Ok(solved(vec![0.0; n], 0, 0.0));
    }
    let m = restart.max(1).min(n);
    let mut x = vec![0.0; n];
    let mut total_iters = 0usize;
    let mut cycles = 0usize;

    let mut scratch = vec![0.0; n];
    // Preconditioned rhs norm for the relative stopping criterion (left
    // preconditioning minimizes ‖M⁻¹(b − Ax)‖).
    precond.apply(a, b, &mut scratch);
    let nmb = norm2(&scratch).max(f64::MIN_POSITIVE);

    for _cycle in 0..max_restarts {
        // r = M⁻¹ (b - A x)
        let ax = a.spmv(&x);
        let raw: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
        let mut r = vec![0.0; n];
        precond.apply(a, &raw, &mut r);
        let beta = norm2(&r);
        if !beta.is_finite() {
            // A poisoned iterate cannot recover through more restarts.
            return Err(LinalgError::DidNotConverge {
                iterations: total_iters,
                residual: beta,
                restarts: cycles,
            });
        }
        if beta / nmb <= tol {
            let rn = a.residual(&x, b);
            return Ok(solved(x, total_iters, rn));
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
            precond.apply(a, &scratch, &mut w);
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
            if rel <= tol || hnorm == 0.0 {
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
            return Ok(solved(x, total_iters, rn));
        }
    }
    let rn = a.residual(&x, b);
    Err(LinalgError::DidNotConverge {
        iterations: total_iters,
        residual: rn,
        restarts: cycles,
    })
}

/// Iterative refinement of a direct solve: repeatedly solves the correction
/// equation `F dx = b − A x` with the supplied (possibly approximate or
/// regularized) factor application `correct` and updates `x += dx`, until
/// the relative residual `‖b − Ax‖/‖b‖` reaches `tol` or `max_sweeps`
/// sweeps are spent.
///
/// Returns `(sweeps_performed, final_relative_residual)`. Refinement never
/// makes the iterate worse: a sweep whose update fails to strictly reduce
/// the residual is rolled back and the loop stops (stall detection), so the
/// caller can fall to the next rung of the degradation ladder with the best
/// iterate found so far still in `x`.
pub(crate) fn refine(
    a: &CsrMatrix,
    b: &[f64],
    x: &mut [f64],
    correct: impl Fn(&[f64]) -> Vec<f64>,
    tol: f64,
    max_sweeps: usize,
) -> (usize, f64) {
    let mut best = a.residual(x, b);
    let mut sweeps = 0usize;
    let mut prev = vec![0.0; x.len()];
    while sweeps < max_sweeps && best > tol && best.is_finite() {
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

    /// No preconditioning: Jacobi with a unit inverse diagonal applies the
    /// identity, bit for bit.
    fn identity(n: usize) -> Precond {
        Precond::Jacobi {
            inv_diag: vec![1.0; n],
        }
    }

    /// Tolerance and CG iteration cap of the convergence tests.
    const TOL: f64 = 1e-10;
    const MAX_ITER: usize = 10_000;

    fn diagonal(d: &[f64]) -> CsrMatrix {
        let mut coo = CooMatrix::new(d.len(), d.len());
        for (i, &di) in d.iter().enumerate() {
            coo.push(i, i, di);
        }
        coo.to_csr()
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
    fn jacobi_scales_by_the_inverse_diagonal() {
        let a = diagonal(&[4.0, 2.0]);
        let mut z = vec![0.0; 2];
        Precond::jacobi(&a).apply(&a, &[8.0, 8.0], &mut z);
        assert_eq!(z, vec![2.0, 4.0]);
        // A zero diagonal entry leaves its component unscaled.
        let a = diagonal(&[0.0, 2.0]);
        Precond::jacobi(&a).apply(&a, &[3.0, 8.0], &mut z);
        assert_eq!(z, vec![3.0, 4.0]);
    }

    #[test]
    fn cg_solves_a_diagonal_system() {
        let a = diagonal(&[2.0, 3.0]);
        let sol = solve_cg(&a, &[2.0, 9.0], &Precond::jacobi(&a), TOL, MAX_ITER).unwrap();
        assert!((sol.x[0] - 1.0).abs() < 1e-9 && (sol.x[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cg_solves_spd() {
        let a = spd_test_matrix(64);
        let x_true: Vec<f64> = (0..64).map(|i| ((i * 13) % 7) as f64 - 3.0).collect();
        let b = a.spmv(&x_true);
        let sol = solve_cg(&a, &b, &Precond::jacobi(&a), TOL, MAX_ITER).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-9);
    }

    #[test]
    fn cg_with_ssor_converges_faster_than_identity() {
        let a = spd_test_matrix(256);
        let b: Vec<f64> = (0..256).map(|i| (i as f64 * 0.05).cos()).collect();
        let id = solve_cg(&a, &b, &identity(256), TOL, MAX_ITER).unwrap();
        let ssor = Precond::ssor(&a).unwrap();
        let pre = solve_cg(&a, &b, &ssor, TOL, MAX_ITER).unwrap();
        assert!(pre.iterations <= id.iterations);
        assert!(a.residual(&pre.x, &b) < 1e-9);
    }

    #[test]
    fn gmres_solves_nonsymmetric() {
        let a = nonsymmetric_test_matrix(80);
        let x_true: Vec<f64> = (0..80).map(|i| (i as f64 / 11.0).sin()).collect();
        let b = a.spmv(&x_true);
        let sol = solve_gmres(&a, &b, &Precond::jacobi(&a), TOL).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-8, "residual {:?}", sol.residual);
    }

    #[test]
    fn gmres_restart_path_is_exercised() {
        let a = spd_test_matrix(100);
        let b = vec![1.0; 100];
        let sol = gmres(&a, &b, &identity(100), 1e-10, 5, 500).unwrap();
        assert!(a.residual(&sol.x, &b) < 1e-8);
        assert!(
            sol.iterations.unwrap() > 5,
            "must have restarted at least once"
        );
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = spd_test_matrix(10);
        let sol = solve_cg(&a, &[0.0; 10], &identity(10), TOL, MAX_ITER).unwrap();
        assert_eq!(sol.x, vec![0.0; 10]);
        let sol = solve_gmres(&a, &[0.0; 10], &identity(10), TOL).unwrap();
        assert_eq!(sol.iterations, Some(0));
    }

    #[test]
    fn budget_exhaustion_reports_failure() {
        let a = spd_test_matrix(200);
        let b = vec![1.0; 200];
        let res = solve_cg(&a, &b, &identity(200), 1e-14, 2);
        assert!(matches!(
            res,
            Err(LinalgError::DidNotConverge {
                iterations: 2,
                restarts: 0,
                ..
            })
        ));
    }

    #[test]
    fn cg_breakdown_reports_finite_state() {
        // A poisoned operator value turns alpha NaN on the first step; the
        // old loop would spin to max_iter and report a NaN residual.
        let mut a = spd_test_matrix(8);
        a.values_mut()[3] = f64::NAN;
        let res = solve_cg(&a, &[1.0; 8], &identity(8), 1e-12, 10_000);
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
        let res = gmres(&a, &b, &identity(200), 1e-14, 4, 3);
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
        let (sweeps, rn) = refine(&a, &b, &mut x, |r| factor.solve(r), 1e-12, 40);
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
            1e-12,
            4,
        );
        assert_eq!(sweeps, 0);
        assert_eq!(x, before);
        assert!((rn - r0).abs() < 1e-14);
    }

    #[test]
    fn gmres_and_cg_agree_on_spd() {
        let a = spd_test_matrix(60);
        let b: Vec<f64> = (0..60).map(|i| ((i % 5) as f64) - 2.0).collect();
        let jac = Precond::jacobi(&a);
        let x1 = solve_cg(&a, &b, &jac, TOL, MAX_ITER).unwrap().x;
        let x2 = solve_gmres(&a, &b, &jac, TOL).unwrap().x;
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-7);
        }
    }
}
