//! Sparse Cholesky factorization `A = L Lᵀ`.
//!
//! This is an up-looking factorization in the style of CSparse's `cs_chol`:
//! a symbolic pass builds the elimination tree and computes the pattern of
//! each row of `L` via `ereach`, then the numeric pass fills a
//! column-compressed `L`. A reverse Cuthill–McKee ordering is applied first
//! to limit fill on the structured-mesh operators this crate is used for.
//!
//! No solver backend runs this factorization: production solves go
//! through [`SupernodalCholesky`](morestress_linalg::SupernodalCholesky).
//! It is the independent reference the differential tests compare that
//! factorization against, so it keeps a symbolic route of its own — a
//! permuted copy, `etree` and per-row `ereach` — that shares nothing with
//! the supernodal analysis.

use morestress_linalg::{reverse_cuthill_mckee, CsrMatrix, LinalgError, Permutation};

const NONE: usize = usize::MAX;

/// A sparse Cholesky factorization of a symmetric positive definite matrix.
///
/// # Example
///
/// ```
/// use morestress_linalg::CooMatrix;
/// use morestress_oracle::SparseCholesky;
///
/// # fn main() -> Result<(), morestress_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0); coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0); coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let chol = SparseCholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0]);
/// assert!(a.residual(&x, &[1.0, 2.0]) < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseCholesky {
    n: usize,
    perm: Permutation,
    /// `L` in compressed-sparse-column form; the diagonal entry is the first
    /// entry of every column.
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl SparseCholesky {
    /// Factors a symmetric positive definite matrix with RCM ordering.
    ///
    /// Only the lower triangle of `a` is read (the upper triangle is assumed
    /// to mirror it); symmetry is the caller's responsibility and is cheap to
    /// check with [`asymmetry`](crate::asymmetry).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if a non-positive pivot appears;
    /// [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn factor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        let perm = reverse_cuthill_mckee(a);
        Self::factor_with_permutation(a, perm)
    }

    /// Factors with a caller-supplied fill-reducing permutation.
    ///
    /// # Errors
    ///
    /// Same as [`SparseCholesky::factor`].
    pub fn factor_with_permutation(a: &CsrMatrix, perm: Permutation) -> Result<Self, LinalgError> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::DimensionMismatch {
                context: "sparse Cholesky (matrix must be square)",
                expected: a.nrows(),
                found: a.ncols(),
            });
        }
        let n = a.nrows();
        let ap = a.permuted_symmetric(&perm);

        // --- Symbolic analysis -------------------------------------------
        let parent = etree(&ap);
        // Count entries per column of L: one diagonal each, plus one entry in
        // column i for every row k whose ereach contains i.
        let mut counts = vec![1usize; n];
        {
            let mut w = vec![NONE; n];
            let mut stack = vec![0usize; n];
            for k in 0..n {
                let top = ereach(&ap, k, &parent, &mut w, &mut stack);
                for &i in &stack[top..n] {
                    counts[i] += 1;
                }
            }
        }
        let mut col_ptr = vec![0usize; n + 1];
        for i in 0..n {
            col_ptr[i + 1] = col_ptr[i] + counts[i];
        }
        let nnz = col_ptr[n];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];

        // --- Numeric factorization (up-looking) --------------------------
        // `next[i]` is the next free slot in column i (slot col_ptr[i] is the
        // diagonal, filled when row i itself is factored).
        let mut next: Vec<usize> = (0..n).map(|i| col_ptr[i] + 1).collect();
        let mut x = vec![0.0f64; n];
        let mut w = vec![NONE; n];
        let mut stack = vec![0usize; n];
        for k in 0..n {
            let top = ereach(&ap, k, &parent, &mut w, &mut stack);
            // Scatter row k of A (columns <= k; by symmetry this is the upper
            // part of column k).
            let mut d = 0.0;
            {
                let (cols, vals) = ap.row(k);
                for (&j, &v) in cols.iter().zip(vals) {
                    match j.cmp(&k) {
                        std::cmp::Ordering::Less => x[j] = v,
                        std::cmp::Ordering::Equal => d = v,
                        std::cmp::Ordering::Greater => {}
                    }
                }
            }
            // Sparse triangular solve L[0..k,0..k] xᵀ = A[k,0..k]ᵀ over the
            // ereach pattern, in topological order.
            for t in top..n {
                let i = stack[t];
                let lii = values[col_ptr[i]];
                let lki = x[i] / lii;
                x[i] = 0.0;
                for p in (col_ptr[i] + 1)..next[i] {
                    x[row_idx[p]] -= values[p] * lki;
                }
                d -= lki * lki;
                let p = next[i];
                next[i] += 1;
                row_idx[p] = k;
                values[p] = lki;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { row: k, pivot: d });
            }
            row_idx[col_ptr[k]] = k;
            values[col_ptr[k]] = d.sqrt();
        }

        Ok(Self {
            n,
            perm,
            col_ptr,
            row_idx,
            values,
        })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored entries in the factor `L` (a fill measure).
    pub fn factor_nnz(&self) -> usize {
        self.values.len()
    }

    /// Solves `A x = b` by two triangular solves.
    ///
    /// Takes `&self`, so many right-hand sides can be solved in parallel
    /// from a shared factor.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "cholesky solve: rhs length");
        let mut scratch = self.perm.apply(b);
        self.solve_permuted_in_place(&mut scratch);
        self.perm.apply_inverse(&scratch)
    }

    /// In-place solve in the *permuted* basis (both triangular sweeps).
    fn solve_permuted_in_place(&self, x: &mut [f64]) {
        let n = self.n;
        // Forward: L y = x (column-oriented).
        for j in 0..n {
            let lo = self.col_ptr[j];
            let hi = self.col_ptr[j + 1];
            let yj = x[j] / self.values[lo];
            x[j] = yj;
            for p in (lo + 1)..hi {
                x[self.row_idx[p]] -= self.values[p] * yj;
            }
        }
        // Backward: Lᵀ x = y.
        for j in (0..n).rev() {
            let lo = self.col_ptr[j];
            let hi = self.col_ptr[j + 1];
            let mut s = x[j];
            for p in (lo + 1)..hi {
                s -= self.values[p] * x[self.row_idx[p]];
            }
            x[j] = s / self.values[lo];
        }
    }
}

/// Elimination tree of the pattern of a symmetric matrix (lower triangle of
/// each row is read). `parent[i] == NONE` marks a root.
fn etree(a: &CsrMatrix) -> Vec<usize> {
    let n = a.nrows();
    let mut parent = vec![NONE; n];
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for &j in a.row(k).0 {
            if j >= k {
                break; // columns sorted: rest of the row is upper triangle
            }
            let mut i = j;
            while i != NONE && i < k {
                let inext = ancestor[i];
                ancestor[i] = k;
                if inext == NONE {
                    parent[i] = k;
                    break;
                }
                i = inext;
            }
        }
    }
    parent
}

/// Computes the pattern of row `k` of `L`: the nodes reachable from the
/// below-diagonal entries of row `k` of `A` through the elimination tree.
/// On return, `stack[top..n]` holds the pattern in topological order.
fn ereach(
    a: &CsrMatrix,
    k: usize,
    parent: &[usize],
    w: &mut [usize],
    stack: &mut [usize],
) -> usize {
    let n = a.nrows();
    let mut top = n;
    w[k] = k; // mark k itself
    let mut path = [0usize; 64];
    for &j in a.row(k).0 {
        if j >= k {
            break;
        }
        // Walk up the etree until we hit a marked node, recording the path.
        let mut i = j;
        let mut len = 0usize;
        let mut overflow: Vec<usize> = Vec::new();
        while i != NONE && w[i] != k {
            if len < path.len() {
                path[len] = i;
            } else {
                overflow.push(i);
            }
            len += 1;
            w[i] = k;
            i = parent[i];
        }
        // Push the path onto the output stack (deepest node ends nearest the
        // top so that `stack[top..]` is in topological order).
        while len > 0 {
            len -= 1;
            let node = if len < path.len() {
                path[len]
            } else {
                overflow[len - path.len()]
            };
            top -= 1;
            stack[top] = node;
        }
    }
    top
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_linalg::{CooMatrix, WorkPool};

    /// A 2-D 5-point Laplacian with a +0.1-shifted diagonal: `nx · ny` DoFs.
    fn laplacian_2d(nx: usize, ny: usize) -> CsrMatrix {
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

    #[test]
    fn factor_and_solve_laplacian() {
        let a = laplacian_2d(7, 5);
        let chol = SparseCholesky::factor(&a).unwrap();
        let n = a.nrows();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = a.spmv(&x_true);
        let x = chol.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10, "{xi} vs {ti}");
        }
    }

    #[test]
    fn natural_ordering_agrees_with_rcm() {
        let a = laplacian_2d(6, 6);
        let b: Vec<f64> = (0..36).map(|i| (i % 7) as f64 - 3.0).collect();
        let x1 = SparseCholesky::factor(&a).unwrap().solve(&b);
        let x2 = SparseCholesky::factor_with_permutation(&a, Permutation::identity(36))
            .unwrap()
            .solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn rcm_reduces_fill_on_scrambled_grid() {
        let a = laplacian_2d(15, 15);
        // Scramble with a symmetric permutation to destroy the natural band.
        let n = a.nrows();
        let scramble: Vec<usize> = {
            let mut v: Vec<usize> = (0..n).collect();
            for i in 0..n {
                v.swap(i, (i * 101 + 3) % n);
            }
            v
        };
        let p = Permutation::new(scramble).unwrap();
        let scrambled = a.permuted_symmetric(&p);
        let fill_rcm = SparseCholesky::factor(&scrambled).unwrap().factor_nnz();
        let fill_nat =
            SparseCholesky::factor_with_permutation(&scrambled, Permutation::identity(n))
                .unwrap()
                .factor_nnz();
        assert!(
            fill_rcm < fill_nat,
            "RCM fill {fill_rcm} should beat natural fill {fill_nat} on a scrambled grid"
        );
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            SparseCholesky::factor(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn dense_spd_matches_dense_lu() {
        // A dense-ish SPD matrix: A = M Mᵀ + I assembled sparsely.
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    let mik = ((i * 7 + k * 3) % 5) as f64 - 2.0;
                    let mjk = ((j * 7 + k * 3) % 5) as f64 - 2.0;
                    v += mik * mjk;
                }
                if i == j {
                    v += n as f64;
                }
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = SparseCholesky::factor(&a).unwrap().solve(&b);
        assert!(a.residual(&x, &b) < 1e-12);
    }

    #[test]
    fn parallel_solves_share_one_factor() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let a = laplacian_2d(10, 10);
        let chol = SparseCholesky::factor(&a).unwrap();
        let n = a.nrows();
        // Rendezvous (bounded, so never a deadlock) before solving: without
        // it a fast caller could drain the whole task set before the pool's
        // resident workers wake, and the solves would never overlap — the
        // very thing this regression test exists to exercise.
        let arrived = AtomicUsize::new(0);
        let next = AtomicUsize::new(0);
        WorkPool::new(4).scope_workers(4, |_| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let t0 = std::time::Instant::now();
            while arrived.load(Ordering::SeqCst) < 2 && t0.elapsed().as_millis() < 200 {
                std::thread::yield_now();
            }
            loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= 16 {
                    return;
                }
                let b: Vec<f64> = (0..n).map(|i| ((i + t) % 9) as f64).collect();
                let x = chol.solve(&b);
                assert!(a.residual(&x, &b) < 1e-10);
            }
        });
        assert!(next.load(Ordering::Relaxed) >= 16, "all tasks claimed");
    }
}
