//! Dense partial-pivot LU, and the symmetry measure of a dense matrix.

use morestress_linalg::{axpy, dot, DenseMatrix};

/// Why [`DenseLu::factor`] or [`DenseLu::solve`] refused its input.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// The matrix is not square, or the right-hand side does not match it.
    DimensionMismatch {
        /// The size the factorization needs.
        expected: usize,
        /// The size it got.
        found: usize,
    },
    /// Column `row` has no nonzero pivot at or below the diagonal.
    Singular {
        /// The elimination step that found no pivot.
        row: usize,
    },
}

/// LU factorization (with partial pivoting) of a square [`DenseMatrix`].
///
/// # Example
///
/// ```
/// use morestress_linalg::DenseMatrix;
/// use morestress_oracle::DenseLu;
///
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let x = DenseLu::factor(&a).unwrap().solve(&[3.0, 5.0]).unwrap();
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    piv: Vec<usize>,
}

impl DenseLu {
    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] if a zero pivot is encountered and
    /// [`LuError::DimensionMismatch`] if the matrix is not square.
    pub fn factor(a: &DenseMatrix) -> Result<Self, LuError> {
        if a.rows() != a.cols() {
            return Err(LuError::DimensionMismatch {
                expected: a.rows(),
                found: a.cols(),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: find the largest entry in column k at/below row k.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 {
                return Err(LuError::Singular { row: k });
            }
            if p != k {
                piv.swap(k, p);
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    let (top, bottom) = lu.as_mut_slice().split_at_mut(i * n);
                    let krow = &top[k * n..k * n + n];
                    let irow = &mut bottom[..n];
                    axpy(-m, &krow[(k + 1)..], &mut irow[(k + 1)..]);
                }
            }
        }
        Ok(Self { lu, piv })
    }

    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LuError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LuError::DimensionMismatch {
                expected: n,
                found: b.len(),
            });
        }
        // Apply the row permutation, then forward/backward substitution —
        // each inner contraction one `dot` over the stored row.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let s = dot(&self.lu.row(i)[..i], &x[..i]);
            x[i] -= s;
        }
        for i in (0..n).rev() {
            let s = x[i] - dot(&self.lu.row(i)[(i + 1)..], &x[(i + 1)..]);
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
}

/// Maximum absolute asymmetry `max |A_ij - A_ji|` of a square matrix.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn dense_asymmetry(a: &DenseMatrix) -> f64 {
    assert_eq!(a.rows(), a.cols(), "asymmetry: matrix must be square");
    let mut worst = 0.0_f64;
    for i in 0..a.rows() {
        for j in (i + 1)..a.cols() {
            worst = worst.max((a[(i, j)] - a[(j, i)]).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let mut a = DenseMatrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
        }
        let lu = DenseLu::factor(&a).unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(lu.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = [1.0, 2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = DenseLu::factor(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = DenseLu::factor(&a).unwrap().solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LuError::Singular { row: 1 })
        ));
    }

    #[test]
    fn transpose_and_asymmetry() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(dense_asymmetry(&a), 1.0);
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(dense_asymmetry(&s), 0.0);
    }

    #[test]
    fn non_square_lu_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(
            DenseLu::factor(&a),
            Err(LuError::DimensionMismatch { .. })
        ));
    }
}
