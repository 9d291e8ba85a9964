//! Small dense matrices.
//!
//! Used for element stiffness matrices (24×24), Galerkin-projected reduced
//! operators (n×n with n ≈ 24…456, Eq. 16 of the paper) and the interpolation
//! matrix `L`. Row-major storage.

use crate::kernel::{BlockedKernel, DenseKernel};
use crate::{LinalgError, MemoryFootprint};

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use morestress_linalg::DenseMatrix;
///
/// # fn main() -> Result<(), morestress_linalg::LinalgError> {
/// let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = a.lu()?;
/// let x = lu.solve(&[3.0, 5.0])?;
/// assert!((x[0] - 0.8).abs() < 1e-12 && (x[1] - 1.4).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all have the same length.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: wrong buffer length");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of the row-major backing buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the row-major backing buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix-vector product `A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for i in 0..self.rows {
            y[i] = crate::dot(self.row(i), x);
        }
        y
    }

    /// Maximum absolute asymmetry `max |A_ij - A_ji|` (for square matrices).
    ///
    /// Used by tests to assert that Galerkin-projected element matrices stay
    /// symmetric.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn asymmetry(&self) -> f64 {
        assert_eq!(self.rows, self.cols, "asymmetry: matrix must be square");
        let mut worst = 0.0_f64;
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                worst = worst.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        worst
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Singular`] if a zero pivot is encountered and
    /// [`LinalgError::DimensionMismatch`] if the matrix is not square.
    pub fn lu(&self) -> Result<DenseLu, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                context: "dense LU (matrix must be square)",
                expected: self.rows,
                found: self.cols,
            });
        }
        let n = self.rows;
        let mut lu = self.clone();
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
                return Err(LinalgError::Singular { row: k });
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
                    let (top, bottom) = lu.data.split_at_mut(i * n);
                    let krow = &top[k * n..k * n + n];
                    let irow = &mut bottom[..n];
                    BlockedKernel.axpy(-m, &krow[(k + 1)..], &mut irow[(k + 1)..]);
                }
            }
        }
        Ok(DenseLu { lu, piv })
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

impl MemoryFootprint for DenseMatrix {
    fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }
}

/// LU factorization (with partial pivoting) of a square [`DenseMatrix`].
///
/// See [`DenseMatrix::lu`] for an example.
#[derive(Debug, Clone)]
pub struct DenseLu {
    lu: DenseMatrix,
    piv: Vec<usize>,
}

impl DenseLu {
    /// Solves `A x = b` using the stored factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                context: "dense LU solve",
                expected: n,
                found: b.len(),
            });
        }
        // Apply the row permutation, then forward/backward substitution —
        // each inner contraction one blocked-kernel dot over the stored row.
        let mut x: Vec<f64> = self.piv.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let s = BlockedKernel.dot(&self.lu.row(i)[..i], &x[..i]);
            x[i] -= s;
        }
        for i in (0..n).rev() {
            let s = x[i] - BlockedKernel.dot(&self.lu.row(i)[(i + 1)..], &x[(i + 1)..]);
            x[i] = s / self.lu[(i, i)];
        }
        Ok(x)
    }
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
        let lu = a.lu().unwrap();
        let b = [1.0, -2.0, 3.5, 0.0];
        assert_eq!(lu.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(&[&[4.0, -2.0, 1.0], &[-2.0, 4.0, -2.0], &[1.0, -2.0, 4.0]]);
        let x_true = [1.0, 2.0, 3.0];
        let b = a.matvec(&x_true);
        let x = a.lu().unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.lu().unwrap().solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_is_detected() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn transpose_and_asymmetry() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.asymmetry(), 1.0);
        let s = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(s.asymmetry(), 0.0);
    }

    #[test]
    fn non_square_lu_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::DimensionMismatch { .. })));
    }
}
