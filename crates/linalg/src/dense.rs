//! Small dense matrices.
//!
//! Used for element stiffness matrices (24×24), Galerkin-projected reduced
//! operators (n×n with n ≈ 24…456, Eq. 16 of the paper) and the interpolation
//! matrix `L`. Row-major storage.

use crate::MemoryFootprint;

/// A dense row-major `rows × cols` matrix of `f64`.
///
/// # Example
///
/// ```
/// use morestress_linalg::DenseMatrix;
///
/// let mut a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// a[(1, 0)] += 1.0;
/// assert_eq!(a.row(1), &[2.0, 3.0]);
/// assert_eq!(a.matvec(&[1.0, 1.0]), vec![3.0, 5.0]);
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
