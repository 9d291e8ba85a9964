//! The transpose of a CSR matrix, and its symmetry measure.

use morestress_linalg::CsrMatrix;

/// Transposed copy of `a`.
pub fn transposed(a: &CsrMatrix) -> CsrMatrix {
    let (row_ptr_a, col_idx_a, values_a) = (a.row_ptr(), a.col_idx(), a.values());
    let mut counts = vec![0usize; a.ncols() + 1];
    for &c in col_idx_a {
        counts[c + 1] += 1;
    }
    for i in 0..a.ncols() {
        counts[i + 1] += counts[i];
    }
    let row_ptr = counts.clone();
    let mut col_idx = vec![0usize; a.nnz()];
    let mut values = vec![0.0; a.nnz()];
    let mut next = counts;
    for r in 0..a.nrows() {
        for k in row_ptr_a[r]..row_ptr_a[r + 1] {
            let c = col_idx_a[k];
            let slot = next[c];
            next[c] += 1;
            col_idx[slot] = r;
            values[slot] = values_a[k];
        }
    }
    // Rows of the transpose are produced in increasing source-row order,
    // so columns are already sorted.
    CsrMatrix::from_raw(a.ncols(), a.nrows(), row_ptr, col_idx, values)
}

/// Maximum absolute asymmetry `max |A_ij - A_ji|` of a square matrix.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn asymmetry(a: &CsrMatrix) -> f64 {
    assert_eq!(a.nrows(), a.ncols(), "asymmetry: matrix must be square");
    let t = transposed(a);
    let mut worst = 0.0_f64;
    for i in 0..a.nrows() {
        let (ca, va) = a.row(i);
        let (cb, vb) = t.row(i);
        // Merge the two sorted rows.
        let (mut p, mut q) = (0, 0);
        while p < ca.len() || q < cb.len() {
            match (ca.get(p), cb.get(q)) {
                (Some(&ja), Some(&jb)) if ja == jb => {
                    worst = worst.max((va[p] - vb[q]).abs());
                    p += 1;
                    q += 1;
                }
                (Some(&ja), Some(&jb)) if ja < jb => {
                    worst = worst.max(va[p].abs());
                    p += 1;
                }
                (Some(_), Some(_)) => {
                    worst = worst.max(vb[q].abs());
                    q += 1;
                }
                (Some(_), None) => {
                    worst = worst.max(va[p].abs());
                    p += 1;
                }
                (None, Some(_)) => {
                    worst = worst.max(vb[q].abs());
                    q += 1;
                }
                (None, None) => unreachable!(),
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_linalg::CooMatrix;

    fn laplacian_1d(n: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn transpose_involution() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 3, 1.0);
        coo.push(2, 1, -2.0);
        coo.push(1, 1, 7.0);
        let a = coo.to_csr();
        let att = transposed(&transposed(&a));
        assert_eq!(a, att);
    }

    #[test]
    fn asymmetry_detects_nonsymmetric() {
        let a = laplacian_1d(4);
        assert_eq!(asymmetry(&a), 0.0);
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        let b = coo.to_csr();
        assert_eq!(asymmetry(&b), 1.0);
    }
}
