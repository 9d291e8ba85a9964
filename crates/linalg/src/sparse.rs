//! Sparse matrices: COO assembly format and CSR compute format.

use std::sync::Arc;

use crate::kernel::{Isa, Lanes, SimdLoop};
use crate::{MemoryFootprint, PartitionHint, SymmetryFold};

/// Coordinate-format (triplet) sparse matrix used during assembly.
///
/// Duplicate entries are summed when converting to CSR, which is exactly the
/// semantics of finite element assembly.
///
/// # Example
///
/// ```
/// use morestress_linalg::CooMatrix;
///
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // duplicate: summed
/// coo.push(1, 1, 4.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// assert_eq!(csr.get(1, 1), 4.0);
/// assert_eq!(csr.get(0, 1), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows × ncols` triplet matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an empty triplet matrix with pre-reserved capacity.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Appends the entry `(i, j, v)`. Duplicates are allowed and summed on
    /// conversion.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    #[inline]
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "CooMatrix::push out of bounds"
        );
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Number of stored triplets (including duplicates).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Converts to CSR, summing duplicate entries and sorting column indices
    /// within each row.
    pub fn to_csr(&self) -> CsrMatrix {
        // Counting sort by row.
        let mut row_ptr = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            row_ptr[r + 1] += 1;
        }
        for i in 0..self.nrows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = row_ptr.clone();
        for t in 0..self.nnz() {
            let r = self.rows[t];
            let slot = next[r];
            next[r] += 1;
            col_idx[slot] = self.cols[t];
            values[slot] = self.vals[t];
        }
        // Sort within each row and combine duplicates.
        let mut out_ptr = vec![0usize; self.nrows + 1];
        let mut out_col: Vec<usize> = Vec::with_capacity(self.nnz());
        let mut out_val: Vec<f64> = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..self.nrows {
            let lo = row_ptr[r];
            let hi = row_ptr[r + 1];
            scratch.clear();
            scratch.extend(
                col_idx[lo..hi]
                    .iter()
                    .copied()
                    .zip(values[lo..hi].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut v = scratch[i].1;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == c {
                    v += scratch[j].1;
                    j += 1;
                }
                out_col.push(c);
                out_val.push(v);
                i = j;
            }
            out_ptr[r + 1] = out_col.len();
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: out_ptr,
            col_idx: out_col,
            values: out_val,
            hint: None,
            fold: None,
        }
    }
}

impl MemoryFootprint for CooMatrix {
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes() + self.cols.heap_bytes() + self.vals.heap_bytes()
    }
}

/// Compressed sparse row matrix: the compute format for all FEM operators.
///
/// Column indices are sorted and unique within each row.
///
/// An operator may carry the block-grid provenance of its rows (a
/// [`PartitionHint`], see [`with_partition_hint`](Self::with_partition_hint)).
/// The hint is part of the operator's identity: `==` and
/// [`matrix_fingerprint`](crate::matrix_fingerprint) cover it, because the
/// direct solvers order — and therefore round — differently under it. A
/// [`FactorCache`](crate::FactorCache) key that names an operator must
/// therefore name its hint too (the global stage's layout words do).
///
/// It may likewise carry a [`SymmetryFold`] (see
/// [`with_fold`](Self::with_fold)): the signed column map of a symmetry
/// group it commutes with, which the direct factor solves in. `==` covers
/// the fold for the same reason as the hint.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    /// Kept by `clone`; every derived matrix (`extract`,
    /// `permuted_symmetric`) starts without one, since its rows are no
    /// longer the rows the hint describes.
    hint: Option<Arc<PartitionHint>>,
    /// Kept by `clone` and dropped by every derived matrix, like the hint.
    fold: Option<Arc<SymmetryFold>>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if the arrays are structurally inconsistent (wrong lengths,
    /// non-monotone `row_ptr`, unsorted/duplicate or out-of-range columns).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr tail");
        for r in 0..nrows {
            assert!(row_ptr[r] <= row_ptr[r + 1], "row_ptr must be monotone");
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "columns must be sorted and unique");
            }
            if let Some(&last) = row.last() {
                assert!(last < ncols, "column index out of range");
            }
        }
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            hint: None,
            fold: None,
        }
    }

    /// Builds an all-zero matrix with a fixed sparsity pattern given by
    /// per-row sorted column lists. Used by the FEM assembler, which computes
    /// the pattern from mesh connectivity and then scatter-adds element
    /// matrices.
    pub fn from_pattern(nrows: usize, ncols: usize, rows: &[Vec<usize>]) -> Self {
        assert_eq!(rows.len(), nrows, "pattern row count");
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        row_ptr.push(0usize);
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut col_idx = Vec::with_capacity(nnz);
        for row in rows {
            for w in row.windows(2) {
                assert!(w[0] < w[1], "pattern columns must be sorted and unique");
            }
            col_idx.extend_from_slice(row);
            row_ptr.push(col_idx.len());
        }
        let values = vec![0.0; col_idx.len()];
        Self {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            hint: None,
            fold: None,
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
            hint: None,
            fold: None,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (pattern is immutable).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// This operator carrying `hint` as the block-grid provenance of its
    /// rows. Whoever assembles an operator from a block array knows the
    /// footprint of every row; attaching it here is how that knowledge
    /// reaches the solvers — [`FillOrdering::Auto`](crate::FillOrdering)
    /// dissects along the block grid and [`Sharded`](crate::Sharded) plans
    /// its shards from it — the only geometry either reads. The hint is
    /// advisory for both: one of the wrong length, or one that misdescribes
    /// the sparsity, costs fill or the sharding (a one-shard plan), never
    /// correctness.
    pub fn with_partition_hint(mut self, hint: Arc<PartitionHint>) -> Self {
        self.hint = Some(hint);
        self
    }

    /// The block-grid provenance this operator carries, if any.
    pub fn partition_hint(&self) -> Option<&Arc<PartitionHint>> {
        self.hint.as_ref()
    }

    /// This operator carrying `fold` — the signed column map `V` of a
    /// symmetry group it commutes with — or, with `None`, carrying none.
    /// Whoever assembles an operator from a symmetric structure knows its
    /// group; attaching the map here is how the direct factor learns it:
    /// [`DirectCholesky`](crate::DirectCholesky) then factors `Vᵀ A V`
    /// and solves `A x = b` as `x = V (Vᵀ A V)⁻¹ Vᵀ b`. That is `A⁻¹ b`
    /// exactly only for a `b` the group fixes, so the map is the
    /// assembler's promise that every right-hand side solved against this
    /// operator is symmetric too; the iterative engines ignore it.
    ///
    /// # Panics
    ///
    /// Panics if `fold` maps a different number of rows than this
    /// operator has.
    pub fn with_fold(mut self, fold: Option<Arc<SymmetryFold>>) -> Self {
        if let Some(fold) = &fold {
            assert_eq!(fold.rows(), self.nrows, "fold row count");
        }
        self.fold = fold;
        self
    }

    /// The symmetry fold this operator carries, if any.
    pub fn fold(&self) -> Option<&Arc<SymmetryFold>> {
        self.fold.as_ref()
    }

    /// Whether `other` has the same dimensions and sparsity pattern
    /// (ignoring values) — the precondition for value-only reuse paths
    /// like the [`Sharded`](crate::Sharded) incremental re-preparation.
    pub fn same_pattern(&self, other: &CsrMatrix) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// The columns and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Value at `(i, j)`, zero if the entry is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Adds `v` to the stored entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `(i, j)` is not in the sparsity pattern; the FEM assembler
    /// guarantees the pattern covers all element couplings.
    #[inline]
    pub fn add_at(&mut self, i: usize, j: usize, v: f64) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        let k = self.col_idx[lo..hi]
            .binary_search(&j)
            .unwrap_or_else(|_| panic!("add_at: entry ({i},{j}) not in pattern"));
        self.values[lo + k] += v;
    }

    /// Sparse matrix–vector product `y = A x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        // Zipped slices per row: the index/value loads carry no bounds
        // checks (the gather on `x` is the only indirect access left). Each
        // row sums its products front to back from `-0.0`, the neutral
        // element of IEEE addition — the order `spmv_panel_into` repeats.
        for (yi, w) in y.iter_mut().zip(self.row_ptr.windows(2)) {
            let (lo, hi) = (w[0], w[1]);
            *yi = self.col_idx[lo..hi]
                .iter()
                .zip(&self.values[lo..hi])
                .fold(-0.0, |acc, (&c, &v)| acc + v * x[c]);
        }
    }

    /// [`spmv_into`](Self::spmv_into) of `W` vectors in one pass over the
    /// matrix: `x[c][k]` is entry `c` of input `k`, and `y[r][k]` receives
    /// entry `r` of `A x_k`. Every column runs `spmv_into`'s own sum — from
    /// `-0.0`, `acc += v·x` in CSR order, a rounded product then a rounded
    /// add, never a fused one — so output `k` is bit for bit `spmv_into` of
    /// input `k` at every width. The `W` independent sums are what the
    /// panel buys: a row's add-latency chain is paid once per `W` columns.
    /// The loop runs at the host's widest [`Isa`] level, which only
    /// decides how many of the `W` sums share a vector register.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv_panel_into<const W: usize>(&self, x: &[[f64; W]], y: &mut [[f64; W]]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length");
        assert_eq!(y.len(), self.nrows, "spmv: y length");
        Isa::detected().run(PanelSpmv(self, x, y));
    }

    /// Sparse matrix–vector product returning a fresh vector.
    pub fn spmv(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv_into(x, &mut y);
        y
    }

    /// Relative residual `‖b - A x‖₂ / ‖b‖₂` (absolute if `‖b‖₂ = 0`).
    pub fn residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let ax = self.spmv(x);
        let r: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        let nb = crate::norm2(b);
        if nb > 0.0 {
            r / nb
        } else {
            r
        }
    }

    /// Extracts the sub-matrix `A[rows, cols]`.
    ///
    /// `col_map` must map every original column index either to
    /// `Some(new index)` (kept) or `None` (dropped); `new_ncols` is the
    /// number of kept columns. The kept columns must preserve order
    /// (monotone `col_map`) so that rows stay sorted.
    ///
    /// The local stage uses this to split the unit-block operator into
    /// `A_ff` (free × free) and `A_fb` (free × boundary), Eq. 12 of the paper.
    pub fn extract(
        &self,
        rows: &[usize],
        col_map: &[Option<usize>],
        new_ncols: usize,
    ) -> CsrMatrix {
        assert_eq!(col_map.len(), self.ncols, "extract: col_map length");
        // Count pass first: exact per-row offsets let the fill pass write
        // disjoint output ranges — no reallocation, and row chunks can fill
        // in parallel on the shared pool (this routine sits on the
        // constraint-reduction hot path of every batched solve).
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        row_ptr.push(0usize);
        let mut nnz = 0usize;
        for &r in rows {
            let (cols, _) = self.row(r);
            nnz += cols.iter().filter(|&&c| col_map[c].is_some()).count();
            row_ptr.push(nnz);
        }
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        let fill_rows = |out_rows: &[usize], first_out: usize, ci: &mut [usize], va: &mut [f64]| {
            let base = row_ptr[first_out];
            let mut w = 0usize;
            for &r in out_rows {
                let (cols, vals) = self.row(r);
                for (c, v) in cols.iter().zip(vals) {
                    if let Some(nc) = col_map[*c] {
                        debug_assert!(nc < new_ncols);
                        ci[w] = nc;
                        va[w] = *v;
                        w += 1;
                    }
                }
            }
            debug_assert_eq!(w, row_ptr[first_out + out_rows.len()] - base);
        };
        // Chunk rows so each task streams a contiguous output range; the
        // writes are disjoint by construction, so results are bitwise
        // identical at every pool cap.
        const CHUNK: usize = 512;
        let pool = crate::WorkPool::current();
        let num_chunks = rows.len().div_ceil(CHUNK.max(1));
        if num_chunks > 1 && pool.cap() > 1 {
            let mut slices: Vec<std::sync::Mutex<(&mut [usize], &mut [f64])>> =
                Vec::with_capacity(num_chunks);
            let (mut ci_rest, mut va_rest) = (col_idx.as_mut_slice(), values.as_mut_slice());
            for ch in 0..num_chunks {
                let lo = row_ptr[ch * CHUNK];
                let hi = row_ptr[rows.len().min((ch + 1) * CHUNK)];
                let (ci_head, ci_tail) = ci_rest.split_at_mut(hi - lo);
                let (va_head, va_tail) = va_rest.split_at_mut(hi - lo);
                slices.push(std::sync::Mutex::new((ci_head, va_head)));
                ci_rest = ci_tail;
                va_rest = va_tail;
            }
            pool.scope_chunks(pool.cap(), num_chunks, |ch| {
                let first = ch * CHUNK;
                let last = rows.len().min(first + CHUNK);
                let mut guard = slices[ch].lock().expect("extract chunk poisoned");
                let (ci, va) = &mut *guard;
                fill_rows(&rows[first..last], first, ci, va);
            });
        } else {
            fill_rows(rows, 0, &mut col_idx, &mut values);
        }
        CsrMatrix {
            nrows: rows.len(),
            ncols: new_ncols,
            row_ptr,
            col_idx,
            values,
            hint: None,
            fold: None,
        }
    }

    /// Builds a CSR matrix from raw parts **without** the per-entry
    /// validation of [`CsrMatrix::from_raw`] (only cheap shape checks plus
    /// full validation in debug builds). For callers that construct the
    /// arrays programmatically on a hot path — e.g. the global-stage
    /// assembler, whose pattern is sorted by construction — the O(nnz)
    /// validation sweep is pure overhead.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths are inconsistent; in debug builds,
    /// additionally panics on any violation [`CsrMatrix::from_raw`] would
    /// reject.
    pub fn from_raw_trusted(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nrows + 1, "row_ptr length");
        assert_eq!(col_idx.len(), values.len(), "col/val length mismatch");
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len(), "row_ptr tail");
        #[cfg(debug_assertions)]
        {
            Self::from_raw(nrows, ncols, row_ptr, col_idx, values)
        }
        #[cfg(not(debug_assertions))]
        {
            Self {
                nrows,
                ncols,
                row_ptr,
                col_idx,
                values,
                hint: None,
                fold: None,
            }
        }
    }

    /// Symmetrically permutes a square matrix: `B = P A Pᵀ`, where
    /// `perm[new] = old` (i.e. row `new` of `B` is row `perm[new]` of `A`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `perm` has the wrong length.
    pub fn permuted_symmetric(&self, perm: &crate::Permutation) -> CsrMatrix {
        assert_eq!(self.nrows, self.ncols, "permute: matrix must be square");
        assert_eq!(perm.len(), self.nrows, "permute: permutation length");
        let inv = perm.inverse_slice();
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for new_r in 0..self.nrows {
            let old_r = perm.as_slice()[new_r];
            let (cols, vals) = self.row(old_r);
            scratch.clear();
            scratch.extend(cols.iter().map(|&c| inv[c]).zip(vals.iter().copied()));
            scratch.sort_unstable_by_key(|&(c, _)| c);
            for &(c, v) in &scratch {
                col_idx.push(c);
                values.push(v);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr,
            col_idx,
            values,
            hint: None,
            fold: None,
        }
    }

    /// The diagonal of a square matrix as a vector (zeros for missing
    /// entries).
    pub fn diagonal(&self) -> Vec<f64> {
        assert_eq!(self.nrows, self.ncols, "diagonal: matrix must be square");
        (0..self.nrows).map(|i| self.get(i, i)).collect()
    }
}

/// [`CsrMatrix::spmv_panel_into`]'s `(a, x, y)` as a job of the
/// instruction-set ladder: the level only widens the vectors LLVM packs
/// the `W` independent sums into.
pub(crate) struct PanelSpmv<'a, const W: usize>(
    pub(crate) &'a CsrMatrix,
    pub(crate) &'a [[f64; W]],
    pub(crate) &'a mut [[f64; W]],
);

impl<const W: usize> SimdLoop for PanelSpmv<'_, W> {
    type Output = ();
    const ZMM: bool = true;

    /// Every row: `W` sums from `-0.0`, one rounded product and add per
    /// stored entry in CSR order.
    #[inline(always)]
    unsafe fn run<V: Lanes>(self) {
        let PanelSpmv(a, x, y) = self;
        for (yi, w) in y.iter_mut().zip(a.row_ptr.windows(2)) {
            let (lo, hi) = (w[0], w[1]);
            let mut acc = [-0.0f64; W];
            for (&c, &v) in a.col_idx[lo..hi].iter().zip(&a.values[lo..hi]) {
                let xc = &x[c];
                for k in 0..W {
                    acc[k] += v * xc[k];
                }
            }
            *yi = acc;
        }
    }
}

impl MemoryFootprint for CsrMatrix {
    fn heap_bytes(&self) -> usize {
        self.row_ptr.heap_bytes() + self.col_idx.heap_bytes() + self.values.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Permutation;

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
    fn coo_to_csr_sums_duplicates_and_sorts() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(1, 2, 1.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 2, 2.0);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 3);
        assert_eq!(csr.row(1).0, &[0, 2]);
        assert_eq!(csr.get(1, 2), 3.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.get(0, 0), 0.0);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = laplacian_1d(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = a.spmv(&x);
        assert_eq!(y, vec![0.0, 0.0, 0.0, 0.0, 6.0]);
    }

    #[test]
    fn extract_splits_blocks() {
        let a = laplacian_1d(4);
        // Keep rows {1,2}, columns {1,2} -> interior block.
        let col_map = vec![None, Some(0), Some(1), None];
        let aff = a.extract(&[1, 2], &col_map, 2);
        assert_eq!(aff.get(0, 0), 2.0);
        assert_eq!(aff.get(0, 1), -1.0);
        assert_eq!(aff.get(1, 0), -1.0);
        // Coupling block rows {1,2}, columns {0,3}.
        let col_map_b = vec![Some(0), None, None, Some(1)];
        let afb = a.extract(&[1, 2], &col_map_b, 2);
        assert_eq!(afb.get(0, 0), -1.0);
        assert_eq!(afb.get(1, 1), -1.0);
        assert_eq!(afb.get(0, 1), 0.0);
    }

    #[test]
    fn symmetric_permutation_preserves_spectrum_action() {
        let a = laplacian_1d(4);
        let perm = Permutation::new(vec![3, 1, 0, 2]).unwrap();
        let b = a.permuted_symmetric(&perm);
        // b[new_i][new_j] == a[perm[new_i]][perm[new_j]]
        for ni in 0..4 {
            for nj in 0..4 {
                assert_eq!(
                    b.get(ni, nj),
                    a.get(perm.as_slice()[ni], perm.as_slice()[nj])
                );
            }
        }
    }

    #[test]
    fn pattern_assembly_roundtrip() {
        let rows = vec![vec![0, 1], vec![0, 1, 2], vec![1, 2]];
        let mut a = CsrMatrix::from_pattern(3, 3, &rows);
        a.add_at(1, 2, 5.0);
        a.add_at(1, 2, 1.0);
        assert_eq!(a.get(1, 2), 6.0);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "not in pattern")]
    fn pattern_violation_panics() {
        let rows = vec![vec![0], vec![1]];
        let mut a = CsrMatrix::from_pattern(2, 2, &rows);
        a.add_at(0, 1, 1.0);
    }

    #[test]
    fn residual_of_exact_solution_is_zero() {
        let a = laplacian_1d(3);
        let x = [1.0, 1.0, 1.0];
        let b = a.spmv(&x);
        assert!(a.residual(&x, &b) < 1e-15);
    }
}
