//! The fixed subspace of a symmetry group: how the direct engine solves a
//! mirror-symmetric operator in a fraction of its dimension.
//!
//! A group `G` of signed row permutations `R_g` that an operator `A`
//! commutes with (`R_g A R_gᵀ = A`) splits every right-hand side into a
//! symmetric part and the rest; a symmetric `b` (`R_g b = b` for all `g`)
//! has a symmetric solution. The symmetric vectors are spanned by the
//! orbit sums of the unit vectors, so `V`, one ±1 column per orbit, turns
//! `A x = b` into `(Vᵀ A V) y = Vᵀ b`, `x = V y` — exact, and about `|G|`
//! times smaller. An orbit whose sum vanishes (a member some `g` maps to
//! its own negative) has no column: its DoFs are zero in every symmetric
//! solution.

use std::sync::Arc;

use crate::{CsrMatrix, MemoryFootprint, PartitionHint};

/// No folded column: the group maps the row to its own negative.
const NONE: usize = usize::MAX;

/// The signed column map `V` of a symmetry group, as an operator carries it
/// ([`CsrMatrix::with_fold`]).
///
/// Row `i` of `V` has one entry, `±1`, or none. `V` is deliberately not
/// normalised: expanding `x = V y` is then an exact copy or sign flip, so a
/// folded solution is bitwise symmetric, and folding `Vᵀ A V` and `Vᵀ b`
/// are plain signed sums, each in a fixed order.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetryFold {
    order: usize,
    /// Folded column of every row, [`NONE`] where the row has no entry.
    col: Vec<usize>,
    /// Whether the row's entry is −1.
    flip: Vec<bool>,
    /// The rows of folded column `c`, ascending:
    /// `members[member_ptr[c]..member_ptr[c + 1]]`.
    member_ptr: Vec<usize>,
    members: Vec<usize>,
    /// The folded operator's own block-grid provenance.
    hint: Option<Arc<PartitionHint>>,
}

impl SymmetryFold {
    /// The map of a group of `order` elements over `entries.len()` rows:
    /// `entries[i]` is row `i`'s folded column and whether its entry is
    /// −1, or `None` for a row without one. `hint`, if any, describes the
    /// rows of the folded operator `Vᵀ A V` (one span per column), so the
    /// direct factor can dissect it along its own block grid.
    ///
    /// # Panics
    ///
    /// Panics if some column below the largest one named has no row, or
    /// if `hint` describes a different number of columns.
    pub fn new(
        order: usize,
        entries: &[Option<(usize, bool)>],
        hint: Option<Arc<PartitionHint>>,
    ) -> Self {
        let dim = entries
            .iter()
            .flatten()
            .map(|&(c, _)| c + 1)
            .max()
            .unwrap_or(0);
        let mut member_ptr = vec![0usize; dim + 1];
        for &(c, _) in entries.iter().flatten() {
            member_ptr[c + 1] += 1;
        }
        for c in 0..dim {
            assert!(member_ptr[c + 1] > 0, "fold column {c} has no row");
            member_ptr[c + 1] += member_ptr[c];
        }
        let mut next = member_ptr[..dim].to_vec();
        let mut members = vec![0usize; member_ptr[dim]];
        for (i, &(c, _)) in entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e)))
        {
            members[next[c]] = i;
            next[c] += 1;
        }
        if let Some(hint) = &hint {
            assert_eq!(hint.num_rows(), dim, "fold hint row count");
        }
        Self {
            order,
            col: entries.iter().map(|e| e.map_or(NONE, |(c, _)| c)).collect(),
            flip: entries.iter().map(|e| e.is_some_and(|(_, f)| f)).collect(),
            member_ptr,
            members,
            hint,
        }
    }

    /// Order of the group `V` folds by.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Rows of `V`: the dimension of the unfolded operator.
    pub(crate) fn rows(&self) -> usize {
        self.col.len()
    }

    /// Columns of `V`: the dimension of the folded operator `Vᵀ A V`.
    pub fn dim(&self) -> usize {
        self.member_ptr.len() - 1
    }

    /// `Vᵀ A V`, exactly symmetric, carrying the folded hint. Each entry of
    /// the lower triangle is summed in one fixed order — the members of its
    /// row in ascending order, each row's entries in column order — and
    /// mirrored into the upper triangle, so the result depends on nothing
    /// but `a` and the map.
    pub(crate) fn fold(&self, a: &CsrMatrix) -> CsrMatrix {
        let m = self.dim();
        let mut acc = vec![0.0f64; m];
        let mut seen = vec![false; m];
        let mut touched: Vec<usize> = Vec::new();
        let mut lower_ptr = Vec::with_capacity(m + 1);
        lower_ptr.push(0usize);
        let mut lower_cols: Vec<usize> = Vec::new();
        let mut lower_vals: Vec<f64> = Vec::new();
        for c in 0..m {
            for &i in &self.members[self.member_ptr[c]..self.member_ptr[c + 1]] {
                let (cols, vals) = a.row(i);
                for (&j, &v) in cols.iter().zip(vals) {
                    let d = self.col[j];
                    if d > c {
                        continue; // the upper triangle, or no column at all
                    }
                    if !seen[d] {
                        seen[d] = true;
                        touched.push(d);
                    }
                    acc[d] += if self.flip[i] != self.flip[j] { -v } else { v };
                }
            }
            touched.sort_unstable();
            for &d in &touched {
                lower_cols.push(d);
                lower_vals.push(acc[d]);
                acc[d] = 0.0;
                seen[d] = false;
            }
            touched.clear();
            lower_ptr.push(lower_cols.len());
        }
        // Row `r` of the full matrix is lower row `r` followed by the
        // strict-lower entries `(r', r)` of the rows `r' > r`, ascending.
        let mut row_ptr = vec![0usize; m + 1];
        for r in 0..m {
            row_ptr[r + 1] += lower_ptr[r + 1] - lower_ptr[r];
            for &c in &lower_cols[lower_ptr[r]..lower_ptr[r + 1]] {
                if c < r {
                    row_ptr[c + 1] += 1;
                }
            }
        }
        for r in 0..m {
            row_ptr[r + 1] += row_ptr[r];
        }
        let nnz = row_ptr[m];
        let mut next = row_ptr[..m].to_vec();
        let mut col_idx = vec![0usize; nnz];
        let mut values = vec![0.0f64; nnz];
        for r in 0..m {
            for k in lower_ptr[r]..lower_ptr[r + 1] {
                let (c, v) = (lower_cols[k], lower_vals[k]);
                col_idx[next[r]] = c;
                values[next[r]] = v;
                next[r] += 1;
                if c < r {
                    col_idx[next[c]] = r;
                    values[next[c]] = v;
                    next[c] += 1;
                }
            }
        }
        let folded = CsrMatrix::from_raw_trusted(m, m, row_ptr, col_idx, values);
        match &self.hint {
            Some(hint) => folded.with_partition_hint(Arc::clone(hint)),
            None => folded,
        }
    }

    /// `y = Vᵀ b`: each folded entry the signed sum of its rows' entries,
    /// in ascending row order.
    pub(crate) fn gather_into(&self, b: &[f64], y: &mut [f64]) {
        y.fill(0.0);
        for ((&c, &flip), &v) in self.col.iter().zip(&self.flip).zip(b) {
            if c != NONE {
                y[c] += if flip { -v } else { v };
            }
        }
    }

    /// `x = V y`: every row a copy or the negation of its folded entry, or
    /// zero.
    pub(crate) fn scatter(&self, y: &[f64]) -> Vec<f64> {
        self.col
            .iter()
            .zip(&self.flip)
            .map(|(&c, &flip)| match (c, flip) {
                (NONE, _) => 0.0,
                (c, true) => -y[c],
                (c, false) => y[c],
            })
            .collect()
    }
}

impl MemoryFootprint for SymmetryFold {
    fn heap_bytes(&self) -> usize {
        self.col.heap_bytes()
            + self.flip.heap_bytes()
            + self.member_ptr.heap_bytes()
            + self.members.heap_bytes()
            + self.hint.as_ref().map_or(0, |h| h.heap_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_operators::laplacian_2d;

    /// The x mirror of an `nx × ny` point grid (row-major): point `(x, y)`
    /// and `(nx − 1 − x, y)` share a column, the lower-left one first.
    fn x_mirror(nx: usize, ny: usize, odd: bool) -> SymmetryFold {
        // Columns per grid row: the on-plane point of an odd grid has one
        // unless it is annihilated.
        let half = if odd { nx / 2 } else { nx.div_ceil(2) };
        let entries: Vec<_> = (0..ny)
            .flat_map(|y| (0..nx).map(move |x| (x, y)))
            .map(|(x, y)| {
                let rep = x.min(nx - 1 - x);
                let on_plane = 2 * x + 1 == nx;
                if odd && on_plane {
                    None
                } else {
                    Some((y * half + rep, odd && x != rep))
                }
            })
            .collect();
        SymmetryFold::new(2, &entries, None)
    }

    #[test]
    fn folded_solves_match_the_full_operator_on_symmetric_loads() {
        for (nx, odd) in [(6, false), (7, false), (7, true)] {
            let ny = 5;
            let a = laplacian_2d(nx, ny);
            let fold = x_mirror(nx, ny, odd);
            let folded = fold.fold(&a);
            // Exactly symmetric.
            for r in 0..folded.nrows() {
                let (cols, vals) = folded.row(r);
                for (&c, &v) in cols.iter().zip(vals) {
                    assert_eq!(folded.get(c, r).to_bits(), v.to_bits());
                }
            }
            // A symmetric (even) or antisymmetric (odd) load.
            let b: Vec<f64> = (0..nx * ny)
                .map(|i| {
                    let (x, y) = (i % nx, i / nx);
                    let mirror = (nx - 1 - x) as f64;
                    let s = if odd {
                        x as f64 - mirror
                    } else {
                        1.0 + x as f64 * mirror
                    };
                    s * (1.0 + y as f64)
                })
                .collect();
            let mut y = vec![0.0; fold.dim()];
            fold.gather_into(&b, &mut y);
            let factor = crate::SupernodalCholesky::factor(&folded).unwrap();
            let x = fold.scatter(&factor.solve(&y));
            assert!(a.residual(&x, &b) < 1e-14, "nx {nx}, odd {odd}");
            for i in 0..nx * ny {
                let (px, py) = (i % nx, i / nx);
                let m = py * nx + (nx - 1 - px);
                // Exact: an annihilated row is `+0.0`, its image `−0.0`.
                let image = if odd { -x[m] } else { x[m] };
                assert_eq!(x[i], image, "nx {nx}, odd {odd}");
            }
        }
    }
}
