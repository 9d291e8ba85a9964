//! Dirichlet boundary conditions via symmetric elimination.
//!
//! The paper describes the "lifting" procedure (rows zeroed, unit diagonal,
//! prescribed values moved to the right-hand side, Eqs. 12–13). We implement
//! the symmetric variant: the constrained system is *reduced* to the free
//! DoFs with `rhs_f = ΔT·b_f − A_fb·u_b`, which preserves symmetry and
//! positive definiteness so sparse Cholesky and CG remain applicable. The
//! two formulations produce identical free-DoF solutions.

use std::sync::Arc;

use morestress_linalg::CsrMatrix;

use crate::FemError;

/// A set of prescribed displacement values, keyed by global DoF index
/// (`3·node + component`).
///
/// Stored flat: one `(dof, value)` list kept sorted by DoF, so every walk
/// over the constraints (the reduction's lifting, [`ReducedSystem::expand`],
/// the global stage's prescribed fill) reads one contiguous array. Callers
/// that constrain DoFs in ascending order — every production caller does,
/// node by node — pay one push per DoF. An out-of-order
/// [`set_dof`](Self::set_dof) binary-searches its position and then
/// overwrites in place or inserts, shifting the larger entries up: cheap
/// for a handful of pins, quadratic for a long descending sequence.
///
/// # Example
///
/// ```
/// use morestress_fem::DirichletBcs;
///
/// let mut bcs = DirichletBcs::new();
/// bcs.set_dof(8, 0.25);
/// bcs.clamp_nodes(&[0, 1]); // all three components of nodes 0 and 1 → 0
/// assert_eq!(bcs.len(), 7);
/// assert_eq!(bcs.value(8), Some(0.25));
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirichletBcs {
    /// `(dof, value)` pairs, strictly ascending by DoF.
    values: Vec<(usize, f64)>,
}

impl DirichletBcs {
    /// An empty set of constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prescribes a single DoF. Later calls overwrite earlier ones.
    pub fn set_dof(&mut self, dof: usize, value: f64) {
        match self.values.last() {
            Some(&(last, _)) if last >= dof => {
                match self.values.binary_search_by_key(&dof, |&(d, _)| d) {
                    Ok(at) => self.values[at].1 = value,
                    Err(at) => self.values.insert(at, (dof, value)),
                }
            }
            _ => self.values.push((dof, value)),
        }
    }

    /// Prescribes all three components of a node.
    pub fn set_node(&mut self, node: usize, displacement: [f64; 3]) {
        for (c, v) in displacement.into_iter().enumerate() {
            self.set_dof(3 * node + c, v);
        }
    }

    /// Clamps all three components of each node to zero.
    pub fn clamp_nodes(&mut self, nodes: &[usize]) {
        for &n in nodes {
            self.set_node(n, [0.0; 3]);
        }
    }

    /// Number of constrained DoFs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no DoF is constrained.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The prescribed value of `dof`, if constrained.
    pub fn value(&self, dof: usize) -> Option<f64> {
        self.values
            .binary_search_by_key(&dof, |&(d, _)| d)
            .ok()
            .map(|at| self.values[at].1)
    }

    /// Iterates over `(dof, value)` pairs in DoF order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.values.iter().copied()
    }

    /// The unconstrained DoFs of an `ndof`-DoF system, ascending — the
    /// free-index → full-index map of its reduction.
    pub fn free_dofs(&self, ndof: usize) -> Vec<usize> {
        let mut fixed = self.values.iter().map(|&(d, _)| d).peekable();
        (0..ndof)
            .filter(|dof| fixed.next_if_eq(dof).is_none())
            .collect()
    }
}

/// A symmetric reduction of `A u = b` to the free DoFs.
#[derive(Debug, Clone)]
pub struct ReducedSystem {
    /// `A_ff`: the operator restricted to free DoFs, shared so a solver
    /// backend can be prepared on it (and cached across solves) without
    /// copying the matrix.
    pub a_ff: Arc<CsrMatrix>,
    /// Right-hand side on the free DoFs: `b_f − A_fb u_b`.
    pub rhs: Vec<f64>,
    /// Mapping free index → full DoF index.
    pub free_dofs: Vec<usize>,
    /// The constraints this reduction was built from.
    bcs: DirichletBcs,
    ndof: usize,
}

impl ReducedSystem {
    /// Reduces `a·u = b` under the given constraints.
    ///
    /// # Errors
    ///
    /// [`FemError::FullyConstrained`] if no DoF remains free.
    pub fn new(a: &CsrMatrix, b: &[f64], bcs: &DirichletBcs) -> Result<Self, FemError> {
        let ndof = a.nrows();
        assert_eq!(b.len(), ndof, "rhs length must match the operator");
        // Dense copies of the constraint set: the lifting loop below reads
        // one per stored entry.
        let mut is_fixed = vec![false; ndof];
        let mut prescribed = vec![0.0; ndof];
        for (dof, value) in bcs.iter() {
            assert!(dof < ndof, "constrained dof {dof} out of range");
            is_fixed[dof] = true;
            prescribed[dof] = value;
        }
        let free_dofs = bcs.free_dofs(ndof);
        if free_dofs.is_empty() {
            return Err(FemError::FullyConstrained);
        }
        // col_map keeps free columns in order (monotone), drops fixed ones.
        let mut col_map = vec![None; ndof];
        for (new, &old) in free_dofs.iter().enumerate() {
            col_map[old] = Some(new);
        }
        let a_ff = Arc::new(a.extract(&free_dofs, &col_map, free_dofs.len()));

        // rhs = b_f − A_fb u_b, computed row-wise without materializing A_fb.
        let mut rhs = Vec::with_capacity(free_dofs.len());
        for &row in &free_dofs {
            let (cols, vals) = a.row(row);
            let mut s = b[row];
            for (&c, &v) in cols.iter().zip(vals) {
                if is_fixed[c] {
                    s -= v * prescribed[c];
                }
            }
            rhs.push(s);
        }
        Ok(Self::from_parts(a_ff, rhs, free_dofs, ndof, bcs.clone()))
    }

    /// The reduction whose parts are already at hand: the reduced operator
    /// `a_ff`, the right-hand side `rhs` on the free DoFs (for a zero load:
    /// the lifting term `−A_fb u_b`), and the ascending free-index →
    /// full-index map `free_dofs` of the `ndof`-DoF system constrained by
    /// `bcs`. This is how a caller that assembles `A_ff` directly — or takes
    /// it from a cached factorization — gets
    /// [`rhs_for_scaled_loads`](Self::rhs_for_scaled_loads) and
    /// [`expand`](Self::expand) without ever forming the unreduced operator.
    ///
    /// # Panics
    ///
    /// Panics if `a_ff`, `rhs` and `free_dofs` disagree in size, or if
    /// `free_dofs` and `bcs` do not partition the `ndof` DoFs by count.
    pub fn from_parts(
        a_ff: Arc<CsrMatrix>,
        rhs: Vec<f64>,
        free_dofs: Vec<usize>,
        ndof: usize,
        bcs: DirichletBcs,
    ) -> Self {
        assert_eq!(a_ff.nrows(), free_dofs.len(), "operator vs free set");
        assert_eq!(rhs.len(), free_dofs.len(), "rhs vs free set");
        assert_eq!(
            free_dofs.len() + bcs.len(),
            ndof,
            "free and constrained DoFs must partition the system"
        );
        Self {
            a_ff,
            rhs,
            free_dofs,
            bcs,
            ndof,
        }
    }

    /// [`from_parts`](Self::from_parts) for a **zero-load** system under
    /// **homogeneous** constraints (every prescribed value zero): the
    /// lifting term `−A_fb u_b` vanishes with `u_b`, so `rhs` is exactly the
    /// `+0.0` vector [`new`](Self::new) computes for such constraints, and
    /// [`rhs_for_scaled_loads`](Self::rhs_for_scaled_loads) /
    /// [`expand`](Self::expand) return the same bits either way.
    ///
    /// # Panics
    ///
    /// Panics if a prescribed value is nonzero, and as
    /// [`from_parts`](Self::from_parts) does.
    pub fn with_operator(
        a_ff: Arc<CsrMatrix>,
        free_dofs: Vec<usize>,
        ndof: usize,
        bcs: DirichletBcs,
    ) -> Self {
        assert!(
            bcs.iter().all(|(_, v)| v == 0.0),
            "a nonzero prescribed value needs A_fb for its lifting term"
        );
        let rhs = vec![0.0; free_dofs.len()];
        Self::from_parts(a_ff, rhs, free_dofs, ndof, bcs)
    }

    /// Number of free DoFs.
    pub fn num_free(&self) -> usize {
        self.free_dofs.len()
    }

    /// Builds the reduced right-hand sides of the scaled loads
    /// `b_k = factor_k · unit_load`, assuming `self` was reduced with a
    /// **zero** load (so `self.rhs` is exactly the load-independent lifting
    /// term `−A_fb u_b`). This is the batched multi-load path: the reduced
    /// operator and lifting are computed once, each load costs one
    /// restriction + axpy.
    ///
    /// # Panics
    ///
    /// Panics if `unit_load.len()` is not the full DoF count.
    pub fn rhs_for_scaled_loads(&self, unit_load: &[f64], factors: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(unit_load.len(), self.ndof, "unit load length");
        let unit_f: Vec<f64> = self.free_dofs.iter().map(|&d| unit_load[d]).collect();
        factors
            .iter()
            .map(|&factor| {
                self.rhs
                    .iter()
                    .zip(&unit_f)
                    .map(|(lift, unit)| lift + factor * unit)
                    .collect()
            })
            .collect()
    }

    /// Expands a free-DoF solution back to the full DoF vector, filling in
    /// the prescribed values.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_free()`.
    pub fn expand(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.free_dofs.len(), "free solution length");
        let mut full = vec![0.0; self.ndof];
        for (dof, v) in self.bcs.iter() {
            full[dof] = v;
        }
        for (free, &dof) in self.free_dofs.iter().enumerate() {
            full[dof] = x[free];
        }
        full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morestress_linalg::CooMatrix;
    use morestress_oracle::{DenseLu, SparseCholesky};

    /// 1-D bar of unit springs: A = tridiag(-1, 2, -1), fixed ends.
    fn spring_chain(n: usize) -> CsrMatrix {
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
    fn reduction_solves_prescribed_displacement_problem() {
        // 5-node chain, u0 = 0, u4 = 1, no load: solution is linear ramp.
        let a = spring_chain(5);
        let b = vec![0.0; 5];
        let mut bcs = DirichletBcs::new();
        bcs.set_dof(0, 0.0);
        bcs.set_dof(4, 1.0);
        let red = ReducedSystem::new(&a, &b, &bcs).unwrap();
        assert_eq!(red.num_free(), 3);
        let chol = SparseCholesky::factor(&red.a_ff).unwrap();
        let x = chol.solve(&red.rhs);
        let full = red.expand(&x);
        for (i, expect) in [0.0, 0.25, 0.5, 0.75, 1.0].iter().enumerate() {
            assert!((full[i] - expect).abs() < 1e-12, "u[{i}] = {}", full[i]);
        }
    }

    #[test]
    fn reduction_matches_paper_lifting() {
        // The paper's lifting (zero rows + unit diagonal + prescribed rhs)
        // must give the same answer as symmetric reduction.
        let a = spring_chain(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let mut bcs = DirichletBcs::new();
        bcs.set_dof(1, 0.5);
        let red = ReducedSystem::new(&a, &b, &bcs).unwrap();
        let x = SparseCholesky::factor(&red.a_ff).unwrap().solve(&red.rhs);
        let full = red.expand(&x);

        // Lifted (non-symmetric) formulation solved densely.
        let mut rows = Vec::new();
        for i in 0..4 {
            let mut row = vec![0.0; 4];
            if bcs.value(i).is_some() {
                row[i] = 1.0;
            } else {
                for j in 0..4 {
                    row[j] = a.get(i, j);
                }
            }
            rows.push(row);
        }
        let dense = morestress_linalg::DenseMatrix::from_rows(
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let rhs: Vec<f64> = (0..4).map(|i| bcs.value(i).unwrap_or(b[i])).collect();
        let lifted = DenseLu::factor(&dense).unwrap().solve(&rhs).unwrap();
        for (p, q) in full.iter().zip(&lifted) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn lifting_keeps_the_bits_of_the_per_entry_lookup() {
        // The lifting term read from the constraint map entry by entry —
        // the formula `new` used before it kept a dense prescribed-value
        // vector. Rows 1 and 3 each see two fixed columns.
        let a = spring_chain(9);
        let b: Vec<f64> = (0..9).map(|i| 0.1 * i as f64 - 0.3).collect();
        let mut bcs = DirichletBcs::new();
        for (dof, value) in [(0, 0.7), (2, -1.3), (4, 1e-3), (8, 2.5)] {
            bcs.set_dof(dof, value);
        }
        let red = ReducedSystem::new(&a, &b, &bcs).unwrap();
        assert_eq!(red.free_dofs, [1, 3, 5, 6, 7]);
        for (&row, got) in red.free_dofs.iter().zip(&red.rhs) {
            let (cols, vals) = a.row(row);
            let mut expect = b[row];
            for (&c, &v) in cols.iter().zip(vals) {
                if let Some(u) = bcs.value(c) {
                    expect -= v * u;
                }
            }
            assert_eq!(got.to_bits(), expect.to_bits(), "row {row}");
        }
    }

    #[test]
    fn with_operator_is_new_under_homogeneous_constraints() {
        let a = spring_chain(6);
        let mut bcs = DirichletBcs::new();
        bcs.set_dof(0, 0.0);
        bcs.set_dof(5, 0.0);
        let red = ReducedSystem::new(&a, &[0.0; 6], &bcs).unwrap();
        let warm =
            ReducedSystem::with_operator(Arc::clone(&red.a_ff), red.free_dofs.clone(), 6, bcs);
        assert_eq!(warm.free_dofs, red.free_dofs);
        assert!(warm
            .rhs
            .iter()
            .zip(&red.rhs)
            .all(|(w, r)| w.to_bits() == r.to_bits() && w.to_bits() == 0));
        let unit = [1.0, -2.0, 3.0, -4.0, 5.0, -6.0];
        assert_eq!(
            warm.rhs_for_scaled_loads(&unit, &[-250.0, 0.0]),
            red.rhs_for_scaled_loads(&unit, &[-250.0, 0.0])
        );
        assert_eq!(warm.expand(&[1.0; 4]), red.expand(&[1.0; 4]));
    }

    #[test]
    fn fully_constrained_is_an_error() {
        let a = spring_chain(2);
        let mut bcs = DirichletBcs::new();
        bcs.set_dof(0, 0.0);
        bcs.set_dof(1, 0.0);
        assert!(matches!(
            ReducedSystem::new(&a, &[0.0, 0.0], &bcs),
            Err(FemError::FullyConstrained)
        ));
    }

    #[test]
    fn node_helpers_expand_components() {
        let mut bcs = DirichletBcs::new();
        bcs.set_node(2, [1.0, 2.0, 3.0]);
        assert_eq!(bcs.value(6), Some(1.0));
        assert_eq!(bcs.value(7), Some(2.0));
        assert_eq!(bcs.value(8), Some(3.0));
        bcs.clamp_nodes(&[0]);
        assert_eq!(bcs.value(0), Some(0.0));
        assert_eq!(bcs.len(), 6);
    }
}
