//! Deterministic fault-injection support for the resilience test harness.
//!
//! A [`FaultPlan`] is a seeded, structure-addressed fault injector: given
//! the same seed and the same operator structure it corrupts the same
//! entries, so the `fault_injection` suite (and any debugging session
//! replaying one of its cases) is exactly reproducible — no wall-clock, no
//! global RNG. Faults are addressed by *structure* (an nnz slot, a pivot
//! row, a shard's interior block, a cache key), not by raw byte offsets,
//! so they stay meaningful when kernel internals change.
//!
//! This module is test support: production code never constructs a
//! `FaultPlan`. It lives in the crate (rather than in `tests/`) because
//! the cache-corruption fault needs crate-private access to rebind a
//! prepared factor to an operator it does not solve.

use std::sync::Arc;

use crate::backend::{shifted_copy, FactorCache, SolverBackend};
use crate::error::LinalgError;
use crate::shard::ShardPlan;
use crate::sparse::CsrMatrix;

/// Seeded, structure-addressed fault injector (see the module docs).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    state: u64,
}

impl FaultPlan {
    /// A plan replaying the fault sequence of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// splitmix64 — the same tiny generator the dev proptest shim uses.
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A deterministic index in `0..n` (0 for an empty range).
    pub fn pick(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next() % n as u64) as usize
        }
    }

    /// Poisons one stored value of `a` with NaN, returning the nnz index.
    /// The input scan of every `prepare`/`solve` entry point must turn this
    /// into [`LinalgError::NonFinite`] before any factorization runs.
    pub fn poison_value(&mut self, a: &mut CsrMatrix) -> usize {
        let k = self.pick(a.nnz());
        a.values_mut()[k] = f64::NAN;
        k
    }

    /// Zeroes one diagonal entry of `a` (keeping symmetry), returning the
    /// row. Cholesky must break down with
    /// [`LinalgError::NotPositiveDefinite`] at or before that row, sending
    /// the ladder to its regularized/GMRES rungs.
    pub fn break_pivot(&mut self, a: &mut CsrMatrix) -> usize {
        let row = self.pick_row_with_diagonal(a);
        let k = diag_index(a, row).expect("picked row has a diagonal entry");
        a.values_mut()[k] = 0.0;
        row
    }

    /// Makes one shard's interior block indefinite by negating a diagonal
    /// entry it owns (keeping symmetry), returning the shard index. Only
    /// that shard's interior factorization can break down; every other
    /// shard must keep its clean direct factor.
    pub fn corrupt_shard(&mut self, a: &mut CsrMatrix, plan: &ShardPlan) -> usize {
        let shard = self.pick(plan.num_shards());
        let rows = plan.shard_rows(shard);
        // Walk the shard's rows from a deterministic start until one with a
        // stored diagonal entry turns up.
        let start = self.pick(rows.len().max(1));
        for off in 0..rows.len() {
            let row = rows[(start + off) % rows.len()];
            if let Some(k) = diag_index(a, row) {
                let v = a.values()[k];
                a.values_mut()[k] = -v.abs() - 1.0;
                return shard;
            }
        }
        shard
    }

    /// Evicts the factor cached under `(backend, key)`, returning whether
    /// there was one. A well-behaved caller must transparently re-prepare
    /// on the resulting miss.
    pub fn evict_cache(
        &mut self,
        cache: &FactorCache,
        backend: &dyn SolverBackend,
        key: &[u64],
    ) -> bool {
        cache.invalidate(backend, key)
    }

    /// Plants a corrupted factor of `a` under `(backend, key)`: a
    /// healthy-looking [`PreparedSolver`](crate::PreparedSolver) bound to
    /// `a` whose factor belongs to a strongly diagonally-shifted copy of
    /// `a`. The stale-cache self-heal
    /// ([`FactorCache::solve_many_healing`]) must detect the mismatch and
    /// rebuild exactly that entry once.
    ///
    /// # Errors
    ///
    /// Propagates the prepare failure if even the shifted copy cannot be
    /// prepared (it is SPD-dominant by construction, so this means the
    /// backend itself is broken).
    pub fn corrupt_cache(
        &mut self,
        cache: &FactorCache,
        backend: &dyn SolverBackend,
        key: &[u64],
        a: &Arc<CsrMatrix>,
    ) -> Result<(), LinalgError> {
        let max_diag = a
            .diagonal()
            .iter()
            .fold(0.0f64, |m, d| m.max(d.abs()))
            .max(1.0);
        // A shift of 3–10× the diagonal scale: large enough that the wrong
        // factor's solutions visibly miss the true operator's residual
        // check, small enough to stay well-conditioned.
        let shift = (3 + self.pick(8)) as f64 * max_diag;
        let wrong = backend.prepare(Arc::new(shifted_copy(a, shift)))?;
        let solver = Arc::new(wrong.rebind_matrix(Arc::clone(a)));
        cache.inject(backend, key, solver);
        Ok(())
    }

    /// A row of `a` that has a stored diagonal entry (falls back to row 0
    /// if none does, which no assembled FEM operator hits).
    fn pick_row_with_diagonal(&mut self, a: &CsrMatrix) -> usize {
        let n = a.nrows();
        let start = self.pick(n.max(1));
        for off in 0..n {
            let row = (start + off) % n;
            if diag_index(a, row).is_some() {
                return row;
            }
        }
        0
    }
}

/// nnz index of the stored diagonal entry of `row`, if the pattern has one.
fn diag_index(a: &CsrMatrix, row: usize) -> Option<usize> {
    let lo = a.row_ptr()[row];
    let hi = a.row_ptr()[row + 1];
    (lo..hi).find(|&k| a.col_idx()[k] == row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_operators::{hinted_grid, laplacian_2d};
    use crate::DirectCholesky;

    #[test]
    fn plans_are_deterministic_per_seed() {
        let base = laplacian_2d(6, 6);
        let (mut a1, mut a2, mut a3) = (base.clone(), base.clone(), base.clone());
        assert_eq!(
            FaultPlan::new(7).poison_value(&mut a1),
            FaultPlan::new(7).poison_value(&mut a2)
        );
        let k3 = FaultPlan::new(8).poison_value(&mut a3);
        // Not a hard guarantee per seed pair, but these two seeds differ.
        assert_ne!(
            FaultPlan::new(7).pick(1 << 30),
            FaultPlan::new(8).pick(1 << 30)
        );
        assert!(k3 < base.nnz());
    }

    #[test]
    fn break_pivot_defeats_cholesky() {
        let mut a = laplacian_2d(5, 5);
        let row = FaultPlan::new(42).break_pivot(&mut a);
        assert!(row < a.nrows());
        let err = DirectCholesky::default()
            .prepare(Arc::new(a))
            .expect_err("zeroed pivot must break the factorization");
        assert!(matches!(err, LinalgError::NotPositiveDefinite { .. }));
    }

    #[test]
    fn corrupt_shard_targets_one_interior_block() {
        let (a, hint) = hinted_grid(4, 4, 2);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        assert_eq!(plan.num_shards(), 4);
        let mut faulty = a.clone();
        let shard = FaultPlan::new(3).corrupt_shard(&mut faulty, &plan);
        assert!(shard < plan.num_shards());
        // Exactly one stored value changed, on the diagonal, inside the
        // reported shard's interior rows.
        let changed: Vec<usize> = (0..a.nnz())
            .filter(|&k| a.values()[k] != faulty.values()[k])
            .collect();
        assert_eq!(changed.len(), 1);
        let k = changed[0];
        let row = (0..a.nrows())
            .find(|&r| a.row_ptr()[r] <= k && k < a.row_ptr()[r + 1])
            .unwrap();
        assert_eq!(a.col_idx()[k], row, "fault must stay on the diagonal");
        assert_eq!(plan.owner(row), Some(shard));
        assert!(faulty.values()[k] < 0.0);
    }
}
