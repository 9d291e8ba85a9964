//! K-way domain decomposition of a sparse operator for the sharded
//! (Schur-complement) solver backend.
//!
//! A [`ShardPlan`] partitions the row/column index set of a square sparse
//! matrix — viewed as an undirected adjacency graph, exactly like the
//! fill-reducing orderings do — into `K` *interior shards* plus one
//! *interface* set, such that no stored entry couples two different shards
//! directly: every inter-shard path passes through interface vertices. In
//! block form (after an implicit symmetric permutation) the operator is
//! block-diagonal over the shard interiors bordered by the interface,
//!
//! ```text
//!         ┌ A_11           A_1s ┐
//!     A = │      ⋱           ⋮  │
//!         │          A_KK  A_Ks │
//!         └ A_s1  ⋯  A_sK  A_ss ┘
//! ```
//!
//! which is the algebraic prerequisite for the Schur-complement solve in
//! [`schur`](crate::Sharded): each `A_kk` factors independently (and
//! concurrently), and only the small interface system couples them.
//!
//! The plan is cut from the operator's block-grid geometry, a
//! [`PartitionHint`]: the reduced global operator of a block array couples
//! two DoFs only when they touch a common block, so
//! [`ShardPlan::build_hinted`] bisects the *block grid* recursively into
//! `K` weight-balanced rectangles. Rows whose block span lies inside one
//! rectangle are interior to that shard; rows spanning a cut are the
//! interface. The hint is advisory: the plan is validated against the
//! actual sparsity, and an operator without a usable hint — none, one of
//! the wrong length, one the sparsity contradicts, or a grid too small to
//! cut — is planned as a single shard, which degenerates the sharded solve
//! to the monolithic one.
//!
//! Planning is fully deterministic (no scheduling, no randomness), so a
//! plan — and everything the sharded solver derives from it — is identical
//! across runs and pool caps.

use crate::ordering::bisect_weighted_grid;
use crate::{CsrMatrix, MemoryFootprint};

/// Owner tag for interface rows in [`ShardPlan::owner`].
const INTERFACE: usize = usize::MAX;

/// Operators with fewer rows than this are never split: the interface
/// would cost more than the shards save.
const MIN_SPLIT_ROWS: usize = 64;

/// Multi-shard plans keep `max(work) / mean(work) ≤ BALANCE_BOUND`, where
/// work is the interior-degree-squared factor proxy of
/// [`ShardPlanStats::max_shard_work`]: the planner rejects region counts
/// that violate it (a 2-way split satisfies it identically, so the search
/// always terminates).
const BALANCE_BOUND: f64 = 2.0;

/// Block-grid provenance of every row of an operator, used by
/// [`ShardPlan::build_hinted`] to partition geometrically and by
/// [`FillOrdering::Geometric`](crate::FillOrdering) to order the direct
/// factor. It travels on the operator it describes
/// ([`CsrMatrix::with_partition_hint`]).
///
/// The reduced global operator of a block array couples two DoFs only when
/// they touch a common block, so each row can be tagged with the inclusive
/// span of block coordinates `[bx_lo, bx_hi, by_lo, by_hi]` it participates
/// in (a span wider than one block means the row sits on a shared block
/// face). Two rows couple only if their spans intersect; a row whose span
/// lies inside one region of a block-grid partition is therefore provably
/// decoupled from every other region's interior.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionHint {
    /// Block-grid dimensions `[nbx, nby]`.
    grid: [usize; 2],
    /// Per-row inclusive block-coordinate span `[bx_lo, bx_hi, by_lo, by_hi]`.
    spans: Vec<[usize; 4]>,
}

impl PartitionHint {
    /// Builds a hint over an `grid = [nbx, nby]` block grid with one
    /// inclusive span `[bx_lo, bx_hi, by_lo, by_hi]` per operator row.
    ///
    /// # Panics
    ///
    /// Panics if the grid is empty or any span is inverted or out of range.
    pub fn new(grid: [usize; 2], spans: Vec<[usize; 4]>) -> Self {
        assert!(
            grid[0] >= 1 && grid[1] >= 1,
            "partition hint: block grid must be non-empty"
        );
        for (row, s) in spans.iter().enumerate() {
            assert!(
                s[0] <= s[1] && s[1] < grid[0] && s[2] <= s[3] && s[3] < grid[1],
                "partition hint: row {row} span {s:?} outside grid {grid:?}"
            );
        }
        Self { grid, spans }
    }

    /// Number of operator rows the hint describes. A hint is only usable
    /// for operators of exactly this dimension.
    pub fn num_rows(&self) -> usize {
        self.spans.len()
    }

    /// Block-grid dimensions `[nbx, nby]`.
    pub fn grid(&self) -> [usize; 2] {
        self.grid
    }

    /// Per-row inclusive block-coordinate spans
    /// `[bx_lo, bx_hi, by_lo, by_hi]`.
    pub(crate) fn spans(&self) -> &[[usize; 4]] {
        &self.spans
    }

    /// The hint of the sub-operator made of `rows` (in that order), such as
    /// one shard's interior: their spans, shifted to the origin of the
    /// smallest block rectangle holding them all, over that rectangle's
    /// grid. A shard's rows lie inside its region of the plan, so the
    /// rectangle is that region (or inside it), and
    /// [`FillOrdering::Auto`](crate::FillOrdering) dissects the interior
    /// along the blocks it owns.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or names a row the hint does not describe.
    pub(crate) fn restricted(&self, rows: &[usize]) -> PartitionHint {
        let mut bbox = [usize::MAX, 0, usize::MAX, 0];
        for &row in rows {
            let [xl, xh, yl, yh] = self.spans[row];
            bbox = [
                bbox[0].min(xl),
                bbox[1].max(xh),
                bbox[2].min(yl),
                bbox[3].max(yh),
            ];
        }
        let [x0, x1, y0, y1] = bbox;
        assert!(x0 <= x1, "partition hint: restriction to no rows");
        let spans = rows
            .iter()
            .map(|&row| {
                let [xl, xh, yl, yh] = self.spans[row];
                [xl - x0, xh - x0, yl - y0, yh - y0]
            })
            .collect();
        PartitionHint::new([x1 - x0 + 1, y1 - y0 + 1], spans)
    }

    /// Rows per block of the grid (row-major, `nbx · nby` entries), each row
    /// counted at the lower-left block of its span — the weights the grid
    /// bisection balances, so cuts follow row counts, not block counts.
    pub(crate) fn block_weights(&self) -> Vec<u64> {
        let [nbx, nby] = self.grid;
        let mut weights = vec![0u64; nbx * nby];
        for s in &self.spans {
            weights[s[2] * nbx + s[0]] += 1;
        }
        weights
    }
}

impl MemoryFootprint for PartitionHint {
    fn heap_bytes(&self) -> usize {
        self.spans.capacity() * std::mem::size_of::<[usize; 4]>()
    }
}

/// First-class quality accounting of a [`ShardPlan`]: how balanced the
/// interior shards are and how much of the operator the interface eats.
///
/// Work is estimated per shard as `Σ_rows (interior degree)²` — the flop
/// proxy for factoring that shard's diagonal block — so `balance_ratio`
/// close to 1 means the concurrent shard factorization divides evenly
/// across workers, and `balance_ratio ≤ 2` is the bound the planner
/// enforces for multi-shard plans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPlanStats {
    /// Number of interior shards in the plan.
    pub shards: usize,
    /// Interface (separator) rows.
    pub interface_dofs: usize,
    /// `interface_dofs / num_rows` (0 for an empty operator).
    pub interface_fraction: f64,
    /// Rows of the smallest interior shard.
    pub min_shard_rows: usize,
    /// Rows of the largest interior shard.
    pub max_shard_rows: usize,
    /// Largest per-shard estimated factor work (interior degree squared).
    pub max_shard_work: f64,
    /// Mean per-shard estimated factor work.
    pub mean_shard_work: f64,
    /// `max_shard_work / mean_shard_work` (1 when there is no work).
    pub balance_ratio: f64,
}

/// A K-way interior/interface partition of a square operator's index set.
///
/// Built by [`ShardPlan::build_hinted`]; consumed by
/// the [`Sharded`](crate::Sharded) backend. Row indices within each shard
/// and within the interface are sorted ascending, and shards are ordered by
/// their smallest row index, so the plan (and every extraction order
/// derived from it) is canonical.
///
/// Because the plan is canonical, `PartialEq` compares partitions
/// semantically: two plans are equal exactly when they induce the same
/// block structure — which is what the [`Sharded`](crate::Sharded) cache
/// dedupe relies on when different requested shard counts degenerate to
/// the same partition. The attached [`ShardPlanStats`] are derived data and
/// do not participate in equality.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Sorted interior row indices, one list per shard (all non-empty).
    shards: Vec<Vec<usize>>,
    /// Sorted interface row indices.
    interface: Vec<usize>,
    /// `owner[row]` = shard index, or `usize::MAX` for interface rows.
    owner: Vec<usize>,
    /// Quality accounting, computed once at construction.
    stats: ShardPlanStats,
}

impl PartialEq for ShardPlan {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards && self.interface == other.interface
    }
}

impl Eq for ShardPlan {}

impl ShardPlan {
    /// Multi-shard plans never carry an interior shard smaller than this:
    /// a region count whose cut would leave one is rejected, since a
    /// (near-)singleton shard's factor is all overhead.
    pub const MIN_SHARD_ROWS: usize = 8;

    /// Partitions `a` into up to `shards` interior blocks plus a separating
    /// interface by recursive weighted bisection of `hint`'s block grid.
    ///
    /// The plan delivers *at most* `shards` shards — never more than the
    /// grid has blocks, and fewer when a finer cut would break the rows
    /// floor or the balance bound. Whenever no cut qualifies — `shards <= 1`,
    /// an operator below 64 rows, no hint, a hint whose `num_rows`
    /// mismatches the operator, a one-block grid, or a hint whose implied
    /// decoupling the actual sparsity contradicts — the result is the
    /// single-shard plan (everything interior, empty interface), which
    /// degenerates the sharded solve to the monolithic one: a wrong hint
    /// costs the sharding, never correctness.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn build_hinted(a: &CsrMatrix, shards: usize, hint: Option<&PartitionHint>) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "shard plan: matrix must be square");
        let n = a.nrows();
        if shards <= 1 || n < MIN_SPLIT_ROWS {
            return Self::single(a);
        }
        hint.filter(|hint| hint.num_rows() == n)
            .and_then(|hint| Self::build_geometric(a, shards, hint))
            .unwrap_or_else(|| Self::single(a))
    }

    /// Recursive weighted bisection of the hint's block grid. Returns
    /// `None` when no region count in `2..=shards` passes the rows floor,
    /// the sparsity validation, and the balance bound — the caller then
    /// plans one shard.
    fn build_geometric(a: &CsrMatrix, shards: usize, hint: &PartitionHint) -> Option<Self> {
        let n = a.nrows();
        let [nbx, nby] = hint.grid;
        let max_k = shards.min(nbx * nby);
        if max_k < 2 {
            return None;
        }
        let weights = hint.block_weights();
        for k in (2..=max_k).rev() {
            let rects = bisect_weighted_grid(&weights, nbx, nby, k);
            if rects.len() != k {
                continue;
            }
            let mut region_of = vec![usize::MAX; nbx * nby];
            for (r, &[x0, x1, y0, y1]) in rects.iter().enumerate() {
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        region_of[y * nbx + x] = r;
                    }
                }
            }
            // A row is interior to the region containing its whole span;
            // rows spanning a cut are interface.
            let mut owner = vec![INTERFACE; n];
            let mut counts = vec![0usize; k];
            for (row, &[xl, xh, yl, yh]) in hint.spans.iter().enumerate() {
                let r = region_of[yl * nbx + xl];
                let [_, x1, _, y1] = rects[r];
                if xh <= x1 && yh <= y1 {
                    owner[row] = r;
                    counts[r] += 1;
                }
            }
            if counts.iter().any(|&c| c < Self::MIN_SHARD_ROWS) {
                continue;
            }
            // The hint is advisory: confirm against the true sparsity that
            // no stored entry couples two regions' interiors. A violation
            // means the hint misdescribes the operator — distrust it
            // entirely rather than trying a coarser cut of bad data.
            for v in 0..n {
                if owner[v] == INTERFACE {
                    continue;
                }
                for &w in a.row(v).0 {
                    if owner[w] != owner[v] && owner[w] != INTERFACE {
                        return None;
                    }
                }
            }
            // Balance over the factor-work proxy. k = 2 satisfies the
            // bound identically (max ≤ total = 2·mean), so whenever the
            // rows floor admits a 2-way cut the loop terminates with a
            // valid plan.
            let works = interior_works(a, &owner, k);
            let mean = works.iter().sum::<f64>() / k as f64;
            let max = works.iter().cloned().fold(0.0f64, f64::max);
            if mean > 0.0 && max / mean > BALANCE_BOUND {
                continue;
            }
            // Canonical form: members ascending (pushed in row order),
            // shards ordered by their smallest row.
            let mut pieces: Vec<Vec<usize>> = vec![Vec::new(); k];
            let mut interface = Vec::new();
            for (row, &o) in owner.iter().enumerate() {
                if o == INTERFACE {
                    interface.push(row);
                } else {
                    pieces[o].push(row);
                }
            }
            pieces.sort_unstable_by_key(|p| p[0]);
            return Some(Self::from_pieces(a, pieces, interface));
        }
        None
    }

    /// The trivial one-shard plan (everything interior, empty interface).
    fn single(a: &CsrMatrix) -> Self {
        Self::from_pieces(a, vec![(0..a.nrows()).collect()], Vec::new())
    }

    /// Assembles a plan from canonical shards (sorted members, ordered by
    /// smallest row) and the sorted interface: rebuilds the owner map in
    /// that numbering and computes the plan stats.
    fn from_pieces(a: &CsrMatrix, pieces: Vec<Vec<usize>>, interface: Vec<usize>) -> Self {
        let mut owner = vec![INTERFACE; a.nrows()];
        for (k, piece) in pieces.iter().enumerate() {
            for &v in piece {
                owner[v] = k;
            }
        }
        let stats = compute_stats(a, &pieces, interface.len(), &owner);
        Self {
            shards: pieces,
            interface,
            owner,
            stats,
        }
    }

    /// Dimension of the partitioned operator.
    pub fn num_rows(&self) -> usize {
        self.owner.len()
    }

    /// Number of interior shards actually produced (≤ the requested count,
    /// ≥ 1 for non-empty operators).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Sorted interior row indices of shard `k`.
    pub fn shard_rows(&self, k: usize) -> &[usize] {
        &self.shards[k]
    }

    /// Sorted interface row indices (empty for a single-shard plan).
    pub fn interface(&self) -> &[usize] {
        &self.interface
    }

    /// The shard owning `row`, or `None` for interface rows.
    pub fn owner(&self, row: usize) -> Option<usize> {
        match self.owner[row] {
            INTERFACE => None,
            k => Some(k),
        }
    }

    /// Quality accounting of this plan (balance, interface share).
    pub fn stats(&self) -> ShardPlanStats {
        self.stats
    }
}

/// Per-shard estimated factor work: `Σ_rows (interior degree)²`, the flop
/// proxy for eliminating each row against its own shard. `owner` may be in
/// any shard numbering with `k` shards; interface rows contribute nothing.
fn interior_works(a: &CsrMatrix, owner: &[usize], k: usize) -> Vec<f64> {
    let mut works = vec![0.0f64; k];
    for (v, &o) in owner.iter().enumerate() {
        if o == INTERFACE {
            continue;
        }
        let deg = a.row(v).0.iter().filter(|&&w| owner[w] == o).count();
        works[o] += (deg * deg) as f64;
    }
    works
}

/// Derives [`ShardPlanStats`] for a canonical partition.
fn compute_stats(
    a: &CsrMatrix,
    shards: &[Vec<usize>],
    interface_dofs: usize,
    owner: &[usize],
) -> ShardPlanStats {
    let n = owner.len();
    let k = shards.len().max(1);
    let works = interior_works(a, owner, k);
    let max_shard_work = works.iter().cloned().fold(0.0f64, f64::max);
    let mean_shard_work = works.iter().sum::<f64>() / k as f64;
    let balance_ratio = if mean_shard_work > 0.0 {
        max_shard_work / mean_shard_work
    } else {
        1.0
    };
    ShardPlanStats {
        shards: shards.len(),
        interface_dofs,
        interface_fraction: if n > 0 {
            interface_dofs as f64 / n as f64
        } else {
            0.0
        },
        min_shard_rows: shards.iter().map(Vec::len).min().unwrap_or(0),
        max_shard_rows: shards.iter().map(Vec::len).max().unwrap_or(0),
        max_shard_work,
        mean_shard_work,
        balance_ratio,
    }
}

impl MemoryFootprint for ShardPlan {
    fn heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(MemoryFootprint::heap_bytes)
            .sum::<usize>()
            + self.interface.heap_bytes()
            + self.owner.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_operators::hinted_grid;
    use crate::CooMatrix;

    fn check_invariants(a: &CsrMatrix, plan: &ShardPlan) {
        let n = a.nrows();
        // Exact cover.
        let mut seen = vec![0usize; n];
        for k in 0..plan.num_shards() {
            assert!(!plan.shard_rows(k).is_empty(), "empty shard {k}");
            for w in plan.shard_rows(k).windows(2) {
                assert!(w[0] < w[1], "shard rows must be sorted unique");
            }
            for &v in plan.shard_rows(k) {
                seen[v] += 1;
                assert_eq!(plan.owner(v), Some(k));
            }
        }
        for &v in plan.interface() {
            seen[v] += 1;
            assert_eq!(plan.owner(v), None);
        }
        assert!(seen.iter().all(|&c| c == 1), "rows covered exactly once");
        // No direct inter-shard coupling.
        for v in 0..n {
            for &w in a.row(v).0 {
                let (ov, ow) = (plan.owner(v), plan.owner(w));
                assert!(
                    ov == ow || ov.is_none() || ow.is_none(),
                    "edge ({v},{w}) couples shards {ov:?} and {ow:?}"
                );
            }
        }
        // The rows floor: multi-shard plans never carry near-empty shards.
        let stats = plan.stats();
        assert_eq!(stats.shards, plan.num_shards());
        assert_eq!(stats.interface_dofs, plan.interface().len());
        if plan.num_shards() >= 2 {
            assert!(
                stats.min_shard_rows >= ShardPlan::MIN_SHARD_ROWS,
                "shard below the rows floor: {}",
                stats.min_shard_rows
            );
        }
    }

    #[test]
    fn plan_partitions_a_lattice() {
        let (a, hint) = hinted_grid(6, 6, 4);
        for k in [2usize, 3, 4, 7] {
            let plan = ShardPlan::build_hinted(&a, k, Some(&hint));
            assert!(plan.num_shards() >= 2, "lattice must split for k={k}");
            assert!(plan.num_shards() <= k);
            assert!(!plan.interface().is_empty());
            assert!(plan.stats().balance_ratio <= BALANCE_BOUND);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn geometric_route_partitions_a_hinted_grid() {
        let (a, hint) = hinted_grid(4, 4, 4);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        check_invariants(&a, &plan);
        let stats = plan.stats();
        assert_eq!(stats.shards, 4);
        // 17×17 points, quadrant cut along x=8 and y=8: the two seam lines
        // (33 points) are the interface, each quadrant holds 8×8 interiors.
        assert_eq!(stats.interface_dofs, 33);
        assert_eq!(stats.min_shard_rows, 64);
        assert_eq!(stats.max_shard_rows, 64);
        assert!(stats.balance_ratio <= BALANCE_BOUND);
        assert!((stats.balance_ratio - 1.0).abs() < 0.2, "quadrants balance");
    }

    #[test]
    fn hinted_plans_are_deterministic() {
        let (a, hint) = hinted_grid(3, 4, 4);
        let p1 = ShardPlan::build_hinted(&a, 4, Some(&hint));
        let p2 = ShardPlan::build_hinted(&a, 4, Some(&hint));
        assert_eq!(p1, p2);
        assert_eq!(p1.stats(), p2.stats());
    }

    #[test]
    fn mismatched_hint_length_plans_one_shard() {
        let (a, hint) = hinted_grid(4, 4, 4);
        let short = PartitionHint::new(hint.grid(), vec![[0, 0, 0, 0]; 7]);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&short));
        assert_eq!(plan, ShardPlan::build_hinted(&a, 4, None));
        assert_eq!(plan.num_shards(), 1, "bad-length hint must be ignored");
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn contradicted_hint_plans_one_shard() {
        // Add one long-range edge between opposite corners: the hint now
        // misdescribes the operator (the corners' spans are disjoint), so
        // the grid cut must be rejected by the sparsity validation.
        let (a, hint) = hinted_grid(4, 4, 4);
        let n = a.nrows();
        let mut coo = CooMatrix::new(n, n);
        for v in 0..n {
            let (cols, vals) = a.row(v);
            for (&c, &x) in cols.iter().zip(vals) {
                coo.push(v, c, x);
            }
        }
        coo.push(0, n - 1, -0.5);
        coo.push(n - 1, 0, -0.5);
        let a = coo.to_csr();
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        assert_eq!(plan.num_shards(), 1, "contradicted hint must be dropped");
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn single_shard_requests_are_trivial() {
        let (a, hint) = hinted_grid(4, 4, 4);
        for k in [0usize, 1] {
            let plan = ShardPlan::build_hinted(&a, k, Some(&hint));
            assert_eq!(plan.num_shards(), 1);
            assert!(plan.interface().is_empty());
            assert_eq!(plan.stats().interface_dofs, 0);
            assert!((plan.stats().balance_ratio - 1.0).abs() < 1e-12);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn tiny_operators_stay_monolithic() {
        // 7×7 = 49 rows on a 2×2 grid: cuttable, but below the size floor.
        let (a, hint) = hinted_grid(2, 2, 3);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn disconnected_components_shard_without_interface() {
        // Two disjoint chains, one per block of a 2×1 grid: a 2-shard plan
        // needs no separator at all.
        let n = 80;
        let mut coo = CooMatrix::new(n, n);
        for half in 0..2 {
            let base = half * (n / 2);
            for i in 0..n / 2 {
                coo.push(base + i, base + i, 2.0);
                if i + 1 < n / 2 {
                    coo.push(base + i, base + i + 1, -1.0);
                    coo.push(base + i + 1, base + i, -1.0);
                }
            }
        }
        let a = coo.to_csr();
        let block = |v: usize| v / (n / 2);
        let hint = PartitionHint::new([2, 1], (0..n).map(|v| [block(v), block(v), 0, 0]).collect());
        let plan = ShardPlan::build_hinted(&a, 2, Some(&hint));
        assert_eq!(plan.num_shards(), 2);
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn restricted_hint_covers_one_shard_from_its_own_origin() {
        // 17×17 points on 4×4 blocks, quadrant plan: the upper-right shard
        // owns blocks x, y ∈ {2, 3}, and its hint is a 2×2 grid from there.
        let (a, hint) = hinted_grid(4, 4, 4);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        let rows = plan.shard_rows(3);
        let sub = hint.restricted(rows);
        assert_eq!(sub.grid(), [2, 2]);
        assert_eq!(sub.num_rows(), rows.len());
        for (local, &row) in rows.iter().enumerate() {
            let [xl, xh, yl, yh] = hint.spans()[row];
            assert_eq!(sub.spans()[local], [xl - 2, xh - 2, yl - 2, yh - 2]);
        }
    }

    #[test]
    fn plans_are_deterministic() {
        // Every request, with and without a hint: the same plan twice, and
        // a hint-less operator is always one shard.
        let (a, hint) = hinted_grid(5, 3, 4);
        for k in 0..=8usize {
            for hint in [Some(&hint), None] {
                let p1 = ShardPlan::build_hinted(&a, k, hint);
                let p2 = ShardPlan::build_hinted(&a, k, hint);
                assert_eq!(p1, p2);
                assert_eq!(p1.stats(), p2.stats());
                if hint.is_none() {
                    assert_eq!(p1.num_shards(), 1, "hint-less plan for k={k}");
                }
                check_invariants(&a, &p1);
            }
        }
    }
}
