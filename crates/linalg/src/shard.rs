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
//! Two routes build a plan:
//!
//! * **Geometric** ([`ShardPlan::build_hinted`] with a [`PartitionHint`]):
//!   when the caller knows each row's block-grid provenance — the reduced
//!   global operator of a block array couples two DoFs only when they touch
//!   a common block — the planner bisects the *block grid* recursively into
//!   `K` weight-balanced rectangles. Rows whose block span lies inside one
//!   rectangle are interior to that shard; rows spanning a cut are the
//!   interface. This sidesteps the BFS planner's degeneracy on these dense
//!   block-coupled operators (singleton shards behind one fixed separator)
//!   and yields near-perfectly balanced shards by construction. The hint is
//!   advisory: the plan is validated against the actual sparsity, and any
//!   contradiction (or a hint of the wrong length) falls back to the graph
//!   route.
//! * **Graph** (the fallback, and [`ShardPlan::build`] without a hint): the
//!   nested-dissection separator machinery of
//!   [`ordering`](crate::nested_dissection) repeatedly bisects the largest
//!   remaining piece with a BFS level-structure separator until the
//!   requested count is reached *and* the largest piece is within 2× of the
//!   mean, collects separators into the interface, and merges the smallest
//!   pieces until at most `K` shards remain — never emitting a multi-shard
//!   plan with a shard below [`ShardPlan::MIN_SHARD_ROWS`] rows.
//!
//! Both constructions are fully deterministic (no scheduling, no
//! randomness), so a plan — and everything the sharded solver derives from
//! it — is identical across runs and pool caps.

use std::collections::VecDeque;

use crate::ordering::{bisect_weighted_grid, split_components, split_piece, PieceSplit};
use crate::{CsrMatrix, MemoryFootprint};

/// Owner tag for interface rows in [`ShardPlan::owner`].
const INTERFACE: usize = usize::MAX;

/// Pieces smaller than this are never bisected further: a separator would
/// cost more interface DoFs than the split saves.
const MIN_SPLIT: usize = 32;

/// Multi-shard plans keep `max(work) / mean(work) ≤ BALANCE_BOUND`, where
/// work is the interior-degree-squared factor proxy of
/// [`ShardPlanStats::max_shard_work`]. The graph route re-bisects the
/// largest piece until the *row* proxy meets it or splitting provably
/// fails; the geometric route rejects region counts that violate it (a
/// 2-way split satisfies it identically, so the geometric search always
/// terminates).
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
    /// FNV-1a over grid and spans, hashed once at construction (the fields
    /// are private and never change afterwards).
    fingerprint: u64,
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
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: usize| {
            for byte in (v as u64).to_le_bytes() {
                fingerprint ^= u64::from(byte);
                fingerprint = fingerprint.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(grid[0]);
        eat(grid[1]);
        eat(spans.len());
        for s in &spans {
            for &v in s {
                eat(v);
            }
        }
        Self {
            grid,
            spans,
            fingerprint,
        }
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

    /// Content fingerprint (FNV-1a over grid and spans), folded into the
    /// sharded backend's configuration fingerprint so cached factors keyed
    /// under one hint are never served under another. Hashed once in
    /// [`new`](Self::new): the backend asks on every cache call.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
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
/// across workers, and `balance_ratio ≤ 2` is the bound both planner
/// routes enforce for multi-shard plans.
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
    /// Whether the geometric (hint-driven) route produced the plan.
    pub geometric: bool,
}

/// A K-way interior/interface partition of a square operator's index set.
///
/// Built by [`ShardPlan::build`] / [`ShardPlan::build_hinted`]; consumed by
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
    /// pieces below the floor are merged into a neighbor slot instead of
    /// being emitted as (near-)singleton shards whose factor is all
    /// overhead.
    pub const MIN_SHARD_ROWS: usize = MIN_SPLIT / 4;

    /// Partitions the adjacency graph of `a` (square) into up to `shards`
    /// interior blocks plus a separating interface, using the graph route
    /// only. Equivalent to [`ShardPlan::build_hinted`] with no hint.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn build(a: &CsrMatrix, shards: usize) -> Self {
        Self::build_hinted(a, shards, None)
    }

    /// Partitions `a` into up to `shards` interior blocks plus a separating
    /// interface, preferring the geometric route when `hint` describes the
    /// operator.
    ///
    /// The plan delivers *at most* `shards` shards: pieces too small or
    /// too dense to admit a BFS separator are not bisected, so tiny or
    /// (near-)complete operators may yield fewer — in the limit one shard
    /// and an empty interface, which degenerates the sharded solve to the
    /// monolithic one. Requests of `shards <= 1` short-circuit to that
    /// single-shard plan.
    ///
    /// The hint is advisory: a hint whose `num_rows` mismatches the
    /// operator, whose grid is too small to cut, or whose implied
    /// decoupling the actual sparsity contradicts is ignored and the graph
    /// route runs instead — the result is always a valid plan.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn build_hinted(a: &CsrMatrix, shards: usize, hint: Option<&PartitionHint>) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "shard plan: matrix must be square");
        let n = a.nrows();
        if shards <= 1 || n < 2 * MIN_SPLIT {
            return Self::single(a);
        }
        if let Some(hint) = hint {
            if hint.num_rows() == n {
                if let Some(plan) = Self::build_geometric(a, shards, hint) {
                    return plan;
                }
            }
        }
        Self::build_graph(a, shards)
    }

    /// Geometric route: recursive weighted bisection of the hint's block
    /// grid. Returns `None` when no region count in `2..=shards` passes the
    /// rows floor, the sparsity validation, and the balance bound — the
    /// caller then falls back to the graph route.
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
            let mut pieces: Vec<Vec<usize>> = vec![Vec::new(); k];
            let mut interface = Vec::new();
            for (row, &o) in owner.iter().enumerate() {
                if o == INTERFACE {
                    interface.push(row);
                } else {
                    pieces[o].push(row);
                }
            }
            return Some(Self::from_partition(a, pieces, interface, true));
        }
        None
    }

    /// Graph route: BFS level-structure bisection of the largest piece
    /// until the count and the balance bound hold, then a floor-respecting
    /// merge of the smallest pieces.
    fn build_graph(a: &CsrMatrix, shards: usize) -> Self {
        let n = a.nrows();
        // Generation-stamped BFS scratch, shared by the component splits
        // and the separator bisections.
        let mut stamp = vec![0u32; n];
        let mut level = vec![0u32; n];
        let mut generation = 0u32;
        let mut queue = VecDeque::new();

        // Connected components of the full graph are the initial pieces.
        let mut pieces: Vec<Vec<usize>> = Vec::new();
        let everything: Vec<usize> = (0..n).collect();
        split_components(
            a,
            &everything,
            &mut stamp,
            &mut generation,
            &mut queue,
            |comp| pieces.push(comp),
        );

        // Bisect the largest splittable piece until `shards` pieces exist
        // AND the largest remaining piece is within the balance bound of
        // the mean (row-count proxy: `largest · shards ≤ 2 · interior`).
        // Pieces that refuse to split (too small / no separator) move to
        // `done` so the loop never retries them.
        let mut interface: Vec<usize> = Vec::new();
        let mut done: Vec<Vec<usize>> = Vec::new();
        while !pieces.is_empty() {
            let largest = (0..pieces.len())
                .max_by_key(|&i| (pieces[i].len(), std::cmp::Reverse(pieces[i][0])))
                .expect("non-empty piece list");
            let interior: usize = pieces.iter().chain(done.iter()).map(Vec::len).sum();
            let need_more = pieces.len() + done.len() < shards;
            let oversized =
                (pieces[largest].len() * shards) as f64 > interior as f64 * BALANCE_BOUND;
            if !need_more && !oversized {
                break;
            }
            let piece = pieces.swap_remove(largest);
            let split = if piece.len() < MIN_SPLIT {
                None
            } else {
                split_piece(
                    a,
                    &piece,
                    &mut stamp,
                    &mut level,
                    &mut generation,
                    &mut queue,
                )
            };
            let Some(PieceSplit { below, sep, above }) = split else {
                done.push(piece);
                continue;
            };
            interface.extend_from_slice(&sep);
            // Removing the separator can fragment a half: each connected
            // component becomes its own piece (the merge pass below
            // re-coarsens if that overshoots the requested count).
            for half in [below, above] {
                split_components(a, &half, &mut stamp, &mut generation, &mut queue, |comp| {
                    if !comp.is_empty() {
                        pieces.push(comp)
                    }
                });
            }
        }
        pieces.extend(done);
        pieces.retain(|p| !p.is_empty());
        if pieces.is_empty() {
            return Self::single(a);
        }

        // Merge the two smallest pieces (ties broken by smallest member,
        // so the pairing is deterministic) until at most `shards` remain
        // AND no piece is below the rows floor — a min-heap keyed by
        // `(len, min member)`, O(P log P) overall. Merging is safe because
        // distinct pieces are never adjacent (every separator went to the
        // interface in full), so a merged piece is still
        // interior-decoupled from every other shard.
        if pieces.len() > 1 {
            use std::cmp::Reverse;
            let mut heap: std::collections::BinaryHeap<Reverse<(usize, usize, usize)>> = pieces
                .iter()
                .enumerate()
                .map(|(slot, p)| Reverse((p.len(), *p.iter().min().expect("non-empty"), slot)))
                .collect();
            let mut slots: Vec<Vec<usize>> = std::mem::take(&mut pieces);
            while heap.len() > 1 {
                let &Reverse((smallest, _, _)) = heap.peek().expect("heap non-empty");
                if heap.len() <= shards && smallest >= Self::MIN_SHARD_ROWS {
                    break;
                }
                let Reverse((len_a, first_a, slot_a)) = heap.pop().expect("len > 1");
                let Reverse((len_b, first_b, slot_b)) = heap.pop().expect("len > 1");
                let absorbed = std::mem::take(&mut slots[slot_b]);
                slots[slot_a].extend_from_slice(&absorbed);
                heap.push(Reverse((len_a + len_b, first_a.min(first_b), slot_a)));
            }
            pieces = slots.into_iter().filter(|p| !p.is_empty()).collect();
        }
        Self::from_partition(a, pieces, interface, false)
    }

    /// Canonicalizes a raw interior/interface partition (sorted members,
    /// shards ordered by smallest row), rebuilds the owner map, checks the
    /// structural invariants, and computes the plan stats.
    fn from_partition(
        a: &CsrMatrix,
        mut pieces: Vec<Vec<usize>>,
        mut interface: Vec<usize>,
        geometric: bool,
    ) -> Self {
        let n = a.nrows();
        for piece in &mut pieces {
            piece.sort_unstable();
        }
        pieces.sort_unstable_by_key(|p| p[0]);
        interface.sort_unstable();
        let mut owner = vec![INTERFACE; n];
        for (k, piece) in pieces.iter().enumerate() {
            for &v in piece {
                owner[v] = k;
            }
        }
        debug_assert!(
            {
                let assigned = pieces.iter().map(Vec::len).sum::<usize>() + interface.len();
                assigned == n
            },
            "shard plan must cover every row exactly once"
        );
        debug_assert!(
            (0..n).all(|v| {
                a.row(v).0.iter().all(|&w| {
                    owner[v] == owner[w] || owner[v] == INTERFACE || owner[w] == INTERFACE
                })
            }),
            "no edge may couple two different shards directly"
        );
        let stats = compute_stats(a, &pieces, interface.len(), &owner, geometric);
        Self {
            shards: pieces,
            interface,
            owner,
            stats,
        }
    }

    /// The trivial one-shard plan (everything interior, empty interface).
    fn single(a: &CsrMatrix) -> Self {
        let n = a.nrows();
        let pieces = vec![(0..n).collect::<Vec<usize>>()];
        let owner = vec![0; n];
        let stats = compute_stats(a, &pieces, 0, &owner, false);
        Self {
            shards: pieces,
            interface: Vec::new(),
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

    /// Quality accounting of this plan (balance, interface share, route).
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
    geometric: bool,
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
        geometric,
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
    use crate::test_operators::{hinted_grid, laplacian_2d};
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
        let a = laplacian_2d(24, 24);
        for k in [2usize, 3, 4, 7] {
            let plan = ShardPlan::build(&a, k);
            assert!(plan.num_shards() >= 2, "lattice must split for k={k}");
            assert!(plan.num_shards() <= k);
            assert!(!plan.interface().is_empty());
            assert!(!plan.stats().geometric);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn geometric_route_partitions_a_hinted_grid() {
        let (a, hint) = hinted_grid(4, 4, 4);
        let plan = ShardPlan::build_hinted(&a, 4, Some(&hint));
        check_invariants(&a, &plan);
        let stats = plan.stats();
        assert!(stats.geometric, "hinted grid must take the geometric route");
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
        assert_eq!(p1.stats().geometric, p2.stats().geometric);
    }

    #[test]
    fn mismatched_hint_length_falls_back_to_graph() {
        let (a, hint) = hinted_grid(4, 4, 4);
        let short = PartitionHint::new(hint.grid(), vec![[0, 0, 0, 0]; 7]);
        let hinted = ShardPlan::build_hinted(&a, 4, Some(&short));
        let graph = ShardPlan::build(&a, 4);
        assert_eq!(hinted, graph, "bad-length hint must be ignored");
        assert!(!hinted.stats().geometric);
        check_invariants(&a, &hinted);
    }

    #[test]
    fn contradicted_hint_falls_back_to_graph() {
        // Add one long-range edge between opposite corners: the hint now
        // misdescribes the operator (the corners' spans are disjoint), so
        // the geometric plan must be rejected by the sparsity validation.
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
        assert!(!plan.stats().geometric, "contradicted hint must be dropped");
        check_invariants(&a, &plan);
    }

    #[test]
    fn single_shard_requests_are_trivial() {
        let a = laplacian_2d(10, 10);
        for k in [0usize, 1] {
            let plan = ShardPlan::build(&a, k);
            assert_eq!(plan.num_shards(), 1);
            assert!(plan.interface().is_empty());
            assert_eq!(plan.stats().interface_dofs, 0);
            assert!((plan.stats().balance_ratio - 1.0).abs() < 1e-12);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn tiny_operators_stay_monolithic() {
        let a = laplacian_2d(4, 4);
        let plan = ShardPlan::build(&a, 4);
        assert_eq!(plan.num_shards(), 1);
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn disconnected_components_shard_without_interface() {
        // Two disjoint chains: a 2-shard plan needs no separator at all.
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
        let plan = ShardPlan::build(&a, 2);
        assert_eq!(plan.num_shards(), 2);
        assert!(plan.interface().is_empty());
        check_invariants(&a, &plan);
    }

    #[test]
    fn merge_pass_respects_the_requested_count() {
        // A star of 5 chains around one hub: splitting fragments into many
        // components; the plan must re-merge down to the request.
        let arms = 5usize;
        let len = 40usize;
        let n = 1 + arms * len;
        let mut coo = CooMatrix::new(n, n);
        coo.push(0, 0, 2.0);
        for arm in 0..arms {
            let base = 1 + arm * len;
            for i in 0..len {
                coo.push(base + i, base + i, 2.0);
                let prev = if i == 0 { 0 } else { base + i - 1 };
                coo.push(base + i, prev, -1.0);
                coo.push(prev, base + i, -1.0);
            }
        }
        let a = coo.to_csr();
        for k in [2usize, 3] {
            let plan = ShardPlan::build(&a, k);
            assert!(plan.num_shards() <= k);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn graph_route_merges_sub_floor_fragments() {
        // A broom: a long handle whose end vertex fans out into many
        // single-vertex bristles. Separator splits strand the bristles as
        // tiny components; the floor-respecting merge must coalesce them
        // instead of emitting singleton shards.
        let handle = 120usize;
        let bristles = 30usize;
        let n = handle + bristles;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..handle {
            coo.push(i, i, 2.0);
            if i + 1 < handle {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
        for b in 0..bristles {
            let v = handle + b;
            coo.push(v, v, 2.0);
            coo.push(v, handle - 1, -1.0);
            coo.push(handle - 1, v, -1.0);
        }
        let a = coo.to_csr();
        for k in [2usize, 4] {
            let plan = ShardPlan::build(&a, k);
            check_invariants(&a, &plan);
        }
    }

    #[test]
    fn plans_are_deterministic() {
        let a = laplacian_2d(30, 20);
        let p1 = ShardPlan::build(&a, 4);
        let p2 = ShardPlan::build(&a, 4);
        assert_eq!(p1.num_shards(), p2.num_shards());
        assert_eq!(p1.interface(), p2.interface());
        for k in 0..p1.num_shards() {
            assert_eq!(p1.shard_rows(k), p2.shard_rows(k));
        }
    }
}
