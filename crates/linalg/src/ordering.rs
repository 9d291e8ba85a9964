//! Fill-reducing orderings for the sparse Cholesky factorization.
//!
//! One rule orders every operator the product factors
//! ([`FillOrdering::Auto`]). An operator that arrives with the grid
//! footprint of every row (a [`PartitionHint`]) is dissected along that
//! grid ([`geometric_dissection`]): the global stage's reduced operators
//! over their block grid, the interiors of the sharded backend over the
//! blocks each shard owns, and the local stage's `A_ff` over the unit
//! block's lateral cell grid. Every other operator — the Schur interface,
//! the full-FEM and chiplet references — is ordered by reverse
//! Cuthill–McKee ([`reverse_cuthill_mckee`]), which reduces the bandwidth
//! of a structured mesh operator, and therefore the fill of its factor,
//! substantially (pinned by `cholesky.rs`'s
//! `rcm_reduces_fill_on_scrambled_grid`).

use crate::{CsrMatrix, PartitionHint};

/// A permutation of `0..n`, stored as `perm[new] = old`.
///
/// # Example
///
/// ```
/// use morestress_linalg::Permutation;
///
/// let p = Permutation::new(vec![2, 0, 1]).expect("valid permutation");
/// assert_eq!(p.as_slice(), &[2, 0, 1]);
/// assert_eq!(p.inverse_slice(), &[1, 2, 0]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// Builds a permutation from `perm[new] = old`. Returns `None` if `perm`
    /// is not a permutation of `0..perm.len()`.
    pub fn new(perm: Vec<usize>) -> Option<Self> {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n || inv[old] != usize::MAX {
                return None;
            }
            inv[old] = new;
        }
        Some(Self { perm, inv })
    }

    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        Self {
            perm: (0..n).collect(),
            inv: (0..n).collect(),
        }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `perm[new] = old` view.
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// `inv[old] = new` view.
    pub fn inverse_slice(&self) -> &[usize] {
        &self.inv
    }

    /// Applies the permutation to a vector: `out[new] = x[perm[new]]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.apply_into(x, &mut out);
        out
    }

    /// Applies the permutation into a caller-provided buffer:
    /// `out[new] = x[perm[new]]`. Allocation-free counterpart of
    /// [`Permutation::apply`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()` or `out.len() != self.len()`.
    pub fn apply_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.len(), "permutation apply: length mismatch");
        assert_eq!(out.len(), self.len(), "permutation apply: output length");
        for (o, &old) in out.iter_mut().zip(&self.perm) {
            *o = x[old];
        }
    }

    /// Applies the inverse permutation: `out[old] = x[inv[old]]`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()`.
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.apply_inverse_into(x, &mut out);
        out
    }

    /// Applies the inverse permutation into a caller-provided buffer:
    /// `out[old] = x[inv[old]]`. Allocation-free counterpart of
    /// [`Permutation::apply_inverse`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.len()` or `out.len() != self.len()`.
    pub fn apply_inverse_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.len(), "permutation apply: length mismatch");
        assert_eq!(out.len(), self.len(), "permutation apply: output length");
        for (o, &new) in out.iter_mut().zip(&self.inv) {
            *o = x[new];
        }
    }
}

/// Declarative fill-reducing ordering choice for the direct solvers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FillOrdering {
    /// Picks the ordering per operator, so the caller never chooses:
    /// [`Geometric`](FillOrdering::Geometric) whenever the operator carries
    /// a usable [`PartitionHint`] (every reduced global operator of a block
    /// array does, every shard interior cut from one, and the local stage's
    /// `A_ff`), [`Rcm`](FillOrdering::Rcm) otherwise. The default.
    #[default]
    Auto,
    /// Nested dissection of the *block grid* the operator's
    /// [`PartitionHint`] describes ([`geometric_dissection`]): no graph
    /// search, O(n log n), and far less fill than a band — 24×24 blocks of
    /// the global stage: 10.8 M factor entries under RCM, 4.4 M here; the
    /// `medium` unit block's `A_ff` over its 18×18 cells: 2.86 M → 1.62 M.
    /// An operator without a usable hint (none attached, or one of the
    /// wrong length) resolves to [`Rcm`](FillOrdering::Rcm).
    Geometric,
    /// Reverse Cuthill–McKee ([`reverse_cuthill_mckee`]): minimizes
    /// bandwidth. What [`Auto`](FillOrdering::Auto) resolves to for every
    /// operator without a usable hint — the Schur interface, the full-FEM
    /// and chiplet references.
    Rcm,
}

/// The hint [`FillOrdering::Geometric`] can order `a` by: attached, and
/// describing exactly `a`'s rows. That is the whole admission check — the
/// dissection is a valid permutation for any spans, so a hint that
/// misdescribes the sparsity can cost fill, never correctness.
fn usable_hint(a: &CsrMatrix) -> Option<&PartitionHint> {
    a.partition_hint()
        .map(|hint| &**hint)
        .filter(|hint| hint.num_rows() == a.nrows())
}

impl FillOrdering {
    /// Resolves [`Auto`](FillOrdering::Auto) and
    /// [`Geometric`](FillOrdering::Geometric) to `Geometric` when `a`
    /// carries a usable hint and to [`Rcm`](FillOrdering::Rcm) otherwise;
    /// the other orderings return themselves.
    pub fn resolve(&self, a: &CsrMatrix) -> FillOrdering {
        match self {
            FillOrdering::Auto | FillOrdering::Geometric => {
                if usable_hint(a).is_some() {
                    FillOrdering::Geometric
                } else {
                    FillOrdering::Rcm
                }
            }
            concrete => *concrete,
        }
    }

    /// Computes the permutation of this ordering for `a`.
    pub fn permutation(&self, a: &CsrMatrix) -> Permutation {
        match self.resolve(a) {
            FillOrdering::Geometric => {
                geometric_dissection(usable_hint(a).expect("resolve() found a usable hint"))
            }
            FillOrdering::Rcm => reverse_cuthill_mckee(a),
            FillOrdering::Auto => unreachable!("resolve() returns a concrete ordering"),
        }
    }

    /// Short stable name for reports (`"geometric"`, `"rcm"`;
    /// `"auto"` only before [`resolve`](Self::resolve)).
    pub fn name(&self) -> &'static str {
        match self {
            FillOrdering::Auto => "auto",
            FillOrdering::Geometric => "geometric",
            FillOrdering::Rcm => "rcm",
        }
    }
}

/// Computes a reverse Cuthill–McKee ordering of a square sparse matrix
/// treated as an undirected graph.
///
/// Starts each connected component from a pseudo-peripheral vertex found by
/// repeated BFS, orders vertices level by level with neighbors visited in
/// increasing-degree order, then reverses.
///
/// # Panics
///
/// Panics if the matrix is not square.
pub fn reverse_cuthill_mckee(a: &CsrMatrix) -> Permutation {
    assert_eq!(a.nrows(), a.ncols(), "RCM: matrix must be square");
    let n = a.nrows();
    let degree = |v: usize| a.row(v).0.len();

    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut neighbors: Vec<usize> = Vec::new();

    // BFS returning the farthest, lowest-degree vertex and marking nothing.
    let bfs_far = |start: usize, scratch: &mut Vec<i32>| -> usize {
        scratch.iter_mut().for_each(|d| *d = -1);
        let mut q = std::collections::VecDeque::new();
        scratch[start] = 0;
        q.push_back(start);
        let mut last_level: Vec<usize> = vec![start];
        let mut max_d = 0;
        while let Some(v) = q.pop_front() {
            let d = scratch[v];
            if d > max_d {
                max_d = d;
                last_level.clear();
            }
            if d == max_d {
                last_level.push(v);
            }
            for &w in a.row(v).0 {
                if w != v && scratch[w] < 0 {
                    scratch[w] = d + 1;
                    q.push_back(w);
                }
            }
        }
        *last_level
            .iter()
            .min_by_key(|&&v| degree(v))
            .expect("bfs visited at least the start vertex")
    };

    let mut scratch = vec![-1i32; n];
    for seed in 0..n {
        if visited[seed] {
            continue;
        }
        // Pseudo-peripheral start: two BFS sweeps from the seed.
        let far = bfs_far(seed, &mut scratch);
        let start = bfs_far(far, &mut scratch);

        visited[start] = true;
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            neighbors.clear();
            neighbors.extend(
                a.row(v)
                    .0
                    .iter()
                    .copied()
                    .filter(|&w| w != v && !visited[w]),
            );
            neighbors.sort_unstable_by_key(|&w| degree(w));
            for &w in &neighbors {
                if !visited[w] {
                    visited[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    order.reverse();
    Permutation::new(order).expect("RCM produced a valid permutation")
}

/// Recursively bisects the `nbx × nby` weight grid into up to `k`
/// axis-aligned rectangles `[x0, x1, y0, y1]` (inclusive bounds) of
/// near-proportional total weight, for the shard planner
/// ([`ShardPlan::build_hinted`](crate::ShardPlan::build_hinted)).
///
/// Fully deterministic: each region splits along its longer side (ties
/// prefer x), at the cut minimizing the deviation from the
/// weight-proportional target (ties prefer the smaller index), and the
/// lower sub-region — which receives `⌊k/2⌋` of the region's share — is
/// emitted first. May return fewer than `k` rectangles when a region runs
/// out of blocks to cut.
pub(crate) fn bisect_weighted_grid(
    weights: &[u64],
    nbx: usize,
    nby: usize,
    k: usize,
) -> Vec<[usize; 4]> {
    assert_eq!(weights.len(), nbx * nby, "weight grid dimension mismatch");
    let mut out = Vec::with_capacity(k);
    if nbx == 0 || nby == 0 || k == 0 {
        return out;
    }
    bisect_rect(weights, nbx, [0, nbx - 1, 0, nby - 1], k, &mut out);
    out
}

/// Recursion step of [`bisect_weighted_grid`] over one inclusive rectangle.
fn bisect_rect(weights: &[u64], nbx: usize, rect: [usize; 4], k: usize, out: &mut Vec<[usize; 4]>) {
    let [x0, x1, y0, y1] = rect;
    let k = k.min((x1 - x0 + 1) * (y1 - y0 + 1));
    if k <= 1 {
        out.push(rect);
        return;
    }
    let k1 = k / 2;
    let (low, high) = cut_rect(weights, nbx, rect, k1, k);
    bisect_rect(weights, nbx, low, k1, out);
    bisect_rect(weights, nbx, high, k - k1, out);
}

/// The one cut rule of the block grid, shared by the shard planner
/// ([`bisect_weighted_grid`]) and the fill ordering
/// ([`geometric_dissection`]): splits an inclusive rectangle of at least
/// two blocks along its longer side (ties prefer x; a side of one block
/// cannot be cut) at the line that brings the lower part's weight closest
/// to `k1 / k` of the total (ties prefer the smaller index).
fn cut_rect(
    weights: &[u64],
    nbx: usize,
    rect: [usize; 4],
    k1: usize,
    k: usize,
) -> ([usize; 4], [usize; 4]) {
    let [x0, x1, y0, y1] = rect;
    let (w, h) = (x1 - x0 + 1, y1 - y0 + 1);
    debug_assert!(w * h >= 2, "a single block cannot be cut");
    let along_x = if h == 1 {
        true
    } else if w == 1 {
        false
    } else {
        w >= h
    };
    let lines: Vec<u64> = if along_x {
        (x0..=x1)
            .map(|x| (y0..=y1).map(|y| weights[y * nbx + x]).sum())
            .collect()
    } else {
        (y0..=y1)
            .map(|y| (x0..=x1).map(|x| weights[y * nbx + x]).sum())
            .collect()
    };
    let total: u64 = lines.iter().sum();
    let target = total as f64 * k1 as f64 / k as f64;
    let mut best = (f64::INFINITY, 0usize);
    let mut prefix = 0u64;
    for (c, &line) in lines.iter().take(lines.len() - 1).enumerate() {
        prefix += line;
        let dev = (prefix as f64 - target).abs();
        if dev < best.0 {
            best = (dev, c);
        }
    }
    let cut = best.1;
    if along_x {
        ([x0, x0 + cut, y0, y1], [x0 + cut + 1, x1, y0, y1])
    } else {
        ([x0, x1, y0, y0 + cut], [x0, x1, y0 + cut + 1, y1])
    }
}

/// Computes the nested-dissection ordering of the block grid `hint`
/// describes: the grid is bisected recursively, by the shard planner's own
/// cut rule and down to single blocks; at every cut the rows whose block
/// span lies inside one half are ordered first (each half recursively) and
/// the rows straddling the cut — the separator — last.
///
/// Two rows of a block array's operator couple only when their spans share
/// a block, so rows on opposite sides of a cut never do and every separator
/// decouples what was ordered before it — the premise of nested dissection,
/// here for the price of comparing spans: O(n log n), no graph search,
/// deterministic. The top cuts are those of
/// [`ShardPlan::build_hinted`](crate::ShardPlan::build_hinted) for a
/// power-of-two shard count.
///
/// The result is a permutation of `0..hint.num_rows()` whatever the spans
/// say: every row is emitted exactly once, by the first cut it straddles or
/// the single block it ends up in.
pub fn geometric_dissection(hint: &PartitionHint) -> Permutation {
    let [nbx, nby] = hint.grid();
    let weights = hint.block_weights();
    let mut order = Vec::with_capacity(hint.num_rows());
    dissect_rect(
        hint.spans(),
        &weights,
        nbx,
        [0, nbx - 1, 0, nby - 1],
        (0..hint.num_rows()).collect(),
        &mut order,
    );
    Permutation::new(order).expect("geometric dissection produced a valid permutation")
}

/// Recursion step of [`geometric_dissection`]: orders `rows`, whose spans
/// all lie inside `rect`.
fn dissect_rect(
    spans: &[[usize; 4]],
    weights: &[u64],
    nbx: usize,
    rect: [usize; 4],
    rows: Vec<usize>,
    order: &mut Vec<usize>,
) {
    let [x0, x1, y0, y1] = rect;
    if rows.is_empty() {
        return;
    }
    if x0 == x1 && y0 == y1 {
        order.extend_from_slice(&rows);
        return;
    }
    let (low, high) = cut_rect(weights, nbx, rect, 1, 2);
    let inside = |row: usize, [rx0, rx1, ry0, ry1]: [usize; 4]| {
        let [xl, xh, yl, yh] = spans[row];
        rx0 <= xl && xh <= rx1 && ry0 <= yl && yh <= ry1
    };
    let (mut low_rows, mut high_rows, mut separator) = (Vec::new(), Vec::new(), Vec::new());
    for row in rows {
        if inside(row, low) {
            low_rows.push(row);
        } else if inside(row, high) {
            high_rows.push(row);
        } else {
            separator.push(row);
        }
    }
    dissect_rect(spans, weights, nbx, low, low_rows, order);
    dissect_rect(spans, weights, nbx, high, high_rows, order);
    order.extend_from_slice(&separator);
}

/// Shape metrics of a weighted forest, used by the supernodal task
/// schedule (subtree weights become [`TaskDag`](crate::TaskDag) claim
/// priorities) and by `SupernodeStats`.
#[derive(Debug, Clone)]
pub(crate) struct TreeMetrics {
    /// Total weight of each node's subtree (itself included).
    pub subtree_weight: Vec<u64>,
    /// Nodes on the longest root-to-leaf path (0 for an empty forest).
    pub height: usize,
    /// Max/mean subtree weight over the forest's *parallel units*: the
    /// subtrees rooted at children of branch nodes (nodes with ≥ 2
    /// children), which are exactly the pieces a tree schedule can run
    /// concurrently. A pure chain has no branch nodes; its units are the
    /// roots themselves (max = total ⇒ no tree parallelism).
    pub max_parallel_subtree: u64,
    /// See [`TreeMetrics::max_parallel_subtree`].
    pub mean_parallel_subtree: f64,
}

/// Computes [`TreeMetrics`] over a parent-indexed forest in one ascending
/// pass. Requires the heap property `parent[i] > i` (roots marked by
/// `parent[i] >= len`), which elimination trees satisfy by construction.
pub(crate) fn tree_metrics(parent: &[usize], weight: &[u64]) -> TreeMetrics {
    let n = parent.len();
    debug_assert_eq!(weight.len(), n);
    let mut subtree_weight = weight.to_vec();
    let mut children = vec![0usize; n];
    // Tallest child subtree (nodes) per node.
    let mut child_height = vec![0usize; n];
    let mut height = 0usize;
    for i in 0..n {
        let p = parent[i];
        debug_assert!(p >= n || p > i, "tree_metrics needs parent[i] > i");
        let h = child_height[i] + 1;
        if p < n {
            subtree_weight[p] += subtree_weight[i];
            children[p] += 1;
            child_height[p] = child_height[p].max(h);
        } else {
            height = height.max(h);
        }
    }
    let mut units: Vec<u64> = (0..n)
        .filter(|&i| parent[i] < n && children[parent[i]] >= 2)
        .map(|i| subtree_weight[i])
        .collect();
    if units.is_empty() {
        units = (0..n)
            .filter(|&i| parent[i] >= n)
            .map(|i| subtree_weight[i])
            .collect();
    }
    let max_parallel_subtree = units.iter().copied().max().unwrap_or(0);
    let mean_parallel_subtree = if units.is_empty() {
        0.0
    } else {
        units.iter().sum::<u64>() as f64 / units.len() as f64
    };
    TreeMetrics {
        subtree_weight,
        height,
        max_parallel_subtree,
        mean_parallel_subtree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// Half-bandwidth of a square sparse matrix: `max |i - j|` over stored
    /// entries.
    fn bandwidth(a: &CsrMatrix) -> usize {
        let mut b = 0usize;
        for i in 0..a.nrows() {
            for &j in a.row(i).0 {
                b = b.max(i.abs_diff(j));
            }
        }
        b
    }

    #[test]
    fn weighted_grid_bisection_covers_and_balances() {
        // Uniform 4×4 grid, k=4: exact quadrants.
        let rects = bisect_weighted_grid(&[1u64; 16], 4, 4, 4);
        assert_eq!(
            rects,
            vec![[0, 1, 0, 1], [0, 1, 2, 3], [2, 3, 0, 1], [2, 3, 2, 3]]
        );
        // Any (grid, k): the rectangles tile the grid exactly.
        for (nbx, nby, k) in [(6, 6, 4), (5, 3, 7), (1, 8, 3), (3, 1, 2), (2, 2, 9)] {
            let weights: Vec<u64> = (0..nbx * nby).map(|i| 1 + (i as u64 % 3)).collect();
            let rects = bisect_weighted_grid(&weights, nbx, nby, k);
            assert!(!rects.is_empty() && rects.len() <= k);
            let mut covered = vec![0usize; nbx * nby];
            for &[x0, x1, y0, y1] in &rects {
                assert!(x0 <= x1 && x1 < nbx && y0 <= y1 && y1 < nby);
                for y in y0..=y1 {
                    for x in x0..=x1 {
                        covered[y * nbx + x] += 1;
                    }
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "rectangles must tile");
        }
    }

    #[test]
    fn weighted_grid_bisection_follows_the_weights() {
        // All weight in the left column: the k=2 cut isolates it.
        let mut weights = vec![0u64; 16];
        for y in 0..4 {
            weights[y * 4] = 100;
        }
        weights[5] = 1;
        let rects = bisect_weighted_grid(&weights, 4, 4, 2);
        assert_eq!(rects, vec![[0, 0, 0, 3], [1, 3, 0, 3]]);
        // Determinism.
        assert_eq!(rects, bisect_weighted_grid(&weights, 4, 4, 2));
    }

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![0, 1, 2]).is_some());
        assert!(Permutation::new(vec![0, 0, 2]).is_none());
        assert!(Permutation::new(vec![0, 3]).is_none());
    }

    #[test]
    fn apply_and_inverse_are_inverses() {
        let p = Permutation::new(vec![2, 0, 3, 1]).unwrap();
        let x = [10.0, 20.0, 30.0, 40.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![30.0, 10.0, 40.0, 20.0]);
        assert_eq!(p.apply_inverse(&y), x.to_vec());
    }

    /// RCM on a randomly-permuted 1-D chain should recover bandwidth 1.
    #[test]
    fn rcm_recovers_chain_bandwidth() {
        let n = 50;
        // Build a chain with scrambled labels: vertex i <-> sigma(i).
        let sigma: Vec<usize> = {
            let mut v: Vec<usize> = (0..n).collect();
            // Deterministic scramble.
            for i in 0..n {
                let j = (i * 17 + 5) % n;
                v.swap(i, j);
            }
            v
        };
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(sigma[i], sigma[i], 2.0);
            if i + 1 < n {
                coo.push(sigma[i], sigma[i + 1], -1.0);
                coo.push(sigma[i + 1], sigma[i], -1.0);
            }
        }
        let a = coo.to_csr();
        assert!(bandwidth(&a) > 1);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permuted_symmetric(&p);
        assert_eq!(bandwidth(&b), 1);
    }

    use crate::test_operators::{hinted_grid, hinted_lattice, laplacian_2d as lattice};
    use crate::{SupernodalCholesky, SupernodalOptions};
    use std::sync::Arc;

    /// A banded operator with dense rows and no hint: every row couples to
    /// dozens of neighbors, like the product's hint-less operators.
    fn dense_row_band(n: usize, halfwidth: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let lo = i.saturating_sub(halfwidth);
            let hi = (i + halfwidth + 1).min(n);
            for j in lo..hi {
                let v = if i == j {
                    2.0 * halfwidth as f64 + 1.0
                } else {
                    -0.5
                };
                coo.push(i, j, v);
            }
        }
        coo.to_csr()
    }

    /// `Auto` and a `Geometric` request both resolve `a` to `expected`.
    fn assert_resolves_to(a: &CsrMatrix, expected: FillOrdering) {
        for ordering in [FillOrdering::Auto, FillOrdering::Geometric] {
            assert_eq!(ordering.resolve(a), expected, "n = {}", a.nrows());
        }
    }

    #[test]
    fn auto_probe_picks_nd_for_large_sparse_lattices() {
        // A 6561-DoF 5-point lattice: dissected along its block grid when it
        // carries the grid's hint, banded by RCM when the same kind of
        // lattice (6400 DoFs) arrives bare — the hint is the only probe.
        assert_resolves_to(&hinted_lattice(8, 8, 10), FillOrdering::Geometric);
        assert_resolves_to(&lattice(80, 80), FillOrdering::Rcm);
    }

    #[test]
    fn auto_probe_picks_rcm_for_dense_row_operators() {
        // Large, with ~25 entries per row, and no hint.
        assert_resolves_to(&dense_row_band(4500, 12), FillOrdering::Rcm);
    }

    #[test]
    fn auto_probe_picks_rcm_for_small_operators() {
        assert_resolves_to(&lattice(20, 20), FillOrdering::Rcm);
    }

    #[test]
    fn auto_permutation_is_valid_and_matches_resolution() {
        for a in [lattice(80, 80), lattice(6, 6)] {
            let resolved = FillOrdering::Auto.resolve(&a);
            assert_ne!(resolved, FillOrdering::Auto);
            let p = FillOrdering::Auto.permutation(&a);
            assert_eq!(p.as_slice(), resolved.permutation(&a).as_slice());
        }
    }

    fn factor_nnz(a: &CsrMatrix, ordering: FillOrdering) -> usize {
        SupernodalCholesky::factor_ordered(a, ordering, &SupernodalOptions::default())
            .expect("SPD lattice")
            .factor_nnz()
    }

    #[test]
    fn auto_dissects_hinted_operators_geometrically() {
        // Odd, even, 1×N, N×1 and single-block grids, all small: a usable
        // hint is the only admission check.
        for (bx, by, m) in [(5, 3, 3), (4, 4, 2), (1, 7, 3), (6, 1, 2), (1, 1, 4)] {
            let a = hinted_lattice(bx, by, m);
            assert_eq!(FillOrdering::Auto.resolve(&a), FillOrdering::Geometric);
            // `Permutation::new` inside validated it; same order every time,
            // and the explicit request is the same ordering.
            let p = FillOrdering::Auto.permutation(&a);
            assert_eq!(p.len(), a.nrows());
            assert_eq!(p, FillOrdering::Auto.permutation(&a));
            assert_eq!(p, FillOrdering::Geometric.permutation(&a));
            // Explicit graph orderings ignore the hint.
            assert_eq!(FillOrdering::Rcm.resolve(&a), FillOrdering::Rcm);
        }
    }

    #[test]
    fn geometric_dissection_orders_the_top_separator_last() {
        // 4×4 blocks of 4×4 cells: 17×17 points. The first cut is the shard
        // planner's (x between blocks 1 and 2), so the 17 points on the
        // line x = 8 straddle it and close the order.
        let (_, hint) = hinted_grid(4, 4, 4);
        let p = geometric_dissection(&hint);
        let mut tail: Vec<usize> = p.as_slice()[17 * 17 - 17..].to_vec();
        tail.sort_unstable();
        let line: Vec<usize> = (0..17).map(|y| y * 17 + 8).collect();
        assert_eq!(tail, line);
    }

    #[test]
    fn geometric_fills_no_more_than_rcm_on_block_lattices() {
        for (bx, by, m) in [(6, 6, 3), (6, 6, 4), (8, 6, 4), (7, 9, 2)] {
            let a = hinted_lattice(bx, by, m);
            let (geo, rcm) = (
                factor_nnz(&a, FillOrdering::Auto),
                factor_nnz(&a, FillOrdering::Rcm),
            );
            assert!(geo <= rcm, "{bx}x{by} m={m}: geometric {geo} vs RCM {rcm}");
        }
    }

    #[test]
    fn a_hint_of_the_wrong_length_is_ignored() {
        let (a, hint) = hinted_grid(6, 6, 3);
        let short = PartitionHint::new(hint.grid(), vec![[0, 0, 0, 0]; 7]);
        let bad = a.clone().with_partition_hint(Arc::new(short));
        for ordering in [FillOrdering::Auto, FillOrdering::Geometric] {
            assert_eq!(ordering.resolve(&bad), FillOrdering::Auto.resolve(&a));
            assert_eq!(
                ordering.permutation(&bad),
                FillOrdering::Auto.permutation(&a)
            );
        }
    }

    #[test]
    fn a_scrambled_hint_costs_fill_not_correctness() {
        // Random valid spans that say nothing true about the sparsity.
        let (a, hint) = hinted_grid(6, 6, 3);
        let [bx, by] = hint.grid();
        let mut plan = crate::FaultPlan::new(0x5CA7);
        let mut next = |bound: usize| plan.pick(bound);
        let spans = (0..a.nrows())
            .map(|_| {
                let (x0, y0) = (next(bx), next(by));
                [x0, x0 + next(bx - x0), y0, y0 + next(by - y0)]
            })
            .collect();
        let scrambled = a.with_partition_hint(Arc::new(PartitionHint::new([bx, by], spans)));
        let chol = SupernodalCholesky::factor_ordered(
            &scrambled,
            FillOrdering::Auto,
            &SupernodalOptions::default(),
        )
        .expect("SPD lattice");
        assert_eq!(chol.stats().ordering, "geometric");
        let b: Vec<f64> = (0..scrambled.nrows())
            .map(|i| (i % 7) as f64 - 3.0)
            .collect();
        let x = chol.solve(&b);
        assert!(scrambled.residual(&x, &b) <= 1e-10);
    }

    #[test]
    fn tree_metrics_on_a_chain_and_a_fork() {
        const NONE: usize = usize::MAX;
        // Chain 0 → 1 → 2: no branch nodes, the unit is the whole tree.
        let chain = tree_metrics(&[1, 2, NONE], &[5, 7, 11]);
        assert_eq!(chain.subtree_weight, vec![5, 12, 23]);
        assert_eq!(chain.height, 3);
        assert_eq!(chain.max_parallel_subtree, 23);
        // Fork: 0 and 1 are children of 2 (a branch node), 3 chains above.
        let fork = tree_metrics(&[2, 2, 3, NONE], &[10, 4, 2, 1]);
        assert_eq!(fork.subtree_weight, vec![10, 4, 16, 17]);
        assert_eq!(fork.height, 3);
        assert_eq!(fork.max_parallel_subtree, 10);
        assert!((fork.mean_parallel_subtree - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let mut coo = CooMatrix::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        coo.push(2, 2, 1.0);
        coo.push(3, 3, 1.0);
        let a = coo.to_csr();
        let p = reverse_cuthill_mckee(&a);
        assert_eq!(p.len(), 4);
    }
}
