//! Supernodal blocked sparse Cholesky factorization `A = L Lᵀ`, with an
//! elimination-tree-parallel numeric phase.
//!
//! A scalar up-looking factorization (the test reference in the dev-only
//! `morestress-oracle` crate) touches one nonzero at a time: every
//! floating-point operation pays an index load, and every right-hand side
//! re-streams the whole factor. This module builds the factorization
//! around **supernodes** — runs of adjacent columns whose below-diagonal
//! sparsity patterns coincide (exactly, or nearly, under *relaxed
//! amalgamation*). Each supernode is stored as one dense column panel, so
//! both the factorization and the triangular solves run as dense rank-k
//! updates over contiguous `f64` slices, with the sparse indices consulted
//! once per panel instead of once per entry. The dense work goes through
//! the crate's one dense kernel, [`BlockedKernel`]: register tiles and
//! unrolled fused multiply-add loops compiled per instruction-set level
//! (`kernel.rs`'s `Isa` ladder), bit for bit the same at every level.
//!
//! # Why this matters for MORE-Stress
//!
//! The paper's whole cost model (§4.2) is *factor once, solve many*: the
//! local stage reuses one decomposition for all n+1 local problems, and the
//! batched global stage re-solves one cached factor for every thermal load.
//! Both stages are therefore bounded by exactly the two things supernodes
//! accelerate: the one-time factorization (dense rank-k updates instead of
//! scalar scatter, and since PR 4 scheduled task-parallel over the
//! elimination tree) and the per-right-hand-side triangular sweeps
//! ([`SupernodalCholesky::solve_panel`] streams each panel once for a whole
//! block of right-hand sides). This is the only factorization in the
//! crate; the scalar factorization of `morestress-oracle` is the
//! independent reference the differential tests pin it against (≤1e-12).
//!
//! # Algorithm
//!
//! 1. **Symbolic** ([`Symbolic::analyze`], shared by both numeric paths).
//!    The permuted operator `P·A·Pᵀ` is never materialised: one pass over
//!    `A`, reading row `perm[k]` through the inverse permutation, yields
//!    the elimination tree and the strict-lower column pattern (CSC) of
//!    `P·A·Pᵀ`. Nothing then walks `L` entry by entry. The column counts
//!    of `L` come from the etree postorder, first descendants and
//!    skeleton leaves over path-compressed ancestors (Gilbert–Ng–Peyton,
//!    as CSparse's `cs_counts`), near-linear in `nnz(A)`. Columns are
//!    grouped greedily left-to-right: column `j` joins the supernode
//!    ending at `j-1` when `parent[j-1] == j` and either the patterns
//!    match exactly (a *fundamental* supernode) or the padding introduced
//!    by storing the union pattern stays under the relaxation budget.
//!    Each supernode `[c0, c1)` then gets its row list directly: its
//!    diagonal columns, then the sorted union of its own columns'
//!    strict-lower entries `≥ c1` and its child supernodes' row tails
//!    `≥ c1` — by etree inclusion, exactly the pattern of its last
//!    column. The pattern arrays are dropped before any panel exists. The
//!    phase also precomputes the **update schedule**: for every
//!    supernode, the exact ordered list of descendant contributions the
//!    serial left-looking sweep would apply (see *Determinism* below),
//!    plus subtree weights of the supernodal etree for schedule balance.
//! 2. **Numeric**: two task kinds cover the work. All panels share one
//!    buffer, written in full; it is allocated huge-page advised
//!    ([`huge_zeroed`]), so a 24×24-block array's 35 MB factor faults in
//!    2 MiB at a time rather than 4 KiB.
//!
//!    * A **panel task** per supernode: assemble the panel from `A`
//!      (column `c` from row `perm[c]`, the entries at or below the
//!      diagonal after renaming; each slot is written once); if the
//!      panel's whole descendant-update load fits the work budget,
//!      apply the updates `C = G·G₁ᵀ` directly to the panel — each one
//!      [`BlockedKernel::scatter_update`] call, whose register tile is
//!      subtracted straight into the panel's slots through the
//!      descendant's relative row map, with no update buffer in between —
//!      otherwise subtract the finished update chunks (below)
//!      element-wise in fixed chunk order; then factor the panel in place
//!      by a dense blocked column Cholesky.
//!    * An **update-chunk task** per work-bounded slice of the remaining
//!      descendant updates of a heavy panel, accumulating its slice into a
//!      private panel-shaped buffer. A panel's buffers are allocated by
//!      the first of its chunk tasks to run and freed by its panel task,
//!      so the serial sweep holds one panel's at a time. Without these, a
//!      left-looking schedule serializes *all* update flops into a
//!      separator on the separator's own task — on a geometric-dissection
//!      lattice that chains ~70% of total work onto the root path, capping
//!      tree parallelism at ~1.4×; with them the bulk of the update work
//!      rides independent tasks and the critical path collapses to the
//!      dense panel chain.
//!
//!    The serial path runs the tasks left-to-right (each panel's chunks,
//!    then the panel); the parallel path runs the *same task bodies* as a
//!    dependency DAG on the shared [`WorkPool`]
//!    ([`WorkPool::scope_dag_with`]): a chunk is ready when the descendants it
//!    reads are factored, a panel when its chunks and streamed-prefix
//!    descendants finished. Ready tasks are claimed heaviest-subtree
//!    first, and every worker reuses one dense scratch across its tasks.
//! 3. **Solve**: [`SupernodalCholesky::solve_panel`] sweeps right-hand
//!    sides in blocks of up to 8 columns. A block is permuted into an
//!    *interleaved* scratch — row `i` holds its entries for every column
//!    of the block side by side — and forward/backward substitution walk
//!    the supernodes once for the whole block: per supernode the diagonal
//!    block is a dense triangular solve and the below-diagonal block a
//!    dense product into an interleaved gather block, so every load of
//!    `L` serves all columns and each gathered or scattered row is one
//!    contiguous run. The block is scattered back through the inverse
//!    permutation. A single solve is the one-column block. Per column the
//!    floating-point chain is the one-column sweep's, so panel solves are
//!    bitwise equal to looped solves at every panel width.
//!
//! # The border
//!
//! [`SupernodalCholesky::factor_bordered`] stops the elimination early: the
//! trailing `n − n_elim` permuted columns are a *border*, kept in their
//! natural order behind the leading block (the permutation read through is
//! `lead` followed by `n_elim..n`). The symbolic phase analyses the whole
//! bordered pattern, so border panels get their rows like any other; it
//! starts a new supernode at `n_elim`, so every panel is either
//! eliminated or border, and never queues a border panel as a descendant.
//! The factor's true nonzero count is the leading block's alone: the
//! column-count pass sums the row-subtree sizes of the rows before
//! `n_elim` only. The numeric phase assembles and updates border panels
//! like any other but skips their in-panel Cholesky. Border panels
//! therefore receive the updates of every eliminated panel and nothing
//! else — they end as the Schur complement `A_bb − A_bi A_ii⁻¹ A_ib`, read
//! out as a dense block — and the border rows, a suffix of every
//! eliminated panel's row list, are cut from the leading factor
//! afterwards. The task DAG is the full
//! factorization's with the border panels as leaves, so the determinism
//! contract below covers it unchanged, and a full factorization is the
//! case `n_elim = n`. The sharded backend condenses each shard this way:
//! its interior is the leading block, the interface DoFs it couples the
//! border.
//!
//! # Determinism contract
//!
//! The parallel factorization is **bitwise identical** to the serial sweep
//! at every pool cap — the same invariance the rest of the pipeline honors
//! (`crates/core/tests/thread_invariance.rs`). Floating-point addition is
//! not associative, so this only holds because nothing about the numeric
//! phase depends on scheduling:
//!
//! * every task writes disjoint, index-addressed memory (a panel task its
//!   panel, a chunk task its private accumulator);
//! * the update partition — which descendants are streamed, how the rest
//!   are sliced into chunks — and every application order are *structural*:
//!   the symbolic phase simulates the serial pending queues, freezes the
//!   resulting descendant order per supernode, and cuts chunks by a fixed
//!   work budget, all independent of worker count or scheduling;
//! * a task reads only panels the DAG ordered before it (the scope's
//!   ready-queue mutex provides the happens-before edge), and chunk
//!   accumulators are combined by the panel task in fixed chunk order.
//!
//! Which supernodes *fail* first on a non-SPD operator is
//! scheduling-dependent, so only the success path is bitwise-pinned; the
//! error path still deterministically reports the smallest failing pivot
//! row among the tasks that ran.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::kernel::BlockedKernel;
use crate::ordering::{tree_metrics, FillOrdering, Permutation, TreeMetrics};
use crate::pool::TaskDag;
use crate::{huge_zeroed, CsrMatrix, LinalgError, MemoryFootprint, WorkPool};

const NONE: usize = usize::MAX;

/// Tuning knobs of the supernode detection and factorization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernodalOptions {
    /// Hard cap on supernode width (columns per panel). Wider panels give
    /// longer dense inner loops but cubically growing dense work on the
    /// trailing (dense-ish) supernodes; 32 is a good CPU default.
    pub max_width: usize,
    /// Relaxed-amalgamation budget: a merge is accepted while the padding
    /// (stored zeros) of the merged panel stays below this fraction of its
    /// true nonzeros. `0.0` yields exactly the fundamental supernodes.
    pub relax: f64,
    /// Small supernodes are merged more aggressively: below this width the
    /// padding budget is doubled (panel overhead dominates true flops
    /// there).
    pub small_width: usize,
    /// Minimum estimated-flop budget per update-chunk task of the parallel
    /// schedule (see the module docs; the effective budget also scales
    /// with the factorization size so chunk-accumulator overhead stays
    /// bounded). Changing it changes how descendant updates are grouped —
    /// and therefore the factor's low-order bits — so like `max_width` it
    /// is part of the structural configuration, *not* a per-run knob: the
    /// serial and parallel paths always share one partition. Mostly for
    /// tests, which shrink it to force chunking on small operators.
    pub chunk_work: u64,
}

impl Default for SupernodalOptions {
    fn default() -> Self {
        Self {
            max_width: 32,
            relax: 0.2,
            small_width: 8,
            chunk_work: CHUNK_WORK_BUDGET,
        }
    }
}

/// Shape statistics of a supernodal factor (reported through
/// [`SolveReport`](crate::SolveReport)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupernodeStats {
    /// Number of supernodes (column panels).
    pub supernodes: usize,
    /// Widest panel (columns).
    pub max_width: usize,
    /// Stored factor entries including relaxation padding.
    pub stored_nnz: usize,
    /// True factor nonzeros (what a scalar factorization would store).
    pub true_nnz: usize,
    /// Height of the supernodal elimination tree: panels on the longest
    /// root-to-leaf chain, i.e. the unweighted depth of the task DAG.
    pub etree_height: usize,
    /// Weighted critical path of the numeric task DAG (panel + update-chunk
    /// tasks, estimated work units along the heaviest dependency chain):
    /// the work no schedule can overlap. `total_work / critical_path`
    /// bounds the parallel speedup of the numeric phase.
    pub critical_path: usize,
    /// Estimated work of the whole factorization, same units as
    /// [`critical_path`](SupernodeStats::critical_path).
    pub total_work: usize,
    /// Heaviest *parallel unit* of the etree (subtree rooted at a child of
    /// a branch node — the pieces the schedule can overlap). Close to
    /// [`total_work`](SupernodeStats::total_work) means one branch
    /// dominates and tree parallelism is poor.
    pub max_subtree_weight: usize,
    /// Mean weight of the parallel units (see
    /// [`max_subtree_weight`](SupernodeStats::max_subtree_weight)).
    pub mean_subtree_weight: f64,
    /// The *resolved* fill ordering behind the factor
    /// ([`FillOrdering::name`]: `"geometric"` or `"rcm"` — never
    /// `"auto"`), or `"supplied"` for a factor built
    /// from a caller's own permutation
    /// ([`SupernodalCholesky::factor_with_permutation`]).
    pub ordering: &'static str,
}

/// The symbolic analysis of one factorization: supernode partition, row
/// structure, panel layout, and the deterministic update schedule shared by
/// the serial and parallel numeric paths.
struct Symbolic {
    n: usize,
    /// Permuted columns `0..n_elim` are eliminated; the trailing border
    /// `n_elim..n` is only accumulated (`n_elim == n` for a full factor).
    n_elim: usize,
    /// Supernodes `0..elim_sn` cover the eliminated columns; the rest are
    /// border panels, which receive updates but are never factored and
    /// never update anything themselves.
    elim_sn: usize,
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Row lists: supernode `s` owns `rows[row_ptr[s]..row_ptr[s+1]]`,
    /// sorted ascending; the first `width(s)` entries are the diagonal
    /// block columns themselves.
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Dense panel layout: supernode `s` owns
    /// `values[val_ptr[s]..val_ptr[s+1]]`.
    val_ptr: Vec<usize>,
    /// True nonzeros and widest panel of the *leading* factor (eliminated
    /// columns, border rows excluded).
    true_nnz: usize,
    max_width: usize,
    /// Update schedule in CSR form: factoring supernode `s` applies the
    /// descendant contributions `upd[upd_ptr[s]..upd_ptr[s+1]]` — pairs of
    /// (descendant, row cursor) — in exactly this order, which is the order
    /// the serial left-looking sweep's pending queues would produce.
    upd_ptr: Vec<usize>,
    upd: Vec<(usize, usize)>,
    /// The prefix `upd[upd_ptr[s]..stream_hi[s]]` is streamed directly into
    /// the panel by panel task `s`; the rest is sliced into update-chunk
    /// tasks.
    stream_hi: Vec<usize>,
    /// Update-chunk tasks, grouped per panel: panel `s` owns chunks
    /// `chk_ptr[s]..chk_ptr[s+1]`; chunk `t` covers updates
    /// `upd[chunk_lo[t]..chunk_hi[t]]` of panel `chunk_panel[t]` and
    /// accumulates into slice `t − chk_ptr[s]` (each `w·m` long) of its
    /// panel's accumulator buffer (see [`AccSlot`]).
    chk_ptr: Vec<usize>,
    chunk_lo: Vec<usize>,
    chunk_hi: Vec<usize>,
    chunk_panel: Vec<usize>,
    /// Chunk-accumulator reduction trees, grouped per panel: panel `s`
    /// owns combines `cmb_ptr[s]..cmb_ptr[s+1]`; combine `u` folds
    /// accumulator `cmb_src[u]` into `cmb_dst[u]` element-wise (both are
    /// global chunk indices). Within a panel the combines form a fixed
    /// stride-doubling pairwise tree rooted at the panel's first chunk —
    /// pure structure, independent of worker count — so on wide
    /// separators the O(chunks) accumulator folds ride log-depth parallel
    /// tasks instead of the panel task's critical path. Listed in
    /// stride order, which is the order the serial sweep runs them.
    cmb_ptr: Vec<usize>,
    cmb_dst: Vec<usize>,
    cmb_src: Vec<usize>,
    /// Longest weighted path through the task DAG — the schedule's span.
    critical_path: u64,
    /// Summed task weights.
    total_work: u64,
    /// Etree shape metrics over whole-supernode work (panel + chunks);
    /// subtree weights double as DAG claim priorities.
    metrics: TreeMetrics,
}

/// Minimum estimated-flop budget per update-chunk task: big enough that
/// task overhead (one DAG pop, one accumulator zero/apply pass) vanishes,
/// small enough that a root separator's update load splits into dozens of
/// parallel chunks. The effective budget grows with the factorization
/// (see [`Symbolic::analyze`]) so the chunk count — and with it the
/// accumulator traffic the serial path pays — stays bounded on huge
/// operators.
const CHUNK_WORK_BUDGET: u64 = 1 << 18;

/// Cap on the number of update chunks the adaptive budget aims for.
const CHUNK_COUNT_TARGET: u64 = 256;

impl Symbolic {
    fn num_sn(&self) -> usize {
        self.sn_ptr.len() - 1
    }

    /// Where chunk `t` accumulates: the length of its panel's buffer (all
    /// of the panel's chunks), the offset of its own slice in it, and the
    /// slice length `w·m`.
    fn acc_slice(&self, t: usize) -> (usize, usize, usize) {
        let s = self.chunk_panel[t];
        let wm = (self.sn_ptr[s + 1] - self.sn_ptr[s]) * (self.row_ptr[s + 1] - self.row_ptr[s]);
        let root = self.chk_ptr[s];
        ((self.chk_ptr[s + 1] - root) * wm, (t - root) * wm, wm)
    }

    /// Runs the full symbolic phase on `P·A·Pᵀ`, read through `pa`, whose
    /// first `n_elim` columns are to be eliminated and the rest accumulated
    /// as a border: the elimination tree and strict-lower pattern in one
    /// pass over `A`, column counts, supernodes, row lists, then the panel
    /// layout and task schedule ([`Symbolic::from_rows`]). The pattern is
    /// dropped before this returns.
    fn analyze(pa: Permuted<'_>, n_elim: usize, opts: &SupernodalOptions) -> Self {
        debug_assert!(n_elim <= pa.n());
        let (col_ptr, col_rows, parent) = lower_pattern(pa);
        let (counts, true_nnz) = column_counts(&col_ptr, &col_rows, &parent, n_elim);
        let sn_ptr = supernode_partition(&parent, &counts, n_elim, opts);
        let (row_ptr, rows) = row_lists(&sn_ptr, &counts, &parent, &col_ptr, &col_rows);
        drop((col_ptr, col_rows, parent, counts));
        Self::from_rows(n_elim, sn_ptr, row_ptr, rows, true_nnz, opts)
    }

    /// The second half of the symbolic phase, from a supernode partition
    /// and its row lists (each sorted, diagonal block first): panel layout,
    /// supernodal etree, update schedule, chunk partition and schedule
    /// metrics. `true_nnz` is the leading factor's true nonzero count.
    fn from_rows(
        n_elim: usize,
        sn_ptr: Vec<usize>,
        row_ptr: Vec<usize>,
        rows: Vec<usize>,
        true_nnz: usize,
        opts: &SupernodalOptions,
    ) -> Self {
        let n = *sn_ptr.last().expect("sn_ptr starts at 0");
        let num_sn = sn_ptr.len() - 1;
        let elim_sn = sn_ptr.partition_point(|&c| c < n_elim);
        let col_to_sn = column_owners(&sn_ptr);
        let max_width = (0..elim_sn)
            .map(|s| sn_ptr[s + 1] - sn_ptr[s])
            .max()
            .unwrap_or(0);

        // --- Panel storage layout -----------------------------------------
        let mut val_ptr = vec![0usize; num_sn + 1];
        for s in 0..num_sn {
            let w = sn_ptr[s + 1] - sn_ptr[s];
            let m = row_ptr[s + 1] - row_ptr[s];
            val_ptr[s + 1] = val_ptr[s] + w * m;
        }

        // --- Supernodal etree + deterministic update schedule -------------
        // The supernodal etree contracts the column etree: the parent of s
        // is the supernode owning s's first below-diagonal row (= the etree
        // parent of s's last column). The update schedule replays the
        // serial left-looking sweep's pending queues symbolically, freezing
        // per supernode the exact descendant order the serial numeric loop
        // would consume — the parallel path then applies updates in this
        // order, which is what makes it bitwise identical to serial.
        let mut sn_parent = vec![NONE; num_sn];
        for s in 0..num_sn {
            let w = sn_ptr[s + 1] - sn_ptr[s];
            let m = row_ptr[s + 1] - row_ptr[s];
            if m > w {
                sn_parent[s] = col_to_sn[rows[row_ptr[s] + w]];
            }
        }
        let mut upd_ptr = vec![0usize; num_sn + 1];
        let mut upd: Vec<(usize, usize)> = Vec::new();
        let mut upd_work: Vec<u64> = Vec::new();
        {
            let mut pending: Vec<Vec<usize>> = vec![Vec::new(); num_sn];
            let mut cursor = vec![0usize; num_sn];
            for s in 0..num_sn {
                let c1 = sn_ptr[s + 1];
                for d in std::mem::take(&mut pending[s]) {
                    let rows_d = &rows[row_ptr[d]..row_ptr[d + 1]];
                    let wd = sn_ptr[d + 1] - sn_ptr[d];
                    let md = rows_d.len();
                    let p = cursor[d];
                    let p2 = p + rows_d[p..].partition_point(|&r| r < c1);
                    upd.push((d, p));
                    upd_work.push((wd * (md - p) * (p2 - p)) as u64);
                    if p2 < md {
                        cursor[d] = p2;
                        pending[col_to_sn[rows_d[p2]]].push(d);
                    }
                }
                upd_ptr[s + 1] = upd.len();
                let w = sn_ptr[s + 1] - sn_ptr[s];
                let m = row_ptr[s + 1] - row_ptr[s];
                // A border panel is never factored, so it updates nothing:
                // border panels receive from eliminated panels only.
                if m > w && s < elim_sn {
                    cursor[s] = w;
                    pending[col_to_sn[rows[row_ptr[s] + w]]].push(s);
                }
            }
        }

        // --- Update partition: streamed or work-bounded chunks ------------
        // Structural (worker-count-independent) by construction: a panel
        // whose whole update load fits the budget streams it directly
        // (keeping the PR-3 single-stream behavior exactly — no
        // accumulator overhead where panels are small); a heavier panel
        // streams *nothing* and slices everything into accumulator chunks,
        // so no serial update prefix rides the critical path.
        let mut stream_hi = vec![0usize; num_sn];
        let mut chk_ptr = vec![0usize; num_sn + 1];
        let mut chunk_lo: Vec<usize> = Vec::new();
        let mut chunk_hi: Vec<usize> = Vec::new();
        let mut chunk_panel: Vec<usize> = Vec::new();
        let mut chunk_weight: Vec<u64> = Vec::new();
        let mut cmb_ptr = vec![0usize; num_sn + 1];
        let mut cmb_dst: Vec<usize> = Vec::new();
        let mut cmb_src: Vec<usize> = Vec::new();
        let mut panel_weight = vec![0u64; num_sn];
        // Structure-only adaptive budget: at least the configured floor,
        // and at most ~CHUNK_COUNT_TARGET chunks across the whole
        // factorization.
        let budget = opts
            .chunk_work
            .max(1)
            .max(upd_work.iter().sum::<u64>() / CHUNK_COUNT_TARGET);
        for s in 0..num_sn {
            let w = sn_ptr[s + 1] - sn_ptr[s];
            let m = row_ptr[s + 1] - row_ptr[s];
            let hi = upd_ptr[s + 1];
            let mut i = upd_ptr[s];
            let total: u64 = upd_work[i..hi].iter().sum();
            let mut streamed = 0u64;
            if total < budget {
                streamed = total;
                i = hi;
            }
            stream_hi[s] = i;
            while i < hi {
                let lo = i;
                let mut work = 0u64;
                while i < hi && work < budget {
                    work += upd_work[i];
                    i += 1;
                }
                chunk_lo.push(lo);
                chunk_hi.push(i);
                chunk_panel.push(s);
                chunk_weight.push(work.max(1));
            }
            chk_ptr[s + 1] = chunk_lo.len();
            // Fixed stride-doubling pairwise reduction tree over this
            // panel's chunks, rooted at the first chunk: the panel task
            // then subtracts the root accumulator only.
            let lo_t = chk_ptr[s];
            let q = chk_ptr[s + 1] - lo_t;
            let mut stride = 1usize;
            while stride < q {
                let mut i = 0;
                while i + stride < q {
                    cmb_dst.push(lo_t + i);
                    cmb_src.push(lo_t + i + stride);
                    i += 2 * stride;
                }
                stride *= 2;
            }
            cmb_ptr[s + 1] = cmb_dst.len();
            let nchunks = (chk_ptr[s + 1] - chk_ptr[s]) as u64;
            // Assembly + streamed updates + one element-wise root-chunk
            // subtraction + dense in-panel Cholesky, which border panels
            // skip (the per-chunk folds are combine tasks with their own
            // weights).
            let root_apply = if nchunks > 0 { (w * m) as u64 } else { 0 };
            let factor = if s < elim_sn { (w * w * m) as u64 } else { 0 };
            panel_weight[s] = ((w * m) as u64 + streamed + root_apply + factor).max(1);
        }

        // --- Schedule span: longest weighted path through the task DAG ----
        // Panels are visited in serial (topological) order, so a single
        // pass suffices: a chunk's predecessors are the panels it reads, a
        // combine's the chunk/combine that last wrote each side, and a
        // panel's its streamed descendants plus the root of its combine
        // tree.
        let mut critical_path = 0u64;
        let mut total_work = 0u64;
        {
            let mut lp = vec![0u64; num_sn]; // longest path ending at panel s
            let mut clp: Vec<u64> = Vec::new(); // per-chunk, reused per panel
            for s in 0..num_sn {
                let w = sn_ptr[s + 1] - sn_ptr[s];
                let m = row_ptr[s + 1] - row_ptr[s];
                let mut best = 0u64;
                for i in upd_ptr[s]..stream_hi[s] {
                    best = best.max(lp[upd[i].0]);
                }
                let lo_t = chk_ptr[s];
                clp.clear();
                for t in lo_t..chk_ptr[s + 1] {
                    let mut chunk_best = 0u64;
                    for i in chunk_lo[t]..chunk_hi[t] {
                        chunk_best = chunk_best.max(lp[upd[i].0]);
                    }
                    clp.push(chunk_best + chunk_weight[t]);
                    total_work += chunk_weight[t];
                }
                // Fold the combine tree: each combine waits for both its
                // accumulators' last writers and costs one w·m pass.
                let cmb_weight = (w * m) as u64;
                for u in cmb_ptr[s]..cmb_ptr[s + 1] {
                    let (d, c) = (cmb_dst[u] - lo_t, cmb_src[u] - lo_t);
                    clp[d] = clp[d].max(clp[c]) + cmb_weight;
                    total_work += cmb_weight;
                }
                if !clp.is_empty() {
                    best = best.max(clp[0]);
                }
                lp[s] = best + panel_weight[s];
                total_work += panel_weight[s];
                critical_path = critical_path.max(lp[s]);
            }
        }

        // Whole-supernode work (panel + its chunks + its combine folds)
        // drives the tree-shape metrics and the claim priorities.
        let sn_weight: Vec<u64> = (0..num_sn)
            .map(|s| {
                let w = sn_ptr[s + 1] - sn_ptr[s];
                let m = row_ptr[s + 1] - row_ptr[s];
                let folds = (cmb_ptr[s + 1] - cmb_ptr[s]) as u64 * (w * m) as u64;
                panel_weight[s]
                    + folds
                    + chunk_weight[chk_ptr[s]..chk_ptr[s + 1]].iter().sum::<u64>()
            })
            .collect();
        let metrics = tree_metrics(&sn_parent, &sn_weight);

        Self {
            n,
            n_elim,
            elim_sn,
            sn_ptr,
            row_ptr,
            rows,
            val_ptr,
            true_nnz,
            max_width,
            upd_ptr,
            upd,
            stream_hi,
            chk_ptr,
            chunk_lo,
            chunk_hi,
            chunk_panel,
            cmb_ptr,
            cmb_dst,
            cmb_src,
            critical_path,
            total_work,
            metrics,
        }
    }

    /// Reads the accumulated border out of the border panels: a dense
    /// `w × w` row-major block (`w = n − n_elim`), both triangles, from
    /// each panel's lower triangle.
    fn border_block(&self, values: &[f64]) -> Vec<f64> {
        let w = self.n - self.n_elim;
        let mut border = vec![0.0f64; w * w];
        for s in self.elim_sn..self.num_sn() {
            let rows_s = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let m = rows_s.len();
            let panel = &values[self.val_ptr[s]..self.val_ptr[s + 1]];
            for (lc, c) in (self.sn_ptr[s]..self.sn_ptr[s + 1]).enumerate() {
                let j = c - self.n_elim;
                // Rows from the diagonal down (the diagonal block's rows
                // come first, so `rows_s[lc] == c`).
                for (&r, &v) in rows_s[lc..].iter().zip(&panel[lc * m + lc..(lc + 1) * m]) {
                    let i = r - self.n_elim;
                    border[i * w + j] = v;
                    border[j * w + i] = v;
                }
            }
        }
        border
    }

    /// Cuts the factor storage down to the leading factor, in place: the
    /// border panels go, and every eliminated panel drops its border rows —
    /// a suffix of its row list, so each column keeps a prefix. Panels only
    /// move toward the front, so one forward pass compacts without a second
    /// buffer; the storage is then trimmed to exact capacity.
    fn drop_border(&mut self, values: &mut Vec<f64>) {
        let (mut rows_len, mut vals_len) = (0usize, 0usize);
        for s in 0..self.elim_sn {
            let (r0, r1) = (self.row_ptr[s], self.row_ptr[s + 1]);
            let (m, v0) = (r1 - r0, self.val_ptr[s]);
            let w = self.sn_ptr[s + 1] - self.sn_ptr[s];
            let keep = self.rows[r0..r1].partition_point(|&r| r < self.n_elim);
            self.row_ptr[s] = rows_len;
            self.val_ptr[s] = vals_len;
            self.rows.copy_within(r0..r0 + keep, rows_len);
            for lc in 0..w {
                let src = v0 + lc * m;
                values.copy_within(src..src + keep, vals_len + lc * keep);
            }
            rows_len += keep;
            vals_len += w * keep;
        }
        self.row_ptr[self.elim_sn] = rows_len;
        self.val_ptr[self.elim_sn] = vals_len;
        for ptr in [&mut self.sn_ptr, &mut self.row_ptr, &mut self.val_ptr] {
            ptr.truncate(self.elim_sn + 1);
            ptr.shrink_to_fit();
        }
        self.rows.truncate(rows_len);
        self.rows.shrink_to_fit();
        values.truncate(vals_len);
        values.shrink_to_fit();
    }
}

/// The operator `P·A·Pᵀ` the factorization reads, never materialised: its
/// row `k` is row `perm[k]` of `a`, column `c` renamed `inv[c]`. Entries of
/// a row come in `a`'s column order, which is not ascending after
/// renaming; nothing that reads it depends on entry order.
#[derive(Clone, Copy)]
struct Permuted<'a> {
    a: &'a CsrMatrix,
    perm: &'a [usize],
    inv: &'a [usize],
}

impl Permuted<'_> {
    fn n(&self) -> usize {
        self.perm.len()
    }

    /// The columns of row `k`.
    fn cols(&self, k: usize) -> impl Iterator<Item = usize> + '_ {
        self.a.row(self.perm[k]).0.iter().map(|&c| self.inv[c])
    }

    /// The (column, value) entries of row `k`.
    fn row(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.a.row(self.perm[k]);
        cols.iter().map(|&c| self.inv[c]).zip(vals.iter().copied())
    }
}

/// The whole-operator permutation of a bordered factorization of an
/// `n`-row operator, as `(perm, inv)`: `lead`, then the border `n_elim..n`
/// in its natural order. Borrowed from `lead` when there is no border.
fn bordered_permutation(lead: &Permutation, n: usize) -> (Cow<'_, [usize]>, Cow<'_, [usize]>) {
    let n_elim = lead.len();
    if n_elim == n {
        return (lead.as_slice().into(), lead.inverse_slice().into());
    }
    let extend = |head: &[usize]| -> Vec<usize> { head.iter().copied().chain(n_elim..n).collect() };
    (
        extend(lead.as_slice()).into(),
        extend(lead.inverse_slice()).into(),
    )
}

/// The strict-lower column pattern of `P·A·Pᵀ` and its elimination tree,
/// in one pass over the rows of `A` after a counting pass: column `j` of
/// the pattern, `col_rows[col_ptr[j]..col_ptr[j+1]]`, holds every row
/// `k > j` whose strict lower part has an entry in column `j`, ascending
/// (rows are visited in order). The etree is unique, so the order of the
/// entries within a row does not matter to it either. `col_rows` is
/// written in full, so it is allocated huge-page advised. Returns
/// `(col_ptr, col_rows, parent)`, `parent[j] == NONE` marking a root.
fn lower_pattern(pa: Permuted<'_>) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let n = pa.n();
    let mut col_ptr = vec![0usize; n + 1];
    for k in 0..n {
        for j in pa.cols(k).filter(|&j| j < k) {
            col_ptr[j + 1] += 1;
        }
    }
    for j in 0..n {
        col_ptr[j + 1] += col_ptr[j];
    }
    let mut col_rows = huge_zeroed(col_ptr[n]);
    let mut next = col_ptr[..n].to_vec();
    let mut parent = vec![NONE; n];
    // Liu's algorithm: `ancestor` path-compresses each visited path up to
    // the current row.
    let mut ancestor = vec![NONE; n];
    for k in 0..n {
        for j in pa.cols(k).filter(|&j| j < k) {
            col_rows[next[j]] = k;
            next[j] += 1;
            let mut i = j;
            while i != NONE && i < k {
                let up = ancestor[i];
                ancestor[i] = k;
                if up == NONE {
                    parent[i] = k;
                    break;
                }
                i = up;
            }
        }
    }
    (col_ptr, col_rows, parent)
}

/// A postorder of the forest `parent`: every subtree is contiguous and
/// ends at its root.
fn postorder(parent: &[usize]) -> Vec<usize> {
    let n = parent.len();
    let mut head = vec![NONE; n];
    let mut next = vec![NONE; n];
    for j in (0..n).rev() {
        if parent[j] != NONE {
            next[j] = head[parent[j]];
            head[parent[j]] = j;
        }
    }
    let mut post = Vec::with_capacity(n);
    let mut stack = Vec::new();
    for root in (0..n).filter(|&j| parent[j] == NONE) {
        stack.push(root);
        while let Some(&p) = stack.last() {
            let child = head[p];
            if child == NONE {
                stack.pop();
                post.push(p);
            } else {
                head[p] = next[child];
                stack.push(child);
            }
        }
    }
    post
}

/// Column counts of `L` (diagonal included) from the strict-lower pattern
/// and the etree, by Gilbert–Ng–Peyton (the algorithm of CSparse's
/// `cs_counts`): row `i` of `L` is the subtree of the etree spanned by
/// its pattern entries up to `i`; walking the columns in postorder, an
/// entry `(i, j)` is a *leaf* of that row subtree iff `j`'s first
/// descendant lies past every earlier leaf's, and each leaf adds one to
/// its column's count and takes one back at the least common ancestor
/// with the previous leaf (found over path-compressed ancestor sets).
/// Summing the differences up the tree yields the counts. The same walk
/// sizes every row subtree (`level[j] − level[lca]` new nodes per leaf),
/// which gives the leading factor's true nonzero count: `n_elim` diagonals
/// plus the row subtrees of the rows before `n_elim`. Returns
/// `(counts, true_nnz)`.
fn column_counts(
    col_ptr: &[usize],
    col_rows: &[usize],
    parent: &[usize],
    n_elim: usize,
) -> (Vec<usize>, usize) {
    let n = parent.len();
    let post = postorder(parent);
    // `first[j]`: postorder index of j's first descendant. Leaves start
    // their count at 1 (the diagonal).
    let mut first = vec![NONE; n];
    let mut delta = vec![0isize; n];
    for (k, &j) in post.iter().enumerate() {
        delta[j] = isize::from(first[j] == NONE);
        let mut i = j;
        while i != NONE && first[i] == NONE {
            first[i] = k;
            i = parent[i];
        }
    }
    let mut level = vec![0usize; n];
    for j in (0..n).rev() {
        if parent[j] != NONE {
            level[j] = level[parent[j]] + 1;
        }
    }
    // Per row subtree: one past the largest `first` of its leaves so far
    // (0: no leaf yet), and its previous leaf.
    let mut max_first = vec![0usize; n];
    let mut prev_leaf = vec![NONE; n];
    let mut ancestor: Vec<usize> = (0..n).collect();
    let mut true_nnz = n_elim;
    for &j in &post {
        if parent[j] != NONE {
            delta[parent[j]] -= 1;
        }
        for &i in &col_rows[col_ptr[j]..col_ptr[j + 1]] {
            if first[j] < max_first[i] {
                continue; // j sits under an earlier leaf of row i
            }
            max_first[i] = first[j] + 1;
            delta[j] += 1;
            let prev = std::mem::replace(&mut prev_leaf[i], j);
            let top = if prev == NONE {
                i
            } else {
                let mut q = prev;
                while ancestor[q] != q {
                    q = ancestor[q];
                }
                let mut s = prev;
                while s != q {
                    s = std::mem::replace(&mut ancestor[s], q);
                }
                delta[q] -= 1;
                q
            };
            if i < n_elim {
                true_nnz += level[j] - level[top];
            }
        }
        if parent[j] != NONE {
            ancestor[j] = parent[j];
        }
    }
    for j in 0..n {
        if parent[j] != NONE {
            delta[parent[j]] += delta[j];
        }
    }
    let counts = delta
        .into_iter()
        .map(|d| usize::try_from(d).expect("column counts are positive"))
        .collect();
    (counts, true_nnz)
}

/// Supernode detection with relaxed amalgamation. Greedy left-to-right:
/// extend the current supernode `[c0..j)` with column `j` iff the etree
/// links `j-1 → j` (which guarantees the merged row structure is
/// `{c0..j} ∪ pattern(j) \ {j}`) and the padding stays within budget. For
/// a supernode `[c0..c)` the row structure is `{c0..c-1} ∪ (pattern(c-1) \
/// {c-1})`, so the panel height is `(c - c0) + counts[c-1] - 1` in closed
/// form. A supernode never straddles `n_elim`: the border starts a panel
/// of its own. Returns `sn_ptr`.
fn supernode_partition(
    parent: &[usize],
    counts: &[usize],
    n_elim: usize,
    opts: &SupernodalOptions,
) -> Vec<usize> {
    let n = parent.len();
    let max_width_cap = opts.max_width.max(1);
    let mut sn_ptr: Vec<usize> = vec![0];
    if n == 0 {
        return sn_ptr;
    }
    let mut c0 = 0usize;
    let mut true_in_sn = counts[0];
    for j in 1..n {
        let w = j - c0;
        let mut accept = false;
        if parent[j - 1] == j && w < max_width_cap && j != n_elim {
            if counts[j - 1] == counts[j] + 1 {
                // Fundamental: identical below-diagonal patterns, zero
                // padding added.
                accept = true;
            } else {
                // Relaxed: accept while padding stays in budget.
                let m = (w + 1) + counts[j] - 1;
                let stored = (w + 1) * m - w * (w + 1) / 2;
                let true_new = true_in_sn + counts[j];
                let budget = if w < opts.small_width {
                    2.0 * opts.relax
                } else {
                    opts.relax
                };
                accept = (stored - true_new) as f64 <= budget * true_new as f64;
            }
        }
        if accept {
            true_in_sn += counts[j];
        } else {
            sn_ptr.push(j);
            c0 = j;
            true_in_sn = counts[j];
        }
    }
    sn_ptr.push(n);
    sn_ptr
}

/// The supernode owning each column.
fn column_owners(sn_ptr: &[usize]) -> Vec<usize> {
    let mut col_to_sn = vec![0usize; *sn_ptr.last().expect("sn_ptr starts at 0")];
    for (s, cols) in sn_ptr.windows(2).enumerate() {
        col_to_sn[cols[0]..cols[1]].fill(s);
    }
    col_to_sn
}

/// Row lists per supernode: `[c0, c1)` gets its diagonal columns, then the
/// sorted union of its own columns' strict-lower entries `≥ c1` and the
/// row tails `≥ c1` of its child supernodes (those whose last column's
/// etree parent lies in `[c0, c1)`). By etree inclusion that union is the
/// pattern of column `c1 − 1` of `L` below the block, whose length
/// `counts[c1−1] − 1` sizes the list up front. Children precede their
/// parent, so one ascending pass finds every child's list complete.
/// Returns `(row_ptr, rows)`.
fn row_lists(
    sn_ptr: &[usize],
    counts: &[usize],
    parent: &[usize],
    col_ptr: &[usize],
    col_rows: &[usize],
) -> (Vec<usize>, Vec<usize>) {
    let num_sn = sn_ptr.len() - 1;
    let col_to_sn = column_owners(sn_ptr);
    let mut row_ptr = vec![0usize; num_sn + 1];
    for s in 0..num_sn {
        let w = sn_ptr[s + 1] - sn_ptr[s];
        row_ptr[s + 1] = row_ptr[s] + w + counts[sn_ptr[s + 1] - 1] - 1;
    }
    // Children of each supernode as linked lists.
    let mut child_head = vec![NONE; num_sn];
    let mut child_next = vec![NONE; num_sn];
    for t in 0..num_sn {
        let p = parent[sn_ptr[t + 1] - 1];
        if p != NONE {
            let s = col_to_sn[p];
            child_next[t] = child_head[s];
            child_head[s] = t;
        }
    }
    let mut rows = vec![0usize; row_ptr[num_sn]];
    let mut mark = vec![NONE; parent.len()];
    for s in 0..num_sn {
        let (c0, c1) = (sn_ptr[s], sn_ptr[s + 1]);
        let (done, rest) = rows.split_at_mut(row_ptr[s]);
        let list = &mut rest[..row_ptr[s + 1] - row_ptr[s]];
        for (slot, c) in list.iter_mut().zip(c0..c1) {
            *slot = c;
        }
        let own = (c0..c1).flat_map(|j| &col_rows[col_ptr[j]..col_ptr[j + 1]]);
        let linked = |t: usize| (t != NONE).then_some(t);
        let children = std::iter::successors(linked(child_head[s]), |&t| linked(child_next[t]))
            .flat_map(|t| &done[row_ptr[t] + sn_ptr[t + 1] - sn_ptr[t]..row_ptr[t + 1]]);
        let mut len = c1 - c0;
        for &r in own.chain(children) {
            if r >= c1 && mark[r] != s {
                mark[r] = s;
                list[len] = r;
                len += 1;
            }
        }
        debug_assert_eq!(len, list.len(), "supernode {s}: row count");
        list[c1 - c0..].sort_unstable();
    }
    (row_ptr, rows)
}

/// Per-worker index scratch of the numeric phase, reused across supernode
/// tasks.
struct PanelScratch {
    relmap: Vec<usize>,
    relrows: Vec<usize>,
}

impl PanelScratch {
    fn new(n: usize) -> Self {
        Self {
            relmap: vec![0usize; n],
            relrows: Vec::new(),
        }
    }
}

/// Panel storage shared across factorization tasks. Panel tasks write
/// disjoint `val_ptr` ranges and every task reads only panels of completed
/// predecessors, so the aliasing is benign; see [`run_panel_task`] /
/// [`run_chunk_task`].
struct SharedStorage {
    values: *mut f64,
}

// SAFETY: the raw pointer is only dereferenced inside the task bodies
// under the scope_dag_with discipline documented there.
unsafe impl Send for SharedStorage {}
unsafe impl Sync for SharedStorage {}

/// Zeroed accumulator storage of one panel's chunks, owned through a raw
/// pointer: its chunk tasks write disjoint slices of it concurrently, so
/// no reference to the whole buffer is formed once it exists.
struct AccBuf {
    ptr: *mut f64,
    len: usize,
}

impl AccBuf {
    fn zeroed(len: usize) -> Self {
        let buf = vec![0.0f64; len].into_boxed_slice();
        Self {
            len: buf.len(),
            ptr: Box::into_raw(buf).cast::<f64>(),
        }
    }
}

impl Drop for AccBuf {
    fn drop(&mut self) {
        // SAFETY: `ptr` and `len` came from `Box::into_raw` of a boxed
        // slice of exactly this length, and are released only here.
        drop(unsafe { Box::from_raw(std::ptr::slice_from_raw_parts_mut(self.ptr, self.len)) });
    }
}

// SAFETY: `AccBuf` uniquely owns its allocation; the task contracts
// govern every access through `ptr`.
unsafe impl Send for AccBuf {}

/// One panel's chunk accumulators (one `w·m` slice per chunk): allocated
/// by the first of the panel's chunk tasks to run and freed by the panel
/// task once it has subtracted them, so the serial sweep holds one panel's
/// accumulators at a time. Allocation and release happen under the slot's
/// lock; the task DAG orders every chunk and combine of a panel before the
/// panel task, so release never races a writer.
#[derive(Default)]
struct AccSlot(Mutex<Option<AccBuf>>);

impl AccSlot {
    /// Start of the panel's buffer of `len` entries, allocated on first use.
    fn base(&self, len: usize) -> *mut f64 {
        let mut buf = self.0.lock().expect("accumulator slot poisoned");
        buf.get_or_insert_with(|| AccBuf::zeroed(len)).ptr
    }

    /// Hands the buffer to the panel task, which frees it on drop.
    fn take(&self) -> Option<AccBuf> {
        self.0.lock().expect("accumulator slot poisoned").take()
    }
}

/// Computes one descendant contribution `C = G·G₁ᵀ` and scatters it into
/// `dst` — the panel itself (subtracting, the streamed path) or a chunk
/// accumulator (adding; the panel task later subtracts the whole
/// accumulator) — in one [`BlockedKernel::scatter_update`]. `scratch.relmap`
/// must already map this panel's rows to local indices; a row list opens
/// with the panel's own columns, so the relative rows of the update's
/// first `wj` rows are also its target columns.
///
/// # Safety
///
/// `values` must point at the full panel storage laid out by
/// `sym.val_ptr`, and descendant `d` must be fully factored with its
/// writes visible to this thread.
#[allow(clippy::too_many_arguments)] // internal kernel, call sites are two
unsafe fn apply_update(
    sym: &Symbolic,
    values: *const f64,
    d: usize,
    p: usize,
    c1: usize,
    m: usize,
    dst: &mut [f64],
    scratch: &mut PanelScratch,
    subtract: bool,
) {
    let PanelScratch { relmap, relrows } = scratch;
    let rows_d = &sym.rows[sym.row_ptr[d]..sym.row_ptr[d + 1]];
    let wd = sym.sn_ptr[d + 1] - sym.sn_ptr[d];
    let md = rows_d.len();
    let wj = rows_d[p..].partition_point(|&r| r < c1);
    debug_assert!(wj >= 1);
    // SAFETY: `d` is fully factored (function contract) and read-only here.
    let panel_d = unsafe { std::slice::from_raw_parts(values.add(sym.val_ptr[d]), wd * md) };

    // The rows of a descendant's tail are a subset of this panel's rows.
    relrows.clear();
    relrows.extend(rows_d[p..].iter().map(|&r| relmap[r]));
    BlockedKernel.scatter_update(dst, m, relrows, panel_d, md, p, wj, wd, subtract);
}

/// Accumulates update-chunk `t` into its private panel-shaped buffer — the
/// task body shared verbatim by the serial sweep and the DAG.
///
/// # Safety
///
/// `values` must point at the full panel storage and `accs` hold one slot
/// per chunk (a panel's buffer lives in its first chunk's slot); the
/// caller must guarantee exclusive access to accumulator slice `t` and
/// that every descendant read by the chunk is fully factored with its
/// writes visible (serial: ascending task order; parallel:
/// [`WorkPool::scope_dag_with`]'s dependency edges).
unsafe fn run_chunk_task(
    sym: &Symbolic,
    values: *const f64,
    accs: &[AccSlot],
    t: usize,
    scratch: &mut PanelScratch,
) {
    let s = sym.chunk_panel[t];
    let c1 = sym.sn_ptr[s + 1];
    let rows_s = &sym.rows[sym.row_ptr[s]..sym.row_ptr[s + 1]];
    let m = rows_s.len();
    for (i, &r) in rows_s.iter().enumerate() {
        scratch.relmap[r] = i;
    }
    let (len, offset, wm) = sym.acc_slice(t);
    let base = accs[sym.chk_ptr[s]].base(len);
    // SAFETY: exclusive access to accumulator `t` per the contract; the
    // panel's buffer was zero-initialized at allocation, stays allocated
    // until the panel task (which runs after this one), and this slice is
    // written by exactly this task.
    let accbuf = unsafe { std::slice::from_raw_parts_mut(base.add(offset), wm) };
    for &(d, p) in &sym.upd[sym.chunk_lo[t]..sym.chunk_hi[t]] {
        // SAFETY: propagated contract.
        unsafe { apply_update(sym, values, d, p, c1, m, accbuf, scratch, false) };
    }
}

/// Folds accumulator `cmb_src[u]` into `cmb_dst[u]` element-wise — one
/// edge of a panel's chunk-reduction tree, shared verbatim by the serial
/// sweep and the DAG. The fold is `dst += 1.0 · src`, which
/// [`BlockedKernel::axpy`] computes exactly (a fused multiply-add by 1.0
/// rounds like a plain add).
///
/// # Safety
///
/// `accs` holds one slot per chunk, as for [`run_chunk_task`]; the caller
/// must guarantee exclusive access to both accumulators of combine `u` and
/// that their previous writers (the chunk tasks, and any earlier combines
/// of the same tree) have run with their writes visible to this thread.
unsafe fn run_combine_task(sym: &Symbolic, accs: &[AccSlot], u: usize) {
    let (dst_t, src_t) = (sym.cmb_dst[u], sym.cmb_src[u]);
    let (len, dst_off, wm) = sym.acc_slice(dst_t);
    let (_, src_off, _) = sym.acc_slice(src_t);
    let base = accs[sym.chk_ptr[sym.chunk_panel[dst_t]]].base(len);
    // SAFETY: distinct chunks own disjoint slices of their panel's buffer,
    // which the panel task frees only after this combine; the contract
    // grants exclusive access to both sides of this combine.
    let dst = unsafe { std::slice::from_raw_parts_mut(base.add(dst_off), wm) };
    let src = unsafe { std::slice::from_raw_parts(base.add(src_off), wm) };
    BlockedKernel.axpy(1.0, src, dst);
}

/// Assembles, updates and factors panel `s` in place (a border panel is
/// left unfactored) — the task body shared verbatim by the serial sweep
/// and the DAG, which is what makes the two paths bitwise identical.
///
/// On a non-positive pivot, returns `Err((row, pivot))` in permuted
/// coordinates.
///
/// # Safety
///
/// `values` must point at the full panel storage laid out by `sym` and
/// `accs` hold one slot per chunk, and the caller must guarantee (a)
/// exclusive access to panel `s` for the duration of the call, (b) that
/// every streamed descendant in `sym.upd[upd_ptr[s]..stream_hi[s]]` is
/// fully factored and (c) that every chunk and combine of `s` has run, all
/// with their writes visible to this thread. The serial sweep satisfies
/// this by running tasks one at a time in schedule order; the parallel
/// path by [`WorkPool::scope_dag_with`]'s dependency edges and its mutex-backed
/// happens-before edge.
unsafe fn run_panel_task(
    sym: &Symbolic,
    pa: Permuted<'_>,
    values: *mut f64,
    accs: &[AccSlot],
    s: usize,
    scratch: &mut PanelScratch,
) -> Result<(), (usize, f64)> {
    let c0 = sym.sn_ptr[s];
    let c1 = sym.sn_ptr[s + 1];
    let w = c1 - c0;
    let rows_s = &sym.rows[sym.row_ptr[s]..sym.row_ptr[s + 1]];
    let m = rows_s.len();
    // SAFETY: exclusive access to panel `s` per the function contract.
    let panel = unsafe { std::slice::from_raw_parts_mut(values.add(sym.val_ptr[s]), w * m) };

    for (i, &r) in rows_s.iter().enumerate() {
        scratch.relmap[r] = i;
    }

    // Scatter A's columns: row c of P·A·Pᵀ (row perm[c] of A, renamed),
    // whose entries at or past the diagonal are, by symmetry, column c of
    // the lower triangle. Each slot is written once.
    for (lc, c) in (c0..c1).enumerate() {
        for (j, v) in pa.row(c).filter(|&(j, _)| j >= c) {
            panel[lc * m + scratch.relmap[j]] = v;
        }
    }

    // Streamed descendant updates, in the precomputed serial-sweep order.
    for &(d, p) in &sym.upd[sym.upd_ptr[s]..sym.stream_hi[s]] {
        // SAFETY: propagated contract (streamed descendants are factored).
        unsafe { apply_update(sym, values, d, p, c1, m, panel, scratch, true) };
    }

    // The chunk accumulators were folded into the first chunk by the
    // panel's combine tree; subtract that root once, then free the
    // panel's buffer. (`-1.0 · acc` is exact, like the combine folds.)
    if sym.chk_ptr[s + 1] > sym.chk_ptr[s] {
        let acc = accs[sym.chk_ptr[s]]
            .take()
            .expect("a panel's chunk tasks allocate its accumulators");
        // SAFETY: every chunk and combine of `s` has run (function
        // contract), so the root accumulator — the buffer's first `w·m`
        // entries — is final, and this task now owns the buffer.
        let accbuf = unsafe { std::slice::from_raw_parts(acc.ptr, w * m) };
        BlockedKernel.axpy(-1.0, accbuf, panel);
    }

    // Dense in-panel column Cholesky (left-looking within the panel). A
    // border panel stays as accumulated: its lower triangle is the Schur
    // complement of the eliminated block.
    if s >= sym.elim_sn {
        return Ok(());
    }
    BlockedKernel
        .factor_panel(panel, m, w)
        .map_err(|(j, pivot)| (c0 + j, pivot))
}

/// A supernodal Cholesky factorization of a symmetric positive definite
/// matrix, stored as dense column panels.
///
/// # Example
///
/// ```
/// use morestress_linalg::{CooMatrix, SupernodalCholesky};
///
/// # fn main() -> Result<(), morestress_linalg::LinalgError> {
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 4.0); coo.push(0, 1, 1.0);
/// coo.push(1, 0, 1.0); coo.push(1, 1, 3.0);
/// let a = coo.to_csr();
/// let chol = SupernodalCholesky::factor(&a)?;
/// let x = chol.solve(&[1.0, 2.0]);
/// assert!(a.residual(&x, &[1.0, 2.0]) < 1e-14);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SupernodalCholesky {
    n: usize,
    perm: Permutation,
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    sn_ptr: Vec<usize>,
    /// Row lists: supernode `s` owns `rows[row_ptr[s]..row_ptr[s+1]]`,
    /// sorted ascending; the first `width(s)` entries are the diagonal
    /// block columns themselves.
    row_ptr: Vec<usize>,
    rows: Vec<usize>,
    /// Dense panels, column-major with leading dimension = panel rows;
    /// supernode `s` owns `values[val_ptr[s]..val_ptr[s+1]]`. One buffer
    /// written in full by the panel tasks, allocated through
    /// [`huge_zeroed`] so a large factor is huge-page advised and faults
    /// in 2 MiB at a time.
    val_ptr: Vec<usize>,
    values: Vec<f64>,
    /// Shape of the factor, taken once the factorization is done.
    stats: SupernodeStats,
    /// Worker slots the numeric phase actually used (1 for the serial
    /// sweep).
    factor_workers: usize,
}

/// Right-hand sides one triangular sweep carries at once: the interleaved
/// block of [`SupernodalCholesky::solve_panel_with`]. Eight columns keep
/// the per-row coefficients of the blocked kernel's four-column chain in
/// registers; wider panels are swept eight columns at a time.
const SWEEP_BLOCK: usize = 8;

impl SupernodalCholesky {
    /// Factors a symmetric positive definite matrix with RCM ordering and
    /// default supernode relaxation.
    ///
    /// Only the lower triangle of `a` is read (the upper triangle is
    /// assumed to mirror it).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if a non-positive pivot
    /// appears; [`LinalgError::DimensionMismatch`] if `a` is not square.
    pub fn factor(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::factor_ordered(a, FillOrdering::Rcm, &SupernodalOptions::default())
    }

    /// Factors under `ordering`, resolved for `a` first — so the factor's
    /// [`stats`](Self::stats) name the ordering that actually ran, not the
    /// request ([`FillOrdering::Auto`] never appears there).
    ///
    /// # Errors
    ///
    /// Same as [`SupernodalCholesky::factor`].
    pub fn factor_ordered(
        a: &CsrMatrix,
        ordering: FillOrdering,
        opts: &SupernodalOptions,
    ) -> Result<Self, LinalgError> {
        let resolved = ordering.resolve(a);
        Ok(Self::factor_with_permutation(a, resolved.permutation(a), opts)?.named(resolved.name()))
    }

    /// This factor reporting `ordering` as the ordering behind it (see
    /// [`SupernodeStats::ordering`]).
    pub(crate) fn named(mut self, ordering: &'static str) -> Self {
        self.stats.ordering = ordering;
        self
    }

    /// Factors with a caller-supplied fill-reducing permutation and
    /// supernode options: the [`factor_bordered`](Self::factor_bordered)
    /// case with an empty border.
    ///
    /// The numeric phase runs as an elimination-tree task DAG on the
    /// current [`WorkPool`] — the serial sweep when the pool cap is 1 —
    /// and the factor is bitwise identical at every pool cap (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Same as [`SupernodalCholesky::factor`].
    ///
    /// # Panics
    ///
    /// Panics if `a` is square and `perm.len() != a.nrows()`.
    pub fn factor_with_permutation(
        a: &CsrMatrix,
        perm: Permutation,
        opts: &SupernodalOptions,
    ) -> Result<Self, LinalgError> {
        assert!(
            a.nrows() != a.ncols() || perm.len() == a.nrows(),
            "supernodal Cholesky: permutation length"
        );
        Self::factor_bordered(a, perm, opts).map(|(factor, _)| factor)
    }

    /// Partial factorization of a *bordered* operator: eliminates the
    /// leading `n_elim = lead.len()` rows and columns of `a` (ordered by
    /// `lead`) and leaves the trailing border `n_elim..n` accumulated but
    /// not factored.
    ///
    /// With `a = [A_ii A_ib; A_bi A_bb]` (leading block `i`, border `b`)
    /// this returns
    ///
    /// * the Cholesky factor of `A_ii` — a solver of dimension `n_elim`
    ///   under permutation `lead`, stored at exact capacity;
    /// * the Schur complement `A_bb − A_bi A_ii⁻¹ A_ib` as a dense
    ///   `(n − n_elim)²` row-major block with both triangles filled, border
    ///   rows in their natural order. When `a` stores no border–border
    ///   entries this is `−A_bi A_ii⁻¹ A_ib`: the condensation of the border
    ///   comes out of the same sweep that factors the leading block.
    ///
    /// The border is never pivoted: `A_bb` and the Schur complement may be
    /// indefinite (or zero); only `A_ii` must be positive definite. The
    /// numeric phase is the full factorization's task DAG with the border
    /// panels as leaves, so the results are bitwise identical at every pool
    /// cap, and `n_elim = n` is exactly
    /// [`factor_with_permutation`](Self::factor_with_permutation).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] if a pivot of the leading block
    /// is non-positive; [`LinalgError::DimensionMismatch`] if `a` is not
    /// square or `lead` is longer than `a`.
    pub fn factor_bordered(
        a: &CsrMatrix,
        lead: Permutation,
        opts: &SupernodalOptions,
    ) -> Result<(Self, Vec<f64>), LinalgError> {
        if a.nrows() != a.ncols() {
            return Err(LinalgError::DimensionMismatch {
                context: "supernodal Cholesky (matrix must be square)",
                expected: a.nrows(),
                found: a.ncols(),
            });
        }
        let n = a.nrows();
        let n_elim = lead.len();
        if n_elim > n {
            return Err(LinalgError::DimensionMismatch {
                context: "bordered supernodal Cholesky (leading block larger than the matrix)",
                expected: n,
                found: n_elim,
            });
        }
        let (perm, inv) = bordered_permutation(&lead, n);
        let pa = Permuted {
            a,
            perm: &perm,
            inv: &inv,
        };
        let mut sym = Symbolic::analyze(pa, n_elim, opts);
        let mut values = huge_zeroed(sym.val_ptr[sym.num_sn()]);
        let factor_workers = Self::factor_numeric(&sym, pa, &mut values)?;
        drop((perm, inv));
        let border = sym.border_block(&values);
        if n_elim < n {
            sym.drop_border(&mut values);
        }

        let stats = SupernodeStats {
            supernodes: sym.sn_ptr.len() - 1,
            max_width: sym.max_width,
            stored_nnz: values.len(),
            true_nnz: sym.true_nnz,
            etree_height: sym.metrics.height,
            critical_path: sym.critical_path as usize,
            total_work: sym.total_work as usize,
            max_subtree_weight: sym.metrics.max_parallel_subtree as usize,
            mean_subtree_weight: sym.metrics.mean_parallel_subtree,
            ordering: "supplied",
        };
        let factor = Self {
            n: n_elim,
            perm: lead,
            sn_ptr: sym.sn_ptr,
            row_ptr: sym.row_ptr,
            rows: sym.rows,
            val_ptr: sym.val_ptr,
            values,
            stats,
            factor_workers,
        };
        Ok((factor, border))
    }

    /// The numeric phase: runs every update-chunk and panel task exactly
    /// once, serially or as a dependency DAG on the current pool. Returns
    /// the worker slots used.
    fn factor_numeric(
        sym: &Symbolic,
        pa: Permuted<'_>,
        values: &mut [f64],
    ) -> Result<usize, LinalgError> {
        let num_sn = sym.num_sn();
        let num_chunks = sym.chunk_panel.len();
        let num_combines = sym.cmb_dst.len();
        // Chunk accumulators, one slot per panel that has chunks (indexed
        // by its first chunk); each fills on first use and empties when
        // its panel has subtracted it.
        let accs: Vec<AccSlot> = (0..num_chunks).map(|_| AccSlot::default()).collect();
        let pool = WorkPool::current();
        // A schedule with (almost) no work off the critical path cannot
        // win — RCM/banded orderings produce pure-chain etrees
        // (`total_work == critical_path`) where the DAG would pay per-task
        // queue traffic for zero overlap. Fall back to the serial sweep;
        // results are bitwise identical either way, and the condition is
        // structural, so it is still pool-cap-invariant.
        let parallel = sym.total_work >= sym.critical_path + sym.critical_path / 4;
        if !parallel || pool.cap() == 1 || num_sn <= 1 {
            let mut scratch = PanelScratch::new(sym.n);
            for s in 0..num_sn {
                // SAFETY: one task at a time in schedule order — every
                // predecessor of each task already ran and nothing aliases
                // its output slice.
                unsafe {
                    for t in sym.chk_ptr[s]..sym.chk_ptr[s + 1] {
                        run_chunk_task(sym, values.as_ptr(), &accs, t, &mut scratch);
                    }
                    for u in sym.cmb_ptr[s]..sym.cmb_ptr[s + 1] {
                        run_combine_task(sym, &accs, u);
                    }
                    run_panel_task(sym, pa, values.as_mut_ptr(), &accs, s, &mut scratch)
                        .map_err(|(row, pivot)| LinalgError::NotPositiveDefinite { row, pivot })?;
                }
            }
            return Ok(1);
        }

        // Task DAG: nodes 0..num_sn are panel tasks, then update chunks,
        // then combine folds. A chunk waits for the descendants it reads;
        // a combine for the last writer of each of its two accumulators;
        // a panel for its streamed descendants and the last writer of its
        // root accumulator (which transitively orders every chunk and
        // combine of its tree before it).
        let mut dag = TaskDag::new(num_sn + num_chunks + num_combines);
        // Last DAG node to have written each chunk accumulator so far —
        // initially the chunk task itself, then the combines that fold
        // into (or read) it, in tree order.
        let mut last_writer: Vec<usize> = (0..num_chunks).map(|t| num_sn + t).collect();
        for t in 0..num_chunks {
            let s = sym.chunk_panel[t];
            for i in sym.chunk_lo[t]..sym.chunk_hi[t] {
                dag.add_dependency(sym.upd[i].0, num_sn + t);
            }
            dag.set_priority(num_sn + t, sym.metrics.subtree_weight[s]);
        }
        for u in 0..num_combines {
            let node = num_sn + num_chunks + u;
            let (d, c) = (sym.cmb_dst[u], sym.cmb_src[u]);
            dag.add_dependency(last_writer[d], node);
            dag.add_dependency(last_writer[c], node);
            last_writer[d] = node;
            dag.set_priority(node, sym.metrics.subtree_weight[sym.chunk_panel[d]]);
        }
        for s in 0..num_sn {
            for i in sym.upd_ptr[s]..sym.stream_hi[s] {
                dag.add_dependency(sym.upd[i].0, s);
            }
            if sym.chk_ptr[s + 1] > sym.chk_ptr[s] {
                dag.add_dependency(last_writer[sym.chk_ptr[s]], s);
            }
            // Heaviest independent subtrees first keeps the tail short.
            dag.set_priority(s, sym.metrics.subtree_weight[s]);
        }
        dag.seal();

        let shared = SharedStorage {
            values: values.as_mut_ptr(),
        };
        let accs = &accs;
        // Capture the `Sync` wrapper, not its raw-pointer fields (edition
        // 2021 closures capture disjoint fields).
        let shared = &shared;
        let failed = AtomicBool::new(false);
        let first_error: Mutex<Option<(usize, f64)>> = Mutex::new(None);
        let workers = pool.scope_dag_with(
            pool.cap(),
            &dag,
            || PanelScratch::new(sym.n),
            |scratch, node| {
                if failed.load(Ordering::Acquire) {
                    // A pivot already failed: let the DAG drain without
                    // doing (now meaningless) numeric work.
                    return;
                }
                if node >= num_sn + num_chunks {
                    // SAFETY: scope_dag_with ordered the last writers of both
                    // accumulators before this combine, with a
                    // happens-before edge; no other live task touches
                    // either slice.
                    unsafe {
                        run_combine_task(sym, accs, node - num_sn - num_chunks);
                    }
                    return;
                }
                if node >= num_sn {
                    // SAFETY: scope_dag_with ordered every descendant this chunk
                    // reads before it, with a happens-before edge; the
                    // accumulator slice is written by exactly this task.
                    unsafe {
                        run_chunk_task(sym, shared.values, accs, node - num_sn, scratch);
                    }
                    return;
                }
                // SAFETY: scope_dag_with ordered the streamed descendants and
                // the combine-tree root of `node` before it, with a
                // happens-before edge; tasks write disjoint panel ranges.
                if let Err((row, pivot)) =
                    unsafe { run_panel_task(sym, pa, shared.values, accs, node, scratch) }
                {
                    failed.store(true, Ordering::Release);
                    let mut slot = first_error.lock().expect("factor error slot poisoned");
                    // Deterministic report: keep the smallest failing row.
                    if slot.is_none_or(|(r, _)| row < r) {
                        *slot = Some((row, pivot));
                    }
                }
            },
        );
        if let Some((row, pivot)) = first_error
            .into_inner()
            .expect("factor error slot poisoned")
        {
            return Err(LinalgError::NotPositiveDefinite { row, pivot });
        }
        Ok(workers)
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored factor entries including relaxation padding (the panel
    /// memory actually allocated).
    pub fn factor_nnz(&self) -> usize {
        self.values.len()
    }

    /// The raw panel storage, exposed for differential tests (the
    /// parallel-vs-serial bitwise proptests compare it directly).
    pub fn factor_values(&self) -> &[f64] {
        &self.values
    }

    /// The layout of [`factor_values`](Self::factor_values): what the
    /// sweep-oracle property test walks. Not a supported API.
    #[doc(hidden)]
    pub fn panel_layout(&self) -> PanelLayout<'_> {
        PanelLayout {
            perm: &self.perm,
            sn_ptr: &self.sn_ptr,
            row_ptr: &self.row_ptr,
            rows: &self.rows,
            val_ptr: &self.val_ptr,
        }
    }

    /// Worker slots the numeric factorization actually used (1 for the
    /// serial sweep or a cap-1 pool). Scheduling-dependent telemetry, like
    /// [`SolveReport::workers`](crate::SolveReport::workers).
    pub fn factor_workers(&self) -> usize {
        self.factor_workers
    }

    /// Shape statistics of the factor.
    pub fn stats(&self) -> SupernodeStats {
        self.stats
    }

    /// Length of the scratch slice [`solve_panel_with`] needs for
    /// `nrhs` right-hand sides: one interleaved block of the whole vector
    /// plus one gather block for the tallest below-diagonal part of a
    /// panel, each as wide as the widest sweep block (`nrhs`, at most 8
    /// columns).
    ///
    /// [`solve_panel_with`]: SupernodalCholesky::solve_panel_with
    pub fn scratch_len(&self, nrhs: usize) -> usize {
        let tallest_below = (0..self.sn_ptr.len() - 1)
            .map(|s| self.row_ptr[s + 1] - self.row_ptr[s] - (self.sn_ptr[s + 1] - self.sn_ptr[s]))
            .max()
            .unwrap_or(0);
        (self.n + tallest_below) * nrhs.min(SWEEP_BLOCK)
    }

    /// Solves `A x = b` by two blocked triangular sweeps: the one-column
    /// case of [`solve_panel`](SupernodalCholesky::solve_panel).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_panel(&mut x, 1);
        x
    }

    /// Solves `A X = B` for a whole panel of right-hand sides in place.
    ///
    /// `rhs` is an `n × nrhs` column-major matrix. The columns are swept
    /// in blocks of up to 8: each block is permuted into an interleaved
    /// scratch (row `i` holds the block's entries side by side), both
    /// triangular sweeps walk the supernodes once for the whole block —
    /// every load of `L` serves every column of it — and the block is
    /// scattered back through the inverse permutation. Per column the
    /// operation chain is that of a one-column sweep, so panel solutions
    /// are bitwise equal to looped [`solve`](SupernodalCholesky::solve)s,
    /// whatever the panel width.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.dim() * nrhs`.
    pub fn solve_panel(&self, rhs: &mut [f64], nrhs: usize) {
        let mut scratch = vec![0.0; self.scratch_len(nrhs)];
        self.solve_panel_with(rhs, nrhs, &mut scratch);
    }

    /// Allocation-free variant of [`SupernodalCholesky::solve_panel`] with
    /// a caller-provided scratch of at least
    /// [`scratch_len(nrhs)`](SupernodalCholesky::scratch_len) entries.
    ///
    /// # Panics
    ///
    /// Panics if `rhs.len() != self.dim() * nrhs` or the scratch is too
    /// short.
    pub fn solve_panel_with(&self, rhs: &mut [f64], nrhs: usize, scratch: &mut [f64]) {
        let n = self.n;
        assert_eq!(rhs.len(), n * nrhs, "supernodal panel solve: rhs size");
        assert!(
            scratch.len() >= self.scratch_len(nrhs),
            "supernodal panel solve: scratch too short"
        );
        if n == 0 {
            return;
        }
        let perm = self.perm.as_slice();
        for block in rhs.chunks_mut(n * SWEEP_BLOCK) {
            let nb = block.len() / n;
            let (x, gather) = scratch.split_at_mut(n * nb);
            // Into the factor basis, interleaved: x[k·nb + c] = B[perm[k], c].
            for (xk, &old) in x.chunks_exact_mut(nb).zip(perm) {
                for (c, v) in xk.iter_mut().enumerate() {
                    *v = block[c * n + old];
                }
            }
            self.sweep(x, nb, gather);
            // Back to the natural basis: B[perm[k], c] = x[k·nb + c].
            for (xk, &old) in x.chunks_exact(nb).zip(perm) {
                for (c, &v) in xk.iter().enumerate() {
                    block[c * n + old] = v;
                }
            }
        }
    }

    /// Forward `L Y = B`, then backward `Lᵀ X = Y`, in place on an
    /// interleaved block `x` of `nb ≤ 8` columns in the factor basis;
    /// `gather` holds the below-diagonal rows of one panel for all `nb`
    /// columns.
    fn sweep(&self, x: &mut [f64], nb: usize, gather: &mut [f64]) {
        let num_sn = self.sn_ptr.len() - 1;
        let panel_of = |s: usize| {
            let c0 = self.sn_ptr[s];
            let w = self.sn_ptr[s + 1] - c0;
            let rows_s = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let panel = &self.values[self.val_ptr[s]..self.val_ptr[s + 1]];
            (c0, w, rows_s.len(), &rows_s[w..], panel)
        };

        for s in 0..num_sn {
            let (c0, w, m, below, panel) = panel_of(s);
            let (head, rest) = x.split_at_mut((c0 + w) * nb);
            let diag = &mut head[c0 * nb..];
            // Dense lower-triangular solve on the diagonal block.
            BlockedKernel.solve_lower(panel, m, w, diag, nb);
            if below.is_empty() {
                continue;
            }
            // Below block: accumulate L₂₁ Y into the gather block, then
            // scatter one nb-wide run per row (every row lies past the
            // diagonal block).
            let acc = &mut gather[..below.len() * nb];
            BlockedKernel.below_accumulate(panel, m, w, diag, acc, nb);
            for (&row, a) in below.iter().zip(acc.chunks_exact(nb)) {
                let dst = &mut rest[(row - c0 - w) * nb..][..nb];
                for (d, &v) in dst.iter_mut().zip(a) {
                    *d -= v;
                }
            }
        }

        for s in (0..num_sn).rev() {
            let (c0, w, m, below, panel) = panel_of(s);
            // Gather the below rows once, contract them against L₂₁ᵀ and
            // finish with the dense transposed diagonal solve.
            let xb = &mut gather[..below.len() * nb];
            for (&row, g) in below.iter().zip(xb.chunks_exact_mut(nb)) {
                g.copy_from_slice(&x[row * nb..(row + 1) * nb]);
            }
            BlockedKernel.solve_lower_transpose(
                panel,
                m,
                w,
                &mut x[c0 * nb..(c0 + w) * nb],
                xb,
                nb,
            );
        }
    }
}

/// How a factor's panels are laid out, borrowed from the factor: what the
/// sweep-oracle property test walks. Not a supported API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct PanelLayout<'a> {
    /// The fill permutation, `perm[new] = old`.
    pub perm: &'a Permutation,
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    pub sn_ptr: &'a [usize],
    /// Supernode `s` owns rows `rows[row_ptr[s]..row_ptr[s+1]]`.
    pub row_ptr: &'a [usize],
    /// Sorted row lists, diagonal block first.
    pub rows: &'a [usize],
    /// Panel `s` is `values[val_ptr[s]..val_ptr[s+1]]`, column-major.
    pub val_ptr: &'a [usize],
}

/// The symbolic analysis of one bordered factorization, field by field:
/// what the symbolic-oracle property test compares against an independent
/// analysis. Not a supported API.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicParts {
    /// Supernode `s` covers permuted columns `sn_ptr[s]..sn_ptr[s+1]`.
    pub sn_ptr: Vec<usize>,
    /// Supernode `s` owns rows `rows[row_ptr[s]..row_ptr[s+1]]`.
    pub row_ptr: Vec<usize>,
    /// Sorted row lists, diagonal block first.
    pub rows: Vec<usize>,
    /// True nonzeros of the leading factor.
    pub true_nnz: usize,
    /// Update schedule: panel `s` applies `upd[upd_ptr[s]..upd_ptr[s+1]]`.
    pub upd_ptr: Vec<usize>,
    /// (descendant, row cursor) pairs in serial-sweep order.
    pub upd: Vec<(usize, usize)>,
    /// End of each panel's streamed prefix of `upd`.
    pub stream_hi: Vec<usize>,
    /// Panel `s` owns chunks `chk_ptr[s]..chk_ptr[s+1]`.
    pub chk_ptr: Vec<usize>,
    /// Chunk `t` covers `upd[chunk_lo[t]..chunk_hi[t]]`.
    pub chunk_lo: Vec<usize>,
    /// See `chunk_lo`.
    pub chunk_hi: Vec<usize>,
}

impl SymbolicParts {
    /// The analysis [`SupernodalCholesky::factor_bordered`] runs on `a`
    /// under `lead`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square or `lead` is longer than `a`.
    pub fn analyze(a: &CsrMatrix, lead: &Permutation, opts: &SupernodalOptions) -> Self {
        assert!(a.nrows() == a.ncols() && lead.len() <= a.nrows());
        let (perm, inv) = bordered_permutation(lead, a.nrows());
        let pa = Permuted {
            a,
            perm: &perm,
            inv: &inv,
        };
        Self::of(&Symbolic::analyze(pa, lead.len(), opts))
    }

    /// The layout and schedule the analysis derives from a given
    /// supernode partition and row lists (each sorted, diagonal block
    /// first) of a factorization eliminating `n_elim` columns.
    pub fn from_rows(
        n_elim: usize,
        sn_ptr: Vec<usize>,
        row_ptr: Vec<usize>,
        rows: Vec<usize>,
        true_nnz: usize,
        opts: &SupernodalOptions,
    ) -> Self {
        Self::of(&Symbolic::from_rows(
            n_elim, sn_ptr, row_ptr, rows, true_nnz, opts,
        ))
    }

    fn of(sym: &Symbolic) -> Self {
        Self {
            sn_ptr: sym.sn_ptr.clone(),
            row_ptr: sym.row_ptr.clone(),
            rows: sym.rows.clone(),
            true_nnz: sym.true_nnz,
            upd_ptr: sym.upd_ptr.clone(),
            upd: sym.upd.clone(),
            stream_hi: sym.stream_hi.clone(),
            chk_ptr: sym.chk_ptr.clone(),
            chunk_lo: sym.chunk_lo.clone(),
            chunk_hi: sym.chunk_hi.clone(),
        }
    }
}

impl MemoryFootprint for SupernodalCholesky {
    fn heap_bytes(&self) -> usize {
        self.sn_ptr.heap_bytes()
            + self.row_ptr.heap_bytes()
            + self.rows.heap_bytes()
            + self.val_ptr.heap_bytes()
            + self.values.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::geometric_dissection;
    use crate::test_operators::{hinted_grid, hinted_lattice, laplacian_2d};
    use crate::CooMatrix;

    /// `a` without the entries among its trailing rows and columns
    /// `n_elim..`: the bordered operator `[A_ii A_ib; A_bi 0]`.
    fn zero_border(a: &CsrMatrix, n_elim: usize) -> CsrMatrix {
        let n = a.nrows();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                if i < n_elim || j < n_elim {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// The leading block `A_ii` of `a` (rows and columns `0..n_elim`).
    fn leading_block(a: &CsrMatrix, n_elim: usize) -> CsrMatrix {
        let map: Vec<Option<usize>> = (0..a.nrows()).map(|i| (i < n_elim).then_some(i)).collect();
        a.extract(&(0..n_elim).collect::<Vec<_>>(), &map, n_elim)
    }

    /// The border block `−A_bi A_ii⁻¹ A_ib` row-major, as `chol` (a factor
    /// of `A_ii`) condenses it one border column at a time.
    fn column_condensation(a: &CsrMatrix, chol: &SupernodalCholesky) -> Vec<f64> {
        let n_elim = chol.dim();
        let w = a.nrows() - n_elim;
        let mut s = vec![0.0; w * w];
        for j in 0..w {
            let col: Vec<f64> = (0..n_elim).map(|i| a.get(i, n_elim + j)).collect();
            let x = chol.solve(&col);
            for i in 0..w {
                let (cols, vals) = a.row(n_elim + i);
                let dot: f64 = cols
                    .iter()
                    .zip(vals)
                    .filter(|(&c, _)| c < n_elim)
                    .map(|(&c, &v)| v * x[c])
                    .sum();
                s[i * w + j] = -dot;
            }
        }
        s
    }

    /// A hinted 4×3-block lattice whose top line of points is the border,
    /// with no border–border entries, and the geometric dissection of the
    /// blocks below it as the leading ordering.
    fn bordered_lattice() -> (CsrMatrix, Permutation) {
        let (a, hint) = hinted_grid(4, 3, 5);
        let n_elim = a.nrows() - (4 * 5 + 1);
        let lead = geometric_dissection(&hint.restricted(&(0..n_elim).collect::<Vec<_>>()));
        (zero_border(&a, n_elim), lead)
    }

    #[test]
    fn parallel_factor_is_bitwise_equal_to_serial() {
        let a = hinted_lattice(4, 3, 5);
        let perm = FillOrdering::Geometric.permutation(&a);
        let (bordered, lead) = bordered_lattice();
        // The dissected lattices have bushy elimination trees, so the task
        // DAG (not the chain fallback) runs at every cap above 1, and a
        // tiny chunk budget forces real update-chunk tasks (and their
        // combine trees) even at this size, so all three task kinds of
        // the DAG are exercised — on the full and on the bordered
        // factorization. The reference is the serial sweep a cap-1 pool
        // runs.
        for chunk_work in [SupernodalOptions::default().chunk_work, 64] {
            let opts = SupernodalOptions {
                chunk_work,
                ..SupernodalOptions::default()
            };
            let (serial, (serial_lead, serial_border)) = WorkPool::new(1).install(|| {
                (
                    SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts).unwrap(),
                    SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts).unwrap(),
                )
            });
            assert_eq!(serial.factor_workers(), 1);
            for stats in [serial.stats(), serial_lead.stats()] {
                assert!(
                    stats.total_work >= stats.critical_path + stats.critical_path / 4,
                    "a chain schedule would never run the DAG: {stats:?}"
                );
            }
            for cap in [2usize, 8] {
                let (parallel, (parallel_lead, parallel_border)) =
                    WorkPool::new(cap).install(|| {
                        (
                            SupernodalCholesky::factor_with_permutation(&a, perm.clone(), &opts)
                                .unwrap(),
                            SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts)
                                .unwrap(),
                        )
                    });
                assert!(parallel.factor_workers() <= cap.max(1));
                let what = format!("cap {cap} (chunk_work {chunk_work})");
                for (serial, parallel) in [
                    (serial.factor_values(), parallel.factor_values()),
                    (serial_lead.factor_values(), parallel_lead.factor_values()),
                    (&serial_border[..], &parallel_border[..]),
                ] {
                    assert_eq!(serial.len(), parallel.len());
                    for (i, (p, q)) in serial.iter().zip(parallel).enumerate() {
                        assert_eq!(p.to_bits(), q.to_bits(), "entry {i} at {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn bordered_factor_condenses_the_border() {
        let (bordered, lead) = bordered_lattice();
        let n_elim = lead.len();
        for opts in [
            SupernodalOptions::default(),
            SupernodalOptions {
                max_width: 3,
                chunk_work: 64,
                ..SupernodalOptions::default()
            },
        ] {
            let (factor, border) =
                SupernodalCholesky::factor_bordered(&bordered, lead.clone(), &opts).unwrap();
            assert_eq!(factor.dim(), n_elim);
            // The border block is the condensation the leading factor's own
            // solves give (the scalar oracle's is pinned in
            // `crates/linalg/tests/proptests.rs`).
            let reference = column_condensation(&bordered, &factor);
            assert_eq!(border.len(), reference.len());
            let scale = reference.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(scale > 0.0);
            for (p, q) in reference.iter().zip(&border) {
                assert!((p - q).abs() <= 1e-12 * scale, "{p} vs {q}");
            }
            // The leading factor solves A_ii on its own, from storage that
            // holds no border row and no slack.
            let a_ii = leading_block(&bordered, n_elim);
            let b: Vec<f64> = (0..n_elim).map(|i| (i % 9) as f64 - 4.0).collect();
            assert!(a_ii.residual(&factor.solve(&b), &b) <= 1e-12);
            assert!(factor.rows.iter().all(|&r| r < n_elim));
            assert_eq!(factor.values.capacity(), factor.values.len());
            assert_eq!(factor.rows.capacity(), factor.rows.len());
            let stats = factor.stats();
            assert!(stats.true_nnz <= stats.stored_nnz);
            // Same fill as factoring A_ii alone under the same ordering.
            let alone =
                SupernodalCholesky::factor_with_permutation(&a_ii, lead.clone(), &opts).unwrap();
            assert_eq!(stats.true_nnz, alone.stats().true_nnz);
        }
    }

    #[test]
    fn bordered_factor_never_pivots_the_border() {
        // [A_ii A_ib; A_bi 0] with an SPD A_ii is indefinite as a whole:
        // the full factorization must reject it, the bordered one must
        // eliminate A_ii and hand back −A_bi A_ii⁻¹ A_ib = −15/11.
        let mut coo = CooMatrix::new(3, 3);
        for (i, j, v) in [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (1, 1, 3.0),
            (0, 2, 1.0),
            (1, 2, 2.0),
        ] {
            coo.push(i, j, v);
            if i != j {
                coo.push(j, i, v);
            }
        }
        let a = coo.to_csr();
        let opts = SupernodalOptions::default();
        for cap in [1usize, 8] {
            WorkPool::new(cap).install(|| {
                assert!(matches!(
                    SupernodalCholesky::factor_with_permutation(
                        &a,
                        Permutation::identity(3),
                        &opts
                    ),
                    Err(LinalgError::NotPositiveDefinite { .. })
                ));
                let (factor, border) =
                    SupernodalCholesky::factor_bordered(&a, Permutation::identity(2), &opts)
                        .unwrap();
                assert_eq!(factor.dim(), 2);
                assert!((border[0] + 15.0 / 11.0).abs() <= 1e-15, "{border:?}");
            });
        }
    }

    #[test]
    fn chain_schedules_fall_back_to_serial() {
        // A tridiagonal operator in natural order has a pure-chain etree:
        // the whole schedule is one critical path, so the DAG would add
        // overhead for zero overlap and the numeric phase must pick the
        // (bitwise-identical) serial sweep even on a big pool.
        let n = 200;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i + 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let chol = WorkPool::new(8).install(|| {
            SupernodalCholesky::factor_with_permutation(
                &a,
                Permutation::identity(n),
                &SupernodalOptions::default(),
            )
            .unwrap()
        });
        let stats = chol.stats();
        assert_eq!(stats.critical_path, stats.total_work, "chain schedule");
        assert_eq!(chol.factor_workers(), 1, "chain must run serially");
    }

    #[test]
    fn etree_stats_are_consistent() {
        let a = laplacian_2d(20, 20);
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let stats = chol.stats();
        assert!(stats.etree_height >= 1);
        assert!(stats.etree_height <= stats.supernodes);
        assert!(stats.critical_path >= 1);
        assert!(
            stats.critical_path <= stats.total_work,
            "span {} cannot exceed total work {}",
            stats.critical_path,
            stats.total_work
        );
        assert!(stats.max_subtree_weight <= stats.total_work);
        assert!(stats.mean_subtree_weight <= stats.max_subtree_weight as f64);
    }

    #[test]
    fn panel_solve_is_bitwise_equal_to_looped_solves() {
        let a = laplacian_2d(8, 8);
        let n = a.nrows();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        // Widths below, at and across the 8-column sweep block, with tails
        // of every width.
        for nrhs in 1..=17 {
            let mut panel = vec![0.0; n * nrhs];
            for r in 0..nrhs {
                for i in 0..n {
                    panel[r * n + i] = ((i * 7 + r * 3) % 13) as f64 - 6.0;
                }
            }
            let singles: Vec<Vec<f64>> = (0..nrhs)
                .map(|r| chol.solve(&panel[r * n..(r + 1) * n]))
                .collect();
            chol.solve_panel(&mut panel, nrhs);
            for r in 0..nrhs {
                for i in 0..n {
                    assert_eq!(
                        panel[r * n + i].to_bits(),
                        singles[r][i].to_bits(),
                        "nrhs {nrhs}: rhs {r} entry {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn supernodes_amalgamate_on_banded_operators() {
        let a = laplacian_2d(20, 20);
        let chol = SupernodalCholesky::factor(&a).unwrap();
        let stats = chol.stats();
        assert!(
            stats.supernodes < a.nrows() / 2,
            "expected real amalgamation, got {} supernodes for {} columns",
            stats.supernodes,
            a.nrows()
        );
        assert!(stats.max_width > 1);
        assert!(stats.stored_nnz >= stats.true_nnz);
        // The padding budget must actually bound the padding.
        assert!(
            (stats.stored_nnz - stats.true_nnz) as f64 <= 0.5 * stats.true_nnz as f64,
            "padding {} vs true {}",
            stats.stored_nnz - stats.true_nnz,
            stats.true_nnz
        );
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        for cap in [1usize, 8] {
            let result = WorkPool::new(cap).install(|| {
                SupernodalCholesky::factor_with_permutation(
                    &a,
                    Permutation::identity(2),
                    &SupernodalOptions::default(),
                )
            });
            assert!(matches!(
                result,
                Err(LinalgError::NotPositiveDefinite { .. })
            ));
        }
    }

    #[test]
    fn dense_spd_is_one_supernode() {
        // A fully dense SPD matrix collapses to a single panel (up to the
        // width cap).
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut v = 0.0;
                for k in 0..n {
                    let mik = ((i * 7 + k * 3) % 5) as f64 - 2.0;
                    let mjk = ((j * 7 + k * 3) % 5) as f64 - 2.0;
                    v += mik * mjk;
                }
                if i == j {
                    v += n as f64;
                }
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let chol = SupernodalCholesky::factor(&a).unwrap();
        assert_eq!(chol.stats().supernodes, 1);
        assert_eq!(chol.stats().etree_height, 1);
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = chol.solve(&b);
        assert!(a.residual(&x, &b) < 1e-12);
    }

    #[test]
    fn empty_and_single_entry_matrices() {
        let empty = CooMatrix::new(0, 0).to_csr();
        let chol = SupernodalCholesky::factor(&empty).unwrap();
        assert_eq!(chol.solve(&[]), Vec::<f64>::new());

        let mut coo = CooMatrix::new(1, 1);
        coo.push(0, 0, 4.0);
        let one = coo.to_csr();
        let chol = SupernodalCholesky::factor(&one).unwrap();
        assert_eq!(chol.solve(&[8.0]), vec![2.0]);
    }
}
