//! What a factorization holds while it runs, pinned with a counting
//! allocator: the live-heap rise over one supernodal factorization of a
//! hinted lattice (≥ 10 k rows) is at most what the factor keeps, plus its
//! chunk accumulators, plus index structure linear in `n` and in the row
//! lists of `L`. Nothing the size of the operator is allocated on the way:
//! the factorization reads `A` through the permutation instead of building
//! `P·A·Pᵀ` (12 B × nnz + 8 B × (n + 1), which this bound does not fit).
//!
//! `MORESTRESS_SHARDS = 1` pins the monolithic factorization, `K > 1` the
//! bordered factorization of one shard of a `K`-way plan (its interior
//! bordered by the interface DoFs it couples), as the sharded backend runs
//! it; unset, both run. CI runs the binary across
//! `MORESTRESS_THREADS {1, 8} × MORESTRESS_SHARDS {1, 4}`.
//!
//! One test, its own binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use morestress_linalg::{
    geometric_dissection, CooMatrix, CsrMatrix, MemoryFootprint, PartitionHint, Permutation,
    ShardPlan, SupernodalCholesky, SupernodalOptions, SymbolicParts, WorkPool,
};

/// The system allocator, counting live bytes always and, while the window
/// is open, the live-byte high-water mark.
struct Counting;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if WINDOW_OPEN.load(Ordering::Relaxed) {
        LIVE_PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics and touch
// no allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator — i.e. from `System` —
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` as for `dealloc`; `new_size` is the
        // caller's, passed through as is.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Shard counts under test: `MORESTRESS_SHARDS` when set, else 1 and 4.
fn env_shards() -> Vec<usize> {
    match std::env::var("MORESTRESS_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(k) => vec![k],
        None => vec![1, 4],
    }
}

/// A 9-point lattice of `b × b` blocks with `m` cells per block edge and
/// three DoFs per node, every DoF coupled to every DoF of its own and the
/// eight neighboring nodes (27 entries per interior row, the shape of the
/// reduced global operator), diagonally dominant; with the block span of
/// every DoF.
fn lattice(b: usize, m: usize) -> (CsrMatrix, Vec<[usize; 4]>) {
    let side = b * m + 1;
    let span = |c: usize| -> [usize; 2] {
        if c.is_multiple_of(m) {
            [(c / m).saturating_sub(1), (c / m).min(b - 1)]
        } else {
            [c / m, c / m]
        }
    };
    let n = 3 * side * side;
    let mut coo = CooMatrix::new(n, n);
    let mut spans = Vec::with_capacity(n);
    for y in 0..side {
        for x in 0..side {
            let node = y * side + x;
            let mut degree = 0usize;
            for ny in y.saturating_sub(1)..(y + 2).min(side) {
                for nx in x.saturating_sub(1)..(x + 2).min(side) {
                    let other = ny * side + nx;
                    for d in 0..3 {
                        for e in 0..3 {
                            if other != node || d != e {
                                coo.push(3 * node + d, 3 * other + e, -0.1);
                                degree += 1;
                            }
                        }
                    }
                }
            }
            for d in 0..3 {
                coo.push(3 * node + d, 3 * node + d, 1.0 + 0.1 * degree as f64 / 3.0);
                let (sx, sy) = (span(x), span(y));
                spans.push([sx[0], sx[1], sy[0], sy[1]]);
            }
        }
    }
    (coo.to_csr(), spans)
}

/// Shard 0 of a `k`-way plan of `a` bordered by the interface DoFs it
/// couples, `[A_kk A_ks; A_sk 0]`, with the geometric ordering of its
/// interior; for `k = 1` the whole operator and its own ordering.
fn factor_input(
    a: &CsrMatrix,
    spans: &[[usize; 4]],
    grid: [usize; 2],
    k: usize,
) -> (CsrMatrix, Permutation) {
    let hint = PartitionHint::new(grid, spans.to_vec());
    let plan = ShardPlan::build_hinted(a, k, Some(&hint));
    assert_eq!(plan.num_shards(), k, "the lattice splits {k} ways");
    let interior = plan.shard_rows(0);
    let mut local = vec![usize::MAX; a.nrows()];
    for (i, &row) in interior.iter().enumerate() {
        local[row] = i;
    }
    let n_k = interior.len();
    let border: Vec<usize> = plan
        .interface()
        .iter()
        .copied()
        .filter(|&row| a.row(row).0.iter().any(|&c| local[c] < n_k))
        .collect();
    for (q, &row) in border.iter().enumerate() {
        local[row] = n_k + q;
    }
    let n = n_k + border.len();
    let mut coo = CooMatrix::new(n, n);
    for &row in interior.iter().chain(&border) {
        let (cols, vals) = a.row(row);
        for (&c, &v) in cols.iter().zip(vals) {
            if local[c] < n && (local[row] < n_k || local[c] < n_k) {
                coo.push(local[row], local[c], v);
            }
        }
    }
    let lead_spans = interior.iter().map(|&row| spans[row]).collect();
    (
        coo.to_csr(),
        geometric_dissection(&PartitionHint::new(grid, lead_spans)),
    )
}

#[test]
fn factorization_holds_no_copy_of_the_operator() {
    let (b, m) = (6, 10);
    let (a, spans) = lattice(b, m);
    assert!(a.nrows() >= 10_000);
    let opts = SupernodalOptions::default();
    let workers = WorkPool::current().cap();
    for k in env_shards() {
        let (op, lead) = factor_input(&a, &spans, [b, b], k);
        let (n, n_elim) = (op.nrows(), lead.len());
        let parts = SymbolicParts::analyze(&op, &lead, &opts);
        let rows = parts.rows.len();

        let baseline = LIVE.load(Ordering::Relaxed);
        LIVE_PEAK.store(baseline, Ordering::Relaxed);
        WINDOW_OPEN.store(true, Ordering::SeqCst);
        let (factor, border) =
            SupernodalCholesky::factor_bordered(&op, lead, &opts).expect("SPD lattice");
        WINDOW_OPEN.store(false, Ordering::SeqCst);
        let rise = LIVE_PEAK.load(Ordering::Relaxed) - baseline;

        // Panel entries, and each panel's chunk accumulators (one panel-
        // sized slice per chunk).
        let panel = |s: usize| {
            (parts.sn_ptr[s + 1] - parts.sn_ptr[s]) * (parts.row_ptr[s + 1] - parts.row_ptr[s])
        };
        let panel_acc = |s: usize| (parts.chk_ptr[s + 1] - parts.chk_ptr[s]) * panel(s);
        let num_sn = parts.sn_ptr.len() - 1;
        // What the factorization keeps (leading factor and border block)
        // and the border panels it cuts away at the end.
        let kept = factor.heap_bytes() + 8 * border.len();
        let border_panels = 8 * ((0..num_sn).map(panel).sum::<usize>() - factor.factor_nnz());
        // Every chunk accumulator at once bounds what is live at any pool
        // cap; the serial sweep holds one panel's at a time.
        let accumulators = 8 * (0..num_sn).map(panel_acc).sum::<usize>();
        let one_panel = 8 * (0..num_sn).map(panel_acc).max().unwrap_or(0);
        // Index structure: the schedule (at most one update per row-list
        // entry), the whole-operator permutation and inverse of a bordered
        // factor, and one row map per worker.
        let slack = 32 * rows + (16 + 8 * workers) * n;
        let bound = kept + border_panels + accumulators + slack;
        let copy = 12 * op.nnz() + 8 * (n + 1);
        println!(
            "shards {k}, {workers} workers: n {n} (leading {n_elim}), nnz {}, rise {rise} B, \
             bound {bound} B (kept {kept}, border panels {border_panels}, accumulators \
             {accumulators}, largest panel's {one_panel}, slack {slack}); one copy of the \
             operator is {copy} B",
            op.nnz()
        );
        assert!(
            rise <= bound,
            "shards {k}: live-heap rise {rise} B exceeds {bound} B by {} B (one copy of the \
             operator is {copy} B)",
            rise - bound
        );
        if workers == 1 {
            let serial_bound = bound - accumulators + one_panel;
            assert!(
                rise <= serial_bound,
                "shards {k}: the serial sweep's live-heap rise {rise} B exceeds {serial_bound} B \
                 (one panel's accumulators at a time)"
            );
        }
    }
}
