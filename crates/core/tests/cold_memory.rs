//! What a cold solve's assembly holds, pinned with a counting allocator: no
//! single allocation made while the global stage assembles its reduced
//! system is larger than one of `A_ff`'s index/value arrays — the stage
//! assembles `A_ff` directly, so nothing the size of the *unreduced*
//! operator (5.8× `A_ff` under clamped top/bottom) ever exists. The window
//! covers the assembly alone, so the pin moves with the assembly and not
//! with the factorization's scratch.
//!
//! One test, its own binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use morestress_core::{GlobalBc, GlobalStage, SimulatorBuilder};
use morestress_mesh::{BlockKind, BlockLayout, BlockResolution, TsvGeometry};

/// The system allocator, counting live bytes always and, while the window
/// is open, the largest single request and the live-byte high-water mark.
struct Counting;

static WINDOW_OPEN: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_PEAK: AtomicUsize = AtomicUsize::new(0);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn grew(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    if WINDOW_OPEN.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
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

#[test]
fn cold_assembly_never_holds_an_unreduced_operator() {
    // 8×8 TSVs + one dummy ring, the paper's (4,4,4) interpolation.
    let sim = SimulatorBuilder::new(&TsvGeometry::paper_defaults(15.0))
        .resolution(BlockResolution::coarse())
        .interpolation([4, 4, 4])
        .build_dummy(true)
        .build()
        .expect("models build");
    let stage = GlobalStage::new(sim.tsv_model())
        .with_dummy(sim.dummy_model().expect("dummy model built"))
        .expect("models agree");
    let layout = BlockLayout::uniform(8, 8, BlockKind::Tsv).padded(1);

    let baseline = LIVE.load(Ordering::Relaxed);
    LIVE_PEAK.store(baseline, Ordering::Relaxed);
    WINDOW_OPEN.store(true, Ordering::SeqCst);
    let reduced = stage.assemble(&layout, &GlobalBc::ClampedTopBottom);
    WINDOW_OPEN.store(false, Ordering::SeqCst);

    let nnz = reduced.expect("cold assembly").a_ff.nnz();
    let largest = LARGEST.load(Ordering::Relaxed);
    let rise = LIVE_PEAK.load(Ordering::Relaxed) - baseline;
    // `A_ff`'s column-index and value arrays, 8 B × nnz each, are the
    // largest things the assembly allocates; the unreduced operator's were
    // 5.8× that.
    let bound = 8 * nnz + 8 * nnz / 20;
    assert!(
        largest <= bound,
        "largest single allocation {largest} B exceeds 8 B x nnz {nnz} + 5 % = {bound} B; \
         peak live-heap rise {rise} B"
    );
    println!(
        "cold assembly 10x10: largest allocation {largest} B (bound {bound} B), live-heap rise \
         {rise} B"
    );
}
