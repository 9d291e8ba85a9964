//! What a local-stage build holds, pinned with a counting allocator: the
//! analytic [`LocalStageStats::peak_bytes`] estimate stays within 10 % of
//! the live-heap rise the build really causes, at the paper's (4,4,4)
//! interpolation (169 right-hand sides through one factor).
//!
//! One test, its own binary: the allocator is process-wide.
//!
//! [`LocalStageStats::peak_bytes`]: morestress_core::LocalStageStats::peak_bytes

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use morestress_core::{InterpolationGrid, LocalStage, LocalStageOptions};
use morestress_fem::MaterialSet;
use morestress_linalg::WorkPool;
use morestress_mesh::{BlockKind, BlockResolution, TsvGeometry};

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

#[test]
fn local_stage_estimate_tracks_its_live_heap() {
    let stage = LocalStage::new(
        &TsvGeometry::paper_defaults(15.0),
        &BlockResolution::coarse(),
        InterpolationGrid::new([4, 4, 4]),
        &MaterialSet::tsv_defaults(),
        BlockKind::Tsv,
    );
    // One worker: the estimate counts one set of per-worker buffers.
    let pool = WorkPool::new(1);

    let baseline = LIVE.load(Ordering::Relaxed);
    LIVE_PEAK.store(baseline, Ordering::Relaxed);
    WINDOW_OPEN.store(true, Ordering::SeqCst);
    let rom = pool.install(|| stage.build(&LocalStageOptions::default()));
    WINDOW_OPEN.store(false, Ordering::SeqCst);

    let estimate = rom.expect("local stage builds").local_stats.peak_bytes;
    let rise = LIVE_PEAK.load(Ordering::Relaxed) - baseline;
    let miss = estimate.abs_diff(rise) as f64 / rise as f64;
    println!("local stage coarse (4,4,4): estimate {estimate} B, live-heap rise {rise} B");
    assert!(
        miss <= 0.10,
        "estimate {estimate} B misses the live-heap rise {rise} B by {:.1} %",
        100.0 * miss
    );
}
