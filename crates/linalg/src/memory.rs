//! Heap accounting, and the allocation of a solve's large buffers.
//!
//! **Accounting.** The paper's Tables 1 and 2 report peak memory usage of
//! each simulator. We account for memory analytically: every major data
//! structure knows the size of its heap allocations, and each pipeline
//! stage reports the sum of the structures that are live simultaneously.
//! This is deterministic and portable; `morestress repro` additionally
//! reports the OS-level `VmHWM` on Linux for a sanity cross-check.
//!
//! **Huge-page-advised buffers.** A cold solve writes ≈ 90 MB of fresh
//! memory at 24×24 blocks (the factor's panels, the pattern of `L`, the
//! reduced operator's CSR arrays). On 4 KiB pages each page costs one
//! minor fault on first touch — ≈ 2 µs apiece on a 2-vCPU x86-64 guest,
//! about a fifth of the op's wall there.
//! [`huge_zeroed`] and [`huge_with_capacity`] allocate a plain `Vec`
//! through the global allocator and, on Linux, advise the kernel to back
//! the buffer's 2 MiB-aligned interior with transparent huge pages
//! before anything is written to it, so the same bytes fault in 512× fewer
//! times. Only buffers of at least [`HUGE_PAGE_MIN_BYTES`] are advised;
//! anywhere else, and wherever the kernel refuses the advice, the buffer
//! is an ordinary `Vec` on ordinary pages. The advice changes how the
//! kernel backs the pages, never their contents, so no result bit depends
//! on it. Use these only for buffers the caller writes in full: a huge
//! page is resident as a whole once any byte of it is touched.
//!
//! This is the workspace's one foreign function; CI's "One advice site"
//! step keeps it that way.

/// The smallest buffer worth advising: below two huge pages the aligned
/// interior is at most one page, and the allocator's own reuse already
/// keeps most such buffers resident.
const HUGE_PAGE_MIN_BYTES: usize = 4 << 20;

/// The transparent huge page size of x86-64 and of 4 KiB-granule AArch64.
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// `len` copies of `T::default()` — zero for every numeric type — in a
/// buffer whose 2 MiB-aligned interior is advised onto transparent huge
/// pages when it spans at least 4 MiB on Linux; elsewhere a plain `Vec`.
/// The allocator's zeroed path is used, so fresh pages are not written
/// before the advice. Meant for buffers the caller writes in full.
pub fn huge_zeroed<T: Copy + Default>(len: usize) -> Vec<T> {
    let v = vec![T::default(); len];
    advise_huge_pages(&v);
    v
}

/// An empty `Vec` with room for `capacity` elements, advised onto
/// transparent huge pages as [`huge_zeroed`]'s buffer is. Meant for
/// buffers the caller fills to capacity.
pub fn huge_with_capacity<T>(capacity: usize) -> Vec<T> {
    let v = Vec::with_capacity(capacity);
    advise_huge_pages(&v);
    v
}

/// The huge-page-aligned interior `(start, len)` of the `bytes` bytes at
/// `addr`, or `None` when the buffer is under [`HUGE_PAGE_MIN_BYTES`] or
/// holds no whole aligned page.
#[cfg_attr(not(target_os = "linux"), allow(dead_code))]
fn advised_range(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    if bytes < HUGE_PAGE_MIN_BYTES {
        return None;
    }
    let start = addr.checked_next_multiple_of(HUGE_PAGE_BYTES)?;
    let end = addr.checked_add(bytes)? / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    (end > start).then(|| (start, end - start))
}

#[cfg(target_os = "linux")]
fn advise_huge_pages<T>(v: &Vec<T>) {
    use std::ffi::{c_int, c_void};
    /// `MADV_HUGEPAGE` from the kernel's `asm-generic/mman-common.h`.
    const MADV_HUGEPAGE: c_int = 14;
    extern "C" {
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
    let bytes = v.capacity() * std::mem::size_of::<T>();
    if let Some((start, len)) = advised_range(v.as_ptr() as usize, bytes) {
        // SAFETY: `[start, start + len)` is page-aligned and lies inside
        // `v`'s live allocation (`advised_range` never leaves the buffer).
        // `MADV_HUGEPAGE` only marks how the kernel may back those pages;
        // it changes no mapping, permission or byte the program can
        // observe. A refusal (`EINVAL` on a kernel without transparent
        // huge pages) leaves the buffer on small pages, so the return
        // value is deliberately ignored.
        let _ = unsafe { madvise(start as *mut c_void, len, MADV_HUGEPAGE) };
    }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge_pages<T>(_: &Vec<T>) {}

/// Types that can report the bytes they currently hold on the heap.
///
/// # Example
///
/// ```
/// use morestress_linalg::{CooMatrix, MemoryFootprint};
///
/// let mut coo = CooMatrix::new(10, 10);
/// coo.push(0, 0, 1.0);
/// let csr = coo.to_csr();
/// assert!(csr.heap_bytes() > 0);
/// ```
pub trait MemoryFootprint {
    /// Number of heap bytes held by this value (capacity, not length).
    fn heap_bytes(&self) -> usize;
}

impl<T> MemoryFootprint for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: MemoryFootprint> MemoryFootprint for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, MemoryFootprint::heap_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_footprint_counts_capacity() {
        let v: Vec<f64> = Vec::with_capacity(100);
        assert_eq!(v.heap_bytes(), 800);
        let none: Option<Vec<f64>> = None;
        assert_eq!(none.heap_bytes(), 0);
    }

    #[test]
    fn advised_range_is_the_aligned_interior() {
        const MIB: usize = 1 << 20;
        // Below the threshold nothing is advised, aligned or not.
        assert_eq!(advised_range(0, HUGE_PAGE_MIN_BYTES - 1), None);
        assert_eq!(advised_range(4 * MIB + 8, 4 * MIB - 8), None);
        // An aligned buffer is advised whole; its tail past the last whole
        // huge page is not.
        assert_eq!(advised_range(2 * MIB, 4 * MIB), Some((2 * MIB, 4 * MIB)));
        assert_eq!(advised_range(2 * MIB, 5 * MIB), Some((2 * MIB, 4 * MIB)));
        // An unaligned buffer loses its head and tail.
        assert_eq!(
            advised_range(2 * MIB + 4096, 4 * MIB),
            Some((4 * MIB, 2 * MIB))
        );
        // An address range that would wrap is never advised.
        assert_eq!(advised_range(usize::MAX - MIB, 4 * MIB), None);
        // Sweep: the range is aligned, inside the buffer, non-empty, and no
        // whole huge page of the buffer is left out of it.
        for addr in (0..6 * MIB).step_by(4096 * 37) {
            for bytes in [4 * MIB, 4 * MIB + 1, 7 * MIB - 3, 16 * MIB + 12_345] {
                let (start, len) = advised_range(addr, bytes).expect("≥ 4 MiB is advised");
                assert_eq!(start % HUGE_PAGE_BYTES, 0);
                assert_eq!(len % HUGE_PAGE_BYTES, 0);
                assert!(len > 0 && start >= addr && start + len <= addr + bytes);
                assert!(start - addr < HUGE_PAGE_BYTES);
                assert!(addr + bytes - (start + len) < HUGE_PAGE_BYTES);
            }
        }
    }

    #[test]
    fn small_buffers_are_plain_vecs() {
        let z: Vec<f64> = huge_zeroed(1000);
        assert!(z.len() == 1000 && z.iter().all(|&x| x.to_bits() == 0));
        let e: Vec<usize> = huge_with_capacity(1000);
        assert!(e.is_empty() && e.capacity() >= 1000);
    }

    /// The kernel records the advice on the mapping: the VMA holding the
    /// interior of a 16 MiB buffer carries `hg` in its `VmFlags`.
    #[cfg(target_os = "linux")]
    #[test]
    fn large_buffer_mapping_is_huge_page_advised() {
        let enabled = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
            .is_ok_and(|mode| !mode.contains("[never]"));
        if !enabled {
            eprintln!("transparent huge pages unavailable or disabled; skipped");
            return;
        }
        for buf in [
            huge_zeroed::<f64>(2 << 20),
            huge_with_capacity::<f64>(2 << 20),
        ] {
            let (start, _) =
                advised_range(buf.as_ptr() as usize, 16 << 20).expect("16 MiB is advised");
            let smaps = std::fs::read_to_string("/proc/self/smaps").expect("smaps readable");
            let (mut in_vma, mut flags) = (false, None);
            for line in smaps.lines() {
                // A VMA header starts with its `lo-hi` address range in hex.
                let range = line.split_whitespace().next().and_then(|r| {
                    let (lo, hi) = r.split_once('-')?;
                    let hex = |x| usize::from_str_radix(x, 16).ok();
                    Some(hex(lo)?..hex(hi)?)
                });
                if let Some(range) = range {
                    in_vma = range.contains(&start);
                } else if let Some(f) = line.strip_prefix("VmFlags:").filter(|_| in_vma) {
                    flags = Some(f.split_whitespace().map(str::to_owned).collect::<Vec<_>>());
                    break;
                }
            }
            let flags = flags.expect("a VMA holds the buffer");
            assert!(flags.iter().any(|f| f == "hg"), "VmFlags {flags:?}");
        }
    }
}
