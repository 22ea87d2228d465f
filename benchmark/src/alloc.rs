//! The benchmark's own counting allocator, with an on/off switch.
//!
//! `peak_heap_bytes` is a high-water mark of live heap bytes over one
//! release.  Counting costs two atomic read-modify-writes per
//! allocation, which on the MPC-heavy workloads is a double-digit share
//! of the release time, so the wrapper stays installed for the whole
//! process but only counts inside [`peak_during`]: timed passes pay one
//! relaxed load per allocation and nothing else.
//! `run.alloc_count_overhead_frac` reports the measured cost of the
//! counting arm.
//!
//! The counters are signed and relative to the moment counting started:
//! memory that was live before and is freed while counting drives the
//! live figure negative instead of wrapping, and the reported peak is
//! the extra heap the counted region needed on top of its starting
//! point.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::sync::Mutex;

static COUNTING: AtomicBool = AtomicBool::new(false);
/// Live heap bytes relative to the start of the counted region.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Maximum of [`LIVE`] inside the counted region.
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// The switchable counting wrapper around [`System`].
pub struct CountingAllocator;

impl CountingAllocator {
    #[inline]
    fn on_alloc(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(size as isize, Ordering::Relaxed) + size as isize;
            if live > PEAK.load(Ordering::Relaxed) {
                PEAK.fetch_max(live, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    fn on_dealloc(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(size as isize, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter updates never
// touch the returned pointers or the layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::on_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (that is, from `System`) with this layout.
        unsafe { System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees the (ptr, layout) pair and a
        // valid `new_size`; forwarded verbatim.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        new_ptr
    }
}

/// Serialises counted regions: the counters are process-wide.
static REGION: Mutex<()> = Mutex::new(());

/// Runs `f` with counting switched on and returns its result together
/// with the peak of live heap bytes, above the starting point, that `f`
/// reached on all threads.
pub fn peak_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    // A panic inside a counted region leaves nothing half-updated.
    let _region = REGION.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let result = f();
    COUNTING.store(false, Ordering::SeqCst);
    (result, PEAK.load(Ordering::Relaxed).max(0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_the_region_and_survives_frees_of_older_memory() {
        let older = vec![1u8; 1 << 20];
        let ((), peak) = peak_during(|| {
            let transient = vec![7u8; 4 << 20];
            drop(transient);
            // Allocated before the region, freed inside it: must not wrap.
            drop(older);
        });
        assert!(peak >= 4 << 20, "peak {peak} misses the 4 MiB transient");
        assert!(peak < 1 << 40, "peak {peak} wrapped");

        let _region = REGION.lock().unwrap();
        let ignored = vec![9u8; 8 << 20];
        assert_eq!(
            PEAK.load(Ordering::Relaxed).max(0) as u64,
            peak,
            "allocations made with counting off must not move the peak"
        );
        drop(ignored);
    }
}
