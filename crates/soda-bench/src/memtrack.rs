//! The workspace's one counting allocator: process-wide heap high-water
//! tracking for the perf experiments, and per-thread allocation counts
//! for the zero-allocation gates.
//!
//! The xl scale tier budgets *resident memory*, not just wall clock —
//! a dense-arena world that quietly doubled its footprint would pass a
//! wall-only gate. `VmHWM` is the obvious measure but it is quantized
//! to pages, inflated by allocator slack and thread stacks, and
//! unavailable off Linux. This module offers the precise alternative:
//! a counting [`GlobalAlloc`] wrapper that tracks live heap bytes and
//! their high-water mark in two relaxed atomics.
//!
//! Usage, in an `exp_*` binary that wants exact numbers:
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: soda_bench::memtrack::TrackingAllocator =
//!     soda_bench::memtrack::TrackingAllocator;
//!
//! fn main() {}
//! ```
//!
//! then read [`peak_bytes`] after the run, or [`allocations_here`]
//! around a window that must not allocate. Every binary that writes a
//! `BenchRecord` installs it, so `peak_heap_bytes` means the same thing
//! in every record.
//!
//! The byte counters are global to the process (allocation has no
//! useful per-experiment scope); the per-op cost is two relaxed atomic
//! RMWs, noise against `System`'s own bookkeeping. The allocation count
//! is thread-local, so the libtest harness's own threads (spawning,
//! result channels, slow-test timers) and tests running in parallel can
//! never bleed allocations into another test's counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap bytes currently live (allocated minus deallocated).
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`].
static PEAK: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed` and `realloc` calls) made by
    /// this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that maintains [`live_bytes`] /
/// [`peak_bytes`] and [`allocations_here`]. Install with
/// `#[global_allocator]`.
pub struct TrackingAllocator;

fn count_alloc(size: u64) {
    // try_with: TLS may be mid-teardown on exiting threads.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            count_alloc(new_size as u64);
        }
        new_ptr
    }
}

/// Allocations made by the *calling* thread so far (0 unless
/// [`TrackingAllocator`] is the global allocator). A `realloc` counts as
/// one allocation, whether or not it moved the block.
pub fn allocations_here() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Heap bytes live right now (0 unless [`TrackingAllocator`] is the
/// global allocator).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of live heap bytes (0 unless [`TrackingAllocator`]
/// is the global allocator).
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, ordered phases: the counters are process-global, so
    // separate tests would race in the parallel harness. The test
    // binary does NOT install the tracking allocator (the harness
    // allocates on many threads and exact assertions would be racy) —
    // the counters are driven directly instead.
    #[test]
    fn counting_arithmetic() {
        // The counting arithmetic peaks and releases, and the calling
        // thread's allocation count moves once per allocation.
        assert_eq!(peak_bytes(), 0);
        assert_eq!(live_bytes(), 0);
        let before = allocations_here();
        count_alloc(1000);
        assert_eq!(live_bytes(), 1000);
        assert_eq!(peak_bytes(), 1000);
        count_alloc(500);
        assert_eq!(allocations_here(), before + 2);
        assert_eq!(live_bytes(), 1500);
        assert_eq!(peak_bytes(), 1500);
        LIVE.fetch_sub(1500, Ordering::Relaxed);
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 1500, "peak never decreases");
    }
}
