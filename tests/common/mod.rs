//! Per-thread allocation counting for the `*_no_alloc` gates.
//!
//! `mod common;` installs [`CountingAllocator`] as the test binary's
//! global allocator. The counter is thread-local, so the libtest
//! harness's own threads (spawning, result channels, slow-test timers)
//! and tests running in parallel can never bleed allocations into
//! another test's counting window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations per thread.
pub struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations made by the *calling* thread so far.
pub fn allocations_here() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be mid-teardown on exiting threads.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;
