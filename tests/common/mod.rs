//! Per-thread allocation counting for the `*_no_alloc` gates.
//!
//! `mod common;` installs `soda_bench::memtrack::TrackingAllocator` as
//! the test binary's global allocator. Its allocation count is
//! thread-local, so the libtest harness's own threads and tests running
//! in parallel can never bleed allocations into another test's
//! counting window.

pub use soda_bench::memtrack::allocations_here;

#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;
