//! # soda-bench
//!
//! The experiment harness: one module per table/figure of the paper plus
//! the extension experiments from DESIGN.md. Each module exposes a
//! `run(...)` returning plain data structs; the `src/bin/exp_*` binaries
//! print them in the paper's layout, and `benches/paper_benches.rs`
//! re-uses the same entry points under criterion.

pub mod experiments;
pub mod fingerprint;
pub mod memtrack;
pub mod report;
pub mod sweep;

pub use report::{emit_bench, emit_json, write_bench_json, write_json, BenchRecord, Table};
pub use sweep::{SweepOutcome, SweepRunner};
