//! The SODA simulator's benchmark: four single-threaded workloads built
//! from the layer crates' public API, their end-to-end metrics, and an
//! outside-in per-layer trace. See `README.md` beside this crate for
//! why each workload exists and how to read the numbers.

pub mod ledger;
pub mod report;
pub mod workload;
