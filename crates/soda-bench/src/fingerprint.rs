//! The run fingerprints every experiment gates on: 64-bit FNV-1a over a
//! world's trajectory or its rendered event log. Two runs that should
//! match compare as one `u64` each, across processes, thread counts and
//! optimisation levels.

use soda_core::world::SodaWorld;
use soda_sim::{fnv1a, FNV_OFFSET};

/// FNV-1a over every completed request's `(service, vsn, issued,
/// completed, dataset)` in completion order, then the drop count.
pub(crate) fn trajectory(w: &SodaWorld) -> u64 {
    let mut fp = FNV_OFFSET;
    for r in &w.completed {
        fp = fnv1a(fp, &r.service.0.to_le_bytes());
        fp = fnv1a(fp, &r.vsn.0.to_le_bytes());
        fp = fnv1a(fp, &r.issued.as_nanos().to_le_bytes());
        fp = fnv1a(fp, &r.completed.as_nanos().to_le_bytes());
        fp = fnv1a(fp, &r.dataset.to_le_bytes());
    }
    fnv1a(fp, &w.dropped.to_le_bytes())
}

/// Drain the world's observability event log and FNV-1a its rendered
/// lines ([`soda_sim::FNV_OFFSET`] when observability is off or nothing
/// was logged).
pub fn event_log(w: &SodaWorld) -> u64 {
    let mut fp = FNV_OFFSET;
    if let Some(drained) = w.obs.drain_events() {
        for ev in &drained.events {
            fp = fnv1a(fp, ev.to_string().as_bytes());
        }
    }
    fp
}
