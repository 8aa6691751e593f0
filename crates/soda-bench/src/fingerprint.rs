//! The run fingerprints every experiment gates on: 64-bit FNV-1a over a
//! world's trajectory or its rendered event log. Two runs that should
//! match compare as one `u64` each, across processes, thread counts and
//! optimisation levels.

use soda_core::world::SodaWorld;

/// FNV-1a 64-bit offset basis: the fingerprint of nothing.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into the running fingerprint `fp`.
pub(crate) fn fnv(mut fp: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        fp ^= u64::from(b);
        fp = fp.wrapping_mul(FNV_PRIME);
    }
    fp
}

/// FNV-1a over every completed request's `(service, vsn, issued,
/// completed, dataset)` in completion order, then the drop count.
pub(crate) fn trajectory(w: &SodaWorld) -> u64 {
    let mut fp = FNV_OFFSET;
    for r in &w.completed {
        fp = fnv(fp, &r.service.0.to_le_bytes());
        fp = fnv(fp, &r.vsn.0.to_le_bytes());
        fp = fnv(fp, &r.issued.as_nanos().to_le_bytes());
        fp = fnv(fp, &r.completed.as_nanos().to_le_bytes());
        fp = fnv(fp, &r.dataset.to_le_bytes());
    }
    fnv(fp, &w.dropped.to_le_bytes())
}

/// Drain the world's observability event log and FNV-1a its rendered
/// lines ([`FNV_OFFSET`] when observability is off or nothing was
/// logged).
pub fn event_log(w: &SodaWorld) -> u64 {
    let mut fp = FNV_OFFSET;
    if let Some(drained) = w.obs.drain_events() {
        for ev in &drained.events {
            fp = fnv(fp, ev.to_string().as_bytes());
        }
    }
    fp
}
