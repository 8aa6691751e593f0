//! The NIC's warm flow path must be allocation-free: once a link's
//! index and the owner's scratch buffer are warm, adding flows,
//! advancing across completion boundaries and draining results via
//! `drain_completed_into` is pure index surgery (heap pushes and pops,
//! set inserts and removes, pushes into retained capacity). Counted with
//! the shared thread-local allocator in `tests/common`, so harness
//! threads can't bleed allocations into a window.

mod common;

use common::allocations_here;
use soda::net::link::{LinkSpec, ProcessorSharingLink};
use soda::sim::{SimDuration, SimTime};

#[test]
fn warm_flow_completion_path_never_allocates() {
    const FLOWS: usize = 1_000;
    let mut link = ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    // Distinct sizes → distinct finish thresholds → one completion per
    // boundary, the worst case for per-event index work.
    for i in 0..FLOWS {
        link.add_flow(10_000 + 64 * i as u64, SimTime::ZERO);
    }
    // Warm the internal completed buffer (its first push would otherwise
    // allocate inside the window — `drain_completed_into` retains its
    // capacity across drains) and give the caller's scratch buffer all
    // the capacity it will need, on purpose, outside the window.
    let mut drained: Vec<_> = Vec::with_capacity(FLOWS + 1);
    link.add_flow(0, SimTime::ZERO);
    link.drain_completed_into(&mut drained);
    drained.clear();

    let before = allocations_here();
    // Event-driven drive: hop boundary to boundary exactly like
    // `pump_nic` does, draining after every advance. Pops from the
    // ordered index, map removals, and pushes into retained capacity —
    // zero allocations.
    while link.active_flows() > 0 {
        let t = link.next_completion().expect("active flows remain");
        link.advance(t);
        link.drain_completed_into(&mut drained);
    }
    // Partial advances (no boundary crossed) on the now-idle link are
    // equally clean.
    let mut now = SimTime::from_secs(10_000);
    for _ in 0..1_000 {
        now += SimDuration::from_micros(7);
        link.advance(now);
        link.drain_completed_into(&mut drained);
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "advance+drain_completed_into must not allocate once warm \
         (got {} allocations over {FLOWS} completions)",
        after - before
    );
    assert_eq!(drained.len(), FLOWS, "every flow completed exactly once");
}

#[test]
fn warm_partial_advance_under_load_never_allocates() {
    // A contended link being nudged forward between boundaries (the
    // common steady state under fan-in load) must not allocate either:
    // it's a single shared-counter update regardless of flow count.
    let mut link = ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    for _ in 0..10_000 {
        link.add_flow(100_000_000, SimTime::ZERO);
    }
    let mut scratch = Vec::with_capacity(16);
    let before = allocations_here();
    let mut now = SimTime::ZERO;
    for _ in 0..10_000 {
        now += SimDuration::from_nanos(311);
        link.advance(now);
        link.drain_completed_into(&mut scratch);
        let _ = link.next_completion();
    }
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "partial advances on a loaded link must not allocate (got {})",
        after - before
    );
    assert!(scratch.is_empty(), "nothing completes this early");
    assert_eq!(link.active_flows(), 10_000);
}

#[test]
fn warm_add_flow_never_allocates() {
    // The active-flow heap and id set keep their capacity when the link
    // drains, so a second busy period of the same size adds its flows
    // without allocating.
    const FLOWS: u64 = 1_000;
    let mut link = ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    let mut drained = Vec::with_capacity(FLOWS as usize);
    let mut busy_period = |link: &mut ProcessorSharingLink, start: SimTime| {
        for i in 0..FLOWS {
            link.add_flow(10_000 + 64 * i, start + SimDuration::from_nanos(i));
        }
        while let Some(t) = link.next_completion() {
            link.advance(t);
            link.drain_completed_into(&mut drained);
        }
        assert_eq!(drained.len(), FLOWS as usize);
        drained.clear();
    };
    busy_period(&mut link, SimTime::ZERO);
    let before = allocations_here();
    busy_period(&mut link, SimTime::from_secs(100));
    let after = allocations_here();
    assert_eq!(
        after - before,
        0,
        "add_flow on a warm link must not allocate (got {} allocations)",
        after - before
    );
}
