//! Property tests on the epoch-barrier merge: for randomized cross-cell
//! event schedules — same-tick ties across cells, events landing
//! exactly on an epoch bound, sends at the lookahead edge — every
//! `Parallel(n)` execution must pop the identical `(time, seq)` order
//! the `Serial` oracle does, cell by cell, and no per-cell order may
//! depend on where the epoch barriers fall. The merge's determinism is
//! the entire correctness argument of the parallel engine, so this file
//! attacks exactly that.

use proptest::prelude::*;
use soda::sim::{
    run_cells, CellPort, CellWorld, Engine, EngineKind, HotEvents, SimDuration, SimTime,
};

/// The lookahead every schedule runs under (ns).
const L: u64 = 500;

/// A minimal cell world: a log of `(time, tag, pop_seq)` plus the port.
/// The promise is maintained as the exact minimum of the remaining
/// planned send times, the same discipline the SODA driver uses.
struct Toy {
    port: CellPort<Toy>,
    log: Vec<(u64, u32)>,
    pending_sends: Vec<u64>,
}

impl HotEvents for Toy {
    type Hot = std::convert::Infallible;
}

impl CellWorld for Toy {
    fn port(&mut self) -> &mut CellPort<Toy> {
        &mut self.port
    }
}

impl Toy {
    fn refresh_promise(&mut self) {
        let next = self
            .pending_sends
            .iter()
            .copied()
            .min()
            .map_or(SimTime::MAX, SimTime::from_nanos);
        self.port.set_promise(next);
    }
}

/// One planned local event; optionally it also ships a remote event.
#[derive(Clone, Debug)]
struct Op {
    at: u64,
    tag: u32,
    /// `(raw destination hop, extra delay beyond L)`. The hop is
    /// reduced mod `cells - 1` at send time so it never targets self.
    send: Option<(usize, u64)>,
    /// Delay of a local follow-up (tag + 500) the handler schedules
    /// while it runs, after any barrier that already queued arrivals.
    follow: Option<u64>,
}

/// Build cell `k` with its port declaring `lookahead`. Every send still
/// takes at least `L`; a smaller declared lookahead only narrows the
/// epochs.
fn build_cell(k: usize, cells: usize, lookahead: u64, plan: &[Op]) -> Engine<Toy> {
    let mut port = CellPort::default();
    port.configure(k, cells, SimDuration::from_nanos(lookahead));
    let mut toy = Toy {
        port,
        log: Vec::new(),
        pending_sends: plan
            .iter()
            .filter(|o| o.send.is_some())
            .map(|o| o.at)
            .collect(),
    };
    toy.refresh_promise();
    let mut e = Engine::with_seed(toy, 1 + k as u64);
    for op in plan.iter().cloned() {
        e.schedule_at_as("op", SimTime::from_nanos(op.at), move |w: &mut Toy, ctx| {
            w.log.push((ctx.now().as_nanos(), op.tag));
            if let Some(delay) = op.follow {
                let tag = op.tag + 500;
                ctx.schedule_in(SimDuration::from_nanos(delay), move |w: &mut Toy, ctx| {
                    w.log.push((ctx.now().as_nanos(), tag));
                });
            }
            if let Some((hop, extra)) = op.send {
                let cells = w.port.cells();
                let to = (w.port.cell() + 1 + hop % (cells - 1)) % cells;
                let tag = op.tag + 1_000;
                w.port.send(
                    ctx.now(),
                    to,
                    SimDuration::from_nanos(L + extra),
                    "remote",
                    move |w: &mut Toy, ctx| {
                        w.log.push((ctx.now().as_nanos(), tag));
                    },
                );
                let i = w
                    .pending_sends
                    .iter()
                    .position(|&t| t == op.at)
                    .expect("send was planned");
                w.pending_sends.swap_remove(i);
                w.refresh_promise();
            }
        });
    }
    e
}

fn run_plan(kind: EngineKind, plans: &[Vec<Op>], horizon: u64) -> Vec<Vec<(u64, u32)>> {
    run_plan_at(kind, L, plans, horizon).0
}

/// Run `plans` with every port declaring `lookahead`; returns the
/// per-cell logs and the number of epochs.
fn run_plan_at(
    kind: EngineKind,
    lookahead: u64,
    plans: &[Vec<Op>],
    horizon: u64,
) -> (Vec<Vec<(u64, u32)>>, u64) {
    let cells = plans.len();
    let builders: Vec<_> = plans
        .iter()
        .cloned()
        .map(|plan| move |k: usize| build_cell(k, cells, lookahead, &plan))
        .collect();
    let (logs, stats) = run_cells(
        kind,
        SimDuration::from_nanos(lookahead),
        SimTime::from_nanos(horizon),
        builders,
        |_, e: Engine<Toy>| e.into_state().log,
    );
    (logs, stats.epochs)
}

/// Extra-delay menu: the bare lookahead edge, one tick past it, and
/// the half/full slot widths that land arrivals exactly on later
/// event times and epoch bounds.
const EXTRAS: [u64; 4] = [0, 1, L / 2, L];

proptest! {
    /// The core property: any schedule, any thread count, identical
    /// per-cell pop order. Times come from a deliberately tiny grid
    /// (multiples of L/2) so same-tick collisions across cells and
    /// arrivals landing exactly on an epoch bound are common, not
    /// rare; the horizon cuts mid-schedule so some events stay queued,
    /// exercising the "later events survive" contract.
    #[test]
    fn parallel_pop_order_equals_serial(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..16, any::<bool>(), 0usize..8, 0usize..4),
                0..8,
            ),
            2..5,
        ),
        horizon_slots in 4u64..24
    ) {
        let plans: Vec<Vec<Op>> = raw
            .iter()
            .enumerate()
            .map(|(k, ops)| {
                ops.iter()
                    .enumerate()
                    .map(|(i, &(slot, send, hop, extra))| Op {
                        at: slot * (L / 2),
                        tag: (k * 100 + i) as u32,
                        send: send.then_some((hop, EXTRAS[extra])),
                        follow: None,
                    })
                    .collect()
            })
            .collect();
        let horizon = horizon_slots * (L / 2);
        let serial = run_plan(EngineKind::Serial, &plans, horizon);
        for n in [2, 3, 4] {
            let par = run_plan(EngineKind::Parallel(n), &plans, horizon);
            prop_assert_eq!(
                &par, &serial,
                "Parallel({}) diverged on plans {:?} horizon {}", n, &plans, horizon
            );
        }
    }
}

/// Lookaheads the invariance property declares: epochs one and seven
/// ticks wide, half the delay floor, and the floor itself.
const LOOKAHEADS: [u64; 4] = [1, 7, L / 2, L];

/// Local follow-up menu: none, same instant, and the delays that land a
/// follow-up on later grid points where arrivals also land.
const FOLLOWS: [Option<u64>; 4] = [None, Some(0), Some(L / 2), Some(L)];

proptest! {
    /// No trajectory depends on where the epoch barriers fall. Every
    /// send takes at least `L`, so any declared lookahead up to `L` is
    /// safe, and a smaller one only narrows the epochs. Handlers also
    /// schedule local follow-ups while they run, so some local events
    /// are queued after a barrier has already delivered a same-instant
    /// arrival: a receiver-side sequence number taken at the barrier
    /// would order those two by barrier placement.
    #[test]
    fn trajectories_do_not_depend_on_epoch_width(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                (0u64..16, any::<bool>(), 0usize..8, 0usize..4, 0usize..4),
                0..8,
            ),
            2..5,
        ),
        horizon_slots in 4u64..24
    ) {
        let plans: Vec<Vec<Op>> = raw
            .iter()
            .enumerate()
            .map(|(k, ops)| {
                ops.iter()
                    .enumerate()
                    .map(|(i, &(slot, send, hop, extra, follow))| Op {
                        at: slot * (L / 2),
                        tag: (k * 100 + i) as u32,
                        send: send.then_some((hop, EXTRAS[extra])),
                        follow: FOLLOWS[follow],
                    })
                    .collect()
            })
            .collect();
        let horizon = horizon_slots * (L / 2);
        let (reference, wide) = run_plan_at(EngineKind::Serial, L, &plans, horizon);
        for lookahead in LOOKAHEADS {
            let (logs, epochs) = run_plan_at(EngineKind::Serial, lookahead, &plans, horizon);
            prop_assert_eq!(
                &logs, &reference,
                "lookahead {} ({} epochs vs {}) diverged on plans {:?} horizon {}",
                lookahead, epochs, wide, &plans, horizon
            );
        }
        let (par, _) = run_plan_at(EngineKind::Parallel(3), 7, &plans, horizon);
        prop_assert_eq!(&par, &reference, "Parallel(3) at lookahead 7 diverged");
    }
}

/// Deterministic edge cases the random walk might visit rarely: an
/// arrival landing exactly at the epoch bound min+L, and three cells
/// colliding on one tick with sends at the bare lookahead.
#[test]
fn lookahead_edge_arrivals_merge_deterministically() {
    let plans = vec![
        vec![
            Op {
                at: 0,
                tag: 1,
                send: Some((0, 0)),
                follow: None,
            }, // → cell 1, arrives at exactly L
            Op {
                at: L,
                tag: 2,
                send: None,
                follow: None,
            }, // local tie with the arrival
        ],
        vec![
            Op {
                at: L,
                tag: 101,
                send: Some((0, 0)),
                follow: None,
            }, // → cell 2 at the first bound
        ],
        vec![Op {
            at: L,
            tag: 201,
            send: None,
            follow: None,
        }],
    ];
    let serial = run_plan(EngineKind::Serial, &plans, 10 * L);
    for n in [2, 3] {
        let par = run_plan(EngineKind::Parallel(n), &plans, 10 * L);
        assert_eq!(par, serial, "Parallel({n}) diverged on the lookahead edge");
    }
    // Cell 1: its own event at L, then cell 0's arrival at L (local
    // events were queued first — FIFO tie preserved).
    assert_eq!(serial[1], vec![(L, 101), (L, 1_001)]);
    // Cell 2 receives cell 1's send (made at L) at 2L.
    assert_eq!(serial[2], vec![(L, 201), (2 * L, 1_101)]);
}

/// Same-tick sends from several cells to one destination must merge in
/// `(time, sender cell, sender seq)` order regardless of which worker
/// reported first.
#[test]
fn same_tick_cross_cell_ties_are_ordered_by_sender() {
    let plans = vec![
        vec![Op {
            at: 0,
            tag: 1,
            send: Some((1, 0)),
            follow: None,
        }], // cell 0 → cell 2
        vec![Op {
            at: 0,
            tag: 101,
            send: Some((0, 0)),
            follow: None,
        }], // cell 1 → cell 2
        vec![],
    ];
    let serial = run_plan(EngineKind::Serial, &plans, 10 * L);
    for n in [2, 3] {
        let par = run_plan(EngineKind::Parallel(n), &plans, 10 * L);
        assert_eq!(par, serial, "Parallel({n}) reordered a same-tick tie");
    }
    // Both arrive at L; cell 0's message (lower sender index) first.
    assert_eq!(serial[2], vec![(L, 1_001), (L, 1_101)]);
}
