//! Conservative epoch-synchronized parallel DES over placement cells.
//!
//! The engine's determinism contract is a `(time, seq)` total order of
//! events over one mutable world — which is exactly why a single run
//! could never be parallelized by threading the engine itself (events
//! are non-`Send` closures over shared state; work-stealing would
//! reorder same-tick handlers). This module parallelizes *around* that
//! contract instead, with the classic conservative-PDES recipe:
//!
//! * **Partitioned state.** The world is split into `C` *cells*, each a
//!   complete, self-contained sub-world owned by exactly one
//!   [`Engine`]: its own timer wheel, its own RNG stream, its own
//!   observability log. Cells share no memory — the only coupling is
//!   explicit messages.
//! * **Lookahead.** Every cross-cell interaction costs at least the
//!   minimum inter-cell latency `L` (the 500 µs `ShardMsg` LAN delay in
//!   the SODA world). A message sent at time `s` cannot take effect
//!   before `s + L`, so each cell can safely run `L` ahead of the
//!   others without ever receiving an event from its past.
//! * **Epoch barriers.** Cells execute in lock-step *epochs*: every
//!   cell runs all its events with `t < E_k`, parks at a barrier, the
//!   buffered cross-cell messages are merged in deterministic
//!   `(time, sender cell, sender seq)` order and handed to their
//!   destination queues, the next bound `E_{k+1}` is derived, and the
//!   cells resume.
//! * **Origin tie keys.** An arrival is queued under its origin key
//!   `1<<63 | sender cell<<40 | sender seq` ([`CellPort::send`]), not
//!   under a receiver sequence number. At one instant every local event
//!   runs first, then the arrivals in merge order. Delivery consumes no
//!   local sequence number, so a cell's local seqs depend only on its
//!   own history — never on thread arrival order and never on where the
//!   epoch barriers fell.
//! * **Promises.** A naive bound (`min next event + L`) would advance
//!   the run only `L` per epoch. Each cell therefore *promises* the
//!   earliest time it may send next ([`CellPort::set_promise`]); bounds
//!   are built from `max(next event, promise) + L`, which lets
//!   compute-heavy stretches between send points run in one epoch.
//!   Promises are an optimization, never a safety argument: the merge
//!   asserts every message lands at or after the bound it was collected
//!   under, so a promise violation aborts the run loudly instead of
//!   silently reordering it.
//! * **Per-cell epoch widths.** Each cell's bound comes from the other
//!   cells' reports only: cell `j` may run to
//!   `min over i ≠ j of max(next_i, promise_i) + L`. Under skewed load
//!   this lets the busy cell drain long quiet stretches of the others in
//!   one epoch instead of one barrier per send stride. Any message from
//!   cell `i` is sent at `s ≥ max(next_i, promise_i)` and lands at
//!   `s + L ≥ bound_j + L = end_j` for every receiver `j ≠ i`, so no
//!   arrival lands in a receiver's past. Because arrivals carry origin
//!   tie keys, the trajectory does not depend on the epoch boundaries at
//!   all: any safe bound (a smaller lookahead, a narrower epoch) yields
//!   the same per-cell event order.
//!
//! Every [`EngineKind`] drives the same epoch loop: `Serial` and
//! `Parallel(1)` on one worker (the caller's thread), `Parallel(n)` on
//! `n`. Serial is the oracle: the differential gates (tier 1 and CI)
//! require `Parallel(n) ≡ Serial` bit-for-bit on trajectory and
//! event-log fingerprints for n ∈ {1, 2, 4, 8}.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use crate::engine::{Ctx, Engine, HotEvents};
use crate::time::{SimDuration, SimTime};

/// How a multi-cell simulation executes: the serial oracle, or `n`
/// worker threads in epoch lock-step. The default is the oracle, and
/// the differential suite holds every other variant bit-identical to it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// One thread runs every cell through the same epoch protocol (the
    /// oracle the parallel gates compare against).
    #[default]
    Serial,
    /// `n` scoped worker threads, cells striped across them.
    /// `Parallel(0)` and `Parallel(1)` both mean one worker thread.
    Parallel(u32),
}

impl EngineKind {
    /// Number of worker threads this kind implies (always at least 1).
    pub fn threads(&self) -> u32 {
        match self {
            EngineKind::Serial => 1,
            EngineKind::Parallel(n) => (*n).max(1),
        }
    }

    /// Stable label for bench records and logs.
    pub fn label(&self) -> String {
        match self {
            EngineKind::Serial => "serial".to_string(),
            EngineKind::Parallel(n) => format!("parallel-{}", (*n).max(1)),
        }
    }
}

/// The epoch runner's one bound policy, kept only as the argument of
/// [`run_cells_with`] so existing callers still compile; new code calls
/// [`run_cells`]. Both go when their last caller does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EpochPolicy {
    /// Per-cell bounds excluding the cell's own report:
    /// `end_j = min over i ≠ j of max(next_i, promise_i) + L`. A cell
    /// whose peers are all quiet (`u64::MAX`) runs straight to the
    /// horizon in one epoch.
    #[default]
    Adaptive,
}

/// The handler type a cross-cell event runs on arrival. Unlike local
/// events it must be `Send`: it is created in the sender's cell and
/// executed in the receiver's.
pub type RemoteFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>) + Send>;

/// One buffered cross-cell event, in flight between epoch barriers.
pub struct RemoteEvent<S: HotEvents> {
    /// Destination cell index.
    pub to: usize,
    /// Absolute delivery time (send time + delay, delay ≥ lookahead).
    pub at: SimTime,
    /// Origin tie key `1<<63 | sender cell<<40 | sender port seq`. It
    /// makes the barrier merge order total, and it is the arrival's
    /// same-instant tie key in the receiver's queue (after every local
    /// sequence number).
    pub key: u64,
    /// Profiling kind tag the event is scheduled under on arrival.
    pub kind: &'static str,
    /// The handler to run in the destination cell.
    pub run: RemoteFn<S>,
}

/// A cell's endpoint of the cross-cell message fabric. Owned by the
/// cell world (via [`CellWorld::port`]); event handlers send through it
/// and the epoch runner drains it at each barrier.
pub struct CellPort<S: HotEvents> {
    cell: usize,
    cells: usize,
    lookahead: SimDuration,
    /// Lower bound on the time of this cell's next `send`;
    /// `SimTime::MAX` means "will never send again". See
    /// [`CellPort::set_promise`].
    promise: SimTime,
    seq: u64,
    outbox: Vec<RemoteEvent<S>>,
    /// Messages sent over the whole run (stat).
    pub sent: u64,
}

impl<S: HotEvents> Default for CellPort<S> {
    /// A port for a world outside any parallel harness: single cell,
    /// promises nothing because it can never send.
    fn default() -> Self {
        CellPort {
            cell: 0,
            cells: 1,
            lookahead: SimDuration::ZERO,
            promise: SimTime::MAX,
            seq: 0,
            outbox: Vec::new(),
            sent: 0,
        }
    }
}

/// Bit width of the port sequence number in a [`RemoteEvent::key`];
/// the sender cell sits above it, below the top bit.
const KEY_SEQ_BITS: u32 = 40;

impl<S: HotEvents> CellPort<S> {
    /// Configure this port as cell `cell` of `cells` with the given
    /// lookahead. Called by the cell builder before the run starts.
    pub fn configure(&mut self, cell: usize, cells: usize, lookahead: SimDuration) {
        let cells = cells.max(1);
        assert!(cell < cells, "cell index out of range");
        assert!(
            cells <= 1 << (63 - KEY_SEQ_BITS),
            "too many cells for the origin tie key"
        );
        self.cell = cell;
        self.cells = cells;
        self.lookahead = lookahead;
    }

    /// This port's cell index.
    pub fn cell(&self) -> usize {
        self.cell
    }

    /// Total cells in the run.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The run's lookahead (minimum cross-cell delay).
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Declare that this cell will not `send` before `at` (use
    /// `SimTime::MAX` for "never again"). The epoch runner uses the
    /// promise to extend epochs past quiet stretches; sending earlier
    /// than promised is a protocol violation the barrier merge detects.
    pub fn set_promise(&mut self, at: SimTime) {
        self.promise = at;
    }

    /// The current promise.
    pub fn promise(&self) -> SimTime {
        self.promise
    }

    /// Send `f` to run in cell `to` at `now + delay`. The delay must
    /// cover the lookahead — that is the entire safety argument of the
    /// conservative scheme — and the send must honor the current
    /// promise. Buffered until the next epoch barrier.
    pub fn send<F>(&mut self, now: SimTime, to: usize, delay: SimDuration, kind: &'static str, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + Send + 'static,
    {
        assert!(to < self.cells, "destination cell out of range");
        assert!(to != self.cell, "cross-cell send to self; schedule locally");
        assert!(
            delay >= self.lookahead,
            "cross-cell delay {delay:?} under the lookahead {:?}",
            self.lookahead
        );
        assert!(
            self.promise <= now,
            "send at {now:?} breaks the cell's promise ({:?})",
            self.promise
        );
        self.seq += 1;
        assert!(
            self.seq < 1 << KEY_SEQ_BITS,
            "port sequence overflows the origin tie key"
        );
        self.sent += 1;
        self.outbox.push(RemoteEvent {
            to,
            at: now + delay,
            key: 1 << 63 | (self.cell as u64) << KEY_SEQ_BITS | self.seq,
            kind,
            run: Box::new(f),
        });
    }
}

/// A world that can participate in a multi-cell run: it owns a
/// [`CellPort`] the epoch runner drains at barriers.
pub trait CellWorld: HotEvents {
    /// The world's cross-cell port.
    fn port(&mut self) -> &mut CellPort<Self>;
}

/// Aggregate statistics of one epoch-synchronized run.
#[derive(Clone, Debug, Default)]
pub struct EpochStats {
    /// Worker threads the run used.
    pub threads: u32,
    /// Epoch barriers crossed.
    pub epochs: u64,
    /// Total wall-clock all workers spent parked at barriers, seconds.
    /// An idle-worker measure: at perfect balance it approaches the
    /// merge cost alone.
    pub barrier_wait_secs: f64,
    /// Barrier wait split by worker (index = worker; cell `k` runs on
    /// worker `k % threads`). Sums to `barrier_wait_secs`, and shows
    /// *who* is idling.
    pub barrier_wait_by_worker: Vec<f64>,
    /// Cross-cell events delivered.
    pub remote_msgs: u64,
}

/// Sentinel epoch bound meaning "run is over".
const DONE: u64 = u64::MAX;

/// Everything the workers share. `S` never crosses threads — only
/// `RemoteEvent<S>` does, and it is `Send` for any `S` because its
/// payload closure is `Send` by construction.
struct Coord<S: HotEvents> {
    barrier: Barrier,
    /// Run-over control word: [`DONE`] once finished, otherwise the
    /// minimum of this epoch's per-cell bounds (informational).
    epoch_end: AtomicU64,
    /// Per-cell execution bounds in nanoseconds, written by the leader
    /// each merge.
    ends: Vec<AtomicU64>,
    /// Outbox drain target: `(from cell, event)` pairs, collected in
    /// nondeterministic thread order and sorted by the leader.
    msgs: Mutex<Vec<(usize, RemoteEvent<S>)>>,
    /// Per-cell `(next event time, promise)` in nanoseconds, reported
    /// each epoch (`u64::MAX` = none / never).
    reports: Mutex<Vec<(u64, u64)>>,
    /// Per-cell delivery queues the leader fills in merge order.
    inboxes: Mutex<Vec<Vec<RemoteEvent<S>>>>,
    /// First protocol violation or worker panic, if any.
    fail: Mutex<Option<String>>,
    epochs: AtomicU64,
    /// Barrier park time per worker, nanoseconds.
    barrier_ns: Vec<AtomicU64>,
    delivered: AtomicU64,
}

/// Run `builders.len()` cells to `horizon` under `kind`, then reduce
/// each cell's engine with `finish`. Returns the per-cell results (cell
/// order) and the run's epoch statistics.
///
/// Each builder constructs its cell's engine *on the worker thread that
/// will own it* — engines never cross threads — so builders must be
/// `Send` and should capture only plain configuration. The built
/// world's port must already be configured as `(cell, cells,
/// lookahead)` (see [`CellPort::configure`]).
///
/// Semantics are those of `Engine::run_until(horizon)` per cell: every
/// event with `t <= horizon` executes, later events stay queued, and
/// each clock ends at `horizon`. A cell that calls
/// `Ctx::request_stop` freezes for the remainder of the run.
pub fn run_cells<S, R, B, F>(
    kind: EngineKind,
    lookahead: SimDuration,
    horizon: SimTime,
    builders: Vec<B>,
    finish: F,
) -> (Vec<R>, EpochStats)
where
    S: CellWorld + 'static,
    R: Send,
    B: FnOnce(usize) -> Engine<S> + Send,
    F: Fn(usize, Engine<S>) -> R + Sync,
{
    let cells = builders.len();
    assert!(cells > 0, "run_cells needs at least one cell");
    assert!(
        !lookahead.is_zero() || cells == 1,
        "multi-cell runs need a positive lookahead"
    );
    let threads = (kind.threads() as usize).min(cells);

    let coord = Coord::<S> {
        barrier: Barrier::new(threads),
        epoch_end: AtomicU64::new(0),
        ends: (0..cells).map(|_| AtomicU64::new(0)).collect(),
        msgs: Mutex::new(Vec::new()),
        reports: Mutex::new(vec![(u64::MAX, u64::MAX); cells]),
        inboxes: Mutex::new((0..cells).map(|_| Vec::new()).collect()),
        fail: Mutex::new(None),
        epochs: AtomicU64::new(0),
        barrier_ns: (0..threads).map(|_| AtomicU64::new(0)).collect(),
        delivered: AtomicU64::new(0),
    };
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..cells).map(|_| None).collect());

    // Stripe cells across workers: cell k runs on worker k % threads.
    let mut work: Vec<Vec<(usize, B)>> = (0..threads).map(|_| Vec::new()).collect();
    for (k, b) in builders.into_iter().enumerate() {
        work[k % threads].push((k, b));
    }

    // Worker 0 (the leader) runs on the caller's thread; one worker
    // means no thread is spawned at all.
    std::thread::scope(|scope| {
        let others = work.split_off(1);
        for (w, mine) in others.into_iter().enumerate() {
            let (coord, finish, results) = (&coord, &finish, &results);
            scope.spawn(move || {
                worker(
                    w + 1,
                    mine,
                    cells,
                    lookahead,
                    horizon,
                    coord,
                    finish,
                    results,
                );
            });
        }
        let mine = work.pop().expect("leader's share");
        worker(
            0, mine, cells, lookahead, horizon, &coord, &finish, &results,
        );
    });

    if let Some(msg) = coord.fail.lock().expect("fail lock").take() {
        panic!("parallel run failed: {msg}");
    }
    let out: Vec<R> = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .enumerate()
        .map(|(k, r)| r.unwrap_or_else(|| panic!("cell {k} produced no result")))
        .collect();
    let by_worker: Vec<f64> = coord
        .barrier_ns
        .iter()
        .map(|ns| ns.load(Ordering::Relaxed) as f64 / 1e9)
        .collect();
    let stats = EpochStats {
        threads: threads as u32,
        epochs: coord.epochs.load(Ordering::Relaxed),
        barrier_wait_secs: by_worker.iter().sum(),
        barrier_wait_by_worker: by_worker,
        remote_msgs: coord.delivered.load(Ordering::Relaxed),
    };
    (out, stats)
}

/// [`run_cells`] under its one [`EpochPolicy`]; a forwarder kept for
/// existing callers.
pub fn run_cells_with<S, R, B, F>(
    kind: EngineKind,
    _policy: EpochPolicy,
    lookahead: SimDuration,
    horizon: SimTime,
    builders: Vec<B>,
    finish: F,
) -> (Vec<R>, EpochStats)
where
    S: CellWorld + 'static,
    R: Send,
    B: FnOnce(usize) -> Engine<S> + Send,
    F: Fn(usize, Engine<S>) -> R + Sync,
{
    run_cells(kind, lookahead, horizon, builders, finish)
}

/// Record a failure (first one wins) without unwinding across the
/// barrier protocol.
fn record_fail<S: HotEvents>(coord: &Coord<S>, msg: String) {
    let mut fail = coord.fail.lock().expect("fail lock");
    fail.get_or_insert(msg);
}

fn describe_panic(e: Box<dyn std::any::Any + Send>) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// One worker's whole life: build owned cells, follow the epoch
/// protocol until the leader declares the run over, then finish each
/// cell. Worker 0 doubles as the *leader*: between the two barriers of
/// an epoch it alone merges messages and derives the next bound, so the
/// merge is single-threaded and deterministic by construction.
#[allow(clippy::too_many_arguments)]
fn worker<S, R, B, F>(
    me: usize,
    mine: Vec<(usize, B)>,
    cells: usize,
    lookahead: SimDuration,
    horizon: SimTime,
    coord: &Coord<S>,
    finish: &F,
    results: &Mutex<Vec<Option<R>>>,
) where
    S: CellWorld + 'static,
    R: Send,
    B: FnOnce(usize) -> Engine<S> + Send,
    F: Fn(usize, Engine<S>) -> R + Sync,
{
    // Execution bound covering the inclusive `run_until(horizon)`
    // semantics: `run_events_before(horizon + 1 ns)` executes events at
    // exactly `horizon` and leaves later ones queued.
    let hplus = SimTime::from_nanos(horizon.as_nanos().saturating_add(1));

    // Build the cells this worker owns. A panicking builder must not
    // strand the other workers at the barrier, so it is caught, the
    // run is flagged, and this worker keeps the protocol alive with an
    // empty cell set until the leader shuts the run down.
    let mut engines: Vec<(usize, Engine<S>)> = Vec::with_capacity(mine.len());
    for (k, build) in mine {
        match panic::catch_unwind(AssertUnwindSafe(|| build(k))) {
            Ok(mut e) => {
                let port = e.state_mut().port();
                assert_eq!(port.cell(), k, "cell built with the wrong port index");
                assert_eq!(port.cells(), cells, "cell built with the wrong cell count");
                assert_eq!(
                    port.lookahead(),
                    lookahead,
                    "cell built with the wrong lookahead"
                );
                engines.push((k, e));
            }
            Err(e) => record_fail(
                coord,
                format!("cell {k} builder panicked: {}", describe_panic(e)),
            ),
        }
    }

    // The per-cell bounds the previous run phase executed under (0
    // before the first): newly collected messages must land at or
    // after the *receiver's* previous bound, and the leader checks
    // exactly that before merging. Leader-local — only worker 0 reads
    // it.
    let mut prev_ends = vec![0u64; cells];
    loop {
        // -- report: drain outboxes, publish next-event + promise.
        {
            let mut msgs = coord.msgs.lock().expect("msgs lock");
            let mut reports = coord.reports.lock().expect("reports lock");
            for (k, e) in &mut engines {
                let port = e.state_mut().port();
                let promise = port.promise().as_nanos();
                for ev in port.outbox.drain(..) {
                    msgs.push((*k, ev));
                }
                let next = if e.is_stopped() {
                    u64::MAX
                } else {
                    e.peek_time().map_or(u64::MAX, |t| t.as_nanos())
                };
                reports[*k] = (next, promise);
            }
        }
        barrier_wait(coord, me);

        // -- merge (leader only): deterministic order, next bound(s).
        if me == 0 {
            let failed = coord.fail.lock().expect("fail lock").is_some();
            let mut msgs = std::mem::take(&mut *coord.msgs.lock().expect("msgs lock"));
            let mut reports = coord.reports.lock().expect("reports lock");
            // Total, thread-order-independent merge order: the origin
            // key sorts by sender cell, then sender seq.
            msgs.sort_by_key(|(_, ev)| (ev.at, ev.key));
            for (from, ev) in &msgs {
                if ev.at.as_nanos() < prev_ends[ev.to] {
                    record_fail(
                        coord,
                        format!(
                            "cell {from} message for cell {} at {:?} lands before the \
                             receiver's epoch bound {:?} — promise/lookahead discipline \
                             broken",
                            ev.to,
                            ev.at,
                            SimTime::from_nanos(prev_ends[ev.to])
                        ),
                    );
                }
                let (next, _) = reports[ev.to];
                reports[ev.to].0 = next.min(ev.at.as_nanos());
            }
            let global_min = reports
                .iter()
                .map(|&(next, _)| next)
                .min()
                .unwrap_or(u64::MAX);
            let run_failed = failed || coord.fail.lock().expect("fail lock").is_some();
            if run_failed || global_min > horizon.as_nanos() {
                coord.epoch_end.store(DONE, Ordering::SeqCst);
            } else {
                coord.epochs.fetch_add(1, Ordering::Relaxed);
                // `max(next, promise)`: a cell sends no earlier than
                // its promise, and cannot send at all without an event
                // to run.
                let cap = |bound: u64| {
                    bound
                        .saturating_add(lookahead.as_nanos())
                        .min(hplus.as_nanos())
                };
                // Cell j's bound comes from its peers only: a message
                // into j is sent by some i ≠ j at
                // `s ≥ max(next_i, promise_i) ≥ bound_j`, so it lands at
                // `s + L ≥ end_j`. j's own report never constrains j.
                let mut min_end = u64::MAX;
                for (j, slot) in coord.ends.iter().enumerate() {
                    let bound = reports
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != j)
                        .map(|(_, &(next, promise))| next.max(promise))
                        .min()
                        .unwrap_or(u64::MAX);
                    let end = cap(bound);
                    slot.store(end, Ordering::SeqCst);
                    prev_ends[j] = end;
                    min_end = min_end.min(end);
                }
                coord.epoch_end.store(min_end, Ordering::SeqCst);
            }
            if !msgs.is_empty() {
                coord
                    .delivered
                    .fetch_add(msgs.len() as u64, Ordering::Relaxed);
                let mut inboxes = coord.inboxes.lock().expect("inboxes lock");
                for (_, ev) in msgs {
                    inboxes[ev.to].push(ev);
                }
            }
        }
        barrier_wait(coord, me);

        // -- deliver: queue merged messages under their origin keys.
        // Also done when the run is over, so terminal state matches
        // the serial engine's "later events stay queued".
        {
            let mut inboxes = coord.inboxes.lock().expect("inboxes lock");
            for (k, e) in &mut engines {
                for ev in std::mem::take(&mut inboxes[*k]) {
                    e.schedule_keyed_as(ev.kind, ev.at, ev.key, ev.run);
                }
            }
        }
        if coord.epoch_end.load(Ordering::SeqCst) == DONE {
            break;
        }

        // -- run: execute the epoch `[.., ends[k])` on every owned
        // cell, each under its own bound.
        for (k, e) in &mut engines {
            let bound = SimTime::from_nanos(coord.ends[*k].load(Ordering::SeqCst));
            if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| e.run_events_before(bound))) {
                record_fail(coord, format!("cell {k} panicked: {}", describe_panic(p)));
            }
        }
    }

    if coord.fail.lock().expect("fail lock").is_none() {
        let mut out = Vec::with_capacity(engines.len());
        for (k, mut e) in engines {
            e.run_until(horizon);
            out.push((k, finish(k, e)));
        }
        let mut results = results.lock().expect("results lock");
        for (k, r) in out {
            results[k] = Some(r);
        }
    }
}

fn barrier_wait<S: HotEvents>(coord: &Coord<S>, me: usize) {
    let t0 = Instant::now();
    coord.barrier.wait();
    coord.barrier_ns[me].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal cell world: logs `(time ns, tag)` and can send tagged
    /// remote events. Promises are maintained as the exact minimum of
    /// the remaining planned send times.
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

    const L: SimDuration = SimDuration::from_nanos(500);

    /// Plan: per cell, local events at fixed times; some also send a
    /// remote event (tag + 100) to another cell after `delay`.
    #[derive(Clone)]
    struct Op {
        at: u64,
        tag: u32,
        send: Option<(usize, u64)>, // (to, delay ns)
    }

    fn build_cell(k: usize, cells: usize, plan: &[Op]) -> Engine<Toy> {
        let mut port = CellPort::default();
        port.configure(k, cells, L);
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
        let mut e = Engine::with_seed(toy, 7 + k as u64);
        for op in plan.iter().cloned() {
            e.schedule_at_as("op", SimTime::from_nanos(op.at), move |w: &mut Toy, ctx| {
                w.log.push((ctx.now().as_nanos(), op.tag));
                if let Some((to, delay)) = op.send {
                    let tag = op.tag + 100;
                    w.port.send(
                        ctx.now(),
                        to,
                        SimDuration::from_nanos(delay),
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

    fn run_plan(
        kind: EngineKind,
        plans: &[Vec<Op>],
        horizon: u64,
    ) -> (Vec<Vec<(u64, u32)>>, EpochStats) {
        let cells = plans.len();
        let builders: Vec<_> = plans
            .iter()
            .cloned()
            .map(|plan| move |k: usize| build_cell(k, cells, &plan))
            .collect();
        let (logs, stats) = run_cells(
            kind,
            L,
            SimTime::from_nanos(horizon),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
        (logs, stats)
    }

    fn two_cell_plan() -> Vec<Vec<Op>> {
        vec![
            vec![
                Op {
                    at: 100,
                    tag: 1,
                    send: Some((1, 500)),
                }, // lands exactly at 600: barrier edge
                Op {
                    at: 600,
                    tag: 2,
                    send: None,
                },
                Op {
                    at: 2_000,
                    tag: 3,
                    send: Some((1, 700)),
                },
            ],
            vec![
                Op {
                    at: 600,
                    tag: 11,
                    send: None,
                }, // ties with the arriving remote at 600
                Op {
                    at: 2_500,
                    tag: 12,
                    send: Some((0, 500)),
                },
            ],
        ]
    }

    #[test]
    fn serial_and_parallel_agree_on_a_cross_cell_schedule() {
        let plans = two_cell_plan();
        let (serial, sstats) = run_plan(EngineKind::Serial, &plans, 10_000);
        assert_eq!(sstats.threads, 1);
        for n in [1, 2, 4] {
            let (par, pstats) = run_plan(EngineKind::Parallel(n), &plans, 10_000);
            assert_eq!(par, serial, "Parallel({n}) diverged from Serial");
            assert_eq!(pstats.threads, n.min(2));
            assert_eq!(pstats.remote_msgs, 3);
        }
        // Cell 1: local tag 11 was queued before the remote (tag 101)
        // arriving at the same tick — merge order must preserve that
        // FIFO tie exactly as the serial oracle does.
        assert_eq!(
            serial[1],
            vec![(600, 11), (600, 101), (2_500, 12), (2_700, 103)]
        );
        assert_eq!(
            serial[0],
            vec![(100, 1), (600, 2), (2_000, 3), (3_000, 112)]
        );
    }

    #[test]
    fn solo_cell_runs_without_lookahead() {
        let plans = [vec![
            Op {
                at: 10,
                tag: 1,
                send: None,
            },
            Op {
                at: 20,
                tag: 2,
                send: None,
            },
        ]];
        let cells = plans.len();
        let builders: Vec<_> = plans
            .iter()
            .cloned()
            .map(|plan| {
                move |k: usize| {
                    let mut e = build_cell(k, cells, &plan);
                    e.state_mut().port.configure(0, 1, SimDuration::ZERO);
                    e
                }
            })
            .collect();
        let (logs, stats) = run_cells(
            EngineKind::Serial,
            SimDuration::ZERO,
            SimTime::from_nanos(100),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
        assert_eq!(logs[0], vec![(10, 1), (20, 2)]);
        assert_eq!(stats.remote_msgs, 0);
    }

    #[test]
    fn events_after_horizon_stay_queued() {
        let plans = [
            vec![
                Op {
                    at: 100,
                    tag: 1,
                    send: None,
                },
                Op {
                    at: 9_000,
                    tag: 2,
                    send: None,
                },
            ],
            vec![Op {
                at: 200,
                tag: 11,
                send: None,
            }],
        ];
        let cells = plans.len();
        let builders: Vec<_> = plans
            .iter()
            .cloned()
            .map(|plan| move |k: usize| build_cell(k, cells, &plan))
            .collect();
        let (out, _) = run_cells(
            EngineKind::Parallel(2),
            L,
            SimTime::from_nanos(5_000),
            builders,
            |_, e: Engine<Toy>| (e.now(), e.events_pending(), e.into_state().log),
        );
        assert_eq!(
            out[0].0,
            SimTime::from_nanos(5_000),
            "clock advances to horizon"
        );
        assert_eq!(out[0].1, 1, "the t=9000 event stays queued");
        assert_eq!(out[0].2, vec![(100, 1)]);
        assert_eq!(out[1].2, vec![(200, 11)]);
    }

    #[test]
    #[should_panic(expected = "under the lookahead")]
    fn sends_under_the_lookahead_are_rejected() {
        let mut port: CellPort<Toy> = CellPort::default();
        port.configure(0, 2, L);
        port.set_promise(SimTime::ZERO);
        port.send(
            SimTime::from_nanos(10),
            1,
            SimDuration::from_nanos(100),
            "x",
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "breaks the cell's promise")]
    fn sends_before_the_promise_are_rejected() {
        let mut port: CellPort<Toy> = CellPort::default();
        port.configure(0, 2, L);
        port.set_promise(SimTime::from_nanos(5_000));
        port.send(SimTime::from_nanos(10), 1, L, "x", |_, _| {});
    }

    #[test]
    #[should_panic(expected = "parallel run failed")]
    fn builder_panics_surface_without_deadlocking() {
        let builders: Vec<Box<dyn FnOnce(usize) -> Engine<Toy> + Send>> = vec![
            Box::new(|k| build_cell(k, 2, &[])),
            Box::new(|_| panic!("boom")),
        ];
        let _ = run_cells(
            EngineKind::Parallel(2),
            L,
            SimTime::from_nanos(100),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
    }

    #[test]
    #[should_panic(expected = "parallel run failed")]
    fn handler_panics_surface_without_deadlocking() {
        let cells = 2;
        let builders: Vec<Box<dyn FnOnce(usize) -> Engine<Toy> + Send>> = vec![
            Box::new(move |k| {
                let mut e = build_cell(k, cells, &[]);
                e.schedule_at(SimTime::from_nanos(10), |_: &mut Toy, _| panic!("kaboom"));
                e
            }),
            Box::new(move |k| build_cell(k, cells, &[])),
        ];
        let _ = run_cells(
            EngineKind::Parallel(2),
            L,
            SimTime::from_nanos(100),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
    }

    #[test]
    fn adaptive_parallel_agrees_with_the_adaptive_serial_oracle() {
        let plans = two_cell_plan();
        let (serial, sstats) = run_plan(EngineKind::Serial, &plans, 10_000);
        for n in [1, 2, 4] {
            let (par, pstats) = run_plan(EngineKind::Parallel(n), &plans, 10_000);
            assert_eq!(par, serial, "Parallel({n}) diverged from Serial");
            assert_eq!(
                pstats.epochs, sstats.epochs,
                "the epoch schedule does not depend on the thread count"
            );
            assert_eq!(pstats.remote_msgs, 3);
        }
    }

    /// An arrival queued at a barrier and a local event scheduled later
    /// for the same instant: the local one runs first, because the
    /// arrival's origin key sorts after every local sequence number. A
    /// receiver sequence number taken at the barrier would run the
    /// arrival first, and only when the barrier fell before the local
    /// schedule — the order would depend on the epoch width.
    #[test]
    fn local_events_precede_same_instant_arrivals() {
        let plans = [
            vec![Op {
                at: 0,
                tag: 1,
                send: Some((1, 1_000)),
            }], // lands in cell 1 at 1_000
            vec![Op {
                at: 900,
                tag: 11,
                send: None,
            }],
        ];
        let cells = plans.len();
        let builders: Vec<_> = plans
            .iter()
            .cloned()
            .map(|plan| {
                move |k: usize| {
                    let mut e = build_cell(k, cells, &plan);
                    if k == 1 {
                        // At 900, schedule a local event for 1_000.
                        e.schedule_at(SimTime::from_nanos(900), |_: &mut Toy, ctx| {
                            ctx.schedule_at(SimTime::from_nanos(1_000), |w: &mut Toy, ctx| {
                                w.log.push((ctx.now().as_nanos(), 12));
                            });
                        });
                    }
                    e
                }
            })
            .collect();
        let (logs, stats) = run_cells(
            EngineKind::Serial,
            L,
            SimTime::from_nanos(5_000),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
        assert!(stats.epochs >= 1);
        assert_eq!(logs[1], vec![(900, 11), (1_000, 12), (1_000, 101)]);
    }

    #[test]
    fn adaptive_epochs_collapse_under_skewed_load() {
        // Heavy cell 0: 100 local events, every 10th sends cross-cell.
        // Light cell 1: nothing but the arrivals. A global bound would
        // advance one send stride per epoch (heavy's own promise would
        // cap the whole run); per-cell bounds let the heavy cell drain
        // in one bound because its only peer is silent.
        let heavy: Vec<Op> = (1..=100u64)
            .map(|i| Op {
                at: i * 1_000,
                tag: i as u32,
                send: (i % 10 == 0).then_some((1usize, 500u64)),
            })
            .collect();
        let plans = vec![heavy, Vec::new()];
        let (adaptive, astats) = run_plan(EngineKind::Serial, &plans, 200_000);
        assert_eq!(adaptive[1].len(), 10, "every send arrived");
        assert!(
            astats.epochs <= 3,
            "adaptive drains the skewed plan in a few epochs, got {}",
            astats.epochs
        );
        let (par, pstats) = run_plan(EngineKind::Parallel(2), &plans, 200_000);
        assert_eq!(par, adaptive);
        assert_eq!(pstats.epochs, astats.epochs);
        assert_eq!(pstats.barrier_wait_by_worker.len(), 2);
        let total: f64 = pstats.barrier_wait_by_worker.iter().sum();
        assert!((total - pstats.barrier_wait_secs).abs() < 1e-9);
    }

    #[test]
    fn adaptive_solo_cell_still_drains_in_one_epoch() {
        let plans = [vec![
            Op {
                at: 10,
                tag: 1,
                send: None,
            },
            Op {
                at: 20,
                tag: 2,
                send: None,
            },
        ]];
        let cells = plans.len();
        let builders: Vec<_> = plans
            .iter()
            .cloned()
            .map(|plan| {
                move |k: usize| {
                    let mut e = build_cell(k, cells, &plan);
                    e.state_mut().port.configure(0, 1, SimDuration::ZERO);
                    e
                }
            })
            .collect();
        let (logs, stats) = run_cells(
            EngineKind::Serial,
            SimDuration::ZERO,
            SimTime::from_nanos(100),
            builders,
            |_, e: Engine<Toy>| e.into_state().log,
        );
        assert_eq!(logs[0], vec![(10, 1), (20, 2)]);
        assert_eq!(stats.epochs, 1, "no peers to wait for");
    }

    #[test]
    fn kind_labels_and_threads() {
        assert_eq!(EngineKind::Serial.threads(), 1);
        assert_eq!(EngineKind::Parallel(0).threads(), 1);
        assert_eq!(EngineKind::Parallel(4).threads(), 4);
        assert_eq!(EngineKind::Serial.label(), "serial");
        assert_eq!(EngineKind::Parallel(4).label(), "parallel-4");
        assert_eq!(EngineKind::default(), EngineKind::Serial);
        assert_eq!(EpochPolicy::default(), EpochPolicy::Adaptive);
    }
}
