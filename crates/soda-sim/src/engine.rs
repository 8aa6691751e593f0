//! The discrete-event engine.
//!
//! [`Engine<S>`] owns the simulated world `S`, the virtual clock, the event
//! queue and a deterministic RNG. An event is one of two [`Payload`]s:
//!
//! * **cold** — a boxed `FnOnce(&mut S, &mut Ctx)` closure under a static
//!   kind tag (`schedule_at_as` & co.; the untagged helpers file under
//!   [`DEFAULT_EVENT_KIND`]). Any handler can be scheduled this way.
//! * **hot** — a value of the world's own event type
//!   [`HotEvents::Hot`], stored inline in the queue entry and dispatched
//!   through [`HotEvent::fire`]. A world moves the events it schedules
//!   per request here so its steady state allocates nothing per event;
//!   the variant supplies its kind tag ([`HotEvent::kind`]). A world
//!   with no hot events names [`std::convert::Infallible`].
//!
//! From inside a handler, new events are scheduled through the [`Ctx`]
//! (the queue itself cannot be borrowed while the handler runs, so `Ctx`
//! buffers the new events in a buffer the engine keeps between events,
//! and the engine drains it after each handler returns — preserving FIFO
//! order at equal timestamps). Hot or cold, every event is ordered by
//! `(time, seq)` alone.
//!
//! Kind tags buy the self-profiler its per-kind wall-clock cost table
//! ([`Engine::enable_profiler`]).

use std::convert::Infallible;

use crate::profiler::{ProfileEntry, Profiler};
use crate::queue::EventQueue;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// The type of a scheduled (cold) event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>)>;

/// The kind tag events scheduled without an explicit kind file under.
pub const DEFAULT_EVENT_KIND: &str = "event";

/// A world the engine can drive: it names the type of its inline (hot)
/// events. Worlds that only schedule closures use
/// [`std::convert::Infallible`].
pub trait HotEvents: Sized {
    /// The world's inline event type.
    type Hot: HotEvent<Self>;
}

/// One inline event of world `S`: a plain value in the queue entry, run
/// by [`HotEvent::fire`] instead of a boxed closure.
pub trait HotEvent<S: HotEvents> {
    /// The profiling kind tag of this event.
    fn kind(&self) -> &'static str;
    /// Run the event's handler.
    fn fire(self, world: &mut S, ctx: &mut Ctx<S>);
}

impl<S: HotEvents> HotEvent<S> for Infallible {
    fn kind(&self) -> &'static str {
        match *self {}
    }
    fn fire(self, _: &mut S, _: &mut Ctx<S>) {
        match self {}
    }
}

/// One queued event: a world's inline event, or a kind-tagged closure.
pub enum Payload<S: HotEvents> {
    /// An inline event of the world's own type.
    Hot(S::Hot),
    /// A boxed handler under its profiling kind tag.
    Cold(&'static str, EventFn<S>),
}

impl<S: HotEvents> Payload<S> {
    /// The profiling kind tag.
    pub fn kind(&self) -> &'static str {
        match self {
            Payload::Hot(ev) => ev.kind(),
            Payload::Cold(kind, _) => kind,
        }
    }

    fn run(self, world: &mut S, ctx: &mut Ctx<S>) {
        match self {
            Payload::Hot(ev) => ev.fire(world, ctx),
            Payload::Cold(_, f) => f(world, ctx),
        }
    }
}

/// Handler-side view of the engine: the current time, the RNG, and a
/// buffer for newly scheduled events.
pub struct Ctx<'a, S: HotEvents> {
    now: SimTime,
    rng: &'a mut SimRng,
    pending: &'a mut Vec<(SimTime, Payload<S>)>,
    stop_requested: bool,
}

impl<'a, S: HotEvents> Ctx<'a, S> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The engine's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Schedule `f` to run at absolute time `at`. Times in the past clamp
    /// to "now" (they run after all other events already queued for now).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at_as(DEFAULT_EVENT_KIND, at, f);
    }

    /// Schedule `f` to run `delay` after now.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedule `f` at absolute time `at` under a profiling kind tag.
    pub fn schedule_at_as<F>(&mut self, kind: &'static str, at: SimTime, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        let at = at.max(self.now);
        self.pending.push((at, Payload::Cold(kind, Box::new(f))));
    }

    /// Schedule `f` after `delay` under a profiling kind tag.
    pub fn schedule_in_as<F>(&mut self, kind: &'static str, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at_as(kind, self.now + delay, f);
    }

    /// Schedule the inline event `ev` at absolute time `at` (clamped to
    /// now like [`Ctx::schedule_at`]). Nothing is boxed.
    pub fn schedule_hot_at(&mut self, at: SimTime, ev: S::Hot) {
        let at = at.max(self.now);
        self.pending.push((at, Payload::Hot(ev)));
    }

    /// Ask the engine to stop after the current handler returns. Pending
    /// events stay queued (useful for "measure for T seconds then stop"
    /// experiment drivers).
    pub fn request_stop(&mut self) {
        self.stop_requested = true;
    }
}

/// A deterministic discrete-event simulation engine over world state `S`.
pub struct Engine<S: HotEvents> {
    state: S,
    now: SimTime,
    queue: EventQueue<Payload<S>>,
    /// The handlers' scheduling buffer, lent to each [`Ctx`] and drained
    /// into the queue after the handler returns; kept so its capacity is
    /// reused from event to event.
    pending: Vec<(SimTime, Payload<S>)>,
    rng: SimRng,
    profiler: Profiler,
    executed: u64,
    stopped: bool,
}

impl<S: HotEvents> Engine<S> {
    /// A new engine at t=0 with a fixed default seed. Use
    /// [`Engine::with_seed`] for experiments that sweep seeds.
    pub fn new(state: S) -> Self {
        Self::with_seed(state, 0x5eed_50da)
    }

    /// A new engine at t=0 whose RNG is seeded with `seed`.
    pub fn with_seed(state: S, seed: u64) -> Self {
        Engine {
            state,
            now: SimTime::ZERO,
            queue: EventQueue::with_capacity(1024),
            pending: Vec::new(),
            rng: SimRng::new(seed),
            profiler: Profiler::disabled(),
            executed: 0,
            stopped: false,
        }
    }

    /// Reserve queue room for roughly `additional` more pending events —
    /// a workload-size hint so large experiments pay their queue growth
    /// once, up front, instead of re-allocating mid-run.
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the world.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the world (for setup and for reading metrics
    /// out between runs).
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consume the engine, returning the world.
    pub fn into_state(self) -> S {
        self.state
    }

    /// The engine RNG (e.g. to derive workload seeds during setup).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Switch on the self-profiler: each executed handler's wall-clock
    /// cost is accumulated per event kind. Wall readings never touch
    /// simulation state, so profiling cannot perturb a trajectory.
    pub fn enable_profiler(&mut self) {
        self.profiler = Profiler::enabled();
    }

    /// The self-profiler (disabled unless [`Engine::enable_profiler`]).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The per-event-kind cost table, most expensive kind first (empty
    /// when the profiler is disabled).
    pub fn profile_report(&self) -> Vec<ProfileEntry> {
        self.profiler.report()
    }

    /// Number of events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still queued.
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of queued events over the run — how deep the
    /// event heap got at its worst (the scale sweep reports this).
    pub fn peak_events_pending(&self) -> usize {
        self.queue.peak_len()
    }

    /// True if a handler called [`Ctx::request_stop`].
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Clear a previous stop request so the engine can be driven further.
    pub fn clear_stop(&mut self) {
        self.stopped = false;
    }

    /// Schedule `f` at absolute time `at` (clamped to now if in the past).
    pub fn schedule_at<F>(&mut self, at: SimTime, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at_as(DEFAULT_EVENT_KIND, at, f);
    }

    /// Schedule `f` to run `delay` after the current time.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at(self.now + delay, f);
    }

    /// Schedule `f` at absolute time `at` under a profiling kind tag.
    pub fn schedule_at_as<F>(&mut self, kind: &'static str, at: SimTime, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        let at = at.max(self.now);
        self.queue.push(at, Payload::Cold(kind, Box::new(f)));
    }

    /// Schedule `f` after `delay` under a profiling kind tag.
    pub fn schedule_in_as<F>(&mut self, kind: &'static str, delay: SimDuration, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        self.schedule_at_as(kind, self.now + delay, f);
    }

    /// [`Engine::schedule_at_as`] under an explicit same-instant tie key
    /// (see [`EventQueue::push_keyed`]). It consumes no local sequence
    /// number, so later local schedules are unaffected by the call.
    pub fn schedule_keyed_as<F>(&mut self, kind: &'static str, at: SimTime, key: u64, f: F)
    where
        F: FnOnce(&mut S, &mut Ctx<S>) + 'static,
    {
        let at = at.max(self.now);
        self.queue
            .push_keyed(at, key, Payload::Cold(kind, Box::new(f)));
    }

    /// Schedule `f` to run every `period` starting at `start`, until it
    /// returns `false` or the clock reaches `end`. Periods must be
    /// positive. This is the sampling-loop helper the "versus time"
    /// experiments use.
    pub fn schedule_periodic<F>(&mut self, start: SimTime, period: SimDuration, end: SimTime, f: F)
    where
        F: FnMut(&mut S, &mut Ctx<S>) -> bool + 'static,
    {
        assert!(!period.is_zero(), "periodic events need a positive period");
        fn arm<S: HotEvents, F>(period: SimDuration, end: SimTime, mut f: F) -> EventFn<S>
        where
            F: FnMut(&mut S, &mut Ctx<S>) -> bool + 'static,
        {
            Box::new(move |s: &mut S, ctx: &mut Ctx<S>| {
                if ctx.now() >= end {
                    return;
                }
                if f(s, ctx) {
                    let next = ctx.now() + period;
                    if next < end {
                        let ev = arm(period, end, f);
                        ctx.pending.push((next, Payload::Cold("periodic", ev)));
                    }
                }
            })
        }
        let at = start.max(self.now);
        self.queue
            .push(at, Payload::Cold("periodic", arm(period, end, f)));
    }

    /// Execute the single earliest event. Returns `false` if the queue was
    /// empty or a stop was requested.
    pub fn step(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let Some((time, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "event queue went back in time");
        self.now = time;
        let mut ctx = Ctx {
            now: time,
            rng: &mut self.rng,
            pending: &mut self.pending,
            stop_requested: false,
        };
        let started = self
            .profiler
            .is_enabled()
            .then(|| (event.kind(), std::time::Instant::now()));
        event.run(&mut self.state, &mut ctx);
        let stop_requested = ctx.stop_requested;
        if let Some((kind, t0)) = started {
            self.profiler.observe(kind, t0.elapsed());
        }
        for (at, ev) in self.pending.drain(..) {
            self.queue.push(at, ev);
        }
        self.stopped = stop_requested;
        self.executed += 1;
        true
    }

    /// Run until the queue drains or a stop is requested.
    pub fn run_to_completion(&mut self) {
        while self.step() {}
    }

    /// Run every event with timestamp `<= until`, then set the clock to
    /// `until` (even if the queue drained earlier). Events strictly after
    /// `until` remain queued.
    pub fn run_until(&mut self, until: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t <= until => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if !self.stopped && self.now < until {
            self.now = until;
        }
    }

    /// Timestamp of the earliest pending event, if any. Takes `&mut
    /// self` because peeking a timer wheel settles it (see `queue`).
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Run every event with timestamp **strictly before** `bound`,
    /// leaving the clock at the last executed event (not advanced to
    /// `bound`). This is the epoch-execution primitive of the parallel
    /// runner ([`crate::par`]): an epoch executes `[start, bound)` and
    /// the barrier then injects cross-cell events at times `>= bound`,
    /// which stay legal because the clock never reached `bound`.
    pub fn run_events_before(&mut self, bound: SimTime) {
        loop {
            match self.queue.peek_time() {
                Some(t) if t < bound => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct W {
        log: Vec<u32>,
    }

    impl HotEvents for W {
        type Hot = Infallible;
    }

    /// A world whose `Mark` events are inline and log their value.
    #[derive(Default)]
    struct Hw {
        log: Vec<u32>,
    }

    enum Mark {
        Log(u32),
        /// Logs its value and schedules a same-instant `Log(value + 1)`
        /// hot follow-up plus a cold one logging `value + 2`.
        Fork(u32),
    }

    impl HotEvents for Hw {
        type Hot = Mark;
    }

    impl HotEvent<Hw> for Mark {
        fn kind(&self) -> &'static str {
            match self {
                Mark::Log(_) => "log",
                Mark::Fork(_) => "fork",
            }
        }
        fn fire(self, w: &mut Hw, ctx: &mut Ctx<Hw>) {
            match self {
                Mark::Log(v) => w.log.push(v),
                Mark::Fork(v) => {
                    w.log.push(v);
                    ctx.schedule_hot_at(ctx.now(), Mark::Log(v + 1));
                    ctx.schedule_at_as("cold", ctx.now(), move |w: &mut Hw, _| w.log.push(v + 2));
                }
            }
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut e = Engine::new(W::default());
        e.schedule_in(SimDuration::from_millis(20), |w: &mut W, _| w.log.push(2));
        e.schedule_in(SimDuration::from_millis(10), |w: &mut W, _| w.log.push(1));
        e.schedule_in(SimDuration::from_millis(30), |w: &mut W, _| w.log.push(3));
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2, 3]);
        assert_eq!(e.events_executed(), 3);
        assert_eq!(e.now().as_millis(), 30);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut e = Engine::new(W::default());
        e.schedule_in(SimDuration::from_secs(1), |w: &mut W, ctx| {
            w.log.push(1);
            ctx.schedule_in(SimDuration::from_secs(1), |w: &mut W, ctx| {
                w.log.push(2);
                ctx.schedule_in(SimDuration::from_secs(1), |w: &mut W, _| {
                    w.log.push(3);
                });
            });
        });
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2, 3]);
        assert_eq!(e.now().as_millis(), 3000);
    }

    #[test]
    fn run_until_stops_at_boundary_and_advances_clock() {
        let mut e = Engine::new(W::default());
        for i in 1..=10u64 {
            e.schedule_at(SimTime::from_secs(i), move |w: &mut W, _| {
                w.log.push(i as u32);
            });
        }
        e.run_until(SimTime::from_secs(4));
        assert_eq!(e.state().log, vec![1, 2, 3, 4]);
        assert_eq!(e.now(), SimTime::from_secs(4));
        assert_eq!(e.events_pending(), 6);
        // The clock still advances to the horizon when nothing fires.
        e.run_until(SimTime::from_secs(4));
        assert_eq!(e.now(), SimTime::from_secs(4));
        e.run_to_completion();
        assert_eq!(e.state().log.len(), 10);
    }

    #[test]
    fn request_stop_halts_engine_but_keeps_queue() {
        let mut e = Engine::new(W::default());
        e.schedule_in(SimDuration::from_secs(1), |w: &mut W, ctx| {
            w.log.push(1);
            ctx.request_stop();
        });
        e.schedule_in(SimDuration::from_secs(2), |w: &mut W, _| w.log.push(2));
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1]);
        assert!(e.is_stopped());
        assert_eq!(e.events_pending(), 1);
        e.clear_stop();
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2]);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut e = Engine::new(W::default());
        e.schedule_in(SimDuration::from_secs(5), |w: &mut W, ctx| {
            w.log.push(1);
            // Deliberately "in the past": clamps to now.
            ctx.schedule_at(SimTime::ZERO, |w: &mut W, _| w.log.push(2));
        });
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(5));
    }

    #[test]
    fn same_time_followups_run_after_earlier_same_time_events() {
        let mut e = Engine::new(W::default());
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, ctx| {
            w.log.push(1);
            ctx.schedule_at(ctx.now(), |w: &mut W, _| w.log.push(3));
        });
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, _| w.log.push(2));
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2, 3]);
    }

    #[test]
    fn periodic_fires_until_end() {
        let mut e = Engine::new(W::default());
        e.schedule_periodic(
            SimTime::from_secs(1),
            SimDuration::from_secs(2),
            SimTime::from_secs(10),
            |w: &mut W, _| {
                w.log.push(1);
                true
            },
        );
        e.run_to_completion();
        // Fires at t = 1, 3, 5, 7, 9.
        assert_eq!(e.state().log.len(), 5);
        assert_eq!(e.now(), SimTime::from_secs(9));
    }

    #[test]
    fn periodic_stops_when_callback_returns_false() {
        let mut e = Engine::new(W::default());
        e.schedule_periodic(
            SimTime::ZERO,
            SimDuration::from_secs(1),
            SimTime::from_secs(100),
            |w: &mut W, _| {
                w.log.push(1);
                w.log.len() < 3
            },
        );
        e.run_to_completion();
        assert_eq!(e.state().log.len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive period")]
    fn periodic_zero_period_panics() {
        let mut e = Engine::new(W::default());
        e.schedule_periodic(
            SimTime::ZERO,
            SimDuration::ZERO,
            SimTime::from_secs(1),
            |_: &mut W, _| true,
        );
    }

    #[test]
    fn profiler_buckets_by_kind_tag() {
        let mut e = Engine::new(W::default());
        e.enable_profiler();
        e.schedule_at_as("tick", SimTime::from_secs(1), |w: &mut W, ctx| {
            w.log.push(1);
            ctx.schedule_in_as("tock", SimDuration::from_secs(1), |w: &mut W, _| {
                w.log.push(2);
            });
        });
        e.schedule_at(SimTime::from_secs(3), |w: &mut W, _| w.log.push(3));
        e.run_to_completion();
        assert_eq!(e.state().log, vec![1, 2, 3]);
        let report = e.profile_report();
        let kinds: Vec<&str> = report.iter().map(|r| r.kind).collect();
        assert!(kinds.contains(&"tick"));
        assert!(kinds.contains(&"tock"));
        assert!(kinds.contains(&DEFAULT_EVENT_KIND));
        assert!(report.iter().all(|r| r.count == 1));
    }

    #[test]
    fn disabled_profiler_reports_nothing() {
        let mut e = Engine::new(W::default());
        e.schedule_at_as("tick", SimTime::from_secs(1), |w: &mut W, _| {
            w.log.push(1);
        });
        e.run_to_completion();
        assert!(e.profile_report().is_empty());
        assert!(!e.profiler().is_enabled());
    }

    #[test]
    fn run_events_before_is_strict_and_leaves_clock_behind() {
        let mut e = Engine::new(W::default());
        for i in 1..=5u64 {
            e.schedule_at(SimTime::from_secs(i), move |w: &mut W, _| {
                w.log.push(i as u32);
            });
        }
        e.run_events_before(SimTime::from_secs(3));
        // Strictly before: the t=3 event stays queued.
        assert_eq!(e.state().log, vec![1, 2]);
        assert_eq!(e.now(), SimTime::from_secs(2), "clock stays at last event");
        assert_eq!(e.peek_time(), Some(SimTime::from_secs(3)));
        // Events landing exactly at the bound are legal to inject now.
        e.schedule_at(SimTime::from_secs(3), |w: &mut W, _| w.log.push(30));
        e.run_events_before(SimTime::MAX);
        assert_eq!(e.state().log, vec![1, 2, 3, 30, 4, 5]);
        assert_eq!(e.peek_time(), None);
    }

    #[test]
    fn run_events_before_respects_stop_requests() {
        let mut e = Engine::new(W::default());
        e.schedule_at(SimTime::from_secs(1), |w: &mut W, ctx| {
            w.log.push(1);
            ctx.request_stop();
        });
        e.schedule_at(SimTime::from_secs(2), |w: &mut W, _| w.log.push(2));
        e.run_events_before(SimTime::MAX);
        assert_eq!(e.state().log, vec![1]);
        assert!(e.is_stopped());
        assert_eq!(e.events_pending(), 1);
    }

    #[test]
    fn determinism_same_seed_same_trajectory() {
        fn run(seed: u64) -> Vec<u32> {
            let mut e = Engine::with_seed(W::default(), seed);
            for _ in 0..50 {
                e.schedule_in(SimDuration::from_millis(1), |w: &mut W, ctx| {
                    let v = ctx.rng().range_u64(0..1000) as u32;
                    w.log.push(v);
                    let d = SimDuration::from_micros(ctx.rng().range_u64(1..500));
                    ctx.schedule_in(d, move |w: &mut W, _| w.log.push(v + 1));
                });
            }
            e.run_to_completion();
            e.into_state().log
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn hot_and_cold_events_at_one_instant_fire_in_push_order() {
        let mut e = Engine::new(Hw::default());
        let t = SimTime::from_secs(1);
        e.schedule_at(SimTime::ZERO, move |_: &mut Hw, ctx| {
            ctx.schedule_hot_at(t, Mark::Log(1));
            ctx.schedule_at(t, |w: &mut Hw, _| w.log.push(2));
            ctx.schedule_hot_at(t, Mark::Fork(10));
            ctx.schedule_at(t, |w: &mut Hw, ctx| {
                w.log.push(3);
                ctx.schedule_hot_at(SimTime::ZERO, Mark::Log(4));
            });
            ctx.schedule_hot_at(SimTime::from_millis(500), Mark::Log(0));
        });
        e.run_to_completion();
        // The follow-ups queued from inside handlers at `t` (11, 12, 4)
        // run after every event pushed before them, in push order.
        assert_eq!(e.state().log, vec![0, 1, 2, 10, 3, 11, 12, 4]);
        assert_eq!(e.now(), t);
    }

    #[test]
    fn profiler_counts_every_hot_and_cold_event() {
        let mut e = Engine::new(Hw::default());
        e.enable_profiler();
        for i in 0..5 {
            e.schedule_in_as("tick", SimDuration::from_millis(i), |w: &mut Hw, ctx| {
                w.log.push(0);
                ctx.schedule_hot_at(ctx.now(), Mark::Fork(0));
            });
        }
        e.schedule_periodic(
            SimTime::ZERO,
            SimDuration::from_millis(2),
            SimTime::from_millis(9),
            |_, _| true,
        );
        e.run_to_completion();
        let report = e.profile_report();
        let count = |k: &str| report.iter().find(|r| r.kind == k).map_or(0, |r| r.count);
        assert_eq!(
            [count("fork"), count("log"), count("cold"), count("tick")],
            [5, 5, 5, 5]
        );
        assert_eq!(count("periodic"), 5);
        let total: u64 = report.iter().map(|r| r.count).sum();
        assert_eq!(total, e.events_executed());
        assert_eq!(total, 25);
    }
}
