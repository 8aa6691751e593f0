//! # soda-sim
//!
//! Deterministic discrete-event simulation (DES) engine underpinning the
//! SODA reproduction.
//!
//! The HPDC'03 SODA paper evaluates its architecture on two physical Linux
//! hosts connected by a 100 Mbps LAN. This crate provides the substrate
//! that replaces that testbed: a virtual clock with nanosecond resolution,
//! a stable event queue, a seeded random-number generator with the
//! distributions the workload generators need, metric recorders
//! (histograms, windowed means, availability trackers) used by every
//! experiment harness, a structured observability layer ([`obs`]:
//! typed events, virtual-time spans, labeled metrics registry, sampled
//! causal traces), and a per-event-kind wall-clock self-profiler
//! ([`profiler`]).
//!
//! Design goals:
//!
//! * **Determinism** — identical seeds and inputs produce identical event
//!   orderings and metrics, so every table and figure of the paper can be
//!   regenerated bit-for-bit.
//! * **Zero unsafe** — the engine is plain safe Rust.
//! * **Engine/state separation** — [`Engine<S>`] is generic over the
//!   simulated world `S`; events are boxed closures over `(&mut S, &mut
//!   Ctx)` or values of the world's own inline event type
//!   ([`HotEvents::Hot`]), which the queue stores unboxed. Substrate
//!   crates (host OS, network, VMM) expose *time models* and *advance*
//!   methods; the world crate wires them into events.
//!
//! ## Quick example
//!
//! ```
//! use soda_sim::{Engine, HotEvents, SimDuration};
//!
//! #[derive(Default)]
//! struct World { ticks: u32 }
//!
//! // This world schedules closures only: it has no inline events.
//! impl HotEvents for World {
//!     type Hot = std::convert::Infallible;
//! }
//!
//! let mut engine = Engine::new(World::default());
//! engine.schedule_in(SimDuration::from_millis(10), |w: &mut World, ctx| {
//!     w.ticks += 1;
//!     ctx.schedule_in(SimDuration::from_millis(10), |w: &mut World, _| {
//!         w.ticks += 1;
//!     });
//! });
//! engine.run_to_completion();
//! assert_eq!(engine.state().ticks, 2);
//! assert_eq!(engine.now().as_millis(), 20);
//! ```

pub mod engine;
pub mod faults;
pub mod fnv;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod profiler;
pub mod queue;
pub mod retry;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Ctx, Engine, EventFn, HotEvent, HotEvents, Payload, DEFAULT_EVENT_KIND};
pub use faults::{ChaosProfile, FailureDomain, FaultInjection, FaultPlan, FaultSpec};
pub use fnv::{fnv1a, FNV_OFFSET};
pub use metrics::{Availability, Histogram, Summary, WindowedMean};
pub use obs::{
    DrainedEvents, Event, Labels, MetricHandle, MetricKind, MetricValue, MetricsRegistry, Obs,
    RegistrySnapshot, Severity, SpanId, TimedEvent, TraceId, TraceRecord, TraceRef, TraceSpan,
    Tracer,
};
pub use par::{
    run_cells, run_cells_with, CellPort, CellWorld, EngineKind, EpochPolicy, EpochStats,
    RemoteEvent,
};
pub use profiler::{ProfileEntry, Profiler};
pub use queue::EventQueue;
pub use retry::BackoffPolicy;
pub use rng::{SimRng, Zipf};
pub use stats::{linear_fit, LinearFit};
pub use time::{SimDuration, SimTime};
