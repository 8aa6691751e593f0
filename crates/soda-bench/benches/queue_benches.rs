//! Event-queue microbenches: hierarchical timer wheel vs binary-heap
//! oracle.
//!
//! Two probes per depth (1k / 100k / 1M pending events):
//!
//! * `churn` — steady-state pop-one/push-one at constant depth, the
//!   shape a running simulation exercises every event. Pushed times are
//!   drawn from a mixed near/far horizon distribution (most events land
//!   within microseconds, a tail lands seconds-to-minutes out), so the
//!   wheel's cascade and overflow paths are all on the clock.
//! * `drain` — build-then-empty, measuring ordered drain throughput.
//!
//! Before the timed benches, the shared counting allocator
//! (`soda_bench::memtrack`) reports how many first-use allocations each
//! implementation makes while absorbing a 100k-event burst, with and
//! without a capacity hint (`reserve`), which is the satellite
//! measurement behind `Engine::reserve_events`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use soda_bench::memtrack::allocations_here;
use soda_sim::queue::oracle;
use soda_sim::{EventQueue, SimTime};

#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

// ---------------------------------------------------------------------
// The two implementations behind one bench-local interface
// ---------------------------------------------------------------------

/// The queue surface the benches drive, so the timer wheel and the heap
/// oracle run the identical schedule.
trait Queue {
    const NAME: &'static str;
    fn new() -> Self;
    fn with_capacity(cap: usize) -> Self;
    fn push(&mut self, time: SimTime, payload: u64);
    fn pop(&mut self) -> Option<(SimTime, u64)>;
    fn len(&self) -> usize;
}

impl Queue for EventQueue<u64> {
    const NAME: &'static str = "wheel";
    fn new() -> Self {
        EventQueue::new()
    }
    fn with_capacity(cap: usize) -> Self {
        EventQueue::with_capacity(cap)
    }
    fn push(&mut self, time: SimTime, payload: u64) {
        EventQueue::push(self, time, payload)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::pop(self)
    }
    fn len(&self) -> usize {
        EventQueue::len(self)
    }
}

impl Queue for oracle::EventQueue<u64> {
    const NAME: &'static str = "heap";
    fn new() -> Self {
        oracle::EventQueue::new()
    }
    fn with_capacity(cap: usize) -> Self {
        oracle::EventQueue::with_capacity(cap)
    }
    fn push(&mut self, time: SimTime, payload: u64) {
        oracle::EventQueue::push(self, time, payload)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        oracle::EventQueue::pop(self)
    }
    fn len(&self) -> usize {
        oracle::EventQueue::len(self)
    }
}

// ---------------------------------------------------------------------
// Deterministic mixed-horizon time source
// ---------------------------------------------------------------------

/// xorshift64* — cheap, deterministic, good enough for horizon draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A delay mixing near wheel levels with a far tail: ~70% land within
/// 64 µs (levels 0–2), ~25% within 70 ms (levels 3–4), ~5% seconds to
/// minutes out (levels 5–6 and, rarely, the overflow heap).
fn mixed_delay(rng: &mut Rng) -> u64 {
    let r = rng.next();
    match r % 20 {
        0..=13 => r % (1 << 16),  // ≤ 65 µs
        14..=18 => r % (1 << 26), // ≤ 67 ms
        _ => r % (1 << 38),       // ≤ 4.6 min (past-horizon tail)
    }
}

fn prefill<Q: Queue>(depth: usize, seed: u64) -> (Q, Rng, u64) {
    let mut q = Q::new();
    let mut rng = Rng(seed | 1);
    let mut now = 0u64;
    for i in 0..depth {
        q.push(SimTime::from_nanos(now + mixed_delay(&mut rng)), i as u64);
        // Creep the clock so entries spread over the wheel as they would
        // in a live run.
        now += rng.next() % 128;
    }
    (q, rng, now)
}

// ---------------------------------------------------------------------
// Allocation-count report (satellite: capacity hints)
// ---------------------------------------------------------------------

fn count_burst_allocations<Q: Queue>(hint: Option<usize>, burst: usize) -> u64 {
    let mut rng = Rng(0x5eed | 1);
    let times: Vec<u64> = (0..burst).map(|_| mixed_delay(&mut rng)).collect();
    let mut q = match hint {
        Some(cap) => Q::with_capacity(cap),
        None => Q::new(),
    };
    let before = allocations_here();
    for (i, &t) in times.iter().enumerate() {
        q.push(SimTime::from_nanos(t), i as u64);
    }
    let after = allocations_here();
    black_box(q.len());
    after - before
}

fn report_first_allocations<Q: Queue>() {
    const BURST: usize = 100_000;
    let cold = count_burst_allocations::<Q>(None, BURST);
    let hinted = count_burst_allocations::<Q>(Some(BURST), BURST);
    println!(
        "queue/{:<5} cold {cold:>6} allocs | with capacity hint {hinted:>6} allocs",
        Q::NAME
    );
}

// ---------------------------------------------------------------------
// Timed benches
// ---------------------------------------------------------------------

fn churn<Q: Queue>(c: &mut Criterion, depth: usize) {
    let (mut q, mut rng, _) = prefill::<Q>(depth, 0xdead_beef);
    let mut i = depth as u64;
    // Warm to steady state so the wheel's first big cascades (an
    // amortized cost the prefill deferred) are off the clock.
    for _ in 0..10_000 {
        let (t, _) = q.pop().expect("never empties");
        q.push(SimTime::from_nanos(t.as_nanos() + mixed_delay(&mut rng)), i);
        i += 1;
    }
    c.bench_function(&format!("queue/churn_{}_{depth}", Q::NAME), |b| {
        b.iter(|| {
            let (t, payload) = q.pop().expect("never empties");
            q.push(SimTime::from_nanos(t.as_nanos() + mixed_delay(&mut rng)), i);
            i += 1;
            black_box(payload)
        })
    });
}

fn bench_churn(c: &mut Criterion) {
    for depth in [1_000usize, 100_000, 1_000_000] {
        churn::<EventQueue<u64>>(c, depth);
        churn::<oracle::EventQueue<u64>>(c, depth);
    }
}

fn drain<Q: Queue>(c: &mut Criterion, depth: usize) {
    c.bench_function(&format!("queue/drain_{}_{depth}", Q::NAME), |b| {
        b.iter_batched(
            || prefill::<Q>(depth, 0xfeed_f00d).0,
            |mut q| {
                let mut last = 0u64;
                while let Some((t, _)) = q.pop() {
                    last = t.as_nanos();
                }
                black_box(last)
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_drain(c: &mut Criterion) {
    // Build-then-empty at the two smaller depths (a 1M drain per sample
    // would dominate the bench wall clock without adding information).
    for depth in [1_000usize, 100_000] {
        drain::<EventQueue<u64>>(c, depth);
        drain::<oracle::EventQueue<u64>>(c, depth);
    }
}

fn bench_alloc_report(c: &mut Criterion) {
    // Not a timed bench — runs once so `cargo bench` output always
    // carries the allocation counts next to the latency numbers.
    let _ = c;
    println!("-- first-use allocations while absorbing a 100000-event burst --");
    report_first_allocations::<EventQueue<u64>>();
    report_first_allocations::<oracle::EventQueue<u64>>();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alloc_report, bench_churn, bench_drain
}
criterion_main!(benches);
