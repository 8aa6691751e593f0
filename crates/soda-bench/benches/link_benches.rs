//! Fluid-link microbenches: virtual-time indexed `ProcessorSharingLink`
//! vs the preserved O(n) scan (`link::oracle`), on identical schedules.
//!
//! Two probes per depth:
//!
//! * `churn` (1k / 10k / 100k active flows) — steady-state
//!   advance-a-little / cancel-one / add-one at constant depth, the
//!   shape a contended NIC sees under fan-in load. The oracle pays O(n)
//!   per mutation (partial advance touches every flow, cancel scans the
//!   vector); the index pays O(log n) for the mutations and O(1) for
//!   the partial advance, so its per-event cost should stay flat as
//!   depth grows while the oracle's grows linearly.
//! * `complete_100` (1k / 10k) — hop boundary-to-boundary through 100
//!   flow completions. Per completion the oracle re-scans every
//!   remaining flow; the index pops the minimum threshold. 100k is
//!   omitted: a single oracle sample would dominate the bench wall
//!   clock without adding information (the 1k→10k slope already shows
//!   the O(n) term).
//!
//! Before the timed benches, the shared counting allocator
//! (`soda_bench::memtrack`) reports steady-state churn allocations for
//! both implementations (the index allocates tree nodes on insert; the
//! warm completion path allocates nothing).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use soda_bench::memtrack::allocations_here;
use soda_net::link::{oracle, FlowId, LinkSpec, ProcessorSharingLink};
use soda_sim::{SimDuration, SimTime};

#[global_allocator]
static GLOBAL: soda_bench::memtrack::TrackingAllocator = soda_bench::memtrack::TrackingAllocator;

/// xorshift64* — cheap, deterministic size/churn draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Elephant flows (50–150 MB): at 100 Mbps shared N ways nothing
/// completes during a churn window, so the depth stays constant.
fn elephant(rng: &mut Rng) -> u64 {
    50_000_000 + rng.next() % 100_000_000
}

// ---------------------------------------------------------------------
// Steady-state churn at constant depth
// ---------------------------------------------------------------------

/// Drives one churn iteration against either implementation via the
/// shared closure shape: advance 10 µs, cancel the oldest live flow,
/// add a replacement.
macro_rules! churn_bench {
    ($c:expr, $name:literal, $depth:expr, $mk:expr) => {{
        let mut rng = Rng(0x1ab_5eed | 1);
        let mut link = $mk;
        let mut live: std::collections::VecDeque<FlowId> = (0..$depth)
            .map(|_| link.add_flow(elephant(&mut rng), SimTime::ZERO))
            .collect();
        let mut now = SimTime::ZERO;
        $c.bench_function(&format!("link/churn_{}_{}", $name, $depth), |b| {
            b.iter(|| {
                now += SimDuration::from_micros(10);
                link.advance(now);
                let victim = live.pop_front().expect("depth is constant");
                assert!(link.cancel(victim, now), "elephants never complete");
                live.push_back(link.add_flow(elephant(&mut rng), now));
                black_box(link.next_completion())
            })
        });
    }};
}

fn bench_churn(c: &mut Criterion) {
    for depth in [1_000usize, 10_000, 100_000] {
        churn_bench!(
            c,
            "indexed",
            depth,
            ProcessorSharingLink::new(LinkSpec::lan_100mbps())
        );
        churn_bench!(
            c,
            "oracle",
            depth,
            oracle::ProcessorSharingLink::new(LinkSpec::lan_100mbps())
        );
    }
}

// ---------------------------------------------------------------------
// Completion throughput: 100 boundary hops from depth N
// ---------------------------------------------------------------------

/// Distinct sizes → distinct thresholds → one completion per boundary.
fn prefill_indexed(depth: usize) -> ProcessorSharingLink {
    let mut l = ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    for i in 0..depth {
        l.add_flow(10_000 + 64 * i as u64, SimTime::ZERO);
    }
    l
}

fn prefill_oracle(depth: usize) -> oracle::ProcessorSharingLink {
    let mut l = oracle::ProcessorSharingLink::new(LinkSpec::lan_100mbps());
    for i in 0..depth {
        l.add_flow(10_000 + 64 * i as u64, SimTime::ZERO);
    }
    l
}

macro_rules! complete_bench {
    ($c:expr, $name:literal, $depth:expr, $prefill:expr) => {{
        let warm = $prefill;
        $c.bench_function(&format!("link/complete100_{}_{}", $name, $depth), |b| {
            b.iter_batched(
                || warm.clone(),
                |mut l| {
                    for _ in 0..100 {
                        let t = l.next_completion().expect("flows remain");
                        l.advance(t);
                    }
                    black_box(l.take_completed().len())
                },
                BatchSize::LargeInput,
            )
        });
    }};
}

fn bench_complete(c: &mut Criterion) {
    for depth in [1_000usize, 10_000] {
        complete_bench!(c, "indexed", depth, prefill_indexed(depth));
        complete_bench!(c, "oracle", depth, prefill_oracle(depth));
    }
}

// ---------------------------------------------------------------------
// Allocation report (satellite: warm-path allocation behaviour)
// ---------------------------------------------------------------------

fn report_churn_allocations() {
    const DEPTH: usize = 10_000;
    const OPS: usize = 10_000;
    println!("-- allocations over {OPS} churn ops at {DEPTH} active flows --");

    macro_rules! count {
        ($name:literal, $mk:expr) => {{
            let mut rng = Rng(0xa110c | 1);
            let mut link = $mk;
            let mut live: std::collections::VecDeque<FlowId> = (0..DEPTH)
                .map(|_| link.add_flow(elephant(&mut rng), SimTime::ZERO))
                .collect();
            let mut now = SimTime::ZERO;
            let before = allocations_here();
            for _ in 0..OPS {
                now += SimDuration::from_micros(10);
                link.advance(now);
                let victim = live.pop_front().expect("constant depth");
                link.cancel(victim, now);
                live.push_back(link.add_flow(elephant(&mut rng), now));
            }
            let after = allocations_here();
            println!("link/{:<8} {:>6} allocs", $name, after - before);
        }};
    }

    count!(
        "indexed",
        ProcessorSharingLink::new(LinkSpec::lan_100mbps())
    );
    count!(
        "oracle",
        oracle::ProcessorSharingLink::new(LinkSpec::lan_100mbps())
    );
}

fn bench_alloc_report(c: &mut Criterion) {
    // Not a timed bench — runs once so `cargo bench` output always
    // carries the allocation counts next to the latency numbers.
    let _ = c;
    report_churn_allocations();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_alloc_report, bench_churn, bench_complete
}
criterion_main!(benches);
