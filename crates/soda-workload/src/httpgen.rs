//! HTTP request generators (the `siege` substitute).
//!
//! Both generators drive [`soda_core::world::submit_request`] on an
//! [`Engine<SodaWorld>`]; arrivals self-schedule, so a generator started
//! once keeps firing until its configured end time.

use soda_core::service::ServiceId;
use soda_core::world::{submit_request, submit_request_with_callback, SodaWorld};
use soda_sim::{Ctx, Engine, SimDuration, SimTime};

/// Open-loop Poisson arrivals at a fixed mean rate.
#[derive(Clone, Copy, Debug)]
pub struct PoissonGenerator {
    /// Target service.
    pub service: ServiceId,
    /// Response body size per request.
    pub dataset_bytes: u64,
    /// Mean arrival rate, requests/second (> 0).
    pub rate_rps: f64,
    /// First arrival no earlier than this.
    pub start: SimTime,
    /// No arrivals at or after this.
    pub end: SimTime,
}

impl PoissonGenerator {
    /// Install the generator on the engine. Arrival times are drawn from
    /// the engine's deterministic RNG.
    pub fn start(self, engine: &mut Engine<SodaWorld>) {
        assert!(self.rate_rps > 0.0, "rate must be positive");
        let first = {
            let gap = engine.rng_mut().exp(1.0 / self.rate_rps);
            self.start + SimDuration::from_secs_f64(gap)
        };
        engine.schedule_at_as("client_arrival", first, move |w: &mut SodaWorld, ctx| {
            self.fire(w, ctx)
        });
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        if ctx.now() >= self.end {
            return;
        }
        submit_request(world, ctx, self.service, self.dataset_bytes);
        let gap = ctx.rng().exp(1.0 / self.rate_rps);
        let next = ctx.now() + SimDuration::from_secs_f64(gap);
        if next < self.end {
            ctx.schedule_at_as("client_arrival", next, move |w: &mut SodaWorld, ctx| {
                self.fire(w, ctx)
            });
        }
    }
}

/// Deterministic fixed-interval arrivals (exactly `rate_rps` requests
/// per second) — useful when run-to-run noise must be zero.
#[derive(Clone, Copy, Debug)]
pub struct PacedGenerator {
    /// Target service.
    pub service: ServiceId,
    /// Response body size per request.
    pub dataset_bytes: u64,
    /// Arrival rate, requests/second (> 0).
    pub rate_rps: f64,
    /// First arrival.
    pub start: SimTime,
    /// No arrivals at or after this.
    pub end: SimTime,
}

impl PacedGenerator {
    /// Install the generator on the engine.
    pub fn start(self, engine: &mut Engine<SodaWorld>) {
        assert!(self.rate_rps > 0.0, "rate must be positive");
        engine.schedule_at_as(
            "client_arrival",
            self.start,
            move |w: &mut SodaWorld, ctx| self.fire(w, ctx),
        );
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        if ctx.now() >= self.end {
            return;
        }
        submit_request(world, ctx, self.service, self.dataset_bytes);
        let next = ctx.now() + SimDuration::from_secs_f64(1.0 / self.rate_rps);
        if next < self.end {
            ctx.schedule_at_as("client_arrival", next, move |w: &mut SodaWorld, ctx| {
                self.fire(w, ctx)
            });
        }
    }
}

/// Closed-loop clients, the way `siege` actually works: `clients`
/// virtual users each keep exactly one request outstanding, waiting for
/// the response and then thinking for an exponentially distributed pause
/// before the next request. Throughput self-adjusts to the service's
/// speed — the property that distinguishes closed-loop from open-loop
/// load.
#[derive(Clone, Copy, Debug)]
pub struct ClosedLoopGenerator {
    /// Target service.
    pub service: ServiceId,
    /// Response body size per request.
    pub dataset_bytes: u64,
    /// Number of concurrent virtual users (`siege -c`).
    pub clients: u32,
    /// Mean think time between a response and the next request.
    pub mean_think: SimDuration,
    /// First requests at this time.
    pub start: SimTime,
    /// Clients stop issuing at this time (in-flight responses drain).
    pub end: SimTime,
}

impl ClosedLoopGenerator {
    /// Install the generator: each client's first request fires at
    /// `start` plus a small deterministic stagger.
    pub fn start(self, engine: &mut Engine<SodaWorld>) {
        assert!(self.clients > 0, "need at least one client");
        for i in 0..self.clients {
            // Stagger client start-ups over one mean think time so the
            // first wave is not a synchronized burst.
            let stagger = SimDuration::from_nanos(
                self.mean_think.as_nanos().saturating_mul(i as u64) / self.clients as u64,
            );
            engine.schedule_at_as(
                "client_arrival",
                self.start + stagger,
                move |w: &mut SodaWorld, ctx| {
                    self.fire(w, ctx);
                },
            );
        }
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        if ctx.now() >= self.end {
            return;
        }
        submit_request_with_callback(
            world,
            ctx,
            self.service,
            self.dataset_bytes,
            Some(Box::new(move |_w: &mut SodaWorld, ctx, outcome| {
                // Whether served or dropped, the client thinks and
                // retries (a dropped request costs a full think time,
                // like a user hitting reload).
                let _ = outcome;
                let think = ctx.rng().exp(self.mean_think.as_secs_f64());
                let next = ctx.now() + SimDuration::from_secs_f64(think);
                if next < self.end {
                    ctx.schedule_at_as("client_arrival", next, move |w: &mut SodaWorld, ctx| {
                        self.fire(w, ctx)
                    });
                }
            })),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soda_core::service::ServiceSpec;
    use soda_core::world::create_service_driven;
    use soda_hostos::resources::ResourceVector;
    use soda_vmm::rootfs::RootFsCatalog;
    use soda_vmm::sysservices::StartupClass;

    fn web_engine() -> (Engine<SodaWorld>, ServiceId) {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), 42);
        let spec = ServiceSpec {
            name: "web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 8080,
        };
        let svc = create_service_driven(&mut engine, spec, "webco").unwrap();
        engine.run_until(SimTime::from_secs(120));
        assert_eq!(engine.state().creations.len(), 1);
        (engine, svc)
    }

    #[test]
    fn paced_generator_fires_exactly_rate_times_duration() {
        let (mut engine, svc) = web_engine();
        let t0 = engine.now();
        PacedGenerator {
            service: svc,
            dataset_bytes: 10_000,
            rate_rps: 10.0,
            start: t0,
            end: t0 + SimDuration::from_secs(10),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(60));
        // 10 rps × 10 s = 100 requests, all completed.
        assert_eq!(engine.state().completed.len(), 100);
        assert_eq!(engine.state().dropped, 0);
    }

    #[test]
    fn poisson_generator_hits_mean_rate() {
        let (mut engine, svc) = web_engine();
        let t0 = engine.now();
        PoissonGenerator {
            service: svc,
            dataset_bytes: 10_000,
            rate_rps: 20.0,
            start: t0,
            end: t0 + SimDuration::from_secs(60),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(200));
        let n = engine.state().completed.len() as f64;
        // 20 rps × 60 s = 1200 expected; Poisson σ ≈ 35.
        assert!((1050.0..1350.0).contains(&n), "completed {n}");
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let run = || {
            let (mut engine, svc) = web_engine();
            let t0 = engine.now();
            PoissonGenerator {
                service: svc,
                dataset_bytes: 10_000,
                rate_rps: 5.0,
                start: t0,
                end: t0 + SimDuration::from_secs(20),
            }
            .start(&mut engine);
            engine.run_until(t0 + SimDuration::from_secs(100));
            engine
                .state()
                .completed
                .iter()
                .map(|r| r.completed.as_nanos())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn closed_loop_keeps_bounded_outstanding() {
        let (mut engine, svc) = web_engine();
        let t0 = engine.now();
        let clients = 8;
        ClosedLoopGenerator {
            service: svc,
            dataset_bytes: 50_000,
            clients,
            mean_think: SimDuration::from_millis(200),
            start: t0,
            end: t0 + SimDuration::from_secs(30),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(90));
        let w = engine.state();
        let n = w.completed.len();
        // Rough throughput sanity: ≤ clients / (think) requests per
        // second (response time adds on top), and well above zero.
        assert!(n > 200, "completed {n}");
        assert!(
            n as f64 <= clients as f64 * 30.0 / 0.2 * 1.2,
            "completed {n}"
        );
        // Closed loop: at no instant can more than `clients` requests be
        // outstanding, so the 2:1 split still holds approximately.
        let counts = w.switch_for(svc).unwrap().served_counts();
        let ratio = counts[0] as f64 / counts[1].max(1) as f64;
        assert!((1.6..2.4).contains(&ratio), "{counts:?}");
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let run = || {
            let (mut engine, svc) = web_engine();
            let t0 = engine.now();
            ClosedLoopGenerator {
                service: svc,
                dataset_bytes: 20_000,
                clients: 3,
                mean_think: SimDuration::from_millis(100),
                start: t0,
                end: t0 + SimDuration::from_secs(10),
            }
            .start(&mut engine);
            engine.run_until(t0 + SimDuration::from_secs(60));
            engine.state().completed.len()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn generators_respect_the_2_1_split() {
        let (mut engine, svc) = web_engine();
        let t0 = engine.now();
        PacedGenerator {
            service: svc,
            dataset_bytes: 50_000,
            rate_rps: 30.0,
            start: t0,
            end: t0 + SimDuration::from_secs(10),
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(60));
        let counts = engine.state().switch_for(svc).unwrap().served_counts();
        // 30 rps × 10 s ≈ 300 (± 1 from nanosecond truncation of the
        // 1/30 s interval).
        let total = counts.iter().sum::<u64>();
        assert!((300..=301).contains(&total), "total {total}");
        let ratio = counts[0] as f64 / counts[1] as f64;
        assert!(
            (1.95..2.05).contains(&ratio),
            "seattle serves 2×: {counts:?}"
        );
    }
}
