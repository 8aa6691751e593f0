//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is an ordered list of `(time, fault)` pairs that is
//! either hand-built or generated from a seed by
//! [`FaultPlan::randomized`]. The plan is pure data: replaying the same
//! `(seed, plan)` against the same world reproduces the exact same chaos
//! run, event for event. [`FaultPlan::schedule`] injects every fault
//! through the engine's event queue via a caller-supplied `apply`
//! bridge, so this crate stays ignorant of what a "host" or "VSN"
//! actually is — entities are raw `u64` ids here, the same convention
//! the [`crate::obs`] events use.

use crate::engine::{Ctx, Engine, HotEvents};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::fmt;

/// One injectable fault, entity ids as raw `u64`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// Fail-stop crash of a whole host: every VSN on it dies, its
    /// heartbeats stop, its resources become unavailable.
    HostCrash { host: u64 },
    /// The host comes back empty (rebooted): heartbeats resume, its
    /// capacity is placeable again.
    HostRepair { host: u64 },
    /// Crash a single VSN in place; the host stays up.
    VsnCrash { vsn: u64 },
    /// Arm one priming failure on a host: the next in-flight image
    /// download targeting it fails mid-flight instead of booting.
    PrimingFailure { host: u64 },
    /// The host's CPU runs `factor`× slower for `duration`.
    SlowHost {
        host: u64,
        factor: f64,
        duration: SimDuration,
    },
    /// The host's links drop each message with probability `loss` for
    /// `duration`.
    LinkLoss {
        host: u64,
        loss: f64,
        duration: SimDuration,
    },
    /// Full network partition of the host for `duration`: nothing in or
    /// out, but the host itself keeps running.
    LinkPartition { host: u64, duration: SimDuration },
    /// Fail-stop crash of the Master control plane. Data-plane switches
    /// keep routing; detection, journal replay and warm-standby takeover
    /// are the world's job.
    MasterCrash,
}

impl FaultSpec {
    /// Stable label for logs and obs events.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultSpec::HostCrash { .. } => "host_crash",
            FaultSpec::HostRepair { .. } => "host_repair",
            FaultSpec::VsnCrash { .. } => "vsn_crash",
            FaultSpec::PrimingFailure { .. } => "priming_failure",
            FaultSpec::SlowHost { .. } => "slow_host",
            FaultSpec::LinkLoss { .. } => "link_loss",
            FaultSpec::LinkPartition { .. } => "link_partition",
            FaultSpec::MasterCrash => "master_crash",
        }
    }

    /// The targeted host, when the fault targets one.
    pub fn host(&self) -> Option<u64> {
        match *self {
            FaultSpec::HostCrash { host }
            | FaultSpec::HostRepair { host }
            | FaultSpec::PrimingFailure { host }
            | FaultSpec::SlowHost { host, .. }
            | FaultSpec::LinkLoss { host, .. }
            | FaultSpec::LinkPartition { host, .. } => Some(host),
            FaultSpec::VsnCrash { .. } | FaultSpec::MasterCrash => None,
        }
    }

    /// The targeted VSN, when the fault targets one.
    pub fn vsn(&self) -> Option<u64> {
        match *self {
            FaultSpec::VsnCrash { vsn } => Some(vsn),
            _ => None,
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultSpec::HostCrash { host } => write!(f, "host_crash host={host}"),
            FaultSpec::HostRepair { host } => write!(f, "host_repair host={host}"),
            FaultSpec::VsnCrash { vsn } => write!(f, "vsn_crash vsn={vsn}"),
            FaultSpec::PrimingFailure { host } => write!(f, "priming_failure host={host}"),
            FaultSpec::SlowHost {
                host,
                factor,
                duration,
            } => write!(
                f,
                "slow_host host={host} factor={factor:.1} for={:.1}s",
                duration.as_secs_f64()
            ),
            FaultSpec::LinkLoss {
                host,
                loss,
                duration,
            } => write!(
                f,
                "link_loss host={host} p={loss:.2} for={:.1}s",
                duration.as_secs_f64()
            ),
            FaultSpec::LinkPartition { host, duration } => write!(
                f,
                "link_partition host={host} for={:.1}s",
                duration.as_secs_f64()
            ),
            FaultSpec::MasterCrash => write!(f, "master_crash"),
        }
    }
}

/// A fault pinned to a point in virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultInjection {
    /// Injection time.
    pub at: SimTime,
    /// What happens.
    pub fault: FaultSpec,
}

/// A correlated fault domain: hosts behind one rack switch / power rail
/// that fail together. Domain incidents are generated on top of the
/// independent per-host plan by [`FaultPlan::randomized`].
#[derive(Clone, Debug, PartialEq)]
pub struct FailureDomain {
    /// Label for logs ("rack-a", "tor-2").
    pub name: String,
    /// Hosts sharing the domain's fate (raw ids).
    pub hosts: Vec<u64>,
}

/// Knobs for [`FaultPlan::randomized`].
#[derive(Clone, Debug)]
pub struct ChaosProfile {
    /// Hosts eligible for targeting (raw ids).
    pub hosts: Vec<u64>,
    /// No injections before this time.
    pub start: SimTime,
    /// No injections at or after this time.
    pub end: SimTime,
    /// Mean gap between injections (exponentially distributed).
    pub mean_gap: SimDuration,
    /// Mean delay before a crashed host is repaired; actual delays are
    /// uniform in `[0.5×, 1.5×]` this. Keeps long soaks from
    /// monotonically exhausting the host pool.
    pub mean_repair: SimDuration,
    /// Correlated fault domains. Each domain suffers one incident per
    /// run: either a simultaneous crash of all its hosts (with staggered
    /// repairs) or a simultaneous partition with per-host durations —
    /// asymmetric healing, some hosts regain the network before others.
    /// Empty = no domain events; the rest of the plan is byte-identical
    /// to one generated without this field (the domain stream draws from
    /// its own salted RNG).
    pub domains: Vec<FailureDomain>,
    /// Master crashes to fold into the plan, uniform over the window
    /// (their own salted RNG: 0 leaves the plan untouched).
    pub master_crashes: u32,
}

/// An ordered, replayable schedule of fault injections.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    injections: Vec<FaultInjection>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder-style insertion, keeps the plan time-ordered.
    pub fn inject(mut self, at: SimTime, fault: FaultSpec) -> Self {
        self.push(at, fault);
        self
    }

    /// Insert an injection, keeping the plan time-ordered (stable for
    /// equal times: earlier insertions fire first).
    pub fn push(&mut self, at: SimTime, fault: FaultSpec) {
        let pos = self.injections.partition_point(|i| i.at <= at);
        self.injections.insert(pos, FaultInjection { at, fault });
    }

    /// The injections in firing order.
    pub fn injections(&self) -> &[FaultInjection] {
        &self.injections
    }

    /// Number of injections.
    pub fn len(&self) -> usize {
        self.injections.len()
    }

    /// True when the plan holds no injections.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }

    /// Generate a randomized plan from a seed. The generator uses its
    /// own RNG — never the engine's — so the plan depends only on
    /// `(seed, profile)` and building it perturbs nothing.
    ///
    /// Crashed hosts are tracked so a host is not crashed twice before
    /// its paired [`FaultSpec::HostRepair`] fires; VSN crashes are not
    /// generated here because VSN ids are only known at run time (inject
    /// those by hand with [`FaultPlan::push`]).
    pub fn randomized(seed: u64, profile: &ChaosProfile) -> FaultPlan {
        assert!(!profile.hosts.is_empty(), "chaos profile needs hosts");
        let mut rng = SimRng::new(seed);
        let mut plan = FaultPlan::new();
        let mut down_until: Vec<(u64, SimTime)> = Vec::new();
        let mut t = profile.start;
        loop {
            let gap = rng.exp(profile.mean_gap.as_secs_f64());
            t += SimDuration::from_secs_f64(gap);
            if t >= profile.end {
                break;
            }
            let host = profile.hosts[rng.index(profile.hosts.len())];
            let host_down = down_until.iter().any(|&(h, until)| h == host && until > t);
            let roll = rng.f64();
            if roll < 0.30 {
                if host_down {
                    continue;
                }
                let repair_secs = profile.mean_repair.as_secs_f64() * (0.5 + rng.f64());
                let back = t + SimDuration::from_secs_f64(repair_secs);
                plan.push(t, FaultSpec::HostCrash { host });
                plan.push(back, FaultSpec::HostRepair { host });
                down_until.retain(|&(h, _)| h != host);
                down_until.push((host, back));
            } else if roll < 0.50 {
                plan.push(t, FaultSpec::PrimingFailure { host });
            } else if roll < 0.70 {
                let factor = 2.0 + 4.0 * rng.f64();
                let duration = SimDuration::from_secs_f64(10.0 + 30.0 * rng.f64());
                plan.push(
                    t,
                    FaultSpec::SlowHost {
                        host,
                        factor,
                        duration,
                    },
                );
            } else if roll < 0.85 {
                let duration = SimDuration::from_secs_f64(5.0 + 15.0 * rng.f64());
                plan.push(t, FaultSpec::LinkPartition { host, duration });
            } else {
                let loss = 0.3 + 0.6 * rng.f64();
                let duration = SimDuration::from_secs_f64(10.0 + 20.0 * rng.f64());
                plan.push(
                    t,
                    FaultSpec::LinkLoss {
                        host,
                        loss,
                        duration,
                    },
                );
            }
        }
        // Correlated domain incidents and Master crashes draw from their
        // own salted streams, appended after the base loop: a profile
        // without them generates the exact bytes it always has, so
        // existing seeds' fingerprints survive the feature.
        if !profile.domains.is_empty() {
            const DOMAIN_SALT: u64 = 0xd0ca_11ed_4ac5_a17e;
            let mut rng = SimRng::new(seed ^ DOMAIN_SALT);
            let window = profile.end.saturating_since(profile.start).as_secs_f64();
            for domain in &profile.domains {
                if domain.hosts.is_empty() || window <= 0.0 {
                    continue;
                }
                let t = profile.start + SimDuration::from_secs_f64(window * rng.f64());
                if rng.bool(0.5) {
                    // The rack loses power: every host crashes at the
                    // same instant, repairs stagger back in.
                    for &host in &domain.hosts {
                        plan.push(t, FaultSpec::HostCrash { host });
                        let repair_secs = profile.mean_repair.as_secs_f64() * (0.5 + rng.f64());
                        plan.push(
                            t + SimDuration::from_secs_f64(repair_secs),
                            FaultSpec::HostRepair { host },
                        );
                    }
                } else {
                    // The rack switch wedges: every host partitions at
                    // once, but healing is asymmetric — per-host
                    // durations, so some hosts rejoin before others.
                    for &host in &domain.hosts {
                        let duration = SimDuration::from_secs_f64(5.0 + 15.0 * rng.f64());
                        plan.push(t, FaultSpec::LinkPartition { host, duration });
                    }
                }
            }
        }
        if profile.master_crashes > 0 {
            const MASTER_SALT: u64 = 0x5eed_0fad_ead5_0da5;
            let mut rng = SimRng::new(seed ^ MASTER_SALT);
            let window = profile.end.saturating_since(profile.start).as_secs_f64();
            for _ in 0..profile.master_crashes {
                let t = profile.start + SimDuration::from_secs_f64(window * rng.f64());
                plan.push(t, FaultSpec::MasterCrash);
            }
        }
        plan
    }

    /// Arm every injection on the engine. `apply` bridges a [`FaultSpec`]
    /// to an actual mutation of the world `S`; it is cloned per
    /// injection.
    pub fn schedule<S: HotEvents, F>(&self, engine: &mut Engine<S>, apply: F)
    where
        F: Fn(&mut S, &mut Ctx<S>, FaultSpec) + Clone + 'static,
    {
        for inj in &self.injections {
            let fault = inj.fault;
            let apply = apply.clone();
            engine.schedule_at_as("fault", inj.at, move |state: &mut S, ctx: &mut Ctx<S>| {
                apply(state, ctx, fault);
            });
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fault plan ({} injections):", self.injections.len())?;
        for inj in &self.injections {
            writeln!(f, "  t={:9.3}s  {}", inj.at.as_secs_f64(), inj.fault)?;
        }
        Ok(())
    }
}

impl serde::Serialize for FaultSpec {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        let mut fields = vec![("kind".to_string(), Value::String(self.kind().to_string()))];
        if let Some(h) = self.host() {
            fields.push(("host".to_string(), Value::U64(h)));
        }
        if let Some(v) = self.vsn() {
            fields.push(("vsn".to_string(), Value::U64(v)));
        }
        match *self {
            FaultSpec::SlowHost {
                factor, duration, ..
            } => {
                fields.push(("factor".to_string(), Value::F64(factor)));
                fields.push(("secs".to_string(), Value::F64(duration.as_secs_f64())));
            }
            FaultSpec::LinkLoss { loss, duration, .. } => {
                fields.push(("loss".to_string(), Value::F64(loss)));
                fields.push(("secs".to_string(), Value::F64(duration.as_secs_f64())));
            }
            FaultSpec::LinkPartition { duration, .. } => {
                fields.push(("secs".to_string(), Value::F64(duration.as_secs_f64())));
            }
            _ => {}
        }
        Value::Object(fields)
    }
}

impl serde::Serialize for FaultInjection {
    fn to_json_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("at_secs".to_string(), Value::F64(self.at.as_secs_f64())),
            ("fault".to_string(), self.fault.to_json_value()),
        ])
    }
}

impl serde::Serialize for FaultPlan {
    fn to_json_value(&self) -> serde::Value {
        self.injections.to_json_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ChaosProfile {
        ChaosProfile {
            hosts: vec![1, 2, 3],
            start: SimTime::from_secs(10),
            end: SimTime::from_secs(300),
            mean_gap: SimDuration::from_secs(15),
            mean_repair: SimDuration::from_secs(30),
            domains: Vec::new(),
            master_crashes: 0,
        }
    }

    #[test]
    fn randomized_plan_is_deterministic_per_seed() {
        let a = FaultPlan::randomized(7, &profile());
        let b = FaultPlan::randomized(7, &profile());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = FaultPlan::randomized(8, &profile());
        assert_ne!(a, c);
    }

    #[test]
    fn randomized_plan_is_ordered_and_in_window() {
        let plan = FaultPlan::randomized(3, &profile());
        let mut prev = SimTime::ZERO;
        for inj in plan.injections() {
            assert!(inj.at >= prev, "plan out of order");
            prev = inj.at;
            // Repairs may land past `end`; everything else must not.
            if !matches!(inj.fault, FaultSpec::HostRepair { .. }) {
                assert!(inj.at >= SimTime::from_secs(10));
                assert!(inj.at < SimTime::from_secs(300));
            }
        }
    }

    #[test]
    fn every_crash_is_paired_with_a_later_repair() {
        let plan = FaultPlan::randomized(11, &profile());
        for (i, inj) in plan.injections().iter().enumerate() {
            if let FaultSpec::HostCrash { host } = inj.fault {
                let repaired = plan.injections()[i..].iter().any(|later| {
                    later.at > inj.at && later.fault == FaultSpec::HostRepair { host }
                });
                assert!(repaired, "crash of host {host} never repaired");
            }
        }
    }

    #[test]
    fn push_keeps_stable_time_order() {
        let plan = FaultPlan::new()
            .inject(SimTime::from_secs(5), FaultSpec::HostCrash { host: 1 })
            .inject(SimTime::from_secs(1), FaultSpec::VsnCrash { vsn: 9 })
            .inject(SimTime::from_secs(5), FaultSpec::HostRepair { host: 2 });
        let kinds: Vec<_> = plan.injections().iter().map(|i| i.fault.kind()).collect();
        assert_eq!(kinds, vec!["vsn_crash", "host_crash", "host_repair"]);
    }

    #[test]
    fn empty_domains_leave_the_base_plan_untouched() {
        let base = FaultPlan::randomized(19, &profile());
        let mut p = profile();
        p.domains = Vec::new();
        p.master_crashes = 0;
        assert_eq!(base, FaultPlan::randomized(19, &p));
    }

    #[test]
    fn domain_incident_hits_all_member_hosts_at_once() {
        let mut p = profile();
        p.domains = vec![FailureDomain {
            name: "rack-a".into(),
            hosts: vec![1, 2],
        }];
        let plan = FaultPlan::randomized(19, &p);
        // The base plan (no domains) is a strict subset, in order.
        let base = FaultPlan::randomized(19, &profile());
        let mut base_iter = base.injections().iter();
        for inj in plan.injections() {
            if base_iter.clone().next() == Some(inj) {
                base_iter.next();
            }
        }
        assert!(base_iter.next().is_none(), "base plan preserved verbatim");
        // The extra injections target both domain hosts from one instant:
        // either both crash at the same t, or both partition at the same t.
        let extras: Vec<&FaultInjection> = plan
            .injections()
            .iter()
            .filter(|i| !base.injections().contains(i))
            .collect();
        assert!(!extras.is_empty(), "domain produced an incident");
        let first_t = extras[0].at;
        let correlated = extras.iter().filter(|i| i.at == first_t).count();
        assert!(correlated >= 2, "hosts 1 and 2 hit together: {extras:?}");
    }

    #[test]
    fn master_crashes_fold_into_the_window() {
        let mut p = profile();
        p.master_crashes = 2;
        let plan = FaultPlan::randomized(5, &p);
        let crashes: Vec<&FaultInjection> = plan
            .injections()
            .iter()
            .filter(|i| i.fault == FaultSpec::MasterCrash)
            .collect();
        assert_eq!(crashes.len(), 2);
        for c in crashes {
            assert!(c.at >= p.start && c.at < p.end);
        }
        // Deterministic per seed.
        assert_eq!(plan, FaultPlan::randomized(5, &p));
    }

    #[test]
    fn schedule_applies_every_fault_at_its_time() {
        #[derive(Default)]
        struct W {
            seen: Vec<(u64, &'static str)>,
        }
        impl crate::HotEvents for W {
            type Hot = std::convert::Infallible;
        }
        let plan = FaultPlan::new()
            .inject(SimTime::from_secs(2), FaultSpec::HostCrash { host: 4 })
            .inject(SimTime::from_secs(1), FaultSpec::PrimingFailure { host: 2 });
        let mut engine = Engine::new(W::default());
        plan.schedule(&mut engine, |w: &mut W, ctx, fault| {
            w.seen.push((ctx.now().as_secs_f64() as u64, fault.kind()));
        });
        engine.run_to_completion();
        assert_eq!(
            engine.state().seen,
            vec![(1, "priming_failure"), (2, "host_crash")]
        );
    }
}
