//! Attack drivers: the ghttpd exploit campaign and the DDoS flood.
//!
//! §2.1: "one known attack to ghttpd is: a malicious packet is sent as
//! an HTTP request, causing buffer overflow to bind a shell on a certain
//! port. Then the attacker can remotely log in using the port, and run a
//! remote shell!" §5 runs a honeypot that "is constantly attacked and
//! crashed" while the co-hosted web service continues unharmed.

use soda_core::service::ServiceId;
use soda_core::world::{attack_node, ddos_switch_host, revive_node, SodaWorld};
use soda_sim::{Ctx, Engine, SimDuration, SimTime};
use soda_vmm::isolation::FaultKind;
use soda_vmm::vsn::VsnId;

/// A repeating exploit campaign against one node: every `period` the
/// attacker fires the buffer-overflow, crashes the node, and SODA
/// re-primes it (the honeypot's purpose is to be attacked again).
#[derive(Clone, Copy, Debug)]
pub struct AttackCampaign {
    /// The victim service.
    pub service: ServiceId,
    /// The victim node.
    pub vsn: VsnId,
    /// Time between attack attempts.
    pub period: SimDuration,
    /// First attack.
    pub start: SimTime,
    /// No attacks at or after this.
    pub end: SimTime,
    /// Re-prime the node after each successful crash?
    pub revive: bool,
}

impl AttackCampaign {
    /// Install the campaign on the engine.
    pub fn start(self, engine: &mut Engine<SodaWorld>) {
        engine.schedule_at(self.start, move |w: &mut SodaWorld, ctx| self.fire(w, ctx));
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        if ctx.now() >= self.end {
            return;
        }
        let blast = attack_node(
            world,
            ctx,
            self.service,
            self.vsn,
            FaultKind::RootCompromise,
        );
        if blast.service_down && self.revive {
            // SODA re-primes the honeypot so it can be attacked again.
            let _ = revive_node(world, ctx, self.service, self.vsn);
        }
        let next = ctx.now() + self.period;
        if next < self.end {
            ctx.schedule_at(next, move |w: &mut SodaWorld, ctx| self.fire(w, ctx));
        }
    }
}

/// A repeating DDoS flood against a service's switch host: every
/// `period`, `flows_per_wave` elephant flows of `bytes_each` land on
/// the victim host's NIC.
#[derive(Clone, Copy, Debug)]
pub struct DdosFlood {
    /// The service whose switch is targeted.
    pub service: ServiceId,
    /// Flows per wave.
    pub flows_per_wave: u32,
    /// Bytes per flow.
    pub bytes_each: u64,
    /// Time between waves.
    pub period: SimDuration,
    /// First wave.
    pub start: SimTime,
    /// No waves at or after this.
    pub end: SimTime,
}

impl DdosFlood {
    /// Install the flood on the engine.
    pub fn start(self, engine: &mut Engine<SodaWorld>) {
        engine.schedule_at(self.start, move |w: &mut SodaWorld, ctx| self.fire(w, ctx));
    }

    fn fire(self, world: &mut SodaWorld, ctx: &mut Ctx<SodaWorld>) {
        if ctx.now() >= self.end {
            return;
        }
        let _ = ddos_switch_host(
            world,
            ctx,
            self.service,
            self.flows_per_wave,
            self.bytes_each,
        );
        let next = ctx.now() + self.period;
        if next < self.end {
            ctx.schedule_at(next, move |w: &mut SodaWorld, ctx| self.fire(w, ctx));
        }
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

    fn honeypot_engine() -> (Engine<SodaWorld>, ServiceId, VsnId) {
        let mut engine = Engine::with_seed(SodaWorld::testbed(), 9);
        let spec = ServiceSpec {
            name: "honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: ResourceVector::TABLE1_EXAMPLE,
            port: 80,
        };
        let svc = create_service_driven(&mut engine, spec, "seclab").unwrap();
        engine.run_until(SimTime::from_secs(60));
        assert_eq!(engine.state().creations.len(), 1);
        let vsn = engine.state().service_record(svc).unwrap().nodes[0].vsn;
        (engine, svc, vsn)
    }

    #[test]
    fn campaign_crashes_repeatedly_with_revival() {
        let (mut engine, svc, vsn) = honeypot_engine();
        let t0 = engine.now();
        AttackCampaign {
            service: svc,
            vsn,
            period: SimDuration::from_secs(60),
            start: t0 + SimDuration::from_secs(1),
            end: t0 + SimDuration::from_secs(301),
            revive: true,
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(600));
        let w = engine.state();
        let host = w.service_record(svc).unwrap().nodes[0].host;
        let d = w.daemons.iter().find(|d| d.host.id == host).unwrap();
        // 5 waves fired (t+1, 61, 121, 181, 241), each crashing once.
        // Bootstrap (~3–5 s) finishes well inside each 60 s period.
        assert_eq!(d.vsn(vsn).unwrap().crash_count, 5);
        assert!(
            d.vsn(vsn).unwrap().is_running(),
            "revived after last attack"
        );
    }

    #[test]
    fn campaign_without_revival_crashes_once() {
        let (mut engine, svc, vsn) = honeypot_engine();
        let t0 = engine.now();
        AttackCampaign {
            service: svc,
            vsn,
            period: SimDuration::from_secs(10),
            start: t0,
            end: t0 + SimDuration::from_secs(100),
            revive: false,
        }
        .start(&mut engine);
        engine.run_until(t0 + SimDuration::from_secs(200));
        let w = engine.state();
        let host = w.service_record(svc).unwrap().nodes[0].host;
        let d = w.daemons.iter().find(|d| d.host.id == host).unwrap();
        // First attack crashes it; later attacks find it already down.
        assert_eq!(d.vsn(vsn).unwrap().crash_count, 1);
        assert!(!d.vsn(vsn).unwrap().is_running());
    }

    #[test]
    fn ddos_flood_loads_the_nic() {
        let (mut engine, svc, _) = honeypot_engine();
        let t0 = engine.now();
        DdosFlood {
            service: svc,
            flows_per_wave: 5,
            bytes_each: 10_000_000,
            period: SimDuration::from_secs(5),
            start: t0,
            end: t0 + SimDuration::from_secs(11),
        }
        .start(&mut engine);
        // Run a moment past the waves: flows are in flight on the NIC.
        engine.run_until(t0 + SimDuration::from_secs(6));
        let w = engine.state();
        let host = w.service_record(svc).unwrap().nodes[0].host;
        assert!(w.nics[&host].active_flows() > 0, "flood occupies the NIC");
    }
}
