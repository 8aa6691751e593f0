//! Regenerates Figure 3: the side-by-side consoles of the web-content
//! and honeypot virtual service nodes co-existing on HUP host *seattle* —
//! each guest's `ps -ef` shows only its own processes.

use soda_core::service::ServiceSpec;
use soda_core::world::{create_service_driven, SodaWorld};
use soda_hostos::resources::ResourceVector;
use soda_sim::{Engine, SimTime};
use soda_vmm::rootfs::RootFsCatalog;
use soda_vmm::sysservices::StartupClass;

fn main() {
    let mut engine = Engine::with_seed(SodaWorld::testbed(), 2003);
    let m = ResourceVector::TABLE1_EXAMPLE;
    let web = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "Web".into(),
            image: RootFsCatalog::new().base_1_0(),
            required_services: vec!["network", "syslogd"],
            app_class: StartupClass::Light,
            instances: 3,
            machine: m,
            port: 8080,
        },
        "webco",
    )
    .expect("web admitted");
    let honeypot = create_service_driven(
        &mut engine,
        ServiceSpec {
            name: "Honeypot".into(),
            image: RootFsCatalog::new().tomsrtbt(),
            required_services: vec!["network"],
            app_class: StartupClass::Light,
            instances: 1,
            machine: m,
            port: 80,
        },
        "seclab",
    )
    .expect("honeypot admitted");
    engine.run_until(SimTime::from_secs(120));
    assert_eq!(engine.state().creations.len(), 2);

    let world = engine.state();
    let hp_node = world.service_record(honeypot).expect("exists").nodes[0];
    let web_node = world
        .service_record(web)
        .expect("exists")
        .nodes
        .iter()
        .find(|n| n.host == hp_node.host)
        .copied()
        .expect("co-hosted on seattle");
    let daemon = world
        .daemons
        .iter()
        .find(|d| d.host.id == hp_node.host)
        .expect("host");

    // Build both consoles, then print them side by side like the
    // screenshot.
    let console = |vsn| -> Vec<String> {
        let guest = daemon
            .vsn(vsn)
            .and_then(|v| v.guest())
            .expect("running guest");
        let mut lines: Vec<String> = guest
            .login_banner()
            .lines()
            .map(|s| s.to_string())
            .collect();
        lines.push("# ps -ef".into());
        let procs: Vec<_> = daemon.host.processes.ps_uid(guest.uid).collect();
        for p in procs {
            lines.push(format!("  {:>4} {:>4}  {}", p.pid, p.uid, p.command));
        }
        lines
    };
    let left = console(web_node.vsn);
    let right = console(hp_node.vsn);
    println!("== Figure 3 — co-existing virtual service nodes on seattle ==");
    let width = left.iter().map(|l| l.len()).max().unwrap_or(0).max(30);
    let rows = left.len().max(right.len());
    for i in 0..rows {
        let l = left.get(i).map(|s| s.as_str()).unwrap_or("");
        let r = right.get(i).map(|s| s.as_str()).unwrap_or("");
        println!("{l:<width$}  |  {r}");
    }
    println!();
    println!(
        "host view: {} processes total across both guests + host",
        daemon.host.processes.len()
    );
    println!("each guest sees only its own uid's processes — administration isolation");

    #[derive(serde::Serialize)]
    struct ConsoleReport {
        web_console: Vec<String>,
        honeypot_console: Vec<String>,
        host_process_count: usize,
    }
    soda_bench::emit_json(
        "exp_fig3_consoles",
        &ConsoleReport {
            web_console: left,
            honeypot_console: right,
            host_process_count: daemon.host.processes.len(),
        },
    );
}
