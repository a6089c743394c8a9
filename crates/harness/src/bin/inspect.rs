//! `inspect` — watches one workload epoch by epoch: UMON miss curves
//! (CURVES=1), UCP quotas / CP allocations, powered ways and per-core
//! IPC. Env: WORKLOAD=spec (any workload-registry spec — a named group
//! like G2-1, an ad-hoc mix like `soplex,namd`, or `trace:path.ctrace`),
//! SCHEME=policy-name (resolved through the harness policy registry),
//! EPOCHS=n (default 34), QOS_SLACK=fraction (dvfs/cbp, default 0.10).
//! Unknown workload or policy names print the registered lists and exit
//! 2; a malformed EPOCHS or QOS_SLACK exits 2 with a one-line message. Every
//! policy prints the same epoch line; an epoch whose decision hints clock
//! ratios, bandwidth shares or prefetch degrees appends `ghz=`, `bw=` or
//! `pf=` with them, and the first such decision announces the coordinated
//! resources and the QoS slack.
use coop_core::{LlcConfig, PartitionedLlc, PolicySpec, SchemeKind};
use cpusim::{Core, CoreConfig, EpochControl, LlcPort, StepperKind, SystemStepper, VfTable};
use harness::{drive_epoch, policy_registry, workload_registry};
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};

struct Port<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
}
impl LlcPort for Port<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.llc.access(now, core, line, write, self.dram)
    }
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.llc.writeback(now, core, line, self.dram);
    }
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.llc.prefetch(now, core, line, self.dram)
    }
}

/// The environment variable `name` parsed as a `T`, or `default` when
/// unset; a value that does not parse exits 2 with a one-line message.
fn env_or<T: std::str::FromStr>(name: &str, default: T, what: &str) -> T {
    match std::env::var(name) {
        Err(_) => default,
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{name}: '{v}' is not {what}");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let registry = policy_registry();
    if std::env::args().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: inspect\n\
             env: WORKLOAD=<spec> (default G2-1; a group like G2-1/G4-3/G8-2, a mix like\n\
             \x20             'soplex,namd', or 'trace:path.ctrace')\n\
             \x20    SCHEME=<policy> (default ucp; one of: {})\n\
             \x20    CURVES=1 to print per-epoch UMON miss curves\n\
             \x20    EPOCHS=n epochs to watch (default 34)\n\
             \x20    QOS_SLACK=fraction for SCHEME=dvfs/cbp (default 0.10)",
            registry.names().join(", ")
        );
        return;
    }
    let spec = std::env::var("WORKLOAD").unwrap_or_else(|_| "G2-1".into());
    let workloads_reg = workload_registry();
    let workload = match workloads_reg.resolve(&spec) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let requested = std::env::var("SCHEME").unwrap_or_else(|_| "ucp".into());
    let Some(policy_name) = registry.resolve(&requested) else {
        eprintln!("unknown policy '{requested}'; registered policies:");
        for name in registry.names() {
            let entry = registry.entry(name).expect("listed name resolves");
            eprintln!("  {name:12} {}", entry.summary);
        }
        std::process::exit(2);
    };
    let qos_slack: f64 = env_or("QOS_SLACK", 0.10, "a fraction");
    let curves = std::env::var("CURVES").is_ok();
    let epochs: u64 = env_or("EPOCHS", 34, "an epoch count");
    let n = workload.cores();
    println!("{} under {}", workload, policy_name);
    let mut cores: Vec<Core> = workload
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            Core::new(
                CoreId(i as u8),
                CoreConfig::default(),
                m.source(0x5EED ^ ((i as u64) << 32)),
            )
        })
        .collect();
    let legacy_scheme = registry
        .entry(policy_name)
        .and_then(|e| e.scheme)
        .unwrap_or(SchemeKind::Cooperative);
    let llc_cfg = LlcConfig::for_cores(n, legacy_scheme).with_epoch(500_000);
    let ways = llc_cfg.geom.ways();
    let spec = PolicySpec::for_llc(&llc_cfg, n).with_qos_slack(qos_slack);
    let mut policy = registry.build(policy_name, &spec).expect("name resolved");
    if let Some(cpe) = (policy.as_mut() as &mut dyn std::any::Any)
        .downcast_mut::<coop_core::policy::DynamicCpePolicy>()
    {
        // Without a solo profile the CPE policy never repartitions; feed it
        // the quick-scale profile so the watched epochs actually move.
        println!("profiling solo runs for the Dynamic CPE profile...");
        cpe.set_profile(harness::solo::cpe_profile_for(
            &workload,
            harness::solo::solo_llc(n),
            harness::SimScale::quick(),
        ));
    }
    let mut llc = PartitionedLlc::for_policy(llc_cfg, n, policy.as_ref());
    let mut dram = Dram::new(DramConfig::default());
    let nominal_ghz = VfTable::paper_45nm().nominal().freq_ghz;
    // Run through the shared stepping API (one `stepper.run` call per
    // watched epoch; the callback prints and returns `Stop`). The retire
    // targets are unreachable — only the epoch count ends the loop.
    let mut stepper = SystemStepper::new(StepperKind::default(), 500_000);
    let targets = vec![u64::MAX; n];
    let mut last_retired = vec![0u64; n];
    let mut announced = false;
    for epoch in 0..epochs {
        let mut port = Port {
            llc: &mut llc,
            dram: &mut dram,
        };
        stepper.run(
            &mut cores,
            &mut port,
            &targets,
            Cycle(u64::MAX),
            |now, cores, port| {
                if curves {
                    for (i, name) in workload.member_names().iter().enumerate() {
                        let c = port.llc.umon_curve(CoreId(i as u8));
                        let m: Vec<String> =
                            (0..=ways).map(|w| format!("{:.0}", c.misses(w))).collect();
                        println!("e{epoch} {:8} curve: {}", name, m.join(" "));
                    }
                }
                let hints = drive_epoch(now, cores, port.llc, port.dram, policy.as_mut()).hints;
                let ipcs: Vec<String> = cores
                    .iter()
                    .enumerate()
                    .map(|(i, c)| {
                        let d = c.retired() - last_retired[i];
                        last_retired[i] = c.retired();
                        format!("{:.2}", d as f64 / 500_000.0)
                    })
                    .collect();
                // The first decision that hints other resources names them.
                let axes: Vec<&str> = [
                    (hints.clock_ratios.is_some(), "DVFS"),
                    (hints.bandwidth_shares.is_some(), "bandwidth"),
                    (hints.prefetch_slots.is_some(), "prefetch"),
                ]
                .into_iter()
                .filter_map(|(on, axis)| on.then_some(axis))
                .collect();
                if !announced && !axes.is_empty() {
                    let axes = axes.join("+");
                    println!("coordinated {axes} enabled, QoS slack {qos_slack:.2}");
                    announced = true;
                }
                let mut line = format!(
                    "e{epoch} quotas={:?} alloc={:?} on={} ipc={:?}",
                    port.llc.ucp_quotas(),
                    port.llc.current_allocation(),
                    port.llc.ways_on(),
                    ipcs
                );
                if let Some(ratios) = hints.clock_ratios {
                    let ghz: Vec<String> = ratios
                        .iter()
                        .map(|r| format!("{:.1}", nominal_ghz / r))
                        .collect();
                    line += &format!(" ghz={ghz:?}");
                }
                if let Some(shares) = hints.bandwidth_shares {
                    let bw: Vec<String> = shares.iter().map(|s| format!("{s:.2}")).collect();
                    line += &format!(" bw={bw:?}");
                }
                if let Some(slots) = hints.prefetch_slots {
                    line += &format!(" pf={slots:?}");
                }
                println!("{line}");
                EpochControl::Stop
            },
        );
    }
}
