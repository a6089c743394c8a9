//! `inspect` — watches one workload epoch by epoch: UMON miss curves
//! (CURVES=1), UCP quotas / CP allocations, powered ways and per-core
//! IPC. Env: WORKLOAD=spec (any workload-registry spec — a named group
//! like G2-1, an ad-hoc mix like `soplex,namd`, or `trace:path.ctrace`),
//! SCHEME=policy-name (resolved through the harness policy registry),
//! CURVES=0|1, EPOCHS=n (default 34), QOS_SLACK=fraction (dvfs/cbp,
//! default 0.10). Unknown workload or policy names print the registered
//! lists and exit 2; a malformed CURVES, EPOCHS or QOS_SLACK exits 2 with
//! a one-line message. It renders the per-epoch views of
//! `System::run_observed` on a system with no warm-up and 500k-cycle
//! epochs. Every policy prints the same epoch line; an epoch whose decision
//! hints clock ratios, bandwidth shares or prefetch degrees appends `ghz=`,
//! `bw=` or `pf=` with them, and the first such decision announces the
//! coordinated resources and the QoS slack.
use cpusim::{EpochControl, VfTable};
use harness::{policy_registry, solo, workload_registry, SimScale, System};

/// Cycles per watched epoch.
const EPOCH_CYCLES: u64 = 500_000;

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
             \x20    CURVES=1 to print per-epoch UMON miss curves (default 0)\n\
             \x20    EPOCHS=n epochs to watch (default 34)\n\
             \x20    QOS_SLACK=fraction for SCHEME=dvfs/cbp (default 0.10)",
            registry.names().join(", ")
        );
        return;
    }
    let spec = std::env::var("WORKLOAD").unwrap_or_else(|_| "G2-1".into());
    let workload = match workload_registry().resolve(&spec) {
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
    let curves = env_or::<u8>("CURVES", 0, "0 or 1");
    if curves > 1 {
        eprintln!("CURVES: '{curves}' is not 0 or 1");
        std::process::exit(2);
    }
    let epochs: u64 = env_or("EPOCHS", 34, "an epoch count");
    println!("{} under {}", workload, policy_name);
    let mut sys = System::builder()
        .workload_resolved(workload.clone())
        .policy(policy_name)
        .qos_slack(qos_slack)
        .scale(SimScale {
            name: "inspect",
            warmup_instrs: 0,
            instrs_per_app: u64::MAX,
            epoch_cycles: EPOCH_CYCLES,
            max_cycles: u64::MAX,
        })
        .build();
    if policy_name == "cpe" {
        // Without a solo profile the CPE policy never repartitions; feed it
        // the quick-scale profile so the watched epochs actually move.
        println!("profiling solo runs for the Dynamic CPE profile...");
        let solo_llc = solo::solo_llc(workload.cores());
        sys.set_cpe_profile(solo::cpe_profile_for(
            &workload,
            solo_llc,
            SimScale::quick(),
        ));
    }
    if epochs == 0 {
        return;
    }
    let nominal_ghz = VfTable::paper_45nm().nominal().freq_ghz;
    let mut last_retired = vec![0u64; workload.cores()];
    let mut announced = false;
    sys.run_observed(|view| {
        let (e, obs, llc) = (view.index, view.observations, view.llc);
        let hints = &view.decision.hints;
        if curves == 1 {
            for (name, c) in workload.member_names().iter().zip(&obs.curves) {
                let m: Vec<String> = (0..=obs.total_ways)
                    .map(|w| format!("{:.0}", c.misses(w)))
                    .collect();
                println!("e{e} {:8} curve: {}", name, m.join(" "));
            }
        }
        let ipcs: Vec<String> = obs
            .retired
            .iter()
            .zip(&mut last_retired)
            .map(|(&r, last)| {
                let d = r - *last;
                *last = r;
                format!("{:.2}", d as f64 / EPOCH_CYCLES as f64)
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
            "e{e} quotas={:?} alloc={:?} on={} ipc={:?}",
            llc.ucp_quotas(),
            llc.current_allocation(),
            llc.ways_on(),
            ipcs
        );
        if let Some(ratios) = &hints.clock_ratios {
            let ghz: Vec<String> = ratios
                .iter()
                .map(|r| format!("{:.1}", nominal_ghz / r))
                .collect();
            line += &format!(" ghz={ghz:?}");
        }
        if let Some(shares) = &hints.bandwidth_shares {
            let bw: Vec<String> = shares.iter().map(|s| format!("{s:.2}")).collect();
            line += &format!(" bw={bw:?}");
        }
        if let Some(slots) = &hints.prefetch_slots {
            line += &format!(" pf={slots:?}");
        }
        println!("{line}");
        if e + 1 < epochs {
            EpochControl::Continue
        } else {
            EpochControl::Stop
        }
    });
}
