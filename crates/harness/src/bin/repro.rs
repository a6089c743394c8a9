//! `repro` — regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! repro <experiment|all> [--scale quick|tiny|small|medium|paper]
//!       [--csv DIR] [--json DIR] [--slacks 0.05,0.10,0.20]
//!       [--policy name[,name...]] [--group name[,name...]]
//!       [--workers N] [--shards K] [--resume]
//!       [--sample N] [--seed S]
//!
//! experiments: table1 table3 table4 fig5 fig6 fig7 fig8 fig9 fig10
//!              fig5_10 fig11 fig12 fig13 fig14 fig15 fig16 dvfs_energy
//!              cbp_energy all two-core four-core eight_core sample
//! repro inspect [SPEC] [--policy P] [--slacks S] [--epochs N] [--curves]
//! repro worker              # internal: fleet worker process (NDJSON on stdio)
//! repro fsck [--repair] DIR # audit/repair a results store
//! ```
//!
//! `--policy` restricts the sweep figures to the named policies (from the
//! harness policy registry; Fair Share always joins as the normalization
//! baseline), and `--group` restricts them to the named workload groups
//! (from the harness workload registry, e.g. `G2-1` — a sweep whose core
//! count has no matching group is skipped). `eight_core` sweeps the G8
//! extension groups in the 8 MB / 32-way LLC. `dvfs_energy` sweeps the
//! coordinated DVFS + partitioning subsystem's QoS slack levels (override
//! with `--slacks`) against the Cooperative-only baseline. The scale comes
//! from `--scale` alone (default `small`). `--csv` and `--json` write one
//! machine-readable file per experiment.
//!
//! `--workers N` runs a sweep figure (or `sample`) as a fleet: the cells
//! are sharded over N `repro worker` child processes and streamed into
//! the `--json` directory (required), which doubles as a durable results
//! store (`manifest.json`, plus one checksummed file per finished cell in
//! `cells/`). A killed or partially failed run resumes with `--resume` —
//! only cells without a verified file rerun, and the merged figures are
//! bit-identical to a single-process run. `sample` draws `--sample N` random 1-8-core mixes (seeded with
//! `--seed`) and reports distributional results; without `--workers` it
//! runs in-process.
//!
//! `inspect` watches one workload epoch by epoch: per-epoch UMON miss
//! curves (`--curves`), UCP quotas / CP allocations, powered ways and
//! per-core IPC. SPEC is any workload-registry spec (a named group like
//! `G2-1`, an ad-hoc mix like `soplex,namd`, or `trace:path.ctrace`;
//! default `G2-1`), `--policy` one registry policy (default `ucp`),
//! `--slacks` the QoS slack of `dvfs`/`cbp` (its first value; default
//! 0.10) and `--epochs` how many epochs to watch (default 34). It renders
//! the per-epoch views of `System::run_observed` on a system with no
//! warm-up and 500k-cycle epochs. Every policy prints the same epoch line;
//! an epoch whose decision hints clock ratios, bandwidth shares or
//! prefetch degrees appends `ghz=`, `bw=` or `pf=` with them, and the
//! first such decision announces the coordinated resources and the QoS
//! slack.

// The CLI reports wall time per experiment; allowlisted here and in
// simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

use cpusim::{EpochControl, VfTable};
use harness::experiments::fig11_13::ThresholdMetric;
use harness::experiments::fig5_10::Metric;
use harness::experiments::{self, Experiment};
use harness::fleet_run::{self, FleetOptions, SamplePlan};
use harness::{policy_registry, solo, workload_registry, SimScale, System};
use simkit::json;

/// Cycles per epoch watched by `repro inspect`.
const INSPECT_EPOCH_CYCLES: u64 = 500_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    // The worker subcommand speaks the fleet protocol on stdout; it must
    // come before any banner or argument chatter.
    if args[0] == "worker" {
        fleet_run::worker_serve();
        return;
    }
    // Store maintenance: audit (and optionally repair) a results
    // directory without running anything.
    if args[0] == "fsck" {
        run_fsck(&args[1..]);
    }
    if args[0] == "inspect" {
        run_inspect(&args[1..]);
        return;
    }
    let mut scale = SimScale::small();
    let mut csv_dir: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut slacks: Vec<f64> = Vec::new();
    let mut policies: Vec<&'static str> = Vec::new();
    let mut groups: Vec<String> = Vec::new();
    let mut workers: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut resume = false;
    let mut sample_n: Option<u64> = None;
    let mut seed: u64 = 0;
    let mut what = args[0].clone();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                let name = flag_value(&args, &mut i);
                scale = SimScale::by_name(name).unwrap_or_else(|| {
                    let names = SimScale::NAMES.join(", ");
                    usage_error(&format!("--scale: unknown preset '{name}' ({names})"))
                });
            }
            "--csv" => csv_dir = Some(flag_value(&args, &mut i).to_string()),
            "--json" => json_dir = Some(flag_value(&args, &mut i).to_string()),
            "--policy" => {
                for name in flag_value(&args, &mut i).split(',') {
                    let canonical = resolve_policy(name.trim());
                    if !policies.contains(&canonical) {
                        policies.push(canonical);
                    }
                }
            }
            "--group" => {
                let list = flag_value(&args, &mut i);
                let registry = workload_registry();
                for name in list.split(',') {
                    let name = name.trim();
                    match registry.canonical_group(name) {
                        Some(canonical) => {
                            if !groups.contains(&canonical) {
                                groups.push(canonical);
                            }
                        }
                        None => usage_error(&format!(
                            "unknown workload group '{name}'; registered groups: {}",
                            registry.group_names().join(", ")
                        )),
                    }
                }
            }
            "--slacks" => slacks = slack_list(flag_value(&args, &mut i)),
            "--workers" => workers = Some(positive(&args, &mut i) as usize),
            "--shards" => shards = Some(positive(&args, &mut i) as usize),
            "--resume" => resume = true,
            "--sample" => sample_n = Some(positive(&args, &mut i)),
            "--seed" => {
                let v = flag_value(&args, &mut i);
                seed = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--seed: '{v}' is not an unsigned integer"))
                });
            }
            other if i == 0 => what = other.to_string(),
            other => usage_error(&format!("unexpected argument '{other}'")),
        }
        i += 1;
    }
    // Output directories are created before anything runs, so a bad path
    // fails in milliseconds instead of after the whole simulation.
    for dir in [&csv_dir, &json_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create output directory '{dir}': {e}"));
        }
    }

    // The filters only drive the standalone sweep figures. Elsewhere they
    // would either do nothing (fig11-16, tables, dvfs_energy) or filter
    // figs 5-10 beside the full two-core grid that figs 14-16 read
    // (two-core/all). The filtered sweep would cost nothing, since its
    // cells come from the memo, but one output would then mix group sets —
    // so ignore them loudly instead.
    let sweep_aware = fleet_run::sweep_targets(&what).is_some();
    let sampling = what == "sample";
    if !sweep_aware && !sampling && !policies.is_empty() {
        eprintln!(
            "# note: --policy only filters fig5..fig10/fig5_10/four-core/eight_core/sample; ignored for '{what}'"
        );
        policies.clear();
    }
    if !sweep_aware && !groups.is_empty() {
        eprintln!(
            "# note: --group only filters fig5..fig10/fig5_10/four-core/eight_core; ignored for '{what}'"
        );
        groups.clear();
    }
    // A core count that --group leaves without groups is skipped, in
    // process and in a fleet alike; a sweep left with nothing to run is
    // bad input, refused before anything runs.
    if let Some(layout) = fleet_run::sweep_targets(&what) {
        let skipped: Vec<usize> = layout
            .iter()
            .map(|&(cores, _)| cores)
            .filter(|&cores| fleet_run::filtered_groups(cores, &groups).is_empty())
            .collect();
        if skipped.len() == layout.len() {
            usage_error(&format!(
                "'{what}' has no groups under --group {}",
                groups.join(",")
            ));
        }
        for cores in skipped {
            eprintln!("# note: --group filter leaves no {cores}-core groups; sweep skipped");
        }
    }
    if !sampling && (sample_n.is_some() || seed != 0) {
        eprintln!(
            "# note: --sample/--seed only apply to the 'sample' experiment; ignored for '{what}'"
        );
    }
    let plan = sampling.then(|| SamplePlan {
        n: sample_n.unwrap_or(64),
        seed,
        slack: slacks.first().copied().unwrap_or(0.05),
    });

    eprintln!(
        "# scale '{}': {} instrs/app, {}-cycle epochs (paper: 1B instrs, 5M-cycle epochs)",
        scale.name, scale.instrs_per_app, scale.epoch_cycles
    );
    let start = std::time::Instant::now();

    let mut partial: Option<String> = None;
    let list = if let Some(workers) = workers {
        // Fleet mode: shard the cells over worker processes, streaming
        // results into the --json directory (which doubles as the
        // durable store that --resume continues).
        if !sweep_aware && !sampling {
            eprintln!(
                "--workers only applies to the sweep figures (fig5..fig10, fig5_10, four-core, eight_core) and 'sample'"
            );
            std::process::exit(2);
        }
        let Some(dir) = json_dir.clone() else {
            eprintln!("--workers needs --json DIR: the directory is the durable results store");
            std::process::exit(2);
        };
        let opts = FleetOptions {
            workers,
            shards,
            resume,
        };
        match fleet_run::run_fleet_target(
            &what,
            scale,
            &policies,
            &groups,
            plan.as_ref(),
            &dir,
            &opts,
        ) {
            Ok(outcome) => {
                partial = outcome.partial;
                outcome.experiments
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    } else {
        if resume {
            eprintln!("--resume needs --workers: resuming is a fleet-mode operation");
            std::process::exit(2);
        }
        if let Some(plan) = &plan {
            match fleet_run::run_sample_inprocess(scale, &policies, plan) {
                Ok(list) => list,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        } else {
            select(&what, scale, &slacks, &policies, &groups)
        }
    };

    if list.is_empty() {
        // Only reachable via a policy filter that leaves nothing to report
        // (`sample --policy fair`); a silent exit-0 would read as success
        // to scripts.
        eprintln!("'{what}' produced no experiments under the given filters");
        std::process::exit(2);
    }
    for e in &list {
        println!("{}", e.render());
        if let Some(dir) = &csv_dir {
            write_output(dir, e, "csv", e.table.to_csv());
        }
        if let Some(dir) = &json_dir {
            write_output(dir, e, "json", json_document(e));
        }
    }
    eprintln!("# done in {:.1}s", start.elapsed().as_secs_f64());
    if let Some(coverage) = partial {
        // Partial figures were printed/written above, but a script must
        // not mistake them for the complete artifact.
        eprintln!(
            "# fleet: {coverage}; finished cells are saved — rerun with --resume to complete"
        );
        std::process::exit(1);
    }
}

/// `repro fsck [--repair] DIR` — audit a results store's manifest, cell
/// files and leftover temp files. Exit 0 when the store is clean (or
/// `--repair` restored it to a resumable state), 1 when issues remain,
/// 2 on usage errors.
fn run_fsck(args: &[String]) -> ! {
    let mut repair = false;
    let mut dir: Option<&str> = None;
    for a in args {
        match a.as_str() {
            "--repair" => repair = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other),
            other => {
                eprintln!("fsck: unexpected argument '{other}'\nusage: repro fsck [--repair] DIR");
                std::process::exit(2);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("usage: repro fsck [--repair] DIR");
        std::process::exit(2);
    };
    let path = std::path::Path::new(dir);
    match fleet::fsck(path, repair) {
        Err(e) => {
            eprintln!("fsck: {e}");
            std::process::exit(1);
        }
        Ok(report) => {
            print!("{}", report.render());
            if report.clean() {
                std::process::exit(0);
            }
            if repair {
                // A repair only counts if a fresh audit comes back clean.
                match fleet::fsck(path, false) {
                    Ok(second) if second.clean() => {
                        eprintln!("fsck: repaired; store is consistent and resumable");
                        std::process::exit(0);
                    }
                    Ok(second) => {
                        print!("{}", second.render());
                        eprintln!("fsck: repair left issues behind");
                        std::process::exit(1);
                    }
                    Err(e) => {
                        eprintln!("fsck: re-audit after repair failed: {e}");
                        std::process::exit(1);
                    }
                }
            }
            std::process::exit(1);
        }
    }
}

/// `repro inspect [SPEC] [--policy P] [--slacks S] [--epochs N]
/// [--curves]` — watches one workload epoch by epoch (see the crate docs).
fn run_inspect(args: &[String]) {
    let mut spec: Option<&str> = None;
    let mut policy_name = resolve_policy("ucp");
    let mut qos_slack = 0.10;
    let mut epochs: u64 = 34;
    let mut curves = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                inspect_usage();
                return;
            }
            "--policy" => policy_name = resolve_policy(flag_value(args, &mut i)),
            "--slacks" => qos_slack = slack_list(flag_value(args, &mut i))[0],
            "--epochs" => {
                let v = flag_value(args, &mut i);
                epochs = v.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--epochs: '{v}' is not an epoch count"))
                });
            }
            "--curves" => curves = true,
            other if !other.starts_with('-') && spec.is_none() => spec = Some(other),
            other => usage_error(&format!("inspect: unexpected argument '{other}'")),
        }
        i += 1;
    }
    let workload = workload_registry()
        .resolve(spec.unwrap_or("G2-1"))
        .unwrap_or_else(|e| usage_error(&e.to_string()));
    println!("{} under {}", workload, policy_name);
    let mut sys = System::builder()
        .workload_resolved(workload.clone())
        .policy(policy_name)
        .qos_slack(qos_slack)
        .scale(SimScale {
            name: "inspect",
            warmup_instrs: 0,
            instrs_per_app: u64::MAX,
            epoch_cycles: INSPECT_EPOCH_CYCLES,
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
        if curves {
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
                format!("{:.2}", d as f64 / INSPECT_EPOCH_CYCLES as f64)
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

/// Prints a one-line usage error and exits 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// The value after the flag at `args[*i]`, advancing `i` to it.
fn flag_value<'a>(args: &'a [String], i: &mut usize) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => usage_error(&format!("{} needs a value", args[*i - 1])),
    }
}

/// The canonical registry name of policy `name`; an unknown name prints
/// the registered policies on one line and exits 2.
fn resolve_policy(name: &str) -> &'static str {
    let registry = policy_registry();
    registry.resolve(name).unwrap_or_else(|| {
        usage_error(
            &coop_core::UnknownPolicy {
                requested: name.to_string(),
                known: registry.names(),
            }
            .to_string(),
        )
    })
}

/// A comma-separated `--slacks` list; a value outside [0, 1] exits 2.
fn slack_list(list: &str) -> Vec<f64> {
    list.split(',')
        .map(|v| match v.trim().parse::<f64>() {
            Ok(s) if (0.0..=1.0).contains(&s) => s,
            _ => usage_error(&format!("--slacks: '{v}' is not a fraction in [0, 1]")),
        })
        .collect()
}

/// The positive integer after the flag at `args[*i]`, advancing `i`.
fn positive(args: &[String], i: &mut usize) -> u64 {
    let v = flag_value(args, i);
    match v.parse() {
        Ok(n) if n >= 1 => n,
        _ => usage_error(&format!(
            "{}: '{v}' is not a positive integer",
            args[*i - 1]
        )),
    }
}

/// The in-process figures of a sweep layout, each core count's sweep from
/// the process memo.
fn memo_figures(
    layout: &[(usize, &[Metric])],
    scale: SimScale,
    policies: &[&'static str],
    groups: &[String],
) -> Vec<Experiment> {
    let policies = fleet_run::target_policies(policies, false);
    let figures = fleet_run::sweep_figures(layout, groups, |cores| {
        let grid = fleet_run::Grid::sweep(cores, scale, &policies, groups);
        Ok(experiments::cached_sweep_filtered(&grid)
            .expect("sweep_figures skips core counts without groups"))
    });
    figures.unwrap_or_else(|e| panic!("{e}"))
}

fn select(
    what: &str,
    scale: SimScale,
    slacks: &[f64],
    policies: &[&'static str],
    groups: &[String],
) -> Vec<Experiment> {
    if let Some(layout) = fleet_run::sweep_targets(what) {
        return memo_figures(layout, scale, policies, groups);
    }
    let fig14_16 = || {
        vec![
            experiments::fig14::figure(scale),
            experiments::fig15::figure(scale),
            experiments::fig16::figure(scale),
        ]
    };
    match what {
        "dvfs_energy" => vec![experiments::dvfs_energy::figure(scale, slacks)],
        "cbp_energy" => vec![experiments::cbp_energy::figure(scale, slacks)],
        "table1" => vec![experiments::table1::table()],
        "table3" => vec![experiments::table3::table(scale)],
        "table4" => vec![experiments::table4::table()],
        "fig11" => vec![experiments::fig11_13::figure(
            ThresholdMetric::Performance,
            scale,
        )],
        "fig12" => vec![experiments::fig11_13::figure(
            ThresholdMetric::DynamicEnergy,
            scale,
        )],
        "fig13" => vec![experiments::fig11_13::figure(
            ThresholdMetric::StaticEnergy,
            scale,
        )],
        "fig14" => vec![experiments::fig14::figure(scale)],
        "fig15" => vec![experiments::fig15::figure(scale)],
        "fig16" => vec![experiments::fig16::figure(scale)],
        "two-core" => {
            let mut v = memo_figures(&[(2, &Metric::ALL)], scale, policies, groups);
            v.extend(fig14_16());
            v
        }
        "all" => {
            let mut v = vec![
                experiments::table1::table(),
                experiments::table4::table(),
                experiments::table3::table(scale),
            ];
            let fig5_10 = fleet_run::sweep_targets("fig5_10").expect("fig5_10 is a sweep target");
            v.extend(memo_figures(fig5_10, scale, policies, groups));
            for m in [
                ThresholdMetric::Performance,
                ThresholdMetric::DynamicEnergy,
                ThresholdMetric::StaticEnergy,
            ] {
                v.push(experiments::fig11_13::figure(m, scale));
            }
            v.extend(fig14_16());
            v.push(experiments::dvfs_energy::figure(scale, slacks));
            v.push(experiments::cbp_energy::figure(scale, slacks));
            v
        }
        other => {
            usage();
            usage_error(&format!("unknown experiment '{other}'"));
        }
    }
}

/// Writes one machine-readable rendering of `e` as `DIR/<id>.<ext>` (the
/// id lowercased, spaces dropped). A failed write prints one line and
/// exits 1.
fn write_output(dir: &str, e: &Experiment, ext: &str, text: String) {
    let path = format!("{dir}/{}.{ext}", e.id.to_lowercase().replace(' ', ""));
    if let Err(err) = std::fs::write(&path, text) {
        eprintln!("cannot write {path}: {err}");
        std::process::exit(1);
    }
    eprintln!("# wrote {path}");
}

/// The experiment as one newline-terminated JSON document.
fn json_document(e: &Experiment) -> String {
    let mut doc = json::obj(vec![
        ("id", json::str(&e.id)),
        ("title", json::str(&e.title)),
        ("table", e.table.to_value()),
        ("notes", json::arr_str(&e.notes)),
    ])
    .render();
    doc.push('\n');
    doc
}

fn usage() {
    eprintln!(
        "usage: repro <experiment|all|two-core|four-core|eight_core|sample> [--scale quick|tiny|small|medium|paper]\n\
         \x20      [--csv DIR] [--json DIR] [--slacks 0.05,0.10,0.20]\n\
         \x20      [--policy name[,name...]] [--group name[,name...]]\n\
         \x20      [--workers N] [--shards K] [--resume] [--sample N] [--seed S]\n\
         experiments: table1 table3 table4 fig5..fig16 fig5_10 dvfs_energy cbp_energy\n\
         --policy:    restrict the sweep figures to these registry policies ({})\n\
         --group:     restrict the sweep figures to these workload groups (G2-*, G4-*, G8-*)\n\
         eight_core:  G8 extension sweeps beyond the paper (8 MB / 32-way LLC)\n\
         dvfs_energy: coordinated DVFS + partitioning vs Cooperative alone; --slacks sets the QoS sweep\n\
         cbp_energy:  coordinated cache+bandwidth+prefetch vs Cooperative and DVFS; --slacks as above\n\
         --workers:   fleet mode — shard a sweep figure (or 'sample') over N worker\n\
         \x20            processes streaming into --json DIR; --resume continues a\n\
         \x20            killed or partially failed run from the same DIR\n\
         fsck:        audit a results store's manifest and cell checksums\n\
         \x20            (repro fsck [--repair] DIR); --repair quarantines corrupt\n\
         \x20            cells and removes torn temp files so --resume can finish\n\
         sample:      Monte Carlo 1-8-core mixes (--sample N draws, --seed S);\n\
         \x20            distributional report with QoS-violation tails (first --slacks value)\n\
         inspect:     watch one workload epoch by epoch (repro inspect --help)",
        policy_registry().names().join(", ")
    );
}

fn inspect_usage() {
    eprintln!(
        "usage: repro inspect [SPEC] [--policy P] [--slacks S] [--epochs N] [--curves]\n\
         SPEC:      workload spec (default G2-1): a group like G2-1/G4-3/G8-2, a mix\n\
         \x20          like 'soplex,namd', or 'trace:path.ctrace'\n\
         --policy:  the policy to watch (default ucp; one of: {})\n\
         --slacks:  QoS slack for dvfs/cbp, the first value of the list (default 0.10)\n\
         --epochs:  epochs to watch (default 34)\n\
         --curves:  print each epoch's UMON miss curves",
        policy_registry().names().join(", ")
    );
}
