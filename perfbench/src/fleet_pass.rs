//! The fleet pass of `paper2`'s traced units: the same cells (`repro fig5
//! --scale quick` over the plan's groups) run by the fleet orchestrator
//! that `repro --workers N --json DIR` drives, on at most two worker
//! processes streaming into a checksummed results store, and by
//! `compute_cells_inprocess`, the fleet's single-process twin on as many
//! threads. The benchmark binary serves as its own worker (`perfbench
//! worker` runs `harness::fleet_run::worker_serve`, as `repro worker`
//! does).

use std::path::Path;

use harness::experiments::ExperimentPerf;
use harness::fleet_run::{self, FleetOptions};

use crate::clock::{self, ns_since};
use crate::outcome::{digest_run, digest_solo};
use crate::plan::Plan;
use crate::report::UnitReport;

/// Bytes of every regular file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs the fleet pass over `plan`'s cells and folds it into `report`: the
/// `fleet.*` layers, the cells it attempted, and a failure for every cell
/// whose twin result differs from the report's own digest (or for every
/// cell, when the fleet's merged figure differs from the twin's).
pub fn check_into(report: &mut UnitReport, plan: &Plan, scratch: &Path) {
    let groups: Vec<String> = plan.groups.iter().map(|g| g.label.clone()).collect();
    let cells = fleet_run::cells_for_target("fig5", plan.scale, &[], &groups, None)
        .expect("fig5 is fleet-capable")
        .expect("fig5 cells enumerate");
    report.attempted += cells.len();
    let store = scratch.join("store");
    // A leftover store from an interrupted unit would be refused as a
    // resume; start clean.
    let _ = std::fs::remove_dir_all(&store);

    let start = clock::now();
    let twin = fleet_run::compute_cells_inprocess(&cells);
    let twin_ns = ns_since(start);
    let payloads = twin.unwrap_or_else(|e| {
        eprintln!("perfbench: in-process twin failed: {e}");
        Default::default()
    });

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let opts = FleetOptions {
        workers,
        shards: None,
        resume: false,
    };
    let start = clock::now();
    let fleet = fleet_run::run_fleet_target(
        "fig5",
        plan.scale,
        &[],
        &groups,
        None,
        &store.display().to_string(),
        &opts,
    );
    let fleet_ns = ns_since(start);
    let store_kib = dir_bytes(&store) as f64 / 1024.0;
    let _ = std::fs::remove_dir_all(&store);

    let twin_figures = fleet_run::merge_target_experiments(
        &|cell| {
            payloads
                .get(&cell.id())
                .cloned()
                .ok_or_else(|| format!("missing {}", cell.id()))
        },
        "fig5",
        plan.scale,
        &[],
        &groups,
        None,
        ExperimentPerf::local(0.0, 0),
    );
    let figures_match = match (&fleet, &twin_figures) {
        (Ok(f), Ok(t)) => {
            f.partial.is_none()
                && f.experiments.len() == t.len()
                && f.experiments
                    .iter()
                    .zip(t)
                    .all(|(a, b)| a.table.to_json() == b.table.to_json())
        }
        _ => false,
    };
    if !figures_match {
        eprintln!("perfbench: the fleet's figure differs from its in-process twin's");
    }
    let own = &report.outcome.digests;
    let mut failed = Vec::new();
    for cell in &cells {
        let (id, digest) = if cell.policy.is_empty() {
            let id = format!("solo/{}", cell.workload);
            let d = payloads
                .get(&cell.id())
                .and_then(|p| fleet_run::solo_from_value(p).ok())
                .map(|s| digest_solo(&s));
            (id, d)
        } else {
            let id = format!("{}/{}", cell.workload, cell.policy);
            let d = payloads
                .get(&cell.id())
                .and_then(|p| fleet_run::run_result_from_value(p).ok())
                .map(|r| digest_run(&r));
            (id, d)
        };
        if !figures_match || digest.is_none() || own.get(&id) != digest.as_ref() {
            failed.push(format!("fleet:{id}"));
        }
    }
    report.outcome.failed.extend(failed);
    let retries = fleet.as_ref().map_or(0, |f| f.report.retries);
    report.layers.extend([
        (
            "fleet.overhead_frac",
            fleet_ns as f64 / twin_ns.max(1) as f64 - 1.0,
        ),
        ("fleet.retries", retries as f64),
        ("fleet.store_kib", store_kib),
    ]);
}
