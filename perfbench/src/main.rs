//! `perfbench` — one measured unit of the layered simulator benchmark.
//!
//! ```text
//! perfbench unit --workload NAME --seed N --mode untraced|traced [--scratch DIR]
//! perfbench worker     # fleet worker process, as `repro worker`
//! ```
//!
//! A unit resolves the workload from the seed, runs every cell once and
//! prints one JSON line (see [`report::UnitReport`]). Each unit is its own
//! process: `harness::solo` and the sweep caches memoize process-wide, so
//! a second pass in the same process would skip the solo baselines and
//! read as a false speed-up. `run.py` launches the units, checks them
//! against each other and aggregates the metrics.

mod clock;
mod fleet_pass;
mod gauge;
mod outcome;
mod plan;
mod report;
mod traced;
mod untraced;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::clock::ns_since;
use crate::plan::Plan;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench unit --workload NAME --seed N --mode untraced|traced [--scratch DIR]\n       perfbench worker"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        // The fleet orchestrator re-executes this binary as its workers.
        Some("worker") => {
            harness::fleet_run::worker_serve();
            return ExitCode::SUCCESS;
        }
        Some("unit") => {}
        _ => return usage("expected 'unit' or 'worker'"),
    }
    let mut workload = None;
    let mut seed = None;
    let mut mode = None;
    let mut scratch = PathBuf::from(".perfbench");
    let mut rest = args[1..].iter();
    while let Some(flag) = rest.next() {
        let Some(value) = rest.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--mode" => mode = Some(value.clone()),
            "--scratch" => scratch = PathBuf::from(value),
            other => return usage(&format!("unknown flag '{other}'")),
        }
    }
    let (Some(workload), Some(seed), Some(mode)) = (workload, seed, mode) else {
        return usage("--workload, --seed and --mode are required");
    };

    let start = clock::now();
    let plan = match Plan::new(&workload, seed) {
        Ok(p) => p,
        Err(e) => return usage(&e),
    };
    let plan_ns = ns_since(start);
    let report = match mode.as_str() {
        "untraced" => untraced::run(&plan, plan_ns),
        "traced" => {
            let mut report = traced::run(&plan, plan_ns);
            // paper2's cells are also what `repro fig5 --scale quick`
            // runs, so its traced units measure the fleet on them too.
            if plan.workload == "paper2" {
                fleet_pass::check_into(&mut report, &plan, &scratch);
            }
            report
        }
        other => return usage(&format!("unknown mode '{other}'")),
    };
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
