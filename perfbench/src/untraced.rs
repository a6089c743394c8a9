//! The untraced run through the product path: `System::builder()…build()`
//! and `System::run` per cell, exactly as `harness::experiments::run_group`
//! does, plus the `harness::solo` baselines — one cell at a time on one
//! thread. A [`Gauge`] sample before and after every piece scales its host
//! time to the reference host speed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use harness::solo::{self, solo_llc};
use harness::System;

use crate::clock::{self, ns_since};
use crate::gauge::{self, Gauge};
use crate::outcome::{sim_metrics, Outcome};
use crate::plan::Plan;
use crate::report::{peak_rss_mib, Normalized, UnitReport};

/// True when a run reached the point only the cycle cap can explain: the
/// measurement window cannot reach half the cap unless a phase was cut.
fn looks_capped(plan: &Plan, cycles: u64) -> bool {
    cycles >= plan.scale.max_cycles / 2
}

/// One untraced pass over `plan`; `plan_ns` is the host time its set-up
/// (resolution, stream recording) took.
pub fn run(plan: &Plan, plan_ns: u64) -> UnitReport {
    let mut out = Outcome::default();
    let mut gauge = Gauge::new();
    let mut norm_setup = gauge.scale_before(plan_ns);
    let mut norm_wall = 0.0;
    let mut solo_ns = 0u64;
    for m in &plan.solos {
        let start = clock::now();
        let solo = catch_unwind(AssertUnwindSafe(|| {
            solo::solo_result_tracked(m, solo_llc(plan.cores), plan.scale)
        }));
        let ns = ns_since(start);
        solo_ns += ns;
        norm_wall += gauge.scale_since(ns);
        match solo {
            Ok((s, _)) => out.add_solo(m.name(), &s),
            Err(_) => out.failed.push(Plan::solo_id(m.as_ref())),
        }
    }
    let mut build_ns = 0u64;
    let mut cell_ns = 0u64;
    for cell in &plan.cells {
        let id = plan.cell_id(cell);
        let workload = &plan.groups[cell.group];
        let start = clock::now();
        let built = catch_unwind(AssertUnwindSafe(|| {
            let mut sys = System::builder()
                .workload_resolved(workload.clone())
                .policy(cell.policy)
                .scale(plan.scale)
                .qos_slack(cell.slack)
                .build();
            if cell.policy == "cpe" {
                sys.set_cpe_profile(solo::cpe_profile_for(
                    workload,
                    solo_llc(workload.cores()),
                    plan.scale,
                ));
            }
            sys
        }));
        let cell_build_ns = ns_since(start);
        build_ns += cell_build_ns;
        let Ok(sys) = built else {
            out.failed.push(id);
            norm_setup += gauge.scale_since(cell_build_ns);
            continue;
        };
        let start = clock::now();
        let run = catch_unwind(AssertUnwindSafe(|| sys.run()));
        let run_ns = ns_since(start);
        cell_ns += run_ns;
        // Build and run share one pair of samples: the scale applies to
        // their sum, split in proportion.
        let both = gauge.scale_since(cell_build_ns + run_ns);
        let total = (cell_build_ns + run_ns).max(1) as f64;
        norm_setup += both * cell_build_ns as f64 / total;
        norm_wall += both * run_ns as f64 / total;
        match run {
            Ok(r) => {
                let capped = looks_capped(plan, r.cycles);
                out.add_run(id, r, capped);
            }
            Err(_) => out.failed.push(id),
        }
    }
    let wall_ns = solo_ns + cell_ns;
    let sim = sim_metrics(plan, &out);
    UnitReport {
        mode: "untraced",
        setup_s: (plan_ns + build_ns) as f64 / 1e9,
        wall_s: wall_ns as f64 / 1e9,
        norm: Some(Normalized {
            setup_s: norm_setup / 1e9,
            wall_s: norm_wall / 1e9,
            gauge_ns: gauge.median_ns(),
        }),
        instrs: plan.sim_instrs(),
        llc_accesses: out.llc_accesses(),
        // The gauge's table is resident for the whole unit; the
        // simulator's peak is what is left.
        peak_rss_mib: peak_rss_mib() - gauge::TABLE_BYTES as f64 / (1024.0 * 1024.0),
        attempted: plan.attempted(),
        layers: Vec::new(),
        sim,
        outcome: out,
    }
}
