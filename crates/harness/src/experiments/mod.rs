//! One module per paper table/figure, plus shared sweep machinery.
//!
//! The sweeps enumerate *policy settings* (a registry name from
//! [`crate::policies::policy_registry`], optionally with one builder knob:
//! see [`PolicySetting`]) and *workload groups by registry resolution*
//! (see [`crate::workload_registry`]). Every simulated figure renders a
//! [`Sweep`] of one [`Grid`]: Figures 5-10 and the 8-core extension the
//! group × policy grids, Figures 14-16 the two-core paper grid, Figures
//! 11-13 the Cooperative threshold grid, and `dvfs_energy`/`cbp_energy`
//! the coordinator slack grid; Table 3 renders its solo cells. Which
//! cells a `repro` target reads, and whether they run in process or as a
//! fleet, is the target table's ([`crate::targets`]); a module only
//! renders.
//! Every experiment returns an [`Experiment`] holding a rendered table
//! plus free-form notes comparing against the paper's reported numbers.

// The perf lines (`perf:` wall/throughput reporting) read wall time;
// allowlisted here and in simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

pub mod cbp_energy;
pub mod dvfs_energy;
pub mod fig11_13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig5_10;
pub mod sample;
pub mod table1;
pub mod table3;
pub mod table4;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use simkit::table::Table;
use workloads::ResolvedWorkload;

use crate::fleet_run::Grid;
use crate::policies::{Knob, PolicySetting};
use crate::scale::SimScale;
use crate::solo;
use crate::system::{RunResult, System};

/// Simulation cost behind one experiment: the wall-clock its backing runs
/// took and how many LLC demand accesses they simulated. This is the
/// harness's perf trajectory (see BENCH_5.json): every `repro` experiment
/// prints it, so a regression in simulator throughput is visible in the
/// artifacts themselves, not just in the Criterion kernels.
///
/// Cells are memoized process-wide, so a perf line counts only the cells
/// its own call simulated, and names the cells it reused.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentPerf {
    /// Seconds spent computing the backing runs.
    pub wall_seconds: f64,
    /// LLC demand accesses simulated across those runs.
    pub sim_accesses: u64,
    /// Cells the call looked up.
    pub cells: usize,
    /// Of those, cells the process had already run.
    pub reused: usize,
    /// Processes that simulated the runs: 1 for in-process experiments,
    /// the fleet size for orchestrated sweeps. The perf line reports
    /// *aggregate* throughput either way — the wall-clock is the
    /// orchestration wall, so accesses-per-second already sums the
    /// workers' concurrent progress.
    pub workers: usize,
}

impl ExperimentPerf {
    /// Perf of an in-process run (one worker) that reused no cell.
    pub fn local(wall_seconds: f64, sim_accesses: u64) -> ExperimentPerf {
        ExperimentPerf {
            wall_seconds,
            sim_accesses,
            cells: 0,
            reused: 0,
            workers: 1,
        }
    }

    /// Simulated LLC accesses per wall-clock second (aggregate across
    /// workers for fleet runs).
    pub fn accesses_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sim_accesses as f64 / self.wall_seconds
        } else {
            0.0
        }
    }

    pub(crate) fn render_line(&self) -> String {
        let fleet = if self.workers > 1 {
            format!(" · {} workers", self.workers)
        } else {
            String::new()
        };
        let reused = if self.reused > 0 {
            format!(" · {} of {} cells reused", self.reused, self.cells)
        } else {
            String::new()
        };
        format!(
            "perf: {:.1}s simulate · {} LLC accesses · {}/s{fleet}{reused}\n",
            self.wall_seconds,
            fmt_count(self.sim_accesses),
            fmt_count(self.accesses_per_second() as u64),
        )
    }
}

/// Compact count formatting for the perf lines (`12.3M`, `450k`).
fn fmt_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 10_000 {
        format!("{:.0}k", n as f64 / 1e3)
    } else {
        n.to_string()
    }
}

/// A rendered experiment: table + comparison notes.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Paper artifact id, e.g. "Figure 5".
    pub id: String,
    /// Human title.
    pub title: String,
    /// The reproduced rows/series.
    pub table: Table,
    /// Notes comparing measured values with the paper's claims.
    pub notes: Vec<String>,
    /// Simulation cost of the backing runs (`None` for static tables).
    pub perf: Option<ExperimentPerf>,
}

impl Experiment {
    /// Renders the experiment as printable text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} ==\n{}",
            self.id,
            self.title,
            self.table.render()
        );
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        if let Some(perf) = &self.perf {
            out.push_str(&perf.render_line());
        }
        out
    }
}

/// All runs of one [`Grid`]: `runs[group][policy]`, with policies named by
/// setting and groups resolved through the workload registry.
#[derive(Debug)]
pub struct Sweep {
    /// Canonical policy setting names, in run order (the columns of
    /// `runs`).
    pub policies: Vec<String>,
    /// The resolved workload groups, in registry order.
    pub groups: Vec<ResolvedWorkload>,
    /// `runs[group_idx][policy_idx]`.
    pub runs: Vec<Vec<RunResult>>,
    /// Solo IPCs per group (aligned with group member order; empty when
    /// the grid has no solo baselines).
    pub ipc_alone: Vec<Vec<f64>>,
    /// The scale the cells ran at.
    pub scale: SimScale,
    /// The cost of computing the sweep: its wall-clock, and the LLC demand
    /// accesses of the cells it simulated, counting no cell the process
    /// already held (so accesses-per-second never counts work the
    /// wall-clock did not pay).
    pub perf: ExperimentPerf,
}

impl Sweep {
    /// Index of a policy in this sweep.
    ///
    /// # Panics
    ///
    /// Panics when the policy was not part of the sweep.
    pub fn policy_idx(&self, name: &str) -> usize {
        self.policies
            .iter()
            .position(|p| p == name)
            .unwrap_or_else(|| panic!("policy '{name}' not in this sweep: {:?}", self.policies))
    }

    /// The run of group `g` under `policy` (a setting name; panics when
    /// the policy was not part of the sweep).
    pub fn run(&self, g: usize, policy: &str) -> &RunResult {
        &self.runs[g][self.policy_idx(policy)]
    }

    /// Display label of the policy at `idx`.
    pub fn label(&self, idx: usize) -> &str {
        &self.runs[0][idx].label
    }
}

/// The registry group-name prefix for an `n`-core sweep.
pub fn group_prefix(cores: usize) -> &'static str {
    match cores {
        2 => "G2-",
        4 => "G4-",
        8 => "G8-",
        n => panic!("group sweeps cover 2-, 4- and 8-core systems, not {n}"),
    }
}

/// The resolved workload groups of an `n`-core sweep, in registry order.
pub fn groups_for_cores(cores: usize) -> Vec<ResolvedWorkload> {
    let registry = crate::workload_registry();
    registry
        .groups_with_prefix(group_prefix(cores))
        .iter()
        .map(|name| registry.resolve(name).expect("registered group resolves"))
        .collect()
}

/// Runs one (workload, policy setting) cell; panics on a malformed setting.
pub fn run_group(workload: &ResolvedWorkload, policy: &str, scale: SimScale) -> RunResult {
    let setting = PolicySetting::parse(policy).unwrap_or_else(|e| panic!("{e}"));
    run_setting(workload, &setting, scale)
}

/// Runs one (workload, policy setting) cell: the one place a sweep cell's
/// system is assembled.
pub fn run_setting(
    workload: &ResolvedWorkload,
    setting: &PolicySetting,
    scale: SimScale,
) -> RunResult {
    let builder = System::builder()
        .workload_resolved(workload.clone())
        .scale(scale);
    let mut sys = setting.configure(builder).build();
    if setting.policy == "cpe" {
        sys.set_cpe_profile(solo::cpe_profile_for(
            workload,
            solo::solo_llc(workload.cores()),
            scale,
        ));
    }
    sys.run()
}

/// Maps `f` over `items` on up to `available_parallelism` worker threads,
/// starting items in list order; results come back in list order.
pub(crate) fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n_workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len());
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(idx) else {
                    break;
                };
                *slots[idx].lock().expect("result slot") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every item ran")
        })
        .collect()
}

/// Default QoS slack sweep of the coordinator experiments (fractional
/// allowed slowdown per core).
pub const DEFAULT_SLACKS: [f64; 3] = [0.05, 0.10, 0.20];

/// The coordinator grid behind `dvfs_energy` and `cbp_energy`: the
/// two-core groups under the Cooperative baseline, `dvfs` at each slack
/// and `cbp` at each slack, with no solo baselines and no Fair Share.
pub fn coordinator_grid(scale: SimScale, slacks: &[f64]) -> Grid {
    let mut settings = vec!["cooperative".to_string()];
    for policy in ["dvfs", "cbp"] {
        settings.extend(slacks.iter().map(|&s| Knob::QosSlack(s).setting(policy)));
    }
    Grid {
        cores: 2,
        scale,
        settings,
        group_filter: Vec::new(),
        solo: false,
    }
}
