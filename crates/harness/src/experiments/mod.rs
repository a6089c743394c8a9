//! One module per paper table/figure, plus shared sweep machinery.
//!
//! The sweeps enumerate *policies by registry name* (see
//! [`crate::policies::policy_registry`]) and *workload groups by registry
//! resolution* (see [`crate::workload_registry`]): Figures 5-7 (and 8-10,
//! and the 8-core extension) all read from the same group × policy sweep,
//! so sweeps are memoized process-wide by (core count, scale, policy
//! list, group list); the threshold sweep behind Figures 11-13 is cached
//! the same way. A single-process sweep is the fleet's own cells run on
//! local threads ([`cached_sweep_filtered`]), so it and a `--workers` run
//! are one engine. The threshold and coordinator sweeps run a plain
//! group × configuration grid (`run_grid`), memoized the same way. Every
//! experiment returns an [`Experiment`] holding a rendered table plus
//! free-form notes comparing against the paper's reported numbers.

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
use std::sync::{Arc, Mutex, OnceLock};

use coop_core::PAPER_POLICIES;
use simkit::table::Table;
use workloads::ResolvedWorkload;

use crate::fleet_run;
use crate::scale::SimScale;
use crate::solo;
use crate::system::{RunResult, System, SystemBuilder};

/// Simulation cost behind one experiment: the wall-clock its backing runs
/// took and how many LLC demand accesses they simulated. This is the
/// harness's perf trajectory (see BENCH_5.json): every `repro` experiment
/// prints it, so a regression in simulator throughput is visible in the
/// artifacts themselves, not just in the Criterion kernels.
///
/// Sweeps are memoized process-wide, so experiments sharing a sweep report
/// the *same* cost — the cost of computing the data they read, paid once.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentPerf {
    /// Seconds spent computing the backing runs (0 when they were cached).
    pub wall_seconds: f64,
    /// LLC demand accesses simulated across those runs.
    pub sim_accesses: u64,
    /// Processes that simulated the runs: 1 for in-process experiments,
    /// the fleet size for orchestrated sweeps. The perf line reports
    /// *aggregate* throughput either way — the wall-clock is the
    /// orchestration wall, so accesses-per-second already sums the
    /// workers' concurrent progress.
    pub workers: usize,
}

impl ExperimentPerf {
    /// Perf of an in-process run (one worker).
    pub fn local(wall_seconds: f64, sim_accesses: u64) -> ExperimentPerf {
        ExperimentPerf {
            wall_seconds,
            sim_accesses,
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

    fn render_line(&self) -> String {
        let fleet = if self.workers > 1 {
            format!(" · {} workers", self.workers)
        } else {
            String::new()
        };
        format!(
            "perf: {:.1}s simulate · {} LLC accesses · {}/s{fleet}\n",
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

/// All runs of one core-count sweep: `runs[group][policy]`, with policies
/// enumerated by registry name and groups resolved through the workload
/// registry.
#[derive(Debug)]
pub struct Sweep {
    /// 2, 4 or 8.
    pub cores: usize,
    /// Canonical policy names, in run order (the columns of `runs`).
    pub policies: Vec<&'static str>,
    /// The resolved workload groups, in registry order.
    pub groups: Vec<ResolvedWorkload>,
    /// `runs[group_idx][policy_idx]`.
    pub runs: Vec<Vec<RunResult>>,
    /// Solo IPCs per group (aligned with group member order).
    pub ipc_alone: Vec<Vec<f64>>,
    /// Wall-clock seconds the sweep took to compute (solo baselines
    /// included; 0 once memoized).
    pub wall_seconds: f64,
    /// LLC demand accesses simulated *while computing this sweep*: every
    /// (group, policy) cell plus the solo baselines this call ran itself
    /// (baselines served from the process-wide cache are excluded, so
    /// accesses-per-second never counts work the wall-clock did not pay).
    pub sim_accesses: u64,
}

impl Sweep {
    /// The sweep's simulation cost as an [`ExperimentPerf`].
    pub fn perf(&self) -> ExperimentPerf {
        ExperimentPerf::local(self.wall_seconds, self.sim_accesses)
    }
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
            .position(|&p| p == name)
            .unwrap_or_else(|| panic!("policy '{name}' not in this sweep: {:?}", self.policies))
    }

    /// Display label of the policy at `idx`.
    pub fn label(&self, idx: usize) -> &str {
        &self.runs[0][idx].label
    }

    /// Weighted speedup of `(group, policy)` normalized to Fair Share.
    pub fn ws_normalized(&self, g: usize, policy: &str) -> f64 {
        let fair = self.runs[g][self.policy_idx("fair")].weighted_speedup(&self.ipc_alone[g]);
        let this = self.runs[g][self.policy_idx(policy)].weighted_speedup(&self.ipc_alone[g]);
        this / fair
    }

    /// Dynamic energy normalized to Fair Share.
    pub fn dynamic_normalized(&self, g: usize, policy: &str) -> f64 {
        let fair = self.runs[g][self.policy_idx("fair")].energy.dynamic_nj;
        self.runs[g][self.policy_idx(policy)].energy.dynamic_nj / fair
    }

    /// Static energy normalized to Fair Share.
    pub fn static_normalized(&self, g: usize, policy: &str) -> f64 {
        let fair = self.runs[g][self.policy_idx("fair")].energy.static_nj;
        self.runs[g][self.policy_idx(policy)].energy.static_nj / fair
    }

    /// All runs for one policy.
    pub fn policy_runs(&self, policy: &str) -> impl Iterator<Item = &RunResult> {
        let idx = self.policy_idx(policy);
        self.runs.iter().map(move |per_group| &per_group[idx])
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

/// Runs one (workload, policy) cell; `policy` is a registry name.
pub fn run_group(workload: &ResolvedWorkload, policy: &str, scale: SimScale) -> RunResult {
    let canonical = crate::policies::policy_registry()
        .resolve(policy)
        .unwrap_or_else(|| panic!("unknown policy '{policy}'"));
    let mut sys = System::builder()
        .workload_resolved(workload.clone())
        .policy(canonical)
        .scale(scale)
        .build();
    if canonical == "cpe" {
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
        .min(items.len().max(1));
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

/// Runs `width` configurations of every group on the local thread pool:
/// `runs[g][j]` is configuration `j` of `groups[g]`, where `configure`
/// finishes a builder that already holds the group and the scale. Returns
/// the runs with their cost.
pub(crate) fn run_grid(
    groups: &[ResolvedWorkload],
    width: usize,
    scale: SimScale,
    configure: impl Fn(SystemBuilder, usize) -> SystemBuilder + Sync,
) -> (Vec<Vec<RunResult>>, ExperimentPerf) {
    let started = std::time::Instant::now();
    let jobs: Vec<(usize, usize)> = (0..groups.len())
        .flat_map(|g| (0..width).map(move |j| (g, j)))
        .collect();
    let flat = parallel_map(&jobs, |&(g, j)| {
        let builder = System::builder()
            .workload_resolved(groups[g].clone())
            .scale(scale);
        configure(builder, j).build().run()
    });
    let sim_accesses = flat.iter().flat_map(|r| r.accesses.iter()).sum();
    let mut flat = flat.into_iter();
    let runs = groups
        .iter()
        .map(|_| flat.by_ref().take(width).collect())
        .collect();
    let perf = ExperimentPerf::local(started.elapsed().as_secs_f64(), sim_accesses);
    (runs, perf)
}

/// Default QoS slack sweep of the coordinator experiments (fractional
/// allowed slowdown per core).
pub const DEFAULT_SLACKS: [f64; 3] = [0.05, 0.10, 0.20];

/// `slacks`, or [`DEFAULT_SLACKS`] when empty.
pub(crate) fn slacks_or_default(slacks: &[f64]) -> Vec<f64> {
    if slacks.is_empty() {
        DEFAULT_SLACKS.to_vec()
    } else {
        slacks.to_vec()
    }
}

/// A process-wide memo: entries computed once per key and shared.
type Memo<K, V> = Mutex<Vec<(K, Arc<V>)>>;

/// The memo's entry for `key`, computing it on a miss. The lock is not held
/// while computing, so independent entries compute concurrently.
fn memoized<K: PartialEq, V>(memo: &Memo<K, V>, key: K, compute: impl FnOnce() -> V) -> Arc<V> {
    if let Some((_, hit)) = memo.lock().expect("memo").iter().find(|(k, _)| *k == key) {
        return Arc::clone(hit);
    }
    let value = Arc::new(compute());
    memo.lock().expect("memo").push((key, Arc::clone(&value)));
    value
}

/// Memoized sweep for (cores, scale) over the five paper policies.
pub fn cached_sweep(cores: usize, scale: SimScale) -> Arc<Sweep> {
    cached_sweep_filtered(cores, scale, &PAPER_POLICIES, &[])
        .expect("the registry always has groups for 2/4/8 cores")
}

/// Memoized sweep for (cores, scale) over an explicit policy list
/// (canonical registry names; the Fair Share baseline is added when
/// missing, since every figure normalizes to it), restricted to the named
/// groups (canonical registry group names; an empty filter keeps every
/// group of the core count). Returns `None` when the filter leaves no
/// group at this core count.
///
/// The sweep runs the fleet's own cells ([`fleet_run::sweep_cells`]) on
/// the local thread pool and folds their payloads with
/// [`fleet_run::merge_sweep`], so a single-process sweep and a fleet run
/// are one engine. `scale` must be a named preset: cells resolve their
/// scale by name.
pub fn cached_sweep_filtered(
    cores: usize,
    scale: SimScale,
    policies: &[&'static str],
    group_filter: &[String],
) -> Option<Arc<Sweep>> {
    /// Keyed by `(cores, scale name, policies with Fair Share, group labels)`.
    type SweepKey = (usize, &'static str, Vec<&'static str>, Vec<String>);
    static MEMO: OnceLock<Memo<SweepKey, Sweep>> = OnceLock::new();
    let groups = fleet_run::filtered_groups(cores, group_filter);
    if groups.is_empty() {
        return None;
    }
    let key: SweepKey = (
        cores,
        scale.name,
        fleet_run::policies_with_fair(policies),
        groups.iter().map(|g| g.label.clone()).collect(),
    );
    Some(memoized(MEMO.get_or_init(Default::default), key, || {
        let cells = fleet_run::sweep_cells(&[cores], scale, policies, group_filter);
        let run = fleet_run::run_cells_local(&cells).unwrap_or_else(|e| panic!("{e}"));
        fleet_run::merge_sweep(
            &|cell| run.lookup(cell),
            cores,
            scale,
            policies,
            group_filter,
            run.perf.wall_seconds,
            run.perf.sim_accesses,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }))
}

/// The Cooperative-scheme threshold sweep behind Figures 11-13:
/// `runs[group][threshold]` plus its simulation cost.
#[derive(Debug)]
pub struct ThresholdSweep {
    /// `runs[group_idx][threshold_idx]` for [`fig11_13::THRESHOLDS`].
    pub runs: Vec<Vec<RunResult>>,
    /// Simulation cost of computing the sweep.
    pub perf: ExperimentPerf,
}

/// Memoized Cooperative-scheme threshold sweep over the two-core groups
/// (Figures 11-13).
pub fn cached_threshold_sweep(scale: SimScale) -> Arc<ThresholdSweep> {
    static MEMO: OnceLock<Memo<&'static str, ThresholdSweep>> = OnceLock::new();
    memoized(MEMO.get_or_init(Default::default), scale.name, || {
        let thresholds = fig11_13::THRESHOLDS;
        let (runs, perf) = run_grid(&groups_for_cores(2), thresholds.len(), scale, |b, t| {
            b.policy("cooperative").threshold(thresholds[t])
        });
        ThresholdSweep { runs, perf }
    })
}

/// The coordinator grid behind `dvfs_energy` and `cbp_energy` over the
/// two-core groups: per group, the Cooperative baseline, `dvfs` at each
/// slack, then `cbp` at each slack.
#[derive(Debug)]
pub(crate) struct CoordinatorSweep {
    /// `runs[group_idx][column]`, columns as above.
    runs: Vec<Vec<RunResult>>,
    /// Number of slack levels.
    slacks: usize,
    /// Simulation cost of computing the grid.
    pub perf: ExperimentPerf,
}

impl CoordinatorSweep {
    /// The Cooperative baseline of group `g`.
    pub fn baseline(&self, g: usize) -> &RunResult {
        &self.runs[g][0]
    }

    /// The `dvfs` run of group `g` at slack index `si`.
    pub fn dvfs(&self, g: usize, si: usize) -> &RunResult {
        &self.runs[g][1 + si]
    }

    /// The `cbp` run of group `g` at slack index `si`.
    pub fn cbp(&self, g: usize, si: usize) -> &RunResult {
        &self.runs[g][1 + self.slacks + si]
    }
}

/// Memoized coordinator grid for (scale, slacks), shared by `dvfs_energy`
/// and `cbp_energy`.
pub(crate) fn cached_coordinator_sweep(scale: SimScale, slacks: &[f64]) -> Arc<CoordinatorSweep> {
    static MEMO: OnceLock<Memo<(&'static str, Vec<f64>), CoordinatorSweep>> = OnceLock::new();
    let key = (scale.name, slacks.to_vec());
    memoized(MEMO.get_or_init(Default::default), key, || {
        let n = slacks.len();
        let (runs, perf) = run_grid(&groups_for_cores(2), 1 + 2 * n, scale, |b, j| match j {
            0 => b.policy("cooperative"),
            j if j <= n => b.policy("dvfs").qos_slack(slacks[j - 1]),
            j => b.policy("cbp").qos_slack(slacks[j - 1 - n]),
        });
        CoordinatorSweep {
            runs,
            slacks: n,
            perf,
        }
    })
}
