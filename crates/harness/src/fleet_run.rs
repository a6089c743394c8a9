//! Harness side of fleet orchestration, and the one cell engine: the
//! [`fleet::CellRunner`] that executes one cell, bit-exact serialization
//! of [`RunResult`] / solo baselines through [`simkit::json`], cell
//! enumeration for the sweep grids and the Monte Carlo sample, the merge
//! that folds finished cells back into a [`Sweep`], and the `repro
//! --workers` path.
//!
//! Which cells a `repro` target reads, and what it renders from them, is
//! the target table's ([`crate::targets`]); this module runs those cells.
//! In process, [`run_cells_local`] looks each cell up in the process-wide
//! cell memo, which simulates only the cells no earlier call ran. Under
//! `--workers`, [`run_fleet_target`] runs the union of a target's cells
//! once on worker processes streaming into a results store, skipping the
//! cells any earlier run of the same binary left verified there, and the
//! target renders from the store. Both fold payloads with
//! [`merge_sweep`], the only code that assembles a [`Sweep`].
//!
//! Bit-identity is the contract: every `f64` crosses the worker protocol
//! and the results store via Rust's shortest-roundtrip formatting and
//! every `u64` as a raw integer token, so a sweep table merged from any
//! sharding, any worker interleaving, and any number of kill/resume
//! cycles is byte-for-byte the table of the unsharded run (pinned by the
//! `fleet_determinism` proptest and the `fleet_e2e` smoke).

// In-process cell runs report wall time in their perf line; allowlisted
// here and in simlint's path allowlist.
#![allow(clippy::disallowed_methods)]

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use coop_core::MissCurve;
use energy::{CoreEnergyReport, EnergyCounts, EnergyReport};
use fleet::{CellKind, CellSpec, FleetConfig, FleetReport, Manifest, ResultsStore};
use simkit::json::{self, Value};
use simkit::DetRng;
use workloads::ResolvedWorkload;

use crate::experiments::sample::{self, SampleOutcome};
use crate::experiments::{self, Experiment, ExperimentPerf, Sweep};
use crate::memo;
use crate::policies::PolicySetting;
use crate::scale::SimScale;
use crate::solo;
use crate::system::RunResult;
use crate::targets::{Target, TargetArgs};

// ---------------------------------------------------------------------------
// Payload serialization (bit-exact)

fn curve_to_value(c: &MissCurve) -> Value {
    let values: Vec<f64> = (0..=c.ways()).map(|w| c.misses(w)).collect();
    json::obj(vec![
        ("misses", json::arr_f64(&values)),
        ("accesses", json::num_f64(c.accesses())),
    ])
}

fn curve_from_value(v: &Value) -> Result<MissCurve, String> {
    Ok(MissCurve::new(v.req("misses")?, v.req("accesses")?))
}

fn curves_to_value(curves: &[MissCurve]) -> Value {
    Value::Arr(curves.iter().map(curve_to_value).collect())
}

fn curves_from_value(v: &Value, key: &str) -> Result<Vec<MissCurve>, String> {
    v.req::<&[Value]>(key)?
        .iter()
        .map(curve_from_value)
        .collect()
}

/// Serializes a [`RunResult`] — every field, so any figure can be rebuilt
/// from stored cells without rerunning the simulator.
pub fn run_result_to_value(r: &RunResult) -> Value {
    json::obj(vec![
        ("policy", json::str(&r.policy)),
        ("label", json::str(&r.label)),
        ("workload", json::str(&r.workload)),
        ("ipc", json::arr_f64(&r.ipc)),
        ("mpki", json::arr_f64(&r.mpki)),
        ("apki", json::arr_f64(&r.apki)),
        ("accesses", json::arr_u64(&r.accesses)),
        (
            "counts",
            json::obj(vec![
                ("tag_way_probes", json::num_u64(r.counts.tag_way_probes)),
                ("data_reads", json::num_u64(r.counts.data_reads)),
                ("data_writes", json::num_u64(r.counts.data_writes)),
                ("umon_probes", json::num_u64(r.counts.umon_probes)),
                ("vector_accesses", json::num_u64(r.counts.vector_accesses)),
                ("on_way_cycles", json::num_u64(r.counts.on_way_cycles)),
                ("gated_way_cycles", json::num_u64(r.counts.gated_way_cycles)),
                ("total_cycles", json::num_u64(r.counts.total_cycles)),
            ]),
        ),
        (
            "energy",
            json::obj(vec![
                ("dynamic_nj", json::num_f64(r.energy.dynamic_nj)),
                ("tag_nj", json::num_f64(r.energy.tag_nj)),
                ("overhead_nj", json::num_f64(r.energy.overhead_nj)),
                ("data_nj", json::num_f64(r.energy.data_nj)),
                ("static_nj", json::num_f64(r.energy.static_nj)),
            ]),
        ),
        ("avg_ways", json::num_f64(r.avg_ways)),
        ("cycles", json::num_u64(r.cycles)),
        (
            "cp_transfer_durations",
            json::arr_u64(&r.cp_transfer_durations),
        ),
        (
            "ucp_transfer_durations",
            json::arr_u64(&r.ucp_transfer_durations),
        ),
        ("takeover_events", json::arr_u64(&r.takeover_events)),
        ("forced_transfers", json::num_u64(r.forced_transfers)),
        ("flush_lines", json::num_u64(r.flush_lines)),
        ("flush_series", json::arr_f64(&r.flush_series)),
        ("flush_bucket", json::num_u64(r.flush_bucket)),
        ("repartitions", json::num_u64(r.repartitions)),
        ("epoch_curves", curves_to_value(&r.epoch_curves)),
        (
            "core_energy",
            json::obj(vec![
                ("dynamic_nj", json::num_f64(r.core_energy.dynamic_nj)),
                ("static_nj", json::num_f64(r.core_energy.static_nj)),
            ]),
        ),
        ("avg_freq_ghz", json::arr_f64(&r.avg_freq_ghz)),
        (
            "freq_residency",
            Value::Arr(r.freq_residency.iter().map(|c| json::arr_f64(c)).collect()),
        ),
        ("avg_ways_owned", json::arr_f64(&r.avg_ways_owned)),
        ("prefetches", json::arr_u64(&r.prefetches)),
        ("prefetch_useful", json::arr_u64(&r.prefetch_useful)),
        ("dram_lines", json::arr_u64(&r.dram_lines)),
        ("bw_delay_cycles", json::arr_u64(&r.bw_delay_cycles)),
        ("avg_bw_share", json::arr_f64(&r.avg_bw_share)),
        ("avg_prefetch_degree", json::arr_f64(&r.avg_prefetch_degree)),
    ])
}

/// Rebuilds a [`RunResult`] from its serialized form.
pub fn run_result_from_value(v: &Value) -> Result<RunResult, String> {
    let counts: &Value = v.req("counts")?;
    let energy: &Value = v.req("energy")?;
    let core_energy: &Value = v.req("core_energy")?;
    let takeover: Vec<u64> = v.req("takeover_events")?;
    let takeover_events: [u64; 4] = takeover
        .try_into()
        .map_err(|t: Vec<u64>| format!("takeover_events must have 4 entries, got {}", t.len()))?;
    Ok(RunResult {
        policy: v.req("policy")?,
        label: v.req("label")?,
        workload: v.req("workload")?,
        ipc: v.req("ipc")?,
        mpki: v.req("mpki")?,
        apki: v.req("apki")?,
        accesses: v.req("accesses")?,
        counts: EnergyCounts {
            tag_way_probes: counts.req("tag_way_probes")?,
            data_reads: counts.req("data_reads")?,
            data_writes: counts.req("data_writes")?,
            umon_probes: counts.req("umon_probes")?,
            vector_accesses: counts.req("vector_accesses")?,
            on_way_cycles: counts.req("on_way_cycles")?,
            gated_way_cycles: counts.req("gated_way_cycles")?,
            total_cycles: counts.req("total_cycles")?,
        },
        energy: EnergyReport {
            dynamic_nj: energy.req("dynamic_nj")?,
            tag_nj: energy.req("tag_nj")?,
            overhead_nj: energy.req("overhead_nj")?,
            data_nj: energy.req("data_nj")?,
            static_nj: energy.req("static_nj")?,
        },
        avg_ways: v.req("avg_ways")?,
        cycles: v.req("cycles")?,
        cp_transfer_durations: v.req("cp_transfer_durations")?,
        ucp_transfer_durations: v.req("ucp_transfer_durations")?,
        takeover_events,
        forced_transfers: v.req("forced_transfers")?,
        flush_lines: v.req("flush_lines")?,
        flush_series: v.req("flush_series")?,
        flush_bucket: v.req("flush_bucket")?,
        repartitions: v.req("repartitions")?,
        epoch_curves: curves_from_value(v, "epoch_curves")?,
        core_energy: CoreEnergyReport {
            dynamic_nj: core_energy.req("dynamic_nj")?,
            static_nj: core_energy.req("static_nj")?,
        },
        avg_freq_ghz: v.req("avg_freq_ghz")?,
        freq_residency: v.req("freq_residency")?,
        avg_ways_owned: v.req("avg_ways_owned")?,
        prefetches: v.req("prefetches")?,
        prefetch_useful: v.req("prefetch_useful")?,
        dram_lines: v.req("dram_lines")?,
        bw_delay_cycles: v.req("bw_delay_cycles")?,
        avg_bw_share: v.req("avg_bw_share")?,
        avg_prefetch_degree: v.req("avg_prefetch_degree")?,
    })
}

/// Serializes a solo baseline ([`solo::SoloResult`]).
pub fn solo_to_value(s: &solo::SoloResult) -> Value {
    json::obj(vec![
        ("ipc", json::num_f64(s.ipc)),
        ("mpki", json::num_f64(s.mpki)),
        ("apki", json::num_f64(s.apki)),
        ("accesses", json::num_u64(s.accesses)),
        ("epoch_curves", curves_to_value(&s.epoch_curves)),
    ])
}

/// Rebuilds a solo baseline payload.
pub fn solo_from_value(v: &Value) -> Result<solo::SoloResult, String> {
    Ok(solo::SoloResult {
        ipc: v.req("ipc")?,
        mpki: v.req("mpki")?,
        apki: v.req("apki")?,
        accesses: v.req("accesses")?,
        epoch_curves: curves_from_value(v, "epoch_curves")?,
    })
}

// ---------------------------------------------------------------------------
// Cell execution (the worker side)

fn scale_by_name(name: &str) -> Result<SimScale, String> {
    SimScale::by_name(name).ok_or_else(|| format!("unknown scale '{name}'"))
}

/// Executes fleet cells with the harness simulator. A sweep cell's policy
/// is a setting ([`PolicySetting`]); a malformed one is the cell's `Err`,
/// since cells also arrive from stores and worker pipes. One instance
/// serves a whole worker process, which shares its solo baselines through
/// the process-wide cell memo but keeps no sweep payloads. The access
/// count it reports with a payload is the work the cell simulated: 0 for a
/// baseline the process already held.
pub struct HarnessCellRunner;

impl fleet::CellRunner for HarnessCellRunner {
    fn run_cell(&self, cell: &CellSpec) -> Result<(Value, u64), String> {
        run_cell_with(cell, false).map(|(payload, simulated)| (payload, simulated.unwrap_or(0)))
    }
}

/// Runs one cell through the process-wide memo (a sweep cell only when
/// `memo_sweeps` is set): its payload, and the LLC accesses this call
/// simulated, `None` when the memo already held the cell.
fn run_cell_with(cell: &CellSpec, memo_sweeps: bool) -> Result<(Value, Option<u64>), String> {
    let scale = scale_by_name(&cell.scale)?;
    match cell.kind {
        CellKind::Sweep => {
            let workload = crate::workload_registry()
                .resolve(&cell.workload)
                .map_err(|e| e.to_string())?;
            if workload.cores() != cell.cores {
                return Err(format!(
                    "cell says {} cores but '{}' resolves to {}",
                    cell.cores,
                    cell.workload,
                    workload.cores()
                ));
            }
            let setting = PolicySetting::parse(&cell.policy)?;
            let run = || experiments::run_setting(&workload, &setting, scale);
            let (r, computed) = if memo_sweeps {
                memo::fetch(memo::Key::Cell(cell.id()), run)
            } else {
                (Arc::new(run()), true)
            };
            let simulated = computed.then(|| r.accesses.iter().sum());
            Ok((run_result_to_value(&r), simulated))
        }
        CellKind::Solo => {
            let member = crate::workload_registry()
                .member(&cell.workload)
                .map_err(|e| e.to_string())?;
            let (s, computed) =
                solo::solo_result_tracked(&member, solo::solo_llc(cell.cores), scale);
            Ok((solo_to_value(&s), computed.then_some(s.accesses)))
        }
    }
}

/// The `repro worker` entry point: serve the NDJSON protocol on
/// stdin/stdout until the orchestrator says exit.
pub fn worker_serve() {
    fleet::serve(&HarnessCellRunner);
}

// ---------------------------------------------------------------------------
// Cell enumeration

/// A flag's list, or the target part's `default` when it was not given.
fn or_default<'a, T>(given: &'a [T], default: &'a [T]) -> &'a [T] {
    if given.is_empty() {
        default
    } else {
        given
    }
}

/// Normalizes a policy list: Fair Share joins at the front when missing
/// (every figure normalizes to it).
pub fn policies_with_fair(policies: &[&'static str]) -> Vec<&'static str> {
    let mut out = policies.to_vec();
    if !out.contains(&"fair") {
        out.insert(0, "fair");
    }
    out
}

/// The groups of one core count that a filter keeps (case-insensitive
/// label match; an empty filter keeps all), in registry order.
pub fn filtered_groups(cores: usize, group_filter: &[String]) -> Vec<ResolvedWorkload> {
    experiments::groups_for_cores(cores)
        .into_iter()
        .filter(|g| {
            group_filter.is_empty()
                || group_filter
                    .iter()
                    .any(|f| f.eq_ignore_ascii_case(&g.label))
        })
        .collect()
}

/// One sweep grid: the groups of one core count that a filter keeps, each
/// run under every policy setting, plus their solo baselines when `solo`
/// is set (the weighted-speedup figures read them).
#[derive(Debug, Clone)]
pub struct Grid {
    /// 2, 4 or 8.
    pub cores: usize,
    /// Scale preset (cells name it).
    pub scale: SimScale,
    /// Policy setting names: the columns.
    pub settings: Vec<String>,
    /// Canonical group names to keep (empty keeps every group).
    pub group_filter: Vec<String>,
    /// Whether the grid runs its groups' solo baselines.
    pub solo: bool,
}

impl Grid {
    /// A paper-sweep grid: `policies` (empty: the five paper policies)
    /// with Fair Share joined, plus the solo baselines.
    pub fn sweep(
        cores: usize,
        scale: SimScale,
        policies: &[&'static str],
        group_filter: &[String],
    ) -> Grid {
        Grid {
            cores,
            scale,
            settings: policies_with_fair(or_default(policies, &coop_core::PAPER_POLICIES))
                .iter()
                .map(|p| p.to_string())
                .collect(),
            group_filter: group_filter.to_vec(),
            solo: true,
        }
    }

    /// The grid's cells: solo baselines first (each member once, shared by
    /// every policy cell of its groups), then one sweep cell per (group,
    /// setting). Deterministic order — the cell list (and thus every shard
    /// plan and the manifest's cell set) is a pure function of the grid.
    pub fn cells(&self) -> Vec<CellSpec> {
        let groups = filtered_groups(self.cores, &self.group_filter);
        let mut cells: Vec<CellSpec> = Vec::new();
        if self.solo {
            for g in &groups {
                for m in g.member_names() {
                    let cell = CellSpec::solo(m, self.cores, self.scale.name);
                    if !cells.contains(&cell) {
                        cells.push(cell);
                    }
                }
            }
        }
        for g in &groups {
            for p in &self.settings {
                cells.push(CellSpec::sweep(&g.label, p, self.cores, self.scale.name));
            }
        }
        cells
    }
}

// ---------------------------------------------------------------------------
// Monte Carlo sampling

/// A Monte Carlo sweep plan: `n` mixes from seed `seed`, QoS slack for
/// the violation metric.
#[derive(Debug, Clone, Copy)]
pub struct SamplePlan {
    /// Number of sampled mixes.
    pub n: u64,
    /// RNG seed (same seed = same mixes on every host).
    pub seed: u64,
    /// QoS slack: a core violates when its speedup vs running alone
    /// drops below `1 - slack`.
    pub slack: f64,
}

/// The sampled mix specs, in draw order (duplicates possible and kept —
/// the distribution weights repeated draws).
pub fn sample_specs(plan: &SamplePlan) -> Vec<String> {
    let registry = crate::workload_registry();
    let mut rng = DetRng::derive(plan.seed, "fleet.sample");
    (0..plan.n)
        .map(|_| registry.sample_mix(&mut rng, workloads::MAX_CORES))
        .collect()
}

/// Default Monte Carlo policy set when `--policy` is absent.
pub const SAMPLE_POLICIES: [&str; 2] = ["fair", "cooperative"];

/// Cells for the sampled mixes, per mix its solo baselines and one cell
/// per policy (empty: [`SAMPLE_POLICIES`]; Fair Share joined). A repeated draw repeats its cells; a
/// target lists each cell once, so it runs once and counts many times.
pub fn sample_cells(
    plan: &SamplePlan,
    scale: SimScale,
    policies: &[&'static str],
) -> Result<Vec<CellSpec>, String> {
    let registry = crate::workload_registry();
    let policies = policies_with_fair(or_default(policies, &SAMPLE_POLICIES));
    let mut cells: Vec<CellSpec> = Vec::new();
    for spec in sample_specs(plan) {
        let wl = registry.resolve(&spec).map_err(|e| e.to_string())?;
        for m in wl.member_names() {
            cells.push(CellSpec::solo(m, wl.cores(), scale.name));
        }
        for p in &policies {
            cells.push(CellSpec::sweep(&wl.label, p, wl.cores(), scale.name));
        }
    }
    Ok(cells)
}

// ---------------------------------------------------------------------------
// Merging stored cells back into harness results

/// A source of finished cell payloads: the results store for fleet runs,
/// an in-memory map for in-process runs and tests.
pub type CellLookup<'a> = &'a dyn Fn(&CellSpec) -> Result<Value, String>;

fn lookup_run(lookup: CellLookup, cell: &CellSpec) -> Result<RunResult, String> {
    run_result_from_value(&lookup(cell)?)
        .map_err(|e| format!("cell {} ({}): {e}", cell.id(), cell.canonical()))
}

pub(crate) fn lookup_solo(lookup: CellLookup, cell: &CellSpec) -> Result<solo::SoloResult, String> {
    solo_from_value(&lookup(cell)?)
        .map_err(|e| format!("cell {} ({}): {e}", cell.id(), cell.canonical()))
}

/// Folds stored cells back into the [`Sweep`] of `grid`: groups in
/// registry order, one column per setting, `ipc_alone` from the solo
/// cells. This is the one code that assembles a [`Sweep`], from the process
/// memo and from a fleet's store alike.
/// `perf` carries the run's cost (it feeds the perf line, never the
/// tables).
pub fn merge_sweep(lookup: CellLookup, grid: &Grid, perf: ExperimentPerf) -> Result<Sweep, String> {
    let (cores, scale) = (grid.cores, grid.scale.name);
    let groups = filtered_groups(cores, &grid.group_filter);
    if groups.is_empty() {
        return Err(format!("no {cores}-core groups under the given filter"));
    }
    let mut runs = Vec::with_capacity(groups.len());
    let mut ipc_alone = Vec::with_capacity(groups.len());
    for g in &groups {
        let row = grid
            .settings
            .iter()
            .map(|p| lookup_run(lookup, &CellSpec::sweep(&g.label, p, cores, scale)))
            .collect::<Result<Vec<_>, _>>()?;
        runs.push(row);
        let members = if grid.solo {
            g.member_names()
        } else {
            Vec::new()
        };
        ipc_alone.push(
            members
                .iter()
                .map(|m| lookup_solo(lookup, &CellSpec::solo(m, cores, scale)).map(|s| s.ipc))
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    Ok(Sweep {
        policies: grid.settings.clone(),
        groups,
        runs,
        ipc_alone,
        scale: grid.scale,
        perf,
    })
}

/// The Monte Carlo report from the sampled mixes' cells: per policy
/// besides Fair Share (empty: [`SAMPLE_POLICIES`]), its distributional
/// outcomes vs Fair Share.
pub fn sample_figures(
    lookup: CellLookup,
    plan: &SamplePlan,
    scale: SimScale,
    policies: &[&'static str],
    perf: ExperimentPerf,
) -> Result<Vec<Experiment>, String> {
    let registry = crate::workload_registry();
    let specs = sample_specs(plan);
    let mut figures = Vec::new();
    let policies = or_default(policies, &SAMPLE_POLICIES);
    for &policy in policies.iter().filter(|&&p| p != "fair") {
        let mut outcomes = Vec::with_capacity(specs.len());
        for spec in &specs {
            let wl = registry.resolve(spec).map_err(|e| e.to_string())?;
            let cores = wl.cores();
            let ipc_alone: Vec<f64> = wl
                .member_names()
                .iter()
                .map(|m| lookup_solo(lookup, &CellSpec::solo(m, cores, scale.name)).map(|s| s.ipc))
                .collect::<Result<Vec<_>, _>>()?;
            let run_of =
                |p: &str| lookup_run(lookup, &CellSpec::sweep(&wl.label, p, cores, scale.name));
            let (fair, run) = (run_of("fair")?, run_of(policy)?);
            let violations = run
                .ipc
                .iter()
                .zip(ipc_alone.iter())
                .filter(|(ipc, alone)| *ipc / *alone < 1.0 - plan.slack)
                .count();
            outcomes.push(SampleOutcome {
                spec: wl.label.clone(),
                cores,
                ws_norm: run.weighted_speedup(&ipc_alone) / fair.weighted_speedup(&ipc_alone),
                dyn_norm: run.energy.dynamic_nj / fair.energy.dynamic_nj,
                static_norm: run.energy.static_nj / fair.energy.static_nj,
                qos_violation: violations as f64 / cores as f64,
            });
        }
        figures.push(sample::figure(
            policy, &outcomes, plan.n, plan.seed, plan.slack, perf,
        ));
    }
    Ok(figures)
}

/// Payloads of cells run on the local thread pool, by cell ID, with the
/// cost of simulating the ones the memo lacked.
pub struct LocalRun {
    payloads: BTreeMap<String, Value>,
    /// Wall-clock of the run and the LLC accesses its cells reported.
    pub perf: ExperimentPerf,
}

impl LocalRun {
    /// The payload of a cell this run computed.
    pub fn lookup(&self, cell: &CellSpec) -> Result<Value, String> {
        self.payloads
            .get(&cell.id())
            .cloned()
            .ok_or_else(|| format!("cell {} was not computed", cell.canonical()))
    }
}

/// Runs cells in-process on the local thread pool through the process-wide
/// cell memo, so only cells no earlier call ran are simulated. Every solo
/// cell goes first, so a CPE cell reads its profile from the memo and
/// never simulates a baseline. The perf counts the accesses of the cells
/// this call simulated, and the cells it reused.
pub fn run_cells_local(cells: &[CellSpec]) -> Result<LocalRun, String> {
    let started = std::time::Instant::now();
    let (solos, rest): (Vec<&CellSpec>, Vec<&CellSpec>) =
        cells.iter().partition(|c| c.kind == CellKind::Solo);
    let mut payloads = BTreeMap::new();
    let (mut sim_accesses, mut reused) = (0, 0);
    let mut errors = Vec::new();
    for phase in [solos, rest] {
        let results = experiments::parallel_map(&phase, |cell| run_cell_with(cell, true));
        for (cell, result) in phase.into_iter().zip(results) {
            match result {
                Ok((payload, simulated)) => {
                    sim_accesses += simulated.unwrap_or(0);
                    reused += usize::from(simulated.is_none());
                    payloads.insert(cell.id(), payload);
                }
                Err(e) => errors.push(format!("{}: {e}", cell.canonical())),
            }
        }
    }
    if let Some(first) = errors.first() {
        return Err(format!("{} cells failed; first: {first}", errors.len()));
    }
    Ok(LocalRun {
        payloads,
        perf: ExperimentPerf {
            cells: cells.len(),
            reused,
            ..ExperimentPerf::local(started.elapsed().as_secs_f64(), sim_accesses)
        },
    })
}

/// Runs every cell in-process (see [`run_cells_local`]) and returns the
/// payloads by cell ID — the single-process twin of a fleet run.
pub fn compute_cells_inprocess(cells: &[CellSpec]) -> Result<BTreeMap<String, Value>, String> {
    run_cells_local(cells).map(|run| run.payloads)
}

// ---------------------------------------------------------------------------
// Orchestration glue (the `repro` fleet path)

/// Fleet flags from the `repro` command line.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Worker process count (`--workers`).
    pub workers: usize,
    /// Shard count override (`--shards`).
    pub shards: Option<usize>,
    /// `--resume`: refuse a directory that holds no store.
    pub resume: bool,
}

/// What a fleet run produced: the merged experiments plus the
/// orchestration report (for exit codes and logging).
pub struct FleetOutcome {
    /// Merged experiments, same order the in-process path would emit.
    pub experiments: Vec<Experiment>,
    /// Orchestration statistics.
    pub report: FleetReport,
    /// `Some("N/M cells, partial")` when the run could not finish and the
    /// experiments were salvaged from the durable subset — the caller
    /// should surface the coverage and exit nonzero so scripts notice.
    pub partial: Option<String>,
}

/// The flags of a fleet run as target arguments. The fleet reads the
/// coordinator grid at the default slacks.
fn fleet_args<'a>(
    scale: SimScale,
    policies: &'a [&'static str],
    groups: &'a [String],
    sample: Option<&'a SamplePlan>,
) -> TargetArgs<'a> {
    TargetArgs {
        scale,
        policies,
        groups,
        slacks: &experiments::DEFAULT_SLACKS,
        sample,
    }
}

/// The cells target `what` reads, each once (`None` when `what` names no
/// target).
pub fn cells_for_target(
    what: &str,
    scale: SimScale,
    policies: &[&'static str],
    group_filter: &[String],
    sample: Option<&SamplePlan>,
) -> Option<Result<Vec<CellSpec>, String>> {
    Some(Target::find(what)?.cells(&fleet_args(scale, policies, group_filter, sample)))
}

/// Opens the store, runs the fleet over the cells it does not hold
/// verified yet, and merges the finished cells into experiments. Any
/// store of this format and code version serves any target. `Err` carries
/// a user-facing message; partial results stay on disk for a rerun.
pub fn run_fleet_target(
    what: &str,
    scale: SimScale,
    policies: &[&'static str],
    group_filter: &[String],
    sample: Option<&SamplePlan>,
    dir: &str,
    opts: &FleetOptions,
) -> Result<FleetOutcome, String> {
    let target = Target::find(what).ok_or_else(|| format!("unknown target '{what}'"))?;
    let args = fleet_args(scale, policies, group_filter, sample);
    let cells = target.cells(&args)?;

    // The orchestrating process arms the same chaos engine the workers
    // read from `FLEET_CHAOS`, so torn cell writes inject
    // deterministically alongside the worker-side faults.
    let store = ResultsStore::open(dir)
        .map_err(|e| e.to_string())?
        .with_chaos(fleet::ChaosEngine::from_env().map(Arc::new));
    let mut manifest = Manifest::new(&fleet::version_string(), &cells);
    match store.read_manifest().map_err(|e| e.to_string())? {
        Some(existing) => manifest
            .join(&existing)
            .map_err(|e| format!("{e}\nuse a fresh --json directory"))?,
        None if opts.resume => return Err(format!("--resume: no manifest found in '{dir}'")),
        None => {}
    }
    store.write_manifest(&manifest).map_err(|e| e.to_string())?;
    let all_ids: Vec<String> = cells.iter().map(CellSpec::id).collect();

    let exe = std::env::current_exe()
        .map_err(|e| format!("cannot locate the repro binary for workers: {e}"))?;
    let mut cfg = FleetConfig::new(
        vec![exe.display().to_string(), "worker".to_string()],
        opts.workers,
    );
    cfg.shards = opts.shards;
    // The runner lets the orchestrator finish in-process when no worker
    // can be spawned at all (bad binary, fork limits, chaos).
    let mut report =
        fleet::run_fleet(&cells, &store, &cfg, &HarnessCellRunner).map_err(|e| e.to_string())?;

    // Post-run integrity pass: a torn write (chaos or a real media fault)
    // can leave a cell file that no longer verifies — the orchestrator
    // counted the cell done, but the bytes are not trustworthy.
    // Quarantine such cells and recompute them before merging; bounded
    // passes so persistent corruption fails loudly instead of looping.
    let mut integrity_passes = 0usize;
    while report.complete() {
        let bad = store
            .verify_cells(&all_ids)
            .map_err(|e| e.to_string())?
            .quarantined;
        if bad.is_empty() {
            break;
        }
        integrity_passes += 1;
        if integrity_passes > 2 {
            report.failed_cells.extend(
                bad.into_iter()
                    .map(|(id, why)| (id, format!("persistently corrupt: {why}"))),
            );
            break;
        }
        eprintln!(
            "# fleet: {} corrupt cell(s) quarantined; recomputing (integrity pass {integrity_passes})",
            bad.len()
        );
        let again = fleet::run_fleet(&cells, &store, &cfg, &HarnessCellRunner)
            .map_err(|e| e.to_string())?;
        fold_report(&mut report, again);
    }

    let perf = ExperimentPerf {
        cells: cells.len(),
        reused: report.cells_prior,
        workers: opts.workers,
        ..ExperimentPerf::local(report.wall_seconds, report.sim_accesses)
    };
    let lookup = |cell: &CellSpec| -> Result<Value, String> {
        store
            .read_cell(&cell.id())
            .map(|(_, payload)| payload)
            .map_err(|e| e.to_string())
    };
    if report.complete() {
        let experiments = target.render(&lookup, &args, perf)?;
        return Ok(FleetOutcome {
            experiments,
            report,
            partial: None,
        });
    }
    // Salvage what the durable cells fully cover before giving up:
    // figures built from complete groups only, stamped with explicit
    // partial coverage.
    let failed = report.failed_cells.len();
    salvage_partial(&store, &lookup, target, &args, &all_ids, report, perf)?.ok_or_else(|| {
        format!(
            "{failed} cells failed permanently (see the fleet log above); finished cells are saved — fix the cause and rerun with --resume"
        )
    })
}

/// Accumulates a recompute pass's statistics into the run's report. The
/// follow-up pass's failure set *replaces* the first's (those are the
/// cells still missing); everything else adds up.
fn fold_report(into: &mut FleetReport, next: FleetReport) {
    into.cells_completed += next.cells_completed;
    into.retries += next.retries;
    into.worker_deaths += next.worker_deaths;
    into.sim_accesses += next.sim_accesses;
    into.wall_seconds += next.wall_seconds;
    into.failed_cells = next.failed_cells;
    into.deadline_expired |= next.deadline_expired;
    into.ran_inprocess |= next.ran_inprocess;
}

/// Builds partial-coverage experiments from an incomplete run: sweep
/// groups whose cells (every policy, every solo baseline) are all durable
/// and valid merge exactly as a complete run would; incomplete groups are
/// omitted; every figure is stamped `N/M cells, partial`. Only a target
/// whose parts are all paper sweeps is salvaged: `None` for any other
/// (a Monte Carlo run's statistics over a partial draw set, say, would
/// silently be a different experiment), and when no group is fully
/// covered.
fn salvage_partial(
    store: &ResultsStore,
    lookup: CellLookup,
    target: Target,
    args: &TargetArgs,
    cell_ids: &[String],
    report: FleetReport,
    perf: ExperimentPerf,
) -> Result<Option<FleetOutcome>, String> {
    let Some(sweep_cores) = target.sweep_cores() else {
        return Ok(None);
    };
    let valid = store
        .verify_cells(cell_ids)
        .map_err(|e| e.to_string())?
        .valid;
    let durable = valid.len();
    let done: BTreeSet<String> = valid.into_iter().collect();
    let total = cell_ids.len();
    let mut covered: Vec<String> = Vec::new();
    let mut omitted: Vec<String> = Vec::new();
    for cores in sweep_cores {
        for g in filtered_groups(cores, args.groups) {
            let group = Grid::sweep(
                cores,
                args.scale,
                args.policies,
                std::slice::from_ref(&g.label),
            );
            let complete = group.cells().iter().all(|c| done.contains(&c.id()));
            if complete {
                covered.push(g.label);
            } else {
                omitted.push(format!("{}@{cores}", g.label));
            }
        }
    }
    // An empty filter keeps every group, so nothing covered must stop here.
    if covered.is_empty() {
        return Ok(None);
    }
    let covered = TargetArgs {
        groups: &covered,
        ..*args
    };
    let mut experiments = target.render(lookup, &covered, perf)?;
    let coverage = format!("{durable}/{total} cells, partial");
    let note = format!(
        "{coverage} — incomplete groups omitted ({}); rerun with --resume to finish",
        omitted.join(", ")
    );
    for e in &mut experiments {
        e.notes.push(note.clone());
    }
    eprintln!(
        "# fleet: salvaged {coverage}; omitted groups: {}",
        omitted.join(", ")
    );
    Ok(Some(FleetOutcome {
        experiments,
        report,
        partial: Some(coverage),
    }))
}

/// Builds the target's experiments from the finished cells of one run
/// that cost `perf`: the fleet path reads the results store, perfbench's
/// in-process twin a map.
pub fn merge_target_experiments(
    lookup: CellLookup,
    what: &str,
    scale: SimScale,
    policies: &[&'static str],
    group_filter: &[String],
    sample: Option<&SamplePlan>,
    perf: ExperimentPerf,
) -> Result<Vec<Experiment>, String> {
    let target = Target::find(what).ok_or_else(|| format!("unknown target '{what}'"))?;
    target.render(
        lookup,
        &fleet_args(scale, policies, group_filter, sample),
        perf,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimScale {
        SimScale::quick()
    }

    #[test]
    fn sweep_cells_cover_solos_and_all_policy_cells() {
        let cells = Grid::sweep(2, quick(), &["ucp"], &["G2-1".to_string()]).cells();
        // G2-1 has 2 members → 2 solo cells + 2 policies (fair joins) × 1 group.
        let solos = cells.iter().filter(|c| c.kind == CellKind::Solo).count();
        let sweeps: Vec<_> = cells.iter().filter(|c| c.kind == CellKind::Sweep).collect();
        assert_eq!(solos, 2);
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].policy, "fair", "fair joins at the front");
        assert_eq!(sweeps[1].policy, "ucp");
        assert!(cells.iter().all(|c| c.scale == "quick"));
    }

    /// One grid run in process, as a target part runs it.
    fn sweep_of(grid: &Grid) -> Sweep {
        let run = run_cells_local(&grid.cells()).expect("cells run");
        merge_sweep(&|cell| run.lookup(cell), grid, run.perf).expect("cells merge")
    }

    #[test]
    fn sample_cells_dedup_repeated_draws() {
        let plan = SamplePlan {
            n: 16,
            seed: 3,
            slack: 0.05,
        };
        let specs = sample_specs(&plan);
        assert_eq!(specs.len(), 16);
        assert_eq!(specs, sample_specs(&plan), "seeded replay");
        let cells = cells_for_target("sample", quick(), &[], &[], Some(&plan))
            .expect("a target")
            .expect("cells");
        let mut ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
        ids.sort();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n, "cell list has no duplicate IDs");
    }

    /// Parses a payload back from its rendered text, as a worker's
    /// result or a stored cell is read.
    fn through_text(v: &Value) -> Value {
        json::parse(&v.render()).expect("parses")
    }

    /// In-process sweeps read deserialized results, so the round trip is
    /// their contract: every field of every registry policy's result (the
    /// `{:?}` render distinguishes every non-NaN `f64` bit pattern).
    #[test]
    fn run_result_roundtrips_bit_exactly() {
        let wl = crate::workload_registry().resolve("G2-1").expect("group");
        for policy in crate::policy_registry().names() {
            let r = experiments::run_group(&wl, policy, quick());
            let v = run_result_to_value(&r);
            let back = run_result_from_value(&through_text(&v)).expect("deserializes");
            assert_eq!(format!("{back:?}"), format!("{r:?}"), "{policy}");
            // And the whole rendered payload is stable under a second trip.
            assert_eq!(run_result_to_value(&back).render(), v.render(), "{policy}");
            if policy == "cooperative" {
                // The fields Figures 14-16 read are live, not vacuously equal.
                assert!(r.takeover_events.iter().sum::<u64>() > 0);
                assert!(!r.cp_transfer_durations.is_empty());
                assert!(!r.flush_series.is_empty());
            }
        }
    }

    #[test]
    fn solo_result_roundtrips_bit_exactly() {
        let member = crate::workload_registry().member("mcf").expect("benchmark");
        let s = solo::solo_result_for(&member, solo::solo_llc(2), quick());
        let back = solo_from_value(&through_text(&solo_to_value(&s))).expect("deserializes");
        assert_eq!(format!("{back:?}"), format!("{s:?}"));
        assert!(!s.epoch_curves.is_empty());
    }

    /// A sweep's perf counts only work the call simulated: a second
    /// sweep over the same group finds Fair Share and both baselines in
    /// the memo, so it counts its Cooperative cell and nothing else.
    #[test]
    fn repeated_sweep_counts_no_solo_accesses() {
        // A group no other test in this binary sweeps.
        let groups = ["G2-3".to_string()];
        let accesses = |r: &RunResult| -> u64 { r.accesses.iter().sum() };
        let first = sweep_of(&Grid::sweep(2, quick(), &["ucp"], &groups));
        assert!(first.perf.sim_accesses >= first.runs[0].iter().map(accesses).sum());
        let second = sweep_of(&Grid::sweep(2, quick(), &["cooperative"], &groups));
        assert_eq!(second.policies, ["fair", "cooperative"]);
        assert_eq!((second.perf.reused, second.perf.cells), (3, 4));
        assert_eq!(
            second.perf.sim_accesses,
            accesses(second.run(0, "cooperative"))
        );
    }

    /// The paper grid and the coordinator grid share their `cooperative`
    /// cell: the second grid reuses the first's run, and its perf line
    /// says so.
    #[test]
    fn grids_sharing_a_cell_simulate_it_once() {
        // A group no other test in this binary sweeps.
        let groups = vec!["G2-1".to_string()];
        let paper = Grid::sweep(2, quick(), &coop_core::PAPER_POLICIES, &groups);
        let coordinator = Grid {
            group_filter: groups,
            ..experiments::coordinator_grid(quick(), &[0.1])
        };
        let first = sweep_of(&paper);
        let second = sweep_of(&coordinator);
        assert_eq!(
            format!("{:?}", first.run(0, "cooperative")),
            format!("{:?}", second.run(0, "cooperative"))
        );
        let simulated: u64 = ["dvfs@slack=0.1", "cbp@slack=0.1"]
            .iter()
            .map(|p| second.run(0, p).accesses.iter().sum::<u64>())
            .sum();
        assert_eq!(second.perf.sim_accesses, simulated, "cooperative ran once");
        let line = second.perf.render_line();
        assert!(line.ends_with(" · 1 of 3 cells reused\n"), "{line}");
    }

    /// The store gate refuses another store format or code version, and
    /// `--resume` a directory with no manifest, before any cell runs.
    #[test]
    fn manifest_gates_incompatible_runs() {
        let dir = std::env::temp_dir().join(format!("fleet-run-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf-8 path");
        let groups = ["G2-1".to_string()];
        let run = |resume| {
            let opts = FleetOptions {
                workers: 1,
                shards: None,
                resume,
            };
            match run_fleet_target("fig5", quick(), &[], &groups, None, dir_s, &opts) {
                Ok(_) => panic!("the gate let the run start"),
                Err(e) => e,
            }
        };
        let err = run(true);
        assert!(err.contains("--resume: no manifest"), "{err}");
        let store = ResultsStore::open(&dir).expect("store opens");
        let ours = Manifest::new(&fleet::version_string(), &[]);
        for (field, tampered) in [
            (
                "store format",
                Manifest {
                    format: 2,
                    ..ours.clone()
                },
            ),
            (
                "code version",
                Manifest {
                    version: "v0.0.0".to_string(),
                    ..ours.clone()
                },
            ),
        ] {
            store.write_manifest(&tampered).expect("manifest written");
            for resume in [false, true] {
                let err = run(resume);
                assert!(err.contains(&format!("{field} was")), "{err}");
            }
        }
        assert_eq!(
            std::fs::read_dir(dir.join("cells")).expect("cells").count(),
            0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
