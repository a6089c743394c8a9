//! The full simulated system: cores + L1s + partitioned LLC + DRAM.
//!
//! Assemble one with [`System::builder`]:
//!
//! ```ignore
//! let r = System::builder()
//!     .workload("G2-4")               // or "lbm,namd", or "trace:foo.ctrace"
//!     .policy("cooperative")
//!     .scale(SimScale::quick())
//!     .build()
//!     .run();
//! ```
//!
//! Both axes resolve through string-keyed registries: the policy name
//! through the harness [`crate::policies`] registry (the five paper
//! schemes plus the `"dvfs"` and `"cbp"` coordinators), and the workload
//! spec through [`crate::workload_registry`] (named groups, ad-hoc mixes,
//! trace files). The LLC is built as a pure enforcement mechanism matching the
//! policy's descriptor, and the system loop feeds the policy
//! [`coop_core::EpochObservations`] each epoch and applies its decisions —
//! way targets through the LLC, clock hints through the cores.

use coop_core::cpe::CpeProfile;
use coop_core::policy::{ClockWindow, PartitionPolicy};
use coop_core::stats::CoreLlcStats;
use coop_core::{
    AllocationDecision, EpochObservations, LlcConfig, MissCurve, PartitionedLlc, PolicySpec,
    SchemeKind,
};
use cpusim::{Core, CoreConfig, EpochControl, InstrSource, LlcPort, StepperKind, SystemStepper};
use energy::{CoreEnergyParams, CoreEnergyReport, EnergyCounts, EnergyParams, EnergyReport};
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};
use workloads::{ResolvedWorkload, StreamSource};

use crate::scale::SimScale;

/// Root seed of every core's instruction stream (core `i` runs
/// `SEED ^ (i << 32)`).
const SEED: u64 = 0x5EED;

/// What the builder was asked to run on the cores.
#[derive(Debug, Clone)]
enum WorkloadInput {
    /// A spec string, resolved through [`crate::workload_registry`] at
    /// build time.
    Spec(String),
    /// An already-resolved workload (sweeps resolve once, run many).
    Resolved(ResolvedWorkload),
}

/// Why a [`SystemBuilder`] could not build.
#[derive(Debug)]
pub enum BuildError {
    /// The policy name is not in the policy registry.
    Policy(coop_core::UnknownPolicy),
    /// The workload spec did not resolve (unknown name, bad trace, bad
    /// arity).
    Workload(workloads::WorkloadError),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Policy(e) => e.fmt(f),
            BuildError::Workload(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<coop_core::UnknownPolicy> for BuildError {
    fn from(e: coop_core::UnknownPolicy) -> BuildError {
        BuildError::Policy(e)
    }
}

impl From<workloads::WorkloadError> for BuildError {
    fn from(e: workloads::WorkloadError) -> BuildError {
        BuildError::Workload(e)
    }
}

/// Builder for a [`System`]: a workload spec in, a policy by registry
/// name, everything else defaulted to the paper's configuration.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    workload: Option<WorkloadInput>,
    policy: String,
    scale: SimScale,
    llc: Option<LlcConfig>,
    threshold: Option<f64>,
    qos_slack: f64,
    stepper: StepperKind,
    bandwidth_shares: Option<Vec<f64>>,
    prefetch_degree: Option<u8>,
}

impl Default for SystemBuilder {
    fn default() -> SystemBuilder {
        SystemBuilder {
            workload: None,
            policy: "cooperative".to_string(),
            scale: SimScale::small(),
            llc: None,
            threshold: None,
            qos_slack: 0.10,
            stepper: StepperKind::default(),
            bandwidth_shares: None,
            prefetch_degree: None,
        }
    }
}

impl SystemBuilder {
    /// The workload by spec string (required unless
    /// [`SystemBuilder::workload_resolved`] is used): a named group
    /// (`"G2-1"`), an ad-hoc mix (`"soplex,namd"`), or a trace file
    /// (`"trace:path.ctrace"`) — resolved through
    /// [`crate::workload_registry`] at build time.
    pub fn workload(mut self, spec: impl Into<String>) -> Self {
        self.workload = Some(WorkloadInput::Spec(spec.into()));
        self
    }

    /// An already-resolved workload (sweeps resolve a spec once and reuse
    /// it across runs).
    pub fn workload_resolved(mut self, workload: ResolvedWorkload) -> Self {
        self.workload = Some(WorkloadInput::Resolved(workload));
        self
    }

    /// Policy by registry name or alias (default `"cooperative"`); see
    /// [`crate::policies::policy_registry`] for the names.
    pub fn policy(mut self, name: impl Into<String>) -> Self {
        self.policy = name.into();
        self
    }

    /// Simulation scale (default [`SimScale::small`]).
    pub fn scale(mut self, scale: SimScale) -> Self {
        self.scale = scale;
        self
    }

    /// Explicit LLC configuration (default: the paper geometry for the
    /// core count). The epoch length is always taken from the scale.
    pub fn llc(mut self, llc: LlcConfig) -> Self {
        self.llc = Some(llc);
        self
    }

    /// Takeover threshold override (Figures 11-13 sweep it).
    pub fn threshold(mut self, t: f64) -> Self {
        self.threshold = Some(t);
        self
    }

    /// QoS slack for performance-trading policies (default 0.10).
    pub fn qos_slack(mut self, slack: f64) -> Self {
        self.qos_slack = slack;
        self
    }

    /// Which stepping algorithm drives the system loop (default
    /// [`StepperKind::EventDriven`]; the per-cycle reference stepper is
    /// kept for equivalence checking).
    pub fn stepper(mut self, kind: StepperKind) -> Self {
        self.stepper = kind;
        self
    }

    /// Installs the DRAM bandwidth regulator with these initial per-core
    /// shares of peak bandwidth (scenario knob; policies may re-publish
    /// shares per epoch through their hints). Default: no regulator —
    /// the memory path is bit-identical to the pre-regulator machine.
    pub fn bandwidth_shares(mut self, shares: Vec<f64>) -> Self {
        self.bandwidth_shares = Some(shares);
        self
    }

    /// Initial L1-D prefetcher degree for every core (scenario knob;
    /// policies may re-set degrees per epoch through their hints).
    /// Default: 0, prefetcher off — bit-identical to the pre-prefetcher
    /// machine.
    pub fn prefetch_degree(mut self, degree: u8) -> Self {
        self.prefetch_degree = Some(degree);
        self
    }

    /// Builds the system, or reports an unresolvable policy name or
    /// workload spec (either error lists what is registered).
    pub fn try_build(self) -> Result<System, BuildError> {
        let workload = match self
            .workload
            .expect("SystemBuilder::workload (or ::workload_resolved) was not called")
        {
            WorkloadInput::Spec(spec) => crate::workload_registry().resolve(&spec)?,
            WorkloadInput::Resolved(w) => w,
        };
        let n = workload.cores();
        let registry = crate::policies::policy_registry();
        let canonical = registry
            .resolve(&self.policy)
            .ok_or_else(|| coop_core::UnknownPolicy {
                requested: self.policy.clone(),
                known: registry.names(),
            })?;
        // The legacy scheme field keeps labeling paths coherent for the
        // five paper policies; the mechanism itself never reads it.
        let scheme = registry
            .entry(canonical)
            .and_then(|e| e.scheme)
            .unwrap_or(SchemeKind::Cooperative);
        let mut llc = self
            .llc
            .unwrap_or_else(|| LlcConfig::for_cores(n, scheme))
            .with_epoch(self.scale.epoch_cycles);
        llc.scheme = scheme;
        if let Some(t) = self.threshold {
            llc = llc.with_threshold(t);
        }
        let spec = PolicySpec::for_llc(&llc, n).with_qos_slack(self.qos_slack);
        let policy = registry.build(canonical, &spec).expect("name resolved");
        let mut sys = System::assemble(llc, self.scale, policy, workload, self.stepper);
        if let Some(shares) = &self.bandwidth_shares {
            sys.llc.set_bandwidth_shares(shares);
        }
        if let Some(d) = self.prefetch_degree {
            for core in &mut sys.cores {
                core.set_prefetch_degree(d);
            }
        }
        Ok(sys)
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics on an unknown policy name or an unresolvable workload
    /// spec; use [`SystemBuilder::try_build`] to handle those gracefully.
    pub fn build(self) -> System {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Everything measured in one run.
///
/// The measurement window starts after warm-up and ends when the slowest
/// core reaches its instruction target; every core keeps running (and
/// contending) until then. Most fields count only the window. Those marked
/// *run-cumulative* also count the warm-up: Figures 14-16 read them as they
/// are, and windowing them would change those figures and the equivalence
/// goldens.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Canonical name of the policy that produced the run (registry key).
    pub policy: String,
    /// Human label of the policy (paper legend).
    pub label: String,
    /// Label of the resolved workload that ran (group name, mix, or
    /// trace spec).
    pub workload: String,
    /// Per-core IPC over each core's own measurement window.
    pub ipc: Vec<f64>,
    /// Per-core LLC misses per kilo-instruction: misses over the whole
    /// window divided by each core's instruction budget, so a core that
    /// reaches its target early also counts the misses of the instructions
    /// it retires while waiting for the slowest core.
    pub mpki: Vec<f64>,
    /// Per-core LLC accesses per kilo-instruction (window accesses over the
    /// instruction budget, like `mpki`).
    pub apki: Vec<f64>,
    /// Per-core LLC demand accesses simulated inside the window (the
    /// numerator of the harness's accesses-per-second throughput lines).
    pub accesses: Vec<u64>,
    /// Raw energy-event counts for the window.
    pub counts: EnergyCounts,
    /// Evaluated energies for the window.
    pub energy: EnergyReport,
    /// Average tag ways consulted per demand access (run-cumulative).
    pub avg_ways: f64,
    /// Cycles simulated in the window (to the last core's finish).
    pub cycles: u64,
    /// Cooperative-takeover transfer durations in cycles (run-cumulative).
    pub cp_transfer_durations: Vec<u64>,
    /// UCP migration durations in cycles (run-cumulative).
    pub ucp_transfer_durations: Vec<u64>,
    /// Figure-14 takeover event counts
    /// (recipient-miss, recipient-hit, donor-miss, donor-hit;
    /// run-cumulative).
    pub takeover_events: [u64; 4],
    /// Transfers that needed the force-complete timeout (run-cumulative).
    pub forced_transfers: u64,
    /// Lines flushed by partitioning activity.
    pub flush_lines: u64,
    /// Flush traffic bucketed by cycles since the last decision
    /// (run-cumulative).
    pub flush_series: Vec<f64>,
    /// Bucket width of `flush_series` in cycles.
    pub flush_bucket: u64,
    /// Partitioning decisions that actually changed the allocation
    /// (run-cumulative).
    pub repartitions: u64,
    /// Per-epoch UMON miss curves of core 0 (used when profiling solo runs
    /// for the Dynamic CPE scheme).
    pub epoch_curves: Vec<coop_core::MissCurve>,
    /// Core-side energy over the window (all cores; evaluated at nominal
    /// V/f when DVFS is off).
    pub core_energy: CoreEnergyReport,
    /// Residency-weighted average core frequency per core (GHz).
    pub avg_freq_ghz: Vec<f64>,
    /// Fraction of window time each core spent at each V/f operating point
    /// (nominal first; a single `[1.0]` entry per core without DVFS).
    pub freq_residency: Vec<Vec<f64>>,
    /// Mean ways owned per core across the window's partitioning epochs
    /// (way-aligned schemes; zeros for Unmanaged/UCP).
    pub avg_ways_owned: Vec<f64>,
    /// Per-core L1-D prefetches issued inside the window (zeros with the
    /// prefetcher off).
    pub prefetches: Vec<u64>,
    /// Per-core prefetched lines later touched by a demand access.
    pub prefetch_useful: Vec<u64>,
    /// Per-core DRAM line transfers inside the window (demand fills,
    /// prefetch fills and write-backs the core caused).
    pub dram_lines: Vec<u64>,
    /// Per-core cycles of bandwidth-regulator delay inside the window
    /// (zeros without a regulator).
    pub bw_delay_cycles: Vec<u64>,
    /// Mean bandwidth share granted per core across the window's epochs
    /// (1.0 per core when no regulator is installed).
    pub avg_bw_share: Vec<f64>,
    /// Mean prefetch degree per core across the window's epochs.
    pub avg_prefetch_degree: Vec<f64>,
}

impl RunResult {
    /// Weighted speedup against per-core solo IPCs.
    pub fn weighted_speedup(&self, ipc_alone: &[f64]) -> f64 {
        crate::metrics::weighted_speedup(&self.ipc, ipc_alone)
    }

    /// Whole-system energy over the window: LLC tag + monitoring overhead +
    /// data array + leakage, plus core dynamic + static.
    pub fn total_energy_nj(&self) -> f64 {
        self.energy.dynamic_nj
            + self.energy.data_nj
            + self.energy.static_nj
            + self.core_energy.total_nj()
    }

    /// Energy–delay-squared product over the window (nJ·cycles²).
    pub fn ed2p(&self) -> f64 {
        self.total_energy_nj() * (self.cycles as f64) * (self.cycles as f64)
    }
}

/// One closed epoch as [`System::run_observed`] shows it, after the
/// decision was applied.
#[derive(Debug, Clone, Copy)]
pub struct EpochView<'a> {
    /// Epochs closed before this one (0 for the first decision).
    pub index: u64,
    /// Whether the epoch falls in the measurement window (not warm-up).
    pub measured: bool,
    /// What the policy observed, read before the decision.
    pub observations: &'a EpochObservations,
    /// The policy's decision.
    pub decision: &'a AllocationDecision,
    /// The LLC with the decision applied.
    pub llc: &'a PartitionedLlc,
}

/// The assembled system.
pub struct System {
    /// Warm-up and measurement lengths (the LLC carries its own epoch).
    scale: SimScale,
    cores: Vec<Core<StreamSource>>,
    llc: PartitionedLlc,
    dram: Dram,
    /// The allocation policy driving the epochs.
    policy: Box<dyn PartitionPolicy>,
    /// Label of the workload on the cores (reported in `RunResult`).
    workload_label: String,
    /// Which stepping algorithm drives the run.
    stepper: StepperKind,
}

struct SharedMem<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
}

impl LlcPort for SharedMem<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.llc.access(now, core, line, write, self.dram)
    }
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.llc.prefetch(now, core, line, self.dram)
    }
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.llc.writeback(now, core, line, self.dram);
    }
}

impl System {
    /// A fresh [`SystemBuilder`].
    pub fn builder() -> SystemBuilder {
        SystemBuilder::default()
    }

    /// Assembles cores, the enforcement mechanism and DRAM around
    /// `policy`, with one `workload` member feeding each core.
    fn assemble(
        llc: LlcConfig,
        scale: SimScale,
        policy: Box<dyn PartitionPolicy>,
        workload: ResolvedWorkload,
        stepper: StepperKind,
    ) -> System {
        let n = workload.cores();
        let cores = workload
            .members
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let source = m.stream(SEED ^ ((i as u64) << 32));
                Core::new(CoreId(i as u8), CoreConfig::default(), source)
            })
            .collect();
        System {
            scale,
            cores,
            llc: PartitionedLlc::for_policy(llc, n, policy.as_ref()),
            dram: Dram::new(DramConfig::default()),
            policy,
            workload_label: workload.label,
            stepper,
        }
    }

    /// Installs the Dynamic CPE solo profile (no-op for other policies).
    pub fn set_cpe_profile(&mut self, profile: CpeProfile) {
        self.policy.set_cpe_profile(profile);
    }

    /// Runs warm-up + measurement and returns the results.
    ///
    /// Matches the paper's methodology: caches and predictors warm first
    /// (instruction-based, `warmup_instrs` per application); each
    /// application is then measured over its next `instrs_per_app`
    /// instructions; all applications keep running (and keep contending for
    /// the cache) until the slowest reaches its target.
    pub fn run(self) -> RunResult {
        self.run_observed(|_| EpochControl::Continue)
    }

    /// [`System::run`], showing `watch` every epoch (warm-up and measured)
    /// once its decision is applied. A returned [`EpochControl::Stop`] ends
    /// the run there; after a warm-up stop no measurement phase runs, and
    /// the result covers an empty window.
    pub fn run_observed(self, mut watch: impl FnMut(&EpochView) -> EpochControl) -> RunResult {
        let System {
            scale,
            mut cores,
            mut llc,
            mut dram,
            mut policy,
            workload_label,
            stepper: kind,
        } = self;
        let n = cores.len();
        let mut stepper = SystemStepper::new(kind, llc.config().epoch_cycles);
        let stopped = std::cell::Cell::new(false);
        // Closes one epoch: the policy decides, measured epochs join the
        // window sum, and `watch` sees the outcome.
        let mut close = |now: Cycle,
                         cores: &mut [Core<StreamSource>],
                         port: &mut SharedMem,
                         policy: &mut dyn PartitionPolicy,
                         window: Option<&mut WindowSum>| {
            let (observations, decision) =
                observe_and_drive(now, cores, port.llc, port.dram, policy);
            let measured = window.is_some();
            if let Some(window) = window {
                if policy.uses_umon() {
                    window.curves.push(observations.curves[0].clone());
                }
                window.add(port.llc, cores);
            }
            let control = watch(&EpochView {
                index: observations.epoch_index,
                measured,
                observations: &observations,
                decision: &decision,
                llc: port.llc,
            });
            stopped.set(control == EpochControl::Stop);
            control
        };

        // ---- Warm-up ----------------------------------------------------
        let mut port = SharedMem {
            llc: &mut llc,
            dram: &mut dram,
        };
        stepper.run(
            &mut cores,
            &mut port,
            &vec![scale.warmup_instrs; n],
            Cycle(scale.max_cycles / 2),
            |now, cores, port| close(now, cores, port, policy.as_mut(), None),
        );

        // ---- Measurement window ----------------------------------------
        let window_start = stepper.now();
        let start = Snapshot::take(window_start, port.llc, &cores);
        policy.open_clock_window(window_start, &start.retired, &start.misses);
        let mut window = WindowSum::default();
        let target: Vec<u64> = start
            .retired
            .iter()
            .map(|&b| b + scale.instrs_per_app)
            .collect();
        let mut finish = if stopped.get() {
            vec![None; n]
        } else {
            stepper.run(
                &mut cores,
                &mut port,
                &target,
                Cycle(scale.max_cycles),
                |now, cores, port| close(now, cores, port, policy.as_mut(), Some(&mut window)),
            )
        };
        let window_end = stepper.now();
        let end = Snapshot::take(window_end, port.llc, &cores);
        for f in &mut finish {
            // A run capped by max_cycles reports the cap (flagged by tests).
            f.get_or_insert(window_end);
        }
        let clock = policy.close_clock_window(window_end, &end.retired, &end.misses);
        let delta = end.since(&start);
        let cycles = window_end - window_start;

        // ---- Collect ----------------------------------------------------
        let ipc: Vec<f64> = (0..n)
            .map(|i| {
                let cycles = (finish[i].expect("filled") - window_start).max(1);
                scale.instrs_per_app as f64 / cycles as f64
            })
            .collect();
        let kilo = scale.instrs_per_app as f64 / 1000.0;
        let per_kilo = |v: &[u64]| v.iter().map(|&x| x as f64 / kilo).collect();
        let geom = llc.config().geom;
        let params = EnergyParams::for_llc(geom.size_bytes(), geom.ways());
        let clock = clock.unwrap_or_else(|| {
            // Every core at nominal V/f for the whole window, at the same
            // 45 nm magnitudes the coordinated controller's costs use.
            let p = CoreEnergyParams::for_45nm();
            let window_ns = cycles as f64 / params.clock_ghz;
            let dynamic_nj: f64 = delta
                .retired
                .iter()
                .map(|&r| r as f64 * p.dynamic_nj_per_instr(p.vdd_nom))
                .sum();
            let static_nj = p.static_nj(p.vdd_nom, window_ns) * n as f64;
            ClockWindow {
                core_energy: CoreEnergyReport {
                    dynamic_nj,
                    static_nj,
                },
                avg_freq_ghz: vec![params.clock_ghz; n],
                freq_residency: vec![vec![1.0]; n],
            }
        });
        // A window without epochs reports the state it ran under.
        if window.epochs == 0 {
            window.add(&llc, &cores);
        }
        let [avg_ways_owned, avg_bw_share, avg_prefetch_degree] = window.means();
        let flush_series = &llc.stats().flush_series;

        RunResult {
            policy: policy.name().to_string(),
            label: policy.label().to_string(),
            workload: workload_label,
            ipc,
            mpki: per_kilo(&delta.misses),
            apki: per_kilo(&delta.accesses),
            accesses: delta.accesses,
            counts: delta.counts,
            energy: params.evaluate(&delta.counts),
            avg_ways: llc.avg_ways_consulted(),
            cycles,
            cp_transfer_durations: llc.takeover().durations().to_vec(),
            ucp_transfer_durations: llc.ucp_transfer_durations().to_vec(),
            takeover_events: llc.takeover().event_counts(),
            forced_transfers: llc.takeover().forced_count(),
            flush_lines: delta.flush_lines,
            flush_series: flush_series.values().to_vec(),
            flush_bucket: flush_series.bucket_cycles(),
            repartitions: llc.stats().repartitions.get(),
            epoch_curves: window.curves,
            core_energy: clock.core_energy,
            avg_freq_ghz: clock.avg_freq_ghz,
            freq_residency: clock.freq_residency,
            avg_ways_owned,
            prefetches: delta.prefetches,
            prefetch_useful: delta.prefetch_useful,
            dram_lines: delta.dram_lines,
            bw_delay_cycles: delta.bw_delay_cycles,
            avg_bw_share,
            avg_prefetch_degree,
        }
    }
}

/// One epoch of the shared control loop: reads the epoch observations,
/// asks the policy for a decision, applies way targets through the LLC's
/// enforcement mode and clock-ratio hints through the cores.
///
/// This is *the* epoch semantics — [`System::run_observed`] closes every
/// epoch through the same steps, so drivers that assemble the pieces
/// themselves see a policy's decisions (including DVFS clock hints) take
/// effect identically.
pub fn drive_epoch<S: InstrSource>(
    now: Cycle,
    cores: &mut [Core<S>],
    llc: &mut PartitionedLlc,
    dram: &mut Dram,
    policy: &mut dyn PartitionPolicy,
) -> AllocationDecision {
    observe_and_drive(now, cores, llc, dram, policy).1
}

/// [`drive_epoch`], also returning the observations the policy decided on.
fn observe_and_drive<S: InstrSource>(
    now: Cycle,
    cores: &mut [Core<S>],
    llc: &mut PartitionedLlc,
    dram: &mut Dram,
    policy: &mut dyn PartitionPolicy,
) -> (EpochObservations, AllocationDecision) {
    let retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let mut obs = llc.epoch_observations(now, retired);
    // Core-side prefetch counters (the LLC cannot see them).
    obs.prefetches = cores.iter().map(|c| c.stats().prefetches.get()).collect();
    obs.prefetch_useful = cores
        .iter()
        .map(|c| c.stats().prefetch_useful.get())
        .collect();
    let decision = policy.on_epoch(&obs);
    llc.apply_decision(now, dram, &decision);
    if let Some(ratios) = &decision.hints.clock_ratios {
        for (core, &r) in cores.iter_mut().zip(ratios.iter()) {
            core.set_clock_ratio(now, r);
        }
    }
    if let Some(shares) = &decision.hints.bandwidth_shares {
        llc.set_bandwidth_shares(shares);
    }
    if let Some(slots) = &decision.hints.prefetch_slots {
        for (core, &d) in cores.iter_mut().zip(slots.iter()) {
            core.set_prefetch_degree(d);
        }
    }
    (obs, decision)
}

/// Sums over the measured epochs of each core's way target, bandwidth
/// share (1.0 without a regulator) and prefetch degree, behind the window
/// means of [`RunResult`]; plus core 0's UMON curve per epoch.
#[derive(Default)]
struct WindowSum {
    epochs: u64,
    per_core: Vec<[f64; 3]>,
    curves: Vec<MissCurve>,
}

impl WindowSum {
    fn add<S: InstrSource>(&mut self, llc: &PartitionedLlc, cores: &[Core<S>]) {
        let ways = llc.current_allocation();
        self.per_core.resize(cores.len(), [0.0; 3]);
        for (i, (sum, core)) in self.per_core.iter_mut().zip(cores).enumerate() {
            let regulator = llc.bandwidth_regulator();
            let share = regulator.map_or(1.0, |r| r.share_of(CoreId(i as u8)));
            let epoch = [ways[i] as f64, share, core.prefetch_degree() as f64];
            for (s, x) in sum.iter_mut().zip(epoch) {
                *s += x;
            }
        }
        self.epochs += 1;
    }

    /// Per-core means of way targets, bandwidth shares and prefetch degrees.
    fn means(&self) -> [Vec<f64>; 3] {
        let epochs = self.epochs as f64;
        std::array::from_fn(|k| self.per_core.iter().map(|s| s[k] / epochs).collect())
    }
}

/// The cumulative counters behind every windowed [`RunResult`] field
/// (per core where a `Vec`; regulator delay reads zeros without a
/// regulator), taken once at each edge of the measurement window. The
/// window's values are `end.since(&start)`.
struct Snapshot {
    retired: Vec<u64>,
    misses: Vec<u64>,
    accesses: Vec<u64>,
    dram_lines: Vec<u64>,
    bw_delay_cycles: Vec<u64>,
    prefetches: Vec<u64>,
    prefetch_useful: Vec<u64>,
    flush_lines: u64,
    counts: EnergyCounts,
}

impl Snapshot {
    fn take<S: InstrSource>(now: Cycle, llc: &mut PartitionedLlc, cores: &[Core<S>]) -> Snapshot {
        let counts = llc.energy_counts(now);
        let stats = llc.stats();
        let llc_core =
            |f: fn(&CoreLlcStats) -> u64| -> Vec<u64> { stats.per_core.iter().map(f).collect() };
        let core = |f: fn(&Core<S>) -> u64| -> Vec<u64> { cores.iter().map(f).collect() };
        Snapshot {
            retired: core(|c| c.retired()),
            misses: llc_core(|s| s.misses.get()),
            accesses: llc_core(|s| s.accesses.get()),
            dram_lines: llc_core(|s| s.dram_lines.get()),
            bw_delay_cycles: match llc.bandwidth_regulator() {
                Some(r) => r.stats().iter().map(|s| s.delay_cycles.get()).collect(),
                None => vec![0; cores.len()],
            },
            prefetches: core(|c| c.stats().prefetches.get()),
            prefetch_useful: core(|c| c.stats().prefetch_useful.get()),
            flush_lines: stats.flush_lines.get(),
            counts,
        }
    }

    /// Element-wise `self - start`: the counts inside the window.
    fn since(&self, start: &Snapshot) -> Snapshot {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        Snapshot {
            retired: sub(&self.retired, &start.retired),
            misses: sub(&self.misses, &start.misses),
            accesses: sub(&self.accesses, &start.accesses),
            dram_lines: sub(&self.dram_lines, &start.dram_lines),
            bw_delay_cycles: sub(&self.bw_delay_cycles, &start.bw_delay_cycles),
            prefetches: sub(&self.prefetches, &start.prefetches),
            prefetch_useful: sub(&self.prefetch_useful, &start.prefetch_useful),
            flush_lines: self.flush_lines - start.flush_lines,
            counts: self.counts.since(start.counts),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Benchmark;

    fn quick_scale() -> SimScale {
        SimScale {
            name: "test",
            warmup_instrs: 20_000,
            instrs_per_app: 60_000,
            epoch_cycles: 20_000,
            max_cycles: 80_000_000,
        }
    }

    /// A run of `benchmarks` (one per core) under the registry policy
    /// `policy` at the test scale.
    fn run(benchmarks: &[Benchmark], policy: &str) -> RunResult {
        System::builder()
            .workload_resolved(ResolvedWorkload::from_benchmarks(benchmarks))
            .policy(policy)
            .scale(quick_scale())
            .build()
            .run()
    }

    #[test]
    fn two_core_run_produces_sane_metrics() {
        let r = run(&[Benchmark::Lbm, Benchmark::Namd], "fair");
        assert_eq!(r.ipc.len(), 2);
        assert!(r.ipc.iter().all(|&i| i > 0.05 && i < 4.0), "{:?}", r.ipc);
        assert!(
            r.mpki[0] > r.mpki[1],
            "lbm misses more than namd: {:?}",
            r.mpki
        );
        assert!(r.counts.tag_way_probes > 0);
        assert!(r.energy.dynamic_nj > 0.0);
        assert_eq!(r.avg_ways, 4.0, "fair share probes its 4 ways");
    }

    #[test]
    fn deterministic_replay() {
        let mk = || run(&[Benchmark::Soplex, Benchmark::Milc], "cooperative");
        let a = mk();
        let b = mk();
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.takeover_events, b.takeover_events);
    }

    #[test]
    fn unmanaged_probes_all_ways_cooperative_fewer() {
        let un = run(&[Benchmark::Soplex, Benchmark::Namd], "unmanaged");
        let cp = run(&[Benchmark::Soplex, Benchmark::Namd], "cooperative");
        assert_eq!(un.avg_ways, 8.0);
        assert!(
            cp.avg_ways < 6.0,
            "cooperative should probe far fewer ways: {}",
            cp.avg_ways
        );
    }

    #[test]
    fn dvfs_run_reports_residency_and_cuts_core_dynamic_energy() {
        let run = |policy: &str| {
            System::builder()
                .workload("lbm,namd")
                .policy(policy)
                .qos_slack(0.20)
                .scale(quick_scale())
                .build()
                .run()
        };
        let base = run("cooperative");
        let r = run("dvfs");
        // Residency fractions are a distribution per core.
        assert_eq!(r.freq_residency.len(), 2);
        for row in &r.freq_residency {
            assert_eq!(row.len(), 5, "five V/f points");
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{row:?}");
        }
        assert!(
            r.avg_freq_ghz.iter().all(|&f| (1.2..=2.0).contains(&f)),
            "{:?}",
            r.avg_freq_ghz
        );
        assert!(
            r.avg_freq_ghz.iter().any(|&f| f < 2.0),
            "somebody should leave nominal frequency: {:?}",
            r.avg_freq_ghz
        );
        // Same instruction count at equal-or-lower voltage: dynamic core
        // energy can only fall.
        assert!(
            r.core_energy.dynamic_nj <= base.core_energy.dynamic_nj + 1e-6,
            "{} vs {}",
            r.core_energy.dynamic_nj,
            base.core_energy.dynamic_nj
        );
        // The baseline books everything at nominal.
        assert_eq!(base.freq_residency, vec![vec![1.0]; 2]);
        assert!(base.core_energy.total_nj() > 0.0);
        assert!(
            r.avg_ways_owned.iter().all(|&w| w >= 1.0),
            "{:?}",
            r.avg_ways_owned
        );
    }

    #[test]
    fn dvfs_replay_is_deterministic() {
        let run = || {
            System::builder()
                .workload("soplex,milc")
                .policy("dvfs")
                .qos_slack(0.10)
                .scale(quick_scale())
                .build()
                .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.ipc, b.ipc);
        assert_eq!(a.freq_residency, b.freq_residency);
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn solo_run_yields_profile_curves() {
        let r = run(&[Benchmark::Gcc], "ucp");
        assert!(!r.epoch_curves.is_empty(), "profiles captured per epoch");
        assert_eq!(r.ipc.len(), 1);
    }
}
