//! The traced run: the system loop assembled from public pieces, the way
//! `inspect` assembles it — `cpusim::SystemStepper::run` driving the cores,
//! `harness::drive_epoch` at every epoch, `PartitionedLlc::for_policy` and
//! `Dram::new` — with timing and counting wrappers at the three public
//! boundaries:
//!
//! * [`TimedFactory`] wraps each core's `InstrSource` through its
//!   `WorkloadFactory`, generating in blocks of [`GEN_BLOCK`] so that two
//!   clock reads cover many ~15 ns calls;
//! * [`TimedPort`] is the cores' `LlcPort`, timing every
//!   `PartitionedLlc::access/prefetch/writeback` (DRAM, MSHR and regulator
//!   time included: they run inside those calls);
//! * [`TimedPolicy`] times `PartitionPolicy::on_epoch`.
//!
//! Spans are kept in memory as per-span totals in a [`Ledger`] and become
//! per-layer metrics when the run ends. Each layer's self time is its span
//! minus the child spans inside it, so the layers add up to the cell spans
//! exactly; time outside every cell span is reported as unattributed.
//!
//! Everything after assembly mirrors `harness::System::run` statement for
//! statement, so a traced cell reproduces the untraced `RunResult`
//! bit-exactly — the unit tests and every benchmark run check that.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use coop_core::cpe::CpeProfile;
use coop_core::policy::{AllocationDecision, DynamicCpePolicy, EpochObservations, PartitionPolicy};
use coop_core::{EnforcementMode, LlcConfig, MissCurve, PartitionedLlc, PolicySpec, SchemeKind};
use coop_dvfs::{DvfsConfig, DvfsPolicy, Residency};
use cpusim::{
    Core, CoreConfig, EpochControl, Instr, InstrSource, LlcPort, StepperKind, SystemStepper,
};
use energy::{CoreEnergyParams, CoreEnergyReport, EnergyCounts, EnergyParams};
use harness::solo::{solo_llc, SoloResult};
use harness::{drive_epoch, RunResult, SimScale};
use memsim::{Dram, DramConfig};
use simkit::types::{CoreId, Cycle, LineAddr};
use workloads::{ResolvedWorkload, WorkloadFactory, WorkloadSource};

use crate::clock::{self, ns_since};
use crate::outcome::{sim_metrics, Outcome};
use crate::plan::{Plan, PRODUCT_SEED};
use crate::report::{peak_rss_mib, UnitReport};

/// Instructions generated per timed block.
pub const GEN_BLOCK: usize = 256;

/// Generation totals shared by every source of one run.
#[derive(Debug, Default)]
struct GenCounters {
    ns: AtomicU64,
    instrs: AtomicU64,
}

/// A [`WorkloadFactory`] whose sources time their generator.
struct TimedFactory {
    inner: Arc<dyn WorkloadFactory>,
    gen: Arc<GenCounters>,
}

impl WorkloadFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn summary(&self) -> String {
        self.inner.summary()
    }

    fn source(&self, seed: u64) -> WorkloadSource {
        Box::new(TimedSource {
            inner: self.inner.source(seed),
            block: Vec::with_capacity(GEN_BLOCK),
            next: 0,
            gen: Arc::clone(&self.gen),
        })
    }
}

/// Pulls the wrapped stream a block at a time. Sources are independent
/// and deterministic, so generating ahead hands the core exactly the
/// sequence it would have pulled one by one.
struct TimedSource {
    inner: WorkloadSource,
    block: Vec<Instr>,
    next: usize,
    gen: Arc<GenCounters>,
}

impl InstrSource for TimedSource {
    fn next_instr(&mut self) -> Instr {
        if self.next == self.block.len() {
            let start = clock::now();
            self.block.clear();
            for _ in 0..GEN_BLOCK {
                self.block.push(self.inner.next_instr());
            }
            // Relaxed: plain statistics, read after the run has joined.
            self.gen.ns.fetch_add(ns_since(start), Ordering::Relaxed);
            self.gen
                .instrs
                .fetch_add(GEN_BLOCK as u64, Ordering::Relaxed);
            self.next = 0;
        }
        let instr = self.block[self.next];
        self.next += 1;
        instr
    }
}

/// Wraps every member of `workload` in a [`TimedFactory`].
fn timed_workload(workload: &ResolvedWorkload, gen: &Arc<GenCounters>) -> ResolvedWorkload {
    ResolvedWorkload {
        label: workload.label.clone(),
        members: workload
            .members
            .iter()
            .map(|m| {
                Arc::new(TimedFactory {
                    inner: Arc::clone(m),
                    gen: Arc::clone(gen),
                }) as Arc<dyn WorkloadFactory>
            })
            .collect(),
    }
}

/// The cores' LLC port, timing each call into the partitioned LLC.
struct TimedPort<'a> {
    llc: &'a mut PartitionedLlc,
    dram: &'a mut Dram,
    ns: u64,
    calls: u64,
}

impl TimedPort<'_> {
    fn timed<R>(&mut self, call: impl FnOnce(&mut PartitionedLlc, &mut Dram) -> R) -> R {
        let start = clock::now();
        let r = call(self.llc, self.dram);
        self.ns += ns_since(start);
        self.calls += 1;
        r
    }
}

impl LlcPort for TimedPort<'_> {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.timed(|llc, dram| llc.access(now, core, line, write, dram))
    }
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.timed(|llc, dram| llc.prefetch(now, core, line, dram))
    }
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.timed(|llc, dram| llc.writeback(now, core, line, dram));
    }
}

/// A policy whose decisions are timed one by one.
#[derive(Debug)]
struct TimedPolicy {
    inner: Box<dyn PartitionPolicy>,
    decide_ns: Vec<u64>,
}

impl PartitionPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn label(&self) -> &'static str {
        self.inner.label()
    }
    fn enforcement(&self) -> EnforcementMode {
        self.inner.enforcement()
    }
    fn uses_umon(&self) -> bool {
        self.inner.uses_umon()
    }
    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        let start = clock::now();
        let decision = self.inner.on_epoch(obs);
        self.decide_ns.push(ns_since(start));
        decision
    }
}

/// Span totals and boundary counts of a traced pass.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Host time of the pass, start to finish (solo and cell loops).
    pub pass_ns: u64,
    /// The part of `pass_ns` spent on the solo baselines.
    pub solo_ns: u64,
    /// Cell spans: assembly, both stepper phases, result collection.
    pub cell_ns: u64,
    /// Assembly spans (children of the cell span).
    pub build_ns: u64,
    /// `SystemStepper::run` spans (children of the cell span).
    pub stepper_ns: u64,
    /// Epoch-callback spans (children of the stepper span).
    pub callback_ns: u64,
    /// `drive_epoch` spans (children of the callback span).
    pub drive_ns: u64,
    /// `on_epoch` spans, one per epoch (children of `drive_epoch`).
    pub decide_ns: Vec<u64>,
    /// `LlcPort` call spans (children of the stepper span).
    pub llc_ns: u64,
    /// `LlcPort` calls.
    pub llc_calls: u64,
    /// Generation block spans (children of the stepper span).
    pub gen_ns: u64,
    /// Instructions generated.
    pub gen_instrs: u64,
    /// Cells and solo baselines run.
    pub runs: u64,
    /// Instructions retired, whole runs.
    pub retired: u64,
    /// L1-D accesses and misses.
    pub l1d: (u64, u64),
    /// L1-I accesses and misses.
    pub l1i: (u64, u64),
    /// Branches and mispredictions.
    pub branches: (u64, u64),
    /// Prefetches issued and useful.
    pub prefetch: (u64, u64),
    /// LLC demand accesses and misses, whole runs.
    pub llc_demand: (u64, u64),
    /// Tag ways consulted, summed over demand accesses.
    pub ways_probed: f64,
    /// Cooperative takeover transfers and forced completions.
    pub transfers: (u64, u64),
    /// Partitioning decisions and those that changed the allocation.
    pub decisions: (u64, u64),
    /// DRAM line transfers and regulator delay cycles, measurement windows.
    pub dram: (u64, u64),
    /// Instructions measured in the windows.
    pub window_instrs: u64,
}

impl Ledger {
    fn merge(&mut self, o: Ledger) {
        let add2 = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        self.pass_ns += o.pass_ns;
        self.solo_ns += o.solo_ns;
        self.cell_ns += o.cell_ns;
        self.build_ns += o.build_ns;
        self.stepper_ns += o.stepper_ns;
        self.callback_ns += o.callback_ns;
        self.drive_ns += o.drive_ns;
        self.decide_ns.extend(o.decide_ns);
        self.llc_ns += o.llc_ns;
        self.llc_calls += o.llc_calls;
        self.gen_ns += o.gen_ns;
        self.gen_instrs += o.gen_instrs;
        self.runs += o.runs;
        self.retired += o.retired;
        add2(&mut self.l1d, o.l1d);
        add2(&mut self.l1i, o.l1i);
        add2(&mut self.branches, o.branches);
        add2(&mut self.prefetch, o.prefetch);
        add2(&mut self.llc_demand, o.llc_demand);
        self.ways_probed += o.ways_probed;
        add2(&mut self.transfers, o.transfers);
        add2(&mut self.decisions, o.decisions);
        add2(&mut self.dram, o.dram);
        self.window_instrs += o.window_instrs;
    }

    /// The per-layer metrics, by the names `BENCHMARK.json` declares.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let decide: u64 = self.decide_ns.iter().sum();
        let epochs = self.decide_ns.len() as u64;
        let cpusim_self = self
            .stepper_ns
            .saturating_sub(self.gen_ns + self.llc_ns + self.callback_ns);
        let harness_self = (self.cell_ns - self.stepper_ns) + (self.callback_ns - self.drive_ns);
        let kinstr = self.window_instrs as f64 / 1000.0;
        let share = |ns: u64| ratio(ns, self.pass_ns);
        vec![
            ("workloads.self_frac", share(self.gen_ns)),
            ("cpusim.self_frac", share(cpusim_self)),
            ("coop_core.self_frac", share(self.llc_ns)),
            ("policy.self_frac", share(self.drive_ns)),
            ("harness.self_frac", share(harness_self)),
            (
                "workloads.gen_ns_per_instr",
                ratio(self.gen_ns, self.gen_instrs),
            ),
            ("workloads.instrs", self.gen_instrs as f64),
            ("cpusim.self_ns_per_instr", ratio(cpusim_self, self.retired)),
            ("cpusim.retired", self.retired as f64),
            ("cpusim.l1d_miss_ratio", ratio(self.l1d.1, self.l1d.0)),
            ("cpusim.l1i_miss_ratio", ratio(self.l1i.1, self.l1i.0)),
            (
                "cpusim.bpred_mispredict_ratio",
                ratio(self.branches.1, self.branches.0),
            ),
            (
                "cpusim.prefetch_useful_ratio",
                ratio(self.prefetch.1, self.prefetch.0),
            ),
            (
                "coop_core.llc_ns_per_call",
                ratio(self.llc_ns, self.llc_calls),
            ),
            ("coop_core.llc_calls", self.llc_calls as f64),
            (
                "coop_core.llc_miss_ratio",
                ratio(self.llc_demand.1, self.llc_demand.0),
            ),
            (
                "coop_core.ways_probed_per_access",
                if self.llc_demand.0 == 0 {
                    0.0
                } else {
                    self.ways_probed / self.llc_demand.0 as f64
                },
            ),
            ("coop_core.takeover_transfers", self.transfers.0 as f64),
            ("coop_core.forced_transfers", self.transfers.1 as f64),
            ("memsim.dram_lines_per_kinstr", self.dram.0 as f64 / kinstr),
            (
                "memsim.bw_delay_cycles_per_kinstr",
                self.dram.1 as f64 / kinstr,
            ),
            ("policy.decide_us_per_epoch", ratio(decide, epochs) / 1e3),
            ("policy.decide_us_p99", p99(&self.decide_ns) / 1e3),
            (
                "policy.apply_us_per_epoch",
                ratio(self.drive_ns.saturating_sub(decide), epochs) / 1e3,
            ),
            ("policy.epochs", epochs as f64),
            (
                "policy.repartition_ratio",
                ratio(self.decisions.1, self.decisions.0),
            ),
            (
                "harness.self_ms_per_cell",
                ratio(harness_self, self.runs) / 1e6,
            ),
            (
                "harness.build_ms_per_cell",
                ratio(self.build_ns, self.runs) / 1e6,
            ),
            ("harness.solo_frac", ratio(self.solo_ns, self.pass_ns)),
            (
                "trace.unattributed_frac",
                ratio(self.pass_ns.saturating_sub(self.cell_ns), self.pass_ns),
            ),
        ]
    }
}

/// The 99th percentile (nearest rank) of `samples`, 0 when empty.
fn p99(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = (sorted.len() * 99).div_ceil(100).max(1);
    sorted[rank - 1] as f64
}

/// What one traced system run is asked to do.
pub struct RunSpec<'a> {
    /// The workload on the cores.
    pub workload: &'a ResolvedWorkload,
    /// Policy registry name.
    pub policy: &'a str,
    /// QoS slack for the coordinators.
    pub slack: f64,
    /// LLC override (solo baselines use the system geometry under UCP).
    pub llc: Option<LlcConfig>,
    /// Simulation scale.
    pub scale: SimScale,
    /// Root seed.
    pub seed: u64,
    /// Dynamic CPE solo profile, installed when the policy is `cpe`.
    pub cpe_profile: Option<CpeProfile>,
}

/// Assembles one system from public pieces exactly as
/// `SystemBuilder::try_build` does and runs it exactly as `System::run`
/// does, with the timing wrappers in place. Returns the result and whether
/// the cycle cap cut a phase short.
pub fn run_traced(spec: RunSpec<'_>, ledger: &mut Ledger) -> (RunResult, bool) {
    let cell_start = clock::now();
    let gen = Arc::new(GenCounters::default());

    // ---- Assembly (SystemBuilder::try_build) --------------------------
    let build_start = clock::now();
    let workload = timed_workload(spec.workload, &gen);
    let n = workload.cores();
    let scale = spec.scale;
    let registry = harness::policy_registry();
    let canonical = registry
        .resolve(spec.policy)
        .unwrap_or_else(|| panic!("unknown policy '{}'", spec.policy));
    let scheme = registry
        .entry(canonical)
        .and_then(|e| e.scheme)
        .unwrap_or(SchemeKind::Cooperative);
    let mut llc_cfg = spec
        .llc
        .unwrap_or_else(|| LlcConfig::for_cores(n, scheme))
        .with_epoch(scale.epoch_cycles);
    llc_cfg.scheme = scheme;
    let policy_spec = PolicySpec::for_llc(&llc_cfg, n).with_qos_slack(spec.slack);
    let mut inner = registry
        .build(canonical, &policy_spec)
        .expect("name resolved");
    let core_power = if canonical == "dvfs" || canonical == "cbp" {
        DvfsConfig::paper_default(spec.slack).costs.core
    } else {
        CoreEnergyParams::for_45nm()
    };
    if let Some(profile) = spec.cpe_profile {
        if let Some(p) = (inner.as_mut() as &mut dyn Any).downcast_mut::<DynamicCpePolicy>() {
            p.set_profile(profile);
        }
    }
    let mut cores: Vec<Core> = workload
        .members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let source = m.source(spec.seed ^ ((i as u64) << 32));
            Core::new(CoreId(i as u8), CoreConfig::default(), source)
        })
        .collect();
    let mut llc = PartitionedLlc::for_policy(llc_cfg, n, inner.as_ref());
    let mut dram = Dram::new(DramConfig::default());
    let mut policy = TimedPolicy {
        inner,
        decide_ns: Vec::new(),
    };
    ledger.build_ns += ns_since(build_start);

    // ---- System::run ---------------------------------------------------
    let uses_umon = policy.uses_umon();
    let mut stepper = SystemStepper::new(StepperKind::default(), llc_cfg.epoch_cycles);
    let mut way_occupancy: (Vec<u64>, u64) = (vec![0; n], 0);
    let mut resource_occupancy: (Vec<f64>, Vec<f64>) = (vec![0.0; n], vec![0.0; n]);
    let mut port = TimedPort {
        llc: &mut llc,
        dram: &mut dram,
        ns: 0,
        calls: 0,
    };
    let mut callback_ns = 0u64;
    let mut drive_ns = 0u64;

    let warm_targets = vec![scale.warmup_instrs; n];
    let stepper_start = clock::now();
    let warm_finish = stepper.run(
        &mut cores,
        &mut port,
        &warm_targets,
        Cycle(scale.max_cycles / 2),
        |now, cores, port| {
            let cb = clock::now();
            drive_epoch(now, cores, port.llc, port.dram, &mut policy);
            let spent = ns_since(cb);
            drive_ns += spent;
            callback_ns += spent;
            EpochControl::Continue
        },
    );
    let mut stepper_ns = ns_since(stepper_start);

    let window_start = stepper.now();
    let base_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let base_misses = llc_misses(port.llc, n);
    let dvfs_books_base: Option<Residency> = dvfs_of(&mut policy).map(|p| {
        let ctl = p.controller_mut();
        ctl.settle(window_start, &base_retired, &base_misses);
        ctl.books().clone()
    });
    let base_accesses: Vec<u64> = (0..n)
        .map(|i| port.llc.stats().per_core[i].accesses.get())
        .collect();
    let base_flush = port.llc.stats().flush_lines.get();
    let base_counts = port.llc.energy_counts(window_start);
    let base_prefetches: Vec<u64> = cores.iter().map(|c| c.stats().prefetches.get()).collect();
    let base_useful: Vec<u64> = cores
        .iter()
        .map(|c| c.stats().prefetch_useful.get())
        .collect();
    let base_dram_lines: Vec<u64> = (0..n)
        .map(|i| port.llc.stats().per_core[i].dram_lines.get())
        .collect();
    let base_bw_delay = bw_delay_cycles_of(port.llc, n);
    let target: Vec<u64> = base_retired
        .iter()
        .map(|&b| b + scale.instrs_per_app)
        .collect();
    let mut epoch_curves: Vec<MissCurve> = Vec::new();

    let stepper_start = clock::now();
    let mut finish = stepper.run(
        &mut cores,
        &mut port,
        &target,
        Cycle(scale.max_cycles),
        |now, cores, port| {
            let cb = clock::now();
            if uses_umon {
                epoch_curves.push(port.llc.umon_curve(CoreId(0)));
            }
            let drive = clock::now();
            drive_epoch(now, cores, port.llc, port.dram, &mut policy);
            drive_ns += ns_since(drive);
            let alloc = port.llc.current_allocation();
            for (acc, w) in way_occupancy.0.iter_mut().zip(alloc) {
                *acc += w as u64;
            }
            way_occupancy.1 += 1;
            for (i, acc) in resource_occupancy.0.iter_mut().enumerate() {
                *acc += match port.llc.bandwidth_regulator() {
                    Some(r) => r.share_of(CoreId(i as u8)),
                    None => 1.0,
                };
            }
            for (acc, core) in resource_occupancy.1.iter_mut().zip(cores.iter()) {
                *acc += core.prefetch_degree() as f64;
            }
            callback_ns += ns_since(cb);
            EpochControl::Continue
        },
    );
    stepper_ns += ns_since(stepper_start);
    let (llc_ns, llc_calls) = (port.ns, port.calls);
    let end = stepper.now();
    let capped = warm_finish.iter().any(Option::is_none) || finish.iter().any(Option::is_none);
    for f in &mut finish {
        f.get_or_insert(end);
    }

    // ---- Collect (System::run) -----------------------------------------
    let ipc: Vec<f64> = (0..n)
        .map(|i| {
            let cycles = (finish[i].expect("filled") - window_start).max(1);
            scale.instrs_per_app as f64 / cycles as f64
        })
        .collect();
    let kilo = scale.instrs_per_app as f64 / 1000.0;
    let mpki: Vec<f64> = (0..n)
        .map(|i| (llc.stats().per_core[i].misses.get() - base_misses[i]) as f64 / kilo)
        .collect();
    let apki: Vec<f64> = (0..n)
        .map(|i| (llc.stats().per_core[i].accesses.get() - base_accesses[i]) as f64 / kilo)
        .collect();
    let accesses: Vec<u64> = (0..n)
        .map(|i| llc.stats().per_core[i].accesses.get() - base_accesses[i])
        .collect();
    let counts = minus(llc.energy_counts(end), base_counts);
    let params = EnergyParams::for_llc(llc_cfg.geom.size_bytes(), llc_cfg.geom.ways());
    let flush_series_ts = llc.stats().flush_series.clone();

    let final_retired: Vec<u64> = cores.iter().map(|c| c.retired()).collect();
    let final_misses = llc_misses(&llc, n);
    let dvfs_window = dvfs_books_base.map(|base| {
        let ctl = dvfs_of(&mut policy)
            .expect("the window-start books came from a DVFS policy")
            .controller_mut();
        ctl.settle(end, &final_retired, &final_misses);
        let window = ctl.books().since(&base);
        let fractions: Vec<Vec<f64>> = window
            .ref_cycles
            .iter()
            .map(|row| {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    let mut v = vec![0.0; row.len()];
                    v[0] = 1.0;
                    v
                } else {
                    row.iter().map(|&r| r as f64 / total as f64).collect()
                }
            })
            .collect();
        (
            ctl.core_energy(&window),
            ctl.avg_freq_ghz(&window),
            fractions,
        )
    });
    let (core_energy, avg_freq_ghz, freq_residency) = match dvfs_window {
        Some(report) => report,
        None => {
            let p = core_power;
            let window_ns = (end - window_start) as f64 / params.clock_ghz;
            let dynamic_nj: f64 = (0..n)
                .map(|i| {
                    (final_retired[i] - base_retired[i]) as f64 * p.dynamic_nj_per_instr(p.vdd_nom)
                })
                .sum();
            let static_nj = p.static_nj(p.vdd_nom, window_ns) * n as f64;
            (
                CoreEnergyReport {
                    dynamic_nj,
                    static_nj,
                },
                vec![params.clock_ghz; n],
                vec![vec![1.0]; n],
            )
        }
    };
    let avg_ways_owned: Vec<f64> = {
        let (sums, epochs) = &way_occupancy;
        if *epochs == 0 {
            llc.current_allocation().iter().map(|&w| w as f64).collect()
        } else {
            sums.iter().map(|&s| s as f64 / *epochs as f64).collect()
        }
    };
    let (avg_bw_share, avg_prefetch_degree): (Vec<f64>, Vec<f64>) = {
        let epochs = way_occupancy.1;
        if epochs == 0 {
            (
                (0..n)
                    .map(|i| match llc.bandwidth_regulator() {
                        Some(r) => r.share_of(CoreId(i as u8)),
                        None => 1.0,
                    })
                    .collect(),
                cores.iter().map(|c| c.prefetch_degree() as f64).collect(),
            )
        } else {
            (
                resource_occupancy
                    .0
                    .iter()
                    .map(|&s| s / epochs as f64)
                    .collect(),
                resource_occupancy
                    .1
                    .iter()
                    .map(|&s| s / epochs as f64)
                    .collect(),
            )
        }
    };
    let prefetches: Vec<u64> = cores
        .iter()
        .zip(&base_prefetches)
        .map(|(c, &b)| c.stats().prefetches.get() - b)
        .collect();
    let prefetch_useful: Vec<u64> = cores
        .iter()
        .zip(&base_useful)
        .map(|(c, &b)| c.stats().prefetch_useful.get() - b)
        .collect();
    let dram_lines: Vec<u64> = (0..n)
        .map(|i| llc.stats().per_core[i].dram_lines.get() - base_dram_lines[i])
        .collect();
    let bw_delay_cycles: Vec<u64> = bw_delay_cycles_of(&llc, n)
        .iter()
        .zip(&base_bw_delay)
        .map(|(&a, &b)| a - b)
        .collect();

    let result = RunResult {
        policy: policy.name().to_string(),
        label: policy.label().to_string(),
        workload: workload.label.clone(),
        ipc,
        mpki,
        apki,
        accesses,
        counts,
        energy: params.evaluate(&counts),
        avg_ways: llc.avg_ways_consulted(),
        cycles: end - window_start,
        cp_transfer_durations: llc.takeover().durations().to_vec(),
        ucp_transfer_durations: llc.ucp_transfer_durations().to_vec(),
        takeover_events: llc.takeover().event_counts(),
        forced_transfers: llc.takeover().forced_count(),
        flush_lines: llc.stats().flush_lines.get() - base_flush,
        flush_series: flush_series_ts.values().to_vec(),
        flush_bucket: flush_series_ts.bucket_cycles(),
        repartitions: llc.stats().repartitions.get(),
        epoch_curves,
        core_energy,
        avg_freq_ghz,
        freq_residency,
        avg_ways_owned,
        prefetches,
        prefetch_useful,
        dram_lines,
        bw_delay_cycles,
        avg_bw_share,
        avg_prefetch_degree,
    };

    // ---- Ledger ---------------------------------------------------------
    let stats = llc.stats();
    ledger.runs += 1;
    ledger.stepper_ns += stepper_ns;
    ledger.callback_ns += callback_ns;
    ledger.drive_ns += drive_ns;
    ledger.decide_ns.extend(policy.decide_ns);
    ledger.llc_ns += llc_ns;
    ledger.llc_calls += llc_calls;
    ledger.gen_ns += gen.ns.load(Ordering::Relaxed);
    ledger.gen_instrs += gen.instrs.load(Ordering::Relaxed);
    for c in &cores {
        ledger.retired += c.retired();
        ledger.l1d.0 += c.l1d_stats().accesses();
        ledger.l1d.1 += c.l1d_stats().misses.get();
        ledger.l1i.0 += c.l1i_stats().accesses();
        ledger.l1i.1 += c.l1i_stats().misses.get();
        ledger.branches.0 += c.branch_stats().branches.get();
        ledger.branches.1 += c.branch_stats().mispredictions.get();
        ledger.prefetch.0 += c.stats().prefetches.get();
        ledger.prefetch.1 += c.stats().prefetch_useful.get();
    }
    ledger.llc_demand.0 += stats.total_accesses();
    ledger.llc_demand.1 += stats.total_misses();
    ledger.ways_probed += result.avg_ways * stats.total_accesses() as f64;
    ledger.transfers.0 += result.cp_transfer_durations.len() as u64;
    ledger.transfers.1 += result.forced_transfers;
    ledger.decisions.0 += stats.decisions.get();
    ledger.decisions.1 += stats.repartitions.get();
    ledger.dram.0 += result.dram_lines.iter().sum::<u64>();
    ledger.dram.1 += result.bw_delay_cycles.iter().sum::<u64>();
    ledger.window_instrs += scale.instrs_per_app * n as u64;
    ledger.cell_ns += ns_since(cell_start);
    (result, capped)
}

/// Cumulative per-core LLC misses.
fn llc_misses(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    (0..n)
        .map(|i| llc.stats().per_core[i].misses.get())
        .collect()
}

/// Cumulative per-core regulator delay cycles (zeros without a regulator).
fn bw_delay_cycles_of(llc: &PartitionedLlc, n: usize) -> Vec<u64> {
    match llc.bandwidth_regulator() {
        Some(r) => r.stats().iter().map(|s| s.delay_cycles.get()).collect(),
        None => vec![0; n],
    }
}

/// The wrapped policy as the concrete DVFS type, when it is one.
fn dvfs_of(policy: &mut TimedPolicy) -> Option<&mut DvfsPolicy> {
    (policy.inner.as_mut() as &mut dyn Any).downcast_mut::<DvfsPolicy>()
}

fn minus(a: EnergyCounts, b: EnergyCounts) -> EnergyCounts {
    EnergyCounts {
        tag_way_probes: a.tag_way_probes - b.tag_way_probes,
        data_reads: a.data_reads - b.data_reads,
        data_writes: a.data_writes - b.data_writes,
        umon_probes: a.umon_probes - b.umon_probes,
        vector_accesses: a.vector_accesses - b.vector_accesses,
        on_way_cycles: a.on_way_cycles - b.on_way_cycles,
        gated_way_cycles: a.gated_way_cycles - b.gated_way_cycles,
        total_cycles: a.total_cycles - b.total_cycles,
    }
}

/// The solo baseline `harness::solo` would compute, run traced.
pub fn solo_traced(
    member: &Arc<dyn WorkloadFactory>,
    cores: usize,
    scale: SimScale,
    ledger: &mut Ledger,
) -> (SoloResult, bool) {
    let workload = ResolvedWorkload::single(Arc::clone(member));
    let (run, capped) = run_traced(
        RunSpec {
            workload: &workload,
            policy: "ucp",
            slack: 0.10,
            llc: Some(solo_llc(cores)),
            scale,
            seed: PRODUCT_SEED,
            cpe_profile: None,
        },
        ledger,
    );
    let solo = SoloResult {
        ipc: run.ipc[0],
        mpki: run.mpki[0],
        apki: run.apki[0],
        accesses: run.accesses[0],
        epoch_curves: run.epoch_curves,
    };
    (solo, capped)
}

/// Runs `job` over `0..count` in order with one [`Ledger`], timing the
/// whole loop; returns the results and the ledger.
fn timed_loop<R>(count: usize, mut job: impl FnMut(usize, &mut Ledger) -> R) -> (Vec<R>, Ledger) {
    let start: Instant = clock::now();
    let mut ledger = Ledger::default();
    let results = (0..count).map(|i| job(i, &mut ledger)).collect();
    ledger.pass_ns = ns_since(start);
    (results, ledger)
}

/// One traced pass over `plan`, one cell at a time on one thread: solo
/// baselines first (the Dynamic CPE cells read their curves), then every
/// cell.
pub fn run(plan: &Plan, plan_ns: u64) -> UnitReport {
    let start = clock::now();
    let mut out = Outcome::default();
    let (solos, mut ledger) = timed_loop(plan.solos.len(), |i, ledger| {
        catch_unwind(AssertUnwindSafe(|| {
            solo_traced(&plan.solos[i], plan.cores, plan.scale, ledger)
        }))
        .ok()
    });
    ledger.solo_ns = ledger.pass_ns;
    let mut solo_curves: Vec<(String, Vec<MissCurve>)> = Vec::new();
    for (m, solo) in plan.solos.iter().zip(solos) {
        match solo {
            Some((s, false)) => {
                out.add_solo(m.name(), &s);
                solo_curves.push((m.name().to_string(), s.epoch_curves));
            }
            _ => out.failed.push(Plan::solo_id(m.as_ref())),
        }
    }
    let profile_for = |workload: &ResolvedWorkload| -> Option<CpeProfile> {
        let curves: Option<Vec<Vec<MissCurve>>> = workload
            .member_names()
            .iter()
            .map(|n| {
                solo_curves
                    .iter()
                    .find(|(name, _)| name == n)
                    .map(|(_, c)| c.clone())
            })
            .collect();
        curves.map(|curves| CpeProfile { curves })
    };
    let (runs, cell_ledger) = timed_loop(plan.cells.len(), |i, ledger| {
        let cell = &plan.cells[i];
        let workload = &plan.groups[cell.group];
        let spec = RunSpec {
            workload,
            policy: cell.policy,
            slack: cell.slack,
            llc: None,
            scale: plan.scale,
            seed: PRODUCT_SEED,
            cpe_profile: if cell.policy == "cpe" {
                profile_for(workload)
            } else {
                None
            },
        };
        catch_unwind(AssertUnwindSafe(|| run_traced(spec, ledger))).ok()
    });
    ledger.merge(cell_ledger);
    for (cell, run) in plan.cells.iter().zip(runs) {
        let id = plan.cell_id(cell);
        match run {
            Some((r, capped)) => out.add_run(id, r, capped),
            None => out.failed.push(id),
        }
    }
    let wall_ns = ns_since(start);
    let sim = sim_metrics(plan, &out);
    UnitReport {
        mode: "traced",
        setup_s: (plan_ns + ledger.build_ns) as f64 / 1e9,
        wall_s: wall_ns as f64 / 1e9,
        norm: None,
        instrs: plan.sim_instrs(),
        llc_accesses: out.llc_accesses(),
        peak_rss_mib: peak_rss_mib(),
        attempted: plan.attempted(),
        layers: ledger.layers(),
        sim,
        outcome: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{digest_run, digest_solo};
    use harness::System;

    fn tiny() -> SimScale {
        SimScale {
            name: "perfbench-test",
            warmup_instrs: 20_000,
            instrs_per_app: 40_000,
            epoch_cycles: 10_000,
            max_cycles: 40_000_000,
        }
    }

    fn resolve(spec: &str) -> ResolvedWorkload {
        harness::workload_registry()
            .resolve(spec)
            .expect("registered workload")
    }

    /// The wrapped, reassembled run of a cell must equal the product path
    /// bit for bit, and the wrappers must have seen its work.
    fn assert_transparent(spec: &str, policy: &str, slack: f64) {
        let workload = resolve(spec);
        let scale = tiny();
        let mut sys = System::builder()
            .workload_resolved(workload.clone())
            .policy(policy)
            .scale(scale)
            .qos_slack(slack)
            .build();
        let solo_cores = workload.cores();
        let cpe = (policy == "cpe")
            .then(|| harness::solo::cpe_profile_for(&workload, solo_llc(solo_cores), scale));
        if let Some(profile) = &cpe {
            sys.set_cpe_profile(profile.clone());
        }
        let product = sys.run();
        let mut ledger = Ledger::default();
        let (traced, capped) = run_traced(
            RunSpec {
                workload: &workload,
                policy,
                slack,
                llc: None,
                scale,
                seed: PRODUCT_SEED,
                cpe_profile: cpe,
            },
            &mut ledger,
        );
        assert!(!capped, "{spec}/{policy} hit the cycle cap");
        assert_eq!(
            digest_run(&traced),
            digest_run(&product),
            "{spec}/{policy}: traced run differs from System::run"
        );
        assert!(ledger.retired > 0 && ledger.gen_instrs >= ledger.retired);
        assert!(ledger.llc_calls > 0 && !ledger.decide_ns.is_empty());
        assert!(ledger.stepper_ns >= ledger.gen_ns + ledger.llc_ns + ledger.callback_ns);
        assert!(ledger.cell_ns >= ledger.stepper_ns + ledger.build_ns);
    }

    #[test]
    fn wrappers_are_transparent_for_paper_policies() {
        assert_transparent("G2-1", "cooperative", 0.10);
        assert_transparent("G2-4", "ucp", 0.10);
    }

    #[test]
    fn wrappers_are_transparent_for_cpe_and_coordinators() {
        assert_transparent("G2-7", "cpe", 0.10);
        assert_transparent("G2-1", "dvfs", 0.05);
        assert_transparent("G2-4", "cbp", 0.05);
    }

    #[test]
    fn traced_solo_matches_harness_solo() {
        let member = harness::workload_registry()
            .member("soplex")
            .expect("registered benchmark");
        let product = harness::solo::solo_result_for(&member, solo_llc(2), tiny());
        let (traced, capped) = solo_traced(&member, 2, tiny(), &mut Ledger::default());
        assert!(!capped);
        assert_eq!(digest_solo(&traced), digest_solo(&product));
    }

    #[test]
    fn layer_names_are_declared_in_benchmark_json() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, _) in Ledger::default().layers() {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn p99_is_nearest_rank() {
        assert_eq!(p99(&[]), 0.0);
        assert_eq!(p99(&[5]), 5.0);
        let samples: Vec<u64> = (1..=200).collect();
        assert_eq!(p99(&samples), 198.0);
    }
}
