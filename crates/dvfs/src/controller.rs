//! The per-epoch coordinated controller.
//!
//! [`Controller`] is the decision engine behind every preset of the
//! [`Coordinator`](crate::Coordinator): at every epoch boundary it
//! differences the harness's cumulative [`EpochObservations`] counters —
//! retired instructions, demand misses, DRAM line transfers, regulator
//! delay, prefetches issued and prefetches proven useful — fits one
//! [`CorePerfModel`] per core against the UMON miss curves, and runs the
//! QoS-constrained [`minimize`] over its configuration's axis set.
//! Counter vectors a configuration does not report (no regulator,
//! prefetcher off) are empty and read as zeros, which degrades the model to
//! "no prefetch evidence, one line per miss".
//!
//! The controller also keeps the books DVFS energy accounting needs: how
//! many reference cycles and retired instructions each core spent at each
//! operating point (*frequency residency*). The coordinator snapshots these
//! when the system loop opens its measurement window and evaluates core
//! energy over the window when it closes.

use coop_core::policy::EpochObservations;
use cpusim::VfTable;
use energy::CoreEnergyReport;
use simkit::types::Cycle;

use crate::minimize::{minimize, EnergyCosts, JointAssignment};
use crate::model::{CorePerfModel, EpochObservation, MemModelParams, PerfModelParams, MAX_DEGREE};

/// Configuration of the coordinated controller: its axis set plus the
/// model and cost parameters. Ways are always an axis.
#[derive(Debug, Clone, PartialEq)]
pub struct DvfsConfig {
    /// The V/f operating points the minimizer may pick (nominal first). A
    /// one-point table keeps every core at the nominal clock.
    pub table: VfTable,
    /// Highest prefetch degree the minimizer may pick (0: prefetching is
    /// not an axis).
    pub max_degree: usize,
    /// Whether DRAM bandwidth units are an axis.
    pub bandwidth: bool,
    /// Energy magnitudes for the minimizer's objective.
    pub costs: EnergyCosts,
    /// Allowed fractional slowdown per core versus the nominal-frequency,
    /// fair-share, no-prefetch baseline.
    pub qos_slack: f64,
    /// Core-side model parameters.
    pub perf: PerfModelParams,
    /// Bandwidth/prefetch model parameters.
    pub mem: MemModelParams,
}

impl DvfsConfig {
    /// The `dvfs` preset at the given QoS slack: ways × the 45 nm V/f
    /// table; prefetch and bandwidth are not axes.
    pub fn paper_default(qos_slack: f64) -> DvfsConfig {
        DvfsConfig {
            table: VfTable::paper_45nm(),
            max_degree: 0,
            bandwidth: false,
            costs: EnergyCosts::paper_default(),
            qos_slack,
            perf: PerfModelParams::paper_default(),
            mem: MemModelParams::paper_default(),
        }
    }

    /// The `cbp` preset at the given QoS slack: ways × bandwidth units ×
    /// prefetch degrees `0..=MAX_DEGREE`, at the nominal V/f point only.
    pub fn cbp_default(qos_slack: f64) -> DvfsConfig {
        let dvfs = DvfsConfig::paper_default(qos_slack);
        DvfsConfig {
            table: VfTable::new(vec![dvfs.table.nominal()]),
            max_degree: MAX_DEGREE,
            bandwidth: true,
            ..dvfs
        }
    }
}

/// Cumulative per-core, per-operating-point books (reference cycles and
/// retired instructions). Snapshot/subtract to measure a window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residency {
    /// `ref_cycles[core][op]`.
    pub ref_cycles: Vec<Vec<u64>>,
    /// `instrs[core][op]`.
    pub instrs: Vec<Vec<u64>>,
}

impl Residency {
    /// Element-wise `self - earlier` (a measurement window).
    pub fn since(&self, earlier: &Residency) -> Residency {
        let sub = |a: &[Vec<u64>], b: &[Vec<u64>]| {
            a.iter()
                .zip(b.iter())
                .map(|(ra, rb)| ra.iter().zip(rb.iter()).map(|(x, y)| x - y).collect())
                .collect()
        };
        Residency {
            ref_cycles: sub(&self.ref_cycles, &earlier.ref_cycles),
            instrs: sub(&self.instrs, &earlier.instrs),
        }
    }

    /// Per core, the fraction of booked reference cycles spent at each
    /// operating point. A core with no booked time reports all of it at
    /// the nominal point.
    pub fn fractions(&self) -> Vec<Vec<f64>> {
        let nominal = |op| if op == 0 { 1.0 } else { 0.0 };
        let fractions = |row: &Vec<u64>| match row.iter().sum::<u64>() {
            0 => (0..row.len()).map(nominal).collect(),
            total => row.iter().map(|&r| r as f64 / total as f64).collect(),
        };
        self.ref_cycles.iter().map(fractions).collect()
    }
}

/// The cumulative counters the controller differences, in the order of
/// [`EpochObservation`]'s counter fields.
fn counters(obs: &EpochObservations) -> [&[u64]; 6] {
    [
        &obs.retired,
        &obs.misses,
        &obs.dram_lines,
        &obs.bw_delay_cycles,
        &obs.prefetches,
        &obs.prefetch_useful,
    ]
}

/// `cumulative[c] - last[c]`, treating an absent (empty) vector as zeros.
fn delta(cumulative: &[u64], last: &[u64], c: usize) -> u64 {
    let at = |v: &[u64]| v.get(c).copied().unwrap_or(0);
    at(cumulative).saturating_sub(at(last))
}

/// The epoch controller.
#[derive(Debug, Clone)]
pub struct Controller {
    cfg: DvfsConfig,
    cores: usize,
    total_ways: usize,
    cur_ops: Vec<usize>,
    last_now: Cycle,
    /// The cumulative counters at the last booking, in [`counters`] order.
    last: [Vec<u64>; 6],
    books: Residency,
    decisions: u64,
}

impl Controller {
    /// Creates a controller for `cores` cores sharing `total_ways` ways.
    /// All cores start at the nominal operating point, prefetching off.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero or exceeds `total_ways` (or the bandwidth
    /// units, when that axis is live), or if the V/f table's nominal
    /// frequency disagrees with the performance model's reference clock
    /// (`perf.f_nom_ghz`) — the two must describe the same timeline or
    /// every prediction would be off by the mismatch factor.
    pub fn new(cfg: DvfsConfig, cores: usize, total_ways: usize) -> Controller {
        assert!(cores >= 1 && cores <= total_ways);
        assert!(
            !cfg.bandwidth || cores <= cfg.mem.bw_units,
            "{cores} cores cannot each hold one of {} bandwidth units",
            cfg.mem.bw_units
        );
        assert!(
            (cfg.table.nominal().freq_ghz - cfg.perf.f_nom_ghz).abs() < 1e-9,
            "V/f nominal {} GHz != performance-model reference clock {} GHz",
            cfg.table.nominal().freq_ghz,
            cfg.perf.f_nom_ghz
        );
        let ops = cfg.table.len();
        Controller {
            cfg,
            cores,
            total_ways,
            cur_ops: vec![0; cores],
            last_now: Cycle::ZERO,
            last: std::array::from_fn(|_| vec![0; cores]),
            books: Residency {
                ref_cycles: vec![vec![0; ops]; cores],
                instrs: vec![vec![0; ops]; cores],
            },
            decisions: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DvfsConfig {
        &self.cfg
    }

    /// Current operating point per core.
    pub fn current_ops(&self) -> &[usize] {
        &self.cur_ops
    }

    /// Decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Books the interval since the last call at the *current* operating
    /// points and re-bases the retired/miss counters, without deciding
    /// anything (used at the measurement-window edges).
    pub fn settle(&mut self, now: Cycle, retired: &[u64], misses: &[u64]) {
        let dt = now.since(self.last_now);
        for c in 0..retired.len().min(self.cores) {
            let op = self.cur_ops[c];
            self.books.ref_cycles[c][op] += dt;
            self.books.instrs[c][op] += delta(retired, &self.last[0], c);
        }
        self.rebase(0, retired);
        self.rebase(1, misses);
        self.last_now = now;
    }

    fn rebase(&mut self, k: usize, cumulative: &[u64]) {
        for (c, last) in self.last[k].iter_mut().enumerate() {
            *last = cumulative.get(c).copied().unwrap_or(0);
        }
    }

    /// Runs the epoch decision over `obs`'s cumulative counters. Returns
    /// `None` when no time elapsed since the last booking (nothing to
    /// model); otherwise the joint assignment to apply.
    pub fn on_epoch(&mut self, obs: &EpochObservations) -> Option<JointAssignment> {
        assert_eq!(obs.curves.len(), self.cores);
        let dt = obs.now.since(self.last_now);
        if dt == 0 {
            return None;
        }
        let now = counters(obs);
        let models: Vec<CorePerfModel> = (0..self.cores)
            .map(|c| {
                let [instrs, misses, dram_lines, bw_delay_cycles, prefetches, prefetch_useful] =
                    std::array::from_fn(|k| delta(now[k], &self.last[k], c));
                let epoch = EpochObservation {
                    instrs,
                    ref_cycles: dt,
                    misses,
                    dram_lines,
                    bw_delay_cycles,
                    prefetches,
                    prefetch_useful,
                    cur_ways: obs.cur_ways[c].max(1),
                    cur_ratio: self.cfg.table.ratio(self.cur_ops[c]),
                };
                let (perf, mem) = (&self.cfg.perf, &self.cfg.mem);
                CorePerfModel::fit(&obs.curves[c], &epoch, perf, mem, self.total_ways)
            })
            .collect();
        self.settle(obs.now, &obs.retired, &obs.misses);
        for (k, cumulative) in now.into_iter().enumerate().skip(2) {
            self.rebase(k, cumulative);
        }

        let joint = minimize(&models, &self.cfg, self.total_ways);
        self.cur_ops = joint.ops();
        self.decisions += 1;
        Some(joint)
    }

    /// The cumulative residency books (snapshot these at window start).
    pub fn books(&self) -> &Residency {
        &self.books
    }

    /// Core energy over a residency window, at this controller's V/f table
    /// and energy magnitudes.
    pub fn core_energy(&self, window: &Residency) -> CoreEnergyReport {
        let f_nom = self.cfg.table.nominal().freq_ghz;
        let mut report = CoreEnergyReport::default();
        for c in 0..self.cores {
            for op in 0..self.cfg.table.len() {
                let vdd = self.cfg.table.point(op).vdd;
                let instrs = window.instrs[c][op] as f64;
                let ns = window.ref_cycles[c][op] as f64 / f_nom;
                report.dynamic_nj += instrs * self.cfg.costs.core.dynamic_nj_per_instr(vdd);
                report.static_nj += self.cfg.costs.core.static_nj(vdd, ns);
            }
        }
        report
    }

    /// Residency-weighted average frequency per core over a window, in GHz.
    /// Cores with no booked time report the nominal frequency.
    pub fn avg_freq_ghz(&self, window: &Residency) -> Vec<f64> {
        (0..self.cores)
            .map(|c| {
                let total: u64 = window.ref_cycles[c].iter().sum();
                if total == 0 {
                    return self.cfg.table.nominal().freq_ghz;
                }
                window.ref_cycles[c]
                    .iter()
                    .enumerate()
                    .map(|(op, &r)| self.cfg.table.point(op).freq_ghz * r as f64 / total as f64)
                    .sum()
            })
            .collect()
    }
}
