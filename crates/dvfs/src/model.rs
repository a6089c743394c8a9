//! The epoch-level performance model.
//!
//! Each epoch, the controller must predict how long every core would take to
//! redo that epoch's work at each candidate point of its preset's axis set:
//! V/f point `f`, way count `w`, prefetch degree `d` and bandwidth units `b`.
//! The model splits wall time the classic way (Nejat et al.'s coordinated
//! DVFS + partitioning formulation) and adds CBP's prefetch and bandwidth
//! terms:
//!
//! ```text
//! T(f, w, d, b) = max( C_compute / f  +  M_eff(w, d) · L_miss ,  lines(w, d) / rate(b) )
//! ```
//!
//! * `C_compute` — frequency-invariant core cycles (dispatch, ALU, L1 hits);
//!   scaling the clock scales this term's wall time inversely;
//! * `M(w)` — LLC misses at `w` ways, read off the core's UMON miss curve
//!   and *anchored* to the misses actually observed this epoch (the curve
//!   supplies the shape, the observation supplies the magnitude);
//! * `M_eff(w, d) = M(w) · (1 − coverage(d) · accuracy)` — a degree-`d`
//!   prefetcher issues `M(w) · coverage(d)` prefetches, of which the
//!   measured `accuracy` land ahead of a demand access. Covered misses stop
//!   stalling the core, but *every* issued prefetch is a DRAM line transfer;
//! * `L_miss` — effective wall-time stall per miss, derated below the raw
//!   DRAM latency because the ROB overlaps independent misses (MLP);
//! * `lines(w, d) / rate(b)` — the bandwidth roofline: a token-bucket
//!   regulator caps the core's DRAM line rate at `b / bw_units` of peak, so
//!   the core is either compute/stall-bound or draining its line traffic
//!   through its slice. It applies only when the bandwidth axis is live
//!   (`b > 0`). Without it, at degree 0, the model is exactly
//!   `C_compute / f + M(w) · L_miss`.
//!
//! `C_compute` is calibrated per core per epoch from the one point actually
//! executed, so systematic model error (e.g. an optimistic MLP factor)
//! cancels to first order when comparing candidates.

use coop_core::MissCurve;

/// Prefetch degrees the model considers (`0..=MAX_DEGREE`, matching the
/// hardware prefetcher in `cpusim::prefetch`).
pub const MAX_DEGREE: usize = cpusim::prefetch::MAX_DEGREE;

/// Fixed parameters of the core-side model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfModelParams {
    /// Nominal (reference) core clock in GHz; the simulator's timeline.
    pub f_nom_ghz: f64,
    /// Effective wall-time stall per LLC miss in ns. The paper's DRAM takes
    /// 400 cycles at 2 GHz = 200 ns end to end; with the ROB overlapping
    /// independent misses an effective ~0.35 blocking factor is typical.
    pub miss_stall_ns: f64,
    /// Floor on compute cycles per instruction (1 / issue width).
    pub min_cpi: f64,
}

impl PerfModelParams {
    /// Defaults matching the paper's Table 2 system (2 GHz, 400-cycle DRAM,
    /// 4-wide issue).
    pub fn paper_default() -> PerfModelParams {
        PerfModelParams {
            f_nom_ghz: 2.0,
            miss_stall_ns: 70.0,
            min_cpi: 0.25,
        }
    }
}

/// Fixed parameters of the bandwidth + prefetch terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemModelParams {
    /// Bandwidth quantization: shares are allocated in units of
    /// `1/bw_units` of the DRAM peak.
    pub bw_units: usize,
    /// DRAM peak line rate in lines per ns (the paper machine: one line
    /// per 6 cycles at 2 GHz).
    pub peak_lines_per_ns: f64,
    /// Fraction of demand misses a degree-`d` prefetcher runs ahead of,
    /// indexed by degree (`coverage[0] == 0`).
    pub coverage: [f64; MAX_DEGREE + 1],
    /// Accuracy assumed before enough prefetches have been observed.
    pub accuracy_prior: f64,
    /// Issued prefetches required before the measured accuracy replaces
    /// the prior.
    pub accuracy_min_samples: u64,
    /// Extra demand misses charged per *useless* prefetch: a dead line
    /// fills the core's own partition and can evict a line that would
    /// have hit (self-pollution). At `1.0` prefetching only pays above
    /// 50% accuracy (the classic accuracy gate). The default is `0.0`:
    /// on the simulated LLC dead next-line fills overwhelmingly land on
    /// already-dead ways, and sweeping the penalty upward measurably
    /// *increased* QoS violations by suppressing stall-hiding prefetch.
    pub pollution_penalty: f64,
}

impl MemModelParams {
    /// Defaults matching the paper machine (8 banks × 48-cycle occupancy
    /// at 2 GHz) and a conservative stride-prefetcher coverage ramp.
    pub fn paper_default() -> MemModelParams {
        MemModelParams {
            bw_units: 8,
            peak_lines_per_ns: 2.0 / 6.0,
            coverage: [0.0, 0.30, 0.45, 0.55, 0.60],
            accuracy_prior: 0.5,
            accuracy_min_samples: 64,
            pollution_penalty: 0.0,
        }
    }

    /// The bandwidth share of `b` units, as a fraction of peak.
    #[inline]
    pub fn share(&self, b: usize) -> f64 {
        b as f64 / self.bw_units as f64
    }

    /// Line rate of `b` units, in lines per ns.
    #[inline]
    pub fn rate(&self, b: usize) -> f64 {
        self.peak_lines_per_ns * self.share(b)
    }

    /// Folds issued/useful counters into an accuracy estimate: the
    /// measured ratio once `accuracy_min_samples` prefetches are in
    /// evidence, the prior before.
    pub fn accuracy(&self, issued: u64, useful: u64) -> f64 {
        if issued >= self.accuracy_min_samples {
            (useful as f64 / issued as f64).clamp(0.05, 1.0)
        } else {
            self.accuracy_prior
        }
    }
}

/// What one core actually did over the last epoch, at the operating point
/// and allocation it ran with. Counters a configuration does not have
/// (no regulator, prefetcher off) are zero.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EpochObservation {
    /// Instructions retired during the epoch.
    pub instrs: u64,
    /// Reference cycles the epoch spanned.
    pub ref_cycles: u64,
    /// LLC misses the core suffered.
    pub misses: u64,
    /// DRAM line transfers the core caused (fills and write-backs).
    pub dram_lines: u64,
    /// Cycles the bandwidth regulator delayed the core's lines.
    pub bw_delay_cycles: u64,
    /// Prefetches issued.
    pub prefetches: u64,
    /// Prefetched lines later touched by a demand access.
    pub prefetch_useful: u64,
    /// Ways the core owned.
    pub cur_ways: usize,
    /// Clock-dilation ratio the core ran at (`f_nom / f`, >= 1).
    pub cur_ratio: f64,
}

/// The `(w, d)`-dependent parts of a prediction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Terms {
    /// Uncovered stall time, in ns.
    pub(crate) stall_ns: f64,
    /// DRAM accesses: effective misses plus issued prefetches.
    pub(crate) dram_accesses: f64,
    /// DRAM line traffic.
    pub(crate) lines: f64,
}

/// The fitted per-core model: predicted misses per way count (precomputed —
/// no curve lookups on the minimizer's hot path), calibrated compute cycles
/// and the measured prefetch/traffic behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct CorePerfModel {
    /// Predicted epoch misses at `w` ways, `w = 0..=total_ways`.
    misses_at: Vec<f64>,
    /// Frequency-invariant compute core-cycles for the epoch's work.
    compute_core_cycles: f64,
    /// Instructions the epoch's work comprises.
    instrs: f64,
    /// Per-miss wall stall (ns), copied from the params.
    miss_stall_ns: f64,
    /// Bandwidth/prefetch parameters, copied from the configuration.
    pub(crate) mem: MemModelParams,
    /// Measured prefetch accuracy in `[0, 1]` (prior-seeded).
    pub accuracy: f64,
    /// DRAM lines per miss-equivalent (≥ 1; calibrated from the observed
    /// line traffic, folding in write-backs).
    pub lines_per_miss: f64,
    /// The core's *measured* DRAM line rate last epoch, in lines per ns.
    /// The stall-serialized roofline underestimates demand when misses
    /// overlap in the MSHRs, so the minimizer also floors each core's
    /// bandwidth grant at this rate (capped at fair share).
    pub observed_lines_per_ns: f64,
}

impl CorePerfModel {
    /// Fits the model to one epoch of one core.
    ///
    /// # Panics
    ///
    /// Panics if `obs.cur_ratio < 1` or `total_ways == 0`.
    pub fn fit(
        curve: &MissCurve,
        obs: &EpochObservation,
        perf: &PerfModelParams,
        mem: &MemModelParams,
        total_ways: usize,
    ) -> CorePerfModel {
        assert!(obs.cur_ratio >= 1.0 && total_ways > 0);
        // Anchor the UMON shape to the observed magnitude. A zero anchor
        // (no misses projected at the current allocation) degenerates to a
        // flat curve at the observed count.
        let anchor = curve.misses(obs.cur_ways);
        let observed = obs.misses as f64;
        let misses_at: Vec<f64> = (0..=total_ways)
            .map(|w| {
                if anchor > 0.0 {
                    observed * curve.misses(w) / anchor
                } else {
                    observed
                }
            })
            .collect();

        // Calibrate compute cycles from the executed point:
        // T_obs = C/f_cur + M(w_cur)·L  =>  C = (T_obs − M·L)·f_cur.
        let t_obs_ns = obs.ref_cycles as f64 / perf.f_nom_ghz;
        let f_cur = perf.f_nom_ghz / obs.cur_ratio;
        let stall_ns = misses_at[obs.cur_ways.min(total_ways)] * perf.miss_stall_ns;
        let instrs = (obs.instrs as f64).max(1.0);
        let compute_core_cycles = ((t_obs_ns - stall_ns) * f_cur).max(instrs * perf.min_cpi);

        // Lines per miss-equivalent folds write-back traffic into the
        // roofline; without line accounting it stays at 1.
        let events = obs.misses + obs.prefetches;
        let lines_per_miss = if obs.dram_lines > 0 && events > 0 {
            (obs.dram_lines as f64 / events as f64).clamp(1.0, 3.0)
        } else {
            1.0
        };
        // The measured line rate floors the bandwidth grant (MSHR overlap
        // exceeds the serialized estimate). A rate measured *under
        // throttling* is a lower bound on demand — it would justify the
        // throttle forever — so the regulator's delay cycles are deducted
        // from the interval: without queuing the same lines would have
        // landed that much sooner. Delays of concurrent accesses overlap,
        // so the deduction is clamped to the bandwidth quantization (no
        // inferred speedup beyond bw_units×).
        let dt = obs.ref_cycles;
        let dt_eff = dt
            .saturating_sub(obs.bw_delay_cycles)
            .max(dt / mem.bw_units as u64);
        let dt_ns = dt_eff.max(1) as f64 / perf.f_nom_ghz;
        CorePerfModel {
            misses_at,
            compute_core_cycles,
            instrs,
            miss_stall_ns: perf.miss_stall_ns,
            mem: *mem,
            accuracy: mem.accuracy(obs.prefetches, obs.prefetch_useful),
            lines_per_miss,
            observed_lines_per_ns: obs.dram_lines as f64 / dt_ns,
        }
    }

    /// Builds a model directly from its components (tests, benches), with
    /// the default bandwidth/prefetch parameters, the prior accuracy, one
    /// line per miss and no measured traffic.
    pub fn from_parts(
        misses_at: Vec<f64>,
        compute_core_cycles: f64,
        instrs: f64,
        miss_stall_ns: f64,
    ) -> CorePerfModel {
        assert!(!misses_at.is_empty());
        let mem = MemModelParams::paper_default();
        CorePerfModel {
            misses_at,
            compute_core_cycles,
            instrs,
            miss_stall_ns,
            mem,
            accuracy: mem.accuracy_prior,
            lines_per_miss: 1.0,
            observed_lines_per_ns: 0.0,
        }
    }

    /// Predicted epoch misses with `w` ways (clamped).
    #[inline]
    pub fn misses(&self, w: usize) -> f64 {
        self.misses_at[w.min(self.misses_at.len() - 1)]
    }

    /// Instructions of the modeled epoch's work.
    pub fn instrs(&self) -> f64 {
        self.instrs
    }

    /// Calibrated frequency-invariant compute cycles.
    pub fn compute_core_cycles(&self) -> f64 {
        self.compute_core_cycles
    }

    /// Predicted effective (stalling) misses at `w` ways, degree `d`:
    /// covered misses stop stalling, but every useless prefetch pollutes
    /// the core's own partition and charges `pollution_penalty` of a
    /// demand miss back. At degree 0 this is exactly `M(w)`.
    #[inline]
    pub(crate) fn effective_misses(&self, w: usize, d: usize) -> f64 {
        let cov = self.mem.coverage[d.min(MAX_DEGREE)];
        let factor = (1.0 - cov * self.accuracy
            + self.mem.pollution_penalty * cov * (1.0 - self.accuracy))
            .max(0.0);
        self.misses(w) * factor
    }

    /// Predicted prefetches issued at `w` ways, degree `d` (useless
    /// prefetches still ship lines).
    #[inline]
    pub(crate) fn prefetch_issues(&self, w: usize, d: usize) -> f64 {
        self.misses(w) * self.mem.coverage[d.min(MAX_DEGREE)]
    }

    /// The parts of a prediction that depend on `(w, d)` only, so a
    /// minimizer scanning V/f points and unit counts computes them once.
    #[inline]
    pub(crate) fn terms(&self, w: usize, d: usize) -> Terms {
        let dram_accesses = self.effective_misses(w, d) + self.prefetch_issues(w, d);
        Terms {
            stall_ns: self.effective_misses(w, d) * self.miss_stall_ns,
            dram_accesses,
            lines: dram_accesses * self.lines_per_miss,
        }
    }

    /// Predicted wall time (ns) at `f_ghz` and `units` bandwidth units for
    /// the `(w, d)` point whose [`Terms`] are `t`.
    #[inline]
    pub(crate) fn time_ns(&self, f_ghz: f64, t: &Terms, units: usize) -> f64 {
        let t_core = self.compute_core_cycles / f_ghz + t.stall_ns;
        if units == 0 {
            return t_core;
        }
        t_core.max(t.lines / self.mem.rate(units))
    }

    /// Predicted wall time (ns) to redo the epoch's work at `f_ghz` with
    /// `w` ways, prefetch degree `d` and `units` bandwidth units. `units ==
    /// 0` means no bandwidth axis: the core-side time, with no roofline.
    pub fn predict_ns(&self, f_ghz: f64, w: usize, d: usize, units: usize) -> f64 {
        self.time_ns(f_ghz, &self.terms(w, d), units)
    }

    /// Smallest unit count covering the core's measured line rate — the
    /// floor the minimizer applies so a core is never granted less
    /// bandwidth than it demonstrably used, MSHR overlap included.
    /// Capped at `fair_units` to keep the fair-share baseline feasible.
    pub(crate) fn demand_floor_units(&self, fair_units: usize) -> usize {
        let need = self.observed_lines_per_ns / self.mem.peak_lines_per_ns;
        ((need * self.mem.bw_units as f64).ceil() as usize).clamp(1, fair_units.max(1))
    }

    /// Smallest unit count at which the core is no longer bandwidth-bound
    /// at `(f_ghz, w, d)` — every larger count predicts the identical
    /// time, so the minimizer need not consider them.
    pub(crate) fn saturating_units(&self, f_ghz: f64, w: usize, d: usize) -> usize {
        let t = self.terms(w, d);
        let t_core = self.time_ns(f_ghz, &t, 0);
        if t_core <= 0.0 {
            return self.mem.bw_units;
        }
        let need = t.lines / (self.mem.peak_lines_per_ns * t_core);
        ((need * self.mem.bw_units as f64).ceil() as usize).clamp(1, self.mem.bw_units)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> MissCurve {
        MissCurve::new(
            vec![
                8_000.0, 4_000.0, 2_000.0, 1_000.0, 500.0, 400.0, 350.0, 330.0, 320.0,
            ],
            20_000.0,
        )
    }

    fn fit(obs: EpochObservation) -> CorePerfModel {
        let mem = MemModelParams::paper_default();
        CorePerfModel::fit(&curve(), &obs, &PerfModelParams::paper_default(), &mem, 8)
    }

    fn obs(instrs: u64, ref_cycles: u64, misses: u64, cur_ways: usize) -> EpochObservation {
        EpochObservation {
            instrs,
            ref_cycles,
            misses,
            cur_ways,
            cur_ratio: 1.0,
            ..EpochObservation::default()
        }
    }

    fn model(misses: f64, compute: f64, accuracy: f64) -> CorePerfModel {
        let mut m = CorePerfModel::from_parts(vec![misses; 9], compute, 100_000.0, 70.0);
        m.accuracy = accuracy;
        m
    }

    #[test]
    fn anchoring_scales_curve_to_observed_misses() {
        // The curve projects 1_000 misses at 3 ways: anchor x2.
        let m = fit(obs(100_000, 400_000, 2_000, 3));
        assert!((m.misses(3) - 2_000.0).abs() < 1e-9);
        assert!((m.misses(1) - 8_000.0).abs() < 1e-9, "shape preserved x2");
        assert!((m.misses(8) - 640.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_core_scales_with_frequency() {
        let m = fit(obs(400_000, 100_000, 0, 4));
        let ratio = m.predict_ns(1.0, 4, 0, 0) / m.predict_ns(2.0, 4, 0, 0);
        assert!((ratio - 2.0).abs() < 1e-6, "no misses: time ∝ 1/f");
    }

    #[test]
    fn memory_bound_core_is_insensitive_to_frequency() {
        // Almost all wall time is miss stalls.
        let m = fit(obs(10_000, 1_200_000, 8_000, 1));
        let slowdown = m.predict_ns(1.2, 1, 0, 0) / m.predict_ns(2.0, 1, 0, 0);
        assert!(slowdown < 1.10, "40% clock cut costs <10%: {slowdown}");
    }

    #[test]
    fn calibration_reproduces_the_observed_point() {
        let p = PerfModelParams::paper_default();
        let o = EpochObservation {
            cur_ratio: 1.25,
            ..obs(200_000, 500_000, 1_000, 3)
        };
        let m = fit(o);
        let predicted = m.predict_ns(p.f_nom_ghz / o.cur_ratio, o.cur_ways, 0, 0);
        let t_obs_ns = o.ref_cycles as f64 / p.f_nom_ghz;
        assert!((predicted - t_obs_ns).abs() / t_obs_ns < 1e-9);
    }

    #[test]
    fn compute_floor_prevents_negative_calibration() {
        // Stall estimate exceeds observed time: C clamps to the CPI floor.
        let m = fit(obs(1_000, 10, 5_000, 1));
        assert!(m.compute_core_cycles() >= 1_000.0 * PerfModelParams::paper_default().min_cpi);
        assert!(m.predict_ns(2.0, 8, 0, 0) > 0.0);
    }

    #[test]
    fn more_ways_never_slow_a_core_down() {
        let m = fit(obs(50_000, 300_000, 3_000, 2));
        for w in 1..8 {
            assert!(m.predict_ns(1.6, w + 1, 0, 0) <= m.predict_ns(1.6, w, 0, 0) + 1e-9);
        }
    }

    #[test]
    fn traffic_counters_calibrate_lines_accuracy_and_rate() {
        let m = fit(EpochObservation {
            dram_lines: 6_000,
            bw_delay_cycles: 100_000,
            prefetches: 1_000,
            prefetch_useful: 800,
            ..obs(100_000, 400_000, 2_000, 3)
        });
        assert!(
            (m.lines_per_miss - 2.0).abs() < 1e-12,
            "6000 lines / 3000 events"
        );
        assert!((m.accuracy - 0.8).abs() < 1e-12);
        // 300k undelayed cycles at 2 GHz = 150 µs.
        assert!((m.observed_lines_per_ns - 6_000.0 / 150_000.0).abs() < 1e-12);
        let none = fit(obs(100_000, 400_000, 2_000, 3));
        assert_eq!(none.lines_per_miss, 1.0, "no line accounting");
        assert_eq!(
            none.accuracy, none.mem.accuracy_prior,
            "no prefetch evidence"
        );
    }

    #[test]
    fn prefetching_cuts_stalls_but_adds_traffic() {
        let m = model(10_000.0, 50_000.0, 0.8);
        assert!(m.effective_misses(4, 2) < m.effective_misses(4, 0));
        assert!(m.terms(4, 2).lines > m.terms(4, 0).lines);
        assert_eq!(m.prefetch_issues(4, 0), 0.0, "degree 0 is off");
        assert_eq!(m.effective_misses(4, 0), m.misses(4), "degree 0 is exact");
    }

    #[test]
    fn roofline_binds_at_small_shares() {
        // Serialized demand misses (70 ns each) always out-stall even a
        // one-unit slice (24 ns/line): bandwidth binds once prefetching
        // hides the stalls but the line traffic — amplified here by
        // write-backs (3 lines per miss) — remains.
        let mut m = model(50_000.0, 25_000.0, 1.0);
        m.lines_per_miss = 3.0;
        let d = MAX_DEGREE;
        let full = m.predict_ns(2.0, 4, d, m.mem.bw_units);
        let slice = m.predict_ns(2.0, 4, d, 1);
        assert!(
            slice > full * 2.0,
            "an eighth of peak throttles: {slice} vs {full}"
        );
        let expect = m.terms(4, d).lines / m.mem.rate(1);
        assert!((slice - expect).abs() < 1e-9, "drain time is lines/rate");
        assert!(
            m.predict_ns(2.0, 4, d, 0) < slice,
            "no bandwidth axis, no roofline"
        );
    }

    #[test]
    fn compute_bound_core_ignores_bandwidth() {
        let m = model(0.0, 400_000.0, 0.5);
        assert_eq!(m.predict_ns(2.0, 4, 0, 1), m.predict_ns(2.0, 4, 0, 8));
        assert_eq!(m.saturating_units(2.0, 4, 0), 1);
    }

    #[test]
    fn saturating_units_bound_the_roofline() {
        let m = model(30_000.0, 50_000.0, 0.7);
        for d in 0..=MAX_DEGREE {
            let sat = m.saturating_units(2.0, 4, d);
            let t_full = m.predict_ns(2.0, 4, d, m.mem.bw_units);
            assert!(
                (m.predict_ns(2.0, 4, d, sat) - t_full).abs() < 1e-9,
                "degree {d}"
            );
            if sat > 1 {
                assert!(m.predict_ns(2.0, 4, d, sat - 1) > t_full, "degree {d}");
            }
        }
    }

    #[test]
    fn demand_floor_tracks_measured_rate_capped_at_fair_share() {
        let mut m = model(10_000.0, 50_000.0, 0.5);
        assert_eq!(m.demand_floor_units(4), 1, "no measured traffic");
        // 19% of peak needs ceil(0.19 * 8) = 2 units.
        m.observed_lines_per_ns = 0.19 * m.mem.peak_lines_per_ns;
        assert_eq!(m.demand_floor_units(4), 2);
        // A core measured above peak is still capped at fair share.
        m.observed_lines_per_ns = 2.0 * m.mem.peak_lines_per_ns;
        assert_eq!(m.demand_floor_units(4), 4);
    }

    #[test]
    fn pollution_penalty_gates_inaccurate_prefetch() {
        let mut m = model(10_000.0, 50_000.0, 0.3);
        // Penalty off (the default): any nonzero accuracy cuts stalls.
        assert!(m.effective_misses(4, 2) < m.effective_misses(4, 0));
        // The full accuracy gate: at 30% accuracy a dead fill costs more
        // than a covered miss saves, so prefetching *adds* stalls...
        m.mem.pollution_penalty = 1.0;
        assert!(m.effective_misses(4, 2) > m.effective_misses(4, 0));
        // ...while an accurate prefetcher still pays under the same gate.
        m.accuracy = 0.9;
        assert!(m.effective_misses(4, 2) < m.effective_misses(4, 0));
    }

    #[test]
    fn accuracy_uses_prior_until_evidence() {
        let p = MemModelParams::paper_default();
        assert_eq!(p.accuracy(10, 10), p.accuracy_prior);
        assert!((p.accuracy(1_000, 800) - 0.8).abs() < 1e-12);
        assert_eq!(p.accuracy(1_000, 0), 0.05, "clamped floor");
    }
}
