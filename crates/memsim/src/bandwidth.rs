//! Per-core DRAM bandwidth regulator.
//!
//! A deterministic, integer-arithmetic token-bucket stage that sits in
//! front of the memory path: each core holds a credit budget per fixed
//! refill window, quantized from a fractional share of the DRAM's peak
//! line rate. An over-budget miss is not dropped — it is *delayed* to the
//! start of the next window with credits, consuming a credit there, so
//! every gated access is admitted exactly once and per-core admission
//! order is preserved (the returned cycles are non-decreasing per core).
//!
//! The regulator keeps **no cross-core state**: a core's admission times
//! depend only on that core's own request sequence, so different core
//! interleavings (e.g. the reference vs. event-driven steppers) produce
//! bit-identical results.
//!
//! Callers that want the paper-machine behavior leave the regulator out
//! entirely (see `coop-core`'s `PartitionedLlc`, which holds it as an
//! `Option` that stays `None` until a policy publishes bandwidth shares).

use simkit::types::{CoreId, Cycle};
use simkit::Counter;

/// Share quantization denominator: shares are fixed once, in 1/256ths,
/// when they are set — the per-access path is pure integer arithmetic.
pub const SHARE_Q: u32 = 256;

/// Regulator configuration: the refill window and the whole-DRAM line
/// budget per window (its peak bandwidth expressed in lines/window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BandwidthConfig {
    /// Cycles per refill window.
    pub window_cycles: u64,
    /// Line transfers the whole DRAM can serve per window (peak).
    pub lines_per_window: u32,
}

impl BandwidthConfig {
    /// A window matched to a [`crate::dram::DramConfig`]: with `banks`
    /// banks each busy `bank_busy` cycles per line, peak throughput is one
    /// line every `bank_busy / banks` cycles.
    pub fn matched_to(dram: &crate::dram::DramConfig) -> BandwidthConfig {
        let cycles_per_line = (dram.bank_busy / dram.banks as u64).max(1);
        let window_cycles = 2048;
        BandwidthConfig {
            window_cycles,
            lines_per_window: (window_cycles / cycles_per_line) as u32,
        }
    }

    /// The paper machine's DRAM (8 banks, 48-cycle bank occupancy): one
    /// line per 6 cycles, refilled every 2048 cycles.
    pub fn paper_default() -> BandwidthConfig {
        BandwidthConfig::matched_to(&crate::dram::DramConfig::default())
    }
}

/// Per-core regulator traffic statistics (cumulative).
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreBandwidthStats {
    /// Accesses admitted through the regulator.
    pub admitted: Counter,
    /// Admitted accesses that were delayed past their request cycle.
    pub delayed: Counter,
    /// Total whole-cycle delay imposed.
    pub delay_cycles: Counter,
}

/// One core's token bucket.
#[derive(Debug, Clone, Copy)]
struct CoreBucket {
    /// Window index `credits` refers to.
    window: u64,
    /// Credits left in that window.
    credits: u32,
    /// Credits granted at each refill (≥ 1 so every core makes progress).
    budget: u32,
    /// Quantized share, in [`SHARE_Q`]ths, for reporting.
    share_q: u32,
    /// Last admission cycle (per-core FIFO: later requests never admit
    /// earlier than this).
    earliest: u64,
}

/// The per-core token-bucket regulator.
#[derive(Debug, Clone)]
pub struct BandwidthRegulator {
    cfg: BandwidthConfig,
    buckets: Vec<CoreBucket>,
    stats: Vec<CoreBandwidthStats>,
}

impl BandwidthRegulator {
    /// Creates a regulator granting every core an equal share.
    ///
    /// # Panics
    ///
    /// Panics when `cores` is zero or the config has a zero window/budget.
    pub fn new(cores: usize, cfg: BandwidthConfig) -> BandwidthRegulator {
        assert!(cores > 0, "regulator needs at least one core");
        assert!(cfg.window_cycles > 0 && cfg.lines_per_window > 0);
        let mut reg = BandwidthRegulator {
            cfg,
            buckets: vec![
                CoreBucket {
                    window: 0,
                    credits: 0,
                    budget: 1,
                    share_q: 0,
                    earliest: 0,
                };
                cores
            ],
            stats: vec![CoreBandwidthStats::default(); cores],
        };
        reg.set_shares(&vec![1.0 / cores as f64; cores]);
        // Window 0 never sees a refill (refills fire on window *advance*),
        // so grant its credits directly.
        for b in &mut reg.buckets {
            b.credits = b.budget;
        }
        reg
    }

    /// The configuration in use.
    pub fn config(&self) -> BandwidthConfig {
        self.cfg
    }

    /// Publishes new fractional shares of peak bandwidth (one per core,
    /// each in `[0, 1]`). Shares are quantized to [`SHARE_Q`]ths once,
    /// here; budgets floor at one line per window so no core starves.
    /// Credits already granted for the current window are kept — new
    /// budgets take effect from the next refill.
    ///
    /// # Panics
    ///
    /// Panics when `shares` does not have one entry per core.
    pub fn set_shares(&mut self, shares: &[f64]) {
        assert_eq!(shares.len(), self.buckets.len(), "one share per core");
        for (b, &s) in self.buckets.iter_mut().zip(shares.iter()) {
            let q = (s.clamp(0.0, 1.0) * SHARE_Q as f64).round() as u32;
            b.share_q = q;
            b.budget = ((self.cfg.lines_per_window * q) / SHARE_Q).max(1);
            // A lowered budget applies to the current window too — never
            // let already-granted credits exceed the new budget.
            b.credits = b.credits.min(b.budget);
        }
    }

    /// The quantized share currently granted to `core`, as a fraction.
    pub fn share_of(&self, core: CoreId) -> f64 {
        self.buckets[core.index()].share_q as f64 / SHARE_Q as f64
    }

    /// Lines per window currently granted to `core`.
    pub fn budget_of(&self, core: CoreId) -> u32 {
        self.buckets[core.index()].budget
    }

    /// Per-core cumulative statistics.
    pub fn stats(&self) -> &[CoreBandwidthStats] {
        &self.stats
    }

    /// Admits one line transfer for `core` requested at `start`: returns
    /// the admission cycle (`>= start`), delaying to the next window with
    /// credits when the core is over budget. Admission cycles are
    /// non-decreasing per core.
    pub fn gate(&mut self, start: Cycle, core: CoreId) -> Cycle {
        let idx = core.index();
        let b = &mut self.buckets[idx];
        let mut t = start.raw().max(b.earliest);
        loop {
            let win = t / self.cfg.window_cycles;
            if win > b.window {
                b.window = win;
                b.credits = b.budget;
            }
            if b.credits > 0 {
                b.credits -= 1;
                break;
            }
            // Out of credits: move to the start of the next window (the
            // refill above then grants it `budget >= 1`, so this loop
            // advances at most one window per iteration and terminates).
            t = (b.window + 1) * self.cfg.window_cycles;
        }
        b.earliest = t;
        let s = &mut self.stats[idx];
        s.admitted.inc();
        let delay = t - start.raw();
        if delay > 0 {
            s.delayed.inc();
            s.delay_cycles.add(delay);
        }
        Cycle(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(window: u64, lines: u32) -> BandwidthConfig {
        BandwidthConfig {
            window_cycles: window,
            lines_per_window: lines,
        }
    }

    #[test]
    fn full_share_is_transparent_within_budget() {
        let mut r = BandwidthRegulator::new(1, cfg(100, 10));
        r.set_shares(&[1.0]);
        for i in 0..10 {
            assert_eq!(r.gate(Cycle(i), CoreId(0)), Cycle(i));
        }
        assert_eq!(r.stats()[0].delayed.get(), 0);
    }

    #[test]
    fn over_budget_requests_slip_to_the_next_window() {
        let mut r = BandwidthRegulator::new(1, cfg(100, 2));
        r.set_shares(&[1.0]);
        assert_eq!(r.gate(Cycle(0), CoreId(0)), Cycle(0));
        assert_eq!(r.gate(Cycle(1), CoreId(0)), Cycle(1));
        // Third line in window 0 exceeds the 2-line budget.
        assert_eq!(r.gate(Cycle(2), CoreId(0)), Cycle(100));
        // Fourth consumes window 1's second credit, FIFO after the third.
        assert_eq!(r.gate(Cycle(3), CoreId(0)), Cycle(100));
        // Fifth exceeds window 1 too.
        assert_eq!(r.gate(Cycle(4), CoreId(0)), Cycle(200));
        let s = r.stats()[0];
        assert_eq!(s.admitted.get(), 5);
        assert_eq!(s.delayed.get(), 3);
        assert_eq!(s.delay_cycles.get(), 98 + 97 + 196);
    }

    #[test]
    fn shares_quantize_and_floor_at_one_line() {
        let mut r = BandwidthRegulator::new(2, cfg(2048, 341));
        r.set_shares(&[0.75, 0.0]);
        assert_eq!(r.budget_of(CoreId(0)), 341 * 192 / 256);
        assert_eq!(r.budget_of(CoreId(1)), 1, "floor keeps cores live");
        assert_eq!(r.share_of(CoreId(0)), 0.75);
    }

    #[test]
    fn cores_are_isolated() {
        let mut r = BandwidthRegulator::new(2, cfg(100, 2));
        r.set_shares(&[0.5, 0.5]);
        // Core 0 exhausts its credit; core 1 is unaffected.
        assert_eq!(r.gate(Cycle(0), CoreId(0)), Cycle(0));
        assert_eq!(r.gate(Cycle(1), CoreId(0)), Cycle(100));
        assert_eq!(r.gate(Cycle(2), CoreId(1)), Cycle(2));
    }

    proptest! {
        /// Conservation + order: every request is admitted exactly once at
        /// a cycle no earlier than requested, per-core admissions are
        /// non-decreasing, and no window ever admits more than the budget.
        #[test]
        fn token_bucket_conserves_and_orders(
            window in 8u64..512,
            lines in 1u32..64,
            share in 0.0f64..1.0,
            gaps in proptest::collection::vec(0u64..96, 1..200),
        ) {
            let mut r = BandwidthRegulator::new(1, cfg(window, lines));
            r.set_shares(&[share]);
            let budget = r.budget_of(CoreId(0)) as usize;
            let mut t = 0u64;
            let mut admissions = Vec::new();
            for g in gaps.iter() {
                t += g;
                admissions.push(r.gate(Cycle(t), CoreId(0)).raw());
                prop_assert!(*admissions.last().expect("pushed") >= t);
            }
            // Exactly once each, in order.
            prop_assert_eq!(r.stats()[0].admitted.get(), gaps.len() as u64);
            prop_assert!(admissions.windows(2).all(|w| w[0] <= w[1]));
            // Window budgets respected.
            let mut per_window = std::collections::BTreeMap::new();
            for a in &admissions {
                *per_window.entry(a / window).or_insert(0usize) += 1;
            }
            prop_assert!(per_window.values().all(|&n| n <= budget));
            // Total delay matches the admission/request gap.
            let requested: u64 = {
                let mut t = 0u64;
                gaps.iter().map(|g| { t += g; t }).sum()
            };
            let admitted_sum: u64 = admissions.iter().sum();
            prop_assert_eq!(
                r.stats()[0].delay_cycles.get(),
                admitted_sum - requested
            );
        }

        /// The regulator is a pure function of the per-core request
        /// sequence: replaying the same stream gives identical admissions.
        #[test]
        fn gating_is_deterministic(
            window in 8u64..256,
            lines in 1u32..32,
            gaps in proptest::collection::vec(0u64..64, 1..100),
        ) {
            let run = || {
                let mut r = BandwidthRegulator::new(1, cfg(window, lines));
                let mut t = 0u64;
                gaps.iter()
                    .map(|g| {
                        t += g;
                        r.gate(Cycle(t), CoreId(0)).raw()
                    })
                    .collect::<Vec<_>>()
            };
            prop_assert_eq!(run(), run());
        }
    }
}
