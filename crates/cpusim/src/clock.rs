//! Per-core DVFS: voltage/frequency operating points and clock dilation.
//!
//! The simulator's global timeline runs in *reference cycles* at the nominal
//! (maximum) core frequency, which is also the uncore clock the shared LLC
//! and DRAM are timed in. A core running at a lower frequency executes its
//! core cycles on a strided subset of reference cycles: at frequency `f`,
//! one core cycle spans `f_nom / f` reference cycles (accumulated
//! fractionally so non-integral ratios average out exactly).
//!
//! Two consequences fall out of this scheme for free, and both are required
//! for a faithful DVFS model:
//!
//! * **cycles-per-instruction respects the clock** — a compute-bound core at
//!   half frequency retires half as many instructions per reference cycle,
//!   because its dispatch/retire ticks fire half as often;
//! * **DRAM latency in core cycles respects the clock** — a memory access
//!   takes the same *wall time* (reference cycles) regardless of the
//!   issuing core's frequency, so a slower core loses *fewer core cycles*
//!   per miss. Memory-bound applications therefore tolerate down-clocking,
//!   which is exactly the asymmetry the coordinated (frequency, ways)
//!   minimizer in `coop-dvfs` exploits.
//!
//! [`VfTable`] holds the discrete operating points (frequency + supply
//! voltage) a core may be set to; the voltage feeds the energy model
//! (`energy::CoreEnergyParams`), the frequency feeds [`CoreClock`].

use simkit::types::Cycle;

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Core clock in GHz.
    pub freq_ghz: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
}

/// The table of discrete operating points a core can switch between,
/// ordered from the highest frequency (index 0, the nominal point) down.
#[derive(Debug, Clone, PartialEq)]
pub struct VfTable {
    points: Vec<OperatingPoint>,
}

impl VfTable {
    /// Builds a table from operating points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty, not strictly descending in frequency,
    /// or contains a non-positive frequency or voltage.
    pub fn new(points: Vec<OperatingPoint>) -> VfTable {
        assert!(!points.is_empty(), "need at least one operating point");
        for p in &points {
            assert!(p.freq_ghz > 0.0 && p.vdd > 0.0, "non-positive V/f point");
        }
        for pair in points.windows(2) {
            assert!(
                pair[0].freq_ghz > pair[1].freq_ghz,
                "operating points must descend in frequency"
            );
        }
        VfTable { points }
    }

    /// A representative 45 nm table: 2.0 GHz at 1.10 V (the paper's nominal
    /// clock) down to 1.2 GHz at 0.90 V in 200 MHz steps, with voltage
    /// scaled along a typical Vdd/f curve.
    pub fn paper_45nm() -> VfTable {
        VfTable::new(vec![
            OperatingPoint {
                freq_ghz: 2.0,
                vdd: 1.10,
            },
            OperatingPoint {
                freq_ghz: 1.8,
                vdd: 1.05,
            },
            OperatingPoint {
                freq_ghz: 1.6,
                vdd: 1.00,
            },
            OperatingPoint {
                freq_ghz: 1.4,
                vdd: 0.95,
            },
            OperatingPoint {
                freq_ghz: 1.2,
                vdd: 0.90,
            },
        ])
    }

    /// Number of operating points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the table holds no points (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The operating point at `idx`.
    pub fn point(&self, idx: usize) -> OperatingPoint {
        self.points[idx]
    }

    /// All points, nominal first.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }

    /// The nominal (maximum-frequency) point: index 0.
    pub fn nominal(&self) -> OperatingPoint {
        self.points[0]
    }

    /// Clock-dilation ratio of point `idx` relative to nominal
    /// (`f_nom / f`, always >= 1).
    pub fn ratio(&self, idx: usize) -> f64 {
        self.points[0].freq_ghz / self.points[idx].freq_ghz
    }
}

/// A core's clock: dilates core cycles onto the reference timeline.
///
/// At ratio `r = f_nom / f >= 1` the `m`-th core cycle since the last DVFS
/// transition fires at reference cycle `anchor + ⌊m·r⌋` — a fixed arithmetic
/// *grid*. Fractional ratios average out exactly (ratio 1.25 produces
/// strides 1, 1, 1, 2) and, crucially, the schedule is a **pure function of
/// time**: whether cycle `t` is a tick does not depend on how often the
/// clock was queried before `t`. That purity is what lets the event-driven
/// stepper skip a down-clocked core's dead cycles and still land on exactly
/// the ticks the reference stepper executes.
///
/// The only history the clock keeps besides the grid is the last *consumed*
/// tick (`gate`), so stepping a core twice at the same cycle never yields
/// two core cycles.
///
/// The first grid tick at or after the gate is cached (`tick`, grid index
/// `tick_m`): every query a stepping core makes lands on or before it, so
/// the per-step questions are compares, and consuming that tick moves the
/// cache to tick `tick_m + 1` with one multiply. Only a query past the
/// cached tick (or a DVFS transition) solves for the grid index with a
/// division. The answers are the same as the uncached formulas'; a
/// property test keeps a reference copy of those to compare against.
#[derive(Debug, Clone)]
pub struct CoreClock {
    ratio: f64,
    /// Reference cycle the current grid is anchored at (the cycle of the
    /// last DVFS transition; tick `m` fires at `anchor + ⌊m·ratio⌋`).
    anchor: Cycle,
    /// One past the last consumed tick: `ticks_at` is false below this.
    gate: Cycle,
    /// The first grid tick at or after `gate`.
    tick: Cycle,
    /// Grid index of `tick`: `tick == anchor + ⌊tick_m·ratio⌋`.
    tick_m: u64,
}

impl CoreClock {
    /// A clock at the nominal frequency (ratio 1: every reference cycle is
    /// a core cycle).
    pub fn nominal() -> CoreClock {
        CoreClock {
            ratio: 1.0,
            anchor: Cycle::ZERO,
            gate: Cycle::ZERO,
            tick: Cycle::ZERO,
            tick_m: 0,
        }
    }

    /// The current dilation ratio (`f_nom / f`).
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Changes the dilation ratio (a DVFS transition) at reference cycle
    /// `now`, re-anchoring the tick grid there. A no-op when the ratio is
    /// unchanged, so repeated identical decisions never shift the grid.
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1` (cores never overclock past nominal).
    pub fn set_ratio(&mut self, now: Cycle, ratio: f64) {
        assert!(ratio >= 1.0, "dilation ratio must be >= 1, got {ratio}");
        if (ratio - self.ratio).abs() > f64::EPSILON {
            self.ratio = ratio;
            self.anchor = now;
            (self.tick_m, self.tick) = self.grid_at_or_after(self.gate);
        }
    }

    /// Reference offset of grid tick `m`: `⌊m·ratio⌋`, with float drift
    /// guarded by the caller's fix-up loops.
    #[inline]
    fn tick_offset(m: u64, ratio: f64) -> u64 {
        (m as f64 * ratio) as u64
    }

    /// The first grid cycle at or after `c` (ignoring the consumed-tick
    /// gate) and its grid index. Pure in `c`.
    fn grid_at_or_after(&self, c: Cycle) -> (u64, Cycle) {
        if c <= self.anchor {
            return (0, self.anchor);
        }
        let rel = c - self.anchor;
        if self.ratio == 1.0 {
            return (rel, c);
        }
        let mut m = (rel as f64 / self.ratio).ceil() as u64;
        // ⌈rel/r⌉ lands within one tick of the answer; fix any float drift
        // exactly (the loops run at most once in practice).
        while Self::tick_offset(m, self.ratio) < rel {
            m += 1;
        }
        while m > 0 && Self::tick_offset(m - 1, self.ratio) >= rel {
            m -= 1;
        }
        (m, self.anchor + Self::tick_offset(m, self.ratio))
    }

    /// The earliest unconsumed tick at or after `c`: the cached tick when
    /// `c` lies between the gate and it (no grid point does), else the
    /// grid formula.
    #[inline]
    fn first_tick_from(&self, c: Cycle) -> Cycle {
        if self.gate <= c && c <= self.tick {
            self.tick
        } else {
            self.grid_at_or_after(c).1.max(self.gate)
        }
    }

    /// Whether a core cycle may execute at reference cycle `now`: `now` is
    /// on the tick grid and has not been consumed yet.
    #[inline]
    pub fn ticks_at(&self, now: Cycle) -> bool {
        if now <= self.tick {
            // No grid point lies in [gate, tick), and tick >= gate.
            now == self.tick
        } else {
            self.grid_at_or_after(now).1 == now
        }
    }

    /// The earliest reference cycle after `now` at which a core cycle
    /// fires. Pure in `now` (the same value however often it is asked).
    #[inline]
    pub fn next_tick_after(&self, now: Cycle) -> Cycle {
        self.first_tick_from(now + 1)
    }

    /// The earliest unconsumed tick at or after `c` — used to align wake
    /// hints (an event computed for cycle `c` is actionable at the first
    /// core cycle not before it).
    #[inline]
    pub fn align_wake(&self, c: Cycle) -> Cycle {
        self.first_tick_from(c)
    }

    /// Consumes the tick at `now`; `ticks_at(now)` must hold.
    #[inline]
    pub fn advance(&mut self, now: Cycle) {
        debug_assert!(self.ticks_at(now));
        self.gate = now + 1;
        if now == self.tick {
            // Grid offsets strictly increase with the index, so the tick
            // after the consumed one is the next grid point.
            self.tick_m += 1;
            self.tick = self.anchor + Self::tick_offset(self.tick_m, self.ratio);
        } else {
            (self.tick_m, self.tick) = self.grid_at_or_after(self.gate);
        }
    }

    /// A core-cycle latency expressed in reference cycles (rounded, at
    /// least 1). Used for fixed microarchitectural latencies (L1 hit,
    /// mispredict penalty) that are specified in core cycles.
    pub fn scaled(&self, core_cycles: u64) -> u64 {
        ((core_cycles as f64 * self.ratio).round() as u64).max(1)
    }
}

impl Default for CoreClock {
    fn default() -> Self {
        CoreClock::nominal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_descending_and_nominal_first() {
        let t = VfTable::paper_45nm();
        assert_eq!(t.len(), 5);
        assert_eq!(t.nominal().freq_ghz, 2.0);
        assert_eq!(t.ratio(0), 1.0);
        assert!((t.ratio(4) - 2.0 / 1.2).abs() < 1e-12);
        for i in 1..t.len() {
            assert!(t.point(i).freq_ghz < t.point(i - 1).freq_ghz);
            assert!(t.point(i).vdd < t.point(i - 1).vdd);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_ascending_frequencies() {
        VfTable::new(vec![
            OperatingPoint {
                freq_ghz: 1.0,
                vdd: 0.9,
            },
            OperatingPoint {
                freq_ghz: 2.0,
                vdd: 1.1,
            },
        ]);
    }

    #[test]
    fn nominal_clock_ticks_every_cycle() {
        let mut c = CoreClock::nominal();
        for n in 0..10u64 {
            assert!(c.ticks_at(Cycle(n)));
            c.advance(Cycle(n));
            assert_eq!(c.next_tick_after(Cycle(n)), Cycle(n + 1));
        }
    }

    #[test]
    fn fractional_ratio_averages_exactly() {
        // Ratio 1.25 -> 100 core cycles must span 125 reference cycles.
        let mut c = CoreClock::nominal();
        c.set_ratio(Cycle::ZERO, 1.25);
        let mut now = Cycle(0);
        for _ in 0..100 {
            assert!(c.ticks_at(now));
            c.advance(now);
            now = c.next_tick_after(now);
        }
        assert_eq!(now, Cycle(125));
    }

    #[test]
    fn half_frequency_doubles_strides() {
        let mut c = CoreClock::nominal();
        c.set_ratio(Cycle::ZERO, 2.0);
        c.advance(Cycle(0));
        assert_eq!(c.next_tick_after(Cycle(0)), Cycle(2));
        assert!(!c.ticks_at(Cycle(1)));
        assert!(c.ticks_at(Cycle(2)));
    }

    #[test]
    fn scaled_latencies_round_and_stay_positive() {
        let mut c = CoreClock::nominal();
        assert_eq!(c.scaled(2), 2);
        c.set_ratio(Cycle::ZERO, 1.25);
        assert_eq!(c.scaled(2), 3); // 2.5 rounds up
        assert_eq!(c.scaled(10), 13); // 12.5 rounds up
        c.set_ratio(Cycle::ZERO, 1.0);
        assert_eq!(c.scaled(1), 1);
    }

    #[test]
    fn ratio_change_reanchors_the_grid() {
        let mut c = CoreClock::nominal();
        c.set_ratio(Cycle::ZERO, 1.5);
        c.advance(Cycle(0)); // tick m=0 at cycle 0
        assert_eq!(c.next_tick_after(Cycle(0)), Cycle(1), "⌊1·1.5⌋ = 1");
        c.set_ratio(Cycle(10), 2.0); // new grid anchored at 10
        assert_eq!(c.next_tick_after(Cycle(10)), Cycle(12));
        assert!(c.ticks_at(Cycle(10)), "the anchor itself is on the grid");
        assert!(!c.ticks_at(Cycle(11)));
    }

    #[test]
    fn tick_schedule_is_pure_in_time() {
        // Querying the schedule at arbitrary intermediate cycles must never
        // change it: the wake-list stepper visits a sparse subset of cycles
        // and must agree with the reference stepper visiting all of them.
        let mut a = CoreClock::nominal();
        let mut b = CoreClock::nominal();
        a.set_ratio(Cycle::ZERO, 1.6);
        b.set_ratio(Cycle::ZERO, 1.6);
        let mut now = Cycle(0);
        for _ in 0..125 {
            // `b` is pestered with off-tick queries; `a` is not.
            for probe in now.raw()..now.raw() + 3 {
                let _ = b.ticks_at(Cycle(probe));
                let _ = b.next_tick_after(Cycle(probe));
            }
            assert!(a.ticks_at(now));
            assert!(b.ticks_at(now));
            a.advance(now);
            b.advance(now);
            let (na, nb) = (a.next_tick_after(now), b.next_tick_after(now));
            assert_eq!(na, nb);
            now = na;
        }
        // Ratio 1.6 -> 125 core ticks span exactly ⌊125·1.6⌋ = 200 cycles.
        assert_eq!(now, Cycle(200));
    }

    /// The uncached clock: the grid formulas the cached tick replaced,
    /// kept verbatim as the reference for the property test below.
    struct ReferenceClock {
        ratio: f64,
        anchor: Cycle,
        gate: Cycle,
    }

    impl ReferenceClock {
        fn set_ratio(&mut self, now: Cycle, ratio: f64) {
            if (ratio - self.ratio).abs() > f64::EPSILON {
                self.ratio = ratio;
                self.anchor = now;
            }
        }

        fn grid_at_or_after(&self, c: Cycle) -> Cycle {
            if self.ratio == 1.0 {
                return c.max(self.anchor);
            }
            if c <= self.anchor {
                return self.anchor;
            }
            let rel = c - self.anchor;
            let mut m = (rel as f64 / self.ratio).ceil() as u64;
            while CoreClock::tick_offset(m, self.ratio) < rel {
                m += 1;
            }
            while m > 0 && CoreClock::tick_offset(m - 1, self.ratio) >= rel {
                m -= 1;
            }
            self.anchor + CoreClock::tick_offset(m, self.ratio)
        }

        fn ticks_at(&self, now: Cycle) -> bool {
            now >= self.gate && self.grid_at_or_after(now) == now
        }

        fn next_tick_after(&self, now: Cycle) -> Cycle {
            self.grid_at_or_after(now + 1).max(self.gate)
        }

        fn align_wake(&self, c: Cycle) -> Cycle {
            self.grid_at_or_after(c).max(self.gate)
        }
    }

    /// The V/f table's ratios plus awkward fractional ones.
    const RATIOS: [f64; 8] = [
        1.0,
        2.0 / 1.8,
        2.0 / 1.6,
        2.0 / 1.4,
        2.0 / 1.2,
        1.6,
        3.0,
        1.0 + 1e-9,
    ];

    proptest::proptest! {
        /// Over random DVFS transitions, tick consumption and queries at
        /// and around the current time, the cached clock answers exactly
        /// as the uncached formulas do.
        #[test]
        fn cached_tick_matches_uncached_formulas(
            ops in proptest::collection::vec((0u8..8, 0u64..40, 0usize..8), 1..400),
        ) {
            let mut ours = CoreClock::nominal();
            let mut reference = ReferenceClock { ratio: 1.0, anchor: Cycle::ZERO, gate: Cycle::ZERO };
            let mut now = Cycle::ZERO;
            for (op, delta, sel) in ops {
                match op {
                    // A DVFS transition at the current cycle.
                    0 => {
                        ours.set_ratio(now, RATIOS[sel]);
                        reference.set_ratio(now, RATIOS[sel]);
                    }
                    // Jump to the next tick (the stepping pattern) and
                    // consume it.
                    1..=3 => {
                        now = reference.next_tick_after(now);
                        proptest::prop_assert!(ours.ticks_at(now));
                        ours.advance(now);
                        reference.gate = now + 1;
                    }
                    // Wander forward; consume the cycle if it is a tick.
                    4 | 5 => {
                        now += delta;
                        if reference.ticks_at(now) {
                            ours.advance(now);
                            reference.gate = now + 1;
                        }
                    }
                    // Query without moving.
                    _ => {}
                }
                for probe in [now, now + delta, now + 1, Cycle(now.raw().saturating_sub(delta))] {
                    proptest::prop_assert_eq!(ours.ticks_at(probe), reference.ticks_at(probe), "ticks_at {:?}", probe);
                    proptest::prop_assert_eq!(ours.next_tick_after(probe), reference.next_tick_after(probe), "next_tick_after {:?}", probe);
                    proptest::prop_assert_eq!(ours.align_wake(probe), reference.align_wake(probe), "align_wake {:?}", probe);
                }
            }
        }
    }

    #[test]
    fn same_cycle_double_advance_is_gated() {
        let mut c = CoreClock::nominal();
        assert!(c.ticks_at(Cycle(5)));
        c.advance(Cycle(5));
        assert!(!c.ticks_at(Cycle(5)), "a tick can only be consumed once");
        assert!(c.ticks_at(Cycle(6)));
        assert_eq!(c.align_wake(Cycle(5)), Cycle(6), "wake respects the gate");
    }
}
