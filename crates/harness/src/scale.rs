//! Reduced-scale presets for the reproduction runs.
//!
//! The paper simulates ≥ 1 billion instructions per application with
//! 5-million-cycle partitioning epochs. That is hours of host time per
//! figure; reproduction presets scale the instruction budget and the epoch
//! length *together* (keeping the decisions-per-run count comparable) while
//! leaving the cache geometry untouched.

/// A simulation scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimScale {
    /// Preset name.
    pub name: &'static str,
    /// Cache/predictor warm-up *instructions* per application before
    /// measurement. The paper warms for 5 M cycles before 1 B measured
    /// instructions; at reduced scale cold misses would dominate small
    /// working sets, so warm-up is instruction-based and proportionally
    /// longer.
    pub warmup_instrs: u64,
    /// Instructions measured per application (paper: 1 B).
    pub instrs_per_app: u64,
    /// Cycles between partitioning decisions (paper: 5 M).
    pub epoch_cycles: u64,
    /// Hard safety cap on simulated cycles per run.
    pub max_cycles: u64,
}

impl SimScale {
    /// Smallest preset: CI smoke invocations of sweep-heavy experiments
    /// (e.g. `repro dvfs_energy --scale quick`). Enough epochs for the
    /// controllers to act, nothing more.
    pub fn quick() -> SimScale {
        SimScale {
            name: "quick",
            warmup_instrs: 120_000,
            instrs_per_app: 300_000,
            epoch_cycles: 80_000,
            max_cycles: 300_000_000,
        }
    }

    /// The examples' preset (~1/2000 of paper).
    ///
    /// Warm-up is proportionally *longer* than the paper's 5 M cycles / 1 B
    /// instructions: at reduced scale cold misses would otherwise dominate
    /// the small working-set benchmarks' MPKI.
    pub fn tiny() -> SimScale {
        SimScale {
            name: "tiny",
            warmup_instrs: 200_000,
            instrs_per_app: 500_000,
            epoch_cycles: 120_000,
            max_cycles: 400_000_000,
        }
    }

    /// Default reproduction preset (~1/100 of the paper's scale).
    pub fn small() -> SimScale {
        SimScale {
            name: "small",
            warmup_instrs: 1_500_000,
            instrs_per_app: 5_000_000,
            epoch_cycles: 500_000,
            max_cycles: 4_000_000_000,
        }
    }

    /// Higher-fidelity preset (~1/25 of the paper's scale).
    pub fn medium() -> SimScale {
        SimScale {
            name: "medium",
            warmup_instrs: 6_000_000,
            instrs_per_app: 25_000_000,
            epoch_cycles: 1_250_000,
            max_cycles: 16_000_000_000,
        }
    }

    /// The paper's own scale (hours of host time; provided for completeness).
    pub fn paper() -> SimScale {
        SimScale {
            name: "paper",
            warmup_instrs: 10_000_000,
            instrs_per_app: 1_000_000_000,
            epoch_cycles: 5_000_000,
            max_cycles: u64::MAX / 4,
        }
    }

    /// The preset names [`SimScale::by_name`] knows, smallest first.
    pub const NAMES: [&'static str; 5] = ["quick", "tiny", "small", "medium", "paper"];

    /// Parses a preset by name.
    pub fn by_name(name: &str) -> Option<SimScale> {
        match name {
            "quick" => Some(SimScale::quick()),
            "tiny" => Some(SimScale::tiny()),
            "small" => Some(SimScale::small()),
            "medium" => Some(SimScale::medium()),
            "paper" => Some(SimScale::paper()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_scale_up_monotonically() {
        let t = SimScale::tiny();
        let s = SimScale::small();
        let m = SimScale::medium();
        let p = SimScale::paper();
        assert!(t.instrs_per_app < s.instrs_per_app);
        assert!(s.instrs_per_app < m.instrs_per_app);
        assert!(m.instrs_per_app < p.instrs_per_app);
        assert_eq!(p.epoch_cycles, 5_000_000, "paper's Table 2 epoch");
        assert_eq!(p.instrs_per_app, 1_000_000_000);
    }

    #[test]
    fn quick_is_the_smallest_preset() {
        let q = SimScale::quick();
        let t = SimScale::tiny();
        assert!(q.instrs_per_app < t.instrs_per_app);
        assert!(q.instrs_per_app / q.epoch_cycles >= 3, "several decisions");
    }

    #[test]
    fn by_name_roundtrip() {
        for s in [
            SimScale::quick(),
            SimScale::tiny(),
            SimScale::small(),
            SimScale::medium(),
            SimScale::paper(),
        ] {
            assert_eq!(SimScale::by_name(s.name), Some(s));
        }
        assert_eq!(SimScale::by_name("bogus"), None);
        for name in SimScale::NAMES {
            assert_eq!(SimScale::by_name(name).map(|s| s.name), Some(name));
        }
    }

    #[test]
    fn epochs_fit_many_times_into_a_run() {
        for s in [SimScale::tiny(), SimScale::small(), SimScale::medium()] {
            // With IPC near 1 there should be several decisions per run.
            assert!(s.instrs_per_app / s.epoch_cycles >= 3);
        }
    }
}
