//! The 19 SPEC CPU2006 C/C++ benchmark models (paper Table 3).
//!
//! Each model is calibrated so that its *solo* LLC MPKI (full 2 MB / 8-way
//! cache, as measured by the Table 3 reproduction) lands in the paper's
//! class — High (> 5), Medium (1–5) or Low (< 1) — and so that its LLC
//! *utility curve* has the qualitative shape that drives the paper's
//! partitioning results:
//!
//! * `lbm`, `libquantum`, `milc` — streaming: capacity buys nothing;
//! * `soplex`, `gcc`, `astar`, `bzip2` — large working sets: graded benefit,
//!   `gcc` keeps benefiting up to ~7 ways (Section 4.2);
//! * `sjeng` — a cyclic footprint that thrashes when co-run with `soplex`
//!   (the paper's Group4-3 observation);
//! * `gobmk`, `sjeng`, `perlbench`, `xalan` — large code footprints (L1-I
//!   pressure feeding the LLC);
//! * `mcf` — pointer chasing (serialized misses);
//! * `namd`, `povray`, `gromacs`, `h264ref`, … — small hot sets;
//! * `astar`, `bzip2`, `gcc`, `povray` — phase changes that force frequent
//!   repartitioning (Section 4.1's analysis of Groups 2-4/6/7/12/13).

use crate::model::{BenchmarkModel, Component, Pattern, Phase};

/// The 19 benchmarks of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Benchmark {
    Astar,
    Bzip2,
    Calculix,
    DealII,
    Gcc,
    Gobmk,
    Gromacs,
    H264ref,
    Lbm,
    Libquantum,
    Mcf,
    Milc,
    Namd,
    Omnetpp,
    Perlbench,
    Povray,
    Sjeng,
    Soplex,
    Xalan,
}

impl Benchmark {
    /// All benchmarks in alphabetical order.
    pub const ALL: [Benchmark; 19] = [
        Benchmark::Astar,
        Benchmark::Bzip2,
        Benchmark::Calculix,
        Benchmark::DealII,
        Benchmark::Gcc,
        Benchmark::Gobmk,
        Benchmark::Gromacs,
        Benchmark::H264ref,
        Benchmark::Lbm,
        Benchmark::Libquantum,
        Benchmark::Mcf,
        Benchmark::Milc,
        Benchmark::Namd,
        Benchmark::Omnetpp,
        Benchmark::Perlbench,
        Benchmark::Povray,
        Benchmark::Sjeng,
        Benchmark::Soplex,
        Benchmark::Xalan,
    ];

    /// Display name (as in the paper's tables).
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Astar => "astar",
            Benchmark::Bzip2 => "bzip2",
            Benchmark::Calculix => "calculix",
            Benchmark::DealII => "dealII",
            Benchmark::Gcc => "gcc",
            Benchmark::Gobmk => "gobmk",
            Benchmark::Gromacs => "gromacs",
            Benchmark::H264ref => "h264ref",
            Benchmark::Lbm => "lbm",
            Benchmark::Libquantum => "libquantum",
            Benchmark::Mcf => "mcf",
            Benchmark::Milc => "milc",
            Benchmark::Namd => "namd",
            Benchmark::Omnetpp => "omnetpp",
            Benchmark::Perlbench => "perlbench",
            Benchmark::Povray => "povray",
            Benchmark::Sjeng => "sjeng",
            Benchmark::Soplex => "soplex",
            Benchmark::Xalan => "xalan",
        }
    }

    /// The paper's reported MPKI (Table 3), for reference and comparison.
    pub fn paper_mpki(self) -> f64 {
        match self {
            Benchmark::Gobmk => 9.0,
            Benchmark::Lbm => 20.1,
            Benchmark::Sjeng => 9.5,
            Benchmark::Soplex => 18.0,
            Benchmark::Astar => 4.8,
            Benchmark::Bzip2 => 3.2,
            Benchmark::Calculix => 1.1,
            Benchmark::Gcc => 4.92,
            Benchmark::Libquantum => 3.4,
            Benchmark::Mcf => 4.8,
            Benchmark::DealII => 0.8,
            Benchmark::Gromacs => 0.32,
            Benchmark::H264ref => 0.89,
            Benchmark::Milc => 0.96,
            Benchmark::Namd => 0.25,
            Benchmark::Omnetpp => 0.26,
            Benchmark::Perlbench => 0.98,
            Benchmark::Povray => 0.1,
            Benchmark::Xalan => 0.6,
        }
    }

    /// Builds the generative model for this benchmark.
    pub fn model(self) -> BenchmarkModel {
        let hot = |w: f64| Component {
            region_bytes: 16 << 10,
            pattern: Pattern::RandomWs,
            weight: w,
        };
        let stream = |w: f64| Component {
            region_bytes: 512 << 20,
            pattern: Pattern::Stream { stride: 8 },
            weight: w,
        };
        let stream64 = |w: f64| Component {
            region_bytes: 512 << 20,
            pattern: Pattern::Stream { stride: 64 },
            weight: w,
        };
        let ws = |kb: u64, w: f64| Component {
            region_bytes: kb << 10,
            pattern: Pattern::RandomWs,
            weight: w,
        };
        let chase = |kb: u64, w: f64| Component {
            region_bytes: kb << 10,
            pattern: Pattern::PointerChase,
            weight: w,
        };
        let lop = |kb: u64, w: f64| Component {
            region_bytes: kb << 10,
            pattern: Pattern::Loop,
            weight: w,
        };
        let base = |name, l, s, b, bias, code_kb: u64, comps| BenchmarkModel {
            name,
            load_frac: l,
            store_frac: s,
            branch_frac: b,
            branch_bias: bias,
            code_bytes: code_kb << 10,
            block_len: 10,
            components: comps,
            phases: vec![],
        };
        match self {
            // ---- High MPKI (> 5) -------------------------------------
            Benchmark::Lbm => base(
                "lbm",
                0.30,
                0.15,
                0.08,
                0.985,
                16,
                vec![stream(0.36), hot(0.64)],
            ),
            Benchmark::Soplex => base(
                "soplex",
                0.30,
                0.10,
                0.14,
                0.94,
                64,
                vec![
                    ws(384, 0.05),
                    chase(24576, 0.02),
                    stream64(0.028),
                    stream(0.02),
                    hot(0.882),
                ],
            ),
            Benchmark::Sjeng => {
                let mut m = base(
                    "sjeng",
                    0.24,
                    0.06,
                    0.16,
                    0.88,
                    300,
                    vec![lop(960, 0.10), stream(0.17), hot(0.73)],
                );
                m.block_len = 9;
                m
            }
            Benchmark::Gobmk => {
                let mut m = base(
                    "gobmk",
                    0.25,
                    0.08,
                    0.15,
                    0.86,
                    480,
                    vec![ws(320, 0.05), chase(16384, 0.02), stream(0.10), hot(0.83)],
                );
                m.block_len = 8;
                m
            }
            // ---- Medium MPKI (1 - 5) ---------------------------------
            Benchmark::Astar => {
                let mut m = base(
                    "astar",
                    0.28,
                    0.07,
                    0.16,
                    0.90,
                    48,
                    vec![
                        ws(320, 0.06),
                        chase(896, 0.05),
                        stream64(0.004),
                        stream(0.012),
                        hot(0.874),
                    ],
                );
                m.phases = vec![
                    Phase {
                        instrs: 1_500_000,
                        weight_scale: vec![1.0, 0.05, 1.0, 1.0, 1.0],
                    },
                    Phase {
                        instrs: 1_500_000,
                        weight_scale: vec![0.2, 1.0, 1.0, 1.0, 1.0],
                    },
                ];
                m
            }
            Benchmark::Gcc => {
                let mut m = base(
                    "gcc",
                    0.26,
                    0.09,
                    0.15,
                    0.92,
                    96,
                    vec![
                        ws(224, 0.05),
                        ws(512, 0.04),
                        chase(960, 0.035),
                        stream(0.05),
                        hot(0.825),
                    ],
                );
                m.phases = vec![
                    Phase {
                        instrs: 1_800_000,
                        weight_scale: vec![1.0, 1.0, 1.0, 1.0, 1.0],
                    },
                    Phase {
                        instrs: 1_000_000,
                        weight_scale: vec![1.0, 0.25, 0.25, 1.0, 1.0],
                    },
                ];
                m
            }
            Benchmark::Mcf => base(
                "mcf",
                0.31,
                0.09,
                0.17,
                0.91,
                24,
                vec![chase(3072, 0.013), ws(1024, 0.04), hot(0.947)],
            ),
            Benchmark::Libquantum => base(
                "libquantum",
                0.25,
                0.08,
                0.14,
                0.97,
                16,
                vec![lop(6144, 0.0105), hot(0.9895)],
            ),
            Benchmark::Bzip2 => {
                let mut m = base(
                    "bzip2",
                    0.26,
                    0.09,
                    0.15,
                    0.89,
                    48,
                    vec![ws(256, 0.05), ws(896, 0.06), stream(0.04), hot(0.85)],
                );
                m.phases = vec![
                    Phase {
                        instrs: 1_200_000,
                        weight_scale: vec![1.0, 0.15, 1.0, 1.0],
                    },
                    Phase {
                        instrs: 1_200_000,
                        weight_scale: vec![0.3, 1.0, 1.0, 1.0],
                    },
                ];
                m
            }
            Benchmark::Calculix => base(
                "calculix",
                0.27,
                0.08,
                0.10,
                0.96,
                80,
                vec![ws(320, 0.03), stream(0.022), hot(0.948)],
            ),
            // ---- Low MPKI (< 1) --------------------------------------
            Benchmark::Perlbench => {
                let mut m = base(
                    "perlbench",
                    0.28,
                    0.10,
                    0.15,
                    0.93,
                    160,
                    vec![ws(640, 0.04), stream(0.013), hot(0.947)],
                );
                m.block_len = 9;
                m
            }
            Benchmark::Milc => base(
                "milc",
                0.26,
                0.09,
                0.07,
                0.98,
                24,
                vec![stream(0.022), hot(0.978)],
            ),
            Benchmark::H264ref => base(
                "h264ref",
                0.30,
                0.12,
                0.09,
                0.95,
                96,
                vec![ws(512, 0.04), stream(0.010), hot(0.95)],
            ),
            Benchmark::DealII => base(
                "dealII",
                0.29,
                0.08,
                0.13,
                0.94,
                72,
                vec![ws(640, 0.04), stream(0.010), hot(0.95)],
            ),
            Benchmark::Xalan => {
                let mut m = base(
                    "xalan",
                    0.28,
                    0.08,
                    0.16,
                    0.93,
                    144,
                    vec![ws(576, 0.04), stream(0.008), hot(0.952)],
                );
                m.block_len = 9;
                m
            }
            Benchmark::Gromacs => base(
                "gromacs",
                0.29,
                0.09,
                0.08,
                0.97,
                40,
                vec![ws(96, 0.015), stream(0.007), hot(0.978)],
            ),
            Benchmark::Omnetpp => base(
                "omnetpp",
                0.27,
                0.09,
                0.14,
                0.92,
                96,
                vec![ws(448, 0.03), stream(0.004), hot(0.966)],
            ),
            Benchmark::Namd => base(
                "namd",
                0.30,
                0.08,
                0.06,
                0.985,
                32,
                vec![ws(80, 0.012), stream(0.005), hot(0.983)],
            ),
            Benchmark::Povray => {
                let mut m = base(
                    "povray",
                    0.28,
                    0.08,
                    0.14,
                    0.95,
                    64,
                    vec![ws(112, 0.02), ws(96, 0.015), stream(0.002), hot(0.963)],
                );
                m.phases = vec![
                    Phase {
                        instrs: 1_000_000,
                        weight_scale: vec![1.0, 0.25, 1.0, 1.0],
                    },
                    Phase {
                        instrs: 1_000_000,
                        weight_scale: vec![0.3, 1.0, 1.0, 1.0],
                    },
                ];
                m
            }
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for b in Benchmark::ALL {
            b.model()
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
        }
    }

    #[test]
    fn names_and_display_agree() {
        for b in Benchmark::ALL {
            assert_eq!(b.to_string(), b.name());
            assert_eq!(b.model().name, b.name());
        }
    }

    #[test]
    fn paper_classes_cover_all_three() {
        let high = Benchmark::ALL
            .iter()
            .filter(|b| b.paper_mpki() > 5.0)
            .count();
        let low = Benchmark::ALL
            .iter()
            .filter(|b| b.paper_mpki() < 1.0)
            .count();
        assert_eq!(high, 4, "gobmk, lbm, sjeng, soplex");
        assert_eq!(low, 9);
        assert_eq!(Benchmark::ALL.len() - high - low, 6);
    }

    #[test]
    fn phase_changing_benchmarks_have_phases() {
        // Section 4.1: astar, bzip2, gcc and povray change requirements.
        for b in [
            Benchmark::Astar,
            Benchmark::Bzip2,
            Benchmark::Gcc,
            Benchmark::Povray,
        ] {
            assert!(!b.model().phases.is_empty(), "{b} should be phased");
        }
        assert!(Benchmark::Lbm.model().phases.is_empty());
    }

    #[test]
    fn streaming_benchmarks_have_stream_like_components() {
        for b in [Benchmark::Lbm, Benchmark::Milc] {
            let m = b.model();
            assert!(m
                .components
                .iter()
                .any(|c| matches!(c.pattern, Pattern::Stream { .. })));
        }
        // libquantum sweeps a >cache vector (loop that never fits).
        let lq = Benchmark::Libquantum.model();
        assert!(lq
            .components
            .iter()
            .any(|c| c.pattern == Pattern::Loop && c.region_bytes > 4 << 20));
    }

    #[test]
    fn mcf_chases_pointers() {
        let m = Benchmark::Mcf.model();
        assert!(m
            .components
            .iter()
            .any(|c| c.pattern == Pattern::PointerChase));
    }

    #[test]
    fn code_footprints_differentiate_ifetch_pressure() {
        assert!(Benchmark::Gobmk.model().code_bytes > 256 << 10);
        assert!(Benchmark::Sjeng.model().code_bytes > 256 << 10);
        assert!(Benchmark::Lbm.model().code_bytes <= 32 << 10);
    }
}
