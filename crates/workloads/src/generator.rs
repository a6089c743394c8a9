//! Turns a [`BenchmarkModel`] into an infinite deterministic instruction
//! stream.
//!
//! Everything a draw needs that does not change per instruction is
//! precomputed: the kind cuts, the branch outcome's cut, each phase's
//! component cuts, and each component's address draw (a cursor for streams
//! and loops, a [`UniformBelow`] for uniform regions). The per-instruction
//! path then consumes exactly the random numbers it always did, in the same
//! order, and decides exactly as the float code did, so streams stay
//! bit-identical (`tests/stream_digest.rs` pins them).
//!
//! Kind, branch outcome and component are integer compares on the 53-bit
//! draw `k` behind `unit()`. Each float decision they replace (`u < cut`
//! for the kind, `u < p` for the outcome, the weighted subtract walk for
//! the component) is monotone in `u = k·2⁻⁵³`, which is exact, so it steps
//! from one outcome to the next at fixed values of `k`. The cuts are those
//! values, computed once from the same float sums (see [`simkit::rng`]).
//! The one float function on the per-instruction path, the jump target's
//! `u^6`, takes an exact fast path (`skewed_slot`) instead of libm's `pow`.

use cpusim::{Instr, InstrSource};
use simkit::rng::unit_cut;
use simkit::{Bernoulli, DetRng, UniformBelow, WeightedIndex};

use crate::model::{BenchmarkModel, Pattern};

/// Power-law skew of basic-block jump targets within the code footprint
/// (the exponent [`skewed_slot`]'s multiplies hard-wire).
const CODE_SKEW: f64 = 6.0;

/// Relative distance from an integer within which [`skewed_slot`] defers
/// to `powf`: three orders of magnitude above the multiplies' error.
const NEAR_INTEGER: f64 = 1e-12;

/// 2⁵²: adding and then subtracting it rounds a float in `[0, 2⁵²)` to the
/// nearest integer, with no libm call (baseline x86-64 has no rounding
/// instruction, so `f64::round` is one).
const ROUNDER: f64 = (1u64 << 52) as f64;

/// The jump-target slot `⌊slots · u⁶⌋`, always equal to
/// `(slots * u.powf(6.0)) as u64`.
///
/// `u⁶` from three multiplies is within a few ULP (about 1e-15 relative)
/// of libm's `powf`, so the two products can floor to different integers
/// only when they straddle one, i.e. lie within about 1e-15 relative of
/// it. Products that close to an integer take the `powf` path; all others
/// floor the multiplied product. Underflow for tiny `u` leaves both
/// products below one.
///
/// The nearest integer is `(x + 2⁵²) − 2⁵²`, exact for `0 ≤ x < 2⁵²`. It
/// breaks ties to even where `round` breaks them away from zero, but a tie
/// is 0.5 away either way. Above 2⁵² every float is an integer, and any
/// rounding of the sum stays far inside the `NEAR_INTEGER` band, which only
/// sends such an `x` to `powf`.
#[inline]
fn skewed_slot(slots: f64, u: f64) -> u64 {
    let u3 = u * u * u;
    let x = slots * (u3 * u3);
    if (x - ((x + ROUNDER) - ROUNDER)).abs() <= NEAR_INTEGER * x {
        (slots * u.powf(CODE_SKEW)) as u64
    } else {
        x as u64
    }
}

/// One component's address draw, as a byte offset within its region.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// `cursor` walks by `step` (less than `span`) and wraps at `span`: the
    /// offset `(n * step) % span` of the `n`-th reference, one add and one
    /// compare at a time. A stream steps by its stride over the region; a
    /// loop steps by a line over the region's whole lines.
    Walk { cursor: u64, step: u64, span: u64 },
    /// A uniform line of the region; `dep` marks pointer chasing.
    Uniform { lines: UniformBelow, dep: bool },
    /// Line `⌊lines · u^theta⌋`, clamped to `last`.
    Skewed { lines: f64, theta: f64, last: u64 },
}

impl Draw {
    fn new(pattern: Pattern, region: u64) -> Draw {
        let lines = region / 64;
        match pattern {
            Pattern::Stream { stride } => Draw::Walk {
                cursor: 0,
                step: stride % region,
                span: region,
            },
            Pattern::Loop => Draw::Walk {
                cursor: 0,
                step: 64 % (lines * 64),
                span: lines * 64,
            },
            Pattern::RandomWs => Draw::Uniform {
                lines: UniformBelow::new(lines),
                dep: false,
            },
            Pattern::PointerChase => Draw::Uniform {
                lines: UniformBelow::new(lines),
                dep: true,
            },
            Pattern::SkewedWs { theta } => Draw::Skewed {
                lines: lines as f64,
                theta,
                last: lines - 1,
            },
        }
    }

    /// The next offset and whether it depends on the previous load.
    #[inline]
    fn next(&mut self, rng: &mut DetRng) -> (u64, bool) {
        match self {
            Draw::Walk { cursor, step, span } => {
                let off = *cursor;
                *cursor += *step;
                if *cursor >= *span {
                    *cursor -= *span;
                }
                (off, false)
            }
            Draw::Uniform { lines, dep } => (lines.sample(rng) * 64, *dep),
            Draw::Skewed { lines, theta, last } => {
                let line = (*lines * rng.unit().powf(*theta)) as u64;
                (line.min(*last) * 64, false)
            }
        }
    }
}

/// A component's base address and its draw.
#[derive(Debug, Clone, Copy)]
struct ComponentDraw {
    base: u64,
    draw: Draw,
}

/// Deterministic instruction generator for one benchmark instance.
///
/// Two instances built with the same model and seed produce identical
/// streams; different seeds (e.g. per core) decorrelate the random
/// components while keeping every run reproducible.
pub struct SyntheticSource {
    model: BenchmarkModel,
    rng: DetRng,
    components: Vec<ComponentDraw>,
    /// Component draw of each phase (none for a stationary model).
    phase_weights: Vec<WeightedIndex>,
    /// The current phase's component draw, a copy of its `phase_weights`
    /// entry kept inline: phases change rarely, components are drawn often.
    weights: WeightedIndex,
    /// Kind cuts on a 53-bit draw: load below the first, store below the
    /// second, branch below the third, ALU otherwise.
    kind_cuts: [u64; 3],
    /// A branch's taken draw.
    taken: Bernoulli,
    /// `code_bytes / 4` as a float, the jump-target scale.
    code_slots: f64,
    phase_idx: usize,
    phase_left: u64,
    instrs_emitted: u64,
    pc_offset: u64,
    block_left: u64,
}

impl std::fmt::Debug for SyntheticSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyntheticSource")
            .field("benchmark", &self.model.name)
            .field("instrs_emitted", &self.instrs_emitted)
            .finish()
    }
}

impl SyntheticSource {
    /// Creates a generator for `model`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the model fails [`BenchmarkModel::validate`].
    pub fn new(model: BenchmarkModel, seed: u64) -> SyntheticSource {
        model
            .validate()
            .unwrap_or_else(|e| panic!("invalid model: {e}"));
        let rng = DetRng::derive(seed, model.name);
        // Separate components by 1 GiB so regions never overlap.
        let components = model
            .components
            .iter()
            .enumerate()
            .map(|(i, c)| ComponentDraw {
                base: (i as u64) << 30,
                draw: Draw::new(c.pattern, c.region_bytes),
            })
            .collect();
        let base: Vec<f64> = model.components.iter().map(|c| c.weight).collect();
        let phase_weights: Vec<WeightedIndex> = model
            .phases
            .iter()
            .map(|p| {
                let scaled: Vec<f64> = base
                    .iter()
                    .zip(&p.weight_scale)
                    .map(|(w, s)| w * s)
                    .collect();
                // Guard against a phase that zeroes every component.
                if scaled.iter().sum::<f64>() <= 0.0 {
                    WeightedIndex::new(&base)
                } else {
                    WeightedIndex::new(&scaled)
                }
            })
            .collect();
        let weights = match phase_weights.first() {
            Some(first) => first.clone(),
            None => WeightedIndex::new(&base),
        };
        let load = model.load_frac;
        let store = load + model.store_frac;
        SyntheticSource {
            components,
            weights,
            phase_weights,
            kind_cuts: [load, store, store + model.branch_frac].map(unit_cut),
            taken: Bernoulli::new(model.branch_bias),
            code_slots: (model.code_bytes / 4) as f64,
            phase_idx: 0,
            phase_left: model.phases.first().map_or(u64::MAX, |p| p.instrs),
            instrs_emitted: 0,
            pc_offset: 0,
            block_left: model.block_len,
            model,
            rng,
        }
    }

    /// The benchmark name this generator models.
    pub fn name(&self) -> &'static str {
        self.model.name
    }

    /// Instructions generated so far.
    pub fn emitted(&self) -> u64 {
        self.instrs_emitted
    }

    /// Counts one instruction against the current phase and moves to the
    /// next phase when it runs out. A stationary model's count starts at
    /// `u64::MAX` and has no phase to move to.
    #[inline]
    fn advance_phase(&mut self) {
        self.phase_left = self.phase_left.saturating_sub(1);
        if self.phase_left == 0 && !self.phase_weights.is_empty() {
            self.next_phase();
        }
    }

    /// Enters the next phase, kept out of the per-instruction path.
    #[cold]
    fn next_phase(&mut self) {
        self.phase_idx = (self.phase_idx + 1) % self.phase_weights.len();
        self.phase_left = self.model.phases[self.phase_idx].instrs;
        self.weights = self.phase_weights[self.phase_idx].clone();
    }

    fn next_pc(&mut self) -> u64 {
        if self.block_left == 0 {
            self.block_left = self.model.block_len;
            // Jump to a skewed location in the code footprint: real programs
            // spend most time in hot inner loops, so jump targets follow the
            // same power-law shape as skewed data (hot head, long tail).
            // Uniform targets would make every large-code benchmark flood
            // the L1-I pathologically.
            self.pc_offset = skewed_slot(self.code_slots, self.rng.unit()) * 4;
        } else {
            self.block_left -= 1;
            let next = self.pc_offset + 4;
            self.pc_offset = if next >= self.model.code_bytes {
                next % self.model.code_bytes
            } else {
                next
            };
        }
        self.pc_offset
    }

    fn gen_mem(&mut self) -> (u64, bool) {
        let idx = self.weights.sample(&mut self.rng);
        let c = &mut self.components[idx];
        let (off, dep) = c.draw.next(&mut self.rng);
        (c.base + off, dep)
    }
}

impl InstrSource for SyntheticSource {
    #[inline]
    fn next_instr(&mut self) -> Instr {
        self.instrs_emitted += 1;
        let pc = self.next_pc();
        let k = self.rng.unit53();
        let [load, store, branch] = self.kind_cuts;
        let instr = if k < load {
            let (addr, dep) = self.gen_mem();
            Instr::load(pc, addr).with_dep_prev_load(dep)
        } else if k < store {
            let (addr, _) = self.gen_mem();
            Instr::store(pc, addr)
        } else if k < branch {
            let taken = self.taken.sample(&mut self.rng);
            Instr::branch(pc, taken)
        } else {
            Instr::alu(pc)
        };
        // The instruction was generated under the current phase's weights;
        // the phase counter advances afterwards.
        self.advance_phase();
        instr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Component, Phase};
    use std::collections::BTreeSet;

    fn model() -> BenchmarkModel {
        BenchmarkModel {
            name: "gen-test",
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.1,
            branch_bias: 0.9,
            code_bytes: 8 << 10,
            block_len: 8,
            components: vec![
                Component {
                    region_bytes: 1 << 20,
                    pattern: Pattern::RandomWs,
                    weight: 1.0,
                },
                Component {
                    region_bytes: 64 << 20,
                    pattern: Pattern::Stream { stride: 8 },
                    weight: 1.0,
                },
            ],
            phases: vec![],
        }
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = SyntheticSource::new(model(), 7);
        let mut b = SyntheticSource::new(model(), 7);
        for _ in 0..1000 {
            assert_eq!(a.next_instr(), b.next_instr());
        }
        assert_eq!(a.emitted(), 1000);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SyntheticSource::new(model(), 1);
        let mut b = SyntheticSource::new(model(), 2);
        let same = (0..100)
            .filter(|_| a.next_instr() == b.next_instr())
            .count();
        assert!(same < 100);
    }

    #[test]
    fn instruction_mix_matches_fractions() {
        let mut s = SyntheticSource::new(model(), 3);
        let n = 100_000;
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        for _ in 0..n {
            match s.next_instr().kind() {
                cpusim::InstrKind::Load => loads += 1,
                cpusim::InstrKind::Store => stores += 1,
                cpusim::InstrKind::Branch => branches += 1,
                cpusim::InstrKind::Alu => {}
            }
        }
        let f = |c: i32| c as f64 / n as f64;
        assert!((f(loads) - 0.3).abs() < 0.02);
        assert!((f(stores) - 0.1).abs() < 0.01);
        assert!((f(branches) - 0.1).abs() < 0.01);
    }

    #[test]
    fn stream_component_advances_lines() {
        let mut m = model();
        m.components.truncate(1);
        m.components[0] = Component {
            region_bytes: 1 << 30,
            pattern: Pattern::Stream { stride: 64 },
            weight: 1.0,
        };
        m.load_frac = 1.0;
        m.store_frac = 0.0;
        m.branch_frac = 0.0;
        let mut s = SyntheticSource::new(m, 4);
        let mut lines = BTreeSet::new();
        for _ in 0..1000 {
            lines.insert(s.next_instr().addr() / 64);
        }
        assert_eq!(lines.len(), 1000, "every access is a fresh line");
    }

    #[test]
    fn loop_component_cycles() {
        let mut m = model();
        m.components.truncate(1);
        m.components[0] = Component {
            region_bytes: 64 * 10, // 10 lines
            pattern: Pattern::Loop,
            weight: 1.0,
        };
        m.load_frac = 1.0;
        m.store_frac = 0.0;
        m.branch_frac = 0.0;
        let mut s = SyntheticSource::new(m, 5);
        let mut lines = BTreeSet::new();
        for _ in 0..100 {
            lines.insert(s.next_instr().addr() / 64);
        }
        assert_eq!(lines.len(), 10, "loop revisits its footprint");
    }

    #[test]
    fn pointer_chase_sets_dependence() {
        let mut m = model();
        m.components.truncate(1);
        m.components[0] = Component {
            region_bytes: 1 << 20,
            pattern: Pattern::PointerChase,
            weight: 1.0,
        };
        m.load_frac = 1.0;
        m.store_frac = 0.0;
        m.branch_frac = 0.0;
        let mut s = SyntheticSource::new(m, 6);
        for _ in 0..50 {
            let i = s.next_instr();
            assert!(i.dep_prev_load());
        }
    }

    #[test]
    fn phases_shift_component_mix() {
        let mut m = model();
        m.load_frac = 1.0;
        m.store_frac = 0.0;
        m.branch_frac = 0.0;
        m.phases = vec![
            Phase {
                instrs: 1000,
                weight_scale: vec![1.0, 0.0], // only RandomWs
            },
            Phase {
                instrs: 1000,
                weight_scale: vec![0.0, 1.0], // only Stream
            },
        ];
        let mut s = SyntheticSource::new(m, 7);
        // Phase 1: all addresses within the 1 MB region (plus base 0).
        for _ in 0..1000 {
            let i = s.next_instr();
            assert!(i.addr() < (1 << 20), "phase 1 stays in component 0");
        }
        // Phase 2: addresses in component 1's base range.
        let mut saw_stream = false;
        for _ in 0..1000 {
            let i = s.next_instr();
            if i.addr() >= (1 << 30) {
                saw_stream = true;
            }
        }
        assert!(saw_stream, "phase 2 uses the stream component");
    }

    /// What the generator computed before the fast path.
    fn powf_slot(slots: f64, u: f64) -> u64 {
        (slots * u.powf(6.0)) as u64
    }

    /// Every registered model's jump-target scale.
    fn all_slots() -> Vec<f64> {
        crate::Benchmark::ALL
            .iter()
            .map(|b| (b.model().code_bytes / 4) as f64)
            .collect()
    }

    #[test]
    fn skew_fast_path_matches_powf_at_the_edges() {
        let edges = [
            0.0,
            f64::from_bits(1), // the smallest positive f64
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0, // the largest f64 below 1
        ];
        for slots in all_slots() {
            for u in edges {
                assert_eq!(skewed_slot(slots, u), powf_slot(slots, u), "{slots} {u:e}");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn skew_fast_path_matches_powf(u in 0.0f64..1.0) {
            for slots in all_slots() {
                proptest::prop_assert_eq!(skewed_slot(slots, u), powf_slot(slots, u), "{} {:e}", slots, u);
            }
        }

        /// `u` aimed at `slots·u⁶ == k` for an integer `k`, then swept
        /// ULP by ULP across it, so the product crosses the integer: about
        /// one sweep in eight has `powf` and the multiplies floor apart
        /// there, which only the `powf` fallback keeps equal.
        #[test]
        fn skew_fast_path_matches_powf_near_integers(k_frac in 0.0f64..1.0) {
            for slots in all_slots() {
                let k = (k_frac * slots).floor().max(1.0);
                let aim = (k / slots).powf(1.0 / 6.0);
                for ulps in 0..64 {
                    let u = f64::from_bits(aim.to_bits() + ulps - 32);
                    proptest::prop_assert_eq!(skewed_slot(slots, u), powf_slot(slots, u), "{} {:e}", slots, u);
                }
            }
        }
    }

    #[test]
    fn pcs_stay_within_code_footprint() {
        let mut s = SyntheticSource::new(model(), 8);
        for _ in 0..10_000 {
            assert!(s.next_instr().pc() < 8 << 10);
        }
    }
}
