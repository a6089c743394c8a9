//! Differential property tests: the event-driven wake-list stepper must be
//! *bit-identical* to the per-cycle reference stepper.
//!
//! Each case builds two identical systems — same cores, same instruction
//! streams, same (order-sensitive) LLC double — and drives one with
//! [`StepperKind::Reference`] and one with [`StepperKind::EventDriven`],
//! then compares the complete observable state: retired counts, per-core
//! stats (minus the per-*attempt* `rob_stalls`/`lsq_stalls` samplers the
//! wake-list contract explicitly excludes), L1 and branch-predictor stats,
//! the full LLC access and writeback sequences, the finish cycles, the
//! epoch-callback cycles and the final simulation time. Covered axes:
//! 1/2/4/8 cores, five synthetic stream flavours, `.ctrace` replay via
//! [`TraceSource`], nominal clocks, per-epoch DVFS dilation and per-epoch
//! prefetch-degree rotation (the full CBP throttle range).
//!
//! The suite also pins the two halves of the contract the equivalence
//! rests on: the [`cpusim::StepOutcome`] wake-list guarantees (progress or
//! a strictly-future, *stable* wake whose gap cycles are observable
//! no-ops) and the epoch grid (`next_epoch += epoch_cycles` anchoring
//! fires every boundary exactly on the grid however far wakes jump).

use std::sync::Arc;

use cpusim::{
    Core, CoreConfig, EpochControl, Instr, InstrSource, LlcPort, StepperKind, SystemStepper,
    TraceSource,
};
use proptest::prelude::*;
use simkit::types::{CoreId, Cycle, LineAddr};

/// DVFS dilation ratios rotated through by the epoch callback (all from
/// the paper's 45 nm V/f table shape: nominal down to 0.6×).
const RATIOS: [f64; 4] = [1.0, 1.25, 1.6, 2.0];

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Deterministic synthetic instruction stream, parameterized by flavour:
/// 0 ALU-only, 1 streaming loads (MLP), 2 pointer chasing (stall-heavy),
/// 3 branchy, 4 mixed.
struct SynthSource {
    state: u64,
    i: u64,
    flavor: u8,
}

impl SynthSource {
    fn new(seed: u64, core: usize, flavor: u8) -> SynthSource {
        SynthSource {
            state: (seed ^ ((core as u64 + 1) << 32)) | 1,
            i: 0,
            flavor: flavor % 5,
        }
    }
}

impl InstrSource for SynthSource {
    fn next_instr(&mut self) -> Instr {
        self.i += 1;
        let r = xorshift(&mut self.state);
        match self.flavor {
            0 => Instr::alu((r % 512) & !3),
            1 => Instr::load(64, self.i * 64),
            2 => Instr::load(64, self.i * 4096).with_dep_prev_load(true),
            3 => {
                if self.i.is_multiple_of(3) {
                    Instr::branch(128 + (r % 8) * 4, r & 1 == 0)
                } else {
                    Instr::alu(64)
                }
            }
            _ => match r % 8 {
                0..=2 => Instr::alu((r >> 3) % 1024),
                3 | 4 => Instr::load((r >> 3) % 4096, (r >> 10) % (1 << 20)),
                5 => Instr::store((r >> 3) % 4096, (r >> 10) % (1 << 18)),
                6 => Instr::branch((r >> 3) % 2048, r & 1 == 0),
                _ => Instr::load(64, (r >> 10) % (1 << 16)).with_dep_prev_load(r & 2 == 0),
            },
        }
    }
}

/// Order-sensitive LLC double: a shared bank-busy cursor makes every fill
/// latency depend on the *sequence* of prior accesses, so any divergence
/// in access order between the two steppers cascades into different
/// latencies and fails loudly instead of washing out.
#[derive(Default)]
struct RecordingLlc {
    busy: Cycle,
    log: Vec<(u64, u8, u64, bool)>,
    wb: Vec<(u64, u8, u64)>,
    pf: Vec<(u64, u8, u64)>,
}

impl LlcPort for RecordingLlc {
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle {
        self.log.push((now.raw(), core.0, line.raw(), write));
        self.busy = self.busy.max(now) + 3;
        self.busy + 57 + (line.raw() % 5) * 31
    }

    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr) {
        self.wb.push((now.raw(), core.0, line.raw()));
    }

    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        // Logged separately from demand traffic so a stepper that reorders
        // prefetch issue against demand issue fails loudly; the latency
        // shares the demand path's order-sensitive bank cursor.
        self.pf.push((now.raw(), core.0, line.raw()));
        self.busy = self.busy.max(now) + 3;
        self.busy + 57 + (line.raw() % 5) * 31
    }
}

/// Everything observable after a run.
#[derive(Debug, PartialEq)]
struct Snapshot {
    retired: Vec<u64>,
    loads: Vec<u64>,
    stores: Vec<u64>,
    redirect_cycles: Vec<u64>,
    l1d: Vec<(u64, u64, u64, u64)>,
    l1i: Vec<(u64, u64, u64, u64)>,
    branches: Vec<(u64, u64)>,
    finish: Vec<Option<u64>>,
    epochs: Vec<u64>,
    end: u64,
    prefetch: Vec<(u64, u64, u64, u64)>,
    llc_log: Vec<(u64, u8, u64, bool)>,
    llc_wb: Vec<(u64, u8, u64)>,
    llc_pf: Vec<(u64, u8, u64)>,
}

const EPOCH: u64 = 7_500;
const TARGET: u64 = 2_000;
const MAX: Cycle = Cycle(150_000);

fn run_snapshot(
    kind: StepperKind,
    n: usize,
    mk: &dyn Fn(usize) -> Box<dyn InstrSource + Send>,
    dvfs: bool,
    prefetch: bool,
) -> Snapshot {
    let mut cores: Vec<Core> = (0..n)
        .map(|i| {
            let mut c = Core::new(CoreId(i as u8), CoreConfig::default(), mk(i));
            if prefetch {
                c.set_prefetch_degree((i % (cpusim::prefetch::MAX_DEGREE + 1)) as u8);
            }
            c
        })
        .collect();
    let mut llc = RecordingLlc::default();
    let mut stepper = SystemStepper::new(kind, EPOCH);
    let targets = vec![TARGET; n];
    let mut epochs: Vec<u64> = Vec::new();
    let finish = stepper.run(&mut cores, &mut llc, &targets, MAX, |now, cores, _| {
        epochs.push(now.raw());
        let k = epochs.len();
        if dvfs {
            for (i, c) in cores.iter_mut().enumerate() {
                c.set_clock_ratio(now, RATIOS[(i + k) % RATIOS.len()]);
            }
        }
        if prefetch {
            // Rotate through the full degree range, like an epoch policy
            // re-deciding `prefetch_slots` every epoch.
            for (i, c) in cores.iter_mut().enumerate() {
                c.set_prefetch_degree(((i + k) % (cpusim::prefetch::MAX_DEGREE + 1)) as u8);
            }
        }
        EpochControl::Continue
    });
    let stats = |c: &memsim::CacheStats| {
        (
            c.read_accesses.get(),
            c.write_accesses.get(),
            c.misses.get(),
            c.writebacks.get(),
        )
    };
    Snapshot {
        retired: cores.iter().map(|c| c.retired()).collect(),
        loads: cores.iter().map(|c| c.stats().loads.get()).collect(),
        stores: cores.iter().map(|c| c.stats().stores.get()).collect(),
        redirect_cycles: cores
            .iter()
            .map(|c| c.stats().redirect_cycles.get())
            .collect(),
        l1d: cores.iter().map(|c| stats(c.l1d_stats())).collect(),
        l1i: cores.iter().map(|c| stats(c.l1i_stats())).collect(),
        branches: cores
            .iter()
            .map(|c| {
                (
                    c.branch_stats().branches.get(),
                    c.branch_stats().mispredictions.get(),
                )
            })
            .collect(),
        finish: finish.iter().map(|f| f.map(Cycle::raw)).collect(),
        epochs,
        end: stepper.now().raw(),
        prefetch: cores
            .iter()
            .map(|c| {
                (
                    c.stats().prefetches.get(),
                    c.stats().prefetch_useful.get(),
                    c.stats().prefetch_late.get(),
                    c.stats().prefetch_dropped.get(),
                )
            })
            .collect(),
        llc_log: llc.log,
        llc_wb: llc.wb,
        llc_pf: llc.pf,
    }
}

/// First field-level divergence, for a readable failure instead of two
/// multi-thousand-entry debug dumps.
fn first_diff(a: &Snapshot, b: &Snapshot) -> String {
    macro_rules! check {
        ($f:ident) => {
            if a.$f != b.$f {
                return format!(
                    "{}: reference {:?} vs event-driven {:?}",
                    stringify!($f),
                    a.$f,
                    b.$f
                );
            }
        };
    }
    check!(retired);
    check!(loads);
    check!(stores);
    check!(redirect_cycles);
    check!(l1d);
    check!(l1i);
    check!(branches);
    check!(finish);
    check!(epochs);
    check!(end);
    check!(prefetch);
    for (seq, aa, bb) in [
        ("llc access", a.llc_log.len(), b.llc_log.len()),
        ("llc writeback", a.llc_wb.len(), b.llc_wb.len()),
        ("llc prefetch", a.llc_pf.len(), b.llc_pf.len()),
    ] {
        if aa != bb {
            return format!("{seq} count: {aa} vs {bb}");
        }
    }
    if let Some(i) = (0..a.llc_log.len()).find(|&i| a.llc_log[i] != b.llc_log[i]) {
        return format!("llc access {i}: {:?} vs {:?}", a.llc_log[i], b.llc_log[i]);
    }
    if let Some(i) = (0..a.llc_wb.len()).find(|&i| a.llc_wb[i] != b.llc_wb[i]) {
        return format!("llc writeback {i}: {:?} vs {:?}", a.llc_wb[i], b.llc_wb[i]);
    }
    if let Some(i) = (0..a.llc_pf.len()).find(|&i| a.llc_pf[i] != b.llc_pf[i]) {
        return format!("llc prefetch {i}: {:?} vs {:?}", a.llc_pf[i], b.llc_pf[i]);
    }
    "identical".into()
}

const CORE_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A random but deterministic mixed-flavour trace for [`TraceSource`].
fn gen_trace(seed: u64, len: usize) -> Vec<Instr> {
    let mut s = SynthSource::new(seed, 0, 4);
    (0..len).map(|_| s.next_instr()).collect()
}

proptest! {
    #[test]
    fn event_driven_matches_reference_synthetic(
        seed in any::<u64>(),
        sel in 0usize..4,
        flavor in 0u8..5,
    ) {
        let n = CORE_COUNTS[sel];
        let mk = |i: usize| -> Box<dyn InstrSource + Send> {
            Box::new(SynthSource::new(seed, i, flavor))
        };
        let a = run_snapshot(StepperKind::Reference, n, &mk, false, false);
        let b = run_snapshot(StepperKind::EventDriven, n, &mk, false, false);
        prop_assert!(
            a == b,
            "n={n} flavor={flavor}: {}", first_diff(&a, &b)
        );
    }

    #[test]
    fn event_driven_matches_reference_under_dvfs(
        seed in any::<u64>(),
        sel in 0usize..4,
        flavor in 0u8..5,
    ) {
        let n = CORE_COUNTS[sel];
        let mk = |i: usize| -> Box<dyn InstrSource + Send> {
            Box::new(SynthSource::new(seed, i, flavor))
        };
        let a = run_snapshot(StepperKind::Reference, n, &mk, true, false);
        let b = run_snapshot(StepperKind::EventDriven, n, &mk, true, false);
        prop_assert!(
            a == b,
            "n={n} flavor={flavor} dvfs: {}", first_diff(&a, &b)
        );
    }

    /// Prefetcher determinism under the seeded RNG: with per-epoch degree
    /// rotation (0..=MAX_DEGREE) the two steppers agree bit for bit on
    /// retired counts, every prefetch counter, and the interleaved
    /// demand/prefetch/writeback sequences at the LLC.
    #[test]
    fn event_driven_matches_reference_with_prefetching(
        seed in any::<u64>(),
        sel in 0usize..4,
        flavor in 0u8..5,
        dvfs in any::<bool>(),
    ) {
        let n = CORE_COUNTS[sel];
        let mk = |i: usize| -> Box<dyn InstrSource + Send> {
            Box::new(SynthSource::new(seed, i, flavor))
        };
        let a = run_snapshot(StepperKind::Reference, n, &mk, dvfs, true);
        let b = run_snapshot(StepperKind::EventDriven, n, &mk, dvfs, true);
        prop_assert!(
            a == b,
            "n={n} flavor={flavor} dvfs={dvfs} prefetch: {}", first_diff(&a, &b)
        );
    }

    #[test]
    fn event_driven_matches_reference_on_trace_replay(
        seed in any::<u64>(),
        sel in 0usize..4,
        len in 16usize..200,
    ) {
        let n = CORE_COUNTS[sel];
        let mk = |i: usize| -> Box<dyn InstrSource + Send> {
            let trace = gen_trace(seed ^ ((i as u64 + 1) << 40), len).into_iter().collect();
            Box::new(TraceSource::new(Arc::new(trace)).expect("non-empty trace"))
        };
        let a = run_snapshot(StepperKind::Reference, n, &mk, true, true);
        let b = run_snapshot(StepperKind::EventDriven, n, &mk, true, true);
        prop_assert!(
            a == b,
            "n={n} len={len} trace: {}", first_diff(&a, &b)
        );
    }

    /// The [`cpusim::StepOutcome`] wake-list contract, stepped directly:
    /// every outcome's wake is strictly in the future; after a
    /// non-progressing step, *every* cycle before the advertised wake is
    /// an observable no-op that re-advertises the same wake (stability).
    #[test]
    fn step_contract_progress_or_stable_future_wake(
        seed in any::<u64>(),
        flavor in 0u8..5,
        ratio_sel in 0usize..4,
    ) {
        let mut core = Core::new(
            CoreId(0),
            CoreConfig::default(),
            Box::new(SynthSource::new(seed, 0, flavor)) as Box<dyn InstrSource + Send>,
        );
        core.set_clock_ratio(Cycle::ZERO, RATIOS[ratio_sel]);
        let mut llc = RecordingLlc::default();
        let mut now = Cycle::ZERO;
        for _ in 0..800 {
            if now >= Cycle(100_000) {
                break;
            }
            let out = core.step(now, &mut llc);
            prop_assert!(
                out.next_event > now,
                "seed={seed:#x} flavor={flavor} ratio={}: wake {:?} not strictly after {now:?}",
                RATIOS[ratio_sel], out.next_event
            );
            prop_assert_eq!(
                core.wake_hint(now), out.next_event,
                "wake_hint must reproduce the advertised wake at {:?}", now
            );
            if !out.progressed {
                let retired = core.retired();
                let accesses = llc.log.len();
                let mut t = now + 1;
                while t < out.next_event {
                    let mid = core.step(t, &mut llc);
                    prop_assert!(
                        !mid.progressed,
                        "progress at {t:?} inside advertised gap ({now:?}, {:?})",
                        out.next_event
                    );
                    prop_assert_eq!(
                        mid.next_event, out.next_event,
                        "seed={:#x} flavor={} ratio={}: unstable wake at {:?} (stepped at {:?})",
                        seed, flavor, RATIOS[ratio_sel], t, now
                    );
                    t += 1;
                }
                prop_assert_eq!(core.retired(), retired, "gap steps retired instructions");
                prop_assert_eq!(llc.log.len(), accesses, "gap steps reached the LLC");
            }
            now = out.next_event;
        }
    }
}

/// Satellite pin for the epoch-anchor fix: a stall-heavy pointer-chasing
/// run whose wakes jump hundreds of cycles past every boundary must still
/// fire its epoch callback at *exactly* `k * epoch_cycles` for every k —
/// `next_epoch += epoch_cycles` never drifts off the grid, and the count
/// is the floor of elapsed time over the epoch length.
#[test]
fn epoch_grid_is_exact_for_stall_heavy_runs() {
    let mut cores = vec![Core::new(
        CoreId(0),
        CoreConfig::default(),
        Box::new(SynthSource::new(0xC0FFEE, 0, 2)) as Box<dyn InstrSource + Send>,
    )];
    let mut llc = RecordingLlc::default();
    let mut stepper = SystemStepper::new(StepperKind::EventDriven, 5_000);
    let mut fired: Vec<u64> = Vec::new();
    stepper.run(
        &mut cores,
        &mut llc,
        &[1_500],
        Cycle(400_000),
        |now, _, _| {
            fired.push(now.raw());
            EpochControl::Continue
        },
    );
    let end = stepper.now().raw();
    assert!(
        fired.len() >= 10,
        "stall-heavy run should span many epochs, fired {} (end {end})",
        fired.len()
    );
    for (k, &cycle) in fired.iter().enumerate() {
        assert_eq!(
            cycle,
            (k as u64 + 1) * 5_000,
            "epoch {k} fired off the 5000-cycle grid"
        );
    }
    assert_eq!(
        fired.len() as u64,
        end / 5_000,
        "one firing per elapsed epoch"
    );
    assert_eq!(
        stepper.next_epoch().raw(),
        (fired.len() as u64 + 1) * 5_000,
        "anchor advances one epoch per firing"
    );
}

/// `inspect` drives one epoch per `run()` call by returning `Stop`; the
/// sliced timeline must match a single continuous run bit for bit (the
/// stepper persists `now`, the epoch anchor and the wake list).
#[test]
fn stop_and_reenter_matches_continuous_run() {
    let build = || -> (Vec<Core>, RecordingLlc) {
        let cores = (0..2)
            .map(|i| {
                Core::new(
                    CoreId(i as u8),
                    CoreConfig::default(),
                    Box::new(SynthSource::new(0xF00D, i, 4)) as Box<dyn InstrSource + Send>,
                )
            })
            .collect();
        (cores, RecordingLlc::default())
    };
    let targets = [u64::MAX, u64::MAX];
    let epochs = 5u32;

    let (mut cores_a, mut llc_a) = build();
    let mut stepper_a = SystemStepper::new(StepperKind::EventDriven, EPOCH);
    let mut k = 0u32;
    stepper_a.run(
        &mut cores_a,
        &mut llc_a,
        &targets,
        Cycle(u64::MAX),
        |_, _, _| {
            k += 1;
            if k == epochs {
                EpochControl::Stop
            } else {
                EpochControl::Continue
            }
        },
    );

    let (mut cores_b, mut llc_b) = build();
    let mut stepper_b = SystemStepper::new(StepperKind::EventDriven, EPOCH);
    for _ in 0..epochs {
        stepper_b.run(
            &mut cores_b,
            &mut llc_b,
            &targets,
            Cycle(u64::MAX),
            |_, _, _| EpochControl::Stop,
        );
    }

    assert_eq!(stepper_a.now(), stepper_b.now());
    assert_eq!(stepper_a.next_epoch(), stepper_b.next_epoch());
    for (a, b) in cores_a.iter().zip(cores_b.iter()) {
        assert_eq!(a.retired(), b.retired());
    }
    assert_eq!(llc_a.log, llc_b.log);
    assert_eq!(llc_a.wb, llc_b.wb);
}
