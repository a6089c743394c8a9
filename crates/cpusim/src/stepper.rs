//! System steppers: the reference per-cycle driver and the event-driven
//! wake-list scheduler.
//!
//! Both steppers advance a set of [`Core`]s against a shared LLC port on the
//! reference timeline and fire an epoch callback on a fixed cycle grid. The
//! **reference** stepper calls [`Core::step`] on *every* core at every
//! visited cycle — the obviously-correct formulation the equivalence goldens
//! were recorded against. The **event-driven** stepper keeps a wake list of
//! per-core `next_event` cycles and steps only cores that are due, batching
//! micro-steps of a lone runnable core up to the next barrier (another
//! core's wake or the epoch boundary).
//!
//! The two are bit-identical by construction: the [`crate::StepOutcome`]
//! wake-list
//! contract guarantees a skipped step is an observable no-op and that wakes
//! are stable under recomputation, so both steppers perform the same
//! progress work at the same cycles. `harness`'s differential suites
//! (`cpusim/tests/stepper_reference.rs`, `harness/tests/equivalence.rs`)
//! pin the equivalence across workloads, core counts and DVFS dilation.
//!
//! The event-driven stepper also skips the ticks on which a core can only
//! retire: after a progressing step leaves dispatch blocked (a branch
//! redirect, an L1-I miss, a full MSHR file), the core owes the retirement
//! of the ticks until the stall ends and settles it, tick by tick, at its
//! next step (the owed-retirement window on [`crate::StepOutcome`]). Three
//! rules keep that invisible:
//!
//! * **all-nominal gate** — windows open only while every core's clock
//!   ratio is exactly 1, checked at [`SystemStepper::run`] entry and after
//!   every epoch callback. A core's finish cycle is the next cycle the
//!   stepper visits after its crossing step; at nominal clock that is
//!   always the crossing cycle + 1, but a dilated core's can be a
//!   co-runner's wake, which a window would move;
//! * **epoch horizon** — a window ends by `min(next epoch, max_cycles)`,
//!   so the core steps at the boundary, before the callback reads its
//!   retired count or retunes its clock, and no window spans a callback;
//!   none opens near an unfinished core's retire target either;
//! * **settle on return** — every return closes the open windows as if
//!   their cores had been stepped on every tick before `now`, and moves
//!   `now` to the cycle per-tick stepping would have visited next, so a caller between two runs (the warm-up
//!   snapshot of `harness::System::run_observed`) and the next run see
//!   the timeline the reference stepper leaves.
//!
//! Cores are stepped in ascending index order within a cycle; LLC/DRAM state
//! therefore evolves identically under both steppers.

use simkit::types::Cycle;

use crate::core::{Core, LlcPort};
use crate::trace::InstrSource;

/// Which stepping algorithm drives the system loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepperKind {
    /// Step every core at every visited cycle (the documented reference).
    Reference,
    /// Step only cores whose advertised `next_event` has arrived.
    #[default]
    EventDriven,
}

/// Epoch callback verdict: keep simulating or return to the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochControl {
    /// Continue to the next event.
    Continue,
    /// Return immediately after this epoch (used when a watcher of the
    /// harness's observed runs ends a run early); the stepper can be
    /// re-entered later.
    Stop,
}

/// Drives cores, the shared LLC and the epoch grid; owns simulation time.
///
/// One stepper instance persists across phases (warmup, then measurement):
/// `now`, the epoch anchor and the wake list all carry over, so a run is a
/// single timeline regardless of how many [`SystemStepper::run`] calls
/// sliced it.
#[derive(Debug)]
pub struct SystemStepper {
    kind: StepperKind,
    now: Cycle,
    next_epoch: Cycle,
    epoch_cycles: u64,
    /// Per-core stored wake: the `next_event` from the core's last step
    /// (event-driven only; lazily sized on first run).
    wakes: Vec<Cycle>,
}

impl SystemStepper {
    /// Creates a stepper at cycle 0 with the first epoch boundary one whole
    /// epoch in.
    pub fn new(kind: StepperKind, epoch_cycles: u64) -> SystemStepper {
        assert!(epoch_cycles > 0, "epoch length must be positive");
        SystemStepper {
            kind,
            now: Cycle::ZERO,
            next_epoch: Cycle(epoch_cycles),
            epoch_cycles,
            wakes: Vec::new(),
        }
    }

    /// Current simulation time (the cycle the next event will execute at).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The next epoch boundary cycle.
    pub fn next_epoch(&self) -> Cycle {
        self.next_epoch
    }

    /// Runs until every core `i` has retired at least `targets[i]`
    /// instructions (or `now` reaches `max_cycles`), returning for each core
    /// the cycle at which its target was first observed crossed.
    ///
    /// Generic over the cores' instruction source `S`, so the per-step
    /// calls into [`Core::step`] are statically dispatched end to end.
    ///
    /// The epoch callback fires whenever `now` lands on the epoch grid —
    /// *after* the cores due at that cycle have stepped — and may retune the
    /// cores (partitioning, DVFS ratios); the stepper refreshes its wake
    /// list afterwards via [`Core::wake_hint`]. Returning
    /// [`EpochControl::Stop`] exits immediately (cores already stepped at
    /// the boundary cycle; time has not advanced past it). Every return
    /// leaves each core's retirement settled as per-tick stepping would
    /// (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics unless there is one target per core and at most 64 cores
    /// (the due set is one bitmask).
    pub fn run<S, P, F>(
        &mut self,
        cores: &mut [Core<S>],
        port: &mut P,
        targets: &[u64],
        max_cycles: Cycle,
        mut on_epoch: F,
    ) -> Vec<Option<Cycle>>
    where
        S: InstrSource,
        P: LlcPort,
        F: FnMut(Cycle, &mut [Core<S>], &mut P) -> EpochControl,
    {
        let n = cores.len();
        assert_eq!(targets.len(), n, "one retire target per core");
        assert!(n <= 64, "at most 64 cores, got {n}");
        if self.wakes.len() != n {
            // First run (or a changed core set): everyone is due now.
            self.wakes = vec![self.now; n];
        }
        let mut finish: Vec<Option<Cycle>> = vec![None; n];
        let mut remaining = n;
        for i in 0..n {
            if cores[i].retired() >= targets[i] {
                finish[i] = Some(self.now);
                remaining -= 1;
            }
        }

        let mut windows = self.opens_windows(cores);
        while remaining > 0 && self.now < max_cycles {
            let now = self.now;
            let epoch_due = now >= self.next_epoch;
            // A window ends by the next epoch boundary, where the core steps
            // before the callback reads it (none opens at the boundary).
            let horizon = if windows {
                self.next_epoch.min(max_cycles)
            } else {
                Cycle::ZERO
            };
            // Bit `i` = core `i` steps at `now`.
            let due = match self.kind {
                StepperKind::Reference => u64::MAX >> (64 - n),
                StepperKind::EventDriven => self.due_set(now),
            };

            // Fast path: exactly one core due, no epoch imminent — batch its
            // micro-steps up to the next barrier without re-scanning.
            if !epoch_due && self.kind == StepperKind::EventDriven && due.count_ones() == 1 {
                let i = due.trailing_zeros() as usize;
                let mut barrier = self.next_epoch;
                for (j, &w) in self.wakes.iter().enumerate() {
                    if j != i {
                        barrier = barrier.min(w);
                    }
                }
                let mut t = now;
                loop {
                    let guard = if finish[i].is_some() {
                        u64::MAX
                    } else {
                        targets[i]
                    };
                    let out = cores[i].step_until(t, port, horizon, guard);
                    let w = out.next_event.max(t + 1);
                    let advanced = w.min(barrier);
                    if finish[i].is_none() && cores[i].retired() >= targets[i] {
                        finish[i] = Some(advanced);
                        remaining -= 1;
                    }
                    t = advanced;
                    if remaining == 0 || t >= max_cycles || w >= barrier {
                        self.wakes[i] = w;
                        break;
                    }
                }
                self.now = t;
                continue;
            }

            // General path: step every due core (event-driven) or every core
            // (reference) in ascending index order.
            let mut pending = due;
            while pending != 0 {
                let i = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let guard = if finish[i].is_some() {
                    u64::MAX
                } else {
                    targets[i]
                };
                let out = cores[i].step_until(now, port, horizon, guard);
                self.wakes[i] = out.next_event.max(now + 1);
            }

            if epoch_due {
                let control = on_epoch(now, cores, port);
                self.next_epoch += self.epoch_cycles;
                // The decision may have re-anchored DVFS clock grids; the
                // hint equals the stored wake when a core's clock is
                // untouched, so the blanket refresh is behaviour-preserving.
                for (i, core) in cores.iter().enumerate() {
                    self.wakes[i] = core.wake_hint(now);
                }
                windows = self.opens_windows(cores);
                if control == EpochControl::Stop {
                    break;
                }
            }

            let mut next = self.next_epoch;
            for &w in &self.wakes {
                next = next.min(w);
            }
            self.now = next.max(now + 1);
            // Only a step retires instructions, so only the cores stepped
            // at `now` can have crossed their targets.
            let mut pending = due;
            while pending != 0 {
                let i = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                if finish[i].is_none() && cores[i].retired() >= targets[i] {
                    finish[i] = Some(self.now);
                    remaining -= 1;
                }
            }
        }
        self.settle(cores);
        finish
    }

    /// Whether owed-retirement windows may open: only event-driven, and
    /// only while every core runs at nominal clock (ratio exactly 1), since
    /// a dilated core's finish is the next cycle any core is stepped at,
    /// which a window moves.
    fn opens_windows<S: InstrSource>(&self, cores: &[Core<S>]) -> bool {
        self.kind == StepperKind::EventDriven && cores.iter().all(|c| c.clock_ratio() == 1.0)
    }

    /// Closes every open owed-retirement window as if its core had been
    /// stepped on every tick below `now`, and moves `now` to the first
    /// cycle that stepping would have visited next: a caller between two
    /// runs, and the next run, see the timeline per-tick stepping leaves.
    fn settle<S: InstrSource>(&mut self, cores: &mut [Core<S>]) {
        let mut closed = false;
        for (wake, core) in self.wakes.iter_mut().zip(cores.iter_mut()) {
            if let Some(w) = core.settle(self.now) {
                *wake = w;
                closed = true;
            }
        }
        if closed {
            self.now = self.wakes.iter().fold(self.next_epoch, |m, &w| m.min(w));
        }
    }

    /// Bitmask of the cores whose stored wake has arrived at `now`.
    fn due_set(&self, now: Cycle) -> u64 {
        self.wakes
            .iter()
            .enumerate()
            .fold(0, |due, (i, &w)| due | ((w <= now) as u64) << i)
    }
}
