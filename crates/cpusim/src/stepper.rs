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
    /// the boundary cycle; time has not advanced past it).
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

        while remaining > 0 && self.now < max_cycles {
            let now = self.now;
            let epoch_due = now >= self.next_epoch;
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
                    let out = cores[i].step(t, port);
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
                let out = cores[i].step(now, port);
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
                if control == EpochControl::Stop {
                    return finish;
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
        finish
    }

    /// Bitmask of the cores whose stored wake has arrived at `now`.
    fn due_set(&self, now: Cycle) -> u64 {
        self.wakes
            .iter()
            .enumerate()
            .fold(0, |due, (i, &w)| due | ((w <= now) as u64) << i)
    }
}
