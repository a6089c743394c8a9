//! The out-of-order-lite core: a completion-time ROB model with L1 caches.
//!
//! Every dispatched instruction receives a *completion cycle*; the ROB
//! retires up to four completed instructions per cycle in program order.
//! Performance effects modeled:
//!
//! * **ROB pressure** — a full 128-entry ROB blocks dispatch, so long-latency
//!   misses eventually stall the core (finite memory-level parallelism);
//! * **LSQ pressure** — at most 48 memory operations in flight;
//! * **L1 MSHR pressure** — at most `l1_mshrs` outstanding L1-D misses;
//! * **branch redirects** — gshare/BTB mispredictions freeze the front end
//!   for the minimum 10-cycle penalty;
//! * **dependent loads** — pointer-chasing loads cannot start before the
//!   previous load completes, serializing misses;
//! * **instruction fetch** — L1-I misses stall the front end until the fill
//!   returns.
//!
//! The model is driven by [`Core::step`], called by the system loop at
//! monotonically non-decreasing cycles; a stalled core reports the next cycle
//! at which progress is possible so the loop can fast-forward. The precise
//! wake-list contract lives on [`StepOutcome`]; both the reference stepper
//! (every core, every visited cycle) and the event-driven stepper (due cores
//! only) in [`crate::stepper`] rely on it for bit-identical results. The
//! event-driven stepper also lets a core skip the ticks of a front-end or
//! MSHR stall on which it could only retire: the core owes their
//! retirement and settles it tick by tick at its next step (the
//! owed-retirement window, described on [`StepOutcome`]).
//!
//! Hot-path rules:
//!
//! * per-instruction code does not branch on simulated random outcomes
//!   where a mask or a count does the job (how many ROB entries retire,
//!   which of them are memory operations, the branch predictor's counter
//!   update and BTB probe). Profiles showed host branch mispredictions on
//!   those outcomes, not the modelled work, dominating the cost per
//!   simulated instruction;
//! * per-instruction code makes no virtual call. The instruction source is
//!   the core's type parameter `S`, so the product path (`harness::System`
//!   runs `Core<workloads::StreamSource>`) inlines generation into
//!   dispatch; only the boxed default `Core<Box<dyn InstrSource + Send>>`,
//!   kept for plug-in sources and instrumented mirrors, pays a vtable call
//!   per instruction. Likewise, per-cycle float work is hoisted: the clock
//!   caches its next tick and the core caches its dilated latencies, both
//!   refreshed only on a DVFS transition.

use memsim::mshr::MshrOutcome;
use memsim::{Cache, CacheGeometry, MshrFile};
use simkit::types::{CoreId, Cycle, LineAddr};
use simkit::Counter;

use crate::bpred::Gshare;
use crate::clock::CoreClock;
use crate::prefetch::Prefetcher;
use crate::trace::{Instr, InstrKind, InstrSource};

/// Core microarchitecture parameters (paper Table 2).
///
/// Both L1 geometries are limited to at most 4 ways (the paper's L1s are
/// 4-way): [`memsim::Cache`] keeps each set in one 64-byte record and
/// [`Core::new`] panics on a wider geometry.
#[derive(Debug, Clone, Copy)]
pub struct CoreConfig {
    /// Instructions dispatched per cycle.
    pub issue_width: u32,
    /// Instructions retired per cycle.
    pub retire_width: u32,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Load/store-queue capacity.
    pub lsq_entries: usize,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u64,
    /// Minimum branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
    /// Outstanding L1-D misses.
    pub l1_mshrs: usize,
    /// L1 data cache geometry (at most 4 ways).
    pub l1d: CacheGeometry,
    /// L1 instruction cache geometry (at most 4 ways).
    pub l1i: CacheGeometry,
}

impl Default for CoreConfig {
    /// The paper's configuration: 4-wide, 128 ROB, 48 LSQ, 32 kB 4-way L1s,
    /// 2-cycle L1 latency, 10-cycle mispredict penalty.
    fn default() -> Self {
        CoreConfig {
            issue_width: 4,
            retire_width: 4,
            rob_entries: 128,
            lsq_entries: 48,
            l1_hit_latency: 2,
            mispredict_penalty: 10,
            l1_mshrs: 16,
            l1d: CacheGeometry::new(32 << 10, 4, 64),
            l1i: CacheGeometry::new(32 << 10, 4, 64),
        }
    }
}

/// Interface from a core to the shared last-level cache.
///
/// Implemented by `coop_core::PartitionedLlc`; test doubles provide fixed
/// latencies.
pub trait LlcPort {
    /// Demand access (L1 miss) for `line` by `core` at cycle `now`; returns
    /// the cycle at which the fill arrives at the L1.
    fn access(&mut self, now: Cycle, core: CoreId, line: LineAddr, write: bool) -> Cycle;

    /// A dirty line evicted from the L1 is written back into the LLC.
    fn writeback(&mut self, now: Cycle, core: CoreId, line: LineAddr);

    /// A *prefetch* read for `line` by `core`: tagged distinctly from
    /// demand misses so the LLC can account (and bandwidth-regulate) it
    /// separately without perturbing demand statistics. The default
    /// forwards to [`LlcPort::access`], which keeps simple test doubles
    /// and legacy ports working unchanged.
    fn prefetch(&mut self, now: Cycle, core: CoreId, line: LineAddr) -> Cycle {
        self.access(now, core, line, false)
    }
}

/// Per-core performance statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: Counter,
    /// Loads dispatched.
    pub loads: Counter,
    /// Stores dispatched.
    pub stores: Counter,
    /// Cycles the front end spent redirected by mispredictions.
    pub redirect_cycles: Counter,
    /// Prefetch lines issued to the memory system.
    pub prefetches: Counter,
    /// Prefetched lines later touched by a demand access (first touch).
    pub prefetch_useful: Counter,
    /// Demand loads that hit a prefetched line still in flight (the
    /// prefetch arrived late; the load waits for its completion).
    pub prefetch_late: Counter,
    /// Prefetch candidates dropped because the L1 MSHR file was full
    /// (prefetches never stall the core).
    pub prefetch_dropped: Counter,
}

/// Result of stepping a core one cycle.
///
/// # Wake-list contract
///
/// `next_event` is the backbone of the event-driven stepper: after a step at
/// cycle `now`, the scheduler may skip the core until `next_event` without
/// changing simulated behaviour. The producer guarantees:
///
/// * `next_event > now` — always strictly in the future;
/// * if `progressed`, `next_event` is the core's next clock tick (`now + 1`
///   at nominal frequency, further out when down-clocked);
/// * if `!progressed`, no call to [`Core::step`] at any cycle in
///   `(now, next_event)` can retire or dispatch an instruction, touch a
///   cache, or access the LLC — such calls are observable no-ops;
/// * the estimate is exact, not conservative: at `next_event` itself the
///   core either progresses or a new blocking condition is discovered and
///   re-advertised (it never spins reporting `now + 1` while stalled on a
///   known-future completion);
/// * the estimate is *stable*: a no-op call at any cycle in
///   `(now, next_event)` returns the same `next_event` again. Wakes are
///   tick-aligned under DVFS dilation, so stepping every cycle (reference)
///   and stepping only at advertised wakes (event-driven) visit the same
///   progress cycles and produce bit-identical results.
///
/// [`Core::wake_hint`] recomputes the same bound without stepping, for
/// refreshing stored wakes after a DVFS ratio change.
///
/// # Owed-retirement windows
///
/// The event-driven [`crate::SystemStepper`] steps through a crate-private
/// variant of [`Core::step`] that may advertise a later wake after a
/// progressing step: when dispatch stays blocked past the next tick (a
/// branch redirect, an L1-I miss or a full MSHR file), every tick until
/// the stall ends can only retire, so the core records the first tick
/// whose retirement it owes and advertises the stall's end, capped at a
/// horizon the stepper passes (the next epoch boundary or the cycle cap).
/// Its next step first retires every owed tick below `now` exactly as
/// per-tick stepping would have. Retirement is observable — the epoch
/// callback, the finish check and a caller between two runs read
/// [`Core::retired`] — so the stepper opens windows only while every core
/// is at nominal clock, never lets one cross an epoch boundary or reach a
/// core's unfinished retire target, and settles every open window before
/// it returns. The public [`Core::step`] never opens one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// Whether any instruction was retired or dispatched this cycle.
    pub progressed: bool,
    /// Earliest cycle at which calling [`Core::step`] again can achieve
    /// anything (see the wake-list contract above).
    pub next_event: Cycle,
}

/// Fixed-capacity ring buffer of ROB entries, flattened into a contiguous
/// `u64` slab: completion cycle in bits 1..64, the LSQ (`is_mem`) flag in
/// bit 0. Replaces the pointer-hopping `VecDeque<RobEntry>` on the hot path.
#[derive(Debug)]
struct RobRing {
    slots: Box<[u64]>,
    head: usize,
    len: usize,
}

impl RobRing {
    fn new(capacity: usize) -> RobRing {
        RobRing {
            slots: vec![0; capacity.next_power_of_two().max(1)].into_boxed_slice(),
            head: 0,
            len: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    /// Completion cycle of the oldest entry, if any.
    #[inline]
    fn front_done(&self) -> Option<Cycle> {
        if self.len == 0 {
            None
        } else {
            Some(Cycle(self.slots[self.head] >> 1))
        }
    }

    /// Pops the prefix of entries completed by `now`, at most `max` of
    /// them, and returns `(popped, memory entries among them)`.
    ///
    /// One pass over the first `min(max, len)` slots with no per-entry
    /// exit: a running "still done" flag masks each slot's contribution,
    /// so how many entries retire (a simulated outcome) never steers a
    /// host branch.
    #[inline]
    fn pop_done(&mut self, now: Cycle, max: usize) -> (usize, usize) {
        let mask = self.mask();
        let mut done = true;
        let mut popped = 0;
        let mut mem = 0;
        for k in 0..max.min(self.len) {
            let v = self.slots[(self.head + k) & mask];
            done &= v >> 1 <= now.raw();
            popped += done as usize;
            mem += (done as u64 & v) as usize;
        }
        self.head = (self.head + popped) & mask;
        self.len -= popped;
        (popped, mem)
    }

    #[inline]
    fn push_back(&mut self, done: Cycle, is_mem: bool) {
        debug_assert!(self.len < self.slots.len());
        debug_assert!(done.raw() < (1 << 63), "completion cycle fits in 63 bits");
        let tail = (self.head + self.len) & self.mask();
        self.slots[tail] = (done.raw() << 1) | is_mem as u64;
        self.len += 1;
    }
}

/// The core model. Owns its instruction source, L1 caches, branch predictor
/// and MSHRs; accesses the shared LLC through an [`LlcPort`].
///
/// `S` is the instruction source, statically dispatched (see the module
/// docs' hot-path rules); the default boxed source accepts any
/// [`InstrSource`] behind a trait object.
pub struct Core<S: InstrSource = Box<dyn InstrSource + Send>> {
    id: CoreId,
    cfg: CoreConfig,
    source: S,
    rob: RobRing,
    lsq_count: usize,
    fetch_stall_until: Cycle,
    mshr_stall_until: Cycle,
    pending: Option<Instr>,
    l1d: Cache,
    l1i: Cache,
    l1d_mshr: MshrFile,
    bpred: Gshare,
    last_load_done: Cycle,
    last_iline: u64,
    /// `log2(l1i line bytes)`, precomputed: the I-line check runs per
    /// dispatched instruction and a 64-bit division there is measurable.
    iline_shift: u32,
    /// `log2(l1d line bytes)`, for the prefetcher's line numbers.
    dline_shift: u32,
    prefetch: Prefetcher,
    clock: CoreClock,
    /// `cfg.l1_hit_latency` and `cfg.mispredict_penalty` in reference
    /// cycles at the current clock ratio, refreshed on every ratio change.
    l1_hit: u64,
    bp_penalty: u64,
    /// Whether the last executed core cycle made progress (a fresh core is
    /// runnable); drives [`Core::wake_hint`].
    runnable: bool,
    /// First tick of an open owed-retirement window (see [`StepOutcome`]):
    /// the ticks from here up to the next step retired nothing yet.
    owed: Option<Cycle>,
    stats: CoreStats,
}

impl<S: InstrSource> std::fmt::Debug for Core<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("id", &self.id)
            .field("rob_occupancy", &self.rob.len())
            .field("retired", &self.stats.retired.get())
            .finish()
    }
}

impl<S: InstrSource> Core<S> {
    /// Creates a core with the given configuration and instruction source.
    ///
    /// # Panics
    ///
    /// Panics if either L1 geometry has more than 4 ways.
    pub fn new(id: CoreId, cfg: CoreConfig, source: S) -> Core<S> {
        let clock = CoreClock::nominal();
        Core {
            id,
            cfg,
            source,
            rob: RobRing::new(cfg.rob_entries),
            lsq_count: 0,
            fetch_stall_until: Cycle::ZERO,
            mshr_stall_until: Cycle::ZERO,
            pending: None,
            l1d: Cache::new(cfg.l1d),
            l1i: Cache::new(cfg.l1i),
            l1d_mshr: MshrFile::new(cfg.l1_mshrs),
            bpred: Gshare::paper_default(),
            last_load_done: Cycle::ZERO,
            last_iline: u64::MAX,
            iline_shift: cfg.l1i.line_bytes().trailing_zeros(),
            dline_shift: cfg.l1d.line_bytes().trailing_zeros(),
            prefetch: Prefetcher::new(),
            l1_hit: clock.scaled(cfg.l1_hit_latency),
            bp_penalty: clock.scaled(cfg.mispredict_penalty),
            clock,
            runnable: true,
            owed: None,
            stats: CoreStats::default(),
        }
    }

    /// Sets the core's clock-dilation ratio (`f_nom / f`, >= 1) for DVFS.
    /// The tick grid re-anchors at `now`, so the new frequency takes effect
    /// from the next core cycle. After changing a ratio mid-run, refresh any
    /// stored wake with [`Core::wake_hint`] — the previously advertised
    /// `next_event` was computed on the old tick grid.
    pub fn set_clock_ratio(&mut self, now: Cycle, ratio: f64) {
        self.clock.set_ratio(now, ratio);
        self.l1_hit = self.clock.scaled(self.cfg.l1_hit_latency);
        self.bp_penalty = self.clock.scaled(self.cfg.mispredict_penalty);
    }

    /// The current clock-dilation ratio (1.0 = nominal frequency).
    pub fn clock_ratio(&self) -> f64 {
        self.clock.ratio()
    }

    /// Sets the prefetcher aggressiveness (lines ahead per demand miss,
    /// clamped to [`crate::prefetch::MAX_DEGREE`]; `0` = off). Policies
    /// drive this per epoch from their `prefetch_slots` hint. At degree 0
    /// the core is bit-identical to one built before the prefetcher
    /// existed.
    pub fn set_prefetch_degree(&mut self, degree: u8) {
        self.prefetch.set_degree(degree);
    }

    /// The current prefetch degree (0 = off).
    pub fn prefetch_degree(&self) -> u8 {
        self.prefetch.degree()
    }

    /// This core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired.get()
    }

    /// Performance statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// L1 data-cache statistics.
    pub fn l1d_stats(&self) -> &memsim::CacheStats {
        self.l1d.stats()
    }

    /// L1 instruction-cache statistics.
    pub fn l1i_stats(&self) -> &memsim::CacheStats {
        self.l1i.stats()
    }

    /// Branch predictor statistics.
    pub fn branch_stats(&self) -> &crate::bpred::BranchStats {
        self.bpred.stats()
    }

    /// Advances the core by one cycle at time `now`.
    ///
    /// `now` must be non-decreasing across calls. Returns whether progress
    /// was made and when to call again; see [`StepOutcome`] for the contract
    /// the returned `next_event` upholds. Callers honouring that contract
    /// (stepping only at advertised wakes) observe bit-identical behaviour
    /// to callers stepping every cycle.
    pub fn step(&mut self, now: Cycle, llc: &mut dyn LlcPort) -> StepOutcome {
        self.step_until(now, llc, Cycle::ZERO, 0)
    }

    /// [`Core::step`], which may open an owed-retirement window (see
    /// [`StepOutcome`]) ending no later than `horizon`, provided the ROB
    /// cannot retire the core up to `guard` instructions inside it (pass
    /// the retire target, or `u64::MAX` once it is met). The caller must
    /// keep every core at nominal clock while a window is open and settle
    /// it with [`Core::settle`] before anything else reads the core.
    pub(crate) fn step_until(
        &mut self,
        now: Cycle,
        llc: &mut dyn LlcPort,
        horizon: Cycle,
        guard: u64,
    ) -> StepOutcome {
        self.retire_owed(now);
        // DVFS gate: a down-clocked core only executes core cycles on its
        // tick schedule; between ticks it reports its wake hint so that
        // recomputing a stalled core's wake at any intermediate cycle
        // reproduces the advertised one (the steppers' equivalence hinges
        // on this).
        if !self.clock.ticks_at(now) {
            return StepOutcome {
                progressed: false,
                next_event: self.wake_hint(now),
            };
        }
        let retired = self.retire(now);
        let dispatched = self.dispatch(now, llc);
        let progressed = retired > 0 || dispatched > 0;
        self.runnable = progressed;
        self.clock.advance(now);
        // Dispatch stays blocked below `stall_end`, so until then a tick can
        // only retire; the window skips those ticks when the ROB cannot
        // carry the core to `guard`.
        let stall_end = self.fetch_stall_until.max(self.mshr_stall_until);
        let window_end = stall_end.min(horizon);
        if progressed && window_end > now + 1 && self.retired() + (self.rob.len() as u64) < guard {
            self.owed = Some(now + 1);
            return StepOutcome {
                progressed,
                next_event: window_end,
            };
        }
        StepOutcome {
            progressed,
            next_event: self.wake_hint(now),
        }
    }

    /// Closes an open owed-retirement window at `end`: retires its ticks
    /// below `end` and leaves the core as per-tick stepping through
    /// `end - 1` would have, returning the wake that stepping would have
    /// advertised. `None` when no window is open.
    pub(crate) fn settle(&mut self, end: Cycle) -> Option<Cycle> {
        self.owed?;
        self.retire_owed(end);
        Some(self.wake_hint(Cycle(end.raw() - 1)))
    }

    /// Retires the owed ticks below `end`, tick by tick as
    /// [`RobRing::pop_done`] would have (at most `retire_width` a tick,
    /// jumping to the head's completion while the head is not done), and
    /// closes the window. When the window covered a tick, `runnable`
    /// records whether its last one, `end - 1`, retired anything.
    fn retire_owed(&mut self, end: Cycle) {
        let Some(mut t) = self.owed else {
            return;
        };
        self.owed = None;
        debug_assert!(t <= end, "owed ticks from {t:?} settled at {end:?}");
        if t < end {
            self.runnable = false;
        }
        while let Some(done) = self.rob.front_done() {
            t = t.max(done);
            if t >= end {
                break;
            }
            self.retire(t);
            self.runnable = t + 1 == end;
            t += 1;
        }
    }

    /// Recomputes the earliest useful cycle to step this core strictly after
    /// `now`, without stepping it — the same bound [`Core::step`] advertises
    /// as `next_event`. The event-driven stepper calls this to refresh
    /// stored wakes after an epoch decision may have re-anchored the DVFS
    /// clock grid; with an unchanged clock it returns exactly the stored
    /// wake, so an unconditional refresh is behaviour-preserving.
    pub fn wake_hint(&self, now: Cycle) -> Cycle {
        debug_assert!(self.owed.is_none(), "wake of a core that owes retirement");
        if self.runnable {
            // Last real step made progress: the core is due on its very next
            // tick regardless of in-flight completions.
            self.clock.next_tick_after(now)
        } else {
            self.clock.align_wake(self.next_wake(now))
        }
    }

    fn retire(&mut self, now: Cycle) -> u32 {
        let (popped, mem) = self.rob.pop_done(now, self.cfg.retire_width as usize);
        self.lsq_count -= mem;
        self.stats.retired.add(popped as u64);
        popped as u32
    }

    fn dispatch(&mut self, now: Cycle, llc: &mut dyn LlcPort) -> u32 {
        if self.fetch_stall_until > now || self.mshr_stall_until > now {
            return 0;
        }
        // Core-cycle latencies expressed in reference cycles at the current
        // clock (identity at nominal frequency).
        let (l1_hit, bp_penalty) = (self.l1_hit, self.bp_penalty);
        let mut n = 0;
        while n < self.cfg.issue_width {
            if self.rob.len() >= self.cfg.rob_entries {
                break;
            }
            let instr = match self.pending.take() {
                Some(i) => i,
                None => self.source.next_instr(),
            };
            // Instruction-side: a new I-line may miss in the L1-I.
            let iline = instr.pc() >> self.iline_shift;
            if iline != self.last_iline {
                self.last_iline = iline;
                let line = LineAddr::from_byte_addr(
                    self.id,
                    // Separate I-side address space within the core.
                    instr.pc() | (1 << 48),
                    self.cfg.l1i.line_bytes(),
                );
                let r = self.l1i.access(line, false);
                if let Some(wb) = r.writeback {
                    llc.writeback(now, self.id, wb);
                }
                if !r.hit {
                    let done = llc.access(now + l1_hit, self.id, line, false);
                    self.fetch_stall_until = done;
                    self.pending = Some(instr);
                    break;
                }
            }
            match instr.kind() {
                InstrKind::Alu => {
                    self.rob.push_back(now + 1, false);
                    n += 1;
                }
                InstrKind::Branch => {
                    self.rob.push_back(now + 1, false);
                    n += 1;
                    if self.bpred.observe(instr.pc(), instr.taken()) {
                        self.fetch_stall_until = now + bp_penalty;
                        self.stats.redirect_cycles.add(bp_penalty);
                        break;
                    }
                }
                InstrKind::Load => {
                    if self.lsq_count >= self.cfg.lsq_entries {
                        self.pending = Some(instr);
                        break;
                    }
                    let start = if instr.dep_prev_load() {
                        now.max(self.last_load_done)
                    } else {
                        now
                    };
                    let line =
                        LineAddr::from_byte_addr(self.id, instr.addr(), self.cfg.l1d.line_bytes());
                    let line_no = instr.addr() >> self.dline_shift;
                    if self.prefetch.enabled() && self.prefetch.note_demand(line_no) {
                        self.stats.prefetch_useful.inc();
                    }
                    let r = self.l1d.access(line, false);
                    if let Some(wb) = r.writeback {
                        llc.writeback(start, self.id, wb);
                    }
                    let done = if r.hit {
                        let mut done = start + l1_hit;
                        if self.prefetch.enabled() {
                            // A prefetched line may still be in flight: the
                            // load waits for its arrival (late prefetch).
                            if let Some(fill) = self.l1d_mshr.completion_of(line) {
                                if fill > done {
                                    self.stats.prefetch_late.inc();
                                    done = fill;
                                }
                            }
                        }
                        done
                    } else {
                        match self.l1d_mshr.begin(start, line) {
                            MshrOutcome::Merged(done) => done,
                            MshrOutcome::Allocated => {
                                let done = llc.access(start + l1_hit, self.id, line, false);
                                self.l1d_mshr.set_completion(line, done);
                                if self.prefetch.enabled() {
                                    self.issue_prefetches(start + l1_hit, line_no, llc);
                                }
                                done
                            }
                            MshrOutcome::Full(hint) => {
                                self.mshr_stall_until = hint;
                                self.pending = Some(instr);
                                break;
                            }
                        }
                    };
                    self.last_load_done = done;
                    self.stats.loads.inc();
                    self.lsq_count += 1;
                    self.rob.push_back(done, true);
                    n += 1;
                }
                InstrKind::Store => {
                    if self.lsq_count >= self.cfg.lsq_entries {
                        self.pending = Some(instr);
                        break;
                    }
                    let line =
                        LineAddr::from_byte_addr(self.id, instr.addr(), self.cfg.l1d.line_bytes());
                    if self.prefetch.enabled()
                        && self.prefetch.note_demand(instr.addr() >> self.dline_shift)
                    {
                        self.stats.prefetch_useful.inc();
                    }
                    let r = self.l1d.access(line, true);
                    if let Some(wb) = r.writeback {
                        llc.writeback(now, self.id, wb);
                    }
                    if !r.hit {
                        // Write-allocate fill; the store buffer hides its
                        // latency but the traffic and MSHR occupancy are real.
                        match self.l1d_mshr.begin(now, line) {
                            MshrOutcome::Merged(_) => {}
                            MshrOutcome::Allocated => {
                                let done = llc.access(now + l1_hit, self.id, line, true);
                                self.l1d_mshr.set_completion(line, done);
                            }
                            MshrOutcome::Full(hint) => {
                                self.mshr_stall_until = hint;
                                self.pending = Some(instr);
                                break;
                            }
                        }
                    }
                    self.stats.stores.inc();
                    self.lsq_count += 1;
                    self.rob.push_back(now + 1, true);
                    n += 1;
                }
            }
        }
        n
    }

    /// Feeds a demand-miss line number to the stride prefetcher and issues
    /// the candidates it proposes. Runs only inside `dispatch` (a progress
    /// step) with the prefetcher enabled, so degree 0 stays bit-identical
    /// to the pre-prefetcher core. Candidates already resident in the L1
    /// or already in flight are skipped; a full MSHR file *drops* the
    /// candidate (and the rest of the batch) rather than stalling.
    fn issue_prefetches(&mut self, start: Cycle, line_no: u64, llc: &mut dyn LlcPort) {
        let line_bytes = self.cfg.l1d.line_bytes();
        let cands: [Option<u64>; crate::prefetch::MAX_DEGREE] = {
            let mut buf = [None; crate::prefetch::MAX_DEGREE];
            for (slot, cand) in buf.iter_mut().zip(self.prefetch.observe_miss(line_no)) {
                *slot = Some(cand);
            }
            buf
        };
        for cand in cands.into_iter().flatten() {
            let line = LineAddr::from_byte_addr(self.id, cand << self.dline_shift, line_bytes);
            if self.l1d.probe(line) {
                continue; // already resident — nothing to fetch
            }
            match self.l1d_mshr.begin(start, line) {
                MshrOutcome::Merged(_) => {} // already in flight
                MshrOutcome::Full(_) => {
                    self.stats.prefetch_dropped.inc();
                    break;
                }
                MshrOutcome::Allocated => {
                    let done = llc.prefetch(start, self.id, line);
                    self.l1d_mshr.set_completion(line, done);
                    // Fill at issue, like the store write-allocate path:
                    // residency flips now, timing flows through the MSHR
                    // completion consulted by later demand loads.
                    let r = self.l1d.access(line, false);
                    if let Some(wb) = r.writeback {
                        llc.writeback(start, self.id, wb);
                    }
                    self.prefetch.mark_issued(cand);
                    self.stats.prefetches.inc();
                }
            }
        }
    }

    /// Earliest cycle at which a stalled core can make progress.
    ///
    /// Stability matters more than tightness here: under DVFS dilation the
    /// core services a condition at the first *tick* at or after its raw
    /// deadline, so for cycles in the window between the deadline and that
    /// tick the condition is expired but not yet serviced. An expired
    /// condition therefore contributes `now + 1` ("retry on the next tick")
    /// rather than dropping out of the min — otherwise recomputing the wake
    /// inside that window would jump past the actual service tick and the
    /// steppers would diverge (see the [`StepOutcome`] contract).
    fn next_wake(&self, now: Cycle) -> Cycle {
        let mut wake = Cycle(u64::MAX);
        if let Some(done) = self.rob.front_done() {
            // A retirable head (`done <= now`) retires on the next tick.
            wake = wake.min(done.max(now + 1));
        }
        let fetch_blocked = self.fetch_stall_until > now;
        let mshr_blocked = self.mshr_stall_until > now;
        if fetch_blocked {
            // Front-end redirect alone doesn't block retirement; but if the
            // ROB is empty nothing happens until fetch resumes.
            wake = wake.min(self.fetch_stall_until);
        }
        if mshr_blocked {
            wake = wake.min(self.mshr_stall_until);
        }
        // Structural blocks only clear when the ROB head retires (a full
        // LSQ blocks only a pending memory op; anything else can dispatch).
        let structural = self.rob.len() >= self.cfg.rob_entries
            || (self.lsq_count >= self.cfg.lsq_entries
                && self
                    .pending
                    .is_some_and(|p| matches!(p.kind(), InstrKind::Load | InstrKind::Store)));
        if !fetch_blocked && !mshr_blocked && !structural {
            // Dispatch can be attempted on the very next tick (covers the
            // expired-stall window a dilated clock has not serviced yet).
            wake = wake.min(now + 1);
        }
        if wake == Cycle(u64::MAX) {
            // Nothing in flight and no stall: progress is possible next cycle.
            now + 1
        } else {
            wake.max(now + 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Instr;

    /// LLC double with fixed latency; records accesses.
    struct FixedLlc {
        latency: u64,
        accesses: Vec<(Cycle, LineAddr, bool)>,
        writebacks: u64,
    }

    impl FixedLlc {
        fn new(latency: u64) -> FixedLlc {
            FixedLlc {
                latency,
                accesses: Vec::new(),
                writebacks: 0,
            }
        }
    }

    impl LlcPort for FixedLlc {
        fn access(&mut self, now: Cycle, _core: CoreId, line: LineAddr, write: bool) -> Cycle {
            self.accesses.push((now, line, write));
            now + self.latency
        }
        fn writeback(&mut self, _now: Cycle, _core: CoreId, _line: LineAddr) {
            self.writebacks += 1;
        }
    }

    fn run_for<S: InstrSource>(core: &mut Core<S>, llc: &mut FixedLlc, cycles: u64) {
        let mut now = Cycle(0);
        while now < Cycle(cycles) {
            let out = core.step(now, llc);
            now = out.next_event.max(now + 1);
        }
    }

    #[test]
    fn alu_stream_reaches_full_width_ipc() {
        let mut pc = 0u64;
        let src = move || {
            pc += 4;
            Instr::alu(pc % 256) // stays within a few I-lines
        };
        let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(src));
        let mut llc = FixedLlc::new(100);
        run_for(&mut core, &mut llc, 10_000);
        let ipc = core.retired() as f64 / 10_000.0;
        assert!(ipc > 3.5, "ALU-only IPC should approach 4, got {ipc}");
    }

    #[test]
    fn l1_resident_loads_are_fast() {
        let mut i = 0u64;
        let src = move || {
            i += 1;
            Instr::load(64, (i % 64) * 64 % 4096) // 4 kB working set
        };
        let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(src));
        let mut llc = FixedLlc::new(100);
        run_for(&mut core, &mut llc, 2_000);
        let ipc = core.retired() as f64 / 2_000.0;
        assert!(ipc > 2.0, "L1-hit loads should be fast, got {ipc}");
        assert!(llc.accesses.len() < 70, "only cold misses go to LLC");
    }

    #[test]
    fn independent_misses_overlap_dependent_ones_serialize() {
        // Streaming loads: every access a new line -> all L1 misses.
        let make = |dep: bool| {
            let mut i = 0u64;
            move || {
                i += 1;
                Instr::load(64, i * 64).with_dep_prev_load(dep)
            }
        };
        let cfg = CoreConfig::default();
        let mut indep = Core::new(CoreId(0), cfg, Box::new(make(false)));
        let mut dep = Core::new(CoreId(0), cfg, Box::new(make(true)));
        let mut llc1 = FixedLlc::new(200);
        let mut llc2 = FixedLlc::new(200);
        run_for(&mut indep, &mut llc1, 20_000);
        run_for(&mut dep, &mut llc2, 20_000);
        assert!(
            indep.retired() > dep.retired() * 3,
            "MLP should beat pointer chasing: {} vs {}",
            indep.retired(),
            dep.retired()
        );
    }

    #[test]
    fn mispredictions_cost_throughput() {
        let make = |predictable: bool| {
            let mut i = 0u64;
            move || {
                i += 1;
                if i.is_multiple_of(4) {
                    // Unpredictable outcome from a hash of i when requested.
                    let taken = if predictable {
                        true
                    } else {
                        (i.wrapping_mul(0x9E3779B97F4A7C15) >> 37) & 1 == 1
                    };
                    Instr::branch(128, taken)
                } else {
                    Instr::alu(64)
                }
            }
        };
        let cfg = CoreConfig::default();
        let mut good = Core::new(CoreId(0), cfg, Box::new(make(true)));
        let mut bad = Core::new(CoreId(0), cfg, Box::new(make(false)));
        let mut llc1 = FixedLlc::new(100);
        let mut llc2 = FixedLlc::new(100);
        run_for(&mut good, &mut llc1, 5_000);
        run_for(&mut bad, &mut llc2, 5_000);
        assert!(
            good.retired() as f64 > bad.retired() as f64 * 1.5,
            "{} vs {}",
            good.retired(),
            bad.retired()
        );
    }

    #[test]
    fn slow_llc_hurts_streaming_ipc() {
        let make = || {
            let mut i = 0u64;
            move || {
                i += 1;
                if i.is_multiple_of(3) {
                    Instr::load(64, (i / 3) * 64)
                } else {
                    Instr::alu(64)
                }
            }
        };
        let cfg = CoreConfig::default();
        let mut fast = Core::new(CoreId(0), cfg, Box::new(make()));
        let mut slow = Core::new(CoreId(0), cfg, Box::new(make()));
        let mut llc_fast = FixedLlc::new(15);
        let mut llc_slow = FixedLlc::new(415);
        run_for(&mut fast, &mut llc_fast, 30_000);
        run_for(&mut slow, &mut llc_slow, 30_000);
        assert!(
            fast.retired() > slow.retired(),
            "{} vs {}",
            fast.retired(),
            slow.retired()
        );
    }

    #[test]
    fn stores_generate_llc_traffic_and_writebacks() {
        let mut i = 0u64;
        let src = move || {
            i += 1;
            Instr::store(64, i * 64)
        };
        let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(src));
        let mut llc = FixedLlc::new(50);
        run_for(&mut core, &mut llc, 20_000);
        assert!(!llc.accesses.is_empty());
        assert!(
            llc.accesses.iter().any(|&(_, _, w)| w),
            "write-intent fills"
        );
        assert!(llc.writebacks > 0, "streaming stores evict dirty L1 lines");
    }

    #[test]
    fn ifetch_misses_stall_frontend() {
        // Jump across many I-lines: big code footprint.
        let mut i = 0u64;
        let big = move || {
            i += 1;
            Instr::alu((i * 64) % (1 << 20)) // 1 MB of code
        };
        let mut j = 0u64;
        let small = move || {
            j += 1;
            Instr::alu(j % 128)
        };
        let cfg = CoreConfig::default();
        let mut big_core = Core::new(CoreId(0), cfg, Box::new(big));
        let mut small_core = Core::new(CoreId(0), cfg, Box::new(small));
        let mut llc1 = FixedLlc::new(100);
        let mut llc2 = FixedLlc::new(100);
        run_for(&mut big_core, &mut llc1, 10_000);
        run_for(&mut small_core, &mut llc2, 10_000);
        assert!(big_core.retired() * 2 < small_core.retired());
        assert!(big_core.l1i_stats().misses.get() > 50);
    }

    #[test]
    fn half_clock_halves_compute_bound_ipc() {
        let make = || {
            let mut pc = 0u64;
            move || {
                pc += 4;
                Instr::alu(pc % 256)
            }
        };
        let cfg = CoreConfig::default();
        let mut fast = Core::new(CoreId(0), cfg, Box::new(make()));
        let mut slow = Core::new(CoreId(0), cfg, Box::new(make()));
        slow.set_clock_ratio(Cycle::ZERO, 2.0);
        let mut llc1 = FixedLlc::new(100);
        let mut llc2 = FixedLlc::new(100);
        run_for(&mut fast, &mut llc1, 10_000);
        run_for(&mut slow, &mut llc2, 10_000);
        let ratio = fast.retired() as f64 / slow.retired() as f64;
        assert!(
            (ratio - 2.0).abs() < 0.1,
            "ALU throughput tracks the clock: {} vs {} (ratio {ratio})",
            fast.retired(),
            slow.retired()
        );
    }

    #[test]
    fn memory_bound_core_tolerates_down_clocking() {
        // Pointer-chasing misses dominate: wall time is mostly DRAM latency,
        // so halving the clock barely reduces retired instructions — the
        // asymmetry the coordinated DVFS minimizer exploits.
        let make = || {
            let mut i = 0u64;
            move || {
                i += 1;
                Instr::load(64, i * 4096).with_dep_prev_load(true)
            }
        };
        let cfg = CoreConfig::default();
        let mut fast = Core::new(CoreId(0), cfg, Box::new(make()));
        let mut slow = Core::new(CoreId(0), cfg, Box::new(make()));
        slow.set_clock_ratio(Cycle::ZERO, 2.0);
        let mut llc1 = FixedLlc::new(400);
        let mut llc2 = FixedLlc::new(400);
        run_for(&mut fast, &mut llc1, 40_000);
        run_for(&mut slow, &mut llc2, 40_000);
        let ratio = fast.retired() as f64 / slow.retired() as f64;
        assert!(
            ratio < 1.25,
            "memory-bound slowdown stays far under the clock ratio: {} vs {} (ratio {ratio})",
            fast.retired(),
            slow.retired()
        );
    }

    #[test]
    fn clock_ratio_roundtrip_and_gating() {
        let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(|| Instr::alu(0)));
        assert_eq!(core.clock_ratio(), 1.0);
        core.set_clock_ratio(Cycle::ZERO, 1.6);
        assert!((core.clock_ratio() - 1.6).abs() < 1e-12);
        let mut llc = FixedLlc::new(50);
        // Follow next_event until a core cycle makes progress (the first
        // steps just initiate the cold I-fetch), then verify the gate.
        let mut now = Cycle(0);
        loop {
            let out = core.step(now, &mut llc);
            if out.progressed {
                break;
            }
            now = out.next_event.max(now + 1);
        }
        let gated = core.step(now, &mut llc);
        assert!(!gated.progressed, "no second core cycle at the same cycle");
        assert!(gated.next_event > now);
    }

    #[test]
    fn step_next_event_skips_stall_gaps() {
        // Dependent loads with a slow LLC: while the single chain is
        // outstanding the core reports a wake cycle far in the future.
        let mut i = 0u64;
        let src = move || {
            i += 1;
            Instr::load(64, i * 4096).with_dep_prev_load(true)
        };
        let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(src));
        let mut llc = FixedLlc::new(400);
        // Fill the ROB until it stalls.
        let mut now = Cycle(0);
        let mut saw_skip = false;
        for _ in 0..20_000 {
            let out = core.step(now, &mut llc);
            if out.next_event.raw() > now.raw() + 50 {
                saw_skip = true;
            }
            now = out.next_event.max(now + 1);
        }
        assert!(saw_skip, "stalled core must advertise distant wake cycles");
    }

    /// A dependent strided chain: each load waits for the previous one, so
    /// demand misses serialize and the core cannot extract MLP on its own.
    /// The stride prefetcher locks onto the stride and runs ahead, turning
    /// serialized misses into (late-)prefetch hits.
    #[test]
    fn prefetcher_covers_streaming_loads() {
        let make = || {
            let mut i = 0u64;
            move || {
                i += 1;
                Instr::load(64, i * 64).with_dep_prev_load(true)
            }
        };
        let cfg = CoreConfig::default();
        let mut base = Core::new(CoreId(0), cfg, Box::new(make()));
        let mut pf = Core::new(CoreId(0), cfg, Box::new(make()));
        pf.set_prefetch_degree(4);
        let mut llc1 = FixedLlc::new(200);
        let mut llc2 = FixedLlc::new(200);
        run_for(&mut base, &mut llc1, 20_000);
        run_for(&mut pf, &mut llc2, 20_000);
        let s = pf.stats();
        assert_eq!(base.stats().prefetches.get(), 0, "degree 0 issues none");
        assert!(s.prefetches.get() > 100, "prefetches issued: {s:?}");
        assert!(
            s.prefetch_useful.get() * 2 > s.prefetches.get(),
            "a streaming pattern should be mostly useful: {s:?}"
        );
        assert!(
            pf.retired() > base.retired(),
            "covering a stream must help: {} vs {}",
            pf.retired(),
            base.retired()
        );
    }

    /// The prefetcher is a pure function of the demand stream: two
    /// identical cores produce bit-identical stats and port traffic.
    #[test]
    fn prefetching_is_deterministic() {
        let make = || {
            let mut i = 0u64;
            move || {
                i += 1;
                // A mix of strided and clashing accesses.
                Instr::load(64, (i * 192) % 300_000)
            }
        };
        let run = || {
            let mut core = Core::new(CoreId(0), CoreConfig::default(), Box::new(make()));
            core.set_prefetch_degree(2);
            let mut llc = FixedLlc::new(150);
            run_for(&mut core, &mut llc, 15_000);
            (format!("{:?}", core.stats()), llc.accesses.len())
        };
        assert_eq!(run(), run());
    }

    /// With a single L1 MSHR the demand miss occupies it; the prefetch
    /// candidate is dropped, never stalled on.
    #[test]
    fn prefetches_drop_on_mshr_pressure() {
        let mut i = 0u64;
        let src = move || {
            i += 1;
            Instr::load(64, i * 64)
        };
        let cfg = CoreConfig {
            l1_mshrs: 1,
            ..CoreConfig::default()
        };
        let mut core = Core::new(CoreId(0), cfg, Box::new(src));
        core.set_prefetch_degree(2);
        let mut llc = FixedLlc::new(300);
        run_for(&mut core, &mut llc, 10_000);
        let s = core.stats();
        assert!(s.prefetch_dropped.get() > 0, "drops expected: {s:?}");
        assert!(core.retired() > 0, "the core must keep making progress");
    }

    /// The per-entry retire loop `RobRing::pop_done` replaced: pop while
    /// the head is done and fewer than `max` have gone.
    fn pop_reference(ring: &mut RobRing, now: Cycle, max: usize) -> (usize, usize) {
        let (mut popped, mut mem) = (0, 0);
        while popped < max {
            match ring.front_done() {
                Some(done) if done <= now => {
                    let v = ring.slots[ring.head];
                    ring.head = (ring.head + 1) & ring.mask();
                    ring.len -= 1;
                    mem += (v & 1) as usize;
                    popped += 1;
                }
                _ => break,
            }
        }
        (popped, mem)
    }

    proptest::proptest! {
        #[test]
        fn rob_prefix_pop_matches_per_entry_loop(
            capacity in 1usize..40,
            rotate in 0usize..64,
            entries in proptest::collection::vec((0u64..64, proptest::prelude::any::<bool>()), 0..40),
            steps in proptest::collection::vec((0u64..80, 0usize..6), 1..12),
        ) {
            let mut ours = RobRing::new(capacity);
            let mut reference = RobRing::new(capacity);
            // Start the ring at an arbitrary slot so pops wrap around.
            for ring in [&mut ours, &mut reference] {
                ring.head = rotate & ring.mask();
                for &(done, is_mem) in entries.iter().take(capacity) {
                    ring.push_back(Cycle(done), is_mem);
                }
            }
            for &(now, max) in &steps {
                proptest::prop_assert_eq!(
                    ours.pop_done(Cycle(now), max),
                    pop_reference(&mut reference, Cycle(now), max),
                    "now {}, max {}",
                    now,
                    max
                );
                proptest::prop_assert_eq!((ours.head, ours.len), (reference.head, reference.len));
            }
        }
    }
}
