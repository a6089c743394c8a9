//! Cooperative takeover: takeover bit vectors and transition tracking
//! (paper Sections 2.3-2.4, Figure 4).
//!
//! When a partitioning decision moves a way between cores, the donor keeps
//! read-only access while the recipient gains read+write. Each core has a
//! *takeover bit vector* with one bit per cache set; the vector of every
//! donor involved in a decision is reset when the transition starts.
//! Whenever the donor **or** the recipient touches a set (hit or miss), the
//! donor's dirty data in the moving way is flushed, and the donor's bit for
//! that set is recorded. Once every bit is set, the whole way has been
//! visited, no donor data can remain, and the recipient takes full ownership
//! (the donor's read permission is withdrawn).
//!
//! This module owns the vectors, the in-flight [`Transition`] list and the
//! Figure-14 event statistics; the cache-line mutations (flush/invalidate)
//! are performed by the LLC, which owns the data arrays.

use simkit::types::{CoreId, Cycle};

/// Which kind of access set a takeover bit (Figure 14's four categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TakeoverEventKind {
    /// The donor hit in the cache while giving a way away.
    DonorHit,
    /// The donor missed.
    DonorMiss,
    /// The recipient hit.
    RecipientHit,
    /// The recipient missed.
    RecipientMiss,
}

impl TakeoverEventKind {
    /// All four kinds, in the paper's legend order.
    pub const ALL: [TakeoverEventKind; 4] = [
        TakeoverEventKind::RecipientMiss,
        TakeoverEventKind::RecipientHit,
        TakeoverEventKind::DonorMiss,
        TakeoverEventKind::DonorHit,
    ];

    /// Legend label as in Figure 14.
    pub fn label(self) -> &'static str {
        match self {
            TakeoverEventKind::DonorHit => "Donor Hits",
            TakeoverEventKind::DonorMiss => "Donor Misses",
            TakeoverEventKind::RecipientHit => "Recipient Hits",
            TakeoverEventKind::RecipientMiss => "Recipient Misses",
        }
    }
}

/// One in-flight way transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The way being transferred.
    pub way: usize,
    /// The core giving the way up.
    pub donor: CoreId,
    /// The core receiving it, or `None` when the way is draining toward
    /// power-off.
    pub recipient: Option<CoreId>,
    /// Cycle the transition began.
    pub started: Cycle,
    /// Epoch index of the decision that created it (for timeouts).
    pub epoch: u64,
}

/// Result of recording a set visit in a donor's vector.
#[derive(Debug, Clone, Default)]
pub struct MarkOutcome {
    /// The bit was newly set (an "event" in Figure 14 terms).
    pub newly_set: bool,
    /// Transitions completed by this mark (vector became full).
    pub completed: Vec<Transition>,
}

/// Takeover bit vectors and in-flight transitions for the whole LLC.
#[derive(Debug, Clone)]
pub struct TakeoverState {
    sets: usize,
    cores: usize,
    /// Per-core bit vector, one bit per set.
    vectors: Vec<Vec<u64>>,
    /// Per-core count of set bits (completion check without scanning).
    bits_set: Vec<usize>,
    transitions: Vec<Transition>,
    /// Event counts in [`TakeoverEventKind::ALL`] order.
    events: [u64; 4],
    /// Durations of completed transfers, in cycles.
    durations: Vec<u64>,
    /// Transfers force-completed by the epoch timeout.
    forced: u64,
}

impl TakeoverState {
    /// Creates state for `sets` sets and `cores` cores with no transitions.
    pub fn new(sets: usize, cores: usize) -> TakeoverState {
        let words = sets.div_ceil(64);
        TakeoverState {
            sets,
            cores,
            vectors: vec![vec![0u64; words]; cores],
            bits_set: vec![0; cores],
            transitions: Vec::new(),
            events: [0; 4],
            durations: Vec::new(),
            forced: 0,
        }
    }

    /// In-flight transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// True when any transition is in flight.
    pub fn active(&self) -> bool {
        !self.transitions.is_empty()
    }

    /// Ways core `c` is currently donating.
    pub fn donating_ways(&self, c: CoreId) -> impl Iterator<Item = usize> + '_ {
        self.transitions
            .iter()
            .filter(move |t| t.donor == c)
            .map(|t| t.way)
    }

    /// `(way, donor)` pairs core `c` is currently receiving.
    pub fn receiving_ways(&self, c: CoreId) -> impl Iterator<Item = (usize, CoreId)> + '_ {
        self.transitions
            .iter()
            .filter(move |t| t.recipient == Some(c))
            .map(|t| (t.way, t.donor))
    }

    /// Whether donor `c`'s bit for `set` is already set.
    pub fn bit(&self, c: CoreId, set: usize) -> bool {
        (self.vectors[c.index()][set / 64] >> (set % 64)) & 1 == 1
    }

    /// Starts a group of transitions from one partitioning decision. The bit
    /// vector of every involved donor is reset (paper: even if that donor
    /// still has an older transition in flight — the older one just takes
    /// longer).
    ///
    /// # Panics
    ///
    /// Panics if a transition names a core outside `0..cores` — each core
    /// owns exactly one bit vector, so an out-of-range donor has no vector
    /// to track its drain.
    pub fn begin(&mut self, transitions: Vec<Transition>) {
        for t in &transitions {
            assert!(
                t.donor.index() < self.cores,
                "donor {:?} out of range for {} cores",
                t.donor,
                self.cores
            );
            if let Some(r) = t.recipient {
                assert!(
                    r.index() < self.cores,
                    "recipient {r:?} out of range for {} cores",
                    self.cores
                );
            }
            let d = t.donor.index();
            self.vectors[d].iter_mut().for_each(|w| *w = 0);
            self.bits_set[d] = 0;
        }
        self.transitions.extend(transitions);
    }

    /// Records that `set` was visited on behalf of donor `donor`, counting
    /// an event of `kind` if the bit was newly set. When the donor's vector
    /// becomes full, all of that donor's transitions complete and are
    /// returned.
    pub fn mark(
        &mut self,
        now: Cycle,
        donor: CoreId,
        set: usize,
        kind: TakeoverEventKind,
    ) -> MarkOutcome {
        let d = donor.index();
        let word = &mut self.vectors[d][set / 64];
        let bit = 1u64 << (set % 64);
        if *word & bit != 0 {
            return MarkOutcome::default();
        }
        *word |= bit;
        self.bits_set[d] += 1;
        let idx = TakeoverEventKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL");
        self.events[idx] += 1;
        let mut completed = Vec::new();
        if self.bits_set[d] == self.sets {
            let (done, rest): (Vec<_>, Vec<_>) =
                self.transitions.iter().partition(|t| t.donor == donor);
            self.transitions = rest;
            for t in &done {
                self.durations.push(now.since(t.started));
            }
            completed = done;
        }
        MarkOutcome {
            newly_set: true,
            completed,
        }
    }

    /// Removes and returns transitions satisfying `pred` without requiring
    /// their vectors to be full (force-completion: epoch timeout or a way
    /// being re-assigned). Durations are still recorded.
    pub fn force_complete<F: Fn(&Transition) -> bool>(
        &mut self,
        now: Cycle,
        pred: F,
    ) -> Vec<Transition> {
        let (done, rest): (Vec<_>, Vec<_>) = self.transitions.iter().partition(|t| pred(t));
        self.transitions = rest;
        for t in &done {
            self.durations.push(now.since(t.started));
            self.forced += 1;
        }
        done
    }

    /// Figure-14 event counts, in [`TakeoverEventKind::ALL`] order.
    pub fn event_counts(&self) -> [u64; 4] {
        self.events
    }

    /// Durations (cycles) of completed transfers.
    pub fn durations(&self) -> &[u64] {
        &self.durations
    }

    /// Number of transfers that hit the force-complete path.
    pub fn forced_count(&self) -> u64 {
        self.forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(way: usize, donor: u8, recipient: Option<u8>) -> Transition {
        Transition {
            way,
            donor: CoreId(donor),
            recipient: recipient.map(CoreId),
            started: Cycle(100),
            epoch: 0,
        }
    }

    #[test]
    fn figure4_walkthrough() {
        // 4 sets (a,b,c,d = 0..4), core 1 donates way 2 to core 0.
        let mut st = TakeoverState::new(4, 2);
        st.begin(vec![tr(2, 1, Some(0))]);
        assert!(st.active());
        assert_eq!(st.donating_ways(CoreId(1)).collect::<Vec<_>>(), vec![2]);
        assert_eq!(
            st.receiving_ways(CoreId(0)).collect::<Vec<_>>(),
            vec![(2, CoreId(1))]
        );

        // Step 2: core 1 read hit in set c (2).
        let m = st.mark(Cycle(110), CoreId(1), 2, TakeoverEventKind::DonorHit);
        assert!(m.newly_set && m.completed.is_empty());
        // Step 3: core 0 write miss in set b (1).
        st.mark(Cycle(120), CoreId(1), 1, TakeoverEventKind::RecipientMiss);
        // Step 4: core 0 read hit in set d (3).
        st.mark(Cycle(130), CoreId(1), 3, TakeoverEventKind::RecipientHit);
        // Step 5: core 1 read hit in set b again: bit already set, no event.
        let m = st.mark(Cycle(140), CoreId(1), 1, TakeoverEventKind::DonorHit);
        assert!(!m.newly_set);
        // Step 6: core 1 read miss in set a (0): vector full, way complete.
        let m = st.mark(Cycle(150), CoreId(1), 0, TakeoverEventKind::DonorMiss);
        assert!(m.newly_set);
        assert_eq!(m.completed.len(), 1);
        assert_eq!(m.completed[0].way, 2);
        assert!(!st.active());
        assert_eq!(st.durations(), &[50]);
        // Events: 1 donor hit, 1 donor miss, 1 recipient hit, 1 recipient miss.
        assert_eq!(st.event_counts().iter().sum::<u64>(), 4);
    }

    #[test]
    fn donor_vector_is_shared_across_its_ways() {
        let mut st = TakeoverState::new(2, 2);
        st.begin(vec![tr(0, 1, Some(0)), tr(3, 1, None)]);
        st.mark(Cycle(0), CoreId(1), 0, TakeoverEventKind::DonorHit);
        let m = st.mark(Cycle(10), CoreId(1), 1, TakeoverEventKind::DonorMiss);
        // Both of donor 1's transitions complete together.
        assert_eq!(m.completed.len(), 2);
    }

    #[test]
    fn begin_resets_only_involved_donors() {
        let mut st = TakeoverState::new(2, 3);
        st.begin(vec![tr(0, 1, Some(0))]);
        st.mark(Cycle(0), CoreId(1), 0, TakeoverEventKind::DonorHit);
        assert!(st.bit(CoreId(1), 0));
        // A new decision involving donor 2 must not clear donor 1's bits.
        st.begin(vec![tr(1, 2, Some(0))]);
        assert!(st.bit(CoreId(1), 0));
        // But a new donation by donor 1 resets its vector (paper 2.3).
        st.begin(vec![tr(2, 1, Some(2))]);
        assert!(!st.bit(CoreId(1), 0));
    }

    #[test]
    fn force_complete_filters_and_counts() {
        let mut st = TakeoverState::new(8, 2);
        let mut old = tr(0, 1, Some(0));
        old.epoch = 0;
        let mut new = tr(1, 0, Some(1));
        new.epoch = 3;
        st.begin(vec![old, new]);
        let done = st.force_complete(Cycle(500), |t| t.epoch < 2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].way, 0);
        assert_eq!(st.forced_count(), 1);
        assert_eq!(st.transitions().len(), 1);
    }

    #[test]
    fn large_vector_completion_requires_every_set() {
        let sets = 300; // crosses word boundaries
        let mut st = TakeoverState::new(sets, 2);
        st.begin(vec![tr(5, 0, Some(1))]);
        for s in 0..sets - 1 {
            let m = st.mark(Cycle(s as u64), CoreId(0), s, TakeoverEventKind::DonorHit);
            assert!(m.completed.is_empty(), "set {s} should not complete");
        }
        let m = st.mark(
            Cycle(1000),
            CoreId(0),
            sets - 1,
            TakeoverEventKind::RecipientMiss,
        );
        assert_eq!(m.completed.len(), 1);
    }

    #[test]
    fn event_order_matches_paper_legend() {
        assert_eq!(TakeoverEventKind::ALL[0].label(), "Recipient Misses");
        assert_eq!(TakeoverEventKind::ALL[3].label(), "Donor Hits");
    }

    #[test]
    #[should_panic(expected = "donor")]
    fn begin_rejects_out_of_range_donor() {
        let mut st = TakeoverState::new(4, 2);
        st.begin(vec![tr(0, 5, Some(0))]);
    }

    #[test]
    #[should_panic(expected = "recipient")]
    fn begin_rejects_out_of_range_recipient() {
        let mut st = TakeoverState::new(4, 2);
        st.begin(vec![tr(0, 1, Some(9))]);
    }

    #[test]
    fn takeover_never_leaves_a_core_with_zero_ways() {
        // Drive the full cooperative state machine (allocation -> RAP/WAP ->
        // takeover) with an adversarial mix — core 0 streams with no reuse,
        // so the allocator squeezes it toward the minimum every epoch while
        // core 1's hot loop keeps forcing transitions. At every step each
        // core must (a) keep at least one target way and (b) keep read
        // access to at least one powered way: a zero-way core could not
        // cache at all, which the paper's per-core minimum forbids.
        use crate::config::LlcConfig;
        use crate::llc::PartitionedLlc;
        use crate::registry::{PolicyRegistry, PolicySpec};
        use crate::SchemeKind;
        use memsim::{CacheGeometry, Dram, DramConfig};
        use simkit::types::LineAddr;

        let cfg = LlcConfig {
            geom: CacheGeometry::new(32 << 10, 8, 64),
            hit_latency: 15,
            mshrs: 32,
            scheme: SchemeKind::Cooperative,
            epoch_cycles: 20_000,
            threshold: 0.03,
            umon_shift: 0,
            seed: 11,
            transition_timeout_epochs: 1,
        };
        let cores = 2;
        let mut policy = PolicyRegistry::core()
            .build("cooperative", &PolicySpec::for_llc(&cfg, cores))
            .expect("registered");
        let mut llc = PartitionedLlc::for_policy(cfg, cores, policy.as_ref());
        let mut dram = Dram::new(DramConfig::default());
        let mut now = Cycle(0);
        let mut next_epoch = Cycle(20_000);
        for r in 0..40_000u64 {
            // Core 0: pure stream. Core 1: 2-way hot set, phase-shifted
            // every 10k rounds to keep repartitioning live.
            llc.access(
                now,
                CoreId(0),
                LineAddr::from_byte_addr(CoreId(0), r * 64, 64),
                false,
                &mut dram,
            );
            now += 20;
            let base = (r / 10_000) * 64 * 64 * 16;
            let set = r % 8;
            for k in 0..2 {
                let byte = base + set * 64 + k * 64 * 64;
                llc.access(
                    now,
                    CoreId(1),
                    LineAddr::from_byte_addr(CoreId(1), byte, 64),
                    false,
                    &mut dram,
                );
                now += 20;
            }
            if now >= next_epoch {
                let obs = llc.epoch_observations(now, vec![]);
                let decision = policy.on_epoch(&obs);
                llc.apply_decision(now, &mut dram, &decision);
                next_epoch = now + 20_000;
                let alloc = llc.current_allocation();
                for (c, &w) in alloc.iter().enumerate() {
                    assert!(
                        w >= 1,
                        "epoch left core {c} with zero target ways: {alloc:?}"
                    );
                }
                for c in 0..cores {
                    let readable = llc.permissions().read_mask(CoreId(c as u8));
                    assert!(
                        !readable.is_empty(),
                        "core {c} lost read access to every way"
                    );
                }
                assert!(llc.permissions().check_invariants().is_ok());
            }
        }
        // The adversarial mix must actually have exercised transitions.
        assert!(
            llc.stats().repartitions.get() > 0,
            "scenario never repartitioned; the invariant was not stressed"
        );
    }
}
