//! Miss-status holding registers (MSHRs) with request merging.
//!
//! An MSHR file tracks outstanding misses by line address. A second miss to a
//! line already in flight merges (it completes when the first fill returns),
//! and a full file back-pressures the requester.

use simkit::types::{Cycle, LineAddr};
use simkit::Counter;

/// Outcome of asking the MSHR file to track a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated; the caller must schedule the fill and call
    /// [`MshrFile::set_completion`].
    Allocated,
    /// The line was already outstanding; it completes at the given cycle.
    Merged(Cycle),
    /// No free entry; retry once an in-flight miss completes (hint cycle).
    Full(Cycle),
}

/// A fixed-capacity MSHR file.
///
/// Entries expire automatically: any entry whose completion is `<= now` at
/// the time of [`MshrFile::begin`] is retired and reclaimed. The entries
/// are two parallel arrays of (line, completion), the live ones packed at
/// the front, so expiry is one pass and lookups scan the live entries
/// only. On the benchmark workloads this runs no slower than a hashed map
/// with a min-heap of completions kept in step with it.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// Line of each entry; `lines[i]` completes at `done[i]`.
    lines: Vec<u64>,
    /// Fill completion of each entry.
    done: Vec<Cycle>,
    /// Merged (secondary) misses observed.
    pub merges: Counter,
    /// Times the file was full and stalled a requester.
    pub stalls: Counter,
}

impl MshrFile {
    /// Creates a file with room for `capacity` outstanding misses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> MshrFile {
        assert!(capacity > 0);
        MshrFile {
            capacity,
            lines: Vec::with_capacity(capacity),
            done: Vec::with_capacity(capacity),
            merges: Counter::default(),
            stalls: Counter::default(),
        }
    }

    /// Number of live (not yet completed) entries at `now`.
    pub fn live(&self, now: Cycle) -> usize {
        self.done.iter().filter(|&&c| c > now).count()
    }

    /// Tries to track a miss on `line` at cycle `now`.
    pub fn begin(&mut self, now: Cycle, line: LineAddr) -> MshrOutcome {
        self.expire(now);
        // After expiry every entry completes after `now`.
        if let Some(i) = self.index_of(line) {
            self.merges.inc();
            return MshrOutcome::Merged(self.done[i]);
        }
        if self.lines.len() >= self.capacity {
            self.stalls.inc();
            let earliest = self.done.iter().copied().min();
            return MshrOutcome::Full(earliest.expect("a full file holds entries"));
        }
        MshrOutcome::Allocated
    }

    /// Records the fill completion time for a miss [`MshrFile::begin`] just
    /// admitted. The entry is created here: callers schedule the fill and
    /// call this immediately after an `Allocated` outcome, before any other
    /// MSHR operation.
    pub fn set_completion(&mut self, line: LineAddr, done: Cycle) {
        match self.index_of(line) {
            Some(i) => self.done[i] = done,
            None => {
                self.lines.push(line.raw());
                self.done.push(done);
            }
        }
    }

    /// Completion cycle of an outstanding line, if any.
    pub fn completion_of(&self, line: LineAddr) -> Option<Cycle> {
        self.index_of(line).map(|i| self.done[i])
    }

    /// Earliest scheduled fill strictly after `now`, if any — the MSHR
    /// file's contribution to a wake-list entry: a requester stalled on a
    /// full file can next make progress when this fill lands. Pure (no
    /// expiry side effects), so schedulers may poll it freely.
    pub fn next_completion(&self, now: Cycle) -> Option<Cycle> {
        self.done.iter().copied().filter(|&c| c > now).min()
    }

    fn index_of(&self, line: LineAddr) -> Option<usize> {
        self.lines.iter().position(|&l| l == line.raw())
    }

    /// Drops entries that completed at or before `now`, packing the live
    /// ones at the front in their order.
    fn expire(&mut self, now: Cycle) {
        let mut kept = 0;
        for i in 0..self.lines.len() {
            if self.done[i] > now {
                self.lines[kept] = self.lines[i];
                self.done[kept] = self.done[i];
                kept += 1;
            }
        }
        self.lines.truncate(kept);
        self.done.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use simkit::types::CoreId;
    use simkit::DetRng;

    fn la(n: u64) -> LineAddr {
        LineAddr::from_byte_addr(CoreId(0), n * 64, 64)
    }

    /// The reference model: a map from line to completion, expired with
    /// `retain` before every `begin`.
    struct Reference {
        capacity: usize,
        entries: BTreeMap<u64, Cycle>,
    }

    impl Reference {
        fn begin(&mut self, now: Cycle, line: LineAddr) -> MshrOutcome {
            self.entries.retain(|_, &mut done| done > now);
            if let Some(&done) = self.entries.get(&line.raw()) {
                return MshrOutcome::Merged(done);
            }
            if self.entries.len() >= self.capacity {
                let earliest = self.entries.values().min().copied();
                return MshrOutcome::Full(earliest.expect("full"));
            }
            MshrOutcome::Allocated
        }
    }

    /// Random operation sequences agree with the reference model: every
    /// outcome, every completion lookup, the earliest fill, the live count
    /// and both counters. Time moves in small steps and fills take a few
    /// cycles, so operations often land exactly on a completion.
    #[test]
    fn matches_the_reference_model() {
        for capacity in [1, 2, 16, 128] {
            for seed in 0..40u64 {
                let mut rng = DetRng::from_seed(seed ^ ((capacity as u64) << 32));
                let mut file = MshrFile::new(capacity);
                let mut reference = Reference {
                    capacity,
                    entries: BTreeMap::new(),
                };
                let lines = 2 * capacity as u64 + 2;
                let mut now = Cycle(0);
                let (mut merges, mut stalls) = (0, 0);
                for step in 0..2_000 {
                    let at = format!("capacity {capacity} seed {seed} step {step}");
                    now += rng.below(4);
                    let line = la(rng.below(lines));
                    let outcome = file.begin(now, line);
                    assert_eq!(outcome, reference.begin(now, line), "{at}");
                    match outcome {
                        MshrOutcome::Allocated => {
                            let done = now + 1 + rng.below(24);
                            file.set_completion(line, done);
                            reference.entries.insert(line.raw(), done);
                        }
                        MshrOutcome::Merged(_) => merges += 1,
                        MshrOutcome::Full(_) => stalls += 1,
                    }
                    let probe = la(rng.below(lines));
                    assert_eq!(
                        file.completion_of(probe),
                        reference.entries.get(&probe.raw()).copied(),
                        "{at}"
                    );
                    let later = now + rng.below(8);
                    let next = reference.entries.values().filter(|&&d| d > later).min();
                    assert_eq!(file.next_completion(later), next.copied(), "{at}");
                    let live = reference.entries.values().filter(|&&d| d > later).count();
                    assert_eq!(file.live(later), live, "{at}");
                }
                assert_eq!((file.merges.get(), file.stalls.get()), (merges, stalls));
            }
        }
    }

    #[test]
    fn allocate_then_merge() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.begin(Cycle(0), la(1)), MshrOutcome::Allocated);
        m.set_completion(la(1), Cycle(400));
        assert_eq!(m.begin(Cycle(10), la(1)), MshrOutcome::Merged(Cycle(400)));
        assert_eq!(m.merges.get(), 1);
        assert_eq!(m.completion_of(la(1)), Some(Cycle(400)));
    }

    #[test]
    fn full_file_stalls_with_hint() {
        let mut m = MshrFile::new(2);
        m.begin(Cycle(0), la(1));
        m.set_completion(la(1), Cycle(100));
        m.begin(Cycle(0), la(2));
        m.set_completion(la(2), Cycle(200));
        match m.begin(Cycle(0), la(3)) {
            MshrOutcome::Full(hint) => assert_eq!(hint, Cycle(100)),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(m.stalls.get(), 1);
    }

    #[test]
    fn completed_entries_are_reclaimed() {
        let mut m = MshrFile::new(2);
        m.begin(Cycle(0), la(1));
        m.set_completion(la(1), Cycle(100));
        m.begin(Cycle(0), la(2));
        m.set_completion(la(2), Cycle(100));
        // At cycle 150 both retired; new allocations succeed.
        assert_eq!(m.live(Cycle(150)), 0);
        assert_eq!(m.begin(Cycle(150), la(3)), MshrOutcome::Allocated);
        assert_eq!(m.begin(Cycle(150), la(4)), MshrOutcome::Allocated);
    }

    #[test]
    fn expired_entry_is_not_merged() {
        let mut m = MshrFile::new(4);
        m.begin(Cycle(0), la(1));
        m.set_completion(la(1), Cycle(50));
        // After completion, a new miss to the same line allocates afresh.
        assert_eq!(m.begin(Cycle(60), la(1)), MshrOutcome::Allocated);
    }

    #[test]
    fn next_completion_tracks_earliest_inflight_fill() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.next_completion(Cycle(0)), None);
        m.begin(Cycle(0), la(1));
        m.set_completion(la(1), Cycle(300));
        m.begin(Cycle(0), la(2));
        m.set_completion(la(2), Cycle(120));
        assert_eq!(m.next_completion(Cycle(0)), Some(Cycle(120)));
        // Matches the Full() back-pressure hint for a stalled requester.
        m.begin(Cycle(0), la(3));
        m.set_completion(la(3), Cycle(500));
        m.begin(Cycle(0), la(4));
        m.set_completion(la(4), Cycle(501));
        match m.begin(Cycle(10), la(5)) {
            MshrOutcome::Full(hint) => {
                assert_eq!(Some(hint), m.next_completion(Cycle(10)));
            }
            other => panic!("expected Full, got {other:?}"),
        }
        // Past the earliest fill, only later ones remain.
        assert_eq!(m.next_completion(Cycle(120)), Some(Cycle(300)));
        assert_eq!(m.next_completion(Cycle(501)), None);
    }

    #[test]
    fn live_counts_only_inflight() {
        let mut m = MshrFile::new(4);
        m.begin(Cycle(0), la(1));
        m.set_completion(la(1), Cycle(10));
        m.begin(Cycle(0), la(2));
        m.set_completion(la(2), Cycle(1000));
        assert_eq!(m.live(Cycle(5)), 2);
        assert_eq!(m.live(Cycle(500)), 1);
    }
}
