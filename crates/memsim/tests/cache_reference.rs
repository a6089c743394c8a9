//! Differential property tests: the L1 [`Cache`] must behave exactly like
//! a plain model built from one reference [`CacheSet`] per set, on any mix
//! of reads, writes, probes and flushes, at every associativity it
//! supports (1, 2 and 4 ways). Wider sets are the LLC's business and are
//! covered against the same oracle by `arena_reference.rs`.
//!
//! Every access compares hit and write-back; after every operation the
//! read/write/miss/write-back counters must agree too. Footprints of a few
//! times the capacity make hits, clean and dirty evictions all common.

use memsim::cache::AccessResult;
use memsim::{Cache, CacheGeometry, CacheSet, WayMask};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::types::{CoreId, LineAddr};

const OWNER: CoreId = CoreId(0);

/// Write-back, write-allocate, true-LRU cache over reference sets.
struct ReferenceCache {
    geom: CacheGeometry,
    sets: Vec<CacheSet>,
    reads: u64,
    writes: u64,
    misses: u64,
    writebacks: u64,
}

impl ReferenceCache {
    fn new(geom: CacheGeometry) -> ReferenceCache {
        ReferenceCache {
            geom,
            sets: (0..geom.sets())
                .map(|_| CacheSet::new(geom.ways()))
                .collect(),
            reads: 0,
            writes: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn all(&self) -> WayMask {
        WayMask::all(self.geom.ways())
    }

    fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        if write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        let all = self.all();
        let set_idx = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let set = &mut self.sets[set_idx];
        if let Some(w) = set.find(tag, all) {
            set.touch(w);
            if write {
                set.line_mut(w).dirty = true;
            }
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.misses += 1;
        let victim = set.victim(all).expect("non-empty mask");
        let prev = set.fill(victim, tag, OWNER, write);
        let writeback = if prev.valid && prev.dirty {
            self.writebacks += 1;
            Some(self.geom.line_from(prev.tag, set_idx))
        } else {
            None
        };
        AccessResult {
            hit: false,
            writeback,
        }
    }

    fn probe(&self, line: LineAddr) -> bool {
        let set = &self.sets[self.geom.set_index(line)];
        set.find(self.geom.tag(line), self.all()).is_some()
    }

    fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            for w in 0..set.ways() {
                let prev = set.invalidate(w);
                dirty += (prev.valid && prev.dirty) as u64;
            }
        }
        self.writebacks += dirty;
        dirty
    }
}

fn run_stream(geom: CacheGeometry, ops: Vec<(u8, u64, bool)>) -> Result<(), TestCaseError> {
    let mut cache = Cache::new(geom);
    let mut reference = ReferenceCache::new(geom);
    let footprint = 4 * geom.size_bytes();
    for (kind, raw, write) in ops {
        let line = LineAddr::from_byte_addr(OWNER, raw % footprint, geom.line_bytes());
        match kind {
            0 => prop_assert_eq!(cache.probe(line), reference.probe(line), "probe"),
            1 => prop_assert_eq!(cache.flush_all(), reference.flush_all(), "flush"),
            _ => prop_assert_eq!(
                cache.access(line, write),
                reference.access(line, write),
                "access {:?} write {}",
                line,
                write
            ),
        }
        let s = cache.stats();
        prop_assert_eq!(
            (
                s.read_accesses.get(),
                s.write_accesses.get(),
                s.misses.get(),
                s.writebacks.get()
            ),
            (
                reference.reads,
                reference.writes,
                reference.misses,
                reference.writebacks
            ),
            "counters"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn cache_matches_reference_2way(
        ops in proptest::collection::vec((0u8..64, any::<u64>(), any::<bool>()), 1..600),
    ) {
        run_stream(CacheGeometry::new(512, 2, 64), ops)?;
    }

    #[test]
    fn cache_matches_reference_4way_l1(
        ops in proptest::collection::vec((0u8..64, any::<u64>(), any::<bool>()), 1..600),
    ) {
        // The L1 shape: 32 KB, 4-way, 64 B lines (128 sets). A 128 KB
        // footprint over 600 ops is mostly misses, so also replay each
        // stream folded into 2 KB for hit-heavy traffic.
        run_stream(CacheGeometry::new(32 << 10, 4, 64), ops.clone())?;
        let folded = ops.into_iter().map(|(k, a, w)| (k, a % (2 << 10), w)).collect();
        run_stream(CacheGeometry::new(32 << 10, 4, 64), folded)?;
    }

    #[test]
    fn cache_matches_reference_1way(
        ops in proptest::collection::vec((0u8..64, any::<u64>(), any::<bool>()), 1..600),
    ) {
        // Direct-mapped: every miss evicts the set's only line.
        run_stream(CacheGeometry::new(1 << 10, 1, 64), ops)?;
    }
}

/// The one-record-per-set layout holds at most four ways; a wider L1 is a
/// configuration error, not a silent fallback.
#[test]
#[should_panic(expected = "at most 4 ways")]
fn eight_way_l1_is_rejected() {
    Cache::new(CacheGeometry::new(32 << 10, 8, 64));
}
