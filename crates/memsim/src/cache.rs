//! A plain set-associative write-back cache, used for the private L1
//! instruction and data caches.
//!
//! # Why the L1 has its own layout
//!
//! Every dispatched instruction can touch an L1 (an I-line change or a
//! data reference), so the L1 lookup runs far more often than any LLC
//! path. The LLC's [`crate::SetArena`] spreads one set over three slabs
//! (tags, metadata bytes, validity/order heads) to serve masked lookups at
//! up to 64 ways, which costs three host cache lines and about a hundred
//! instructions per access. An L1 needs none of the masking, so [`Cache`]
//! keeps each set in one 64-byte record instead: four tags, a validity and
//! a dirty bitmask, and an 8-bit LRU permutation (two bits per position)
//! that a 256×4 const table updates in one load. A lookup is one host
//! cache line and a handful of compares.
//!
//! The price is a hard limit: **at most 4 ways** (the paper's L1s are
//! 4-way). [`Cache::new`] panics on wider geometries; wider structures use
//! [`crate::SetArena`], whose reference oracle is [`crate::CacheSet`].
//! `tests/cache_reference.rs` property-tests this cache against a model
//! built from `CacheSet`s at 1, 2 and 4 ways.

use simkit::types::LineAddr;
use simkit::Counter;

use crate::addr::CacheGeometry;

/// Widest associativity the one-record-per-set layout holds.
pub const MAX_WAYS: usize = 4;

/// Hit/miss and traffic statistics for one cache.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheStats {
    /// Demand read accesses (loads / instruction fetches).
    pub read_accesses: Counter,
    /// Demand write accesses (stores).
    pub write_accesses: Counter,
    /// Misses of either kind.
    pub misses: Counter,
    /// Dirty lines written back to the next level.
    pub writebacks: Counter,
}

impl CacheStats {
    /// Total demand accesses.
    pub fn accesses(&self) -> u64 {
        self.read_accesses.get() + self.write_accesses.get()
    }

    /// Miss ratio over demand accesses, or 0 when idle.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses.get() as f64 / a as f64
        }
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the access hit.
    pub hit: bool,
    /// A dirty victim line evicted by the fill, to be written back below.
    pub writeback: Option<LineAddr>,
}

/// The identity order: position `p` holds way `p`.
const IDENTITY_ORDER: u8 = 0b11_10_01_00;

/// `TOUCH[order][way]`: the order after `way` becomes most recently used.
///
/// An order is a permutation of the four ways, two bits per recency
/// position, MRU at bits 0–1 and LRU at bits 6–7. Touching lifts the way
/// out of its position and reinserts it at the MRU end; positions behind
/// it keep their order. Narrower caches never touch ways at or above
/// their associativity, so those stay parked, in identity order, at the
/// LRU end and the real ways' order sits in the low positions.
static TOUCH: [[u8; MAX_WAYS]; 256] = touch_table();

const fn touch_table() -> [[u8; MAX_WAYS]; 256] {
    let mut table = [[0u8; MAX_WAYS]; 256];
    let mut order = 0;
    while order < 256 {
        let mut way = 0;
        while way < MAX_WAYS {
            // The way's position; bytes that are not permutations (never
            // reached from the identity) treat a missing way as LRU.
            let mut pos = MAX_WAYS - 1;
            let mut p = MAX_WAYS;
            while p > 0 {
                p -= 1;
                if (order >> (2 * p)) & 3 == way {
                    pos = p;
                }
            }
            let below = (1usize << (2 * pos)) - 1;
            let rest = (order & below) | ((order >> 2) & !below);
            table[order][way] = (((rest << 2) | way) & 0xFF) as u8;
            way += 1;
        }
        order += 1;
    }
    table
}

/// One set: everything a lookup reads, in one host cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct SetRecord {
    /// Tag of way `w` (stale in invalid ways; masked by `valid`).
    tags: [u64; MAX_WAYS],
    /// Bit `w` = way `w` holds valid data.
    valid: u8,
    /// Bit `w` = way `w` is dirty (meaningful only where valid).
    dirty: u8,
    /// LRU permutation (see [`TOUCH`]).
    order: u8,
}

impl SetRecord {
    const EMPTY: SetRecord = SetRecord {
        tags: [0; MAX_WAYS],
        valid: 0,
        dirty: 0,
        order: IDENTITY_ORDER,
    };

    /// Bitmask of the valid ways holding `tag`: every tag compared, no
    /// branch on which way matched.
    #[inline]
    fn matches(&self, tag: u64) -> u8 {
        let eq = (self.tags[0] == tag) as u8
            | ((self.tags[1] == tag) as u8) << 1
            | ((self.tags[2] == tag) as u8) << 2
            | ((self.tags[3] == tag) as u8) << 3;
        eq & self.valid
    }

    /// The way of recency position `pos` (0 = MRU).
    #[inline]
    fn way_at(&self, pos: usize) -> usize {
        ((self.order >> (2 * pos)) & 3) as usize
    }

    /// The fill target of a miss: the LRU-most invalid way if any (as
    /// [`crate::SetArena::victim`] prefers), else the LRU way.
    #[inline]
    fn victim(&self, ways: usize, full: u8) -> usize {
        let invalid = full & !self.valid;
        if invalid != 0 {
            for pos in (0..ways).rev() {
                let w = self.way_at(pos);
                if (invalid >> w) & 1 == 1 {
                    return w;
                }
            }
        }
        self.way_at(ways - 1)
    }
}

/// A private set-associative write-back, write-allocate cache with true
/// LRU, at most [`MAX_WAYS`] ways (see the module docs).
///
/// Fills happen immediately on miss (the timing of the fill is the caller's
/// concern; see `cpusim::core` for how miss latency is applied), which is the
/// standard approach in trace-driven cache models.
///
/// ```
/// use memsim::{Cache, CacheGeometry};
/// use simkit::types::{CoreId, LineAddr};
///
/// let mut l1 = Cache::new(CacheGeometry::new(32 << 10, 4, 64));
/// let a = LineAddr::from_byte_addr(CoreId(0), 0x40, 64);
/// assert!(!l1.access(a, false).hit); // cold miss
/// assert!(l1.access(a, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    /// One record per set, allocated by the first access so that building
    /// a system (once per sweep cell) writes no L1 memory.
    sets: Vec<SetRecord>,
    /// Bitmask of the cache's ways.
    full: u8,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than [`MAX_WAYS`] ways.
    pub fn new(geom: CacheGeometry) -> Cache {
        assert!(
            geom.ways() <= MAX_WAYS,
            "an L1 cache holds at most {MAX_WAYS} ways, got {}",
            geom.ways()
        );
        Cache {
            geom,
            sets: Vec::new(),
            full: ((1u32 << geom.ways()) - 1) as u8,
            stats: CacheStats::default(),
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Performs a demand access; on a miss the line is allocated (evicting
    /// the LRU line) and any dirty victim is returned for write-back.
    #[inline]
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessResult {
        self.stats.write_accesses.add(is_write as u64);
        self.stats.read_accesses.add(!is_write as u64);
        let set_idx = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        let ways = self.geom.ways();
        if self.sets.is_empty() {
            self.sets = vec![SetRecord::EMPTY; self.geom.sets()];
        }
        let set = &mut self.sets[set_idx];
        let hits = set.matches(tag);
        if hits != 0 {
            // Fills only happen on misses, so at most one way matches.
            let way = hits.trailing_zeros() as usize;
            set.order = TOUCH[set.order as usize][way];
            set.dirty |= (is_write as u8) << way;
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses.inc();
        let way = set.victim(ways, self.full);
        let bit = 1u8 << way;
        let dirty_victim = set.valid & set.dirty & bit != 0;
        let prev_tag = set.tags[way];
        set.tags[way] = tag;
        set.valid |= bit;
        set.dirty = (set.dirty & !bit) | (is_write as u8) << way;
        set.order = TOUCH[set.order as usize][way];
        self.stats.writebacks.add(dirty_victim as u64);
        AccessResult {
            hit: false,
            writeback: dirty_victim.then(|| self.geom.line_from(prev_tag, set_idx)),
        }
    }

    /// Probes without any side effects (no recency update, no allocation).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets
            .get(self.geom.set_index(line))
            .is_some_and(|s| s.matches(self.geom.tag(line)) != 0)
    }

    /// Invalidates the whole cache, returning the number of dirty lines that
    /// would be written back (used for flush-style reconfiguration costs).
    /// Recency orders are left as they are, as `SetArena::invalidate` does.
    pub fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for set in &mut self.sets {
            dirty += (set.valid & set.dirty).count_ones() as u64;
            set.valid = 0;
        }
        self.stats.writebacks.add(dirty);
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::types::CoreId;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheGeometry::new(512, 2, 64))
    }

    fn la(byte: u64) -> LineAddr {
        LineAddr::from_byte_addr(CoreId(0), byte, 64)
    }

    #[test]
    fn record_is_one_host_cache_line() {
        assert_eq!(std::mem::size_of::<SetRecord>(), 64);
        assert_eq!(std::mem::align_of::<SetRecord>(), 64);
    }

    #[test]
    fn touch_table_moves_the_way_to_mru() {
        // Order MRU..LRU = 2, 0, 3, 1; touching way 3 gives 3, 2, 0, 1.
        let order = 0b01_11_00_10;
        assert_eq!(TOUCH[order][3], 0b01_00_10_11);
        // Touching the MRU way is the identity.
        assert_eq!(TOUCH[order][2], order as u8);
        assert_eq!(TOUCH[IDENTITY_ORDER as usize][0], IDENTITY_ORDER);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(la(0), false).hit);
        assert!(c.access(la(0), false).hit);
        assert_eq!(c.stats().misses.get(), 1);
        assert_eq!(c.stats().accesses(), 2);
    }

    #[test]
    fn lru_eviction_and_dirty_writeback() {
        let mut c = tiny();
        // Set 0 holds lines with byte addrs 0, 1024, 2048 (all map to set 0).
        c.access(la(0), true); // dirty
        c.access(la(1024), false);
        // Third distinct line evicts LRU (addr 0, dirty).
        let r = c.access(la(2048), false);
        assert!(!r.hit);
        assert_eq!(r.writeback, Some(la(0)));
        assert_eq!(c.stats().writebacks.get(), 1);
        // addr 0 is gone; re-access misses.
        assert!(!c.access(la(0), false).hit);
    }

    #[test]
    fn write_hit_sets_dirty() {
        let mut c = tiny();
        c.access(la(0), false);
        c.access(la(0), true); // hit, marks dirty
        c.access(la(1024), false);
        let r = c.access(la(2048), false);
        assert_eq!(r.writeback, Some(la(0)), "write-hit dirtied the line");
    }

    #[test]
    fn probe_has_no_side_effects() {
        let mut c = tiny();
        c.access(la(0), false);
        c.access(la(1024), false);
        assert!(c.probe(la(0)));
        assert!(!c.probe(la(4096)));
        let misses_before = c.stats().misses.get();
        c.probe(la(4096));
        assert_eq!(c.stats().misses.get(), misses_before);
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = tiny();
        c.access(la(0), true);
        c.access(la(64), true);
        c.access(la(128), false);
        assert_eq!(c.flush_all(), 2);
        assert!(!c.probe(la(0)));
    }

    #[test]
    fn miss_ratio_math() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.access(la(0), false);
        c.access(la(0), false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }
}
