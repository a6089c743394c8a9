//! A plain set-associative write-back cache, used for the private L1
//! instruction and data caches.

use serde::{Deserialize, Serialize};
use simkit::types::{CoreId, LineAddr};
use simkit::Counter;

use crate::addr::CacheGeometry;
use crate::arena::SetArena;
use crate::set::WayMask;

/// Hit/miss and traffic statistics for one cache.
#[derive(Debug, Default, Clone, Copy, Serialize, Deserialize)]
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

/// A private set-associative write-back, write-allocate cache with true LRU.
///
/// Fills happen immediately on miss (the timing of the fill is the caller's
/// concern; see `cpusim::core` for how miss latency is applied), which is the
/// standard approach in trace-driven cache models.
///
/// ```
/// use memsim::{Cache, CacheGeometry};
/// use simkit::types::{CoreId, LineAddr};
///
/// let mut l1 = Cache::new(CacheGeometry::new(32 << 10, 4, 64), CoreId(0));
/// let a = LineAddr::from_byte_addr(CoreId(0), 0x40, 64);
/// assert!(!l1.access(a, false).hit); // cold miss
/// assert!(l1.access(a, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    geom: CacheGeometry,
    owner: CoreId,
    sets: SetArena,
    all_ways: WayMask,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry, owned by `owner`.
    pub fn new(geom: CacheGeometry, owner: CoreId) -> Cache {
        Cache {
            geom,
            owner,
            sets: SetArena::new(geom.sets(), geom.ways()),
            all_ways: WayMask::all(geom.ways()),
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
    pub fn access(&mut self, line: LineAddr, is_write: bool) -> AccessResult {
        self.stats.write_accesses.add(is_write as u64);
        self.stats.read_accesses.add(!is_write as u64);
        let set_idx = self.geom.set_index(line);
        let tag = self.geom.tag(line);
        if let Some(way) = self.sets.find(set_idx, tag, self.all_ways) {
            self.sets.record_hit(set_idx, way, is_write);
            return AccessResult {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses.inc();
        let way = self
            .sets
            .victim(set_idx, self.all_ways)
            .expect("non-empty mask always yields a victim");
        let prev = self.sets.fill(set_idx, way, tag, self.owner, is_write);
        let dirty_victim = prev.valid && prev.dirty;
        self.stats.writebacks.add(dirty_victim as u64);
        AccessResult {
            hit: false,
            writeback: dirty_victim.then_some(self.geom.line_from(prev.tag, set_idx)),
        }
    }

    /// Probes without any side effects (no recency update, no allocation).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.sets
            .find(
                self.geom.set_index(line),
                self.geom.tag(line),
                self.all_ways,
            )
            .is_some()
    }

    /// Invalidates the whole cache, returning the number of dirty lines that
    /// would be written back (used for flush-style reconfiguration costs).
    pub fn flush_all(&mut self) -> u64 {
        let mut dirty = 0;
        for s in 0..self.sets.sets() {
            for w in 0..self.sets.ways() {
                let prev = self.sets.invalidate(s, w);
                if prev.valid && prev.dirty {
                    dirty += 1;
                    self.stats.writebacks.inc();
                }
            }
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheGeometry::new(512, 2, 64), CoreId(0))
    }

    fn la(byte: u64) -> LineAddr {
        LineAddr::from_byte_addr(CoreId(0), byte, 64)
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
