//! A single cache set: per-way line state plus true-LRU recency order, with
//! *masked* operations.
//!
//! Masked lookup/victim selection is the primitive that both the plain L1
//! caches (mask = all ways) and the partitioned LLC (mask = ways the probing
//! core may read / write per its RAP/WAP registers) are built on.
//!
//! `CacheSet` is the *reference* implementation: one heap allocation per
//! set, written for readability. The hot simulation paths run on the
//! flattened [`crate::arena::SetArena`], which is property-tested against
//! this type for bit-identical behaviour
//! (`crates/memsim/tests/arena_reference.rs`).

use simkit::types::CoreId;

/// Bit mask selecting a subset of a set's ways (bit `w` = way `w`).
///
/// Supports associativities up to 64.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// Mask with no ways selected.
    pub const NONE: WayMask = WayMask(0);

    /// Mask selecting all of the first `ways` ways.
    #[inline]
    pub fn all(ways: usize) -> WayMask {
        debug_assert!(ways <= 64);
        if ways == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << ways) - 1)
        }
    }

    /// Mask selecting exactly one way.
    #[inline]
    pub fn single(way: usize) -> WayMask {
        WayMask(1u64 << way)
    }

    /// True if way `w` is selected.
    #[inline]
    pub fn contains(self, w: usize) -> bool {
        (self.0 >> w) & 1 == 1
    }

    /// Number of ways selected.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Union of two masks.
    #[inline]
    pub fn union(self, other: WayMask) -> WayMask {
        WayMask(self.0 | other.0)
    }

    /// Iterator over the selected way indices, ascending.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let w = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w)
            }
        })
    }

    /// True when no ways are selected.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// State of one cache line (one way within one set).
///
/// The `owner` field models the paper's "extra two bits added to each tag
/// entry to distinguish data belonging to each core" (Section 2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineState {
    /// Line holds valid data.
    pub valid: bool,
    /// Line is modified relative to memory.
    pub dirty: bool,
    /// Core whose data occupies the line (meaningful only when `valid`).
    pub owner: CoreId,
    /// Tag (address bits above the set index).
    pub tag: u64,
}

impl LineState {
    /// An invalid (empty) line.
    pub const INVALID: LineState = LineState {
        valid: false,
        dirty: false,
        owner: CoreId(0),
        tag: 0,
    };
}

impl Default for LineState {
    #[inline]
    fn default() -> Self {
        LineState::INVALID
    }
}

/// One set of a set-associative cache: `ways` lines plus an exact LRU stack.
///
/// The recency order is a small vector of way indices, most-recently-used
/// first. For the associativities the paper uses (4–16) this is both exact
/// and fast.
#[derive(Debug, Clone)]
pub struct CacheSet {
    lines: Vec<LineState>,
    /// Way indices ordered MRU → LRU.
    order: Vec<u8>,
}

impl CacheSet {
    /// Creates an empty set with `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64.
    pub fn new(ways: usize) -> CacheSet {
        assert!((1..=64).contains(&ways));
        CacheSet {
            lines: vec![LineState::INVALID; ways],
            order: (0..ways as u8).collect(),
        }
    }

    /// Associativity of the set.
    #[inline]
    pub fn ways(&self) -> usize {
        self.lines.len()
    }

    /// Read access to a line's state.
    #[inline]
    pub fn line(&self, way: usize) -> &LineState {
        &self.lines[way]
    }

    /// Mutable access to a line's state (callers must keep `order` sensible;
    /// prefer the higher-level methods).
    #[inline]
    pub fn line_mut(&mut self, way: usize) -> &mut LineState {
        &mut self.lines[way]
    }

    /// Looks for `tag` among the ways selected by `mask`.
    ///
    /// Returns the way index on a hit. Does **not** update recency — call
    /// [`Self::touch`] on an actual use so that probes (e.g. monitoring) can
    /// stay side-effect free.
    #[inline]
    pub fn find(&self, tag: u64, mask: WayMask) -> Option<usize> {
        mask.iter()
            .find(|&w| self.lines[w].valid && self.lines[w].tag == tag)
    }

    /// Marks `way` most recently used.
    #[inline]
    pub fn touch(&mut self, way: usize) {
        debug_assert!(way < self.ways());
        if let Some(pos) = self.order.iter().position(|&w| w as usize == way) {
            let w = self.order.remove(pos);
            self.order.insert(0, w);
        }
    }

    /// The least-recently-used way among `mask`, preferring invalid lines.
    ///
    /// Returns `None` when the mask is empty.
    pub fn victim(&self, mask: WayMask) -> Option<usize> {
        if mask.is_empty() {
            return None;
        }
        // Prefer an invalid line (no eviction cost), scanning LRU-first so
        // repeated fills spread across the masked ways deterministically.
        for &w in self.order.iter().rev() {
            if mask.contains(w as usize) && !self.lines[w as usize].valid {
                return Some(w as usize);
            }
        }
        self.order
            .iter()
            .rev()
            .find(|&&w| mask.contains(w as usize))
            .map(|&w| w as usize)
    }

    /// The least-recently-used *valid* way among `mask` owned by `owner`.
    ///
    /// Used by UCP's replacement-based enforcement ("evict the LRU block of
    /// the over-allocated core").
    pub fn victim_owned_by(&self, mask: WayMask, owner: CoreId) -> Option<usize> {
        self.order
            .iter()
            .rev()
            .find(|&&w| {
                let l = &self.lines[w as usize];
                mask.contains(w as usize) && l.valid && l.owner == owner
            })
            .map(|&w| w as usize)
    }

    /// Installs a line into `way`, returning the previous state (so callers
    /// can write back a dirty victim). The way becomes MRU.
    pub fn fill(&mut self, way: usize, tag: u64, owner: CoreId, dirty: bool) -> LineState {
        let prev = self.lines[way];
        self.lines[way] = LineState {
            valid: true,
            dirty,
            owner,
            tag,
        };
        self.touch(way);
        prev
    }

    /// Invalidates `way`, returning the previous state.
    pub fn invalidate(&mut self, way: usize) -> LineState {
        let prev = self.lines[way];
        self.lines[way] = LineState::INVALID;
        prev
    }

    /// Number of valid lines owned by `owner` in this set.
    pub fn owned_count(&self, owner: CoreId) -> usize {
        self.lines
            .iter()
            .filter(|l| l.valid && l.owner == owner)
            .count()
    }

    /// Recency position of `way` (0 = MRU). Exposed for tests and monitors.
    pub fn recency_of(&self, way: usize) -> usize {
        self.order
            .iter()
            .position(|&w| w as usize == way)
            .expect("way must be present in recency order")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn way_mask_basics() {
        let m = WayMask::all(8);
        assert_eq!(m.count(), 8);
        assert!(m.contains(0) && m.contains(7) && !m.contains(8));
        let s = WayMask::single(3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(m.union(WayMask::single(10)).count(), 9);
        assert!(WayMask::NONE.is_empty());
        assert_eq!(WayMask::all(64).count(), 64);
    }

    #[test]
    fn find_respects_mask() {
        let mut s = CacheSet::new(4);
        s.fill(2, 0xAB, CoreId(0), false);
        assert_eq!(s.find(0xAB, WayMask::all(4)), Some(2));
        assert_eq!(s.find(0xAB, WayMask(0b0011)), None, "masked out");
        assert_eq!(s.find(0xCD, WayMask::all(4)), None);
    }

    #[test]
    fn victim_prefers_invalid_then_lru() {
        let mut s = CacheSet::new(4);
        // Fill ways 0..3 in order; way 0 is then LRU among valid.
        for w in 0..4 {
            s.fill(w, w as u64, CoreId(0), false);
        }
        assert_eq!(s.victim(WayMask::all(4)), Some(0));
        s.invalidate(2);
        assert_eq!(s.victim(WayMask::all(4)), Some(2), "invalid preferred");
        // Masked victim: only ways {1,3} allowed.
        assert_eq!(s.victim(WayMask(0b1010)), Some(1));
        assert_eq!(s.victim(WayMask::NONE), None);
    }

    #[test]
    fn touch_updates_recency() {
        let mut s = CacheSet::new(4);
        for w in 0..4 {
            s.fill(w, w as u64, CoreId(0), false);
        }
        s.touch(0); // 0 becomes MRU; 1 now LRU
        assert_eq!(s.victim(WayMask::all(4)), Some(1));
        assert_eq!(s.recency_of(0), 0);
        assert_eq!(s.recency_of(1), 3);
    }

    #[test]
    fn victim_owned_by_finds_lru_of_owner() {
        let mut s = CacheSet::new(4);
        s.fill(0, 1, CoreId(0), false);
        s.fill(1, 2, CoreId(1), false);
        s.fill(2, 3, CoreId(0), false);
        s.fill(3, 4, CoreId(1), false);
        // LRU order is now 0,1,2,3 (oldest first = way 0).
        assert_eq!(s.victim_owned_by(WayMask::all(4), CoreId(1)), Some(1));
        assert_eq!(s.victim_owned_by(WayMask::all(4), CoreId(0)), Some(0));
        assert_eq!(s.victim_owned_by(WayMask(0b1000), CoreId(0)), None);
    }

    /// Cheap deterministic op-stream generator for the containment tests.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    #[test]
    fn masked_operations_never_touch_ways_outside_mask() {
        // The partitioned-LLC contract: a core restricted to `mask` can
        // never observe, evict, or overwrite lines in ways outside it. Pin
        // resident lines in the unmasked ways, then hammer the masked ways
        // with a random miss/hit stream and check the pinned lines after
        // every operation.
        let mask = WayMask(0b0110); // the "core" owns ways 1 and 2 of 4
        let mut s = CacheSet::new(4);
        s.fill(0, 0xA0, CoreId(1), true);
        s.fill(3, 0xA3, CoreId(1), false);
        let pinned0 = *s.line(0);
        let pinned3 = *s.line(3);

        let mut state = 0x5EED;
        for _ in 0..2000 {
            let tag = lcg(&mut state) % 6; // small tag space forces evictions
            match s.find(tag, mask) {
                Some(way) => {
                    assert!(mask.contains(way), "hit outside mask in way {way}");
                    s.touch(way);
                }
                None => {
                    let victim = s.victim(mask).expect("mask is non-empty");
                    assert!(mask.contains(victim), "victim outside mask: way {victim}");
                    s.fill(victim, tag, CoreId(0), lcg(&mut state) & 1 == 1);
                }
            }
            assert_eq!(*s.line(0), pinned0, "way 0 must be untouched");
            assert_eq!(*s.line(3), pinned3, "way 3 must be untouched");
        }
        // The pinned tags also stay invisible to the masked probe.
        assert_eq!(s.find(0xA0, mask), None);
        assert_eq!(s.find(0xA3, mask), None);
    }

    #[test]
    fn disjoint_masks_partition_the_set() {
        // Two cores with disjoint masks (Fair Share enforcement) filling the
        // same set concurrently must never evict each other, whatever the
        // interleaving or recency order.
        let masks = [WayMask(0b0011), WayMask(0b1100)];
        let mut s = CacheSet::new(4);
        let mut state = 0xBEEF;
        for i in 0..2000 {
            let core = (i & 1) as usize;
            // Distinct tag spaces per core so cross-hits are impossible.
            let tag = 100 * core as u64 + lcg(&mut state) % 5;
            match s.find(tag, masks[core]) {
                Some(way) => s.touch(way),
                None => {
                    let victim = s.victim(masks[core]).expect("non-empty mask");
                    let evicted = s.fill(victim, tag, CoreId(core as u8), false);
                    if evicted.valid {
                        assert_eq!(
                            evicted.owner,
                            CoreId(core as u8),
                            "evicted the other core's line from way {victim}"
                        );
                    }
                }
            }
            // Every resident line sits in a way of its owner's mask.
            for w in 0..4 {
                let l = s.line(w);
                if l.valid {
                    assert!(
                        masks[l.owner.index()].contains(w),
                        "core {:?} line in foreign way {w}",
                        l.owner
                    );
                }
            }
        }
        assert_eq!(s.owned_count(CoreId(0)), 2);
        assert_eq!(s.owned_count(CoreId(1)), 2);
    }

    #[test]
    fn fill_returns_previous_state_for_writeback() {
        let mut s = CacheSet::new(2);
        s.fill(0, 7, CoreId(0), true);
        let prev = s.fill(0, 9, CoreId(1), false);
        assert!(prev.valid && prev.dirty);
        assert_eq!(prev.tag, 7);
        assert_eq!(s.line(0).owner, CoreId(1));
        assert_eq!(s.owned_count(CoreId(1)), 1);
        assert_eq!(s.owned_count(CoreId(0)), 0);
    }
}
