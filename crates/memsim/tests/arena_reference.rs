//! Differential property tests: the flattened [`SetArena`] must be
//! *bit-identical* to the reference [`CacheSet`] under any interleaving of
//! masked operations.
//!
//! Each case replays one random op stream — find / touch / victim /
//! victim-owned-by / fill / invalidate / mark-dirty with random masks,
//! tags and owners — simultaneously into a reference set and into the
//! middle set of a three-set arena (the offset catches base-indexing
//! bugs), comparing every returned value and, after every operation, the
//! complete observable state: line contents, recency positions, LRU
//! ranks and per-owner counts. Runs at 4/16/32/64 ways so both the
//! nibble-packed order word and the recency-stamp fallback are covered,
//! plus the 17-way boundary just past the packed representation.

use memsim::{CacheSet, SetArena, WayMask};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::types::CoreId;

/// The set index inside the arena that mirrors the reference set.
const SET: usize = 1;

/// One decoded operation of the differential stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Find {
        tag: u64,
        mask: WayMask,
    },
    Touch {
        way: usize,
    },
    Victim {
        mask: WayMask,
    },
    VictimOwnedBy {
        mask: WayMask,
        owner: CoreId,
    },
    Fill {
        way: usize,
        tag: u64,
        owner: CoreId,
        dirty: bool,
    },
    Invalidate {
        way: usize,
    },
    MarkDirty {
        way: usize,
    },
}

/// Decodes a raw generated tuple into an op for a `ways`-way set. Tags are
/// drawn from a small space so hits, evictions and duplicates all happen.
fn decode(ways: usize, (kind, a, b, flag): (u8, u64, u64, bool)) -> Op {
    let way = (a % ways as u64) as usize;
    let tag = a % (2 * ways as u64 + 3);
    let mask = WayMask(b & WayMask::all(ways).0);
    let owner = CoreId(((b >> 32) % 4) as u8);
    match kind % 7 {
        0 => Op::Find { tag, mask },
        1 => Op::Touch { way },
        2 => Op::Victim { mask },
        3 => Op::VictimOwnedBy { mask, owner },
        4 => Op::Fill {
            way,
            tag,
            owner,
            dirty: flag,
        },
        5 => Op::Invalidate { way },
        _ => Op::MarkDirty { way },
    }
}

/// Applies `op` to both implementations, comparing the returned values.
fn apply(op: Op, reference: &mut CacheSet, arena: &mut SetArena) -> Result<(), TestCaseError> {
    match op {
        Op::Find { tag, mask } => {
            prop_assert_eq!(
                reference.find(tag, mask),
                arena.find(SET, tag, mask),
                "find({}, {:?})",
                tag,
                mask
            );
        }
        Op::Touch { way } => {
            reference.touch(way);
            arena.touch(SET, way);
        }
        Op::Victim { mask } => {
            prop_assert_eq!(
                reference.victim(mask),
                arena.victim(SET, mask),
                "victim({:?})",
                mask
            );
        }
        Op::VictimOwnedBy { mask, owner } => {
            prop_assert_eq!(
                reference.victim_owned_by(mask, owner),
                arena.victim_owned_by(SET, mask, owner),
                "victim_owned_by({:?}, {:?})",
                mask,
                owner
            );
        }
        Op::Fill {
            way,
            tag,
            owner,
            dirty,
        } => {
            prop_assert_eq!(
                reference.fill(way, tag, owner, dirty),
                arena.fill(SET, way, tag, owner, dirty),
                "fill previous state"
            );
        }
        Op::Invalidate { way } => {
            prop_assert_eq!(
                reference.invalidate(way),
                arena.invalidate(SET, way),
                "invalidate previous state"
            );
        }
        Op::MarkDirty { way } => {
            if reference.line(way).valid {
                reference.line_mut(way).dirty = true;
                arena.mark_dirty(SET, way);
            }
        }
    }
    Ok(())
}

/// Compares the complete observable state of the two implementations.
fn assert_equivalent(
    ways: usize,
    reference: &CacheSet,
    arena: &SetArena,
) -> Result<(), TestCaseError> {
    for w in 0..ways {
        prop_assert_eq!(
            *reference.line(w),
            arena.line(SET, w),
            "line state way {}",
            w
        );
        prop_assert_eq!(
            reference.recency_of(w),
            arena.recency_of(SET, w),
            "recency of way {}",
            w
        );
    }
    for rank in 0..ways {
        // The reference's way at LRU rank r is the one at recency position
        // ways-1-r; the arena exposes it directly.
        let expect = (0..ways)
            .find(|&w| reference.recency_of(w) == ways - 1 - rank)
            .expect("complete recency order");
        prop_assert_eq!(
            arena.way_at_lru_rank(SET, rank),
            expect,
            "LRU rank {}",
            rank
        );
    }
    for owner in 0..4u8 {
        prop_assert_eq!(
            reference.owned_count(CoreId(owner)),
            arena.owned_count(SET, CoreId(owner)),
            "owned count core {}",
            owner
        );
    }
    Ok(())
}

fn run_stream(ways: usize, raw_ops: Vec<(u8, u64, u64, bool)>) -> Result<(), TestCaseError> {
    let mut reference = CacheSet::new(ways);
    let mut arena = SetArena::new(3, ways);
    // Pin a line into a neighbouring set: ops on SET must never disturb it.
    arena.fill(2, 0, 0xFE11, CoreId(3), true);
    let pinned = arena.line(2, 0);
    for raw in raw_ops {
        let op = decode(ways, raw);
        apply(op, &mut reference, &mut arena)?;
        assert_equivalent(ways, &reference, &arena)?;
    }
    prop_assert_eq!(arena.line(2, 0), pinned, "neighbour set disturbed");
    prop_assert_eq!(arena.line(0, 0).valid, false, "untouched set disturbed");
    Ok(())
}

proptest! {
    #[test]
    fn arena_matches_reference_4way(
        ops in proptest::collection::vec((0u8..64, 0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 1..400),
    ) {
        run_stream(4, ops)?;
    }

    #[test]
    fn arena_matches_reference_16way(
        ops in proptest::collection::vec((0u8..64, 0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 1..400),
    ) {
        run_stream(16, ops)?;
    }

    #[test]
    fn arena_matches_reference_17way_boundary(
        ops in proptest::collection::vec((0u8..64, 0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 1..300),
    ) {
        run_stream(17, ops)?;
    }

    #[test]
    fn arena_matches_reference_32way(
        ops in proptest::collection::vec((0u8..64, 0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 1..300),
    ) {
        run_stream(32, ops)?;
    }

    #[test]
    fn arena_matches_reference_64way(
        ops in proptest::collection::vec((0u8..64, 0u64..u64::MAX, 0u64..u64::MAX, any::<bool>()), 1..200),
    ) {
        run_stream(64, ops)?;
    }
}

/// Touching the way already at MRU must leave the whole order unchanged,
/// in both recency representations (the packed rotation has no `p > 0`
/// guard any more: at position 0 it must be the identity).
#[test]
fn touching_the_mru_way_is_a_no_op() {
    for ways in [1, 2, 4, 16, 17, 32] {
        let mut reference = CacheSet::new(ways);
        let mut arena = SetArena::new(3, ways);
        for w in (0..ways).rev() {
            reference.fill(w, w as u64, CoreId(0), false);
            arena.fill(SET, w, w as u64, CoreId(0), false);
        }
        let mru = (0..ways)
            .find(|&w| reference.recency_of(w) == 0)
            .expect("some way is MRU");
        let before: Vec<usize> = (0..ways).map(|w| arena.recency_of(SET, w)).collect();
        for _ in 0..3 {
            reference.touch(mru);
            arena.touch(SET, mru);
        }
        let after: Vec<usize> = (0..ways).map(|w| arena.recency_of(SET, w)).collect();
        assert_eq!(before, after, "{ways} ways");
        assert_equivalent(ways, &reference, &arena).expect("matches the reference");
    }
}

/// `find` compares every way's tag, so a stale copy of the tag left in an
/// invalidated way, or sitting in a way outside the mask, must never be
/// reported — not even when it is the lowest-numbered match.
#[test]
fn stale_tags_in_invalid_or_masked_ways_never_match() {
    for ways in [4, 16, 32] {
        let mut reference = CacheSet::new(ways);
        let mut arena = SetArena::new(3, ways);
        let all = WayMask::all(ways);
        for w in 0..ways {
            reference.fill(w, 0xA0 + w as u64, CoreId(1), w % 2 == 0);
            arena.fill(SET, w, 0xA0 + w as u64, CoreId(1), w % 2 == 0);
        }
        // Way 0 keeps tag 0xA0 but is invalid; way 2 holds 0xA0 validly.
        reference.invalidate(0);
        arena.invalidate(SET, 0);
        reference.fill(2, 0xA0, CoreId(1), false);
        arena.fill(SET, 2, 0xA0, CoreId(1), false);
        for mask in [
            all,
            WayMask(0b0011),
            WayMask(0b0100),
            WayMask(all.0 & !0b0100),
        ] {
            assert_eq!(reference.find(0xA0, mask), arena.find(SET, 0xA0, mask));
        }
        assert_eq!(arena.find(SET, 0xA0, all), Some(2), "{ways} ways");
        assert_eq!(arena.find(SET, 0xA0, WayMask(0b0011)), None, "{ways} ways");
        // Way 1's tag is valid but masked out.
        assert_eq!(arena.find(SET, 0xA1, WayMask(all.0 & !0b0010)), None);
        assert_eq!(arena.find(SET, 0xA1, all), Some(1));
        // A neighbouring set holding the tag is never consulted.
        arena.fill(2, 3, 0xA3, CoreId(0), false);
        reference.invalidate(3);
        arena.invalidate(SET, 3);
        assert_eq!(arena.find(SET, 0xA3, all), None);
        assert_equivalent(ways, &reference, &arena).expect("matches the reference");
    }
}
