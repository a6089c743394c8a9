//! Shard planning: grouping cells into retry/assignment units.
//!
//! A shard is the unit the orchestrator hands to a worker, retries after a
//! crash, and times out as a whole. Shard IDs are content-hashed from the
//! member cell IDs, so the same cell set partitioned the same way yields
//! the same shard IDs across runs — the fault-injection hook can name a
//! shard by ID (or ordinal) and hit the same work every time.

use simkit::rng::fnv1a;

use crate::cell::CellSpec;

/// A planned shard: an ordinal (stable within one plan), a content-hashed
/// ID, and the member cells in plan order.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Position in the plan (0-based; stable for a given cell set and
    /// shard count).
    pub index: usize,
    /// Content hash of the member cell IDs (16 hex digits).
    pub id: String,
    /// The member cells.
    pub cells: Vec<CellSpec>,
}

/// Splits `cells` into at most `n_shards` shards by round-robin deal, so
/// early shards and late shards get comparable mixes of cheap and
/// expensive cells. Preserves overall cell order within each shard.
/// Empty shards are never produced.
pub fn plan_shards(cells: &[CellSpec], n_shards: usize) -> Vec<Shard> {
    let n = n_shards.clamp(1, cells.len().max(1));
    let mut buckets: Vec<Vec<CellSpec>> = vec![Vec::new(); n];
    for (i, cell) in cells.iter().enumerate() {
        buckets[i % n].push(cell.clone());
    }
    buckets
        .into_iter()
        .filter(|b| !b.is_empty())
        .enumerate()
        .map(|(index, cells)| Shard {
            index,
            id: shard_id(&cells),
            cells,
        })
        .collect()
}

/// The content-hashed ID of a shard holding exactly `cells`.
pub fn shard_id(cells: &[CellSpec]) -> String {
    let joined: String = cells.iter().map(|c| c.id()).collect::<Vec<_>>().join("+");
    format!("{:016x}", fnv1a(joined.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellSpec;

    fn cells(n: usize) -> Vec<CellSpec> {
        (0..n)
            .map(|i| CellSpec::sweep(&format!("G2-{}", i + 1), "ucp", 2, "quick"))
            .collect()
    }

    #[test]
    fn round_robin_covers_every_cell_once() {
        let cs = cells(7);
        let shards = plan_shards(&cs, 3);
        assert_eq!(shards.len(), 3);
        let mut seen: Vec<String> = shards
            .iter()
            .flat_map(|s| s.cells.iter().map(|c| c.id()))
            .collect();
        seen.sort();
        let mut want: Vec<String> = cs.iter().map(|c| c.id()).collect();
        want.sort();
        assert_eq!(seen, want);
    }

    #[test]
    fn shard_ids_are_stable_and_distinct() {
        let cs = cells(6);
        let a = plan_shards(&cs, 2);
        let b = plan_shards(&cs, 2);
        assert_eq!(a[0].id, b[0].id);
        assert_ne!(a[0].id, a[1].id);
        assert_eq!(a[0].index, 0);
        assert_eq!(a[1].index, 1);
    }

    #[test]
    fn degenerate_plans_clamp() {
        assert!(plan_shards(&[], 4).is_empty());
        let one = plan_shards(&cells(2), 0);
        assert_eq!(one.len(), 1, "zero shards clamps to one");
        let many = plan_shards(&cells(2), 99);
        assert_eq!(many.len(), 2, "never more shards than cells");
    }
}
