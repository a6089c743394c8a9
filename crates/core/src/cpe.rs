//! Dynamic CPE comparison scheme (Reddy & Petrov, adapted as in the paper).
//!
//! CPE is an energy-oriented *static* partitioning driven by offline
//! profiles. The paper extends it to a dynamic setting: each epoch, the
//! profile (miss curves measured with the application running alone)
//! dictates a fresh partition; every way that changes hands is immediately
//! flushed — the scheme's Achilles heel when partitions change often, and
//! precisely the cost cooperative takeover avoids.
//!
//! The allocation rule is energy-first: each application receives the
//! *smallest* way count whose profiled misses are within `slack` of its
//! best; leftover ways are power-gated. When requests exceed capacity the
//! least-hurt application gives ways back.

use crate::curve::MissCurve;
use crate::lookahead::Allocation;

/// Solo-run profile: per core, one miss curve per epoch index.
#[derive(Debug, Clone, Default)]
pub struct CpeProfile {
    /// `curves[core][epoch]`; the last entry repeats when a run outlives its
    /// profile.
    pub curves: Vec<Vec<MissCurve>>,
}

impl CpeProfile {
    /// The profile curve for `core` at `epoch` (clamped to the recorded
    /// range). Returns `None` when the core has no profile at all.
    pub fn curve(&self, core: usize, epoch: u64) -> Option<&MissCurve> {
        let per_epoch = self.curves.get(core)?;
        if per_epoch.is_empty() {
            return None;
        }
        Some(&per_epoch[(epoch as usize).min(per_epoch.len() - 1)])
    }
}

/// Computes the CPE partition for one epoch.
///
/// Each core asks for the smallest way count within `slack` (relative miss
/// increase) of its full-cache misses, with a minimum of one way. If the
/// total exceeds `total_ways`, ways are reclaimed from the cores that lose
/// the least by shrinking. Leftover ways are unallocated (gated).
///
/// # Panics
///
/// Panics if `curves` is empty or `total_ways < curves.len()`.
pub fn cpe_allocate(curves: &[&MissCurve], total_ways: usize, slack: f64) -> Allocation {
    let n = curves.len();
    assert!(n > 0 && total_ways >= n);
    let mut ways: Vec<usize> = curves
        .iter()
        .map(|c| {
            // Smallest allocation within `slack` miss-*ratio* points of the
            // full-cache miss ratio (same normalization as the cooperative
            // threshold): CPE is energy-first, so capacity that buys less
            // than `slack` of the application's accesses stays off.
            let best = c.misses(total_ways);
            let budget = best + slack * c.accesses().max(1.0) + 1e-9;
            (1..=total_ways)
                .find(|&w| c.misses(w) <= budget)
                .unwrap_or(total_ways)
        })
        .collect();

    // Fit to capacity: repeatedly shrink the core whose last way saves the
    // fewest misses.
    while ways.iter().sum::<usize>() > total_ways {
        let victim = (0..n)
            .filter(|&i| ways[i] > 1)
            .min_by(|&a, &b| {
                let cost_a = curves[a].misses(ways[a] - 1) - curves[a].misses(ways[a]);
                let cost_b = curves[b].misses(ways[b] - 1) - curves[b].misses(ways[b]);
                cost_a.partial_cmp(&cost_b).expect("finite miss counts")
            })
            .expect("sum > total_ways >= n implies some core has > 1 way");
        ways[victim] -= 1;
    }

    let used: usize = ways.iter().sum();
    Allocation {
        ways,
        unallocated: total_ways - used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(values: &[f64]) -> MissCurve {
        // Accesses equal to zero-way misses keep ratio slack realistic.
        MissCurve::new(values.to_vec(), values[0])
    }

    #[test]
    fn picks_smallest_sufficient_allocation() {
        // Knee at 3 ways; beyond that flat.
        let c = curve(&[100.0, 40.0, 12.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0]);
        let alloc = cpe_allocate(&[&c, &c], 8, 0.05);
        assert_eq!(alloc.ways, vec![3, 3]);
        assert_eq!(alloc.unallocated, 2, "two ways can be gated");
    }

    #[test]
    fn streaming_app_gets_minimum() {
        let stream = MissCurve::flat(8, 500.0, 1000.0);
        let friendly = curve(&[100.0, 50.0, 20.0, 8.0, 4.0, 2.0, 1.0, 0.8, 0.7]);
        let alloc = cpe_allocate(&[&stream, &friendly], 8, 0.05);
        assert_eq!(alloc.ways[0], 1);
        // Budget = best (0.7) + 5% of 100 accesses -> 4 ways suffice.
        assert_eq!(alloc.ways[1], 4);
        assert_eq!(alloc.unallocated, 3);
    }

    #[test]
    fn over_subscription_shrinks_cheapest_losers() {
        // Both want everything; capacity forces sharing.
        let hungry = curve(&[90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0, 20.0, 10.0]);
        let hungrier = curve(&[
            900.0, 800.0, 700.0, 600.0, 500.0, 400.0, 300.0, 200.0, 100.0,
        ]);
        let alloc = cpe_allocate(&[&hungry, &hungrier], 8, 0.0);
        assert_eq!(alloc.ways.iter().sum::<usize>(), 8);
        assert!(
            alloc.ways[1] > alloc.ways[0],
            "the 10x-steeper curve keeps more ways: {:?}",
            alloc.ways
        );
        assert_eq!(alloc.unallocated, 0);
    }

    #[test]
    fn profile_clamps_epoch_index() {
        let p = CpeProfile {
            curves: vec![vec![
                MissCurve::flat(4, 1.0, 1.0),
                MissCurve::flat(4, 2.0, 1.0),
            ]],
        };
        assert_eq!(p.curve(0, 0).unwrap().misses(0), 1.0);
        assert_eq!(p.curve(0, 99).unwrap().misses(0), 2.0);
        assert!(p.curve(1, 0).is_none());
    }

    #[test]
    fn every_core_keeps_one_way() {
        let zero = MissCurve::flat(4, 0.0, 10.0);
        let alloc = cpe_allocate(&[&zero, &zero, &zero, &zero], 4, 0.05);
        assert_eq!(alloc.ways, vec![1, 1, 1, 1]);
    }
}
