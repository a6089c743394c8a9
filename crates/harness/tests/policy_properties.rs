//! Property tests over the whole policy registry (vendored proptest): any
//! registered policy's decision is *feasible* across random miss curves and
//! counter histories, including adversarial ones —
//!
//! * way targets cover every core and never oversubscribe the cache;
//! * under way-aligned enforcement every core keeps at least one way (the
//!   probe path requires a non-empty read mask);
//! * clock hints, when present, are valid dilation ratios (`>= 1`, one per
//!   core);
//! * bandwidth hints, when present, are one finite non-negative share per
//!   core summing to at most 1;
//! * prefetch hints, when present, are one degree per core, each at most
//!   [`MAX_DEGREE`].
//!
//! The histories include adversarial epochs: closed at the same `now` as
//! the last one, with frozen retired counters, with a saturated bandwidth
//! regulator (delay cycles equal to the elapsed cycles), and with
//! prefetches that are never useful.

use coop_core::policy::{AllocationDecision, EpochObservations};
use coop_core::{MissCurve, PolicySpec};
use cpusim::prefetch::MAX_DEGREE;
use harness::policy_registry;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use simkit::types::Cycle;

const TOTAL_WAYS: usize = 8;

/// Cycles between two epochs that do not stand still.
const EPOCH_CYCLES: u64 = 500_000;

/// Strategy: one core's non-increasing miss curve over [`TOTAL_WAYS`] ways.
fn miss_curve() -> impl Strategy<Value = MissCurve> {
    proptest::collection::vec(0.0f64..50_000.0, TOTAL_WAYS).prop_map(|drops| {
        let mut values = Vec::with_capacity(TOTAL_WAYS + 1);
        let mut current: f64 = drops.iter().sum::<f64>() + 1.0;
        values.push(current);
        for d in drops {
            current = (current - d).max(0.0);
            values.push(current);
        }
        MissCurve::new(values.clone(), values[0] + 10.0)
    })
}

/// Strategy: per-epoch activity for `cores` cores — miss curves plus the
/// retired-instruction and miss increments the cumulative counters grow by.
fn epoch_activity(cores: usize) -> impl Strategy<Value = Vec<(MissCurve, u64, u64)>> {
    proptest::collection::vec((miss_curve(), 1_000u64..500_000, 0u64..50_000), cores)
}

/// Strategy: per-core traffic increments for one epoch — DRAM lines,
/// regulator-delayed accesses and prefetches issued.
fn epoch_traffic(cores: usize) -> impl Strategy<Value = Vec<(u64, u64, u64)>> {
    proptest::collection::vec((0u64..100_000, 0u64..50_000, 0u64..20_000), cores)
}

/// Strategy: one epoch's adversarial switches — (time stands still since
/// the last epoch, retired counters stand still, regulator saturated).
fn adversity() -> impl Strategy<Value = (bool, bool, bool)> {
    (any::<bool>(), any::<bool>(), any::<bool>())
}

/// Checks one decision of policy `name` for a `cores`-core system and
/// tracks its way targets in `cur_ways`.
fn check_decision(
    name: &str,
    cores: usize,
    way_aligned: bool,
    decision: &AllocationDecision,
    cur_ways: &mut Vec<usize>,
) -> Result<(), TestCaseError> {
    if let Some(alloc) = &decision.allocation {
        prop_assert_eq!(alloc.ways.len(), cores, "{}: one target per core", name);
        let assigned: usize = alloc.ways.iter().sum();
        prop_assert!(
            assigned <= TOTAL_WAYS,
            "{}: oversubscribed ({:?})",
            name,
            alloc.ways
        );
        prop_assert!(
            assigned + alloc.unallocated <= TOTAL_WAYS,
            "{}: unallocated bookkeeping exceeds the cache ({:?})",
            name,
            alloc
        );
        if way_aligned {
            prop_assert!(
                alloc.ways.iter().all(|&w| w >= 1),
                "{}: zero-way core under way alignment ({:?})",
                name,
                alloc.ways
            );
        }
        cur_ways.clone_from(&alloc.ways);
    }
    let hints = &decision.hints;
    if let Some(ratios) = &hints.clock_ratios {
        prop_assert_eq!(ratios.len(), cores, "{}: one ratio per core", name);
        prop_assert!(
            ratios.iter().all(|&r| r >= 1.0 && r.is_finite()),
            "{}: invalid clock dilation {:?}",
            name,
            ratios
        );
    }
    if let Some(shares) = &hints.bandwidth_shares {
        prop_assert_eq!(shares.len(), cores, "{}: one share per core", name);
        prop_assert!(
            shares.iter().all(|&s| s.is_finite() && s >= 0.0),
            "{}: invalid bandwidth share {:?}",
            name,
            shares
        );
        prop_assert!(
            shares.iter().sum::<f64>() <= 1.0,
            "{}: bandwidth shares exceed the peak {:?}",
            name,
            shares
        );
    }
    if let Some(slots) = &hints.prefetch_slots {
        prop_assert_eq!(slots.len(), cores, "{}: one degree per core", name);
        prop_assert!(
            slots.iter().all(|&d| d as usize <= MAX_DEGREE),
            "{}: prefetch degree above {} {:?}",
            name,
            MAX_DEGREE,
            slots
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn every_registered_policy_decides_feasibly(
        cores in 2usize..5,
        epochs in proptest::collection::vec((epoch_activity(4), epoch_traffic(4), adversity()), 4),
        tracks_traffic in any::<bool>(),
        qos_slack in 0.0f64..0.5,
        threshold in 0.0f64..0.3,
    ) {
        let registry = policy_registry();
        for name in registry.names() {
            let spec = PolicySpec {
                cores,
                total_ways: TOTAL_WAYS,
                threshold,
                cpe_slack: 0.05,
                qos_slack,
            };
            let mut policy = registry.build(name, &spec).expect("registered");
            let way_aligned = policy.enforcement().is_way_aligned();
            let mut cur_ways = vec![TOTAL_WAYS / cores; cores];
            let mut now = 0u64;
            let mut retired = vec![0u64; cores];
            let mut misses = vec![0u64; cores];
            let mut dram_lines = vec![0u64; cores];
            let mut bw_delayed = vec![0u64; cores];
            let mut bw_delay_cycles = vec![0u64; cores];
            let mut prefetches = vec![0u64; cores];
            for (e, (activity, traffic, adverse)) in epochs.iter().enumerate() {
                let (same_now, frozen_retired, saturated) = *adverse;
                let elapsed = if same_now { 0 } else { EPOCH_CYCLES };
                now += elapsed;
                for c in 0..cores {
                    let (_, d_retired, d_misses) = &activity[c];
                    let (d_lines, d_delayed, d_prefetches) = traffic[c];
                    if !frozen_retired {
                        retired[c] += d_retired;
                    }
                    misses[c] += d_misses;
                    dram_lines[c] += d_lines;
                    bw_delayed[c] += d_delayed;
                    bw_delay_cycles[c] += if saturated { elapsed } else { d_delayed };
                    prefetches[c] += d_prefetches;
                }
                // Without traffic counters the observation leaves those
                // vectors empty, as an LLC without a regulator does.
                let counter = |v: &Vec<u64>| if tracks_traffic { v.clone() } else { Vec::new() };
                let obs = EpochObservations {
                    now: Cycle(now),
                    epoch_index: e as u64,
                    total_ways: TOTAL_WAYS,
                    curves: activity.iter().take(cores).map(|(c, _, _)| c.clone()).collect(),
                    cur_ways: cur_ways.clone(),
                    misses: misses.clone(),
                    retired: retired.clone(),
                    dram_lines: counter(&dram_lines),
                    bw_delayed: counter(&bw_delayed),
                    bw_delay_cycles: counter(&bw_delay_cycles),
                    prefetches: counter(&prefetches),
                    prefetch_useful: counter(&vec![0; cores]),
                };
                let decision = policy.on_epoch(&obs);
                check_decision(name, cores, way_aligned, &decision, &mut cur_ways)?;
            }
        }
    }
}
