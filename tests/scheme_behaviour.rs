//! Scheme-differentiating integration tests: each test pins down one
//! behavioural contrast the paper's evaluation relies on.

use coop_partitioning::coop_core::{
    LlcConfig, PartitionPolicy, PartitionedLlc, PolicyRegistry, PolicySpec, SchemeKind,
    PAPER_POLICIES,
};
use coop_partitioning::memsim::{CacheGeometry, Dram, DramConfig};
use coop_partitioning::simkit::types::{CoreId, Cycle, LineAddr};

fn tiny_cfg(scheme: SchemeKind) -> LlcConfig {
    LlcConfig {
        geom: CacheGeometry::new(32 << 10, 8, 64), // 64 sets x 8 ways
        hit_latency: 15,
        mshrs: 32,
        scheme,
        epoch_cycles: 50_000,
        threshold: 0.03,
        umon_shift: 0,
        seed: 7,
        transition_timeout_epochs: 1,
    }
}

fn la(core: u8, byte: u64) -> LineAddr {
    LineAddr::from_byte_addr(CoreId(core), byte, 64)
}

/// The two-core LLC for the paper policy `name`, built from the registry,
/// plus the policy that drives its epochs.
fn llc_for(name: &str) -> (PartitionedLlc, Box<dyn PartitionPolicy>) {
    let reg = PolicyRegistry::core();
    let scheme = reg
        .entry(name)
        .and_then(|e| e.scheme)
        .expect("paper policy");
    let cfg = tiny_cfg(scheme);
    let policy = reg
        .build(name, &PolicySpec::for_llc(&cfg, 2))
        .expect("registered");
    (PartitionedLlc::for_policy(cfg, 2, policy.as_ref()), policy)
}

/// Drives a simple two-phase access mix: core 0 streams (no reuse), core 1
/// loops over a small hot set. Returns the LLC afterwards.
fn drive(scheme: &str, rounds: u64) -> (PartitionedLlc, Dram) {
    let (mut llc, mut policy) = llc_for(scheme);
    let mut dram = Dram::new(DramConfig::default());
    let mut now = Cycle(0);
    let mut next_epoch = Cycle(50_000);
    for r in 0..rounds {
        llc.access(now, CoreId(0), la(0, r * 64), false, &mut dram);
        now += 20;
        // Core 1: 2-way working set per set index (16 hot lines).
        let set = r % 8;
        for k in 0..2 {
            llc.access(
                now,
                CoreId(1),
                la(1, set * 64 + k * 64 * 64),
                false,
                &mut dram,
            );
            now += 20;
        }
        if now >= next_epoch {
            // One epoch as the system loop drives it: observe, decide, apply.
            let obs = llc.epoch_observations(now, vec![]);
            let decision = policy.on_epoch(&obs);
            llc.apply_decision(now, &mut dram, &decision);
            next_epoch = now + 50_000;
        }
    }
    (llc, dram)
}

#[test]
fn cooperative_shrinks_the_streamers_partition() {
    let (llc, _) = drive("cooperative", 20_000);
    let alloc = llc.current_allocation();
    assert!(
        alloc[0] <= 2,
        "the streaming core should end up near the minimum: {alloc:?}"
    );
    assert!(llc.permissions().check_invariants().is_ok());
}

#[test]
fn cooperative_gates_unused_ways_fair_share_does_not() {
    let (coop, _) = drive("cooperative", 20_000);
    let (fair, _) = drive("fair", 20_000);
    assert!(fair.ways_on() == 8, "fair share keeps everything on");
    assert!(
        coop.ways_on() < 8,
        "this mix uses ~4 of 8 ways; cooperative should gate: {} on",
        coop.ways_on()
    );
}

#[test]
fn probe_energy_orders_as_unmanaged_gt_fair_gt_cooperative() {
    let un = drive("unmanaged", 20_000).0.avg_ways_consulted();
    let fair = drive("fair", 20_000).0.avg_ways_consulted();
    let coop = drive("cooperative", 20_000).0.avg_ways_consulted();
    assert_eq!(un, 8.0);
    assert_eq!(fair, 4.0);
    assert!(coop < fair, "cooperative probes fewer ways: {coop}");
}

#[test]
fn unmanaged_and_ucp_never_repartition_the_power_state() {
    for scheme in ["unmanaged", "ucp"] {
        let (llc, _) = drive(scheme, 10_000);
        assert_eq!(llc.ways_on(), 8, "{scheme}: all ways stay powered");
    }
}

#[test]
fn way_alignment_invariant_holds_under_cooperative() {
    // After a long run, every valid line must live in a way its owner may
    // write (or one in transition involving the owner).
    let (llc, _) = drive("cooperative", 30_000);
    assert!(llc.permissions().check_invariants().is_ok());
    // The probe path never consults gated ways, so average ways consulted
    // is bounded by the powered count.
    assert!(llc.avg_ways_consulted() <= 8.0);
}

#[test]
fn takeover_demo_transition_moves_dirty_data_safely() {
    let (mut llc, _) = llc_for("cooperative");
    let mut dram = Dram::new(DramConfig::default());
    // Dirty four core-1 lines in each set, filling all of its ways
    // (including way 4, the one about to move).
    for s in 0..64u64 {
        for k in 0..4u64 {
            llc.access(
                Cycle(s * 4 + k),
                CoreId(1),
                la(1, s * 64 + k * 64 * 64),
                true,
                &mut dram,
            );
        }
    }
    let wb_before = dram.stats().writes.get();
    // Move way 4 (owned by core 1 initially: ways 4..8) to core 0.
    llc.begin_transition_for_demo(
        Cycle(100),
        coop_partitioning::coop_core::takeover::Transition {
            way: 4,
            donor: CoreId(1),
            recipient: Some(CoreId(0)),
            started: Cycle(100),
            epoch: 0,
        },
    );
    // The recipient touches every set; transfer must complete and any dirty
    // donor lines in way 4 must have been written back, not dropped.
    for s in 0..64u64 {
        llc.access(
            Cycle(200 + s * 10),
            CoreId(0),
            la(0, s * 64 + 4096 * 64),
            false,
            &mut dram,
        );
    }
    assert!(!llc.takeover().active());
    assert!(
        dram.stats().writes.get() > wb_before,
        "dirty donor lines were flushed to memory during takeover"
    );
}

#[test]
fn scheme_statistics_are_internally_consistent() {
    for scheme in PAPER_POLICIES {
        let (llc, _) = drive(scheme, 5_000);
        let s = llc.stats();
        assert!(s.total_misses() <= s.total_accesses(), "{scheme}");
        for core in &s.per_core {
            assert!(core.misses.get() <= core.accesses.get(), "{scheme}");
        }
    }
}
