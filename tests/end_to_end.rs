//! End-to-end integration tests across all crates: whole-system runs under
//! every scheme, checking the paper's structural invariants.

use coop_partitioning::coop_core::PAPER_POLICIES;
use coop_partitioning::harness::system::System;
use coop_partitioning::harness::SimScale;
use coop_partitioning::workloads::{Benchmark, ResolvedWorkload};

fn quick() -> SimScale {
    SimScale {
        name: "e2e",
        warmup_instrs: 30_000,
        instrs_per_app: 120_000,
        epoch_cycles: 40_000,
        max_cycles: 200_000_000,
    }
}

fn run(benchmarks: Vec<Benchmark>, scheme: &str) -> coop_partitioning::harness::RunResult {
    System::builder()
        .workload_resolved(ResolvedWorkload::from_benchmarks(&benchmarks))
        .policy(scheme)
        .scale(quick())
        .build()
        .run()
}

#[test]
fn every_scheme_completes_and_reports_sane_numbers() {
    for scheme in PAPER_POLICIES {
        let r = run(vec![Benchmark::Lbm, Benchmark::Namd], scheme);
        assert_eq!(r.ipc.len(), 2, "{scheme}");
        for (i, &ipc) in r.ipc.iter().enumerate() {
            assert!(
                ipc > 0.01 && ipc < 4.0,
                "{scheme}: core {i} IPC {ipc} out of range"
            );
        }
        assert!(r.counts.tag_way_probes > 0, "{scheme}: no probes counted");
        assert!(r.energy.static_nj > 0.0, "{scheme}");
        assert!(
            r.cycles < quick().max_cycles,
            "{scheme}: run hit the safety cap"
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let make = || run(vec![Benchmark::Soplex, Benchmark::Gcc], "cooperative");
    let a = make();
    let b = make();
    assert_eq!(a.ipc, b.ipc);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.takeover_events, b.takeover_events);
    assert_eq!(a.flush_lines, b.flush_lines);
}

#[test]
fn way_aligned_schemes_probe_fewer_ways_than_unmanaged() {
    let benchmarks = vec![Benchmark::Lbm, Benchmark::Povray];
    let unmanaged = run(benchmarks.clone(), "unmanaged");
    let fair = run(benchmarks.clone(), "fair");
    let coop = run(benchmarks, "cooperative");
    assert_eq!(unmanaged.avg_ways, 8.0, "unmanaged probes everything");
    assert_eq!(fair.avg_ways, 4.0, "fair share probes its half");
    assert!(
        coop.avg_ways < 8.0,
        "cooperative probes only owned ways: {}",
        coop.avg_ways
    );
}

#[test]
fn cooperative_saves_static_energy_on_low_utilization_mixes() {
    // lbm (flat curve) + povray (tiny set): most ways should gate.
    let benchmarks = vec![Benchmark::Lbm, Benchmark::Povray];
    let fair = run(benchmarks.clone(), "fair");
    let coop = run(benchmarks, "cooperative");
    let fair_rate = fair.counts.on_way_cycles as f64 / fair.counts.total_cycles as f64;
    let coop_rate = coop.counts.on_way_cycles as f64 / coop.counts.total_cycles as f64;
    assert!((fair_rate - 8.0).abs() < 1e-9, "fair share never gates");
    assert!(
        coop_rate < 7.5,
        "cooperative should gate ways on this mix: {coop_rate:.2} ways on average"
    );
    assert!(coop.energy.static_nj < fair.energy.static_nj);
}

#[test]
fn ucp_never_gates_or_saves_tag_energy() {
    let r = run(vec![Benchmark::Lbm, Benchmark::Povray], "ucp");
    assert_eq!(r.counts.gated_way_cycles, 0, "UCP keeps all ways on");
    assert_eq!(r.avg_ways, 8.0, "UCP probes all ways");
}

#[test]
fn cooperative_transfers_complete() {
    // A phase-changing app forces repartitioning; transfers must finish.
    let r = run(vec![Benchmark::Soplex, Benchmark::Bzip2], "cooperative");
    let events: u64 = r.takeover_events.iter().sum();
    if r.repartitions > 0 {
        assert!(
            !r.cp_transfer_durations.is_empty() || events > 0 || r.forced_transfers > 0,
            "repartitions happened but no takeover activity was recorded"
        );
    }
    for &d in &r.cp_transfer_durations {
        assert!(d < quick().max_cycles, "absurd transfer duration {d}");
    }
}

#[test]
fn four_core_system_runs_all_schemes() {
    let benchmarks = vec![
        Benchmark::Lbm,
        Benchmark::Libquantum,
        Benchmark::Gromacs,
        Benchmark::Mcf,
    ];
    for scheme in PAPER_POLICIES {
        let r = run(benchmarks.clone(), scheme);
        assert_eq!(r.ipc.len(), 4, "{scheme}");
        assert!(r.mpki[0] > r.mpki[2], "{scheme}: lbm must out-miss gromacs");
    }
}

#[test]
fn weighted_speedup_against_solo_is_positive_and_bounded() {
    use coop_partitioning::harness::solo;
    let scale = quick();
    let benchmarks = vec![Benchmark::Milc, Benchmark::Namd];
    let workload = ResolvedWorkload::from_benchmarks(&benchmarks);
    let alone = solo::ipc_alone_for(&workload, solo::solo_llc(2), scale);
    let r = run(benchmarks, "ucp");
    let ws = r.weighted_speedup(&alone);
    assert!(
        ws > 1.0 && ws <= 2.2,
        "two barely-conflicting apps should run near solo speed: {ws}"
    );
}

#[test]
fn dynamic_cpe_profile_drives_gating() {
    use coop_partitioning::harness::solo;
    let scale = quick();
    let benchmarks = vec![Benchmark::Povray, Benchmark::Namd];
    let workload = ResolvedWorkload::from_benchmarks(&benchmarks);
    let mut sys = System::builder()
        .workload_resolved(workload.clone())
        .policy("cpe")
        .scale(scale)
        .build();
    sys.set_cpe_profile(solo::cpe_profile_for(&workload, solo::solo_llc(2), scale));
    let r = sys.run();
    assert!(
        r.counts.gated_way_cycles > 0,
        "two tiny-footprint apps must let CPE gate ways"
    );
}
