//! Equivalence guard for the policy/mechanism redesign *and* the workload
//! API redesign.
//!
//! The golden values below were captured from the *pre-redesign* code
//! (commit `8c64b33`, where `PartitionedLlc` matched on `SchemeKind` in its
//! victim/epoch paths and the harness drove `llc.on_epoch` directly) by
//! running group G2-1 at the `quick` scale. The trait-dispatched path —
//! registry-built `PartitionPolicy` objects feeding
//! `PartitionedLlc::apply_decision` through the `SystemBuilder` — must
//! reproduce them *bit-identically*: every count as an exact integer, every
//! IPC/energy figure as an exact IEEE-754 double. Any drift means a
//! redesign changed behavior, not just structure.
//!
//! Since the workload redesign (PR 4), G2-1 reaches the system through
//! `workload_registry().resolve("G2-1")` — factory-built instruction
//! sources instead of a hardcoded `Vec<Benchmark>` — so this suite also
//! pins the string-keyed workload path to the same goldens, via both
//! `run_group` and the `SystemBuilder::workload` spec entry point.

use std::sync::Arc;

use cpusim::{EpochControl, StepperKind};
use harness::experiments::run_group;
use harness::{solo, workload_registry, SimScale, System};
use simkit::types::Cycle;
use workloads::{ResolvedWorkload, WorkloadFactory, WorkloadSource};

struct Golden {
    policy: &'static str,
    ipc: [f64; 2],
    mpki: [f64; 2],
    /// (tag_way_probes, data_reads, data_writes, umon_probes,
    /// vector_accesses, on_way_cycles, gated_way_cycles, total_cycles).
    counts: [u64; 8],
    /// (dynamic_nj, data_nj, static_nj).
    energy: [f64; 3],
    /// (core dynamic_nj, core static_nj).
    core_energy: [f64; 2],
    cycles: u64,
    avg_ways: f64,
    flush_lines: u64,
    repartitions: u64,
    takeover_events: [u64; 4],
}

const GOLDENS: [Golden; 5] = [
    Golden {
        policy: "unmanaged",
        ipc: [0.31446507917706584, 1.485567709700262],
        mpki: [29.326666666666668, 1.88],
        counts: [248744, 13965, 17071, 0, 0, 7632008, 0, 954001],
        energy: [2736.1839999999997, 12305.81, 143473.20255103998],
        core_energy: [1906684.0, 477000.5],
        cycles: 954001,
        avg_ways: 8.0,
        flush_lines: 0,
        repartitions: 0,
        takeover_events: [0, 0, 0, 0],
    },
    Golden {
        policy: "fair",
        ipc: [0.30639789443366944, 1.4904166211261587],
        mpki: [30.096666666666668, 1.88],
        counts: [125300, 13923, 17286, 0, 0, 7832952, 0, 979119],
        energy: [1378.3, 12378.0, 147250.72469375998],
        core_energy: [1955762.0, 489559.5],
        cycles: 979119,
        avg_ways: 4.0,
        flush_lines: 0,
        repartitions: 0,
        takeover_events: [0, 0, 0, 0],
    },
    Golden {
        policy: "cpe",
        ipc: [0.3010926652823095, 1.4544326258326628],
        mpki: [30.793333333333333, 2.7466666666666666],
        counts: [97329, 13167, 17341, 0, 0, 4864797, 3106171, 996371],
        energy: [1070.619, 12113.27, 93345.75988159998],
        core_energy: [1832864.0, 498185.5],
        cycles: 996371,
        avg_ways: 3.0176062069339697,
        flush_lines: 0,
        repartitions: 4,
        takeover_events: [0, 0, 0, 0],
    },
    Golden {
        policy: "ucp",
        ipc: [0.31476037292808984, 1.4865762167626335],
        mpki: [29.256666666666668, 1.8766666666666667],
        counts: [248744, 13984, 17075, 1584, 0, 7624848, 0, 953106],
        energy: [2739.352, 12314.67, 143338.60257023998],
        core_energy: [1906636.0, 476553.0],
        cycles: 953106,
        avg_ways: 8.0,
        flush_lines: 42,
        repartitions: 4,
        takeover_events: [0, 0, 0, 0],
    },
    Golden {
        policy: "cooperative",
        ipc: [0.25937511347661213, 1.0998922105633648],
        mpki: [34.77, 6.126666666666667],
        counts: [97802, 11066, 18701, 1530, 3835, 6779756, 2473252, 1156626],
        energy: [1080.7994999999999, 11872.49, 128959.11817215997],
        core_energy: [1718175.0, 578313.0],
        cycles: 1156626,
        avg_ways: 3.1676251966795075,
        flush_lines: 946,
        repartitions: 16,
        takeover_events: [959, 567, 4210, 2897],
    },
];

fn check(golden: &Golden, r: &harness::RunResult) {
    let p = golden.policy;
    assert_eq!(r.policy, p);
    assert_eq!(r.workload, "G2-1", "{p}: workload label");
    assert_eq!(r.ipc, golden.ipc.to_vec(), "{p}: ipc");
    assert_eq!(r.mpki, golden.mpki.to_vec(), "{p}: mpki");
    let c = &r.counts;
    let measured = [
        c.tag_way_probes,
        c.data_reads,
        c.data_writes,
        c.umon_probes,
        c.vector_accesses,
        c.on_way_cycles,
        c.gated_way_cycles,
        c.total_cycles,
    ];
    assert_eq!(measured, golden.counts, "{p}: energy-event counts");
    assert_eq!(
        [r.energy.dynamic_nj, r.energy.data_nj, r.energy.static_nj],
        golden.energy,
        "{p}: LLC energy"
    );
    assert_eq!(
        [r.core_energy.dynamic_nj, r.core_energy.static_nj],
        golden.core_energy,
        "{p}: core energy"
    );
    assert_eq!(r.cycles, golden.cycles, "{p}: window cycles");
    assert_eq!(r.avg_ways, golden.avg_ways, "{p}: avg ways consulted");
    assert_eq!(r.flush_lines, golden.flush_lines, "{p}: flush lines");
    assert_eq!(r.repartitions, golden.repartitions, "{p}: repartitions");
    assert_eq!(
        r.takeover_events, golden.takeover_events,
        "{p}: takeover events"
    );
}

/// The registry-resolved G2-1 (the entry point every sweep now uses).
fn g2_1() -> ResolvedWorkload {
    let w = workload_registry().resolve("G2-1").expect("registered");
    assert_eq!(w.member_names(), vec!["soplex", "namd"]);
    w
}

#[test]
fn trait_dispatch_reproduces_pre_redesign_goldens_bit_identically() {
    let group = g2_1();
    for golden in &GOLDENS {
        let r = run_group(&group, golden.policy, SimScale::quick());
        check(golden, &r);
    }
}

/// Runs one configuration under both steppers and demands bit-identical
/// results. `Debug` formatting of [`harness::RunResult`] covers every field
/// (floats print their shortest round-trip form, so equal strings means
/// equal bits); on divergence only the first differing region is shown.
fn assert_steppers_agree(workload: &str, policy: &str) {
    let run = |kind: StepperKind| {
        let r = System::builder()
            .workload(workload)
            .policy(policy)
            .scale(SimScale::quick())
            .stepper(kind)
            .build()
            .run();
        format!("{r:?}")
    };
    let reference = run(StepperKind::Reference);
    let event_driven = run(StepperKind::EventDriven);
    if reference != event_driven {
        let at = reference
            .bytes()
            .zip(event_driven.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(reference.len().min(event_driven.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "{workload}/{policy}: steppers diverge near byte {at}:\n reference:    ...{}\n event-driven: ...{}",
            &reference[lo..(at + 80).min(reference.len())],
            &event_driven[lo..(at + 80).min(event_driven.len())],
        );
    }
}

#[test]
fn reference_and_event_driven_steppers_are_bit_identical() {
    // Every scheme family over G2-1, including the DVFS policy whose
    // per-epoch clock dilation is the hardest case for wake-list stepping
    // and the CBP policy, which re-publishes bandwidth shares and prefetch
    // degrees every epoch.
    for policy in ["unmanaged", "fair", "ucp", "cooperative", "dvfs", "cbp"] {
        assert_steppers_agree("G2-1", policy);
    }
}

#[test]
fn steppers_agree_on_a_four_core_dvfs_mix() {
    assert_steppers_agree("G4-1", "dvfs");
}

#[test]
fn workload_spec_path_reproduces_the_same_goldens_bit_identically() {
    // `System::builder().workload("G2-1")` — resolution inside the builder
    // itself — must match the pre-redesign goldens too. (The CPE policy
    // needs its solo profile installed by `run_group`, so the pure-builder
    // path covers the other four.)
    for golden in GOLDENS.iter().filter(|g| g.policy != "cpe") {
        let r = System::builder()
            .workload("G2-1")
            .policy(golden.policy)
            .scale(SimScale::quick())
            .build()
            .run();
        check(golden, &r);
    }
}

/// FNV-1a over the bytes of a run's `Debug` form: every `RunResult` field,
/// floats in their shortest round-trip form, so equal digests mean equal
/// bits.
fn run_digest(r: &harness::RunResult) -> u64 {
    format!("{r:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
        })
}

/// `(workload, policy, qos_slack, digest)`, recorded from the two separate
/// coordinator crates before they were folded into one controller with
/// two presets. Any drift means the fold changed behaviour.
const COORDINATOR_DIGESTS: [(&str, &str, f64, u64); 6] = [
    ("G2-1", "dvfs", 0.05, 0xf4d09d47a74e3aea),
    ("G2-1", "dvfs", 0.10, 0x10b80a5dcd8bda71),
    ("G4-5", "dvfs", 0.10, 0x593579be0cddec14),
    ("G2-1", "cbp", 0.05, 0x02067a47fe79a57c),
    ("G2-1", "cbp", 0.10, 0x3df7027b8c98e7e3),
    ("G4-5", "cbp", 0.10, 0xc0a248eb54eb26f0),
];

#[test]
fn coordinator_presets_reproduce_recorded_digests() {
    let mut drift = Vec::new();
    for &(workload, policy, slack, digest) in &COORDINATOR_DIGESTS {
        let r = System::builder()
            .workload(workload)
            .policy(policy)
            .qos_slack(slack)
            .scale(SimScale::quick())
            .build()
            .run();
        assert_eq!(r.policy, policy);
        let got = run_digest(&r);
        if got != digest {
            drift.push(format!("{workload}/{policy}@{slack}: {got:#018x}"));
        }
    }
    assert!(drift.is_empty(), "digests moved: {drift:#?}");
}

/// A plug-in factory that implements only `source()`: its cores run on
/// the boxed default stream, not the built-in factories' static one.
struct PassThrough(Arc<dyn WorkloadFactory>);

impl WorkloadFactory for PassThrough {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn summary(&self) -> String {
        self.0.summary()
    }

    fn source(&self, seed: u64) -> WorkloadSource {
        self.0.source(seed)
    }
}

#[test]
fn boxed_plug_in_sources_match_the_static_stream_path() {
    // The DVFS preset on the 4-core group also covers clock dilation.
    for (workload, policy) in [("G2-1", "cooperative"), ("G4-5", "dvfs")] {
        let built_in = workload_registry().resolve(workload).expect("registered");
        let wrapped = ResolvedWorkload {
            label: built_in.label.clone(),
            members: built_in
                .members
                .iter()
                .map(|m| Arc::new(PassThrough(Arc::clone(m))) as Arc<dyn WorkloadFactory>)
                .collect(),
        };
        let run = |w: ResolvedWorkload| {
            let r = System::builder()
                .workload_resolved(w)
                .policy(policy)
                .scale(SimScale::quick())
                .build()
                .run();
            run_digest(&r)
        };
        assert_eq!(
            run(built_in),
            run(wrapped),
            "{workload}/{policy}: boxed sources diverge from the static path"
        );
    }
}

#[test]
fn only_the_dvfs_preset_is_a_dvfs_policy() {
    // Only a policy that moves core clocks books V/f residency over the
    // measurement window; a CBP run must not, or settling its controller at
    // the window edges would shift its counter deltas.
    let registry = harness::policy_registry();
    let spec = coop_core::PolicySpec {
        cores: 2,
        total_ways: 8,
        threshold: 0.03,
        cpe_slack: 0.05,
        qos_slack: 0.10,
    };
    let books_clocks = |name: &&str| {
        let mut p = registry.build(name, &spec).expect("registered");
        p.open_clock_window(Cycle(1_000), &[100, 100], &[10, 10]);
        let window = p.close_clock_window(Cycle(5_000), &[900, 700], &[30, 20]);
        window.is_some_and(|w| w.freq_residency.iter().all(|row| row.len() > 1))
    };
    let names = registry.names();
    let dvfs: Vec<&str> = names.into_iter().filter(books_clocks).collect();
    assert_eq!(dvfs, ["dvfs"]);
}

/// `workload` under `policy` at the quick scale and QoS slack `slack`
/// (`cpe` with its solo profile installed, as the sweeps run it).
fn quick_system(workload: &str, policy: &str, slack: f64) -> System {
    let mut sys = System::builder()
        .workload(workload)
        .policy(policy)
        .qos_slack(slack)
        .scale(SimScale::quick())
        .build();
    if policy == "cpe" {
        let w = workload_registry().resolve(workload).expect("registered");
        let llc = solo::solo_llc(w.cores());
        sys.set_cpe_profile(solo::cpe_profile_for(&w, llc, SimScale::quick()));
    }
    sys
}

/// Every registry policy on G2-1 plus the two coordinator presets on the
/// four-core G4-5, each built at the quick scale and the default slack.
fn observed_systems() -> Vec<(String, impl Fn() -> System)> {
    let policies = harness::policy_registry().names();
    let cases = policies.into_iter().map(|p| ("G2-1", p));
    let cases = cases.chain([("G4-5", "dvfs"), ("G4-5", "cbp")]);
    cases
        .map(|(workload, policy)| {
            let build = move || quick_system(workload, policy, 0.10);
            (format!("{workload}/{policy}"), build)
        })
        .collect()
}

/// `(workload, policy, qos_slack, digest)` over every `RunResult` field,
/// recorded before the measurement window was read from one snapshot per
/// edge. Unlike the goldens above they also pin `apki`, `accesses`,
/// `prefetches`, `prefetch_useful`, `dram_lines` and `bw_delay_cycles`,
/// which are differenced across the window too.
const FULL_FIELD_DIGESTS: [(&str, &str, f64, u64); 11] = [
    ("G2-1", "unmanaged", 0.10, 0xfb52a300a6876572),
    ("G2-1", "fair", 0.10, 0xe39c81dc028ee29d),
    ("G2-1", "cpe", 0.10, 0xbdade272e2cfaf86),
    ("G2-1", "ucp", 0.10, 0x1173c8f5953b2cb0),
    ("G2-1", "cooperative", 0.10, 0xe1297d47a73e2096),
    ("G2-1", "dvfs", 0.10, 0x10b80a5dcd8bda71),
    ("G2-1", "cbp", 0.10, 0x3df7027b8c98e7e3),
    ("G4-5", "dvfs", 0.05, 0xe5e25a8781d8ba2a),
    ("G4-5", "dvfs", 0.10, 0x593579be0cddec14),
    ("G4-5", "cbp", 0.05, 0xffebe4d53eb64aa0),
    ("G4-5", "cbp", 0.10, 0xc0a248eb54eb26f0),
];

#[test]
fn every_field_reproduces_recorded_digests() {
    let registry = harness::policy_registry().names();
    let covered: Vec<&str> = FULL_FIELD_DIGESTS.iter().map(|c| c.1).collect();
    assert!(registry.iter().all(|p| covered.contains(p)), "{registry:?}");
    let mut drift = Vec::new();
    for &(workload, policy, slack, digest) in &FULL_FIELD_DIGESTS {
        let got = run_digest(&quick_system(workload, policy, slack).run());
        if got != digest {
            drift.push(format!("{workload}/{policy}@{slack}: {got:#018x}"));
        }
    }
    assert!(drift.is_empty(), "digests moved: {drift:#?}");
}

#[test]
fn observed_runs_match_plain_runs_and_show_every_epoch() {
    for (case, build) in observed_systems() {
        let plain = run_digest(&build().run());
        // (index, measured, way targets) of every view.
        let mut views: Vec<(u64, bool, Vec<usize>)> = Vec::new();
        let observed = build().run_observed(|v| {
            views.push((v.index, v.measured, v.llc.current_allocation()));
            EpochControl::Continue
        });
        assert_eq!(
            run_digest(&observed),
            plain,
            "{case}: watching changed the run"
        );
        for (i, view) in views.iter().enumerate() {
            assert_eq!(view.0, i as u64, "{case}: epoch indices run 0..k");
        }
        let warm = views.iter().take_while(|v| !v.1).count();
        let measured = &views[warm..];
        assert!(!measured.is_empty(), "{case}: no measured epoch");
        assert!(
            measured.iter().all(|v| v.1),
            "{case}: measured epochs come last"
        );
        let mean: Vec<f64> = (0..observed.ipc.len())
            .map(|c| measured.iter().map(|v| v.2[c] as f64).sum::<f64>() / measured.len() as f64)
            .collect();
        assert_eq!(mean, observed.avg_ways_owned, "{case}: mean way targets");
    }
}

#[test]
fn a_warm_up_stop_ends_the_run_before_measurement() {
    for (case, build) in observed_systems() {
        let mut views = Vec::new();
        build().run_observed(|v| {
            views.push((v.index, v.measured));
            if v.index == 2 {
                EpochControl::Stop
            } else {
                EpochControl::Continue
            }
        });
        assert_eq!(views, [(0, false), (1, false), (2, false)], "{case}");
    }
}
