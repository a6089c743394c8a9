//! The coordinator's contracts, checked once per preset.
//!
//! Every test below runs against both registry presets — `dvfs` (ways ×
//! V/f) and `cbp` (ways × bandwidth × prefetch) — unless it pins a
//! behaviour only one axis set has. The property tests (vendored proptest)
//! cover the guarantees the subsystem leans on over randomized models and
//! slacks: the minimizer never plans a QoS violation under its own model,
//! conserves ways and bandwidth units, never grants zero ways (or zero
//! units when that axis is live), reports honest predictions, and sums
//! its energy from its per-core candidates.

use coop_core::policy::EpochObservations;
use coop_core::{EnforcementMode, MissCurve, PolicyRegistry, PolicySpec};
use coop_dvfs::{
    minimize, register, CbpPolicy, Controller, CorePerfModel, DvfsConfig, DvfsPolicy,
    JointAssignment, MAX_DEGREE,
};
use proptest::prelude::*;
use simkit::types::Cycle;

/// Both presets at `slack`, by registry name.
fn presets(slack: f64) -> [(&'static str, DvfsConfig); 2] {
    [
        ("dvfs", DvfsConfig::paper_default(slack)),
        ("cbp", DvfsConfig::cbp_default(slack)),
    ]
}

/// A model with the given miss profile and compute cycles over 100k
/// instructions, at prefetch accuracy `accuracy`.
fn model(misses_at: Vec<f64>, compute: f64, accuracy: f64) -> CorePerfModel {
    let mut m = CorePerfModel::from_parts(misses_at, compute, 100_000.0, 70.0);
    m.accuracy = accuracy;
    m
}

fn flat(ways: usize, misses: f64) -> Vec<f64> {
    vec![misses; ways + 1]
}

/// The QoS limit's baseline: nominal clock, fair ways, fair units, no
/// prefetch.
fn baseline_ns(m: &CorePerfModel, cfg: &DvfsConfig, cores: usize, total_ways: usize) -> f64 {
    let fair_units = if cfg.bandwidth {
        (cfg.mem.bw_units / cores).max(1)
    } else {
        0
    };
    m.predict_ns(
        cfg.table.nominal().freq_ghz,
        total_ways / cores,
        0,
        fair_units,
    )
}

/// Shape invariants every assignment must satisfy.
fn assert_well_formed(j: &JointAssignment, cfg: &DvfsConfig, total_ways: usize) {
    let ways: usize = j.way_targets().iter().sum();
    assert_eq!(ways + j.unallocated, total_ways, "ways conserved: {j:?}");
    assert!(j.way_targets().iter().all(|&w| w >= 1), "zero ways: {j:?}");
    let units: usize = j.cores.iter().map(|c| c.units).sum();
    if cfg.bandwidth {
        assert_eq!(units, cfg.mem.bw_units, "every unit granted: {j:?}");
        assert!(j.cores.iter().all(|c| c.units >= 1), "zero units: {j:?}");
        assert!(j.shares(&cfg.mem).iter().sum::<f64>() <= 1.0 + 1e-12);
    } else {
        assert_eq!(units, 0, "no bandwidth axis: {j:?}");
    }
    assert!(j.cores.iter().all(|c| c.op < cfg.table.len()));
    assert!(j.degrees().iter().all(|&d| d as usize <= cfg.max_degree));
    assert!(j.energy_nj.is_finite() && j.energy_nj > 0.0);
}

// ------------------------------------------------------------- minimizer

#[test]
fn qos_bound_is_respected_by_construction() {
    for (name, cfg) in presets(0.05) {
        let models = [
            model(
                vec![9_000.0, 6_000.0, 4_000.0, 2_500.0, 1_500.0],
                150_000.0,
                0.7,
            ),
            model(
                vec![3_000.0, 2_000.0, 1_500.0, 1_200.0, 1_000.0],
                250_000.0,
                0.3,
            ),
        ];
        let j = minimize(&models, &cfg, 4);
        for (i, c) in j.cores.iter().enumerate() {
            let base = baseline_ns(&models[i], &cfg, 2, 4);
            assert!(
                c.predicted_ns <= base * 1.05 + 1e-9,
                "{name} core {i}: {j:?}"
            );
        }
    }
}

#[test]
fn zero_slack_pins_the_baseline() {
    for (name, cfg) in presets(0.0) {
        let m = model(
            vec![5_000.0, 3_000.0, 2_000.0, 1_500.0, 1_200.0],
            200_000.0,
            0.6,
        );
        let models = [m.clone(), m];
        let j = minimize(&models, &cfg, 4);
        for (i, c) in j.cores.iter().enumerate() {
            assert!(c.predicted_ns <= baseline_ns(&models[i], &cfg, 2, 4) + 1e-9);
            // Core time dominates the roofline here and no clock runs above
            // nominal, so without prefetch only ways cut time: shrinking
            // below fair share is never admissible.
            if c.degree == 0 {
                assert!(c.ways >= 2, "{name}: cannot shrink below fair share: {j:?}");
            }
        }
    }
}

#[test]
fn cache_hungry_core_wins_ways() {
    for (name, cfg) in presets(0.20) {
        // Misses vanish with capacity: each way saves 10k misses x 20 nJ,
        // far above way leakage.
        let hungry = model(
            vec![
                80_000.0, 70_000.0, 60_000.0, 50_000.0, 40_000.0, 30_000.0, 20_000.0, 10_000.0,
                500.0,
            ],
            50_000.0,
            0.5,
        );
        let stream = model(flat(8, 20_000.0), 30_000.0, 0.5);
        let j = minimize(&[hungry, stream], &cfg, 8);
        assert!(
            j.cores[0].ways >= 6,
            "{name}: hungry core takes most ways: {j:?}"
        );
        assert_eq!(j.cores[1].ways, 1, "{name}");
    }
}

#[test]
fn flat_curves_shed_ways_for_gating() {
    for (name, cfg) in presets(0.10) {
        // Both cores streaming: capacity is useless, way leakage decides.
        let a = model(flat(8, 30_000.0), 30_000.0, 0.5);
        let j = minimize(&[a.clone(), a], &cfg, 8);
        assert_eq!(j.way_targets(), vec![1, 1], "{name}: {j:?}");
        assert_eq!(j.unallocated, 6, "{name}: six ways left for power gating");
    }
}

#[test]
fn four_core_sixteen_way_assignment_is_well_formed() {
    for (name, cfg) in presets(0.10) {
        let models: Vec<CorePerfModel> = (0..4)
            .map(|i| {
                let m: Vec<f64> = (0..=16)
                    .map(|w| 40_000.0 / (1.0 + w as f64 * (0.5 + i as f64)))
                    .collect();
                model(m, 100_000.0 * (1 + i) as f64, 0.25 * (1 + i) as f64)
            })
            .collect();
        let j = minimize(&models, &cfg, 16);
        assert_eq!(j.cores.len(), 4, "{name}");
        assert_well_formed(&j, &cfg, 16);
    }
}

#[test]
fn dvfs_down_clocks_memory_bound_core_not_compute_bound() {
    let cfg = DvfsConfig::paper_default(0.10);
    // Core 0: pure streaming (flat curve, huge miss count); core 1: pure
    // compute (no misses).
    let j = minimize(
        &[
            model(flat(8, 50_000.0), 25_000.0, 0.5),
            model(flat(8, 0.0), 400_000.0, 0.5),
        ],
        &cfg,
        8,
    );
    assert_eq!(
        j.cores[0].op,
        cfg.table.len() - 1,
        "lowest V/f point: {j:?}"
    );
    assert!(j.cores[1].op <= 1, "near nominal under 10% slack: {j:?}");
}

#[test]
fn cbp_turns_up_accurate_prefetcher_leaves_inaccurate_off() {
    let cfg = DvfsConfig::cbp_default(0.10);
    // Streaming core: 50k misses/epoch, each stall avoidable.
    let run = |acc| {
        let models = [
            model(flat(8, 50_000.0), 25_000.0, acc),
            model(flat(8, 0.0), 400_000.0, 0.5),
        ];
        minimize(&models, &cfg, 8)
    };
    let sharp = run(0.95);
    assert!(
        sharp.cores[0].degree > 0,
        "stalls become overlap: {sharp:?}"
    );
    let blunt = run(0.10);
    assert_eq!(
        blunt.cores[0].degree, 0,
        "dead lines waste DRAM energy: {blunt:?}"
    );
}

#[test]
fn cbp_spare_units_flow_to_measured_demand_or_spread_evenly() {
    let cfg = DvfsConfig::cbp_default(0.10);
    let units = cfg.mem.bw_units;
    let mut stream = model(flat(8, 50_000.0), 25_000.0, 0.9);
    stream.observed_lines_per_ns = 0.1 * cfg.mem.peak_lines_per_ns;
    let j = minimize(&[stream, model(flat(8, 0.0), 400_000.0, 0.5)], &cfg, 8);
    assert_eq!(
        j.cores[1].units, 1,
        "no measured traffic keeps one unit: {j:?}"
    );
    assert_eq!(
        j.cores[0].units,
        units - 1,
        "the streamer absorbs the rest: {j:?}"
    );
    // First epoch: nobody has measured traffic yet — the leftovers
    // round-robin, so no core is left exposed to its own bursts.
    let m = model(flat(8, 20_000.0), 50_000.0, 0.5);
    let j = minimize(&[m.clone(), m], &cfg, 8);
    assert_eq!([j.cores[0].units, j.cores[1].units], [units / 2, units / 2]);
}

/// Strategy: a non-increasing miss profile over `ways` ways built from
/// random per-way drops, fitted through a matching observation, with a
/// random prefetch accuracy, line amplification and measured line rate.
fn core_inputs(ways: usize) -> impl Strategy<Value = CorePerfModel> {
    (
        proptest::collection::vec(0.0f64..20_000.0, ways),
        (1_000.0f64..2_000_000.0, 1_000u64..2_000_000, 0u64..100),
        (0.0f64..1.0, 1.0f64..3.0, 0.0f64..0.5),
    )
        .prop_map(
            move |(drops, (compute, miss_seed, cur_seed), (acc, lpm, rate))| {
                let mut values = Vec::with_capacity(ways + 1);
                let mut current: f64 = drops.iter().sum::<f64>() + miss_seed as f64;
                values.push(current);
                for d in &drops {
                    current -= d;
                    values.push(current.max(0.0));
                }
                let curve = MissCurve::new(values.clone(), values[0] + 1.0);
                let cfg = DvfsConfig::paper_default(0.0);
                let cur_ways = 1 + (cur_seed as usize % ways);
                let obs = coop_dvfs::EpochObservation {
                    instrs: 50_000 + miss_seed / 2,
                    ref_cycles: (compute as u64).max(1) + miss_seed * 30,
                    misses: values[cur_ways] as u64,
                    cur_ways,
                    cur_ratio: 1.0,
                    ..Default::default()
                };
                let mut m = CorePerfModel::fit(&curve, &obs, &cfg.perf, &cfg.mem, ways);
                m.accuracy = acc;
                m.lines_per_miss = lpm;
                m.observed_lines_per_ns = rate * cfg.mem.peak_lines_per_ns;
                m
            },
        )
}

proptest! {
    #[test]
    fn minimizer_respects_qos_and_conserves_resources(
        models in proptest::collection::vec(core_inputs(8), 2..5),
        slack in 0.0f64..0.5,
    ) {
        for (_, cfg) in presets(slack) {
            let joint = minimize(&models, &cfg, 8);
            prop_assert_eq!(joint.cores.len(), models.len());
            assert_well_formed(&joint, &cfg, 8);
            // QoS under the minimizer's own model, and the reported
            // prediction is the model's at the chosen point — for `cbp`
            // after the spare units were spread and every core re-predicted.
            for (i, c) in joint.cores.iter().enumerate() {
                let limit_ns = baseline_ns(&models[i], &cfg, models.len(), 8) * (1.0 + slack);
                prop_assert!(
                    c.predicted_ns <= limit_ns + limit_ns * 1e-12,
                    "core {} exceeds QoS: {} > {}", i, c.predicted_ns, limit_ns
                );
                let f = cfg.table.point(c.op).freq_ghz;
                let recomputed = models[i].predict_ns(f, c.ways, c.degree as usize, c.units);
                prop_assert!(
                    (recomputed - c.predicted_ns).abs() <= recomputed * 1e-12,
                    "prediction is not the model's: {} vs {}", recomputed, c.predicted_ns
                );
            }
        }
    }

    #[test]
    fn minimizer_energy_is_the_per_core_sum(
        models in proptest::collection::vec(core_inputs(8), 2..4),
        slack in 0.0f64..0.3,
    ) {
        // The DP must not fabricate energy from unreachable states.
        for (_, cfg) in presets(slack) {
            let joint = minimize(&models, &cfg, 8);
            let sum: f64 = joint.cores.iter().map(|c| c.energy_nj).sum();
            prop_assert!(
                (sum - joint.energy_nj).abs() <= joint.energy_nj * 1e-9,
                "total {} != per-core sum {}", joint.energy_nj, sum
            );
            for c in &joint.cores {
                prop_assert!(c.energy_nj > 0.0 && c.predicted_ns > 0.0);
            }
        }
    }
}

// ------------------------------------------------------------ controller

fn obs(now: u64) -> EpochObservations {
    let hungry = MissCurve::new(
        vec![
            90_000.0, 60_000.0, 40_000.0, 25_000.0, 15_000.0, 8_000.0, 4_000.0, 2_000.0, 1_000.0,
        ],
        200_000.0,
    );
    EpochObservations {
        now: Cycle(now),
        epoch_index: 0,
        total_ways: 8,
        curves: vec![hungry, MissCurve::flat(8, 50_000.0, 60_000.0)],
        cur_ways: vec![4, 4],
        misses: vec![5_000, 50_000],
        retired: vec![400_000, 60_000],
        dram_lines: vec![6_000, 55_000],
        bw_delayed: Vec::new(),
        bw_delay_cycles: Vec::new(),
        prefetches: vec![128, 10_000],
        prefetch_useful: vec![100, 9_000],
    }
}

#[test]
fn first_epoch_decides_and_books_residency() {
    for (name, cfg) in presets(0.10) {
        let mut ctl = Controller::new(cfg.clone(), 2, 8);
        let j = ctl.on_epoch(&obs(500_000)).expect("time elapsed");
        assert_well_formed(&j, &cfg, 8);
        assert_eq!(ctl.decisions(), 1);
        assert_eq!(ctl.current_ops(), j.ops().as_slice(), "{name}");
        // The whole first interval was booked at nominal (op 0).
        assert_eq!(ctl.books().ref_cycles[0][0], 500_000, "{name}");
        assert_eq!(ctl.books().instrs[0][0], 400_000, "{name}");
        // The hungry core grows and the flat-curve streamer keeps the
        // minimum; under `dvfs` the streamer also leaves nominal frequency.
        assert!(j.cores[0].ways >= 4, "{name}: {j:?}");
        assert_eq!(j.cores[1].ways, 1, "{name}: {j:?}");
        if name == "dvfs" {
            assert!(j.cores[1].op > 0, "streamer down-clocked: {j:?}");
        }
    }
}

#[test]
fn zero_elapsed_time_yields_no_decision() {
    for (_, cfg) in presets(0.10) {
        let mut ctl = Controller::new(cfg, 2, 8);
        assert!(ctl.on_epoch(&obs(0)).is_none());
        assert_eq!(ctl.decisions(), 0);
    }
}

#[test]
fn absent_counters_read_as_zero_and_counters_are_differenced() {
    for (_, cfg) in presets(0.10) {
        let mut ctl = Controller::new(cfg.clone(), 2, 8);
        let mut o = obs(500_000);
        o.dram_lines = Vec::new();
        o.prefetches = Vec::new();
        o.prefetch_useful = Vec::new();
        // No prefetch evidence: accuracy falls back to the prior, traffic
        // to one line per miss — the decision must still be well-formed.
        assert_well_formed(&ctl.on_epoch(&o).expect("decides"), &cfg, 8);
        // The same cumulative counters later: every per-epoch delta is
        // zero, an idle interval that still decides (fair baseline).
        o.now = Cycle(1_000_000);
        assert_well_formed(&ctl.on_epoch(&o).expect("decides"), &cfg, 8);
        assert_eq!(ctl.decisions(), 2);
    }
}

#[test]
fn residency_windows_subtract() {
    for (name, cfg) in presets(0.20) {
        let mut ctl = Controller::new(cfg, 2, 8);
        let mut o = obs(100_000);
        o.retired = vec![80_000, 20_000];
        ctl.on_epoch(&o);
        let snap = ctl.books().clone();
        o.now = Cycle(200_000);
        o.retired = vec![160_000, 40_000];
        ctl.on_epoch(&o);
        let window = ctl.books().since(&snap);
        assert_eq!(window.ref_cycles[0].iter().sum::<u64>(), 100_000, "{name}");
        assert_eq!(window.instrs[1].iter().sum::<u64>(), 20_000, "{name}");
        let e = ctl.core_energy(&window);
        assert!(e.dynamic_nj > 0.0 && e.static_nj > 0.0, "{name}");
        let f = ctl.avg_freq_ghz(&window);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|&g| (1.2..=2.0).contains(&g)), "{name}: {f:?}");
    }
}

#[test]
fn settle_books_trailing_interval_without_deciding() {
    for (name, cfg) in presets(0.10) {
        let mut ctl = Controller::new(cfg, 1, 8);
        ctl.settle(Cycle(50_000), &[10_000], &[100]);
        assert_eq!(ctl.decisions(), 0, "{name}");
        assert_eq!(ctl.books().ref_cycles[0][0], 50_000, "{name}");
        assert_eq!(ctl.books().instrs[0][0], 10_000, "{name}");
    }
}

// ---------------------------------------------------------------- policy

fn spec() -> PolicySpec {
    PolicySpec {
        cores: 2,
        total_ways: 8,
        threshold: 0.03,
        cpe_slack: 0.05,
        qos_slack: 0.20,
    }
}

fn registry() -> PolicyRegistry {
    let mut reg = PolicyRegistry::core();
    register(&mut reg);
    reg
}

#[test]
fn policy_hints_exactly_its_live_axes() {
    let reg = registry();
    for (name, cfg) in presets(0.20) {
        let mut p = reg.build(name, &spec()).expect("registered");
        assert_eq!(p.enforcement(), EnforcementMode::Takeover);
        assert!(p.uses_umon());
        let d = p.on_epoch(&obs(500_000));
        let alloc = d.allocation.expect("elapsed time yields a decision");
        assert_eq!(alloc.ways.len(), 2);
        assert!(alloc.ways.iter().all(|&w| w >= 1));
        assert!(d.age_umons);
        let h = d.hints;
        assert_eq!(h.clock_ratios.is_some(), cfg.table.len() > 1, "{name}");
        assert_eq!(h.bandwidth_shares.is_some(), cfg.bandwidth, "{name}");
        assert_eq!(h.prefetch_slots.is_some(), cfg.max_degree > 0, "{name}");
        assert!(h.clock_ratios.unwrap_or_default().iter().all(|&r| r >= 1.0));
        let shares = h.bandwidth_shares.unwrap_or_default();
        assert!(shares.iter().all(|&s| s > 0.0) && shares.iter().sum::<f64>() <= 1.0 + 1e-12);
        let degrees = h.prefetch_slots.unwrap_or_default();
        assert!(degrees.iter().all(|&d| d as usize <= MAX_DEGREE));
    }
}

#[test]
fn zero_elapsed_time_falls_back_to_cooperative_lookahead() {
    let reg = registry();
    for (name, _) in presets(0.20) {
        let mut p = reg.build(name, &spec()).expect("registered");
        let d = p.on_epoch(&obs(0));
        let alloc = d.allocation.expect("fallback still repartitions");
        assert!(alloc.ways.iter().all(|&w| w >= 1));
        let h = d.hints;
        assert!(
            h.clock_ratios.is_none() && h.bandwidth_shares.is_none() && h.prefetch_slots.is_none()
        );
    }
}

#[test]
fn registry_entries_build_distinct_presets_with_spec_knobs() {
    let reg = registry();
    for (name, alias, label) in [
        ("dvfs", "coop-dvfs", "Coordinated DVFS + CP"),
        ("dvfs", "dvfs_cp", "Coordinated DVFS + CP"),
        (
            "cbp",
            "cbp_coord",
            "Coordinated CBP (ways + bandwidth + prefetch)",
        ),
    ] {
        assert_eq!(reg.resolve(alias), Some(name));
        assert_eq!(
            reg.entry(name).and_then(|e| e.scheme),
            Some(coop_core::SchemeKind::Cooperative)
        );
        let p = reg.build(name, &spec()).expect("registered");
        assert_eq!((p.name(), p.label()), (name, label));
    }
    let built = |name| reg.build(name, &spec()).expect("registered");
    let dvfs = built("dvfs");
    let any: &dyn std::any::Any = &*dvfs;
    let dvfs = any.downcast_ref::<DvfsPolicy>().expect("concrete type");
    assert!((dvfs.controller().config().qos_slack - 0.20).abs() < 1e-12);
    assert_eq!(dvfs.controller().config(), &DvfsConfig::paper_default(0.20));
    let cbp = built("cbp");
    let any: &dyn std::any::Any = &*cbp;
    assert!(
        any.downcast_ref::<DvfsPolicy>().is_none(),
        "residency books are dvfs-only"
    );
    let cbp = any.downcast_ref::<CbpPolicy>().expect("concrete type");
    assert_eq!(cbp.controller().config(), &DvfsConfig::cbp_default(0.20));
}
