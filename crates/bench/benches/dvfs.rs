//! Criterion kernels for the coordinated controller (`coop-dvfs`), one per
//! preset plus model fitting.
//!
//! Run with `cargo bench -p bench --bench dvfs`. The minimizer runs once
//! per epoch per system, so its cost must stay negligible against an epoch
//! (80 k–5 M cycles); the kernels below keep it honest. All curve lookups
//! are precomputed when the models are fitted — the minimizer's hot path is
//! pure arithmetic over the candidate tables. The `cbp` preset's extra axes
//! (8 bandwidth units × 5 prefetch degrees vs 5 V/f points) must keep its
//! decision within an order of magnitude of the `dvfs` one.

use coop_dvfs::{minimize, CorePerfModel, DvfsConfig, EpochObservation};
use criterion::{criterion_group, criterion_main, Criterion};

/// Fitted models for a 4-core, 16-way system with heterogeneous miss
/// curves (one streamer, one cache-hungry, two in between) and prefetch
/// accuracies (one covered streamer, one low-accuracy core, two in
/// between).
fn four_core_models(cfg: &DvfsConfig) -> Vec<CorePerfModel> {
    (0..4)
        .map(|i| {
            let values: Vec<f64> = (0..=16)
                .map(|w| 50_000.0 / (1.0 + w as f64 * (0.2 + i as f64)))
                .collect();
            let accesses = values[0] * 2.0;
            let curve = coop_core::MissCurve::new(values, accesses);
            let obs = EpochObservation {
                instrs: 400_000,
                ref_cycles: 1_000_000,
                misses: 20_000 / (i as u64 + 1),
                cur_ways: 4,
                cur_ratio: 1.0,
                ..EpochObservation::default()
            };
            let mut m = CorePerfModel::fit(&curve, &obs, &cfg.perf, &cfg.mem, 16);
            m.accuracy = 0.9 - 0.2 * i as f64;
            m.lines_per_miss = 1.0 + 0.1 * i as f64;
            m.observed_lines_per_ns = 0.05 * (i + 1) as f64 * cfg.mem.peak_lines_per_ns;
            m
        })
        .collect()
}

fn bench_coordinator(c: &mut Criterion) {
    // The per-epoch joint minimizer at the paper's largest configuration:
    // 4 cores, 16 ways, and either 5 operating points (`dvfs`) or 8
    // bandwidth units × degrees 0..=4 (`cbp`).
    let dvfs = DvfsConfig::paper_default(0.10);
    assert_eq!(dvfs.table.len(), 5, "the kernel name promises 5 V/f points");
    let models = four_core_models(&dvfs);
    c.bench_function("dvfs_minimize_4core_16way_5freq", |b| {
        b.iter(|| minimize(std::hint::black_box(&models), &dvfs, 16))
    });
    let cbp = DvfsConfig::cbp_default(0.10);
    assert_eq!(
        cbp.mem.bw_units, 8,
        "the kernel exercises 8 bandwidth units"
    );
    let models = four_core_models(&cbp);
    c.bench_function("cbp_decision_4core", |b| {
        b.iter(|| minimize(std::hint::black_box(&models), &cbp, 16))
    });

    // Model fitting (curve anchoring + calibration), the other per-epoch
    // cost.
    let values: Vec<f64> = (0..=16).map(|w| 50_000.0 / (1.0 + w as f64)).collect();
    let accesses = values[0] * 2.0;
    let curve = coop_core::MissCurve::new(values, accesses);
    let obs = EpochObservation {
        instrs: 400_000,
        ref_cycles: 1_000_000,
        misses: 10_000,
        cur_ways: 4,
        cur_ratio: 1.25,
        ..EpochObservation::default()
    };
    c.bench_function("dvfs_fit_model_16way", |b| {
        b.iter(|| {
            CorePerfModel::fit(
                std::hint::black_box(&curve),
                &obs,
                &dvfs.perf,
                &dvfs.mem,
                16,
            )
        })
    });
}

criterion_group! {
    name = dvfs;
    config = Criterion::default().sample_size(50);
    targets = bench_coordinator
}
criterion_main!(dvfs);
