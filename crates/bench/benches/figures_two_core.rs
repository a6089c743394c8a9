//! Regenerates Figures 5-7 (two-core weighted speedup, dynamic energy,
//! static energy) and benches a representative two-core simulation slice.
//!
//! Run with `cargo bench -p bench --bench figures_two_core`.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::experiments::fig5_10::{figure, Metric};
use harness::system::System;
use harness::SimScale;
use workloads::{Benchmark, ResolvedWorkload};

fn bench_two_core(c: &mut Criterion) {
    let scale = SimScale::from_env_or(SimScale::tiny()).unwrap_or_else(|e| panic!("{e}"));
    for metric in [
        Metric::WeightedSpeedup,
        Metric::DynamicEnergy,
        Metric::StaticEnergy,
    ] {
        println!("{}", figure(2, metric, scale).render());
    }

    // Time one full cooperative two-core run at a fixed small size so the
    // number is comparable across machines and code changes.
    let bench_scale = SimScale {
        name: "bench2",
        warmup_instrs: 10_000,
        instrs_per_app: 50_000,
        epoch_cycles: 20_000,
        max_cycles: 100_000_000,
    };
    c.bench_function("two_core_cooperative_50k_instrs", |b| {
        b.iter(|| {
            System::builder()
                .workload_resolved(ResolvedWorkload::from_benchmarks(&[
                    Benchmark::Lbm,
                    Benchmark::Bzip2,
                ]))
                .policy("cooperative")
                .scale(bench_scale)
                .build()
                .run()
        })
    });
}

criterion_group! {
    name = figures_two_core;
    config = Criterion::default().sample_size(10);
    targets = bench_two_core
}
criterion_main!(figures_two_core);
