//! Regenerates Figures 8-10 (four-core weighted speedup, dynamic energy,
//! static energy) and benches a four-core simulation slice.
//!
//! Run with `cargo bench -p bench --bench figures_four_core`.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::experiments::fig5_10::{figure, Metric};
use harness::system::System;
use harness::SimScale;
use workloads::{Benchmark, ResolvedWorkload};

fn bench_four_core(c: &mut Criterion) {
    let scale = SimScale::from_env_or(SimScale::tiny()).unwrap_or_else(|e| panic!("{e}"));
    for metric in [
        Metric::WeightedSpeedup,
        Metric::DynamicEnergy,
        Metric::StaticEnergy,
    ] {
        println!("{}", figure(4, metric, scale).render());
    }

    let bench_scale = SimScale {
        name: "bench4",
        warmup_instrs: 10_000,
        instrs_per_app: 40_000,
        epoch_cycles: 20_000,
        max_cycles: 100_000_000,
    };
    c.bench_function("four_core_cooperative_40k_instrs", |b| {
        b.iter(|| {
            System::builder()
                .workload_resolved(ResolvedWorkload::from_benchmarks(&[
                    Benchmark::Lbm,
                    Benchmark::Libquantum,
                    Benchmark::Gromacs,
                    Benchmark::Mcf,
                ]))
                .policy("cooperative")
                .scale(bench_scale)
                .build()
                .run()
        })
    });
}

criterion_group! {
    name = figures_four_core;
    config = Criterion::default().sample_size(10);
    targets = bench_four_core
}
criterion_main!(figures_four_core);
