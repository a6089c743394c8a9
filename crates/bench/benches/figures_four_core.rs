//! Benches a four-core simulation slice (the system behind Figures 8-10;
//! `repro fig8` renders the figures themselves).
//!
//! Run with `cargo bench -p bench --bench figures_four_core`.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::system::System;
use harness::SimScale;
use workloads::{Benchmark, ResolvedWorkload};

fn bench_four_core(c: &mut Criterion) {
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
