//! Benches a representative two-core simulation slice (the system behind
//! Figures 5-7; `repro fig5` renders the figures themselves).
//!
//! Run with `cargo bench -p bench --bench figures_two_core`.

use criterion::{criterion_group, criterion_main, Criterion};
use harness::system::System;
use harness::SimScale;
use workloads::{Benchmark, ResolvedWorkload};

fn bench_two_core(c: &mut Criterion) {
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
