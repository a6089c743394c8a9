//! Benches the allocation kernels that feed the paper's tables (1, 3, 4);
//! `repro table1`/`table3`/`table4` render the tables themselves.
//!
//! Run with `cargo bench -p bench --bench tables`.

use criterion::{criterion_group, criterion_main, Criterion};

fn bench_tables(c: &mut Criterion) {
    // Kernel 1: the threshold look-ahead allocator on realistic curves.
    let curves: Vec<coop_core::MissCurve> = (0..4)
        .map(|i| {
            let values: Vec<f64> = (0..=16)
                .map(|w| 10_000.0 / (1.0 + w as f64 * (1.0 + i as f64)))
                .collect();
            coop_core::MissCurve::new(values.clone(), values[0])
        })
        .collect();
    c.bench_function("lookahead_allocate_4core_16way", |b| {
        b.iter(|| coop_core::allocate(std::hint::black_box(&curves), 16, 0.05))
    });

    // Kernel 2: UMON observation (the per-access monitoring cost).
    c.bench_function("umon_observe_1k", |b| {
        let mut umon = coop_core::UtilityMonitor::new(4096, 8, 4);
        let mut tag = 0u64;
        b.iter(|| {
            for _ in 0..1000 {
                tag = tag.wrapping_mul(6364136223846793005).wrapping_add(1);
                umon.observe((tag >> 7) as usize & 4095, tag >> 20);
            }
        })
    });
}

criterion_group! {
    name = tables;
    config = Criterion::default().sample_size(20);
    targets = bench_tables
}
criterion_main!(tables);
