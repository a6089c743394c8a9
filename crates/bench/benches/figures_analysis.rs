//! Benches the takeover protocol kernel behind the analysis figures: the
//! threshold sweep (Figures 11-13), takeover event breakdown (Figure 14),
//! way-transfer latency (Figure 15) and flush bandwidth (Figure 16), which
//! `repro fig11`..`repro fig16` render.
//!
//! Run with `cargo bench -p bench --bench figures_analysis`.

use criterion::{criterion_group, criterion_main, Criterion};
use simkit::types::{CoreId, Cycle};

fn bench_analysis(c: &mut Criterion) {
    // Kernel: the takeover bit-vector protocol (mark + completion check),
    // the per-access cost cooperative takeover adds during transitions.
    c.bench_function("takeover_mark_4096_sets", |b| {
        b.iter(|| {
            let mut st = coop_core::takeover::TakeoverState::new(4096, 2);
            st.begin(vec![coop_core::takeover::Transition {
                way: 3,
                donor: CoreId(1),
                recipient: Some(CoreId(0)),
                started: Cycle(0),
                epoch: 0,
            }]);
            for s in 0..4096 {
                st.mark(
                    Cycle(s as u64),
                    CoreId(1),
                    s,
                    coop_core::TakeoverEventKind::DonorHit,
                );
            }
            st
        })
    });
}

criterion_group! {
    name = figures_analysis;
    config = Criterion::default().sample_size(10);
    targets = bench_analysis
}
criterion_main!(figures_analysis);
