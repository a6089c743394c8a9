//! Explores the takeover-threshold trade-off (paper Figures 11-13) on one
//! workload: performance vs dynamic/static energy as `T` grows.
//!
//! ```text
//! cargo run --release --example threshold_explorer [-- <group>]
//! ```

use coop_partitioning::harness::system::System;
use coop_partitioning::harness::{solo, SimScale};
use coop_partitioning::simkit::table::Table;
use coop_partitioning::workloads::{two_core_groups, ResolvedWorkload};

fn main() {
    let group_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "G2-6".to_string());
    let group = two_core_groups()
        .into_iter()
        .find(|g| g.name == group_name)
        .unwrap_or_else(|| panic!("unknown two-core group '{group_name}'"));
    let scale = SimScale::tiny();
    println!("threshold sweep on {group} at scale '{}'\n", scale.name);

    let workload = ResolvedWorkload::from_benchmarks(&group.benchmarks);
    let alone = solo::ipc_alone_for(&workload, solo::solo_llc(2), scale);
    let mut table = Table::new(vec![
        "T".into(),
        "weighted speedup".into(),
        "dynamic (norm T=0)".into(),
        "static (norm T=0)".into(),
        "avg ways probed".into(),
    ]);
    let mut base: Option<(f64, f64)> = None;
    for t in [0.0, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2] {
        let r = System::builder()
            .workload_resolved(workload.clone())
            .policy("cooperative")
            .threshold(t)
            .scale(scale)
            .build()
            .run();
        let (dyn0, stat0) = *base.get_or_insert((r.energy.dynamic_nj, r.energy.static_nj));
        table.row(vec![
            format!("{t}"),
            format!("{:.3}", r.weighted_speedup(&alone)),
            format!("{:.3}", r.energy.dynamic_nj / dyn0),
            format!("{:.3}", r.energy.static_nj / stat0),
            format!("{:.2}", r.avg_ways),
        ]);
    }
    println!("{}", table.render());
    println!("higher T -> fewer ways granted -> more gating/energy savings,");
    println!("until the threshold starves applications and performance falls.");
}
