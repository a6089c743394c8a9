//! Quickstart: run one two-application workload under Cooperative
//! Partitioning and print performance, energy and takeover statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use coop_partitioning::harness::system::System;
use coop_partitioning::harness::{solo, SimScale};
use coop_partitioning::workloads::{Benchmark, ResolvedWorkload};

fn main() {
    // A streaming application (lbm, MPKI ~20) sharing the LLC with a
    // cache-friendly one (bzip2): the canonical case where way partitioning
    // pays off.
    let benchmarks = vec![Benchmark::Lbm, Benchmark::Bzip2];
    let scale = SimScale::tiny();
    println!(
        "running {:?} at scale '{}' ({} instructions per app)...",
        benchmarks.iter().map(|b| b.name()).collect::<Vec<_>>(),
        scale.name,
        scale.instrs_per_app
    );

    let workload = ResolvedWorkload::from_benchmarks(&benchmarks);
    let result = System::builder()
        .workload_resolved(workload.clone())
        .policy("cooperative")
        .scale(scale)
        .build()
        .run();

    println!("\nper-core results:");
    for (i, b) in benchmarks.iter().enumerate() {
        println!(
            "  {:8}  IPC {:.3}   LLC MPKI {:6.2}   APKI {:6.1}",
            b.name(),
            result.ipc[i],
            result.mpki[i],
            result.apki[i]
        );
    }

    let alone = solo::ipc_alone_for(&workload, solo::solo_llc(2), scale);
    println!(
        "\nweighted speedup vs solo: {:.3}",
        result.weighted_speedup(&alone)
    );
    println!(
        "average tag ways consulted per access: {:.2} / 8",
        result.avg_ways
    );
    println!(
        "energy: dynamic {:.1} uJ (tag side), static {:.1} uJ, data {:.1} uJ",
        result.energy.dynamic_nj / 1000.0,
        result.energy.static_nj / 1000.0,
        result.energy.data_nj / 1000.0
    );
    println!(
        "takeover: {} transfers completed (mean {} cycles), {} lines flushed",
        result.cp_transfer_durations.len(),
        if result.cp_transfer_durations.is_empty() {
            0
        } else {
            result.cp_transfer_durations.iter().sum::<u64>()
                / result.cp_transfer_durations.len() as u64
        },
        result.flush_lines
    );
}
