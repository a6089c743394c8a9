//! Inspects the 19 synthetic SPEC CPU2006 models: solo IPC, LLC MPKI
//! against the paper's (Table 3 classification) and APKI — the numbers the
//! models in `workloads::spec` are calibrated against — and the UMON miss
//! curve each one presents to the partitioning algorithms.
//!
//! ```text
//! cargo run --release --example workload_studio [-- <benchmark>]
//! ```

use std::sync::Arc;

use coop_partitioning::harness::{solo, SimScale};
use coop_partitioning::simkit::table::Table;
use coop_partitioning::workloads::{classify_mpki, Benchmark, SyntheticWorkload, WorkloadFactory};

fn main() {
    let scale = SimScale::tiny();
    let llc = solo::solo_llc(2);
    let filter = std::env::args().nth(1);

    let mut table = Table::new(vec![
        "benchmark".into(),
        "class(paper)".into(),
        "MPKI(paper)".into(),
        "MPKI(measured)".into(),
        "IPC solo".into(),
        "APKI".into(),
        "miss curve (0..8 ways, % of accesses)".into(),
    ]);
    for b in Benchmark::ALL {
        if let Some(f) = &filter {
            if !b.name().contains(f.as_str()) {
                continue;
            }
        }
        let factory: Arc<dyn WorkloadFactory> = Arc::new(SyntheticWorkload::new(b));
        let r = solo::solo_result_for(&factory, llc, scale);
        let curve = r
            .epoch_curves
            .last()
            .map(|c| {
                let acc = c.accesses().max(1.0);
                (0..=8)
                    .map(|w| format!("{:4.1}", 100.0 * c.misses(w) / acc))
                    .collect::<Vec<_>>()
                    .join(" ")
            })
            .unwrap_or_else(|| "-".to_string());
        table.row(vec![
            b.name().to_string(),
            classify_mpki(b.paper_mpki()).to_string(),
            format!("{:.2}", b.paper_mpki()),
            format!("{:.2}", r.mpki),
            format!("{:.2}", r.ipc),
            format!("{:.1}", r.apki),
            curve,
        ]);
    }
    println!("scale '{}':\n", scale.name);
    println!("{}", table.render());
    println!("a flat curve (lbm, milc) gains nothing from extra ways;");
    println!("a steep early drop (namd, povray) is satisfied by 1-2 ways;");
    println!("a long graded tail (gcc, astar) is what UCP/CP feed.");
}
