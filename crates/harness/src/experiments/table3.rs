//! Table 3: solo LLC MPKI classification of the 19 benchmark models,
//! measured against the paper's published values.

use std::sync::Arc;

use simkit::table::Table;
use workloads::{classify_mpki, Benchmark, SyntheticWorkload, WorkloadFactory};

use crate::experiments::Experiment;
use crate::scale::SimScale;
use crate::solo;

/// Builds Table 3 by running every benchmark solo in the two-core LLC.
pub fn table(scale: SimScale) -> Experiment {
    let started = std::time::Instant::now();
    let llc = solo::solo_llc(2);
    let mut t = Table::new(vec![
        "Benchmark".to_string(),
        "MPKI (paper)".to_string(),
        "MPKI (measured)".to_string(),
        "Class (paper)".to_string(),
        "Class (measured)".to_string(),
        "Match".to_string(),
    ]);
    let mut matches = 0;
    let mut sim_accesses = 0u64;
    for b in Benchmark::ALL {
        let factory: Arc<dyn WorkloadFactory> = Arc::new(SyntheticWorkload::new(b));
        let (r, computed) = solo::solo_result_tracked(&factory, llc, scale);
        if computed {
            // Cached baselines cost this table no time; counting their
            // accesses would inflate the perf line's throughput.
            sim_accesses += r.accesses;
        }
        let paper_class = classify_mpki(b.paper_mpki());
        let measured_class = classify_mpki(r.mpki);
        let ok = paper_class == measured_class;
        matches += usize::from(ok);
        t.row(vec![
            b.name().to_string(),
            format!("{:.2}", b.paper_mpki()),
            format!("{:.2}", r.mpki),
            paper_class.to_string(),
            measured_class.to_string(),
            if ok { "yes" } else { "NO" }.to_string(),
        ]);
    }
    Experiment {
        id: "Table 3".to_string(),
        title: "Workload classification by LLC MPKI".to_string(),
        table: t,
        notes: vec![format!(
            "{matches}/{} models land in the paper's MPKI class at scale '{}'",
            Benchmark::ALL.len(),
            scale.name
        )],
        perf: Some(crate::experiments::ExperimentPerf::local(
            started.elapsed().as_secs_f64(),
            sim_accesses,
        )),
    }
}
