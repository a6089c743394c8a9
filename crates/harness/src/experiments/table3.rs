//! Table 3: solo LLC MPKI classification of the 19 benchmark models,
//! measured against the paper's published values.

use fleet::CellSpec;
use simkit::table::Table;
use workloads::{classify_mpki, Benchmark};

use crate::experiments::Experiment;
use crate::fleet_run;
use crate::scale::SimScale;

/// Builds Table 3 from every benchmark's solo cell in the two-core LLC,
/// run on the local thread pool.
pub fn table(scale: SimScale) -> Experiment {
    let cells: Vec<CellSpec> = Benchmark::ALL
        .iter()
        .map(|b| CellSpec::solo(b.name(), 2, scale.name))
        .collect();
    let run = fleet_run::run_cells_local(&cells).unwrap_or_else(|e| panic!("{e}"));
    let mut t = Table::new(vec![
        "Benchmark".to_string(),
        "MPKI (paper)".to_string(),
        "MPKI (measured)".to_string(),
        "Class (paper)".to_string(),
        "Class (measured)".to_string(),
        "Match".to_string(),
    ]);
    let mut matches = 0;
    for (b, cell) in Benchmark::ALL.into_iter().zip(&cells) {
        let r = run
            .lookup(cell)
            .and_then(|v| fleet_run::solo_from_value(&v))
            .unwrap_or_else(|e| panic!("{e}"));
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
        perf: Some(run.perf),
    }
}
