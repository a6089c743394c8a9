//! Fleet determinism property: a sweep's cells written to a results store
//! in any order — including a kill partway through followed by a resume
//! into a second store session — merge into figures *bit-identical* to
//! the single-process sweep.
//!
//! The simulations run once (in-process, via the fleet cell runner); each
//! proptest case then replays a random write order and kill point
//! through real [`fleet::ResultsStore`] sessions and compares the merged
//! render against the golden in-process render, byte for byte.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use fleet::{CellSpec, ResultsStore};
use harness::experiments::fig5_10::{figure_from, Metric};
use harness::experiments::ExperimentPerf;
use harness::fleet_run;
use harness::SimScale;
use proptest::prelude::*;
use simkit::json::{self, Value};

/// One sweep configuration under test: G2-1 over the full paper policy
/// set, G4-1 over a subset (both at quick scale, per the acceptance
/// checklist).
struct Case {
    cores: usize,
    policies: &'static [&'static str],
    group: &'static str,
}

const CASES: [Case; 2] = [
    Case {
        cores: 2,
        policies: &coop_core::PAPER_POLICIES,
        group: "G2-1",
    },
    Case {
        cores: 4,
        policies: &["ucp", "cooperative"],
        group: "G4-1",
    },
];

struct Baseline {
    cells: Vec<CellSpec>,
    /// Rendered payload text per cell ID — what a worker would put on
    /// the wire.
    payloads: BTreeMap<String, String>,
    /// The in-process figure renders (all three metrics per case).
    golden: Vec<Vec<String>>,
}

/// Simulates everything exactly once for the whole test binary.
fn baseline() -> &'static Baseline {
    static BASELINE: OnceLock<Baseline> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let scale = SimScale::quick();
        let mut cells = Vec::new();
        let mut golden = Vec::new();
        for case in &CASES {
            let filter = vec![case.group.to_string()];
            let grid = fleet_run::Grid::sweep(case.cores, scale, case.policies, &filter);
            cells.extend(grid.cells());
            let run = fleet_run::run_cells_local(&grid.cells()).expect("cells run");
            let sweep = fleet_run::merge_sweep(&|cell| run.lookup(cell), &grid, run.perf)
                .expect("groups exist");
            golden.push(
                Metric::ALL
                    .into_iter()
                    .map(|m| figure_from(&sweep, case.cores, m, &filter, sweep.perf).render())
                    .collect(),
            );
        }
        let computed = fleet_run::compute_cells_inprocess(&cells).expect("cells compute");
        let payloads = computed
            .into_iter()
            .map(|(id, payload)| (id, payload.render()))
            .collect();
        Baseline {
            cells,
            payloads,
            golden,
        }
    })
}

/// Strips the perf line (wall-clock varies run to run; everything else
/// must match bit for bit).
fn sans_perf(render: &str) -> String {
    render
        .lines()
        .filter(|l| !l.starts_with("perf:"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn fresh_store_dir() -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "fleet_determinism_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #[test]
    fn any_write_order_and_kill_point_merges_bit_identically(
        order_keys in proptest::collection::vec(any::<u64>(), 32),
        kill_at in 0usize..32,
    ) {
        let base = baseline();
        let n = base.cells.len();
        prop_assert!(n <= 32, "strategy vectors must cover every cell");

        // Random write order from the generated keys.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| order_keys[i]);
        let kill_at = kill_at % n;

        let dir = fresh_store_dir();
        // Session 1: write the first `kill_at` cells in permuted order,
        // then "crash" (drop the store mid-shard).
        {
            let store = ResultsStore::open(dir.to_str().expect("utf8 dir")).expect("open");
            for &i in order.iter().take(kill_at) {
                let cell = &base.cells[i];
                write_cell(&store, cell, &base.payloads);
            }
        }
        // Session 2 (the resume): a fresh store handle sees exactly the
        // durable cells and completes the remainder.
        let store = ResultsStore::open(dir.to_str().expect("utf8 dir")).expect("reopen");
        let ids: Vec<String> = base.cells.iter().map(CellSpec::id).collect();
        let audit = store.verify_cells(&ids).expect("cells verify");
        prop_assert!(audit.quarantined.is_empty());
        let done = audit.valid;
        prop_assert_eq!(done.len(), kill_at, "every pre-kill cell is durable");
        for &i in order.iter().skip(kill_at) {
            let cell = &base.cells[i];
            prop_assert!(!done.contains(&cell.id()), "remainder was not written");
            write_cell(&store, cell, &base.payloads);
        }

        // Merge through the store — the exact fleet read path — and
        // compare every figure byte-for-byte with the in-process golden.
        let lookup = |cell: &CellSpec| -> Result<Value, String> {
            store
                .read_cell(&cell.id())
                .map(|(_, payload)| payload)
                .map_err(|e| e.to_string())
        };
        let perf = ExperimentPerf::local(0.0, 0);
        for (case, golden) in CASES.iter().zip(base.golden.iter()) {
            let filter = vec![case.group.to_string()];
            let grid = fleet_run::Grid::sweep(case.cores, SimScale::quick(), case.policies, &filter);
            let sweep = fleet_run::merge_sweep(&lookup, &grid, perf).expect("merge");
            for (m, want) in [Metric::WeightedSpeedup, Metric::DynamicEnergy, Metric::StaticEnergy]
                .into_iter()
                .zip(golden.iter())
            {
                let merged = figure_from(&sweep, case.cores, m, &filter, perf).render();
                prop_assert_eq!(
                    sans_perf(&merged),
                    sans_perf(want),
                    "{}-core {:?} diverged (kill_at={})",
                    case.cores,
                    m,
                    kill_at
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn write_cell(store: &ResultsStore, cell: &CellSpec, payloads: &BTreeMap<String, String>) {
    let text = payloads.get(&cell.id()).expect("payload computed");
    let payload = json::parse(text).expect("payload parses");
    store.write_cell(cell, &payload).expect("cell writes");
}
