//! Figure 15: average cycles to transfer a way — Cooperative Partitioning's
//! cooperative takeover vs UCP's lazy replacement-driven migration.

use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};

fn mean(values: &[u64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<u64>() as f64 / values.len() as f64)
    }
}

/// Builds Figure 15 from the two-core paper sweep.
pub fn figure(sweep: &Sweep) -> Experiment {
    let mut table = Table::new(vec![
        "Group".to_string(),
        "UCP (cycles)".to_string(),
        "Cooperative (cycles)".to_string(),
        "speedup".to_string(),
    ]);
    let coop_idx = sweep.policy_idx("cooperative");
    let ucp_idx = sweep.policy_idx("ucp");
    let mut all_cp = Vec::new();
    let mut all_ucp = Vec::new();
    for g in 0..sweep.groups.len() {
        let cp = &sweep.runs[g][coop_idx].cp_transfer_durations;
        let ucp = &sweep.runs[g][ucp_idx].ucp_transfer_durations;
        all_cp.extend_from_slice(cp);
        all_ucp.extend_from_slice(ucp);
        let row = match (mean(ucp), mean(cp)) {
            (Some(u), Some(c)) => vec![
                sweep.groups[g].label.clone(),
                format!("{u:.0}"),
                format!("{c:.0}"),
                format!("{:.1}x", u / c.max(1.0)),
            ],
            (u, c) => vec![
                sweep.groups[g].label.clone(),
                u.map_or("-".into(), |v| format!("{v:.0}")),
                c.map_or("-".into(), |v| format!("{v:.0}")),
                "-".to_string(),
            ],
        };
        table.row(row);
    }
    let (u, c) = (mean(&all_ucp), mean(&all_cp));
    table.row(vec![
        "AVG".to_string(),
        u.map_or("-".into(), |v| format!("{v:.0}")),
        c.map_or("-".into(), |v| format!("{v:.0}")),
        match (u, c) {
            (Some(u), Some(c)) => format!("{:.1}x", u / c.max(1.0)),
            _ => "-".to_string(),
        },
    ]);

    let note = match (u, c) {
        (Some(u), Some(c)) => format!(
            "paper: CP transfers a way ~5x faster than UCP (10M vs 58M cycles at paper scale); measured {u:.0} vs {c:.0} cycles ({:.1}x) at scale '{}'",
            u / c.max(1.0),
            sweep.scale.name
        ),
        _ => "no completed transfers at this scale; increase --scale".to_string(),
    };
    Experiment {
        id: "Figure 15".to_string(),
        title: "Cycles taken to transfer a way".to_string(),
        table,
        notes: vec![note],
        perf: Some(sweep.perf),
    }
}
