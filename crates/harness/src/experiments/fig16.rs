//! Figure 16: LLC-to-memory flush bandwidth after a partitioning decision —
//! Cooperative Partitioning's short early burst vs UCP's long steady drain —
//! plus the total lines flushed per transition (paper: CP 5102 vs UCP 6536).

use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};

/// Builds Figure 16 from the two-core paper sweep: the average flush time
/// profile (lines per bucket, averaged over repartitioning decisions) and
/// totals.
pub fn figure(sweep: &Sweep) -> Experiment {
    let coop_idx = sweep.policy_idx("cooperative");
    let ucp_idx = sweep.policy_idx("ucp");

    // Average the per-group series element-wise, weighting by decisions.
    let mut bucket = 0u64;
    let mut cp_series: Vec<f64> = Vec::new();
    let mut ucp_series: Vec<f64> = Vec::new();
    let mut cp_lines = 0u64;
    let mut ucp_lines = 0u64;
    let mut cp_reparts = 0u64;
    let mut ucp_reparts = 0u64;
    for g in 0..sweep.groups.len() {
        let cp = &sweep.runs[g][coop_idx];
        let ucp = &sweep.runs[g][ucp_idx];
        bucket = cp.flush_bucket;
        accumulate(&mut cp_series, &cp.flush_series);
        accumulate(&mut ucp_series, &ucp.flush_series);
        cp_lines += cp.flush_lines;
        ucp_lines += ucp.flush_lines;
        cp_reparts += cp.repartitions.max(1);
        ucp_reparts += ucp.repartitions.max(1);
    }
    for v in &mut cp_series {
        *v /= cp_reparts as f64;
    }
    for v in &mut ucp_series {
        *v /= ucp_reparts as f64;
    }

    let mut table = Table::new(vec![
        "Cycles since decision".to_string(),
        "UCP (lines)".to_string(),
        "Cooperative (lines)".to_string(),
    ]);
    let buckets = cp_series.len().max(ucp_series.len()).min(24);
    for i in 0..buckets {
        table.row(vec![
            format!("{}-{}", i as u64 * bucket, (i as u64 + 1) * bucket),
            format!("{:.1}", ucp_series.get(i).copied().unwrap_or(0.0)),
            format!("{:.1}", cp_series.get(i).copied().unwrap_or(0.0)),
        ]);
    }

    let cp_per = cp_lines as f64 / cp_reparts as f64;
    let ucp_per = ucp_lines as f64 / ucp_reparts as f64;
    Experiment {
        id: "Figure 16".to_string(),
        title: "LLC-to-memory flush traffic after a partitioning decision".to_string(),
        table,
        notes: vec![
            format!(
                "paper: CP bursts early then quiets; UCP drains steadily for far longer; totals per transition CP 5102 vs UCP 6536 lines"
            ),
            format!(
                "measured (scale '{}'): CP {cp_per:.0} vs UCP {ucp_per:.0} lines per repartition; CP flushes {} lines total, UCP {}",
                sweep.scale.name, cp_lines, ucp_lines
            ),
        ],
        perf: Some(sweep.perf),
    }
}

fn accumulate(into: &mut Vec<f64>, from: &[f64]) {
    if from.len() > into.len() {
        into.resize(from.len(), 0.0);
    }
    for (a, &b) in into.iter_mut().zip(from.iter()) {
        *a += b;
    }
}
