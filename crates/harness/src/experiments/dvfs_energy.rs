//! The `dvfs_energy` experiment: coordinated DVFS + cooperative
//! partitioning versus cooperative partitioning alone.
//!
//! For every two-core workload group of Table 4 the experiment runs a
//! Cooperative-scheme baseline (all cores pinned at nominal V/f) and one
//! coordinated run per QoS slack level. Each row reports, normalized to the
//! group's baseline:
//!
//! * whole-system energy (LLC tag + data + leakage, core dynamic + static)
//!   and ED²P;
//! * the measured per-core slowdown (baseline IPC / coordinated IPC) so the
//!   QoS promise can be audited against reality, not just the model;
//! * per-core residency-weighted average frequency and mean way occupancy —
//!   the two knobs the minimizer actually turned.
//!
//! A group is a *win* at a slack level when the coordinated run uses less
//! total energy and no core's measured slowdown exceeds `1 + slack`.

use coop_dvfs::DvfsConfig;
use simkit::geometric_mean;
use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};
use crate::policies::Knob;

/// Builds the experiment at `slacks` from the sweep of the
/// [`coordinator_grid`](crate::experiments::coordinator_grid) at those
/// slacks, which `cbp_energy` reads too; this figure reads its baseline
/// and `dvfs` columns.
pub fn figure(sweep: &Sweep, slacks: &[f64]) -> Experiment {
    // One controller configuration template: the runs derive from it (per
    // slack) and the residency column labels read its V/f table, so the
    // printed frequencies are by construction the ones the cores ran at.
    let template = DvfsConfig::paper_default(0.0);

    let mut table = Table::new(
        [
            "Group",
            "Slack",
            "E/base",
            "ED2P/base",
            "Slow c0",
            "Slow c1",
            "GHz c0",
            "GHz c1",
            "Ways c0",
            "Ways c1",
            "Residency c0",
            "Residency c1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut notes = Vec::new();
    let mut per_slack_ratios: Vec<Vec<f64>> = vec![Vec::new(); slacks.len()];
    let mut per_slack_wins: Vec<usize> = vec![0; slacks.len()];
    for (g, group) in sweep.groups.iter().enumerate() {
        let base = sweep.run(g, "cooperative");
        for (si, &slack) in slacks.iter().enumerate() {
            let r = sweep.run(g, &Knob::QosSlack(slack).setting("dvfs"));
            let e_ratio = r.total_energy_nj() / base.total_energy_nj();
            let ed2p_ratio = r.ed2p() / base.ed2p();
            let slow: Vec<f64> = base
                .ipc
                .iter()
                .zip(r.ipc.iter())
                .map(|(&b, &d)| b / d)
                .collect();
            let within_qos = slow.iter().all(|&s| s <= 1.0 + slack);
            if e_ratio < 1.0 && within_qos {
                per_slack_wins[si] += 1;
            }
            per_slack_ratios[si].push(e_ratio);
            let mut cells = vec![group.label.clone(), format!("{slack:.2}")];
            cells.extend(
                [
                    e_ratio,
                    ed2p_ratio,
                    slow[0],
                    slow[1],
                    r.avg_freq_ghz[0],
                    r.avg_freq_ghz[1],
                    r.avg_ways_owned[0],
                    r.avg_ways_owned[1],
                ]
                .iter()
                .map(|v| format!("{v:.3}")),
            );
            cells.extend(
                r.freq_residency
                    .iter()
                    .map(|row| residency_cell(row, &template.table)),
            );
            table.row(cells);
        }
    }
    for (si, &slack) in slacks.iter().enumerate() {
        let avg = geometric_mean(&per_slack_ratios[si]).unwrap_or(f64::NAN);
        table.row(vec![
            "AVG".to_string(),
            format!("{slack:.2}"),
            format!("{avg:.3}"),
        ]);
        notes.push(format!(
            "slack {slack:.2}: {} of {} groups win (lower energy, every core within 1+slack); geomean E/base {avg:.3}",
            per_slack_wins[si],
            sweep.groups.len()
        ));
    }
    notes.push(
        "baseline: Cooperative Partitioning at nominal 2.0 GHz / 1.10 V; energy covers LLC \
         (tag+data+leakage) and cores (dynamic+static)"
            .to_string(),
    );
    notes.push(format!(
        "total wins across slacks: {}",
        per_slack_wins.iter().sum::<usize>()
    ));
    Experiment {
        id: "DVFS-E".to_string(),
        title: "Coordinated DVFS + partitioning vs Cooperative alone (two-core)".to_string(),
        table,
        notes,
        perf: Some(sweep.perf),
    }
}

/// Formats one core's frequency residency as `slot:pct` pairs over the V/f
/// table the runs used (nominal first), skipping empty slots: e.g.
/// `2.0:12% 1.2:88%`.
fn residency_cell(fractions: &[f64], table: &cpusim::VfTable) -> String {
    let parts: Vec<String> = fractions
        .iter()
        .enumerate()
        .filter(|(_, &f)| f > 0.0005)
        .map(|(op, &f)| format!("{:.1}:{:.0}%", table.point(op).freq_ghz, f * 100.0))
        .collect();
    parts.join(" ")
}
