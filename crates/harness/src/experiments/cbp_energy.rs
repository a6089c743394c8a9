//! The `cbp_energy` experiment: coordinated cache + bandwidth + prefetch
//! (CBP) partitioning versus cooperative partitioning alone and versus
//! the coordinated DVFS controller.
//!
//! For every two-core workload group of Table 4 the experiment runs a
//! Cooperative-scheme baseline (no regulator, prefetch off, nominal V/f)
//! and, per QoS slack level, one `dvfs` run and one `cbp` run. Each row
//! reports, normalized to the group's baseline:
//!
//! * whole-system energy and ED²P for both coordinators, so the CBP
//!   column can be read against the best single-resource alternative and
//!   not just against "do nothing";
//! * the measured per-core slowdown (baseline IPC / coordinated IPC) of
//!   the CBP run — the QoS promise is enforced inside the minimizer's
//!   model by construction, and this column audits it against reality;
//! * the epoch-averaged bandwidth share and prefetch degree per core —
//!   the two new knobs the coordinator actually turned.
//!
//! A group is a *CBP win* at a slack level when the CBP run uses less
//! total energy than the baseline and no core's measured slowdown exceeds
//! `1 + slack`.

use simkit::geometric_mean;
use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};
use crate::policies::Knob;

/// Builds the experiment at `slacks` from the sweep of the
/// [`coordinator_grid`](crate::experiments::coordinator_grid) at those
/// slacks, which `dvfs_energy` reads too.
pub fn figure(sweep: &Sweep, slacks: &[f64]) -> Experiment {
    let mut table = Table::new(
        [
            "Group", "Slack", "E cbp", "E dvfs", "ED2P cbp", "Slow c0", "Slow c1", "BW c0",
            "BW c1", "PF c0", "PF c1", "Ways c0", "Ways c1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    let mut notes = Vec::new();
    let mut cbp_ratios: Vec<Vec<f64>> = vec![Vec::new(); slacks.len()];
    let mut dvfs_ratios: Vec<Vec<f64>> = vec![Vec::new(); slacks.len()];
    let mut cbp_wins: Vec<usize> = vec![0; slacks.len()];
    let mut qos_violations = 0usize;
    for (g, group) in sweep.groups.iter().enumerate() {
        let base = sweep.run(g, "cooperative");
        for (si, &slack) in slacks.iter().enumerate() {
            let dvfs = sweep.run(g, &Knob::QosSlack(slack).setting("dvfs"));
            let cbp = sweep.run(g, &Knob::QosSlack(slack).setting("cbp"));
            let e_cbp = cbp.total_energy_nj() / base.total_energy_nj();
            let e_dvfs = dvfs.total_energy_nj() / base.total_energy_nj();
            let ed2p_cbp = cbp.ed2p() / base.ed2p();
            let slow: Vec<f64> = base
                .ipc
                .iter()
                .zip(cbp.ipc.iter())
                .map(|(&b, &d)| b / d)
                .collect();
            let within_qos = slow.iter().all(|&s| s <= 1.0 + slack);
            if !within_qos {
                qos_violations += 1;
            }
            if e_cbp < 1.0 && within_qos {
                cbp_wins[si] += 1;
            }
            cbp_ratios[si].push(e_cbp);
            dvfs_ratios[si].push(e_dvfs);
            let mut cells = vec![group.label.clone(), format!("{slack:.2}")];
            cells.extend(
                [
                    e_cbp,
                    e_dvfs,
                    ed2p_cbp,
                    slow[0],
                    slow[1],
                    cbp.avg_bw_share[0],
                    cbp.avg_bw_share[1],
                    cbp.avg_prefetch_degree[0],
                    cbp.avg_prefetch_degree[1],
                    cbp.avg_ways_owned[0],
                    cbp.avg_ways_owned[1],
                ]
                .iter()
                .map(|v| format!("{v:.3}")),
            );
            table.row(cells);
        }
    }
    for (si, &slack) in slacks.iter().enumerate() {
        let avg_cbp = geometric_mean(&cbp_ratios[si]).unwrap_or(f64::NAN);
        let avg_dvfs = geometric_mean(&dvfs_ratios[si]).unwrap_or(f64::NAN);
        table.row(vec![
            "AVG".to_string(),
            format!("{slack:.2}"),
            format!("{avg_cbp:.3}"),
            format!("{avg_dvfs:.3}"),
        ]);
        notes.push(format!(
            "slack {slack:.2}: {} of {} groups are CBP wins (lower energy, every core within 1+slack); geomean E/base cbp {avg_cbp:.3} vs dvfs {avg_dvfs:.3}",
            cbp_wins[si],
            sweep.groups.len()
        ));
    }
    notes.push(format!(
        "measured QoS violations across all CBP runs: {qos_violations} (the minimizer permits zero under its own model)"
    ));
    notes.push(
        "baseline: Cooperative Partitioning with the bandwidth regulator and prefetcher off; \
         energy covers LLC (tag+data+leakage), cores (dynamic+static) and DRAM traffic"
            .to_string(),
    );
    Experiment {
        id: "CBP-E".to_string(),
        title: "Coordinated cache+bandwidth+prefetch vs Cooperative and DVFS (two-core)"
            .to_string(),
        table,
        notes,
        perf: Some(sweep.perf),
    }
}
