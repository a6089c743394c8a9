//! Figures 5-10: weighted speedup, dynamic energy and static energy for the
//! two-core (Figs 5-7) and four-core (Figs 8-10) sweeps, all normalized to
//! Fair Share, with the geometric-mean AVG column the paper plots. The
//! same machinery renders the 8-core extension sweep over the G8 groups
//! (beyond the paper).

use simkit::geometric_mean;
use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};

/// Which quantity a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Weighted speedup (Figures 5/8).
    WeightedSpeedup,
    /// Dynamic (tag-side) energy (Figures 6/9).
    DynamicEnergy,
    /// Static (leakage) energy (Figures 7/10).
    StaticEnergy,
}

impl Metric {
    /// Every metric, in the order a full sweep renders them.
    pub const ALL: [Metric; 3] = [
        Metric::WeightedSpeedup,
        Metric::DynamicEnergy,
        Metric::StaticEnergy,
    ];

    fn of(self, sweep: &Sweep, g: usize, policy: &str) -> f64 {
        match self {
            Metric::WeightedSpeedup => sweep.ws_normalized(g, policy),
            Metric::DynamicEnergy => sweep.dynamic_normalized(g, policy),
            Metric::StaticEnergy => sweep.static_normalized(g, policy),
        }
    }
}

/// Builds one sweep figure from an already-computed [`Sweep`] — the one
/// table builder behind the in-process path (the process memo) and the
/// fleet path, where the sweep was merged from a results store and `perf`
/// carries the orchestration's aggregate cost.
pub fn figure_from(
    sweep: &Sweep,
    cores: usize,
    metric: Metric,
    group_filter: &[String],
    perf: crate::experiments::ExperimentPerf,
) -> Experiment {
    let (id, title) = match (cores, metric) {
        (2, Metric::WeightedSpeedup) => {
            ("Figure 5", "Weighted speedup, two-core (norm. Fair Share)")
        }
        (2, Metric::DynamicEnergy) => ("Figure 6", "Dynamic energy, two-core (norm. Fair Share)"),
        (2, Metric::StaticEnergy) => ("Figure 7", "Static energy, two-core (norm. Fair Share)"),
        (4, Metric::WeightedSpeedup) => {
            ("Figure 8", "Weighted speedup, four-core (norm. Fair Share)")
        }
        (4, Metric::DynamicEnergy) => ("Figure 9", "Dynamic energy, four-core (norm. Fair Share)"),
        (4, Metric::StaticEnergy) => ("Figure 10", "Static energy, four-core (norm. Fair Share)"),
        (8, Metric::WeightedSpeedup) => (
            "8-core WS",
            "Weighted speedup, eight-core (norm. Fair Share)",
        ),
        (8, Metric::DynamicEnergy) => (
            "8-core DynE",
            "Dynamic energy, eight-core (norm. Fair Share)",
        ),
        (8, Metric::StaticEnergy) => (
            "8-core StatE",
            "Static energy, eight-core (norm. Fair Share)",
        ),
        _ => panic!("sweep figures cover 2-, 4- and 8-core systems"),
    };

    let mut headers = vec!["Group".to_string()];
    headers.extend((0..sweep.policies.len()).map(|i| sweep.label(i).to_string()));
    let mut table = Table::new(headers);
    let mut per_policy: Vec<Vec<f64>> = vec![Vec::new(); sweep.policies.len()];
    for g in 0..sweep.groups.len() {
        let values: Vec<f64> = sweep
            .policies
            .iter()
            .map(|p| metric.of(sweep, g, p))
            .collect();
        for (acc, &v) in per_policy.iter_mut().zip(values.iter()) {
            acc.push(v);
        }
        table.row_f64(&sweep.groups[g].label, &values, 3);
    }
    let avgs: Vec<f64> = per_policy
        .iter()
        .map(|v| geometric_mean(v).unwrap_or(f64::NAN))
        .collect();
    table.row_f64("AVG", &avgs, 3);

    // Paper-comparison notes only mention the policies actually swept.
    let avg_of = |name: &str| {
        sweep
            .policies
            .iter()
            .position(|&p| p == name)
            .map(|i| avgs[i])
    };
    // Paper-comparison notes only apply to the paper's 2-/4-core sweeps.
    let mut notes = if cores == 8 {
        let parts: Vec<String> = ["ucp", "cooperative"]
            .iter()
            .filter_map(|&n| avg_of(n).map(|v| format!("{n} {v:.3}")))
            .collect();
        if parts.is_empty() {
            vec![format!("policies: {}", sweep.policies.join(", "))]
        } else {
            vec![format!("measured geomeans: {}", parts.join(", "))]
        }
    } else {
        match (metric, avg_of("cooperative"), avg_of("ucp")) {
        (Metric::WeightedSpeedup, Some(coop), Some(ucp)) => vec![
            format!(
                "paper: UCP and Cooperative ~1.13-1.14 (2-core) / ~1.12-1.13 (4-core); measured UCP {ucp:.3}, Cooperative {coop:.3}"
            ),
            format!(
                "paper: Cooperative within ~1% of UCP; measured gap {:.1}%",
                (ucp - coop) / ucp * 100.0
            ),
        ],
        (Metric::DynamicEnergy, Some(coop), _) => {
            let mut v = vec![format!(
                "paper: Cooperative ~0.68 (2-core) / ~0.69 (4-core) of Fair Share; measured {coop:.3}"
            )];
            if let Some(un) = avg_of("unmanaged") {
                v.push(format!(
                    "paper: Unmanaged ~{} (probes all ways); measured {un:.2}",
                    if cores == 2 { "2.0" } else { "4.0" },
                ));
            }
            v
        }
        (Metric::StaticEnergy, Some(coop), _) => vec![format!(
            "paper: Cooperative ~0.75 (2-core) / ~0.80 (4-core) of Fair Share; measured {coop:.3}; Unmanaged/UCP/FairShare stay at 1.0"
        )],
            _ => vec![format!("policies: {}", sweep.policies.join(", "))],
        }
    };
    if cores == 8 {
        notes.insert(
            0,
            "extension beyond the paper: 8 cores in the 8 MB / 32-way LLC over the G8 groups"
                .to_string(),
        );
    }
    if !group_filter.is_empty() {
        notes.push(format!(
            "groups restricted to: {}",
            sweep
                .groups
                .iter()
                .map(|g| g.label.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Experiment {
        id: id.to_string(),
        title: title.to_string(),
        table,
        notes,
        perf: Some(perf),
    }
}
