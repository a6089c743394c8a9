//! Figures 11-13: sensitivity of Cooperative Partitioning to the takeover
//! threshold `T` ∈ {0, 0.01, 0.05, 0.1, 0.2} on the two-core workloads,
//! normalized per group to `T = 0`.

use simkit::geometric_mean;
use simkit::table::Table;

use crate::experiments::{Experiment, Sweep};
use crate::fleet_run::Grid;
use crate::policies::Knob;
use crate::scale::SimScale;

/// The threshold values the paper sweeps (Section 5.1).
pub const THRESHOLDS: [f64; 5] = [0.0, 0.01, 0.05, 0.1, 0.2];

/// Which quantity the figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdMetric {
    /// Figure 11: weighted speedup normalized to T=0.
    Performance,
    /// Figure 12: dynamic energy normalized to T=0.
    DynamicEnergy,
    /// Figure 13: static energy normalized to T=0.
    StaticEnergy,
}

/// The threshold grid: the two-core groups under Cooperative at each of
/// [`THRESHOLDS`], plus their solo baselines.
pub fn threshold_grid(scale: SimScale) -> Grid {
    Grid {
        cores: 2,
        scale,
        settings: THRESHOLDS
            .iter()
            .map(|&t| Knob::Threshold(t).setting("cooperative"))
            .collect(),
        group_filter: Vec::new(),
        solo: true,
    }
}

/// Builds Figure 11, 12 or 13 from the sweep of the [`threshold_grid`].
pub fn figure(metric: ThresholdMetric, sweep: &Sweep) -> Experiment {
    let (id, title) = match metric {
        ThresholdMetric::Performance => (
            "Figure 11",
            "Takeover threshold vs weighted speedup (norm. T=0)",
        ),
        ThresholdMetric::DynamicEnergy => (
            "Figure 12",
            "Takeover threshold vs dynamic energy (norm. T=0)",
        ),
        ThresholdMetric::StaticEnergy => (
            "Figure 13",
            "Takeover threshold vs static energy (norm. T=0)",
        ),
    };

    let mut headers = vec!["Group".to_string()];
    headers.extend(THRESHOLDS.iter().map(|t| format!("T={t}")));
    let mut table = Table::new(headers);
    let mut per_threshold: Vec<Vec<f64>> = vec![Vec::new(); THRESHOLDS.len()];

    for (g, group) in sweep.groups.iter().enumerate() {
        let value = |t: usize| -> f64 {
            let r = sweep.run(g, &Knob::Threshold(THRESHOLDS[t]).setting("cooperative"));
            match metric {
                ThresholdMetric::Performance => r.weighted_speedup(&sweep.ipc_alone[g]),
                ThresholdMetric::DynamicEnergy => r.energy.dynamic_nj,
                ThresholdMetric::StaticEnergy => r.energy.static_nj,
            }
        };
        let base = value(0);
        let values: Vec<f64> = (0..THRESHOLDS.len()).map(|t| value(t) / base).collect();
        for (acc, &v) in per_threshold.iter_mut().zip(values.iter()) {
            acc.push(v);
        }
        table.row_f64(&group.label, &values, 3);
    }
    let avgs: Vec<f64> = per_threshold
        .iter()
        .map(|v| geometric_mean(v).unwrap_or(f64::NAN))
        .collect();
    table.row_f64("AVG", &avgs, 3);

    let notes = match metric {
        ThresholdMetric::Performance => vec![
            format!(
                "paper: no performance loss up to T=0.05, ~17% at T=0.1, large at T=0.2; measured T=0.05 {:.3}, T=0.1 {:.3}, T=0.2 {:.3}",
                avgs[2], avgs[3], avgs[4]
            ),
        ],
        ThresholdMetric::DynamicEnergy => vec![format!(
            "paper: dynamic energy falls as T grows (T=0.05 saves on almost all workloads); measured T=0.05 {:.3}",
            avgs[2]
        )],
        ThresholdMetric::StaticEnergy => vec![format!(
            "paper: static energy falls with T (all workloads save at T=0.05); measured T=0.05 {:.3}",
            avgs[2]
        )],
    };
    Experiment {
        id: id.to_string(),
        title: title.to_string(),
        table,
        notes,
        perf: Some(sweep.perf),
    }
}
