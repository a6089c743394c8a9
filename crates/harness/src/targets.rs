//! The `repro` targets: one table lists every target by name as an
//! ordered list of parts, which [`Target::find`] looks up. A part names
//! the cells it reads (a [`Grid`], Table 3's solo cells, the sampled
//! mixes, or none for Tables 1 and 4) and renders [`Experiment`]s from a
//! cell lookup and a perf. In process ([`Target::run_inprocess`]) each
//! part runs its own cells and renders from that run; under `--workers`
//! ([`fleet_run::run_fleet_target`]) the fleet runs the target's
//! deduplicated cells once, reusing those its store already holds, and
//! every part renders from the store.

use std::collections::BTreeSet;

use fleet::CellSpec;

use crate::experiments::fig11_13::{self, ThresholdMetric};
use crate::experiments::fig5_10::{figure_from, Metric};
use crate::experiments::{
    cbp_energy, coordinator_grid, dvfs_energy, fig14, fig15, fig16, table1, table3, table4,
    Experiment, ExperimentPerf, Sweep,
};
use crate::fleet_run::{self, filtered_groups, sample_figures, CellLookup, Grid, SamplePlan};
use crate::scale::SimScale;

/// The `repro` flags a target's parts are built from.
#[derive(Debug, Clone, Copy)]
pub struct TargetArgs<'a> {
    /// Scale preset (cells name it).
    pub scale: SimScale,
    /// `--policy`: filters the paper sweeps and the sample (empty keeps
    /// each part's default set).
    pub policies: &'a [&'static str],
    /// `--group`: filters the paper sweeps (empty keeps every group).
    pub groups: &'a [String],
    /// `--slacks` of the coordinator grid (`DEFAULT_SLACKS` when not given).
    pub slacks: &'a [f64],
    /// The Monte Carlo plan the sample part draws.
    pub sample: Option<&'a SamplePlan>,
}

/// One part of a target: the cells it reads and what it renders.
#[derive(Clone, Copy)]
enum Part {
    /// Table 1 or 4, computed from configuration alone.
    Static(fn() -> Experiment),
    /// Table 3, from the 19 solo cells.
    Table3,
    /// A paper sweep of one core count, filtered by `--policy` and
    /// `--group`, rendered once per metric.
    Sweep(usize, &'static [Metric]),
    /// Figure 11, 12 or 13, from the threshold grid.
    Threshold(ThresholdMetric),
    /// Figure 14, 15 or 16, from the unfiltered two-core paper grid.
    TwoCore(fn(&Sweep) -> Experiment),
    /// `dvfs_energy` or `cbp_energy`, from the coordinator grid.
    Coordinator(fn(&Sweep, &[f64]) -> Experiment),
    /// The Monte Carlo report: one experiment per policy besides Fair.
    Sample,
}

impl Part {
    fn grid(self, a: &TargetArgs) -> Option<Grid> {
        Some(match self {
            Part::Sweep(cores, _) => Grid::sweep(cores, a.scale, a.policies, a.groups),
            Part::Threshold(_) => fig11_13::threshold_grid(a.scale),
            Part::TwoCore(_) => Grid::sweep(2, a.scale, &[], &[]),
            Part::Coordinator(_) => coordinator_grid(a.scale, a.slacks),
            Part::Static(_) | Part::Table3 | Part::Sample => return None,
        })
    }

    /// The part's cells, each once (a repeated Monte Carlo draw runs once).
    fn cells(self, a: &TargetArgs) -> Result<Vec<CellSpec>, String> {
        Ok(unique(match (self, self.grid(a)) {
            (_, Some(grid)) => grid.cells(),
            (Part::Table3, _) => table3::cells(a.scale),
            (Part::Sample, _) => fleet_run::sample_cells(sample_plan(a)?, a.scale, a.policies)?,
            _ => Vec::new(),
        }))
    }

    fn render(
        self,
        lookup: CellLookup,
        a: &TargetArgs,
        perf: ExperimentPerf,
    ) -> Result<Vec<Experiment>, String> {
        // Called by the arms that read a grid.
        let sweep = || fleet_run::merge_sweep(lookup, &self.grid(a).expect("a grid part"), perf);
        Ok(match self {
            Part::Static(table) => vec![table()],
            Part::Table3 => vec![table3::table(lookup, a.scale, perf)?],
            Part::Sample => sample_figures(lookup, sample_plan(a)?, a.scale, a.policies, perf)?,
            // A core count the group filter empties renders nothing.
            Part::Sweep(cores, _) if filtered_groups(cores, a.groups).is_empty() => Vec::new(),
            Part::Sweep(cores, metrics) => {
                let sweep = sweep()?;
                metrics
                    .iter()
                    .map(|&m| figure_from(&sweep, cores, m, a.groups, perf))
                    .collect()
            }
            Part::Threshold(metric) => vec![fig11_13::figure(metric, &sweep()?)],
            Part::TwoCore(figure) => vec![figure(&sweep()?)],
            Part::Coordinator(figure) => vec![figure(&sweep()?, a.slacks)],
        })
    }
}

/// `cells` each once, in first-seen order.
fn unique(cells: impl IntoIterator<Item = CellSpec>) -> Vec<CellSpec> {
    let mut seen = BTreeSet::new();
    cells.into_iter().filter(|c| seen.insert(c.id())).collect()
}

fn sample_plan<'a>(a: &TargetArgs<'a>) -> Result<&'a SamplePlan, String> {
    a.sample
        .ok_or_else(|| "the Monte Carlo sample needs a sampling plan".to_string())
}

/// A `repro` target: its parts, in render order.
#[derive(Clone, Copy)]
pub struct Target(&'static [Part]);

const TABLE3: Part = Part::Table3;
const SWEEP2: Part = Part::Sweep(2, &Metric::ALL);
const SWEEP4: Part = Part::Sweep(4, &Metric::ALL);
const FIG11: Part = Part::Threshold(ThresholdMetric::Performance);
const FIG12: Part = Part::Threshold(ThresholdMetric::DynamicEnergy);
const FIG13: Part = Part::Threshold(ThresholdMetric::StaticEnergy);
const FIG14: Part = Part::TwoCore(fig14::figure);
const FIG15: Part = Part::TwoCore(fig15::figure);
const FIG16: Part = Part::TwoCore(fig16::figure);
const DVFS_E: Part = Part::Coordinator(dvfs_energy::figure);
const CBP_E: Part = Part::Coordinator(cbp_energy::figure);
const TABLE1: Part = Part::Static(table1::table);
const TABLE4: Part = Part::Static(table4::table);

/// The table of targets: each name `repro` takes and its parts, in the
/// order `repro --help` lists them.
const TARGETS: [(&str, &[Part]); 23] = [
    ("table1", &[TABLE1]),
    ("table3", &[TABLE3]),
    ("table4", &[TABLE4]),
    ("fig5", &[Part::Sweep(2, &[Metric::WeightedSpeedup])]),
    ("fig6", &[Part::Sweep(2, &[Metric::DynamicEnergy])]),
    ("fig7", &[Part::Sweep(2, &[Metric::StaticEnergy])]),
    ("fig8", &[Part::Sweep(4, &[Metric::WeightedSpeedup])]),
    ("fig9", &[Part::Sweep(4, &[Metric::DynamicEnergy])]),
    ("fig10", &[Part::Sweep(4, &[Metric::StaticEnergy])]),
    ("fig5_10", &[SWEEP2, SWEEP4]),
    ("fig11", &[FIG11]),
    ("fig12", &[FIG12]),
    ("fig13", &[FIG13]),
    ("fig14", &[FIG14]),
    ("fig15", &[FIG15]),
    ("fig16", &[FIG16]),
    ("dvfs_energy", &[DVFS_E]),
    ("cbp_energy", &[CBP_E]),
    ("two-core", &[SWEEP2, FIG14, FIG15, FIG16]),
    ("four-core", &[SWEEP4]),
    ("eight_core", &[Part::Sweep(8, &Metric::ALL)]),
    (
        "all",
        &[
            TABLE1, TABLE4, TABLE3, SWEEP2, SWEEP4, FIG11, FIG12, FIG13, FIG14, FIG15, FIG16,
            DVFS_E, CBP_E,
        ],
    ),
    ("sample", &[Part::Sample]),
];

impl Target {
    /// The target `repro` calls `what`, if any (`eight-core` is
    /// `eight_core`).
    pub fn find(what: &str) -> Option<Target> {
        let what = match what {
            "eight-core" => "eight_core",
            other => other,
        };
        TARGETS
            .iter()
            .find(|(name, _)| *name == what)
            .map(|&(_, parts)| Target(parts))
    }

    /// The names of the targets `keep` holds for, in table order.
    pub fn names_where(keep: fn(Target) -> bool) -> Vec<&'static str> {
        TARGETS
            .iter()
            .filter(|&&(_, parts)| keep(Target(parts)))
            .map(|&(name, _)| name)
            .collect()
    }

    /// The core counts of its paper sweeps when every part is one: such a
    /// target takes `--policy` and `--group`, and a partial fleet run of
    /// it is salvaged from its complete groups.
    pub fn sweep_cores(self) -> Option<Vec<usize>> {
        self.0
            .iter()
            .map(|p| match *p {
                Part::Sweep(cores, _) => Some(cores),
                _ => None,
            })
            .collect()
    }

    /// Whether it draws Monte Carlo mixes, and so needs a [`SamplePlan`].
    pub fn samples(self) -> bool {
        self.0.iter().any(|p| matches!(p, Part::Sample))
    }

    /// Whether `--group` filters it: every part is a paper sweep.
    pub fn takes_group(self) -> bool {
        self.sweep_cores().is_some()
    }

    /// Whether `--policy` filters it: the paper sweeps and the sample.
    pub fn takes_policy(self) -> bool {
        self.takes_group() || self.samples()
    }

    /// Whether it reads the coordinator grid, whose slacks `--slacks` sets.
    pub fn reads_slacks(self) -> bool {
        self.0.iter().any(|p| matches!(p, Part::Coordinator(_)))
    }

    /// The union of its parts' cells, each once, in first-seen order.
    pub(crate) fn cells(self, a: &TargetArgs) -> Result<Vec<CellSpec>, String> {
        let parts = self.0.iter().map(|p| p.cells(a));
        Ok(unique(parts.collect::<Result<Vec<_>, _>>()?.concat()))
    }

    /// Renders every part from the finished cells of one run, whose `perf`
    /// goes on the first experiment that reports one: one run, one perf
    /// line.
    pub(crate) fn render(
        self,
        lookup: CellLookup,
        a: &TargetArgs,
        perf: ExperimentPerf,
    ) -> Result<Vec<Experiment>, String> {
        let mut out = Vec::new();
        for part in self.0 {
            out.extend(part.render(lookup, a, perf)?);
        }
        Ok(one_perf(out))
    }

    /// Runs it in process: each part runs its cells through the process
    /// cell memo and renders from that run, whose perf goes on the part's
    /// first experiment that reports one: one run, one perf line.
    pub fn run_inprocess(self, a: &TargetArgs) -> Result<Vec<Experiment>, String> {
        let mut out = Vec::new();
        for part in self.0 {
            let run = fleet_run::run_cells_local(&part.cells(a)?)?;
            let rendered = part.render(&|cell| run.lookup(cell), a, run.perf)?;
            out.extend(one_perf(rendered));
        }
        Ok(out)
    }
}

/// `experiments` rendered from one run, with that run's perf kept only on
/// the first that reports one.
fn one_perf(mut experiments: Vec<Experiment>) -> Vec<Experiment> {
    for e in experiments.iter_mut().filter(|e| e.perf.is_some()).skip(1) {
        e.perf = None;
    }
    experiments
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_is_a_target_and_the_filters_take_the_sweeps() {
        let names = Target::names_where(|_| true);
        assert_eq!(names.len(), 23);
        for name in names {
            assert!(Target::find(name).is_some(), "{name}");
        }
        assert!(Target::find("eight-core").is_some());
        let sweeps = [
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "fig5_10",
            "four-core",
            "eight_core",
        ];
        assert_eq!(Target::names_where(Target::takes_group), sweeps);
        assert_eq!(
            Target::names_where(Target::takes_policy),
            [&sweeps[..], &["sample"]].concat()
        );
    }
}
