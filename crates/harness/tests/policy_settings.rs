//! The policy-setting layer: a sweep cell's `policy` field names a
//! registry policy, optionally with one builder knob
//! (`cooperative@t=0.05`, `dvfs@slack=0.1`). Pins that every setting the
//! grids emit round-trips bit-exactly, that bare names keep their cell IDs,
//! that malformed settings are cell errors rather than panics, and which
//! cells the threshold and coordinator grids enumerate.

use fleet::{CellKind, CellRunner, CellSpec};
use harness::experiments::fig11_13::{threshold_grid, THRESHOLDS};
use harness::experiments::{coordinator_grid, groups_for_cores, DEFAULT_SLACKS};
use harness::fleet_run::{Grid, HarnessCellRunner};
use harness::policies::{Knob, PolicySetting};
use harness::SimScale;

fn quick() -> SimScale {
    SimScale::quick()
}

/// Every setting the grids emit parses back to its own name and to a knob
/// bit-identical to the value it was built from.
#[test]
fn grid_settings_round_trip() {
    let mut want: Vec<(String, f64)> = THRESHOLDS
        .iter()
        .map(|&t| (format!("cooperative@t={t}"), t))
        .collect();
    for slacks in [&DEFAULT_SLACKS[..], &[0.15]] {
        for p in ["dvfs", "cbp"] {
            want.extend(slacks.iter().map(|&s| (format!("{p}@slack={s}"), s)));
        }
    }
    let mut emitted = threshold_grid(quick()).settings;
    emitted.extend(coordinator_grid(quick(), &DEFAULT_SLACKS).settings);
    emitted.extend(coordinator_grid(quick(), &[0.15]).settings);
    emitted.retain(|s| s != "cooperative");
    let names: Vec<&String> = want.iter().map(|(name, _)| name).collect();
    assert_eq!(emitted.iter().collect::<Vec<_>>(), names);
    for (name, value) in &want {
        let setting = PolicySetting::parse(name).expect("parses");
        assert_eq!(&setting.name(), name);
        let knob = match setting.knob.expect("a knob") {
            Knob::Threshold(v) | Knob::QosSlack(v) => v,
        };
        assert_eq!(knob.to_bits(), value.to_bits(), "{name}");
    }
}

#[test]
fn settings_resolve_aliases_to_canonical_names() {
    let bare = PolicySetting::parse("cooperative").expect("bare name");
    assert_eq!((bare.policy, bare.knob), ("cooperative", None));
    let s = PolicySetting::parse("cp@t=0.05").expect("alias");
    assert_eq!(s.name(), "cooperative@t=0.05");
    assert_eq!(
        PolicySetting::parse("un").expect("alias").name(),
        "unmanaged"
    );
}

/// A bare policy name is the setting it always was: the fig5 cell keeps
/// the ID its stored results are filed under (recorded before settings
/// existed).
#[test]
fn bare_settings_keep_their_cell_ids() {
    let cells = Grid::sweep(2, quick(), &["cooperative"], &["G2-1".to_string()]).cells();
    let coop = cells
        .iter()
        .find(|c| c.policy == "cooperative")
        .expect("cooperative cell");
    assert_eq!(coop.workload, "G2-1");
    assert_eq!(coop.id(), "0ced6c07b97e707c");
}

/// A malformed setting is the cell's error, naming the setting, not a
/// panic: cells also arrive from stores and worker pipes.
#[test]
fn malformed_settings_are_cell_errors() {
    for (setting, why) in [
        ("cooperative@t=", "is not a finite number"),
        ("cooperative@x=1", "unknown key 'x'"),
        ("nosuch@t=0.1", "unknown policy 'nosuch'"),
        ("dvfs@slack=NaN", "is not a finite number"),
    ] {
        let cell = CellSpec::sweep("G2-1", setting, 2, "quick");
        let err = HarnessCellRunner.run_cell(&cell).expect_err(setting);
        assert!(
            err.contains(&format!("'{setting}'")) && err.contains(why),
            "{setting}: {err}"
        );
    }
}

#[test]
fn threshold_and_coordinator_grids_enumerate_their_cells() {
    let mut members: Vec<String> = groups_for_cores(2)
        .iter()
        .flat_map(|g| g.member_names().into_iter().map(str::to_string))
        .collect();
    members.sort_unstable();
    members.dedup();
    let count = |cells: &[CellSpec], kind| cells.iter().filter(|c| c.kind == kind).count();
    let no_fair = |cells: &[CellSpec]| cells.iter().all(|c| c.policy != "fair");

    let threshold = threshold_grid(quick()).cells();
    assert_eq!(count(&threshold, CellKind::Sweep), 70);
    assert_eq!(count(&threshold, CellKind::Solo), members.len());
    assert!(no_fair(&threshold));
    for slacks in [&[0.15][..], &DEFAULT_SLACKS] {
        let coordinator = coordinator_grid(quick(), slacks).cells();
        assert_eq!(coordinator.len(), 14 * (1 + 2 * slacks.len()));
        assert_eq!(count(&coordinator, CellKind::Solo), 0);
        assert!(no_fair(&coordinator));
    }
}
