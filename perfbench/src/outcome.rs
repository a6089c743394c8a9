//! What a pass over a plan produced, independent of how it was run: the
//! per-cell digests that the traced and untraced runs must agree on, and
//! the simulated outcomes (model results, not host timings) derived from
//! the cells.

use std::collections::BTreeMap;

use harness::solo::SoloResult;
use harness::RunResult;
use simkit::geometric_mean;

use crate::plan::Plan;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// Digest of every simulated statistic of a run. `Debug` prints each
/// float in shortest round-trip form, so two runs digest equal exactly
/// when every field is bit-identical.
pub fn digest_run(r: &RunResult) -> String {
    format!("{:016x}", fnv1a(format!("{r:?}").as_bytes()))
}

/// Digest of a solo baseline.
pub fn digest_solo(s: &SoloResult) -> String {
    format!("{:016x}", fnv1a(format!("{s:?}").as_bytes()))
}

/// Digest of a whole pass: every cell id with its digest, in id order.
pub fn digest_all(digests: &BTreeMap<String, String>) -> String {
    let joined: String = digests.iter().map(|(id, d)| format!("{id}={d};")).collect();
    format!("{:016x}", fnv1a(joined.as_bytes()))
}

/// Results of one pass, keyed by cell id.
#[derive(Default)]
pub struct Outcome {
    /// Cell id to result digest, for every cell that finished.
    pub digests: BTreeMap<String, String>,
    /// Ids of cells that panicked or hit `max_cycles`.
    pub failed: Vec<String>,
    /// Finished cells by id.
    pub runs: BTreeMap<String, RunResult>,
    /// Solo IPC by member name.
    pub solo_ipc: BTreeMap<String, f64>,
    /// Demand LLC accesses in the solo baselines' measurement windows.
    pub solo_accesses: u64,
}

impl Outcome {
    /// Records a finished cell, failing it when the run was cut off by the
    /// cycle cap.
    pub fn add_run(&mut self, id: String, r: RunResult, capped: bool) {
        if capped {
            self.failed.push(id);
            return;
        }
        self.digests.insert(id.clone(), digest_run(&r));
        self.runs.insert(id, r);
    }

    /// Records a finished solo baseline.
    pub fn add_solo(&mut self, name: &str, s: &SoloResult) {
        self.digests.insert(format!("solo/{name}"), digest_solo(s));
        self.solo_ipc.insert(name.to_string(), s.ipc);
        self.solo_accesses += s.accesses;
    }

    /// Demand LLC accesses inside the measurement windows of every
    /// finished cell and solo baseline: the numerator of `repro`'s
    /// `perf:` line.
    pub fn llc_accesses(&self) -> u64 {
        self.solo_accesses
            + self
                .runs
                .values()
                .flat_map(|r| r.accesses.iter())
                .sum::<u64>()
    }
}

/// Simulated outcomes of a pass. These are model results: they must
/// repeat exactly for the same seed, whatever the host.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimMetrics {
    /// Geomean over groups of Cooperative's weighted speedup over Fair
    /// Share's.
    pub ws_vs_fair: f64,
    /// Geomean over groups of Cooperative's LLC energy (dynamic + static)
    /// over Fair Share's.
    pub llc_energy_vs_fair: f64,
    /// Geomean of `dvfs` total energy over Cooperative's (0 when the
    /// workload runs no coordinator).
    pub dvfs_energy_vs_coop: f64,
    /// Geomean of `cbp` total energy over Cooperative's (0 likewise).
    pub cbp_energy_vs_coop: f64,
    /// Coordinated runs in which some core's slowdown against Cooperative
    /// exceeds `1 + slack`.
    pub qos_violations: u64,
    /// Coordinated runs checked for QoS.
    pub coord_runs: u64,
}

fn llc_energy(r: &RunResult) -> f64 {
    r.energy.dynamic_nj + r.energy.static_nj
}

/// Derives the simulated outcomes from a pass over `plan`.
pub fn sim_metrics(plan: &Plan, out: &Outcome) -> SimMetrics {
    let mut ws = Vec::new();
    let mut llc = Vec::new();
    let mut dvfs = Vec::new();
    let mut cbp = Vec::new();
    let mut m = SimMetrics::default();
    for (g, group) in plan.groups.iter().enumerate() {
        let find = |policy: &str| {
            plan.cells
                .iter()
                .find(|c| c.group == g && c.policy == policy)
                .and_then(|c| out.runs.get(&plan.cell_id(c)))
        };
        let alone: Option<Vec<f64>> = group
            .member_names()
            .iter()
            .map(|n| out.solo_ipc.get(*n).copied())
            .collect();
        let (Some(fair), Some(coop)) = (find("fair"), find("cooperative")) else {
            continue;
        };
        if let Some(alone) = alone {
            ws.push(coop.weighted_speedup(&alone) / fair.weighted_speedup(&alone));
        }
        llc.push(llc_energy(coop) / llc_energy(fair));
        for c in plan.cells.iter().filter(|c| c.group == g) {
            let into = match c.policy {
                "dvfs" => &mut dvfs,
                "cbp" => &mut cbp,
                _ => continue,
            };
            let Some(run) = out.runs.get(&plan.cell_id(c)) else {
                continue;
            };
            into.push(run.total_energy_nj() / coop.total_energy_nj());
            m.coord_runs += 1;
            let violated = coop
                .ipc
                .iter()
                .zip(&run.ipc)
                .any(|(&base, &ipc)| base / ipc > 1.0 + c.slack);
            m.qos_violations += u64::from(violated);
        }
    }
    let geo = |v: &[f64]| geometric_mean(v).unwrap_or(0.0);
    m.ws_vs_fair = geo(&ws);
    m.llc_energy_vs_fair = geo(&llc);
    m.dvfs_energy_vs_coop = geo(&dvfs);
    m.cbp_energy_vs_coop = geo(&cbp);
    m
}
