//! One unit's measurements, printed as a single JSON line for the
//! benchmark driver (`run.py`) to aggregate.

use crate::outcome::{digest_all, Outcome, SimMetrics};

/// An untraced unit's host times scaled to the reference host speed by
/// its gauge samples (see [`crate::gauge`]).
pub struct Normalized {
    /// Set-up host seconds at the reference speed.
    pub setup_s: f64,
    /// Simulating host seconds at the reference speed.
    pub wall_s: f64,
    /// Median host nanoseconds of the unit's gauge passes.
    pub gauge_ns: f64,
}

/// Everything one unit process measured.
pub struct UnitReport {
    /// `"untraced"` or `"traced"`.
    pub mode: &'static str,
    /// Host seconds of set-up: workload resolution, stream recording and
    /// system assembly.
    pub setup_s: f64,
    /// Host seconds simulating the cells (solo baselines included; not
    /// the fleet pass of a traced `paper2` unit).
    pub wall_s: f64,
    /// The host times at the reference speed (untraced units only).
    pub norm: Option<Normalized>,
    /// Simulated instructions credited: cores × (warm-up + measured) per
    /// cell and solo baseline.
    pub instrs: u64,
    /// Simulated LLC demand accesses in the measurement windows.
    pub llc_accesses: u64,
    /// Host peak resident memory of this process.
    pub peak_rss_mib: f64,
    /// Cells plus solo baselines attempted.
    pub attempted: usize,
    /// Per-cell digests and results.
    pub outcome: Outcome,
    /// Simulated outcomes.
    pub sim: SimMetrics,
    /// Per-layer metrics this unit measured.
    pub layers: Vec<(&'static str, f64)>,
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string (ids and digests are plain ASCII; quotes and
/// backslashes are escaped anyway).
fn text(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl UnitReport {
    /// The report as one line of JSON.
    pub fn to_json(&self) -> String {
        let digests: Vec<String> = self
            .outcome
            .digests
            .iter()
            .map(|(id, d)| format!("{}:{}", text(id), text(d)))
            .collect();
        let failed: Vec<String> = self.outcome.failed.iter().map(|id| text(id)).collect();
        let layers: Vec<String> = self
            .layers
            .iter()
            .map(|(k, v)| format!("{}:{}", text(k), num(*v)))
            .collect();
        let norm = self.norm.as_ref().map_or(String::new(), |n| {
            format!(
                "\"norm_setup_s\":{},\"norm_wall_s\":{},\"gauge_ns\":{},",
                num(n.setup_s),
                num(n.wall_s),
                num(n.gauge_ns)
            )
        });
        let s = &self.sim;
        format!(
            "{{\"mode\":{},\"setup_s\":{},\"wall_s\":{},{}\"instrs\":{},\
             \"llc_accesses\":{},\"peak_rss_mib\":{},\"attempted\":{},\"failed\":[{}],\
             \"digest\":{},\"digests\":{{{}}},\"sim\":{{\"ws_vs_fair\":{},\
             \"llc_energy_vs_fair\":{},\"dvfs_energy_vs_coop\":{},\"cbp_energy_vs_coop\":{},\
             \"qos_violations\":{},\"coord_runs\":{}}},\"layers\":{{{}}}}}",
            text(self.mode),
            num(self.setup_s),
            num(self.wall_s),
            norm,
            self.instrs,
            self.llc_accesses,
            num(self.peak_rss_mib),
            self.attempted,
            failed.join(","),
            text(&digest_all(&self.outcome.digests)),
            digests.join(","),
            num(s.ws_vs_fair),
            num(s.llc_energy_vs_fair),
            num(s.dvfs_energy_vs_coop),
            num(s.cbp_energy_vs_coop),
            s.qos_violations,
            s.coord_runs,
            layers.join(","),
        )
    }
}

/// Peak resident memory of this process in MiB (`VmHWM` in
/// `/proc/self/status`; 0 where the file is unavailable).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
