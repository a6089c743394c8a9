//! The QoS-constrained joint energy minimizer over a preset's axis set.
//!
//! Each epoch the minimizer picks, for every core, a way target plus one
//! value on each of the preset's other axes — V/f point, prefetch degree,
//! bandwidth units — minimizing total predicted energy, subject to:
//!
//! * **QoS** — each core's predicted time to redo its epoch's work must stay
//!   within `1 + qos_slack` of its *baseline*: nominal frequency, a fair
//!   (equal) share of the ways and of the bandwidth units, prefetching off.
//!   The baseline is per-core and model-internal, so the guarantee is
//!   exactly "the coordinated assignment never plans to slow anyone beyond
//!   the slack";
//! * **capacity** — way targets sum to at most the associativity and
//!   bandwidth units to at most [`MemModelParams::bw_units`]; every core
//!   keeps at least one way (the cooperative-takeover invariant) and, when
//!   the bandwidth axis is live, one unit (nobody is starved off DRAM).
//!   Leftover ways are power-gated; leftover units are handed to the cores
//!   with the highest measured demand after the program runs (they are
//!   free in the model and absorb miss bursts on the real machine).
//!
//! The energy objective per core covers the knobs' real costs: instruction
//! switching energy at the candidate voltage, core leakage over the
//! candidate's (longer) runtime, DRAM energy for every line transfer — the
//! extra misses of a smaller allocation and every issued prefetch, useful
//! or not — and LLC way leakage for every way held. Structure:
//!
//! 1. **candidate tables** — for each core and `(ways, units)` cell, scan
//!    the (V/f point × prefetch degree) pairs once and keep the
//!    lowest-energy feasible one. All curve lookups were precomputed when
//!    the [`CorePerfModel`] was fitted, so this inner loop is pure
//!    arithmetic. Unit columns stop at the core's saturating unit count
//!    (more units predict the identical time, so wider columns are
//!    dominated). Without a bandwidth axis there is one column, 0 units;
//! 2. **dynamic program** — `dp[i][u][r]` = minimum energy for the first
//!    `i` cores using exactly `u` ways and `r` bandwidth units;
//!    `O(cores · ways² · units²)` with tiny constants, `O(cores · ways²)`
//!    without a bandwidth axis.
//!
//! The baseline is always feasible (its predicted time *is* the QoS limit
//! over one), so the program always has a solution.

use energy::CoreEnergyParams;

use crate::controller::DvfsConfig;
use crate::model::{CorePerfModel, MemModelParams, Terms};

/// Cost parameters of the minimizer's objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyCosts {
    /// Core energy magnitudes + voltage scaling laws.
    pub core: CoreEnergyParams,
    /// Leakage power of one powered LLC way, in mW.
    pub way_leak_mw: f64,
    /// DRAM + bus energy per LLC miss or prefetch, in nJ.
    pub miss_energy_nj: f64,
}

impl EnergyCosts {
    /// Defaults matching the repository's 45 nm magnitudes (2 MB 8-way LLC
    /// way leakage; ~20 nJ per DRAM access).
    pub fn paper_default() -> EnergyCosts {
        EnergyCosts {
            core: CoreEnergyParams::for_45nm(),
            way_leak_mw: 37.5,
            miss_energy_nj: 20.0,
        }
    }
}

/// One core's chosen assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreAssignment {
    /// Index into the V/f table.
    pub op: usize,
    /// Ways granted.
    pub ways: usize,
    /// Bandwidth units granted (share = `units / bw_units`; 0 without a
    /// bandwidth axis).
    pub units: usize,
    /// Prefetch degree (0 = off).
    pub degree: u8,
    /// Predicted time to redo the epoch's work, in ns.
    pub predicted_ns: f64,
    /// Predicted energy of this core's candidate, in nJ.
    pub energy_nj: f64,
}

/// The minimizer's joint decision.
#[derive(Debug, Clone, PartialEq)]
pub struct JointAssignment {
    /// Per-core assignments.
    pub cores: Vec<CoreAssignment>,
    /// Ways granted to nobody (power-gated).
    pub unallocated: usize,
    /// Total predicted energy, in nJ.
    pub energy_nj: f64,
}

impl JointAssignment {
    /// Way targets in `coop_core::Allocation` order.
    pub fn way_targets(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.ways).collect()
    }

    /// Operating-point indices per core.
    pub fn ops(&self) -> Vec<usize> {
        self.cores.iter().map(|c| c.op).collect()
    }

    /// Bandwidth shares per core (fractions of peak, summing to ≤ 1).
    pub fn shares(&self, mem: &MemModelParams) -> Vec<f64> {
        self.cores.iter().map(|c| mem.share(c.units)).collect()
    }

    /// Prefetch degrees per core.
    pub fn degrees(&self) -> Vec<u8> {
        self.cores.iter().map(|c| c.degree).collect()
    }
}

/// The lowest-energy feasible candidate per `(ways, units)` cell for one
/// core: `best[(w - 1) * (units + 1) + b]`, `None` when nothing meets the
/// QoS bound there or the column lies outside `[demand floor, saturating
/// cap]`. Flat, like the dp tables: the minimizer runs every epoch, and
/// one allocation per row would cost more than the arithmetic.
struct CandidateGrid {
    best: Vec<Option<CoreAssignment>>,
    /// Per way-row, the inclusive `(lo, hi)` span of unit columns holding
    /// `Some` — predicted time is non-increasing in `b`, so QoS
    /// feasibility is a suffix of `[floor, cap]` and the populated cells
    /// are contiguous. `None` for rows with no feasible cell. Lets the dp
    /// iterate exactly the populated columns.
    span: Vec<Option<(usize, usize)>>,
}

/// Predicted energy of one candidate at `w` ways with prediction terms
/// `t`, in nJ.
fn candidate_energy(
    model: &CorePerfModel,
    costs: &EnergyCosts,
    vdd: f64,
    w: usize,
    t: &Terms,
    t_ns: f64,
) -> f64 {
    model.instrs() * costs.core.dynamic_nj_per_instr(vdd)
        + costs.core.static_nj(vdd, t_ns)
        + t.dram_accesses * costs.miss_energy_nj
        + w as f64 * costs.way_leak_mw * t_ns / 1000.0
}

/// The lowest-energy feasible (V/f point, degree) pair at `w` ways and
/// `b` units; `terms[d]` are the model's terms at `(w, d)`.
fn best_cell(
    model: &CorePerfModel,
    cfg: &DvfsConfig,
    limit_ns: f64,
    (w, b): (usize, usize),
    terms: &[Terms],
) -> Option<CoreAssignment> {
    let mut cell: Option<CoreAssignment> = None;
    for (op, p) in cfg.table.points().iter().enumerate() {
        let mut feasible = false;
        for (d, t) in terms.iter().enumerate() {
            let t_ns = model.time_ns(p.freq_ghz, t, b);
            if t_ns > limit_ns {
                continue;
            }
            feasible = true;
            let e_nj = candidate_energy(model, &cfg.costs, p.vdd, w, t, t_ns);
            if cell.is_none_or(|c| e_nj < c.energy_nj) {
                cell = Some(CoreAssignment {
                    op,
                    ways: w,
                    units: b,
                    degree: d as u8,
                    predicted_ns: t_ns,
                    energy_nj: e_nj,
                });
            }
        }
        if !feasible {
            // Points are frequency-descending: every later point is
            // slower at every degree, so the scan can stop here.
            break;
        }
    }
    cell
}

/// One core's candidate grid. The last argument is (fair ways, fair units,
/// total units); both unit counts are 0 without a bandwidth axis.
fn build_candidates(
    model: &CorePerfModel,
    cfg: &DvfsConfig,
    total_ways: usize,
    (fair_ways, fair_units, units): (usize, usize, usize),
) -> CandidateGrid {
    let f_nom = cfg.table.nominal().freq_ghz;
    let limit_ns = model.predict_ns(f_nom, fair_ways, 0, fair_units) * (1.0 + cfg.qos_slack);
    // Never grant less bandwidth than the core measurably used: the
    // stall-serialized roofline misses MSHR overlap, and a grant below
    // the observed rate would throttle in reality while the model
    // predicts it wouldn't. Capped at fair share, so the QoS baseline
    // stays a valid candidate.
    let floor = if cfg.bandwidth {
        model.demand_floor_units(fair_units)
    } else {
        0
    };
    let mut best = Vec::with_capacity(total_ways * (units + 1));
    let mut span = Vec::with_capacity(total_ways);
    let mut terms = Vec::with_capacity(cfg.max_degree + 1);
    for w in 1..=total_ways {
        let cap = if cfg.bandwidth {
            (0..=cfg.max_degree)
                .map(|d| model.saturating_units(f_nom, w, d))
                .max()
                .unwrap_or(units)
                .max(floor)
        } else {
            0
        };
        terms.clear();
        terms.extend((0..=cfg.max_degree).map(|d| model.terms(w, d)));
        // Below the floor the grant would throttle measured demand; beyond
        // `cap` the predictions are identical to column `cap` and the dp
        // minimizes over total units used, so wider columns can never be
        // part of an optimum.
        let start = best.len();
        best.extend((0..=units).map(|b| {
            (floor..=cap)
                .contains(&b)
                .then(|| best_cell(model, cfg, limit_ns, (w, b), &terms))
                .flatten()
        }));
        let row = &best[start..];
        let lo = row.iter().position(Option::is_some);
        let hi = row.iter().rposition(Option::is_some);
        span.push(lo.zip(hi));
        debug_assert!(
            lo.zip(hi)
                .is_none_or(|(l, h)| (l..=h).all(|b| row[b].is_some())),
            "populated cells must be contiguous"
        );
    }
    CandidateGrid { best, span }
}

/// Runs the minimizer over `cfg`'s axis set.
///
/// * `models` — one fitted [`CorePerfModel`] per core;
/// * `cfg` — the axes (V/f table, highest prefetch degree, bandwidth on or
///   off), energy magnitudes and QoS slack;
/// * `total_ways` — LLC associativity.
///
/// # Panics
///
/// Panics if `models` is empty, or there are fewer ways than cores, or the
/// bandwidth axis is live with fewer units than cores (every core needs
/// one of each).
pub fn minimize(models: &[CorePerfModel], cfg: &DvfsConfig, total_ways: usize) -> JointAssignment {
    let n = models.len();
    assert!(n > 0, "need at least one core");
    assert!(total_ways >= n, "need at least one way per core");
    assert!(cfg.qos_slack >= 0.0, "negative QoS slack");
    let (fair_units, units) = if cfg.bandwidth {
        let units = cfg.mem.bw_units;
        assert!(units >= n, "need at least one bandwidth unit per core");
        ((units / n).max(1), units)
    } else {
        (0, 0)
    };
    let fair = (total_ways / n, fair_units, units);
    let grids: Vec<CandidateGrid> = models
        .iter()
        .map(|m| build_candidates(m, cfg, total_ways, fair))
        .collect();

    // dp[i][u][r]: min energy over the first i cores using exactly u ways
    // and r bandwidth units, stored flat at `at(i, u, r)`.
    const INF: f64 = f64::INFINITY;
    let cols = units + 1;
    let at = |i: usize, u: usize, r: usize| (i * (total_ways + 1) + u) * cols + r;
    let mut dp = vec![INF; at(n + 1, 0, 0)];
    let mut pick = vec![(0usize, 0usize); dp.len()];
    dp[0] = 0.0;
    for i in 0..n {
        for u in 0..=total_ways {
            for r in 0..=units {
                let here = dp[at(i, u, r)];
                if here == INF {
                    continue;
                }
                for w in 1..=(total_ways - u) {
                    let Some((lo, hi)) = grids[i].span[w - 1] else {
                        continue;
                    };
                    for b in lo..=hi.min(units - r) {
                        let Some(c) = grids[i].best[(w - 1) * cols + b] else {
                            continue;
                        };
                        let e = here + c.energy_nj;
                        let next = at(i + 1, u + w, r + b);
                        if e < dp[next] {
                            dp[next] = e;
                            pick[next] = (w, b);
                        }
                    }
                }
            }
        }
    }

    // Ways left over are gated and units left over are spread below, so
    // the answer is the first minimum over every exactly-used (u, r) pair.
    let mut used = (0, 0);
    let mut energy_nj = INF;
    for (k, &e) in dp[at(n, 0, 0)..].iter().enumerate() {
        if e < energy_nj {
            energy_nj = e;
            used = (k / cols, k % cols);
        }
    }
    assert!(energy_nj.is_finite(), "the baseline is always feasible");

    // Backtrack.
    let mut cores = Vec::with_capacity(n);
    let (mut u, mut r) = used;
    for i in (0..n).rev() {
        let (w, b) = pick[at(i + 1, u, r)];
        cores.push(grids[i].best[(w - 1) * cols + b].expect("picked candidates exist"));
        u -= w;
        r -= b;
    }
    cores.reverse();
    let mut joint = JointAssignment {
        cores,
        unallocated: total_ways - used.0,
        energy_nj,
    };
    if cfg.bandwidth {
        spread_spare_units(&mut joint, models, cfg, units - used.1);
    }
    joint
}

/// Hands `leftover` bandwidth units out and re-predicts every core.
///
/// Spare units are free — the model predicts the same time and energy
/// whether they sit idle or not — but on the real machine an idle unit
/// serves nobody while a granted one absorbs the miss bursts the windowed
/// token bucket would otherwise delay. Each goes, one at a time, to the
/// core with the highest measured demand per unit held (ties: fewest
/// units, then lowest index — fully deterministic). Predictions only
/// improve: more bandwidth is never slower in the roofline.
fn spread_spare_units(
    joint: &mut JointAssignment,
    models: &[CorePerfModel],
    cfg: &DvfsConfig,
    leftover: usize,
) {
    let cores = &mut joint.cores;
    for _ in 0..leftover {
        let i = (0..cores.len())
            .max_by(|&a, &b| {
                let score = |c: usize| models[c].observed_lines_per_ns / cores[c].units as f64;
                score(a)
                    .partial_cmp(&score(b))
                    .expect("unit counts are nonzero")
                    .then(cores[b].units.cmp(&cores[a].units))
                    .then(b.cmp(&a))
            })
            .expect("at least one core");
        cores[i].units += 1;
    }
    for (c, m) in cores.iter_mut().zip(models) {
        let p = cfg.table.point(c.op);
        let t = m.terms(c.ways, c.degree as usize);
        c.predicted_ns = m.time_ns(p.freq_ghz, &t, c.units);
        c.energy_nj = candidate_energy(m, &cfg.costs, p.vdd, c.ways, &t, c.predicted_ns);
    }
    joint.energy_nj = cores.iter().map(|c| c.energy_nj).sum();
}
