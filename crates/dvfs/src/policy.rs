//! The coordinated controller as a [`PartitionPolicy`], in two presets.
//!
//! [`Coordinator`] wraps one [`Controller`]; a [`Preset`] type parameter
//! names it in the registry and picks its axis set. Each epoch it returns
//! the way targets as a normal takeover repartition and every other live
//! axis as a [`ResourceHints`] field, which the system loop forwards to the
//! mechanisms: clock ratios to `Core::set_clock_ratio`, bandwidth shares to
//! the LLC's token-bucket regulator, prefetch degrees to
//! `Core::set_prefetch_degree`.
//!
//! Only a coordinator whose V/f table has more than one point (`dvfs`)
//! books residency through [`PartitionPolicy::close_clock_window`]; `cbp`
//! keeps the nominal defaults and is never settled at the window edges.

use std::marker::PhantomData;

use coop_core::policy::{
    AllocationDecision, ClockWindow, EpochObservations, PartitionPolicy, ResourceHints,
};
use coop_core::registry::{PolicyEntry, PolicyRegistry};
use coop_core::{allocate, Allocation, EnforcementMode};
use simkit::types::Cycle;

use crate::controller::{Controller, DvfsConfig, Residency};

/// A registry entry of the coordinator: its names and its axis set.
pub trait Preset: std::fmt::Debug + Clone + Send + 'static {
    /// Canonical registry name.
    const NAME: &'static str;
    /// Accepted alternative spellings.
    const ALIASES: &'static [&'static str];
    /// Display label.
    const LABEL: &'static str;
    /// One-line description for listings.
    const SUMMARY: &'static str;
    /// The configuration at a QoS slack.
    fn config(qos_slack: f64) -> DvfsConfig;
}

/// `"dvfs"`: ways × core frequency ([`DvfsConfig::paper_default`]).
#[derive(Debug, Clone, Copy)]
pub struct Dvfs;

impl Preset for Dvfs {
    const NAME: &'static str = "dvfs";
    const ALIASES: &'static [&'static str] = &["coop-dvfs", "dvfs_cp"];
    const LABEL: &'static str = "Coordinated DVFS + CP";
    const SUMMARY: &'static str =
        "QoS-constrained joint (frequency, ways) energy minimizer over cooperative takeover";
    fn config(qos_slack: f64) -> DvfsConfig {
        DvfsConfig::paper_default(qos_slack)
    }
}

/// `"cbp"`: ways × DRAM bandwidth × prefetch degree
/// ([`DvfsConfig::cbp_default`]).
#[derive(Debug, Clone, Copy)]
pub struct Cbp;

impl Preset for Cbp {
    const NAME: &'static str = "cbp";
    const ALIASES: &'static [&'static str] = &["cbp_coord"];
    const LABEL: &'static str = "Coordinated CBP (ways + bandwidth + prefetch)";
    const SUMMARY: &'static str =
        "QoS-constrained joint (ways, bandwidth, prefetch) energy minimizer over cooperative takeover";
    fn config(qos_slack: f64) -> DvfsConfig {
        DvfsConfig::cbp_default(qos_slack)
    }
}

/// The coordinated DVFS + cooperative-partitioning policy.
pub type DvfsPolicy = Coordinator<Dvfs>;

/// The coordinated cache + bandwidth + prefetch partitioning policy.
pub type CbpPolicy = Coordinator<Cbp>;

/// The coordinated controller as a partitioning policy.
#[derive(Debug, Clone)]
pub struct Coordinator<P: Preset> {
    ctl: Controller,
    /// Takeover threshold for the rare epochs where no time elapsed since
    /// the last decision (nothing to model): the policy then falls back to
    /// the plain cooperative look-ahead over the same UMON curves.
    fallback_threshold: f64,
    /// The residency books when the measurement window opened.
    window_start: Option<Residency>,
    preset: PhantomData<P>,
}

impl<P: Preset> Coordinator<P> {
    /// Creates the policy for `cores` cores sharing `total_ways` ways.
    pub fn new(cfg: DvfsConfig, cores: usize, total_ways: usize, fallback_threshold: f64) -> Self {
        Coordinator {
            ctl: Controller::new(cfg, cores, total_ways),
            fallback_threshold,
            window_start: None,
            preset: PhantomData,
        }
    }

    /// The underlying controller (residency books, configuration).
    pub fn controller(&self) -> &Controller {
        &self.ctl
    }

    /// Mutable access to the controller, for drivers that book the
    /// measurement window themselves (`settle`).
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.ctl
    }
}

impl<P: Preset> PartitionPolicy for Coordinator<P> {
    fn name(&self) -> &'static str {
        P::NAME
    }

    fn label(&self) -> &'static str {
        P::LABEL
    }

    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::Takeover
    }

    fn uses_umon(&self) -> bool {
        true
    }

    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        let Some(joint) = self.ctl.on_epoch(obs) else {
            return AllocationDecision::repartition(allocate(
                &obs.curves,
                obs.total_ways,
                self.fallback_threshold,
            ));
        };
        let cfg = self.ctl.config();
        let ratios = || {
            joint
                .ops()
                .into_iter()
                .map(|op| cfg.table.ratio(op))
                .collect()
        };
        AllocationDecision {
            allocation: Some(Allocation {
                ways: joint.way_targets(),
                unallocated: joint.unallocated,
            }),
            age_umons: true,
            hints: ResourceHints {
                clock_ratios: (cfg.table.len() > 1).then(ratios),
                bandwidth_shares: cfg.bandwidth.then(|| joint.shares(&cfg.mem)),
                prefetch_slots: (cfg.max_degree > 0).then(|| joint.degrees()),
            },
        }
    }

    fn open_clock_window(&mut self, now: Cycle, retired: &[u64], misses: &[u64]) {
        if self.ctl.config().table.len() > 1 {
            self.ctl.settle(now, retired, misses);
            self.window_start = Some(self.ctl.books().clone());
        }
    }

    fn close_clock_window(
        &mut self,
        now: Cycle,
        retired: &[u64],
        misses: &[u64],
    ) -> Option<ClockWindow> {
        let start = self.window_start.take()?;
        self.ctl.settle(now, retired, misses);
        let window = self.ctl.books().since(&start);
        Some(ClockWindow {
            core_energy: self.ctl.core_energy(&window),
            avg_freq_ghz: self.ctl.avg_freq_ghz(&window),
            freq_residency: window.fractions(),
        })
    }
}

fn entry<P: Preset>() -> PolicyEntry {
    PolicyEntry::new(
        P::NAME,
        P::ALIASES,
        P::SUMMARY,
        Some(coop_core::SchemeKind::Cooperative),
        |spec| {
            Box::new(Coordinator::<P>::new(
                P::config(spec.qos_slack),
                spec.cores,
                spec.total_ways,
                spec.threshold,
            ))
        },
    )
}

/// Registers both presets, `"dvfs"` and `"cbp"`. The spec's `qos_slack`
/// becomes the QoS constraint; `threshold` seeds the zero-elapsed-time
/// fallback.
pub fn register(reg: &mut PolicyRegistry) {
    reg.register(entry::<Dvfs>());
    reg.register(entry::<Cbp>());
}
