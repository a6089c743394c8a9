//! The `PartitionPolicy` trait: allocation policy, decoupled from LLC
//! enforcement.
//!
//! A *policy* is an epoch-driven object that looks at what the hardware
//! monitors measured ([`EpochObservations`]) and decides how resources are
//! divided ([`AllocationDecision`]): per-core way targets today, plus
//! optional [`ResourceHints`] for the other knobs a multi-resource
//! coordinator may turn (clock operating points now; memory bandwidth and
//! prefetch aggressiveness are reserved for the CBP-style follow-on).
//!
//! The *mechanism* — [`crate::PartitionedLlc`] — never learns which policy
//! is driving it: it only sees an
//! [`EnforcementMode`] (how to apply a new
//! partition) and the decisions themselves. Adding a new scheme therefore
//! means one new type implementing [`PartitionPolicy`] plus one
//! [`registry`](crate::registry) entry; no cache, harness or binary code
//! changes.
//!
//! The five paper schemes live here; the coordinated DVFS controller
//! (`coop-dvfs`) implements the same trait on top of its joint
//! (frequency, ways) minimizer.

use std::any::Any;

use crate::config::EnforcementMode;
use crate::cpe::{cpe_allocate, CpeProfile};
use crate::curve::MissCurve;
use crate::lookahead::{allocate, Allocation};
use energy::CoreEnergyReport;
use simkit::types::Cycle;

/// Everything a policy may observe at an epoch boundary.
///
/// Counters (`retired`, `misses`) are *cumulative*; policies that model
/// rates difference them against their own last-epoch snapshot. `retired`
/// may be empty when the caller has no core-side counters — the five
/// cache-only policies never read it.
#[derive(Debug, Clone)]
pub struct EpochObservations {
    /// Decision time.
    pub now: Cycle,
    /// Index of the epoch being closed (0 for the first decision).
    pub epoch_index: u64,
    /// Total ways in the shared cache.
    pub total_ways: usize,
    /// One UMON miss curve per core (whole-cache scaled).
    pub curves: Vec<MissCurve>,
    /// Ways each core currently owns (targets of the last decision).
    pub cur_ways: Vec<usize>,
    /// Cumulative per-core LLC misses.
    pub misses: Vec<u64>,
    /// Cumulative per-core retired instructions (may be empty).
    pub retired: Vec<u64>,
    /// Cumulative per-core DRAM line transfers (demand fills, prefetch
    /// fills and write-backs the core caused). Empty when the LLC does
    /// not track bandwidth.
    pub dram_lines: Vec<u64>,
    /// Cumulative per-core accesses the bandwidth regulator delayed
    /// (empty when no regulator is installed).
    pub bw_delayed: Vec<u64>,
    /// Cumulative per-core cycles of regulator-imposed delay (empty when
    /// no regulator is installed).
    pub bw_delay_cycles: Vec<u64>,
    /// Cumulative per-core prefetches issued (empty when the caller has
    /// no core-side counters).
    pub prefetches: Vec<u64>,
    /// Cumulative per-core useful prefetches — prefetched lines later
    /// touched by a demand access (empty like `prefetches`).
    pub prefetch_useful: Vec<u64>,
}

impl EpochObservations {
    /// Number of cores sharing the cache.
    pub fn cores(&self) -> usize {
        self.cur_ways.len()
    }
}

/// Cross-resource knobs a decision may turn besides LLC ways. `None`
/// fields leave the corresponding resource untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResourceHints {
    /// Per-core clock-dilation ratios (`f_nom / f`, 1.0 = nominal), ready
    /// for `Core::set_clock_ratio`.
    pub clock_ratios: Option<Vec<f64>>,
    /// Per-core memory-bandwidth shares (fractions summing to ≤ 1).
    /// Reserved for the CBP-style multi-resource coordinator.
    pub bandwidth_shares: Option<Vec<f64>>,
    /// Per-core prefetch-aggressiveness slots. Reserved for CBP.
    pub prefetch_slots: Option<Vec<u8>>,
}

/// What a policy wants applied this epoch.
#[derive(Debug, Clone, Default)]
pub struct AllocationDecision {
    /// New per-core way targets; `None` leaves the partition untouched.
    pub allocation: Option<Allocation>,
    /// Whether the LLC should age its utility monitors after applying.
    pub age_umons: bool,
    /// Other resources this decision wants adjusted.
    pub hints: ResourceHints,
}

impl AllocationDecision {
    /// A decision that changes nothing (Unmanaged / Fair Share epochs).
    pub fn unchanged() -> AllocationDecision {
        AllocationDecision::default()
    }

    /// A way-target decision with monitor aging, no other hints.
    pub fn repartition(allocation: Allocation) -> AllocationDecision {
        AllocationDecision {
            allocation: Some(allocation),
            age_umons: true,
            hints: ResourceHints::default(),
        }
    }
}

/// Core energy and V/f residency over a measurement window, as
/// [`PartitionPolicy::close_clock_window`] returns them.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockWindow {
    /// Core-side energy over the window (all cores).
    pub core_energy: CoreEnergyReport,
    /// Residency-weighted average frequency per core (GHz).
    pub avg_freq_ghz: Vec<f64>,
    /// Fraction of the window each core spent at each V/f operating point
    /// (nominal first).
    pub freq_residency: Vec<Vec<f64>>,
}

/// An epoch-driven allocation policy.
///
/// Implementations own whatever decision state they need (CPE profiles,
/// fitted performance models, residency books); the utility monitors stay
/// in the LLC — they are sampled shadow-tag *hardware* on the access path —
/// and arrive pre-read as [`EpochObservations::curves`]. What only some
/// policies do at the edges of a run goes through provided methods whose
/// defaults do nothing, so a system loop never needs the concrete type.
///
/// The `Any` supertrait lets tools and tests that hold a boxed policy
/// inspect its concrete state by downcasting.
pub trait PartitionPolicy: std::fmt::Debug + Send + Any {
    /// Canonical registry name, e.g. `"cooperative"`.
    fn name(&self) -> &'static str;

    /// Display label matching the paper's legends.
    fn label(&self) -> &'static str;

    /// The enforcement mechanism this policy's decisions assume.
    fn enforcement(&self) -> EnforcementMode;

    /// Whether the LLC should feed its utility monitors on the access path
    /// (costs UMON probe energy; only look-ahead policies need it).
    fn uses_umon(&self) -> bool {
        false
    }

    /// The per-epoch decision.
    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision;

    /// Installs a solo-run CPE profile. Only Dynamic CPE reads one; the
    /// default ignores it.
    fn set_cpe_profile(&mut self, _profile: CpeProfile) {}

    /// Opens the measurement window at `now`, given each core's cumulative
    /// retired instructions and LLC misses. A policy that moves core clocks
    /// books the time since its last decision at the current operating
    /// points, so its window starts exactly here. The default does nothing.
    fn open_clock_window(&mut self, _now: Cycle, _retired: &[u64], _misses: &[u64]) {}

    /// Closes the window opened by [`PartitionPolicy::open_clock_window`]
    /// at `now` and returns the core energy and V/f residency booked inside
    /// it. `None` (the default) means every core ran at the nominal point
    /// throughout, and the caller evaluates core energy at nominal V/f.
    fn close_clock_window(
        &mut self,
        _now: Cycle,
        _retired: &[u64],
        _misses: &[u64],
    ) -> Option<ClockWindow> {
        None
    }
}

// ---------------------------------------------------------------- policies

/// No partitioning: all cores compete under global LRU.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnmanagedPolicy;

impl PartitionPolicy for UnmanagedPolicy {
    fn name(&self) -> &'static str {
        "unmanaged"
    }
    fn label(&self) -> &'static str {
        "Unmanaged"
    }
    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::None
    }
    fn on_epoch(&mut self, _obs: &EpochObservations) -> AllocationDecision {
        AllocationDecision::unchanged()
    }
}

/// Static equal way split per core; never repartitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct FairSharePolicy;

impl PartitionPolicy for FairSharePolicy {
    fn name(&self) -> &'static str {
        "fair"
    }
    fn label(&self) -> &'static str {
        "Fair Share"
    }
    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::Takeover
    }
    fn on_epoch(&mut self, _obs: &EpochObservations) -> AllocationDecision {
        AllocationDecision::unchanged()
    }
}

/// Qureshi & Patt's utility-based cache partitioning: plain look-ahead
/// (threshold 0) over the UMON curves, enforced lazily through replacement
/// quotas.
#[derive(Debug, Clone, Copy, Default)]
pub struct UcpPolicy;

impl PartitionPolicy for UcpPolicy {
    fn name(&self) -> &'static str {
        "ucp"
    }
    fn label(&self) -> &'static str {
        "UCP"
    }
    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::LazyReplacement
    }
    fn uses_umon(&self) -> bool {
        true
    }
    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        AllocationDecision::repartition(allocate(&obs.curves, obs.total_ways, 0.0))
    }
}

/// The paper's scheme: threshold look-ahead over the UMON curves, enforced
/// through RAP/WAP way alignment, cooperative takeover and way gating.
#[derive(Debug, Clone, Copy)]
pub struct CooperativePolicy {
    /// Takeover threshold `T` of Algorithm 1.
    pub threshold: f64,
}

impl PartitionPolicy for CooperativePolicy {
    fn name(&self) -> &'static str {
        "cooperative"
    }
    fn label(&self) -> &'static str {
        "Cooperative Partitioning"
    }
    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::Takeover
    }
    fn uses_umon(&self) -> bool {
        true
    }
    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        AllocationDecision::repartition(allocate(&obs.curves, obs.total_ways, self.threshold))
    }
}

/// Reddy & Petrov's energy-oriented partitioning, extended to dynamic
/// operation: each epoch the solo-run profile dictates a fresh partition,
/// applied by immediate flushes. Owns its profile — install one with
/// [`DynamicCpePolicy::set_profile`]; without a profile every epoch leaves
/// the partition untouched.
#[derive(Debug, Clone)]
pub struct DynamicCpePolicy {
    profile: CpeProfile,
    /// Relative miss increase each application tolerates to shed ways.
    pub slack: f64,
}

impl Default for DynamicCpePolicy {
    fn default() -> DynamicCpePolicy {
        DynamicCpePolicy {
            profile: CpeProfile::default(),
            slack: 0.05,
        }
    }
}

impl DynamicCpePolicy {
    /// A profile-less policy with the given slack.
    pub fn with_slack(slack: f64) -> DynamicCpePolicy {
        DynamicCpePolicy {
            profile: CpeProfile::default(),
            slack,
        }
    }

    /// Installs the solo-run profile that drives the per-epoch decisions.
    pub fn set_profile(&mut self, profile: CpeProfile) {
        self.profile = profile;
    }
}

impl PartitionPolicy for DynamicCpePolicy {
    fn name(&self) -> &'static str {
        "cpe"
    }
    fn label(&self) -> &'static str {
        "Dynamic CPE"
    }
    fn enforcement(&self) -> EnforcementMode {
        EnforcementMode::ImmediateFlush
    }
    fn set_cpe_profile(&mut self, profile: CpeProfile) {
        self.set_profile(profile);
    }
    fn on_epoch(&mut self, obs: &EpochObservations) -> AllocationDecision {
        let n = obs.cores();
        let have_all = (0..n).all(|c| self.profile.curve(c, obs.epoch_index).is_some());
        if !have_all {
            return AllocationDecision::unchanged();
        }
        let refs: Vec<&MissCurve> = (0..n)
            .map(|c| {
                self.profile
                    .curve(c, obs.epoch_index)
                    .expect("checked above")
            })
            .collect();
        let alloc = cpe_allocate(&refs, obs.total_ways, self.slack);
        AllocationDecision {
            allocation: Some(alloc),
            age_umons: false,
            hints: ResourceHints::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchemeKind;
    use crate::registry::{PolicyRegistry, PolicySpec, PAPER_POLICIES};

    fn obs(curves: Vec<MissCurve>, ways: usize) -> EpochObservations {
        let n = curves.len();
        EpochObservations {
            now: Cycle(1000),
            epoch_index: 0,
            total_ways: ways,
            curves,
            cur_ways: vec![ways / n; n],
            misses: vec![0; n],
            retired: Vec::new(),
            dram_lines: Vec::new(),
            bw_delayed: Vec::new(),
            bw_delay_cycles: Vec::new(),
            prefetches: Vec::new(),
            prefetch_useful: Vec::new(),
        }
    }

    fn knee() -> MissCurve {
        MissCurve::new(
            vec![900.0, 100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0],
            2000.0,
        )
    }

    #[test]
    fn static_policies_never_allocate() {
        let o = obs(vec![knee(), knee()], 8);
        assert!(UnmanagedPolicy.on_epoch(&o).allocation.is_none());
        assert!(FairSharePolicy.on_epoch(&o).allocation.is_none());
        assert!(!UnmanagedPolicy.uses_umon());
    }

    #[test]
    fn lookahead_policies_cover_the_cache_and_age_monitors() {
        let o = obs(vec![knee(), knee()], 8);
        let d = UcpPolicy.on_epoch(&o);
        let a = d.allocation.expect("ucp always decides");
        assert_eq!(a.ways.iter().sum::<usize>() + a.unallocated, 8);
        assert!(d.age_umons);
        let d = CooperativePolicy { threshold: 0.03 }.on_epoch(&o);
        assert!(d.allocation.is_some() && d.age_umons);
    }

    #[test]
    fn cpe_without_profile_is_a_no_op() {
        let mut p = DynamicCpePolicy::default();
        let d = p.on_epoch(&obs(vec![knee(), knee()], 8));
        assert!(d.allocation.is_none() && !d.age_umons);
    }

    #[test]
    fn cpe_with_profile_sheds_ways() {
        let mut p = DynamicCpePolicy::default();
        p.set_profile(CpeProfile {
            curves: vec![vec![knee()], vec![knee()]],
        });
        let d = p.on_epoch(&obs(vec![knee(), knee()], 8));
        let a = d.allocation.expect("profiled epochs decide");
        assert!(a.unallocated > 0, "knee curves leave ways to gate: {a:?}");
        assert!(a.ways.iter().all(|&w| w >= 1));
    }

    #[test]
    fn edge_hooks_reach_cpe_and_default_to_nothing() {
        let profile = CpeProfile {
            curves: vec![vec![knee()], vec![knee()]],
        };
        let o = obs(vec![knee(), knee()], 8);
        let mut cpe: Box<dyn PartitionPolicy> = Box::new(DynamicCpePolicy::default());
        cpe.set_cpe_profile(profile.clone());
        assert!(cpe.on_epoch(&o).allocation.is_some(), "profile installed");
        let mut coop: Box<dyn PartitionPolicy> = Box::new(CooperativePolicy { threshold: 0.03 });
        coop.set_cpe_profile(profile);
        coop.open_clock_window(Cycle(0), &[0, 0], &[0, 0]);
        let window = coop.close_clock_window(Cycle(1000), &[10, 10], &[1, 1]);
        assert!(window.is_none(), "no clock books by default");
    }

    #[test]
    fn scheme_factory_matches_descriptors() {
        let cfg = crate::config::LlcConfig::two_core(SchemeKind::Cooperative).with_threshold(0.2);
        let reg = PolicyRegistry::core();
        let build = |name| {
            reg.build(name, &PolicySpec::for_llc(&cfg, 2))
                .expect("registered")
        };
        for name in PAPER_POLICIES {
            let scheme = reg
                .entry(name)
                .and_then(|e| e.scheme)
                .expect("paper policy");
            let p = build(name);
            assert_eq!(p.enforcement(), scheme.enforcement(), "{scheme}");
            assert_eq!(p.uses_umon(), scheme.uses_umon(), "{scheme}");
            assert_eq!(p.label(), scheme.label(), "{scheme}");
        }
        let p = build("cooperative");
        let any: &dyn std::any::Any = &*p;
        let coop = any
            .downcast_ref::<CooperativePolicy>()
            .expect("concrete type");
        assert!((coop.threshold - 0.2).abs() < 1e-12, "threshold from cfg");
    }

    #[test]
    fn hints_default_to_untouched() {
        let h = ResourceHints::default();
        assert!(h.clock_ratios.is_none() && h.bandwidth_shares.is_none());
    }
}
