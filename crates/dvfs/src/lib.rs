//! # coop-dvfs — coordinated multi-resource control over cooperative partitioning
//!
//! The paper's cooperative takeover machinery saves energy by gating unowned
//! LLC ways. This crate coordinates LLC ways with the other resources a core
//! consumes: core frequency (after Nejat et al., *Coordinated DVFS and cache
//! partitioning under QoS constraints*), DRAM bandwidth and prefetch
//! aggressiveness (after CBP). One per-epoch, QoS-constrained minimizer
//! searches joint assignments over a configurable axis set and finds savings
//! no knob reaches alone: memory-bound cores tolerate down-clocking (their
//! wall time is DRAM latency, which the core clock does not touch),
//! cache-friendly cores trade ways for voltage, and prefetching converts
//! stall time into line traffic that only pays off when the core's
//! bandwidth slice has headroom.
//!
//! The pieces, one module each:
//!
//! * [`model`] — the epoch performance model: predicts each core's time to
//!   redo its epoch's work at any candidate (frequency, ways, prefetch
//!   degree, bandwidth units) from the UMON miss curves the LLC already
//!   collects, calibrated through the one point actually executed;
//! * [`mod@minimize`] — the QoS-constrained energy minimizer: per-core
//!   candidate tables + one dynamic program over (ways, bandwidth units);
//!   every core stays within `1 + qos_slack` of its nominal/fair-share
//!   baseline and keeps at least one way;
//! * [`controller`] — the epoch decision engine: differences cumulative
//!   counters, fits the models, runs the minimizer, and keeps per-operating
//!   point residency books for energy accounting;
//! * [`policy`] — [`Coordinator`], the controller wrapped as a
//!   `coop_core::policy::PartitionPolicy`, registered in two presets that
//!   differ only in their axis sets:
//!   * `"dvfs"` ([`DvfsPolicy`]) — ways × the 45 nm V/f table;
//!   * `"cbp"` ([`CbpPolicy`]) — ways × 8 bandwidth units × prefetch
//!     degrees `0..=4`, at the nominal V/f point.
//!
//!   Way targets flow through the LLC's ordinary takeover enforcement, the
//!   other axes through the decision's resource hints.
//!
//! Like every policy crate, this one only *plans*; the V/f table and clock
//! dilation live in [`cpusim::clock`], the prefetcher in `cpusim`, the
//! token-bucket regulator in `memsim`, and voltage-scaled core power in
//! [`energy::core_power`]. The `dvfs_energy` and `cbp_energy` harness
//! experiments sweep QoS slacks across the paper's workload groups and
//! report energy against the cooperative-partitioning-only baseline.

pub mod controller;
pub mod minimize;
pub mod model;
pub mod policy;

pub use controller::{Controller, DvfsConfig, Residency};
pub use minimize::{minimize, CoreAssignment, EnergyCosts, JointAssignment};
pub use model::{CorePerfModel, EpochObservation, MemModelParams, PerfModelParams, MAX_DEGREE};
pub use policy::{register, Cbp, CbpPolicy, Coordinator, Dvfs, DvfsPolicy, Preset};
