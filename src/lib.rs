//! # coop-partitioning — umbrella crate
//!
//! Re-exports every crate of the Cooperative Partitioning (HPCA 2012)
//! reproduction under one roof, for use by the workspace examples and the
//! cross-crate integration tests in `tests/`.
//!
//! * [`coop_core`] — the paper's contribution: UMON monitors, threshold
//!   look-ahead allocation, RAP/WAP registers, cooperative takeover, the
//!   partitioned LLC and the five comparison schemes.
//! * [`memsim`] / [`cpusim`] — the memory and core substrates.
//! * [`workloads`] — SPEC CPU2006-like synthetic benchmark models and the
//!   paper's workload groups.
//! * [`energy`] — CACTI-style energy accounting.
//! * [`coop_dvfs`] — coordinated multi-resource control over cooperative
//!   partitioning: one epoch performance model, one QoS-constrained energy
//!   minimizer and one controller, registered as two presets — `dvfs`
//!   (ways × core frequency) and `cbp` (ways × DRAM bandwidth × prefetch
//!   degree).
//! * [`harness`] — experiment runners for every table and figure.
//! * [`simkit`] — kernel types and statistics.

pub use coop_core;
pub use coop_dvfs;
pub use cpusim;
pub use energy;
pub use harness;
pub use memsim;
pub use simkit;
pub use workloads;
