//! # harness — experiment runners for every table and figure
//!
//! Glues the substrates together into the paper's evaluation platform:
//!
//! * [`system::System`] — N cores (`cpusim`) + private L1s + the partitioned
//!   shared LLC (`coop-core`) + banked DRAM (`memsim`), cycle-stepped with
//!   fast-forwarding and periodic partitioning epochs;
//! * [`solo`] — per-benchmark solo baselines (IPC-alone for weighted
//!   speedup, solo MPKI for Table 3, per-epoch miss curves as the Dynamic
//!   CPE profile);
//! * `memo` — the process-wide cell memo every in-process run is looked
//!   up in, so grids that share cells simulate them once;
//! * [`metrics`] — the weighted-speedup metric;
//! * [`scale::SimScale`] — reduced-scale presets (the paper runs 1 B
//!   instructions per app with 5 M-cycle epochs; the default reproduction
//!   scale divides both by ~100; `repro --scale` picks another preset);
//! * [`experiments`] — one module per paper table/figure, each rendering a
//!   printable table from the cells it reads;
//! * [`targets`] — the one table of `repro` targets: the cells each reads
//!   and what it renders, in process or as a worker fleet ([`fleet_run`]).
//!
//! The `repro` binary is the one front end and its flags are the only
//! configuration: `repro all`, `repro fig5`, `repro table3 --scale medium`,
//! `repro inspect G2-6 --policy cp` (one workload epoch by epoch), ...

pub mod experiments;
pub mod fleet_run;
mod memo;
pub mod metrics;
pub mod policies;
pub mod scale;
pub mod solo;
pub mod system;
pub mod targets;

pub use policies::policy_registry;
pub use scale::SimScale;
pub use system::{drive_epoch, BuildError, EpochView, RunResult, System, SystemBuilder};

/// The harness workload registry: the 19 synthetic benchmark models plus
/// the named groups (G2-1..G2-14, G4-1..G4-14, G8-1..G8-6). Mirrors
/// [`policy_registry`] — a downstream crate with its own workload kind
/// registers it here and `repro`, `repro inspect`, the sweeps and the
/// [`SystemBuilder`] pick it up by spec string.
pub fn workload_registry() -> workloads::WorkloadRegistry {
    workloads::WorkloadRegistry::standard()
}
