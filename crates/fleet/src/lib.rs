//! Fleet sweep orchestration: sharded, resumable, fault-tolerant sweep
//! execution across worker processes.
//!
//! This crate is a pure orchestration substrate — it knows nothing about
//! caches, policies or workloads. A sweep is modelled as a set of
//! [`cell::CellSpec`]s (content-hash-addressed units of work), dealt into
//! [`shard::Shard`]s, executed by worker processes speaking the NDJSON
//! [`protocol`] over stdin/stdout, and persisted cell-by-cell into a
//! [`store::ResultsStore`] whose manifest + journal make runs resumable
//! and guard against mixing incompatible partial results. The harness
//! plugs in at exactly two points: a [`worker::CellRunner`] that knows
//! how to execute one cell, and code that merges stored payloads back
//! into its own result tables.
//!
//! Layering: the only internal dependency is `simkit`, for its JSON layer
//! ([`simkit::json`]) and its FNV-1a hash; nothing here depends on the
//! simulator.
//!
//! ```text
//! harness (repro bin) ──> fleet::orchestrator ── NDJSON ──> repro worker
//!        │                        │                              │
//!        │ merge payloads         │ journal + manifest           │ CellRunner
//!        └──── fleet::store <─────┘                              ▼
//!                                                       harness::fleet_run
//! ```

pub mod cell;
pub mod chaos;
pub mod orchestrator;
pub mod protocol;
pub mod shard;
pub mod store;
pub mod worker;

pub use cell::{content_sum, CellKind, CellSpec};
pub use chaos::ChaosEngine;
pub use orchestrator::{run_fleet, FleetConfig, FleetReport};
pub use shard::{plan_shards, Shard};
pub use store::{
    fsck, CellHealth, FsckReport, JournalEntry, Manifest, ResultsStore, StoreError, STORE_FORMAT,
};
pub use worker::{serve, CellRunner};

/// The version stamped into run manifests, used to refuse resuming onto
/// partial results produced by a different build. Sources, in order:
/// `FLEET_VERSION` (CI pins it), `git describe --always --dirty --tags`
/// (developer checkouts), else the crate version.
pub fn version_string() -> String {
    if let Ok(v) = std::env::var("FLEET_VERSION") {
        if !v.trim().is_empty() {
            return v.trim().to_string();
        }
    }
    if let Ok(out) = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
    {
        if out.status.success() {
            let desc = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if !desc.is_empty() {
                return desc;
            }
        }
    }
    format!("v{}", env!("CARGO_PKG_VERSION"))
}

#[cfg(test)]
mod tests {
    #[test]
    fn version_string_is_nonempty() {
        assert!(!super::version_string().is_empty());
    }
}
