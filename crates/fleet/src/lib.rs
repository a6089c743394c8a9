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
/// partial results produced by a different build: `git describe --always
/// --dirty --tags` (developer checkouts), else the crate version.
pub fn version_string() -> String {
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

/// Parses one numeric `FLEET_*` knob from its raw value (`None` when the
/// variable is unset, which yields `default`). A value that is not an
/// unsigned integer, or is below `min`, is rejected with a line naming it,
/// and the caller runs with `default`: a typo'd `FLEET_HEARTBEAT_MS=25ms`
/// must be named, never quietly swallowed.
pub(crate) fn parse_knob(
    key: &str,
    raw: Option<&str>,
    default: u64,
    min: u64,
) -> Result<u64, String> {
    let Some(v) = raw else {
        return Ok(default);
    };
    let why = match v.trim().parse::<u64>() {
        Ok(n) if n >= min => return Ok(n),
        Ok(_) => format!("below the minimum {min}"),
        Err(_) => "not an unsigned integer".to_string(),
    };
    Err(format!(
        "# fleet: ignoring {key}='{v}' ({why}); using default {default}"
    ))
}

/// [`parse_knob`] over the process environment; a rejected value is named
/// on stderr.
pub(crate) fn env_knob(key: &str, default: u64, min: u64) -> u64 {
    let raw = std::env::var(key).ok();
    parse_knob(key, raw.as_deref(), default, min).unwrap_or_else(|line| {
        eprintln!("{line}");
        default
    })
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn version_string_is_nonempty() {
        assert!(!super::version_string().is_empty());
    }

    #[test]
    fn knobs_parse_or_name_the_rejected_value() {
        let heartbeat = |raw| parse_knob("FLEET_HEARTBEAT_MS", raw, 100, 1);
        assert_eq!(heartbeat(None), Ok(100));
        assert_eq!(heartbeat(Some("25")), Ok(25));
        assert_eq!(
            heartbeat(Some("25ms")),
            Err(
                "# fleet: ignoring FLEET_HEARTBEAT_MS='25ms' (not an unsigned integer); \
                 using default 100"
                    .to_string()
            )
        );
        assert_eq!(
            heartbeat(Some("0")),
            Err(
                "# fleet: ignoring FLEET_HEARTBEAT_MS='0' (below the minimum 1); \
                 using default 100"
                    .to_string()
            )
        );
        // Knobs without a minimum take 0 (e.g. "no run deadline").
        assert_eq!(parse_knob("FLEET_RUN_DEADLINE_MS", Some("0"), 0, 0), Ok(0));
    }
}
