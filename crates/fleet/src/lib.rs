//! Fleet sweep orchestration: sharded, resumable, fault-tolerant sweep
//! execution across worker processes.
//!
//! This crate is a pure orchestration substrate — it knows nothing about
//! caches, policies or workloads. A sweep is modelled as a set of
//! [`cell::CellSpec`]s (content-hash-addressed units of work), dealt into
//! [`shard::Shard`]s, executed by worker processes speaking the NDJSON
//! [`protocol`] over stdin/stdout, and persisted cell-by-cell into a
//! [`store::ResultsStore`]: each finished cell is one checksummed file,
//! the only record that it finished. Any run onto a store of the same
//! format and code version verifies those files and computes only the
//! cells without one, whichever target asked for them first; the manifest
//! refuses a store written by another build.
//! The harness plugs in at exactly two points: a [`worker::CellRunner`]
//! that knows how to execute one cell, and code that merges stored
//! payloads back into its own result tables.
//!
//! Layering: the only internal dependency is `simkit`, for its JSON layer
//! ([`simkit::json`]) and its FNV-1a hash; nothing here depends on the
//! simulator.
//!
//! ```text
//! harness (repro bin) ──> fleet::orchestrator ── NDJSON ──> repro worker
//!        │                        │                              │
//!        │ merge payloads         │ cell files + manifest        │ CellRunner
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
pub use store::{fsck, CellHealth, FsckReport, Manifest, ResultsStore, StoreError, STORE_FORMAT};
pub use worker::{serve, CellRunner};

use std::sync::OnceLock;

/// The version stamped into store manifests, used to refuse reusing the
/// cells of a store produced by a different build:
/// `v{crate version}+{FNV-1a of the running executable's bytes, 16 hex}`,
/// or `v{crate version}` when the executable cannot be read. It names the
/// binary, not the directory it was launched from, and is computed once
/// per process.
pub fn version_string() -> String {
    static VERSION: OnceLock<String> = OnceLock::new();
    VERSION
        .get_or_init(|| {
            let version = format!("v{}", env!("CARGO_PKG_VERSION"));
            match std::env::current_exe().and_then(std::fs::read) {
                Ok(exe) => format!("{version}+{:016x}", simkit::rng::fnv1a(&exe)),
                Err(_) => version,
            }
        })
        .clone()
}

/// Parses one numeric `FLEET_*` knob from its raw value (`None` when the
/// variable is unset, which yields `default`). A value that is not an
/// unsigned integer is rejected with a line naming it, and the caller runs
/// with `default`: a typo'd `FLEET_BACKOFF_MS=25ms` must be named, never
/// quietly swallowed.
pub(crate) fn parse_knob(key: &str, raw: Option<&str>, default: u64) -> Result<u64, String> {
    let Some(v) = raw else {
        return Ok(default);
    };
    v.trim().parse::<u64>().map_err(|_| {
        format!("# fleet: ignoring {key}='{v}' (not an unsigned integer); using default {default}")
    })
}

/// [`parse_knob`] over the process environment; a rejected value is named
/// on stderr.
pub(crate) fn env_knob(key: &str, default: u64) -> u64 {
    let raw = std::env::var(key).ok();
    parse_knob(key, raw.as_deref(), default).unwrap_or_else(|line| {
        eprintln!("{line}");
        default
    })
}

#[cfg(test)]
mod tests {
    use super::parse_knob;

    #[test]
    fn version_string_names_the_crate_version_and_the_binary() {
        let v = super::version_string();
        let hash = v
            .strip_prefix(concat!("v", env!("CARGO_PKG_VERSION"), "+"))
            .unwrap_or_else(|| panic!("{v}"));
        assert!(
            hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()),
            "{v}"
        );
    }

    #[test]
    fn knobs_parse_or_name_the_rejected_value() {
        let backoff = |raw| parse_knob("FLEET_BACKOFF_MS", raw, 250);
        assert_eq!(backoff(None), Ok(250));
        assert_eq!(backoff(Some("25")), Ok(25));
        assert_eq!(backoff(Some("0")), Ok(0));
        assert_eq!(
            backoff(Some("25ms")),
            Err(
                "# fleet: ignoring FLEET_BACKOFF_MS='25ms' (not an unsigned integer); \
                 using default 250"
                    .to_string()
            )
        );
    }
}
