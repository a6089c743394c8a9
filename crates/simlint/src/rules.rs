//! The rule tables: the crate layering DAG, the determinism scope, the
//! path allowlists, and the panic-policy scope. **This file is the single
//! place the workspace's inter-crate contracts are declared** — adding a
//! crate means adding one [`CrateRule`] row; loosening a contract means
//! editing a row (and owning the diff), not sprinkling suppressions.

/// One workspace crate's layering contract.
#[derive(Debug, Clone, Copy)]
pub struct CrateRule {
    /// `package.name` in its `Cargo.toml`.
    pub package: &'static str,
    /// Directory relative to the workspace root (`"."` for the root crate).
    pub dir: &'static str,
    /// The library identifier `use` statements refer to (`coop_core`, …).
    pub lib: &'static str,
    /// Internal packages this crate may depend on — both in `Cargo.toml`
    /// and via `lib_name::` paths in code. Everything else is a layering
    /// violation.
    pub deps: &'static [&'static str],
    /// Simulation crate: wall-clock, detached threads and (outside
    /// [`FS_ALLOWED_PATHS`]) filesystem access would break bit-exact
    /// goldens, so the determinism rules apply in full.
    pub sim: bool,
}

/// The dependency DAG, bottom-up. Mechanism crates (`memsim`, `cpusim`,
/// `energy`) never list the policy crates (`coop-core`, `coop-dvfs`);
/// `fleet` lists only `simkit`, for its JSON layer and hash (no mechanism,
/// policy or harness crate, so it is harness-independent by
/// construction); `bench` times kernels, so it sees the simulator crates
/// but not `harness`; only `harness` and the umbrella crate see everything.
pub const CRATES: &[CrateRule] = &[
    CrateRule {
        package: "simkit",
        dir: "crates/simkit",
        lib: "simkit",
        deps: &[],
        sim: true,
    },
    CrateRule {
        package: "energy",
        dir: "crates/energy",
        lib: "energy",
        deps: &[],
        sim: true,
    },
    CrateRule {
        package: "memsim",
        dir: "crates/memsim",
        lib: "memsim",
        deps: &["simkit"],
        sim: true,
    },
    CrateRule {
        package: "cpusim",
        dir: "crates/cpusim",
        lib: "cpusim",
        deps: &["memsim", "simkit"],
        sim: true,
    },
    CrateRule {
        package: "workloads",
        dir: "crates/workloads",
        lib: "workloads",
        deps: &["cpusim", "simkit"],
        sim: true,
    },
    CrateRule {
        package: "coop-core",
        dir: "crates/core",
        lib: "coop_core",
        deps: &["energy", "memsim", "simkit"],
        sim: true,
    },
    CrateRule {
        package: "coop-dvfs",
        dir: "crates/dvfs",
        lib: "coop_dvfs",
        deps: &["coop-core", "cpusim", "energy", "memsim", "simkit"],
        sim: true,
    },
    CrateRule {
        package: "fleet",
        dir: "crates/fleet",
        lib: "fleet",
        deps: &["simkit"],
        sim: false,
    },
    CrateRule {
        package: "harness",
        dir: "crates/harness",
        lib: "harness",
        deps: &[
            "coop-core",
            "coop-dvfs",
            "cpusim",
            "energy",
            "fleet",
            "memsim",
            "simkit",
            "workloads",
        ],
        sim: false,
    },
    CrateRule {
        package: "bench",
        dir: "crates/bench",
        lib: "bench",
        deps: &[
            "coop-core",
            "coop-dvfs",
            "cpusim",
            "memsim",
            "simkit",
            "workloads",
        ],
        sim: false,
    },
    CrateRule {
        package: "simlint",
        dir: "crates/simlint",
        lib: "simlint",
        deps: &[],
        sim: false,
    },
    CrateRule {
        package: "coop-partitioning",
        dir: ".",
        lib: "coop_partitioning",
        deps: &[
            "coop-core",
            "coop-dvfs",
            "cpusim",
            "energy",
            "harness",
            "memsim",
            "simkit",
            "workloads",
        ],
        sim: false,
    },
];

/// Vendored external crates, allowed as a dev-dependency of any crate and
/// as nothing else (they are offline stand-ins for test tools; see
/// `vendor/README.md`), so no stand-in can decide a simulation result.
pub const EXTERNAL_DEPS: &[&str] = &["criterion", "proptest"];

/// Library identifiers of every first-party crate — the set the `use`/path
/// layering check matches against.
pub fn first_party_libs() -> Vec<&'static str> {
    CRATES.iter().map(|c| c.lib).collect()
}

/// The crate rule for a repo-relative file path, if the path falls inside
/// a known crate directory. Longest-match wins so `crates/simlint/...`
/// resolves to `simlint`, not the root crate's `"."`.
pub fn crate_for_path(rel_path: &str) -> Option<&'static CrateRule> {
    let mut best: Option<&CrateRule> = None;
    for c in CRATES {
        let hit = c.dir == "." || rel_path.starts_with(&format!("{}/", c.dir));
        if hit && best.is_none_or(|b| c.dir.len() > b.dir.len()) {
            best = Some(c);
        }
    }
    best
}

/// The crate rule for a package name.
pub fn crate_for_package(package: &str) -> Option<&'static CrateRule> {
    CRATES.iter().find(|c| c.package == package)
}

/// Paths (repo-relative prefixes) where wall-clock reads are legitimate:
/// the harness perf lines (`perf:` wall/throughput reporting) and the
/// fleet's timeout/heartbeat machinery. Wall time there is *reported*,
/// never fed back into simulated state.
pub const WALL_CLOCK_ALLOWED_PATHS: &[&str] = &[
    "crates/harness/src/bin/",
    "crates/harness/src/experiments/",
    "crates/harness/src/fleet_run.rs",
    "crates/fleet/src/orchestrator.rs",
    "crates/fleet/src/worker.rs",
];

/// Paths where detached `thread::spawn` is legitimate: the fleet's
/// per-worker stdout readers and heartbeat threads. (Scoped fork-join via
/// `std::thread::scope` is not flagged anywhere — it cannot outlive the
/// computation it parallelizes.)
pub const THREAD_SPAWN_ALLOWED_PATHS: &[&str] = &[
    "crates/fleet/src/orchestrator.rs",
    "crates/fleet/src/worker.rs",
];

/// Paths inside *simulation* crates that may touch the filesystem:
/// `cpusim::trace` is the designated trace-file loader. Everything else
/// below the harness must stay pure (the fleet store and harness own all
/// other I/O).
pub const FS_ALLOWED_PATHS: &[&str] = &["crates/cpusim/src/trace.rs"];

/// Paths on the fleet worker-protocol and orchestrator paths, where a
/// panic kills a whole run instead of recycling one worker: `unwrap` /
/// `expect` / `panic!`-family macros are banned in non-test code.
pub const PANIC_POLICY_PATHS: &[&str] = &[
    "crates/fleet/src/chaos.rs",
    "crates/fleet/src/orchestrator.rs",
    "crates/fleet/src/protocol.rs",
    "crates/fleet/src/store.rs",
    "crates/fleet/src/worker.rs",
];

/// Every rule name, for suppression validation and docs.
pub const RULE_NAMES: &[&str] = &[
    "hash-collections",
    "wall-clock",
    "thread-spawn",
    "filesystem",
    "layering",
    "panic-policy",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_resolution_prefers_longest_dir() {
        assert_eq!(
            crate_for_path("crates/memsim/src/mshr.rs").map(|c| c.package),
            Some("memsim")
        );
        assert_eq!(
            crate_for_path("crates/core/src/policy.rs").map(|c| c.lib),
            Some("coop_core")
        );
        assert_eq!(
            crate_for_path("tests/end_to_end.rs").map(|c| c.package),
            Some("coop-partitioning")
        );
        assert_eq!(
            crate_for_path("src/lib.rs").map(|c| c.package),
            Some("coop-partitioning")
        );
    }

    #[test]
    fn mechanism_crates_never_allow_policy_crates() {
        for pkg in ["memsim", "cpusim", "energy"] {
            let c = crate_for_package(pkg).expect("in table");
            for policy in ["coop-core", "coop-dvfs"] {
                assert!(
                    !c.deps.contains(&policy),
                    "{pkg} must not see policy crate {policy}"
                );
            }
        }
    }

    #[test]
    fn fleet_is_harness_independent() {
        assert_eq!(crate_for_package("fleet").expect("fleet").deps, ["simkit"]);
    }
}
