//! The harness policy registry: every allocation policy the binaries and
//! the experiment matrix can run, keyed by name.

use coop_core::PolicyRegistry;

/// The full registry: the five paper schemes (`coop-core`) plus the two
/// presets of the coordinated controller (`coop-dvfs`): `"dvfs"`
/// (ways × frequency) and `"cbp"` (ways × bandwidth × prefetch). A new policy
/// crate plugs in by adding one `register` call here — `repro`, `repro inspect`,
/// the sweeps and the property tests pick it up by name.
pub fn policy_registry() -> PolicyRegistry {
    let mut reg = PolicyRegistry::core();
    coop_dvfs::register(&mut reg);
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use coop_core::PAPER_POLICIES;

    #[test]
    fn registry_covers_paper_schemes_and_coordinators() {
        let reg = policy_registry();
        let names = reg.names();
        for p in PAPER_POLICIES {
            assert!(names.contains(&p), "{p} missing from {names:?}");
        }
        assert!(names.contains(&"dvfs"));
        assert!(names.contains(&"cbp"));
        assert_eq!(reg.resolve("cbp_coord"), Some("cbp"));
    }
}
