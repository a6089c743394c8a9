//! The harness policy registry: every allocation policy the binaries and
//! the experiment matrix can run, keyed by name, and the policy settings
//! a sweep cell names.

use coop_core::PolicyRegistry;

use crate::system::SystemBuilder;

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

/// One builder knob a policy setting can carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Knob {
    /// `t=`: the Cooperative takeover threshold ([`SystemBuilder::threshold`]).
    Threshold(f64),
    /// `slack=`: the coordinators' QoS slack ([`SystemBuilder::qos_slack`]).
    QosSlack(f64),
}

impl Knob {
    /// The setting name of `policy` with this knob, e.g.
    /// `cooperative@t=0.05`. The value prints with `{}`, the shortest text
    /// that parses back to the same `f64`.
    pub fn setting(self, policy: &str) -> String {
        match self {
            Knob::Threshold(t) => format!("{policy}@t={t}"),
            Knob::QosSlack(s) => format!("{policy}@slack={s}"),
        }
    }
}

/// A policy setting: a registry policy, optionally with one builder knob.
/// Its name is a registry name (`cooperative`) or a registry name, `@` and
/// `KEY=VALUE` (`cooperative@t=0.05`, `dvfs@slack=0.1`). A sweep cell's
/// `policy` field holds one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicySetting {
    /// Canonical registry name.
    pub policy: &'static str,
    /// The knob, if the setting names one.
    pub knob: Option<Knob>,
}

impl PolicySetting {
    /// Parses a setting name. An unknown policy or key, or a value that is
    /// not a finite number, is an error naming the setting.
    pub fn parse(name: &str) -> Result<PolicySetting, String> {
        let bad = |why: String| format!("policy setting '{name}': {why}");
        let (policy, knob) = match name.split_once('@') {
            Some((policy, knob)) => (policy, Some(knob)),
            None => (name, None),
        };
        let policy = policy_registry()
            .resolve(policy)
            .ok_or_else(|| bad(format!("unknown policy '{policy}'")))?;
        let knob = knob
            .map(|knob| {
                let (key, value) = knob
                    .split_once('=')
                    .ok_or_else(|| bad(format!("'{knob}' is not KEY=VALUE")))?;
                let v = value
                    .parse::<f64>()
                    .ok()
                    .filter(|v| v.is_finite())
                    .ok_or_else(|| bad(format!("'{value}' is not a finite number")))?;
                match key {
                    "t" => Ok(Knob::Threshold(v)),
                    "slack" => Ok(Knob::QosSlack(v)),
                    _ => Err(bad(format!("unknown key '{key}' (t, slack)"))),
                }
            })
            .transpose()?;
        Ok(PolicySetting { policy, knob })
    }

    /// The canonical setting name.
    pub fn name(&self) -> String {
        match self.knob {
            None => self.policy.to_string(),
            Some(knob) => knob.setting(self.policy),
        }
    }

    /// Sets the policy, and the knob if any, on a builder.
    pub fn configure(&self, builder: SystemBuilder) -> SystemBuilder {
        let builder = builder.policy(self.policy);
        match self.knob {
            None => builder,
            Some(Knob::Threshold(t)) => builder.threshold(t),
            Some(Knob::QosSlack(s)) => builder.qos_slack(s),
        }
    }
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
