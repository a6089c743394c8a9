//! String-keyed policy registry.
//!
//! `repro`, `repro inspect` and the experiment matrix enumerate policies by name
//! instead of matching on an enum: [`PolicyRegistry::core`] registers the
//! five paper schemes, and downstream crates add theirs through
//! [`PolicyRegistry::register`] (the `coop-dvfs` crate registers `"dvfs"`;
//! the harness assembles the full registry). Unknown names resolve to an
//! [`UnknownPolicy`] error that lists every registered name, so binaries
//! can print help instead of panicking.

use crate::config::{LlcConfig, SchemeKind};
use crate::policy::{
    CooperativePolicy, DynamicCpePolicy, FairSharePolicy, PartitionPolicy, UcpPolicy,
    UnmanagedPolicy,
};

/// The knobs a policy constructor may read. Built from the system's LLC
/// configuration; policy-specific fields have sensible defaults and
/// builder-style overrides.
#[derive(Debug, Clone)]
pub struct PolicySpec {
    /// Cores sharing the cache.
    pub cores: usize,
    /// Total ways in the shared cache.
    pub total_ways: usize,
    /// Takeover threshold for threshold look-ahead policies.
    pub threshold: f64,
    /// Relative miss slack for the Dynamic CPE policy.
    pub cpe_slack: f64,
    /// Allowed fractional slowdown for policies that trade performance for
    /// energy (the DVFS coordinator's QoS constraint).
    pub qos_slack: f64,
}

impl PolicySpec {
    /// Spec for a system of `cores` cores running `cfg`'s cache.
    pub fn for_llc(cfg: &LlcConfig, cores: usize) -> PolicySpec {
        PolicySpec {
            cores,
            total_ways: cfg.geom.ways(),
            threshold: cfg.threshold,
            cpe_slack: 0.05,
            qos_slack: 0.10,
        }
    }

    /// Overrides the QoS slack.
    pub fn with_qos_slack(mut self, slack: f64) -> PolicySpec {
        self.qos_slack = slack;
        self
    }

    /// Overrides the takeover threshold.
    pub fn with_threshold(mut self, threshold: f64) -> PolicySpec {
        self.threshold = threshold;
        self
    }
}

/// Constructor stored per entry.
type Build = Box<dyn Fn(&PolicySpec) -> Box<dyn PartitionPolicy> + Send + Sync>;

/// One registered policy.
pub struct PolicyEntry {
    /// Canonical name (the registry key).
    pub name: &'static str,
    /// Accepted alternative spellings.
    pub aliases: &'static [&'static str],
    /// One-line description for listings.
    pub summary: &'static str,
    /// The [`SchemeKind`] this policy reproduces, when it is one of the
    /// paper's five (used by legacy labeling paths).
    pub scheme: Option<SchemeKind>,
    build: Build,
}

impl PolicyEntry {
    /// Creates an entry.
    pub fn new(
        name: &'static str,
        aliases: &'static [&'static str],
        summary: &'static str,
        scheme: Option<SchemeKind>,
        build: impl Fn(&PolicySpec) -> Box<dyn PartitionPolicy> + Send + Sync + 'static,
    ) -> PolicyEntry {
        PolicyEntry {
            name,
            aliases,
            summary,
            scheme,
            build: Box::new(build),
        }
    }
}

impl std::fmt::Debug for PolicyEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PolicyEntry")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .finish_non_exhaustive()
    }
}

/// A name that resolved to nothing; `Display` lists what would have worked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPolicy {
    /// What the caller asked for.
    pub requested: String,
    /// Every registered canonical name.
    pub known: Vec<&'static str>,
}

impl std::fmt::Display for UnknownPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown policy '{}'; registered policies: {}",
            self.requested,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownPolicy {}

/// The registry: canonical names (plus aliases) to policy constructors.
#[derive(Debug, Default)]
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

/// The five paper schemes, in the paper's presentation order.
pub const PAPER_POLICIES: [&str; 5] = ["unmanaged", "fair", "cpe", "ucp", "cooperative"];

impl PolicyRegistry {
    /// An empty registry.
    pub fn empty() -> PolicyRegistry {
        PolicyRegistry::default()
    }

    /// The registry of the five paper schemes.
    pub fn core() -> PolicyRegistry {
        let mut reg = PolicyRegistry::empty();
        reg.register(PolicyEntry::new(
            "unmanaged",
            &["un"],
            "no partitioning; global LRU over all ways",
            Some(SchemeKind::Unmanaged),
            |_| Box::new(UnmanagedPolicy),
        ));
        reg.register(PolicyEntry::new(
            "fair",
            &["fairshare", "fair_share"],
            "static equal way split, way-aligned",
            Some(SchemeKind::FairShare),
            |_| Box::new(FairSharePolicy),
        ));
        reg.register(PolicyEntry::new(
            "cpe",
            &["dynamic_cpe", "dynamic-cpe"],
            "solo-profile Dynamic CPE; repartitions flush immediately",
            Some(SchemeKind::DynamicCpe),
            |spec| Box::new(DynamicCpePolicy::with_slack(spec.cpe_slack)),
        ));
        reg.register(PolicyEntry::new(
            "ucp",
            &[],
            "utility-based look-ahead, lazy replacement quotas",
            Some(SchemeKind::Ucp),
            |_| Box::new(UcpPolicy),
        ));
        reg.register(PolicyEntry::new(
            "cooperative",
            &["cp", "coop"],
            "threshold look-ahead + RAP/WAP + cooperative takeover (the paper)",
            Some(SchemeKind::Cooperative),
            |spec| {
                Box::new(CooperativePolicy {
                    threshold: spec.threshold,
                })
            },
        ));
        reg
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics if the canonical name or an alias is already taken.
    pub fn register(&mut self, entry: PolicyEntry) {
        let mut names = vec![entry.name];
        names.extend(entry.aliases);
        for n in names {
            assert!(
                self.resolve(n).is_none(),
                "policy name '{n}' registered twice"
            );
        }
        self.entries.push(entry);
    }

    /// Canonicalizes `name` (case-insensitive, aliases accepted).
    pub fn resolve(&self, name: &str) -> Option<&'static str> {
        let lower = name.to_ascii_lowercase();
        self.entries
            .iter()
            .find(|e| e.name == lower || e.aliases.contains(&lower.as_str()))
            .map(|e| e.name)
    }

    /// The entry for `name` (canonical or alias).
    pub fn entry(&self, name: &str) -> Option<&PolicyEntry> {
        let canonical = self.resolve(name)?;
        self.entries.iter().find(|e| e.name == canonical)
    }

    /// Every registered canonical name, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Builds the policy registered as `name`.
    pub fn build(
        &self,
        name: &str,
        spec: &PolicySpec,
    ) -> Result<Box<dyn PartitionPolicy>, UnknownPolicy> {
        match self.entry(name) {
            Some(e) => Ok((e.build)(spec)),
            None => Err(UnknownPolicy {
                requested: name.to_string(),
                known: self.names(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PolicySpec {
        PolicySpec::for_llc(&LlcConfig::two_core(SchemeKind::Cooperative), 2)
    }

    #[test]
    fn core_registry_builds_all_five_paper_policies() {
        let reg = PolicyRegistry::core();
        assert_eq!(reg.names(), PAPER_POLICIES.to_vec());
        for name in PAPER_POLICIES {
            let p = reg.build(name, &spec()).expect("registered");
            assert_eq!(p.name(), name, "canonical name round-trips");
        }
    }

    #[test]
    fn aliases_and_case_resolve() {
        let reg = PolicyRegistry::core();
        assert_eq!(reg.resolve("cp"), Some("cooperative"));
        assert_eq!(reg.resolve("UN"), Some("unmanaged"));
        assert_eq!(reg.resolve("Fair_Share"), Some("fair"));
        assert_eq!(reg.resolve("nope"), None);
    }

    #[test]
    fn unknown_names_list_the_valid_ones() {
        let reg = PolicyRegistry::core();
        let err = reg.build("nope", &spec()).expect_err("unknown");
        let msg = err.to_string();
        assert!(msg.contains("nope") && msg.contains("cooperative"), "{msg}");
    }

    #[test]
    fn spec_knobs_reach_the_policies() {
        let reg = PolicyRegistry::core();
        let p = reg
            .build("cooperative", &spec().with_threshold(0.42))
            .expect("registered");
        let any: &dyn std::any::Any = &*p;
        let coop = any
            .downcast_ref::<crate::policy::CooperativePolicy>()
            .expect("concrete");
        assert!((coop.threshold - 0.42).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn double_registration_panics() {
        let mut reg = PolicyRegistry::core();
        reg.register(PolicyEntry::new("ucp", &[], "dup", None, |_| {
            Box::new(UcpPolicy)
        }));
    }
}
