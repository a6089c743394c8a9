//! String-keyed workload registry and the workload spec grammar.
//!
//! Mirrors the policy registry (`coop_core::registry`): experiments,
//! `repro`, `repro inspect` and the `SystemBuilder` name *what runs on the
//! cores* by spec string instead of passing benchmark enums around. A
//! spec resolves to a [`ResolvedWorkload`] — an ordered list of
//! [`WorkloadFactory`] handles, one per core — in one of three forms:
//!
//! * **a named group** — `"G2-1"`, `"G4-7"`, `"G8-3"` (Table 4 plus the
//!   8-core extension groups), case-insensitive;
//! * **an ad-hoc mix** — 1-8 comma-separated member names, e.g.
//!   `"soplex,namd,lbm,astar"` (each a registered benchmark or a
//!   `trace:` member);
//! * **a trace file** — `"trace:path/to/file.ctrace"` (binary or text,
//!   see `cpusim::trace`), loadable standalone or as a mix member.
//!
//! Unknown names resolve to a [`WorkloadError`] whose `Display` lists
//! every registered benchmark and group plus the spec grammar, so
//! binaries print actionable help instead of panicking.

use std::sync::Arc;

use simkit::DetRng;

use crate::groups::{eight_core_groups, four_core_groups, two_core_groups};
use crate::source::{SyntheticWorkload, TraceWorkload, WorkloadFactory};
use crate::spec::Benchmark;

/// Most cores a workload may occupy (the takeover bit-vector and
/// permission-file structures stop at 8).
pub const MAX_CORES: usize = 8;

/// Spec prefix selecting a trace-file member.
pub const TRACE_PREFIX: &str = "trace:";

/// A fully resolved workload: one factory per core, plus the label the
/// run reports (group name, normalized mix, or trace spec).
#[derive(Clone)]
pub struct ResolvedWorkload {
    /// Display/reporting label (e.g. `"G2-1"` or `"soplex,namd"`).
    pub label: String,
    /// One factory per core (index = core id).
    pub members: Vec<Arc<dyn WorkloadFactory>>,
}

impl ResolvedWorkload {
    /// A single-member workload.
    pub fn single(member: Arc<dyn WorkloadFactory>) -> ResolvedWorkload {
        ResolvedWorkload {
            label: member.name().to_string(),
            members: vec![member],
        }
    }

    /// Wraps a benchmark list directly (labels as the comma-joined
    /// names, like the equivalent mix spec).
    ///
    /// # Panics
    ///
    /// Panics on an empty list or more than [`MAX_CORES`] members.
    pub fn from_benchmarks(benchmarks: &[Benchmark]) -> ResolvedWorkload {
        assert!(
            (1..=MAX_CORES).contains(&benchmarks.len()),
            "workloads occupy 1-{MAX_CORES} cores, got {}",
            benchmarks.len()
        );
        ResolvedWorkload {
            label: benchmarks
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join(","),
            members: benchmarks
                .iter()
                .map(|&b| Arc::new(SyntheticWorkload::new(b)) as Arc<dyn WorkloadFactory>)
                .collect(),
        }
    }

    /// Number of cores this workload occupies.
    pub fn cores(&self) -> usize {
        self.members.len()
    }

    /// Member names in core order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.iter().map(|m| m.name()).collect()
    }
}

impl std::fmt::Debug for ResolvedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedWorkload")
            .field("label", &self.label)
            .field("members", &self.member_names())
            .finish()
    }
}

impl std::fmt::Display for ResolvedWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.label, self.member_names().join(", "))
    }
}

/// A spec that failed to resolve; `Display` explains and lists what
/// would have worked.
#[derive(Debug, Clone)]
pub enum WorkloadError {
    /// A member name matched neither a registered factory nor `trace:`.
    Unknown {
        /// The name the caller asked for.
        requested: String,
        /// Registered per-core workload names.
        benchmarks: Vec<String>,
        /// Registered group names.
        groups: Vec<String>,
    },
    /// A trace member failed to load or parse.
    Trace {
        /// The path inside the `trace:` member.
        path: String,
        /// The underlying parse/IO error.
        error: cpusim::TraceError,
    },
    /// A mix spec contains an empty member (e.g. a stray double comma).
    EmptyMember {
        /// The offending spec.
        spec: String,
    },
    /// The mix has no members or more than [`MAX_CORES`].
    Arity {
        /// The offending spec.
        spec: String,
        /// Member count found.
        members: usize,
    },
    /// The spec was empty.
    Empty,
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Unknown {
                requested,
                benchmarks,
                groups,
            } => write!(
                f,
                "unknown workload '{requested}'; valid specs are a group ({}), \
                 an ad-hoc mix of 1-{MAX_CORES} benchmarks ({}), or a trace file \
                 ('{TRACE_PREFIX}path/to/file.ctrace')",
                groups.join(", "),
                benchmarks.join(", "),
            ),
            WorkloadError::Trace { path, error } => {
                write!(f, "workload trace '{path}': {error}")
            }
            WorkloadError::EmptyMember { spec } => write!(
                f,
                "workload '{spec}' has an empty member; remove the stray comma"
            ),
            WorkloadError::Arity { spec, members } => write!(
                f,
                "workload '{spec}' has {members} members; systems run 1-{MAX_CORES} cores"
            ),
            WorkloadError::Empty => write!(f, "empty workload spec"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A registered named group: members are resolved lazily by name, so a
/// group may (in principle) mix benchmarks and traces.
#[derive(Debug, Clone)]
struct GroupEntry {
    name: String,
    members: Vec<String>,
}

/// The registry: per-core workload factories plus named groups.
#[derive(Default)]
pub struct WorkloadRegistry {
    factories: Vec<Arc<dyn WorkloadFactory>>,
    groups: Vec<GroupEntry>,
}

impl std::fmt::Debug for WorkloadRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkloadRegistry")
            .field("benchmarks", &self.benchmark_names())
            .field("groups", &self.group_names())
            .finish()
    }
}

impl WorkloadRegistry {
    /// An empty registry.
    pub fn empty() -> WorkloadRegistry {
        WorkloadRegistry::default()
    }

    /// The standard registry: the 19 synthetic benchmark models plus the
    /// paper's Table 4 groups (G2-1..G2-14, G4-1..G4-14) and the 8-core
    /// extension groups (G8-1..G8-6).
    pub fn standard() -> WorkloadRegistry {
        let mut reg = WorkloadRegistry::empty();
        for b in Benchmark::ALL {
            reg.register(Arc::new(SyntheticWorkload::new(b)));
        }
        for g in two_core_groups()
            .into_iter()
            .chain(four_core_groups())
            .chain(eight_core_groups())
        {
            reg.register_group(
                &g.name,
                g.benchmarks.iter().map(|b| b.name().to_string()).collect(),
            );
        }
        reg
    }

    /// Adds a per-core workload factory.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken (by a factory or a group).
    pub fn register(&mut self, factory: Arc<dyn WorkloadFactory>) {
        self.assert_free(factory.name());
        self.factories.push(factory);
    }

    /// Adds a named group over registered member names.
    ///
    /// # Panics
    ///
    /// Panics if the name is taken or the member count is outside
    /// 1..=[`MAX_CORES`]. Member names themselves are validated at
    /// resolve time.
    pub fn register_group(&mut self, name: &str, members: Vec<String>) {
        self.assert_free(name);
        assert!(
            (1..=MAX_CORES).contains(&members.len()),
            "group '{name}' has {} members; systems run 1-{MAX_CORES} cores",
            members.len()
        );
        self.groups.push(GroupEntry {
            name: name.to_string(),
            members,
        });
    }

    fn assert_free(&self, name: &str) {
        assert!(
            self.factory(name).is_none() && self.group(name).is_none(),
            "workload name '{name}' registered twice"
        );
    }

    /// The factory registered under `name` (case-insensitive).
    pub fn factory(&self, name: &str) -> Option<&Arc<dyn WorkloadFactory>> {
        self.factories
            .iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }

    fn group(&self, name: &str) -> Option<&GroupEntry> {
        self.groups
            .iter()
            .find(|g| g.name.eq_ignore_ascii_case(name))
    }

    /// Canonicalizes a group name (case-insensitive), for callers that
    /// validate names without resolving members (e.g. sweep filters).
    pub fn canonical_group(&self, name: &str) -> Option<String> {
        self.group(name).map(|g| g.name.clone())
    }

    /// Registered per-core workload names, in registration order.
    pub fn benchmark_names(&self) -> Vec<String> {
        self.factories
            .iter()
            .map(|f| f.name().to_string())
            .collect()
    }

    /// Registered group names, in registration order.
    pub fn group_names(&self) -> Vec<String> {
        self.groups.iter().map(|g| g.name.clone()).collect()
    }

    /// Group names starting with `prefix` (e.g. `"G2-"`), in
    /// registration order.
    pub fn groups_with_prefix(&self, prefix: &str) -> Vec<String> {
        self.groups
            .iter()
            .filter(|g| g.name.starts_with(prefix))
            .map(|g| g.name.clone())
            .collect()
    }

    /// Samples a random 1-[`MAX_CORES`]-core ad-hoc mix spec from the
    /// registered benchmarks: arity uniform in `1..=max_cores`, members
    /// drawn without replacement while benchmarks remain (falling back to
    /// replacement for arities beyond the registry size). The spec
    /// re-resolves through [`WorkloadRegistry::resolve`], so a seeded
    /// [`DetRng`] reproduces the exact same mixes on every host — the
    /// foundation of the Monte Carlo sweep mode.
    ///
    /// # Panics
    ///
    /// Panics when no benchmarks are registered or `max_cores` is 0 or
    /// exceeds [`MAX_CORES`].
    pub fn sample_mix(&self, rng: &mut DetRng, max_cores: usize) -> String {
        assert!(
            (1..=MAX_CORES).contains(&max_cores),
            "mix arity must be 1-{MAX_CORES}, got {max_cores}"
        );
        let names = self.benchmark_names();
        assert!(!names.is_empty(), "cannot sample from an empty registry");
        let arity = 1 + rng.index(max_cores);
        let mut pool = names.clone();
        let mut members = Vec::with_capacity(arity);
        for _ in 0..arity {
            if pool.is_empty() {
                pool = names.clone();
            }
            members.push(pool.swap_remove(rng.index(pool.len())));
        }
        members.join(",")
    }

    /// Resolves one member name: a registered factory or a `trace:` path
    /// (loaded and packed on the spot).
    pub fn member(&self, name: &str) -> Result<Arc<dyn WorkloadFactory>, WorkloadError> {
        if let Some(path) = name.strip_prefix(TRACE_PREFIX) {
            let trace = cpusim::trace::load_trace(std::path::Path::new(path)).map_err(|e| {
                WorkloadError::Trace {
                    path: path.to_string(),
                    error: e,
                }
            })?;
            return Ok(Arc::new(TraceWorkload::packed(
                format!("{TRACE_PREFIX}{path}"),
                trace,
            )));
        }
        self.factory(name)
            .cloned()
            .ok_or_else(|| WorkloadError::Unknown {
                requested: name.to_string(),
                benchmarks: self.benchmark_names(),
                groups: self.group_names(),
            })
    }

    /// Resolves a workload spec (see the module docs for the grammar).
    ///
    /// Repeated members within one spec (e.g. the same `trace:` file on
    /// several cores) share one factory — and thus one parsed record
    /// sequence — instead of re-loading per core.
    pub fn resolve(&self, spec: &str) -> Result<ResolvedWorkload, WorkloadError> {
        let mut loaded: std::collections::BTreeMap<String, Arc<dyn WorkloadFactory>> =
            std::collections::BTreeMap::new();
        let mut member = |name: &str| -> Result<Arc<dyn WorkloadFactory>, WorkloadError> {
            if let Some(hit) = loaded.get(name) {
                return Ok(Arc::clone(hit));
            }
            let factory = self.member(name)?;
            loaded.insert(name.to_string(), Arc::clone(&factory));
            Ok(factory)
        };
        let spec = spec.trim();
        if spec.is_empty() {
            return Err(WorkloadError::Empty);
        }
        if let Some(g) = self.group(spec) {
            let members = g
                .members
                .iter()
                .map(|m| member(m))
                .collect::<Result<Vec<_>, _>>()?;
            return Ok(ResolvedWorkload {
                label: g.name.clone(),
                members,
            });
        }
        let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
        if parts.iter().all(|p| p.is_empty()) {
            return Err(WorkloadError::Empty);
        }
        // An empty segment between real members is a typo, not a request
        // for fewer cores — silently dropping it would shrink the system.
        if parts.iter().any(|p| p.is_empty()) {
            return Err(WorkloadError::EmptyMember {
                spec: spec.to_string(),
            });
        }
        if parts.len() > MAX_CORES {
            return Err(WorkloadError::Arity {
                spec: spec.to_string(),
                members: parts.len(),
            });
        }
        let members = parts
            .iter()
            .map(|p| member(p))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ResolvedWorkload {
            label: members
                .iter()
                .map(|m| m.name())
                .collect::<Vec<_>>()
                .join(","),
            members,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_covers_models_and_groups() {
        let reg = WorkloadRegistry::standard();
        assert_eq!(reg.benchmark_names().len(), 19);
        assert_eq!(reg.group_names().len(), 14 + 14 + 6);
        assert_eq!(reg.groups_with_prefix("G2-").len(), 14);
        assert_eq!(reg.groups_with_prefix("G4-").len(), 14);
        assert_eq!(reg.groups_with_prefix("G8-").len(), 6);
    }

    #[test]
    fn sampled_mixes_are_deterministic_and_resolvable() {
        let reg = WorkloadRegistry::standard();
        let mut a = DetRng::from_seed(7);
        let mut b = DetRng::from_seed(7);
        for _ in 0..32 {
            let spec = reg.sample_mix(&mut a, MAX_CORES);
            assert_eq!(spec, reg.sample_mix(&mut b, MAX_CORES), "seeded replay");
            let wl = reg.resolve(&spec).expect("sampled specs resolve");
            assert!((1..=MAX_CORES).contains(&wl.cores()));
            // Arity ≤ registry size → sampled without replacement.
            let mut names = wl.member_names();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), wl.cores(), "no duplicate members in {spec}");
        }
        let mut c = DetRng::from_seed(8);
        let differs = (0..8).any(|_| {
            reg.sample_mix(&mut c, MAX_CORES)
                != reg.sample_mix(&mut DetRng::from_seed(7), MAX_CORES)
        });
        assert!(differs, "different seeds explore different mixes");
    }

    #[test]
    fn named_groups_resolve_in_table_order() {
        let reg = WorkloadRegistry::standard();
        let g = reg.resolve("G2-1").expect("registered");
        assert_eq!(g.label, "G2-1");
        assert_eq!(g.member_names(), vec!["soplex", "namd"]);
        let g8 = reg.resolve("g8-1").expect("case-insensitive");
        assert_eq!(g8.cores(), 8);
    }

    #[test]
    fn ad_hoc_mixes_resolve_with_normalized_labels() {
        let reg = WorkloadRegistry::standard();
        let mix = reg.resolve(" Soplex , namd ,lbm,astar ").expect("mix");
        assert_eq!(mix.label, "soplex,namd,lbm,astar");
        assert_eq!(mix.cores(), 4);
        let solo = reg.resolve("mcf").expect("single-name mix");
        assert_eq!(solo.cores(), 1);
    }

    #[test]
    fn unknown_names_list_the_registered_specs() {
        let reg = WorkloadRegistry::standard();
        let err = reg.resolve("nope").expect_err("unknown");
        let msg = err.to_string();
        assert!(msg.contains("nope"), "{msg}");
        assert!(msg.contains("G2-1") && msg.contains("G8-6"), "{msg}");
        assert!(msg.contains("soplex") && msg.contains("trace:"), "{msg}");
    }

    #[test]
    fn arity_and_empty_specs_are_rejected() {
        let reg = WorkloadRegistry::standard();
        assert!(matches!(reg.resolve(""), Err(WorkloadError::Empty)));
        assert!(matches!(reg.resolve(" , ,"), Err(WorkloadError::Empty)));
        let nine = ["namd"; 9].join(",");
        assert!(matches!(
            reg.resolve(&nine),
            Err(WorkloadError::Arity { members: 9, .. })
        ));
    }

    #[test]
    fn empty_mix_members_are_typos_not_fewer_cores() {
        // "lbm,,namd" must not silently become a 2-core system.
        let reg = WorkloadRegistry::standard();
        for spec in ["lbm,,namd", "lbm,namd,", ",lbm,namd"] {
            let err = reg.resolve(spec).expect_err(spec);
            assert!(matches!(err, WorkloadError::EmptyMember { .. }), "{spec}");
            assert!(err.to_string().contains("stray comma"), "{spec}");
        }
    }

    #[test]
    fn missing_trace_files_surface_the_io_error() {
        let reg = WorkloadRegistry::standard();
        let err = reg.resolve("trace:/no/such/file.ctrace").expect_err("io");
        assert!(matches!(err, WorkloadError::Trace { .. }));
        assert!(err.to_string().contains("/no/such/file.ctrace"));
    }

    #[test]
    fn trace_members_join_mixes() {
        let dir = std::env::temp_dir().join("workloads-registry-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("mini.ctrace");
        std::fs::write(&path, "L 0x400 0x1000\nA 0x404\n").expect("write");
        let reg = WorkloadRegistry::standard();
        let spec = format!("namd,trace:{}", path.display());
        let w = reg.resolve(&spec).expect("mix with trace");
        assert_eq!(w.cores(), 2);
        assert_eq!(w.member_names()[0], "namd");
        assert!(w.member_names()[1].starts_with("trace:"));
        let mut src = w.members[1].source(0);
        assert_eq!(src.next_instr().addr(), 0x1000);
    }

    #[test]
    fn repeated_trace_members_share_one_factory() {
        let dir = std::env::temp_dir().join("workloads-registry-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("shared.ctrace");
        std::fs::write(&path, "L 0x400 0x1000\n").expect("write");
        let reg = WorkloadRegistry::standard();
        let spec = format!("trace:{p},namd,trace:{p}", p = path.display());
        let w = reg.resolve(&spec).expect("mix with repeated trace");
        assert_eq!(w.cores(), 3);
        assert!(
            Arc::ptr_eq(&w.members[0], &w.members[2]),
            "one load, one parsed record sequence"
        );
    }

    #[test]
    #[should_panic]
    fn double_registration_panics() {
        let mut reg = WorkloadRegistry::standard();
        reg.register_group("G2-1", vec!["namd".to_string()]);
    }

    #[test]
    fn from_benchmarks_matches_registry_resolution() {
        let reg = WorkloadRegistry::standard();
        let via_reg = reg.resolve("soplex,namd").expect("mix");
        let direct = ResolvedWorkload::from_benchmarks(&[Benchmark::Soplex, Benchmark::Namd]);
        assert_eq!(via_reg.label, direct.label);
        assert_eq!(via_reg.member_names(), direct.member_names());
    }
}
