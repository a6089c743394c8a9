//! # workloads — SPEC CPU2006-like synthetic benchmark models
//!
//! The paper evaluates on the 19 C/C++ SPEC CPU2006 benchmarks (Table 3
//! classifies them by LLC misses-per-kilo-instruction; Table 4 combines them
//! into 14 two-core and 14 four-core groups). SPEC binaries and reference
//! inputs are not available in this environment, so each benchmark is
//! replaced by a *generative model* ([`BenchmarkModel`]) that reproduces the
//! properties the paper's evaluation actually depends on:
//!
//! * the solo LLC **MPKI level** (calibrated against Table 3 and re-measured
//!   by the Table 3 reproduction),
//! * the shape of the LLC **utility curve** — streaming components gain
//!   nothing from extra ways, random working-set components gain gradually,
//!   cyclic loops cliff at their footprint, pointer chases serialize misses,
//! * **phase behaviour** — astar/bzip2/gcc/povray periodically change their
//!   cache appetite, which is what forces frequent repartitioning in the
//!   paper's analysis (Section 4.1),
//! * instruction mix, code footprint (L1-I pressure) and branch
//!   predictability.
//!
//! [`generator::SyntheticSource`] turns a model into an infinite
//! deterministic instruction stream implementing `cpusim::InstrSource`.
//!
//! Beyond the synthetic models, the crate hosts the *workload API*: every
//! runnable workload — synthetic model or `.ctrace` trace file — is a
//! named [`WorkloadFactory`] ([`source`]), and a string-keyed
//! [`WorkloadRegistry`] ([`registry`]) resolves workload specs
//! (`"G2-1"`, `"soplex,namd,lbm,astar"`, `"trace:path/file.ctrace"`) to a
//! [`ResolvedWorkload`] with one factory per core.

pub mod classify;
pub mod generator;
pub mod groups;
pub mod model;
pub mod registry;
pub mod source;
pub mod spec;

pub use classify::{classify_mpki, MpkiClass};
pub use generator::SyntheticSource;
pub use groups::{eight_core_groups, four_core_groups, two_core_groups, WorkloadGroup};
pub use model::{BenchmarkModel, Component, Pattern, Phase};
pub use registry::{ResolvedWorkload, WorkloadError, WorkloadRegistry, MAX_CORES, TRACE_PREFIX};
pub use source::{StreamSource, SyntheticWorkload, TraceWorkload, WorkloadFactory, WorkloadSource};
pub use spec::Benchmark;
