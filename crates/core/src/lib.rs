//! # coop-core — Cooperative Partitioning
//!
//! The primary contribution of *"Cooperative Partitioning: Energy-Efficient
//! Cache Partitioning for High-Performance CMPs"* (HPCA 2012), plus the four
//! comparison schemes it is evaluated against:
//!
//! | Scheme | Allocation | Enforcement | Dynamic savings | Static savings |
//! |---|---|---|---|---|
//! | Unmanaged | none | none (global LRU) | no (probes all ways) | no |
//! | Fair Share | static equal | way masks | yes (own ways only) | no |
//! | Dynamic CPE | per-epoch, profile-driven | immediate flush + way masks | yes | yes |
//! | UCP | per-epoch, UMON look-ahead | replacement quotas (lazy) | no | no |
//! | **Cooperative** | per-epoch, UMON look-ahead **+ threshold** | RAP/WAP + cooperative takeover | **yes** | **yes** |
//!
//! The crate separates *policy* from *mechanism*:
//!
//! * [`policy::PartitionPolicy`] — epoch-driven allocation policies (the
//!   five schemes above, plus `coop-dvfs`'s coordinated controller), each
//!   owning its decision state and declaring which
//!   [`EnforcementMode`] it drives;
//! * [`registry::PolicyRegistry`] — string-keyed policy lookup for the
//!   binaries and the experiment matrix;
//! * [`PartitionedLlc`] — the shared L2 as a pure enforcement mechanism
//!   (masks, takeover, gating, victim selection), scheme-agnostic;
//! * [`UtilityMonitor`] — UCP-style sampled shadow-tag utility monitor;
//! * [`lookahead::allocate`] — the look-ahead algorithm with the paper's
//!   takeover threshold (Algorithm 1);
//! * [`PermissionFile`] — RAP/WAP registers (Algorithm 2, Figure 3);
//! * [`takeover`] — takeover bit vectors and the cooperative-takeover
//!   transition protocol (Figure 4);
//! * [`overhead`] — Table 1 hardware-cost accounting.
//!
//! ```
//! use coop_core::{LlcConfig, PartitionedLlc, PolicyRegistry, PolicySpec, SchemeKind};
//! use memsim::{Dram, DramConfig};
//! use simkit::types::{CoreId, Cycle, LineAddr};
//!
//! let cfg = LlcConfig::two_core(SchemeKind::Cooperative);
//! let mut policy = PolicyRegistry::core()
//!     .build("cooperative", &PolicySpec::for_llc(&cfg, 2))
//!     .unwrap();
//! let mut llc = PartitionedLlc::for_policy(cfg, 2, policy.as_ref());
//! let mut dram = Dram::new(DramConfig::default());
//! let line = LineAddr::from_byte_addr(CoreId(0), 0x4000, 64);
//! let done = llc.access(Cycle(0), CoreId(0), line, false, &mut dram);
//! assert!(done > Cycle(0));
//!
//! // Close an epoch: observe, let the policy decide, apply the decision.
//! let obs = llc.epoch_observations(done, vec![]);
//! let decision = policy.on_epoch(&obs);
//! llc.apply_decision(done, &mut dram, &decision);
//! ```

pub mod config;
pub mod cpe;
pub mod curve;
pub mod llc;
pub mod lookahead;
pub mod overhead;
pub mod policy;
pub mod power;
pub mod rapwap;
pub mod registry;
pub mod stats;
pub mod takeover;
pub mod ucp;
pub mod umon;

pub use config::{EnforcementMode, LlcConfig, SchemeKind};
pub use curve::MissCurve;
pub use llc::PartitionedLlc;
pub use lookahead::{allocate, Allocation};
pub use overhead::HardwareOverhead;
pub use policy::{AllocationDecision, EpochObservations, PartitionPolicy, ResourceHints};
pub use rapwap::PermissionFile;
pub use registry::{PolicyEntry, PolicyRegistry, PolicySpec, UnknownPolicy, PAPER_POLICIES};
pub use stats::LlcStats;
pub use takeover::TakeoverEventKind;
pub use umon::UtilityMonitor;
