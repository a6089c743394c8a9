//! # memsim — memory substrate
//!
//! The raw memory-system building blocks the Cooperative Partitioning
//! reproduction is assembled from:
//!
//! * [`addr::CacheGeometry`] — size/ways/line-size arithmetic (set index,
//!   tag, bank mapping);
//! * [`set::CacheSet`] — one set of a set-associative cache with true-LRU
//!   replacement metadata, per-line owner/dirty state and *masked* lookup
//!   (the primitive the partitioned LLC's RAP/WAP-restricted probes build
//!   on); kept as the readable *reference* implementation;
//! * [`arena::SetArena`] — the same semantics flattened into contiguous
//!   structure-of-arrays slabs (tag slab, packed metadata bytes, per-set
//!   validity bitmasks, nibble-packed LRU order words) — the storage the
//!   LLC's hot paths actually run on;
//! * [`cache::Cache`] — a plain set-associative write-back cache used for the
//!   private L1 instruction/data caches, with its own one-record-per-set
//!   layout (at most 4 ways; see the module docs for why);
//! * [`mshr::MshrFile`] — miss-status holding registers with merging;
//! * [`dram::Dram`] — banked main memory with per-bank occupancy, a bounded
//!   outstanding-request window and queueing-delay accounting;
//! * [`bandwidth::BandwidthRegulator`] — a per-core token-bucket stage in
//!   front of the DRAM that delays over-budget line transfers by whole
//!   cycles, enforcing fractional bandwidth shares deterministically.
//!
//! Timing follows a synchronous latency-return style: components are asked
//! for an access at cycle *t* and answer with the completion cycle, keeping
//! the hot simulation loop free of event-queue overhead.

pub mod addr;
pub mod arena;
pub mod bandwidth;
pub mod cache;
pub mod dram;
pub mod mshr;
pub mod set;

pub use addr::CacheGeometry;
pub use arena::SetArena;
pub use bandwidth::{BandwidthConfig, BandwidthRegulator, CoreBandwidthStats};
pub use cache::{Cache, CacheStats};
pub use dram::{Dram, DramConfig, DramStats};
pub use mshr::MshrFile;
pub use set::{CacheSet, LineState, WayMask};
