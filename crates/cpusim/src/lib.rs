//! # cpusim — out-of-order-lite core model
//!
//! A trace-driven core model reproducing the performance-relevant behaviour
//! of the paper's Marss-x86 configuration (Table 2): 4-wide out-of-order
//! issue, 128-entry ROB, 48-entry LSQ, gshare + BTB with a 10-cycle minimum
//! misprediction penalty, private 32 kB 4-way L1 I/D caches with MSHRs.
//!
//! The model tracks per-instruction *completion times* through a ROB-shaped
//! window: independent cache misses overlap (memory-level parallelism is
//! bounded by the ROB, LSQ and MSHRs exactly as in hardware), dependent loads
//! serialize, mispredictions stall the front end. That coupling between LLC
//! hit rate and IPC is all the paper's evaluation needs from the core.
//!
//! Cores talk to the shared LLC through the [`LlcPort`] trait so the same
//! core drives any of the five partitioning schemes. The [`stepper`] module
//! drives a set of cores against that port: a per-cycle reference stepper
//! and a bit-identical event-driven wake-list scheduler.
//!
//! Per-core DVFS lives in [`clock`]: a [`VfTable`] of discrete V/f operating
//! points plus the [`CoreClock`] dilation that stretches a down-clocked
//! core's cycles over the nominal-frequency reference timeline (so DRAM
//! latency in core cycles shrinks as the clock slows, exactly as in
//! hardware).
//!
//! [`prefetch`] adds a throttleable next-line/stride L1-D prefetcher: a
//! per-epoch *degree* (0 = off) set through [`Core::set_prefetch_degree`]
//! controls how many lines each demand miss runs ahead; prefetch reads
//! reach the LLC through the distinct [`LlcPort::prefetch`] entry so the
//! shared cache can account and bandwidth-regulate them separately.

pub mod bpred;
pub mod clock;
pub mod core;
pub mod prefetch;
pub mod stepper;
pub mod trace;

pub use bpred::{BranchStats, Gshare};
pub use clock::{CoreClock, OperatingPoint, VfTable};
pub use core::{Core, CoreConfig, CoreStats, LlcPort, StepOutcome};
pub use prefetch::Prefetcher;
pub use stepper::{EpochControl, StepperKind, SystemStepper};
pub use trace::{Instr, InstrKind, InstrSource, PackedTrace, TraceError, TraceSource};
