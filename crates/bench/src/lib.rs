//! Criterion bench crate — `benches/kernels.rs` times the simulator's
//! per-access and per-epoch kernels (the LLC hot path, allocation, UMON,
//! takeover, policy decisions and the DVFS/CBP minimizers). perfbench
//! times whole runs; `repro` renders the paper's tables and figures.
