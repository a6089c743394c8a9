//! Criterion bench crate — the benches in `benches/` time the simulator's
//! kernels (allocation, takeover, policy decisions, DVFS minimizers, the
//! LLC hot path and small whole-system runs). `repro` renders the paper's
//! tables and figures.
