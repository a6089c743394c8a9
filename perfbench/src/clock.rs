//! The benchmark's single host-clock read.
//!
//! Host time is what this benchmark measures, so it is read here and
//! nowhere else in the benchmark. Simulated time comes from the
//! simulator's cycle counters and never from this clock.

use std::time::Instant;

/// The current host instant.
#[allow(clippy::disallowed_methods)] // host time is the quantity under measurement
pub fn now() -> Instant {
    // simlint: allow(wall-clock) -- host time is the benchmark's measurement; it never reaches simulated state
    Instant::now()
}

/// Host nanoseconds since `start`, saturating at `u64::MAX`.
pub fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}
