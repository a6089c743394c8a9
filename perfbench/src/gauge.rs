//! A fixed reference kernel that gauges how fast the host runs right now.
//!
//! The benchmark runs on shared hosts whose speed for this kind of code
//! drifts by tens of percent within a minute. The untraced unit samples
//! this kernel before and after every solo baseline and cell and scales
//! each piece's host time to the speed at which one pass of the kernel
//! takes [`NOMINAL_NS`]. The kernel is the benchmark's own code, so no
//! change to the simulator moves its cost; only the host does. It probes
//! a table far larger than a private cache at random and branches on what
//! it reads, like the simulator's cache models on their misses.

use std::hint::black_box;

use crate::clock::{self, ns_since};

/// Words in the probed table: 64 MiB, far more than a private cache, so
/// nearly every probe misses it whatever ran before.
const WORDS: usize = 1 << 23;

/// Probes per timed pass.
const PROBES: u64 = 20_000;

/// Timed passes per sample; their median counts, so an interrupt that
/// lands in one pass does not.
const PASSES: usize = 5;

/// Host nanoseconds one timed pass takes at the reference speed: 15 ns a
/// probe, roughly this kernel's speed on the 2-vCPU Xeon guest the
/// benchmark was first recorded on.
pub const NOMINAL_NS: f64 = 300_000.0;

/// Bytes the gauge keeps resident for the life of the unit.
pub const TABLE_BYTES: usize = WORDS * std::mem::size_of::<u64>();

/// The xorshift64 step both the table and the probes draw from.
fn step(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel, its table, where its probe stream is, and the
/// samples taken so far.
pub struct Gauge {
    table: Vec<u64>,
    state: u64,
    samples: Vec<u64>,
}

impl Gauge {
    /// Fills the table deterministically and takes the first sample.
    pub fn new() -> Gauge {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut gauge = Gauge {
            table: (0..WORDS).map(|_| step(&mut x)).collect(),
            state: 0x2545_F491_4F6C_DD1D,
            samples: Vec::new(),
        };
        gauge.sample();
        gauge
    }

    /// `ns` of host time that ended just before the latest sample, scaled
    /// to the reference speed by that sample.
    pub fn scale_before(&self, ns: u64) -> f64 {
        let last = self.last();
        scaled(ns, last, last)
    }

    /// `ns` of host time since the latest sample, scaled to the reference
    /// speed by that sample and one taken now.
    pub fn scale_since(&mut self, ns: u64) -> f64 {
        let before = self.last();
        scaled(ns, before, self.sample())
    }

    /// Median host nanoseconds of the samples so far (the upper one of an
    /// even count).
    pub fn median_ns(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted.get(sorted.len() / 2).map_or(0.0, |&v| v as f64)
    }

    fn last(&self) -> u64 {
        self.samples.last().copied().unwrap_or(NOMINAL_NS as u64)
    }

    /// Takes a sample: the median of [`PASSES`] timed passes.
    fn sample(&mut self) -> u64 {
        let mut passes: Vec<u64> = (0..PASSES).map(|_| self.pass()).collect();
        passes.sort_unstable();
        let ns = passes[PASSES / 2];
        self.samples.push(ns);
        ns
    }

    /// Host nanoseconds one timed pass takes now. Each pass probes slots
    /// the stream has not visited lately and branches on what it reads.
    fn pass(&mut self) -> u64 {
        let mut x = self.state;
        let mut acc = 0u64;
        let start = clock::now();
        for _ in 0..PROBES {
            let w = self.table[usize::try_from(step(&mut x) % WORDS as u64).unwrap_or(0)];
            if w & 1 == 0 {
                acc = acc.wrapping_add(w);
            } else {
                acc ^= w << 3;
            }
        }
        let ns = ns_since(start).max(1);
        black_box(acc);
        self.state = x;
        ns
    }
}

/// `ns` of host time spent between two samples, scaled to the reference
/// speed.
fn scaled(ns: u64, before: u64, after: u64) -> f64 {
    ns as f64 * 2.0 * NOMINAL_NS / (before + after) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_follows_the_gauge() {
        let nominal = NOMINAL_NS as u64;
        assert_eq!(scaled(1_000, nominal, nominal), 1_000.0);
        // The host ran at half the reference speed: half the time counts.
        assert_eq!(scaled(1_000, 2 * nominal, 2 * nominal), 500.0);
        assert_eq!(scaled(1_000, nominal, 3 * nominal), 500.0);
    }

    #[test]
    fn every_scaling_takes_a_sample() {
        let mut gauge = Gauge::new();
        assert!(gauge.scale_before(1_000) > 0.0);
        assert!(gauge.scale_since(1_000) > 0.0);
        assert_eq!(gauge.samples.len(), 2);
        assert!(gauge.median_ns() >= 1.0);
    }
}
