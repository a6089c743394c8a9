//! Strongly-typed identifiers and time units used across the simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// `Cycle` is an absolute timestamp; durations are plain `u64`s added to or
/// subtracted from it. The simulator never wraps: `u64` cycles at a few GHz
/// last for centuries of simulated time.
///
/// ```
/// use simkit::types::Cycle;
/// let t = Cycle(40) + 2;
/// assert_eq!(t, Cycle(42));
/// assert_eq!(t - Cycle(40), 2);
/// assert_eq!(t.max(Cycle(100)), Cycle(100));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero timestamp (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// Raw cycle count.
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Saturating difference `self - earlier` as a duration in cycles.
    ///
    /// Returns `0` if `earlier` is later than `self`, which makes interval
    /// accounting robust against re-ordered bookkeeping.
    #[inline]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    #[inline]
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Cycle) -> u64 {
        debug_assert!(self.0 >= rhs.0, "cycle subtraction underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Identifier of a processor core in the simulated CMP.
///
/// The paper evaluates two- and four-core systems; the implementation is
/// generic over the core count (bounded by [`MAX_CORES`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u8);

/// Maximum number of cores supported by fixed-width bit masks (RAP/WAP
/// registers and per-line owner fields use `u8` masks).
pub const MAX_CORES: usize = 8;

impl CoreId {
    /// The core id as a `usize` index into per-core arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// One-hot bit mask for this core (bit `i` set for core `i`).
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the id exceeds [`MAX_CORES`].
    #[inline]
    pub fn bit(self) -> u8 {
        debug_assert!((self.0 as usize) < MAX_CORES);
        1u8 << self.0
    }

    /// Iterator over the first `n` core ids.
    pub fn all(n: usize) -> impl Iterator<Item = CoreId> {
        (0..n as u8).map(CoreId)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A 64-byte cache-line address (byte address divided by the line size).
///
/// Line addresses carry the owning core's id in their top byte so that the
/// private address spaces of multiprogrammed workloads never collide in the
/// shared LLC, mirroring how distinct processes map to distinct physical
/// pages on real hardware.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Builds a line address from a core-local byte address.
    ///
    /// The core id occupies bits 56..63 of the line address, far above any
    /// realistic working-set footprint.
    #[inline]
    pub fn from_byte_addr(core: CoreId, byte_addr: u64, line_bytes: u64) -> LineAddr {
        debug_assert!(line_bytes.is_power_of_two());
        // `line_bytes` is a power of two but not a compile-time constant, so
        // spell the division as a shift — this runs on every cache access.
        let line = byte_addr >> line_bytes.trailing_zeros();
        LineAddr(line | ((core.0 as u64) << 56))
    }

    /// Raw line-address value (includes the core-id tag bits).
    #[inline]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// The core that owns this address (from the embedded id bits).
    #[inline]
    pub fn home_core(self) -> CoreId {
        CoreId((self.0 >> 56) as u8)
    }
}

impl fmt::Display for LineAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_arithmetic() {
        let t = Cycle(10);
        assert_eq!(t + 5, Cycle(15));
        assert_eq!(Cycle(15) - t, 5);
        assert_eq!(t.since(Cycle(3)), 7);
        assert_eq!(Cycle(3).since(t), 0, "since saturates");
        let mut u = Cycle(1);
        u += 9;
        assert_eq!(u, Cycle(10));
    }

    #[test]
    fn cycle_ordering_and_display() {
        assert!(Cycle(1) < Cycle(2));
        assert_eq!(Cycle::ZERO, Cycle(0));
        assert_eq!(Cycle(42).to_string(), "42");
    }

    #[test]
    fn core_id_bits_are_one_hot() {
        assert_eq!(CoreId(0).bit(), 0b0001);
        assert_eq!(CoreId(3).bit(), 0b1000);
        let ids: Vec<_> = CoreId::all(4).collect();
        assert_eq!(ids, vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]);
        assert_eq!(CoreId(2).to_string(), "core2");
    }

    #[test]
    fn line_addr_embeds_core_id() {
        let a = LineAddr::from_byte_addr(CoreId(1), 0x1000, 64);
        let b = LineAddr::from_byte_addr(CoreId(2), 0x1000, 64);
        assert_ne!(a, b, "same byte address on different cores must differ");
        assert_eq!(a.home_core(), CoreId(1));
        assert_eq!(b.home_core(), CoreId(2));
        // Low bits are the line number.
        assert_eq!(a.raw() & 0xFFFF_FFFF, 0x1000 / 64);
    }

    #[test]
    fn line_addr_distinct_lines() {
        let a = LineAddr::from_byte_addr(CoreId(0), 0, 64);
        let b = LineAddr::from_byte_addr(CoreId(0), 63, 64);
        let c = LineAddr::from_byte_addr(CoreId(0), 64, 64);
        assert_eq!(a, b, "same 64B line");
        assert_ne!(a, c, "next line differs");
    }
}
