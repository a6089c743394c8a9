//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (reference-stream generators,
//! random way selection in Algorithm 2, branch outcome synthesis) draws from a
//! [`DetRng`] stream derived from a root seed and a stable string label, so
//! that adding a new consumer of randomness never perturbs existing streams
//! and whole experiments replay bit-identically.

/// A deterministic random-number generator stream.
///
/// xoshiro256++ (Blackman & Vigna) over four 64-bit state words, expanded
/// from a 64-bit seed by SplitMix64, with stable, label-based derivation:
/// `DetRng::derive(seed, "umon")` always yields the same stream for the same
/// `seed`, independent of any other stream in the program.
///
/// ```
/// use simkit::DetRng;
/// let mut a = DetRng::derive(7, "stream-a");
/// let mut b = DetRng::derive(7, "stream-a");
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a stream directly from a 64-bit seed.
    pub fn from_seed(seed: u64) -> DetRng {
        let mut sm = seed;
        let mut splitmix64 = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        DetRng {
            s: [splitmix64(), splitmix64(), splitmix64(), splitmix64()],
        }
    }

    /// Derives an independent stream from a root seed and a stable label.
    ///
    /// The label is hashed with FNV-1a, so renaming a label changes only that
    /// stream.
    pub fn derive(root_seed: u64, label: &str) -> DetRng {
        DetRng::from_seed(root_seed ^ fnv1a(label.as_bytes()))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Callers drawing repeatedly from one bound should keep a
    /// [`UniformBelow`] instead, which hoists the set-up divisions.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        UniformBelow::new(bound).sample(self)
    }

    /// Uniform `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[inline]
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits of one raw draw, scaled
    /// by 2^-53.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A precomputed uniform draw over `[0, span)`.
///
/// Draws a raw 64-bit value, rejects it above `zone` (the largest multiple
/// of `span`, minus one) so every residue is equally likely, and reduces
/// the rest modulo `span`: with a mask for powers of two, otherwise with a
/// multiply by the precomputed reciprocal `u64::MAX / span` and one
/// branch-free correction. It draws the same values, and consumes the same
/// stream, as the plain reject-then-`%` loop, minus the per-draw divisions.
///
/// ```
/// use simkit::rng::{DetRng, UniformBelow};
/// let die = UniformBelow::new(6);
/// let mut r = DetRng::from_seed(1);
/// assert!(die.sample(&mut r) < 6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformBelow {
    span: u64,
    zone: u64,
    /// `u64::MAX / span`; unused (0) when `span` is a power of two.
    reciprocal: u64,
}

impl UniformBelow {
    /// Precomputes the draw for `[0, span)`.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    #[inline]
    pub fn new(span: u64) -> UniformBelow {
        assert!(span > 0, "below(0) is meaningless");
        UniformBelow {
            span,
            zone: u64::MAX - (u64::MAX - span + 1) % span,
            reciprocal: if span.is_power_of_two() {
                0
            } else {
                u64::MAX / span
            },
        }
    }

    /// One uniform draw from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        loop {
            let v = rng.next_u64();
            if v <= self.zone {
                return self.reduce(v);
            }
        }
    }

    /// `v % span`. With `r = ⌊(2^64 - 1) / span⌋`, `2^64 - span·r` is at
    /// most `span`, so `v·r / 2^64` is within `v / 2^64 < 1` of
    /// `v / span`: the quotient estimate `⌊v·r / 2^64⌋` falls short by at
    /// most one, and one branch-free subtraction of `span` corrects it.
    #[inline]
    fn reduce(&self, v: u64) -> u64 {
        if self.reciprocal == 0 {
            return v & (self.span - 1);
        }
        let q = ((v as u128 * self.reciprocal as u128) >> 64) as u64;
        let rem = v - q * self.span;
        rem - self.span * (rem >= self.span) as u64
    }
}

/// A precomputed weighted index draw over non-negative weights.
///
/// The total is summed once, in index order. A draw scales a unit draw by
/// it and walks the weights subtracting each in order, exactly like the
/// classic subtract loop (so the floats round identically), but without an
/// early exit: it returns the lowest index whose weight exceeds the running
/// remainder, or the last index if rounding leaves none.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Precomputes the draw for `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: Vec<f64>) -> WeightedIndex {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "WeightedIndex requires positive total weight"
        );
        WeightedIndex { weights, total }
    }

    /// One weighted draw from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let mut x = rng.unit() * self.total;
        let mut pick = self.weights.len() - 1;
        let mut found = false;
        for (i, &w) in self.weights.iter().enumerate() {
            let hit = !found & (x < w);
            pick = if hit { i } else { pick };
            found |= hit;
            x -= w;
        }
        pick
    }
}

/// FNV-1a, the workspace's stable string hash: label-based stream
/// derivation here, and the fleet's cell IDs and content checksums.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs of xoshiro256++ with SplitMix64-expanded seeds, as
        // an independent implementation of the published algorithms gives.
        let mut a = DetRng::from_seed(0);
        assert_eq!(a.next_u64(), 0x53175d61490b23df);
        assert_eq!(a.next_u64(), 0x61da6f3dc380d507);
        assert_eq!(a.next_u64(), 0x5c0fdf91ec9a7bfc);
        let mut b = DetRng::from_seed(42);
        assert_eq!(b.next_u64(), 0xd0764d4f4476689f);
        assert_eq!(b.next_u64(), 0x519e4174576f3791);
        assert_eq!(b.next_u64(), 0xfbe07cfb0c24ed8c);
    }

    #[test]
    fn derive_is_deterministic_and_label_sensitive() {
        let mut a = DetRng::derive(42, "x");
        let mut b = DetRng::derive(42, "x");
        let mut c = DetRng::derive(42, "y");
        let (va, vb, vc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::from_seed(1);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::from_seed(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = DetRng::from_seed(3);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = DetRng::from_seed(4);
        let w = WeightedIndex::new(vec![1.0, 0.0, 3.0]);
        let mut counts = [0usize; 3];
        for _ in 0..10_000 {
            counts[w.sample(&mut r)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 2);
    }

    #[test]
    #[should_panic]
    fn weighted_index_rejects_zero_total() {
        WeightedIndex::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn uniform_below_rejects_zero_span() {
        UniformBelow::new(0);
    }

    /// The subtract-loop weighted draw the branch-free one replaced.
    fn weighted_reference(rng: &mut DetRng, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = rng.unit() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    /// The plain range draw `UniformBelow` replaced: reject above the
    /// largest multiple of `span`, then reduce with `%`.
    fn gen_range(rng: &mut DetRng, span: u64) -> u64 {
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let v = rng.next_u64();
            if v <= zone {
                return v % span;
            }
        }
    }

    /// Draws `n` values through `UniformBelow` and through [`gen_range`]
    /// on the same seed; the values and the stream positions afterwards
    /// must agree.
    fn check_uniform(seed: u64, span: u64, n: usize) -> Result<(), TestCaseError> {
        let draw = UniformBelow::new(span);
        let mut ours = DetRng::from_seed(seed);
        let mut reference = DetRng::from_seed(seed);
        for _ in 0..n {
            let v = draw.sample(&mut ours);
            prop_assert_eq!(v, gen_range(&mut reference, span), "span {}", span);
            prop_assert!(v < span);
        }
        prop_assert_eq!(ours.next_u64(), reference.next_u64(), "stream position");
        Ok(())
    }

    proptest! {
        #[test]
        fn uniform_below_matches_gen_range(
            seed in any::<u64>(),
            raw in any::<u64>(),
            shift in 0u32..64,
        ) {
            // Spans of every magnitude, from 1 to 2^64 - 1.
            check_uniform(seed, (raw >> shift).max(1), 64)?;
        }

        #[test]
        fn uniform_below_matches_gen_range_powers_of_two(
            seed in any::<u64>(),
            k in 0u32..64,
        ) {
            check_uniform(seed, 1 << k, 64)?;
        }

        #[test]
        fn uniform_below_matches_gen_range_extremes(seed in any::<u64>()) {
            check_uniform(seed, 1, 64)?;
            check_uniform(seed, u64::MAX, 64)?;
            check_uniform(seed, (1 << 63) + 1, 64)?;
        }

        #[test]
        fn weighted_index_matches_subtract_loop(
            seed in any::<u64>(),
            raw in proptest::collection::vec((0u8..4, 0.0f64..10.0), 1..9),
        ) {
            // A quarter of the weights are exactly zero.
            let mut weights: Vec<f64> = raw
                .iter()
                .map(|&(k, w)| if k == 0 { 0.0 } else { w })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                *weights.last_mut().expect("non-empty") = 1.0;
            }
            // The same draws over the largest weight alone: one component.
            let single = vec![weights.iter().cloned().fold(0.0, f64::max)];
            for weights in [weights, single] {
                let draw = WeightedIndex::new(weights.clone());
                let mut ours = DetRng::from_seed(seed);
                let mut reference = DetRng::from_seed(seed);
                for _ in 0..64 {
                    prop_assert_eq!(
                        draw.sample(&mut ours),
                        weighted_reference(&mut reference, &weights),
                        "weights {:?}",
                        weights
                    );
                }
                prop_assert_eq!(ours.next_u64(), reference.next_u64(), "stream position");
            }
        }
    }

    #[test]
    fn index_covers_range() {
        let mut r = DetRng::from_seed(6);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
