//! Deterministic random-number streams.
//!
//! Every stochastic component of the simulator (reference-stream generators,
//! random way selection in Algorithm 2, branch outcome synthesis) draws from a
//! [`DetRng`] stream derived from a root seed and a stable string label, so
//! that adding a new consumer of randomness never perturbs existing streams
//! and whole experiments replay bit-identically.
//!
//! # Decisions as integer cuts
//!
//! A unit draw is `u = k·2⁻⁵³` for the 53-bit integer `k =`
//! [`DetRng::unit53`], and that product is exact. Any decision that is a
//! monotone function of `u` is therefore a step function of `k`, and a
//! table of the `k` where it steps reproduces it with integer compares, on
//! the same draw and so on the same stream:
//!
//! - `u < c` holds exactly when `k < ⌈c·2⁵³⌉` ([`unit_cut`]), because
//!   scaling by a power of two is exact too. [`Bernoulli`] is that cut.
//! - The subtract walk behind a weighted pick (`x = u·total`, then
//!   `x -= w` per weight) rounds every step to nearest, and rounding is
//!   monotone, so every remainder it computes is non-decreasing in `k`.
//!   Each test `x < w` flips from true to false at most once as `k` grows,
//!   and the picked index never decreases. [`WeightedIndex`] stores the
//!   first `k` past each index and counts the cuts at or below a draw.
//!
//! The float expressions survive only as the oracles that build the cuts
//! and test them.

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

    /// Uniform integer in `[0, 2⁵³)`: the top 53 bits of one raw draw, the
    /// integer behind [`unit`](Self::unit).
    #[inline]
    pub fn unit53(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform `f64` in `[0, 1)`: [`unit53`](Self::unit53) scaled by 2⁻⁵³,
    /// which is exact.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        self.unit53() as f64 * (1.0 / UNIT53_END as f64)
    }
}

/// One past the largest [`DetRng::unit53`] draw: 2⁵³.
const UNIT53_END: u64 = 1 << 53;

/// The cut on a 53-bit draw that decides `unit() < c`: for every
/// `k < 2⁵³`, `k < unit_cut(c)` exactly when `k as f64 * 2⁻⁵³ < c`.
///
/// Both scalings by 2⁵³ are exact, so the comparison is `k < c·2⁵³`, and
/// for an integer `k` that is `k < ⌈c·2⁵³⌉`. A `c` at or below zero (or
/// NaN) cuts at 0, below every draw; a `c` of one or more cuts at 2⁵³,
/// above every draw.
pub fn unit_cut(c: f64) -> u64 {
    let x = c * UNIT53_END as f64;
    if x >= UNIT53_END as f64 {
        UNIT53_END
    } else if x > 0.0 {
        // The ceiling without libm: truncation floors a positive `x`.
        let floor = x as u64;
        floor + ((floor as f64) < x) as u64
    } else {
        0
    }
}

/// A precomputed Bernoulli draw with probability `p`.
///
/// A `p` at or below 0, or at or above 1, decides without a draw. Any other
/// `p` takes one 53-bit draw `k` and returns `k < unit_cut(p)`, which is
/// `unit() < p` exactly (see [`unit_cut`]).
///
/// ```
/// use simkit::rng::{Bernoulli, DetRng};
/// let mut r = DetRng::from_seed(1);
/// assert!(Bernoulli::new(1.0).sample(&mut r));
/// assert!(!Bernoulli::new(0.0).sample(&mut r));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bernoulli {
    cut: u64,
    draws: bool,
}

impl Bernoulli {
    /// Precomputes the draw for probability `p`.
    pub fn new(p: f64) -> Bernoulli {
        Bernoulli {
            cut: unit_cut(p),
            // A NaN `p` draws, and loses, as `unit() < p` would.
            draws: !(p <= 0.0 || p >= 1.0),
        }
    }

    /// One draw from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> bool {
        if self.draws {
            self.hit(rng.unit53())
        } else {
            self.cut != 0
        }
    }

    /// The outcome at the 53-bit draw `k`.
    #[inline]
    fn hit(&self, k: u64) -> bool {
        k < self.cut
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
/// It picks what the classic subtract walk picks on the same draw: scale a
/// unit draw by the total (summed once, in index order), subtract each
/// weight in order, and take the lowest index whose weight exceeds the
/// running remainder, or the last index if rounding leaves none. The
/// walk's pick never decreases as the 53-bit draw `k` grows (see the
/// [module docs](self)), so `cuts[i]`, the least `k` whose walk picks past
/// `i` (2⁵³ if none does), reproduces it at every `k`: the pick is the
/// number of cuts at or below `k`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedIndex {
    /// One cut per index but the last, non-decreasing.
    cuts: Vec<u64>,
}

impl WeightedIndex {
    /// Precomputes the draw for `weights`.
    ///
    /// Each cut starts from its cumulative-weight estimate, which rounding
    /// misses by a few units of `k`, and gallops out from it with the walk
    /// as the oracle until a bisection can close the bracket.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> WeightedIndex {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "WeightedIndex requires positive total weight"
        );
        let mut cuts = Vec::with_capacity(weights.len() - 1);
        let mut cum = 0.0;
        let mut floor = 0;
        for (i, w) in weights[..weights.len() - 1].iter().enumerate() {
            cum += w;
            // The walk picks past `i` exactly when its first `i + 2`
            // weights alone do: the tests after those cannot move a pick
            // of `i` or below.
            let prefix = &weights[..i + 2];
            floor = first_past(floor, unit_cut(cum / total), |k| walk(prefix, total, k) > i);
            cuts.push(floor);
        }
        WeightedIndex { cuts }
    }

    /// One weighted draw from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        self.pick(rng.unit53())
    }

    /// The index picked at the 53-bit draw `k`.
    #[inline]
    fn pick(&self, k: u64) -> usize {
        self.cuts.iter().map(|&cut| (k >= cut) as usize).sum()
    }
}

/// The subtract walk [`WeightedIndex`] reproduces, at the 53-bit draw `k`.
fn walk(weights: &[f64], total: f64, k: u64) -> usize {
    let mut x = k as f64 * (1.0 / UNIT53_END as f64) * total;
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// The least `k` in `[lo, 2⁵³]` with `past(k)`, for a `past` that flips
/// from false to true at most once on `[lo, 2⁵³)` and is taken as true at
/// 2⁵³. Steps out from `guess` by doubling strides until the flip is
/// bracketed, then bisects the bracket.
fn first_past(mut lo: u64, guess: u64, past: impl Fn(u64) -> bool) -> u64 {
    let past = |k: u64| k >= UNIT53_END || past(k);
    let mut hi = UNIT53_END;
    let probe = guess.clamp(lo, hi);
    let mut step = 1;
    if past(probe) {
        hi = probe;
        while lo < hi {
            let t = hi.saturating_sub(step).max(lo);
            if !past(t) {
                lo = t + 1;
                break;
            }
            hi = t;
            step *= 2;
        }
    } else {
        lo = probe + 1;
        while lo < hi {
            let t = (probe + step).min(hi);
            if past(t) {
                hi = t;
                break;
            }
            lo = t + 1;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if past(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
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
    fn bernoulli_extremes_draw_nothing() {
        let mut r = DetRng::from_seed(2);
        let untouched = r.clone();
        assert!(!Bernoulli::new(0.0).sample(&mut r));
        assert!(Bernoulli::new(1.0).sample(&mut r));
        assert!(!Bernoulli::new(-0.5).sample(&mut r));
        assert!(Bernoulli::new(1.5).sample(&mut r));
        assert_eq!(r.next_u64(), untouched.clone().next_u64(), "no draw taken");
        let mut nan = untouched.clone();
        assert!(!Bernoulli::new(f64::NAN).sample(&mut nan));
        assert_eq!(nan.next_u64(), r.next_u64(), "a NaN takes one draw");
    }

    #[test]
    fn bernoulli_is_roughly_calibrated() {
        let mut r = DetRng::from_seed(3);
        let coin = Bernoulli::new(0.3);
        let hits = (0..10_000).filter(|_| coin.sample(&mut r)).count();
        assert!((2_700..3_300).contains(&hits), "got {hits}");
    }

    #[test]
    fn unit_cut_edges() {
        assert_eq!(unit_cut(0.0), 0);
        assert_eq!(unit_cut(-1.0), 0);
        assert_eq!(unit_cut(f64::NAN), 0);
        assert_eq!(unit_cut(f64::from_bits(1)), 1);
        assert_eq!(unit_cut(0.5), 1 << 52);
        assert_eq!(unit_cut(0.5 + f64::EPSILON / 2.0), (1 << 52) + 1);
        assert_eq!(unit_cut(1.0 - f64::EPSILON / 2.0), UNIT53_END - 1);
        assert_eq!(unit_cut(1.0), UNIT53_END);
        assert_eq!(unit_cut(f64::INFINITY), UNIT53_END);
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = DetRng::from_seed(4);
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
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
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    #[should_panic]
    fn uniform_below_rejects_zero_span() {
        UniformBelow::new(0);
    }

    /// The float decision `Bernoulli` replaced.
    fn chance(rng: &mut DetRng, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            rng.unit() < p
        }
    }

    /// The subtract-loop weighted draw the cut table replaced.
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
                let draw = WeightedIndex::new(&weights);
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

    /// Random weight vectors: one to eight weights, about a quarter of
    /// them zero, the rest spread over twelve orders of magnitude.
    fn weight_vectors() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..4, 0.0f64..1.0, 0.0f64..12.0), 1..9).prop_map(|raw| {
            let mut weights: Vec<f64> = raw
                .iter()
                .map(|&(z, m, e)| if z == 0 { 0.0 } else { m * 10f64.powf(e) })
                .collect();
            if weights.iter().sum::<f64>() <= 0.0 {
                *weights.last_mut().expect("non-empty") = 1.0;
            }
            weights
        })
    }

    /// Checks every cut of `weights` against the walk on both sides, both
    /// as a cut and as a pick, and `sample` against the walk at the draws
    /// of `seed`.
    fn check_cuts(weights: &[f64], seed: u64) -> Result<(), TestCaseError> {
        let total: f64 = weights.iter().sum();
        let draw = WeightedIndex::new(weights);
        prop_assert_eq!(draw.cuts.len(), weights.len() - 1);
        for (i, &cut) in draw.cuts.iter().enumerate() {
            prop_assert!(cut <= UNIT53_END);
            if cut > 0 {
                let walked = walk(weights, total, cut - 1);
                prop_assert!(walked <= i, "below cut {}: {:?}", i, weights);
                prop_assert_eq!(draw.pick(cut - 1), walked, "{:?}", weights);
            }
            if cut < UNIT53_END {
                let walked = walk(weights, total, cut);
                prop_assert!(walked > i, "at cut {}: {:?}", i, weights);
                prop_assert_eq!(draw.pick(cut), walked, "{:?}", weights);
            }
        }
        let mut ours = DetRng::from_seed(seed);
        let mut reference = DetRng::from_seed(seed);
        for _ in 0..64 {
            let k = reference.unit53();
            prop_assert_eq!(
                draw.sample(&mut ours),
                walk(weights, total, k),
                "{:?}",
                weights
            );
        }
        prop_assert_eq!(ours.next_u64(), reference.next_u64(), "stream position");
        Ok(())
    }

    proptest! {
        #[test]
        fn weighted_cuts_match_the_walk(seed in any::<u64>(), weights in weight_vectors()) {
            check_cuts(&weights, seed)?;
            // The same weights in the other order.
            let reversed: Vec<f64> = weights.iter().rev().cloned().collect();
            check_cuts(&reversed, seed)?;
        }

        #[test]
        fn bernoulli_matches_chance_near_the_cut(
            seed in any::<u64>(),
            p in 0.0f64..1.0,
            offset in 0u64..8,
        ) {
            let coin = Bernoulli::new(p);
            // The draws on either side of the cut decide as `unit() < p`.
            let k = (unit_cut(p) + offset).saturating_sub(4).min(UNIT53_END - 1);
            let u = k as f64 * (1.0 / UNIT53_END as f64);
            if p > 0.0 {
                prop_assert_eq!(coin.hit(k), u < p, "p {:e} k {}", p, k);
            }
            let mut ours = DetRng::from_seed(seed);
            let mut reference = DetRng::from_seed(seed);
            for _ in 0..64 {
                prop_assert_eq!(coin.sample(&mut ours), chance(&mut reference, p));
            }
            prop_assert_eq!(ours.next_u64(), reference.next_u64(), "stream position");
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
