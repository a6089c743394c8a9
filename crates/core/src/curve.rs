//! Miss curves: projected misses as a function of allocated ways.
//!
//! The UMON's LRU stack property (Mattson et al.) yields, from one monitoring
//! pass, the number of misses an application *would have had* under every
//! possible way allocation. Allocation algorithms consume these curves.

/// Projected misses for every way allocation `0..=ways`.
///
/// `misses(w)` is non-increasing in `w` (more capacity never adds misses
/// under LRU inclusion).
#[derive(Debug, Clone, PartialEq)]
pub struct MissCurve {
    misses: Vec<f64>,
    accesses: f64,
}

impl MissCurve {
    /// Builds a curve from per-allocation miss counts (`values[w]` = misses
    /// with `w` ways) and the total accesses observed.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or increasing anywhere.
    pub fn new(values: Vec<f64>, accesses: f64) -> MissCurve {
        assert!(!values.is_empty());
        for pair in values.windows(2) {
            assert!(
                pair[0] >= pair[1] - 1e-9,
                "miss curve must be non-increasing: {values:?}"
            );
        }
        MissCurve {
            misses: values,
            accesses,
        }
    }

    /// Maximum ways the curve covers.
    pub fn ways(&self) -> usize {
        self.misses.len() - 1
    }

    /// Projected misses with `w` ways (clamped to the curve's range).
    pub fn misses(&self, w: usize) -> f64 {
        self.misses[w.min(self.misses.len() - 1)]
    }

    /// Total accesses the curve was built from.
    pub fn accesses(&self) -> f64 {
        self.accesses
    }

    /// Marginal utility of going from `a` to `b` ways: misses saved per way
    /// (Algorithm 1's `get_mu_value`). Returns 0 when `b <= a`.
    pub fn mu(&self, a: usize, b: usize) -> f64 {
        if b <= a {
            return 0.0;
        }
        (self.misses(a) - self.misses(b)) / (b - a) as f64
    }

    /// `get_max_mu` of Algorithm 1: the best marginal utility reachable from
    /// `alloc` using at most `balance` extra ways, and the smallest number of
    /// ways that achieves it.
    pub fn max_mu(&self, alloc: usize, balance: usize) -> (f64, usize) {
        let mut best = 0.0;
        let mut req = 1;
        for j in 1..=balance {
            let mu = self.mu(alloc, alloc + j);
            if mu > best {
                best = mu;
                req = j;
            }
        }
        (best, req)
    }

    /// Miss-*ratio* reduction of growing from `a` to `b` ways, in fractions
    /// of this application's accesses. This is the quantity the paper's
    /// takeover threshold gates on ("the threshold controls the decrease in
    /// miss-ratio for each application", Section 2.1): a step is only worth
    /// taking when it removes at least `T` percentage points of miss ratio.
    pub fn ratio_gain(&self, a: usize, b: usize) -> f64 {
        if self.accesses <= 0.0 {
            return 0.0;
        }
        (self.misses(a) - self.misses(b)).max(0.0) / self.accesses
    }

    /// A flat curve (no utility from capacity) — streaming behaviour.
    pub fn flat(ways: usize, misses: f64, accesses: f64) -> MissCurve {
        MissCurve::new(vec![misses; ways + 1], accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MissCurve {
        MissCurve::new(vec![100.0, 60.0, 35.0, 20.0, 12.0], 1000.0)
    }

    #[test]
    fn accessors() {
        let c = sample();
        assert_eq!(c.ways(), 4);
        assert_eq!(c.misses(0), 100.0);
        assert_eq!(c.misses(4), 12.0);
        assert_eq!(c.misses(99), 12.0, "clamped");
        assert_eq!(c.accesses(), 1000.0);
    }

    #[test]
    fn mu_is_misses_saved_per_way() {
        let c = sample();
        assert!((c.mu(0, 1) - 40.0).abs() < 1e-12);
        assert!((c.mu(0, 2) - 32.5).abs() < 1e-12);
        assert_eq!(c.mu(3, 3), 0.0);
        assert_eq!(c.mu(3, 2), 0.0);
    }

    #[test]
    fn max_mu_finds_best_step() {
        let c = sample();
        // From 0: single way gives mu=40, two ways 32.5 -> best is 1 way.
        let (mu, req) = c.max_mu(0, 4);
        assert!((mu - 40.0).abs() < 1e-12);
        assert_eq!(req, 1);
        // A curve with a cliff at 3 ways prefers a 3-way step.
        let cliff = MissCurve::new(vec![100.0, 99.0, 98.0, 10.0], 1000.0);
        let (mu, req) = cliff.max_mu(0, 3);
        assert!((mu - 30.0).abs() < 1e-12);
        assert_eq!(req, 3);
    }

    #[test]
    fn ratio_gain_normalizes_by_accesses() {
        let c = sample();
        // 0 -> 1 ways saves 40 misses out of 1000 accesses: 4 points.
        assert!((c.ratio_gain(0, 1) - 0.04).abs() < 1e-12);
        let flat = MissCurve::flat(4, 0.0, 10.0);
        assert_eq!(flat.ratio_gain(0, 4), 0.0, "no misses, no gain");
        let no_acc = MissCurve::new(vec![5.0, 1.0], 0.0);
        assert_eq!(no_acc.ratio_gain(0, 1), 0.0, "no accesses, no gain");
    }

    #[test]
    #[should_panic]
    fn rejects_increasing_curve() {
        MissCurve::new(vec![10.0, 20.0], 1.0);
    }
}
