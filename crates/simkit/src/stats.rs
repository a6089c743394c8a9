//! Statistics primitives: counters and bucketed time series.
//!
//! These are deliberately simple value types; every simulator component owns
//! its own statistics and the harness aggregates them after a run.

use std::fmt;

/// A named monotonically increasing event counter.
///
/// ```
/// use simkit::Counter;
/// let mut c = Counter::default();
/// c.add(3);
/// c.inc();
/// assert_eq!(c.get(), 4);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Reset to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.0 = 0;
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A time series of values bucketed by simulated time.
///
/// Used for the paper's Figure 16 (flushed lines per interval after a
/// partitioning decision): events are accumulated into fixed-width cycle
/// buckets relative to a configurable origin.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    bucket_cycles: u64,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with buckets of `bucket_cycles` cycles, pre-sized to
    /// `n_buckets` (it grows on demand).
    ///
    /// # Panics
    ///
    /// Panics if `bucket_cycles == 0`.
    pub fn new(bucket_cycles: u64, n_buckets: usize) -> TimeSeries {
        assert!(bucket_cycles > 0);
        TimeSeries {
            bucket_cycles,
            values: vec![0.0; n_buckets],
        }
    }

    /// Adds `amount` at `offset_cycles` past the series origin.
    pub fn add_at(&mut self, offset_cycles: u64, amount: f64) {
        let idx = (offset_cycles / self.bucket_cycles) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] += amount;
    }

    /// The accumulated values, one per bucket.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Bucket width in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }
}

/// Geometric mean of strictly positive values; the paper averages normalized
/// speedups and energies geometrically.
///
/// Returns `None` for an empty slice or any non-positive entry.
///
/// ```
/// use simkit::geometric_mean;
/// let g = geometric_mean(&[1.0, 4.0]).unwrap();
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geometric_mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between order statistics (the "R-7" / spreadsheet convention). `None`
/// for an empty slice, a non-finite value, or `q` outside `[0, 1]`.
///
/// ```
/// use simkit::stats::quantile;
/// assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
/// assert_eq!(quantile(&[1.0, 2.0], 1.0), Some(2.0));
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn time_series_accumulates_and_grows() {
        let mut ts = TimeSeries::new(100, 2);
        ts.add_at(0, 1.0);
        ts.add_at(99, 1.0);
        ts.add_at(100, 5.0);
        ts.add_at(950, 2.0); // grows to bucket 9
        assert_eq!(ts.values()[0], 2.0);
        assert_eq!(ts.values()[1], 5.0);
        assert_eq!(ts.values()[9], 2.0);
        assert_eq!(ts.total(), 9.0);
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), None);
        assert_eq!(geometric_mean(&[1.0, -1.0]), None);
        assert_eq!(geometric_mean(&[0.0]), None);
        let g = geometric_mean(&[2.0, 8.0]).unwrap();
        assert!((g - 4.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates_and_rejects_garbage() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[1.0], 1.5), None);
        assert_eq!(quantile(&[1.0, f64::NAN], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 1.0), Some(4.0));
        assert_eq!(quantile(&[4.0, 2.0, 3.0, 1.0], 0.5), Some(2.5));
        let p25 = quantile(&[1.0, 2.0, 3.0, 4.0], 0.25).unwrap();
        assert!((p25 - 1.75).abs() < 1e-12);
    }
}
