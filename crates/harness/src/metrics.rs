//! Evaluation metrics (paper Section 3.3).

/// Weighted speedup: `Σ IPC_shared[i] / IPC_alone[i]` (higher is better).
///
/// # Panics
///
/// Panics if the slices differ in length or any solo IPC is non-positive.
pub fn weighted_speedup(ipc_shared: &[f64], ipc_alone: &[f64]) -> f64 {
    assert_eq!(ipc_shared.len(), ipc_alone.len());
    ipc_shared
        .iter()
        .zip(ipc_alone.iter())
        .map(|(&s, &a)| {
            assert!(a > 0.0, "solo IPC must be positive");
            s / a
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_speedup_sums_ratios() {
        let ws = weighted_speedup(&[0.5, 1.0], &[1.0, 2.0]);
        assert!((ws - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_solo_ipc_rejected() {
        weighted_speedup(&[1.0], &[0.0]);
    }

    #[test]
    #[should_panic]
    fn mismatched_lengths_rejected() {
        weighted_speedup(&[1.0, 2.0], &[1.0]);
    }
}
