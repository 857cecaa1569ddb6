//! Order statistics for timing samples.

use delayguard_sim::median_of;

/// The tail percentiles the reports offer, lowest first.
pub const TAIL_LADDER: [f64; 4] = [0.90, 0.99, 0.999, 0.9999];

/// The highest rung of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`, or `None` when even p90 does
/// not (n < 100). A percentile with fewer samples beyond it is one or
/// two outliers, not a distribution.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .rfind(|q| (n as f64) * (1.0 - q) >= 10.0 - 1e-9)
}

/// `(max − min) / median`: the trial-to-trial spread kept beside every
/// reported median. 0 for fewer than two values or a zero median.
pub fn relative_range(values: &[f64]) -> f64 {
    let med = median_of(values.to_vec());
    if values.len() < 2 || med == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / med
}

/// Release lateness of one reply, in nanoseconds: how long after
/// `start + charged delay` the reply arrived. `start` is the due time in
/// an open loop and the send time in a closed loop. Negative means the
/// reply came before the client had waited out its charge.
pub fn lateness_nanos(start_ns: u64, done_ns: u64, delay_secs: f64) -> i64 {
    done_ns as i64 - start_ns as i64 - (delay_secs * 1e9) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_tail(99), None);
        assert_eq!(highest_supported_tail(100), Some(0.90));
        assert_eq!(highest_supported_tail(999), Some(0.90));
        assert_eq!(highest_supported_tail(1_000), Some(0.99));
        assert_eq!(highest_supported_tail(10_000), Some(0.999));
        assert_eq!(highest_supported_tail(1_000_000), Some(0.9999));
    }

    #[test]
    fn range_is_relative_to_the_median() {
        assert!((relative_range(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(relative_range(&[5.0]), 0.0);
        assert_eq!(relative_range(&[]), 0.0);
    }

    #[test]
    fn lateness_subtracts_the_charge_and_can_go_negative() {
        // Sent at 1 ms, charged 2 ms, arrived at 3.4 ms: 400 µs late.
        assert_eq!(lateness_nanos(1_000_000, 3_400_000, 0.002), 400_000);
        // Arrived before the charge elapsed: an early release.
        assert_eq!(lateness_nanos(1_000_000, 2_500_000, 0.002), -500_000);
    }
}
