//! Skewed per-item update rates (paper §3, §4.3).
//!
//! The §4.3 experiment poses uniform queries against a 100,000-tuple
//! relation while updates arrive with Zipf-distributed rates (α from 0.25
//! to 2.5). This module assigns each item a concrete update rate.

use crate::rng::Rng;
use crate::zipf::Zipf;

/// Per-item update rates, Zipf-shaped over a shuffled item universe.
#[derive(Debug, Clone)]
pub struct UpdateRates {
    /// rate[item] = updates per second.
    rates: Vec<f64>,
    alpha: f64,
}

impl UpdateRates {
    /// Assign rates to `items` items: the rate of the `i`-th most
    /// frequently updated item is proportional to `i^-alpha`, scaled so the
    /// whole dataset sees `total_rate` updates per second. The mapping from
    /// rate-rank to item id is shuffled by `seed`.
    pub fn zipf(items: u64, alpha: f64, total_rate: f64, seed: u64) -> UpdateRates {
        assert!(items > 0 && total_rate > 0.0);
        let zipf = Zipf::new(items, alpha);
        let mut rng = Rng::new(seed);
        let rank_to_item = rng.permutation(items as usize);
        let mut rates = vec![0.0; items as usize];
        for rank in 1..=items {
            let item = rank_to_item[(rank - 1) as usize] as usize;
            rates[item] = zipf.probability(rank) * total_rate;
        }
        UpdateRates { rates, alpha }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether there are no items (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// The Zipf parameter used (0 for uniform).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Update rate of one item (updates/second).
    pub fn rate(&self, item: u64) -> f64 {
        self.rates[item as usize]
    }

    /// All rates.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Sum of all rates.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// The paper's staleness rule (Eq. 10, from which Eq. 11/12 are
    /// derived): the share of items with `r_i > 0` and
    /// `extraction_secs ≥ 1/r_i` — items updated at least once, on
    /// average, while an extraction of that length runs.
    pub fn stale_fraction(&self, extraction_secs: f64) -> f64 {
        let stale = self
            .rates
            .iter()
            .filter(|&&r| r > 0.0 && extraction_secs >= 1.0 / r)
            .count();
        stale as f64 / self.rates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform rates (no skew): every item updated equally often.
    fn uniform(items: u64, total_rate: f64) -> UpdateRates {
        UpdateRates {
            rates: vec![total_rate / items as f64; items as usize],
            alpha: 0.0,
        }
    }

    #[test]
    fn zipf_rates_sum_to_total() {
        let r = UpdateRates::zipf(1000, 1.0, 50.0, 1);
        assert!((r.total_rate() - 50.0).abs() < 1e-9);
        assert_eq!(r.len(), 1000);
        let rmax = r.rates().iter().copied().fold(0.0, f64::max);
        assert!(rmax > 50.0 / 1000.0, "max above uniform share");
    }

    #[test]
    fn no_time_no_staleness() {
        let rates = uniform(100, 10.0);
        assert_eq!(rates.stale_fraction(0.0), 0.0);
    }

    #[test]
    fn long_exposure_means_everything_stale() {
        let rates = uniform(100, 10.0); // 0.1 upd/s each
        assert_eq!(rates.stale_fraction(1e6), 1.0);
        assert_eq!(rates.stale_fraction(9.99), 0.0);
        assert_eq!(rates.stale_fraction(10.0), 1.0, "d_total = 1/r is stale");
    }

    #[test]
    fn skew_reduces_stale_fraction_at_fixed_budget() {
        // Paper Fig. 6: with updates concentrated on few items (high α),
        // a smaller fraction of the database goes stale.
        let (n, end) = (5_000u64, 1_000.0);
        let low = UpdateRates::zipf(n, 0.25, 10.0, 3);
        let high = UpdateRates::zipf(n, 2.5, 10.0, 3);
        assert!(
            low.stale_fraction(end) > high.stale_fraction(end),
            "low skew should go staler"
        );
    }
}
