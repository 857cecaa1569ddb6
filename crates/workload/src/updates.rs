//! Update streams with skewed per-item rates (paper §3, §4.3).
//!
//! The §4.3 experiment poses uniform queries against a 100,000-tuple
//! relation while updates arrive with Zipf-distributed rates (α from 0.25
//! to 2.5). This module assigns each item a concrete update rate and can
//! generate the corresponding Poisson update events.

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

    /// Uniform rates (no skew): every item updated equally often.
    pub fn uniform(items: u64, total_rate: f64) -> UpdateRates {
        assert!(items > 0 && total_rate > 0.0);
        UpdateRates {
            rates: vec![total_rate / items as f64; items as usize],
            alpha: 0.0,
        }
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

    /// The highest per-item rate (`r_max` in Eq. 9).
    pub fn rmax(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// Sum of all rates.
    pub fn total_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Items sorted by descending rate: `item_by_rank()[0]` is the most
    /// frequently updated item (update-rank 1).
    pub fn items_by_rank(&self) -> Vec<u64> {
        let mut items: Vec<u64> = (0..self.rates.len() as u64).collect();
        items.sort_by(|&a, &b| {
            self.rates[b as usize]
                .total_cmp(&self.rates[a as usize])
                .then(a.cmp(&b))
        });
        items
    }

    /// Probability that an item with this rate is updated at least once in
    /// a window of `secs` seconds (Poisson arrivals).
    pub fn stale_probability(&self, item: u64, secs: f64) -> f64 {
        let lambda = self.rate(item) * secs.max(0.0);
        1.0 - (-lambda).exp()
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

/// An iterator of Poisson update events over the item universe.
#[derive(Debug, Clone)]
pub struct UpdateStream {
    rates: UpdateRates,
    sampler: crate::alias::AliasTable,
    rng: Rng,
    time: f64,
    total_rate: f64,
}

/// One update event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateEvent {
    /// Virtual time of the update (seconds).
    pub time: f64,
    /// Item updated.
    pub item: u64,
}

impl UpdateStream {
    /// A stream over the given rates (superposed Poisson processes: the
    /// merged process has rate `Σ r_i` and each event picks item `i` with
    /// probability `r_i / Σ r`).
    pub fn new(rates: UpdateRates, seed: u64) -> UpdateStream {
        let total_rate = rates.total_rate();
        let sampler = crate::alias::AliasTable::new(rates.rates());
        UpdateStream {
            rates,
            sampler,
            rng: Rng::new(seed),
            time: 0.0,
            total_rate,
        }
    }

    /// The underlying rates.
    pub fn rates(&self) -> &UpdateRates {
        &self.rates
    }
}

impl Iterator for UpdateStream {
    type Item = UpdateEvent;

    fn next(&mut self) -> Option<UpdateEvent> {
        self.time += self.rng.exponential(self.total_rate);
        let item = self.sampler.sample(&mut self.rng) as u64;
        Some(UpdateEvent {
            time: self.time,
            item,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rates_sum_to_total() {
        let r = UpdateRates::zipf(1000, 1.0, 50.0, 1);
        assert!((r.total_rate() - 50.0).abs() < 1e-9);
        assert_eq!(r.len(), 1000);
        assert!(r.rmax() > 50.0 / 1000.0, "max above uniform share");
    }

    #[test]
    fn uniform_rates_equal() {
        let r = UpdateRates::uniform(10, 5.0);
        for i in 0..10 {
            assert!((r.rate(i) - 0.5).abs() < 1e-12);
        }
        assert!((r.rmax() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn items_by_rank_descending() {
        let r = UpdateRates::zipf(100, 1.5, 10.0, 3);
        let ranked = r.items_by_rank();
        for w in ranked.windows(2) {
            assert!(r.rate(w[0]) >= r.rate(w[1]));
        }
        assert!((r.rate(ranked[0]) - r.rmax()).abs() < 1e-12);
    }

    #[test]
    fn stale_probability_monotone_in_window() {
        let r = UpdateRates::zipf(10, 1.0, 1.0, 5);
        let p1 = r.stale_probability(0, 10.0);
        let p2 = r.stale_probability(0, 100.0);
        assert!(p2 >= p1);
        assert_eq!(r.stale_probability(0, 0.0), 0.0);
        assert!(r.stale_probability(0, 1e12) > 0.999);
    }

    #[test]
    fn no_time_no_staleness() {
        let rates = UpdateRates::uniform(100, 10.0);
        assert_eq!(rates.stale_fraction(0.0), 0.0);
    }

    #[test]
    fn long_exposure_means_everything_stale() {
        let rates = UpdateRates::uniform(100, 10.0); // 0.1 upd/s each
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

    #[test]
    fn stream_inter_arrivals_match_rate() {
        let rates = UpdateRates::uniform(100, 20.0);
        let stream = UpdateStream::new(rates, 9);
        let events: Vec<UpdateEvent> = stream.take(20_000).collect();
        let span = events.last().unwrap().time - events[0].time;
        let observed_rate = (events.len() - 1) as f64 / span;
        assert!(
            (observed_rate - 20.0).abs() / 20.0 < 0.05,
            "rate {observed_rate}"
        );
    }

    #[test]
    fn stream_item_mix_follows_rates() {
        let rates = UpdateRates::zipf(10, 1.0, 10.0, 11);
        let expected0 = rates.rate(0) / rates.total_rate();
        let stream = UpdateStream::new(rates, 13);
        let n = 100_000;
        let hits = stream.take(n).filter(|e| e.item == 0).count();
        let observed = hits as f64 / n as f64;
        assert!(
            (observed - expected0).abs() / expected0 < 0.1,
            "obs {observed} vs exp {expected0}"
        );
    }

    #[test]
    fn stream_times_increase() {
        let rates = UpdateRates::uniform(5, 1.0);
        let events: Vec<UpdateEvent> = UpdateStream::new(rates, 2).take(100).collect();
        assert!(events.windows(2).all(|w| w[0].time < w[1].time));
    }
}
