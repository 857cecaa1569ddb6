//! Synthetic 2002 box-office season (paper §4.2).
//!
//! The paper uses Variety's weekly box-office sales for the **634 films**
//! released in 2002 as a popularity signal with *rapidly shifting* skew:
//! "new movies are released all the time, become immensely popular for a
//! while, and then rapidly fade away". Requests are generated "one per
//! $100,000 in weekly box office sales", decay factors are applied "at
//! weekly boundaries".
//!
//! The sales table itself is not redistributable, so this module
//! synthesizes a season with the same structure: staggered release weeks,
//! Zipf-distributed opening strength, and geometric week-over-week decay.
//! Each week's cross-section is sharply skewed (Fig. 3) while annual
//! totals are flatter (Fig. 2) — the property the experiment depends on.

use crate::rng::Rng;
use crate::trace::{Request, Trace};

/// Seconds in a week (for trace timestamps).
pub const WEEK_SECS: f64 = 7.0 * 24.0 * 3600.0;

/// Parameters of the synthetic season.
#[derive(Debug, Clone, Copy)]
pub struct BoxOfficeConfig {
    /// Number of films released during the season (paper: 634).
    pub films: u64,
    /// Number of weeks in the season (52).
    pub weeks: u32,
    /// Zipf-ish exponent of opening-week strength across films.
    pub opening_alpha: f64,
    /// Week-over-week sales retention (0.65 ⇒ a film keeps 65% of the
    /// previous week's sales).
    pub weekly_retention: f64,
    /// Opening-week sales of the strongest film, in dollars.
    pub top_opening: f64,
    /// Dollars of weekly sales per generated request (paper: $100,000).
    pub dollars_per_request: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BoxOfficeConfig {
    fn default() -> Self {
        BoxOfficeConfig {
            films: 634,
            weeks: 52,
            // Fig. 2 of the paper shows annual sales falling only ~2.7x
            // across the top 10 (404M -> ~150M): a shallow power law.
            opening_alpha: 0.45,
            weekly_retention: 0.65,
            // Top 2002 film grossed ~$404M over the year; with 65%
            // retention the opening week is about 35% of the total.
            top_opening: 140.0e6,
            dollars_per_request: 100_000.0,
            seed: 0xB0F1CE,
        }
    }
}

/// A generated season: weekly sales per film.
#[derive(Debug, Clone)]
pub struct BoxOffice {
    config: BoxOfficeConfig,
    /// `sales[week][film] = dollars` (0 before release).
    sales: Vec<Vec<f64>>,
}

impl BoxOfficeConfig {
    /// Generate the season.
    pub fn generate(&self) -> BoxOffice {
        assert!(self.films > 0 && self.weeks > 0);
        assert!((0.0..1.0).contains(&self.weekly_retention));
        let mut rng = Rng::new(self.seed);
        let films = self.films as usize;
        // Strength rank is shuffled over films; release weeks staggered
        // uniformly so every week sees fresh openings.
        let strength_rank = rng.permutation(films);
        let mut release_week = vec![0u32; films];
        for w in release_week.iter_mut() {
            *w = rng.below(self.weeks as u64) as u32;
        }
        let mut sales = vec![vec![0.0; films]; self.weeks as usize];
        for film in 0..films {
            let rank = strength_rank[film] + 1; // 1-based strength rank
            let opening = self.top_opening / (rank as f64).powf(self.opening_alpha);
            let mut weekly = opening;
            let mut w = release_week[film];
            while w < self.weeks && weekly >= self.dollars_per_request {
                sales[w as usize][film] = weekly;
                weekly *= self.weekly_retention;
                w += 1;
            }
        }
        BoxOffice {
            config: *self,
            sales,
        }
    }
}

impl BoxOffice {
    /// The generating configuration.
    pub fn config(&self) -> &BoxOfficeConfig {
        &self.config
    }

    /// Weekly sales row: `sales(week)[film] = dollars`.
    pub fn week(&self, week: u32) -> &[f64] {
        &self.sales[week as usize]
    }

    /// Total annual sales per film.
    pub(crate) fn annual_totals(&self) -> Vec<f64> {
        let films = self.config.films as usize;
        let mut totals = vec![0.0; films];
        for week in &self.sales {
            for (f, s) in week.iter().enumerate() {
                totals[f] += s;
            }
        }
        totals
    }

    /// Top-`k` films by annual sales: `(film, dollars)` descending (Fig. 2).
    pub fn top_annual(&self, k: usize) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .annual_totals()
            .into_iter()
            .enumerate()
            .map(|(f, s)| (f as u64, s))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Top-`k` films in one week: `(film, dollars)` descending (Fig. 3).
    pub fn top_week(&self, week: u32, k: usize) -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = self
            .week(week)
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s > 0.0)
            .map(|(f, &s)| (f as u64, s))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(k);
        v
    }

    /// Generate the request trace: one request per `dollars_per_request` of
    /// weekly sales, interleaved within each week in a deterministic
    /// shuffled order (so one film's requests don't arrive as a block).
    pub fn trace(&self) -> Trace {
        let mut rng = Rng::new(self.config.seed ^ 0x7ACE);
        let mut requests = Vec::new();
        for week in 0..self.config.weeks {
            let mut weekly: Vec<u64> = Vec::new();
            for (film, &s) in self.week(week).iter().enumerate() {
                let n = (s / self.config.dollars_per_request) as u64;
                weekly.extend(std::iter::repeat_n(film as u64, n as usize));
            }
            rng.shuffle(&mut weekly);
            let n = weekly.len().max(1) as f64;
            for (i, film) in weekly.into_iter().enumerate() {
                let time = week as f64 * WEEK_SECS + (i as f64 / n) * WEEK_SECS;
                requests.push(Request { time, key: film });
            }
        }
        Trace::new(requests, self.config.films)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn season() -> BoxOffice {
        BoxOfficeConfig::default().generate()
    }

    #[test]
    fn dimensions() {
        let s = season();
        assert_eq!(s.week(0).len(), 634);
        assert_eq!(s.sales.len(), 52);
    }

    #[test]
    fn weekly_skew_sharper_than_annual() {
        // Paper: "Each week considered separately exhibits a more sharply
        // skewed distribution" (Fig. 3 vs Fig. 2). Metric: the ratio of
        // rank-1 to rank-10 sales, averaged over mid-season weeks, must
        // exceed the same ratio computed on annual totals.
        let s = season();
        let annual = s.top_annual(10);
        let annual_ratio = annual[0].1 / annual[9].1;
        let mut weekly_ratios = Vec::new();
        for week in 10..40 {
            let top = s.top_week(week, 10);
            if top.len() == 10 {
                weekly_ratios.push(top[0].1 / top[9].1);
            }
        }
        assert!(!weekly_ratios.is_empty());
        let mean_weekly = weekly_ratios.iter().sum::<f64>() / weekly_ratios.len() as f64;
        assert!(
            mean_weekly > annual_ratio,
            "weekly top1/top10 {mean_weekly:.2} should exceed annual {annual_ratio:.2}"
        );
    }

    #[test]
    fn sales_decay_after_release() {
        let s = season();
        // Find a film released early with strong opening.
        let top = s.top_annual(1)[0].0 as usize;
        let mut sales_curve: Vec<f64> = (0..s.config.weeks)
            .map(|w| s.week(w)[top])
            .filter(|&x| x > 0.0)
            .collect();
        assert!(sales_curve.len() >= 2, "top film should run several weeks");
        let first = sales_curve.remove(0);
        assert!(sales_curve.iter().all(|&x| x < first));
        // Geometric decay: each week ~retention of previous.
        assert!(
            (sales_curve[0] / first - 0.65).abs() < 1e-9,
            "retention should be exact in the generator"
        );
    }

    #[test]
    fn trace_matches_sales_volume() {
        let s = season();
        let t = s.trace();
        let expected: u64 = (0..s.config.weeks)
            .map(|w| {
                s.week(w)
                    .iter()
                    .map(|&x| (x / 100_000.0) as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(t.len() as u64, expected);
        assert!(t.len() > 10_000, "season should generate real volume");
    }

    #[test]
    fn trace_time_ordered_and_weekly() {
        let s = season();
        let t = s.trace();
        assert!(t.requests.windows(2).all(|w| w[0].time <= w[1].time));
        // First request of week 1 comes after all of week 0.
        let w0_max = t.requests.iter().filter(|r| r.time < WEEK_SECS).count();
        assert!(w0_max > 0);
    }

    #[test]
    fn deterministic() {
        let a = season().trace();
        let b = season().trace();
        assert_eq!(a.requests[..50], b.requests[..50]);
    }

    #[test]
    fn top_week_ignores_unreleased() {
        let s = season();
        for (_, dollars) in s.top_week(0, 10) {
            assert!(dollars > 0.0);
        }
    }
}
