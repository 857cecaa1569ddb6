//! Update-rate delay policy (paper §3).
//!
//! When access patterns are uniform the access-rate scheme assigns every
//! tuple the same delay, which either hurts users or spares the adversary.
//! §3 instead charges delays inversely proportional to *update* rates
//! (Eq. 8/9):
//!
//! ```text
//! d(i) = (c/N) · i^α / r_max      ⟺      d = c / (N · r)
//! ```
//!
//! so frequently-updated tuples return quickly while stale-prone tuples
//! are slow. The point is not the delay itself but the *staleness
//! guarantee* (Eq. 11–12): by the time an adversary finishes extracting,
//! a fraction `S_max ≈ (c_max/(1+α))^(1/α)` of its copy is already
//! obsolete.

use delayguard_popularity::FrequencyTracker;

/// Parameters of the update-rate delay policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateDelayPolicy {
    /// Scale constant `c` of Eq. 9.
    pub c: f64,
    /// Maximum delay per tuple, seconds.
    pub cap_secs: f64,
}

impl UpdateDelayPolicy {
    /// Policy with scale `c` and the paper's 10-second cap.
    pub fn new(c: f64) -> UpdateDelayPolicy {
        assert!(c > 0.0 && c.is_finite());
        UpdateDelayPolicy { c, cap_secs: 10.0 }
    }

    /// Override the cap.
    pub fn with_cap(mut self, cap_secs: f64) -> UpdateDelayPolicy {
        assert!(cap_secs >= 0.0);
        self.cap_secs = cap_secs;
        self
    }

    /// Choose `c` so that at least a fraction `s` of an extracted copy of a
    /// Zipf(α)-updated dataset is stale (inverts Eq. 12:
    /// `c = s^α · (1+α)`).
    pub fn for_staleness(s: f64, alpha: f64) -> UpdateDelayPolicy {
        assert!((0.0..=1.0).contains(&s) && s > 0.0);
        assert!(alpha > 0.0);
        UpdateDelayPolicy::new(s.powf(alpha) * (1.0 + alpha))
    }

    /// Delay for a tuple with update rate `rate` (updates/sec) in a
    /// relation of `n` tuples: `min(cap, c / (N·rate))`. Never-updated
    /// tuples (`rate = 0`) pay the cap.
    pub fn delay_from_rate(&self, n: u64, rate: f64) -> f64 {
        if n == 0 {
            return self.cap_secs;
        }
        if rate <= 0.0 {
            return self.cap_secs;
        }
        (self.c / (n as f64 * rate)).min(self.cap_secs)
    }

    /// Analytic Eq. 9 form: delay for the tuple at update-rank `i` when
    /// rates are Zipf(α) with maximum rate `rmax`. The closed form the
    /// tests check the learned-rate delay against.
    #[cfg(test)]
    fn delay_for_rank(&self, n: u64, rank: u64, alpha: f64, rmax: f64) -> f64 {
        if n == 0 || rmax <= 0.0 {
            return self.cap_secs;
        }
        ((self.c / n as f64) * (rank as f64).powf(alpha) / rmax).min(self.cap_secs)
    }

    /// Delay using *learned* update statistics: rate is estimated as the
    /// tuple's decayed update count over the equally decayed observation
    /// window ([`decayed_window`]), so a key updated at a constant rate
    /// reads that rate whatever the update decay.
    pub fn delay(&self, updates: &FrequencyTracker, n: u64, key: u64, window_secs: f64) -> f64 {
        if window_secs <= 0.0 {
            return self.cap_secs;
        }
        let window = decayed_window(window_secs, updates.schedule().rate());
        let rate = updates.count(key) / window;
        self.delay_from_rate(n, rate)
    }

    /// Maximum staleness fraction guaranteed against a full extraction of a
    /// Zipf(α)-updated dataset (Eq. 12).
    pub fn smax(&self, alpha: f64) -> f64 {
        assert!(alpha > 0.0);
        (self.c / (1.0 + alpha)).powf(1.0 / alpha).min(1.0)
    }
}

/// The observation window as a decayed count sees it: under decay `g`
/// per second an update `t` seconds old weighs `g^-t`, so a key updated
/// once a second for `window_secs` = W seconds has counted
/// ∫₀^W g^-t dt = (1 − g^-W) / ln g updates, not W. Exactly `window_secs`
/// at `g = 1`, where nothing decays.
fn decayed_window(window_secs: f64, g: f64) -> f64 {
    if g == 1.0 {
        return window_secs;
    }
    let ln_g = g.ln();
    -(-window_secs * ln_g).exp_m1() / ln_g
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_popularity::DecaySchedule;

    #[test]
    fn hot_tuples_fast_cold_tuples_capped() {
        let p = UpdateDelayPolicy::new(1.0).with_cap(10.0);
        let n = 1000;
        let hot = p.delay_from_rate(n, 100.0);
        let warm = p.delay_from_rate(n, 0.01);
        let cold = p.delay_from_rate(n, 0.0);
        assert!(hot < warm);
        assert_eq!(cold, 10.0);
        assert!((hot - 1.0 / (1000.0 * 100.0)).abs() < 1e-12);
    }

    #[test]
    fn rank_form_matches_rate_form_under_zipf() {
        // r_i = rmax * i^-alpha  =>  both formulas agree.
        let p = UpdateDelayPolicy::new(2.0).with_cap(f64::INFINITY);
        let (n, alpha, rmax) = (10_000u64, 1.2, 5.0);
        for rank in [1u64, 3, 10, 100, 5000] {
            let rate = rmax * (rank as f64).powf(-alpha);
            let a = p.delay_for_rank(n, rank, alpha, rmax);
            let b = p.delay_from_rate(n, rate);
            assert!((a - b).abs() / a < 1e-12, "rank {rank}: {a} vs {b}");
        }
    }

    #[test]
    fn smax_matches_paper_equation() {
        // S_max = (c/(1+alpha))^(1/alpha)
        let p = UpdateDelayPolicy::new(1.5);
        let alpha = 1.0;
        assert!((p.smax(alpha) - 0.75).abs() < 1e-12);
        // Higher alpha (more focused updates) -> smaller stale fraction.
        assert!(p.smax(2.5) < p.smax(0.5));
    }

    #[test]
    fn for_staleness_round_trips() {
        for (s, alpha) in [(0.5, 1.0), (0.9, 1.5), (0.25, 0.75)] {
            let p = UpdateDelayPolicy::for_staleness(s, alpha);
            assert!((p.smax(alpha) - s).abs() < 1e-9, "s={s}, alpha={alpha}");
        }
    }

    #[test]
    fn smax_clamped_to_one() {
        let p = UpdateDelayPolicy::new(1e6);
        assert_eq!(p.smax(1.0), 1.0);
    }

    #[test]
    fn learned_delay_uses_window() {
        use delayguard_popularity::FrequencyTracker;
        let mut updates = FrequencyTracker::no_decay();
        for _ in 0..100 {
            updates.record(1);
        }
        let p = UpdateDelayPolicy::new(1.0).with_cap(10.0);
        // 100 updates over 50 s -> rate 2/s -> d = 1/(10*2) = 0.05.
        let d = p.delay(&updates, 10, 1, 50.0);
        assert!((d - 0.05).abs() < 1e-12);
        // Unknown key -> cap.
        assert_eq!(p.delay(&updates, 10, 2, 50.0), 10.0);
        // Degenerate window -> cap.
        assert_eq!(p.delay(&updates, 10, 1, 0.0), 10.0);
    }

    #[test]
    #[should_panic]
    fn non_positive_c_rejected() {
        UpdateDelayPolicy::new(0.0);
    }

    #[test]
    fn smax_limits_at_extreme_alpha() {
        // α → 0⁺ with c below 1+α: the exponent 1/α blows up on a base
        // below one, so the guarantee collapses to (numerically) zero —
        // uniform updates give extraction no time to go stale.
        let p = UpdateDelayPolicy::new(0.5);
        assert!(p.smax(0.01) < 1e-20, "got {}", p.smax(0.01));
        // α → 0⁺ with c above 1+α: base above one, the clamp engages and
        // the whole copy is guaranteed stale.
        let loud = UpdateDelayPolicy::new(2.0);
        assert_eq!(loud.smax(0.01), 1.0);
        // α ≥ 1: exact at the paper's α = 1 (c/2), approaches 1 from
        // below as the update skew concentrates everything on rank 1.
        let p = UpdateDelayPolicy::new(0.9);
        assert!((p.smax(1.0) - 0.45).abs() < 1e-12);
        for alpha in [1.0, 2.0, 8.0, 64.0] {
            let s = p.smax(alpha);
            assert!(s > 0.0 && s < 1.0, "alpha {alpha}: {s}");
        }
        assert!(p.smax(64.0) > 0.9, "got {}", p.smax(64.0));
    }

    #[test]
    fn for_staleness_round_trips_at_the_edges() {
        // Near-zero and near-total staleness targets, and the steep-skew
        // corner where c = s^α·(1+α) is tiny — the inversion must hold
        // everywhere new(c) accepts the result.
        for (s, alpha) in [(0.05, 2.0), (0.99, 1.0), (0.5, 8.0), (0.01, 0.5)] {
            let p = UpdateDelayPolicy::for_staleness(s, alpha);
            assert!(p.c > 0.0);
            assert!((p.smax(alpha) - s).abs() < 1e-9, "s={s}, alpha={alpha}");
        }
    }

    #[test]
    fn zero_rate_always_pays_the_cap() {
        // Never-updated tuples pay exactly the configured cap through
        // every entry point: empty tracker, empty relation, zero and
        // negative rates.
        let updates = FrequencyTracker::no_decay();
        for cap in [0.0, 0.5, 10.0, 3600.0] {
            let p = UpdateDelayPolicy::new(0.3).with_cap(cap);
            assert_eq!(p.delay(&updates, 1000, 7, 1e6), cap);
            assert_eq!(p.delay_from_rate(0, 5.0), cap);
            assert_eq!(p.delay_from_rate(1000, 0.0), cap);
            assert_eq!(p.delay_from_rate(1000, -1.0), cap);
        }
        // A zero cap also nulls positive-rate delays — the knob that
        // makes the combined policy's update term provably inert.
        let off = UpdateDelayPolicy::new(0.3).with_cap(0.0);
        assert_eq!(off.delay_from_rate(1000, 2.0), 0.0);
    }

    /// A key updated at a constant rate `r` from the window's start reads
    /// `r` back under any update decay: the decayed count is divided by
    /// the decayed window, not the raw one (which reads 5–20× too slow at
    /// g = 1.01 and W = 500–2000 s). Updates land every 10 ms, so the only
    /// gap to the continuous closed form is the discretisation,
    /// g^(dt/2) − 1 < 5e-4.
    #[test]
    fn constant_rate_key_reads_its_rate_under_update_decay() {
        let (r, dt, n) = (2.0, 0.01, 1000u64);
        let p = UpdateDelayPolicy::new(1.0).with_cap(f64::INFINITY);
        for g in [1.001f64, 1.01, 1.1] {
            for window in [100.0f64, 500.0, 1000.0, 2000.0] {
                let mut updates = FrequencyTracker::new(DecaySchedule::new(g));
                let steps = (window / dt).round() as u64;
                for i in 0..steps {
                    // Mid-slot stamps: each update stands for the dt
                    // around it, worth r·dt updates.
                    updates.advance_to((i as f64 + 0.5) * dt);
                    updates.record_weighted(7, r * dt);
                }
                updates.advance_to(window);
                let closed = r * (1.0 - g.powf(-window)) / g.ln();
                let count = updates.count(7);
                assert!(
                    (count / closed - 1.0).abs() < 5e-4,
                    "g={g} W={window}: count {count} vs closed form {closed}"
                );
                let want = 1.0 / (n as f64 * r);
                let got = p.delay(&updates, n, 7, window);
                assert!(
                    (got / want - 1.0).abs() < 5e-4,
                    "g={g} W={window}: delay {got} vs {want}"
                );
            }
        }
    }

    /// Without decay the window is the raw one, bit for bit.
    #[test]
    fn no_decay_window_is_the_raw_window() {
        for window in [1e-9, 0.5, 100.0, 1234.5678] {
            assert_eq!(decayed_window(window, 1.0).to_bits(), window.to_bits());
        }
        let mut updates = FrequencyTracker::no_decay();
        for _ in 0..30 {
            updates.record(3);
        }
        let p = UpdateDelayPolicy::new(0.7);
        let raw = p.delay_from_rate(500, updates.count(3) / 60.0);
        assert_eq!(p.delay(&updates, 500, 3, 60.0).to_bits(), raw.to_bits());
    }
}
