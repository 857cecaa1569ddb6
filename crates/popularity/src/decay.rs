//! Exponential decay via the *inflated increment* technique (paper §2.3).
//!
//! The paper weights each request by a factor that decays exponentially
//! with age. Discounting every counter on every request would be `O(n)` per
//! access, so instead the *increment* is inflated: an access at time `t`
//! adds `g^t` (where `g` is the decay rate, `g ≥ 1`), and popularity is the
//! stored sum normalized by `g^now`. Older contributions are therefore
//! worth `g^(t_old - t_now) ≤ 1` of a fresh access — exactly exponential
//! decay — at `O(1)` per access.
//!
//! Age is measured on a clock the owner advances
//! ([`DecaySchedule::advance_to`]), never by counting events, so `g` is a
//! rate per unit of that clock: per second on a server, per request when a
//! replay issues request `i` at `t = i + 1` (the paper's Calgary decay "at
//! each request"), per week when it issues week `w`'s requests at `t = w`
//! (the box office's "decay factors at weekly boundaries").
//!
//! Inflated weights grow without bound, so the schedule signals when
//! counters must be *rescaled* (everything divided by the current weight):
//! the paper's "reset counters from time to time, at some loss of
//! precision".

/// Decay bookkeeping shared by a family of counters.
#[derive(Debug, Clone)]
pub struct DecaySchedule {
    rate: f64,
    weight: f64,
    /// The decay clock: the latest time passed to
    /// [`DecaySchedule::advance_to`] (starts at 0).
    now: f64,
    rescale_threshold: f64,
    rescales: u64,
}

impl DecaySchedule {
    /// A schedule with decay `rate` per unit of time (`1.0` = no decay).
    /// Rates slightly above 1 (e.g. `1.000001`) decay slowly; the paper
    /// sweeps `1.0..=1.00002` per request and `1.0..=5.0` per week.
    ///
    /// # Panics
    /// If `rate < 1.0` or is not finite.
    pub fn new(rate: f64) -> DecaySchedule {
        assert!(rate.is_finite() && rate >= 1.0, "decay rate must be >= 1.0");
        DecaySchedule {
            rate,
            weight: 1.0,
            now: 0.0,
            rescale_threshold: 1e100,
            rescales: 0,
        }
    }

    /// No decay: every access counts equally forever.
    pub fn none() -> DecaySchedule {
        DecaySchedule::new(1.0)
    }

    /// Override the weight threshold that triggers rescaling, so tests
    /// reach a rescale in a few steps.
    #[cfg(test)]
    pub(crate) fn with_rescale_threshold(mut self, threshold: f64) -> DecaySchedule {
        assert!(threshold > 1.0);
        self.rescale_threshold = threshold;
        self
    }

    /// The decay rate `g`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Current increment weight `g^now` (relative to the last rescale).
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Number of rescales performed so far.
    pub fn rescales(&self) -> u64 {
        self.rescales
    }

    /// Move the decay clock forward to `t`: increments from now on weigh
    /// `g^(t - now)` more. A `t` at or before the clock is a no-op, so
    /// events applied out of time order never rewind decay. One unit step
    /// multiplies by exactly `g`, so a clock stepped once per request
    /// reproduces per-request decay bit for bit; longer steps use `powf`.
    pub fn advance_to(&mut self, t: f64) {
        if t <= self.now || t.is_nan() {
            return;
        }
        let dt = t - self.now;
        self.now = t;
        if self.rate != 1.0 {
            self.weight *= if dt == 1.0 {
                self.rate
            } else {
                self.rate.powf(dt)
            };
        }
    }

    /// Whether counters sharing this schedule must be rescaled now to
    /// avoid precision loss / overflow.
    pub fn needs_rescale(&self) -> bool {
        self.weight >= self.rescale_threshold
    }

    /// Consume the accumulated weight for a rescale: returns the factor by
    /// which all counters must be divided, and resets the weight to 1.
    pub fn take_rescale_factor(&mut self) -> f64 {
        let f = self.weight;
        self.weight = 1.0;
        self.rescales += 1;
        f
    }

    /// Normalize a raw (inflated) count into "equivalent fresh accesses".
    pub fn normalize(&self, raw: f64) -> f64 {
        raw / self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_decay_keeps_weight_one() {
        let mut s = DecaySchedule::none();
        for t in 1..=1000 {
            s.advance_to(t as f64 * 0.7);
        }
        assert_eq!(s.weight(), 1.0);
        assert_eq!(s.now, 700.0);
        assert!(!s.needs_rescale());
    }

    #[test]
    fn weight_grows_geometrically() {
        let mut s = DecaySchedule::new(2.0);
        s.advance_to(1.0);
        s.advance_to(2.0);
        s.advance_to(3.0);
        assert_eq!(s.weight(), 8.0);
        assert_eq!(s.normalize(8.0), 1.0);
        assert_eq!(s.normalize(4.0), 0.5, "one-unit-old access worth 1/g");
        s.advance_to(3.5);
        assert!((s.weight() - 8.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut s = DecaySchedule::new(1.5);
        s.advance_to(4.0);
        let w = s.weight();
        for t in [4.0, 3.0, 0.0, -1.0, f64::NAN] {
            s.advance_to(t);
            assert_eq!(s.now, 4.0, "advance_to({t}) rewound the clock");
            assert_eq!(s.weight(), w);
        }
        s.advance_to(4.25);
        assert!(s.weight() > w);
        assert_eq!(s.now, 4.25);
    }

    #[test]
    fn unit_steps_match_one_k_step() {
        for k in [2u32, 7, 50] {
            let mut a = DecaySchedule::new(1.01);
            let mut b = DecaySchedule::new(1.01);
            for t in 1..=k {
                a.advance_to(t as f64);
            }
            b.advance_to(k as f64);
            assert!(
                (a.weight() - b.weight()).abs() / a.weight() < 1e-12,
                "k = {k}: {} vs {}",
                a.weight(),
                b.weight()
            );
        }
    }

    #[test]
    fn unit_step_multiplies_by_exactly_the_rate() {
        let mut s = DecaySchedule::new(1.00002);
        let mut w = 1.0f64;
        for t in 1..=10_000 {
            s.advance_to(t as f64);
            w *= 1.00002;
            assert_eq!(s.weight().to_bits(), w.to_bits(), "t = {t}");
        }
    }

    #[test]
    fn rescale_cycle() {
        let mut s = DecaySchedule::new(10.0).with_rescale_threshold(1e6);
        let mut raw = 0.0; // one access per unit of time
        let mut t = 0.0;
        while !s.needs_rescale() {
            t += 1.0;
            s.advance_to(t);
            raw += s.weight();
        }
        let before = s.normalize(raw);
        let f = s.take_rescale_factor();
        raw /= f;
        let after = s.normalize(raw);
        assert!(
            (before - after).abs() / before < 1e-9,
            "rescale preserves normalized value"
        );
        assert_eq!(s.rescales(), 1);
        assert_eq!(s.weight(), 1.0);
        assert_eq!(s.now, t, "a rescale leaves the clock alone");
    }

    #[test]
    #[should_panic]
    fn sub_one_rate_rejected() {
        DecaySchedule::new(0.5);
    }
}
