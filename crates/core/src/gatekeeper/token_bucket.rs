//! The plain token bucket, with virtual-time semantics: the reference
//! model `MergeableBucket`'s tests replay against (test builds only).
//!
//! A bucket per identity ("a simple imposition of a limit on queries from
//! a single user") and per subnet (aggregated limits, §2.4). Time is
//! passed in explicitly, as the product's buckets take it.

/// Tolerance for floating-point refill accumulation: without it, a bucket
/// refilled in many small steps systematically lands just below whole
/// tokens and grants drift late.
const EPS: f64 = 1e-9;

/// A classic token bucket: capacity `burst`, refilled at `rate` tokens/sec.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: f64,
}

impl TokenBucket {
    /// A bucket that starts full.
    ///
    /// # Panics
    /// If `rate` or `burst` is not positive and finite.
    pub(crate) fn new(rate: f64, burst: f64) -> TokenBucket {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(burst > 0.0 && burst.is_finite(), "burst must be positive");
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last: 0.0,
        }
    }

    fn refill(&mut self, now: f64) {
        if now > self.last {
            self.tokens = (self.tokens + (now - self.last) * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Try to take one token at time `now`. Returns true on success.
    pub(crate) fn try_take(&mut self, now: f64) -> bool {
        self.take_n(now, 1.0)
    }

    /// Try to take `n` tokens at time `now`.
    pub(crate) fn take_n(&mut self, now: f64, n: f64) -> bool {
        self.refill(now);
        if self.tokens + EPS >= n {
            self.tokens = (self.tokens - n).max(0.0);
            true
        } else {
            false
        }
    }

    /// Tokens currently available at time `now` (refills as a side effect).
    pub(crate) fn available(&mut self, now: f64) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// Earliest time at which `n` tokens will be available (≥ `now`).
    pub(crate) fn next_available(&mut self, now: f64, n: f64) -> f64 {
        self.refill(now);
        if self.tokens + EPS >= n {
            now
        } else {
            now + (n - self.tokens) / self.rate
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_then_throttle() {
        let mut b = TokenBucket::new(1.0, 5.0);
        for _ in 0..5 {
            assert!(b.try_take(0.0));
        }
        assert!(!b.try_take(0.0), "burst exhausted");
        assert!(!b.try_take(0.5), "half a token is not enough");
        assert!(b.try_take(1.0), "refilled after 1s");
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(100.0, 3.0);
        assert!((b.available(1_000.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn steady_state_rate_enforced() {
        let mut b = TokenBucket::new(2.0, 1.0);
        let mut granted = 0;
        let mut t = 0.0;
        while t < 100.0 {
            if b.try_take(t) {
                granted += 1;
            }
            t += 0.1;
        }
        // ~2/sec over 100s, plus the initial burst.
        assert!((granted as f64 - 201.0).abs() <= 2.0, "granted {granted}");
    }

    #[test]
    fn take_n_and_next_available() {
        let mut b = TokenBucket::new(4.0, 8.0);
        assert!(b.take_n(0.0, 8.0));
        assert!(!b.take_n(0.0, 0.1));
        let t = b.next_available(0.0, 4.0);
        assert!((t - 1.0).abs() < 1e-12);
        assert!(b.take_n(t, 4.0));
    }

    #[test]
    fn time_going_backwards_is_ignored() {
        let mut b = TokenBucket::new(1.0, 1.0);
        assert!(b.try_take(10.0));
        assert!(!b.try_take(5.0), "no refill from the past");
        assert!(b.try_take(11.0));
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }
}
