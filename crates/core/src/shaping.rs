//! Shaped delays: closing the timing side channel.
//!
//! The per-tuple delay of Eq. 1 is a *monotone* function of popularity
//! rank, so an adversary who merely times responses recovers the rank
//! order for free — and the rank order is exactly the targeting oracle
//! the rank-based-inference attacks need to aim extraction at the
//! high-value unpopular tail. [`DelayShaping`] breaks the monotone map
//! while preserving the economics:
//!
//! * **Geometric quantization.** Raw delays are rounded *up* to the
//!   nearest bucket edge `anchor · γ^m` (`m ∈ ℤ`). Within a bucket every
//!   tuple pays the same base price, so timing distinguishes at most
//!   `O(log_γ(d_max/d_min))` classes instead of `n` ranks. Rounding up
//!   (never down) keeps the Eq. 4 adversary total a lower bound: shaping
//!   can only make extraction *more* expensive.
//! * **Seeded deterministic jitter.** The bucket edge is multiplied by
//!   `1 + jitter_frac · u` where `u ∈ [0, 1)` is a hash of
//!   `(seed, query nonce, tuple key)`. Two queries for the same tuple see
//!   different delays (the attacker cannot average jitter away within one
//!   crawl pass we simulate), yet the whole schedule is a pure function
//!   of the seed — same seed ⇒ bit-identical runs, the testkit's replay
//!   contract.
//!
//! The validation constraint `jitter_frac ≤ γ − 1` makes the shaped
//! delay **monotone non-decreasing across bucket boundaries** for *any*
//! jitter draw: the largest value a bucket can emit,
//! `edge · (1 + jitter_frac) ≤ edge · γ`, never exceeds the next
//! bucket's smallest. Within a bucket, order is jitter-noise — which is
//! the point.
//!
//! Shaping is applied at the charge sites (the streaming
//! [`DeadlineStream`](crate::guarded::DeadlineStream) pricing paths and
//! the locked/snapshot select paths) *before* the charging-model fold,
//! so the deadline schedule, the server's timer wheel, DONE trailers and
//! the cluster replicas all speak the shaped schedule. With
//! `enabled = false` (the default) [`DelayShaping::shape`] returns the
//! raw delay bit-exactly: every pre-existing digest and property suite
//! is unchanged.

use crate::error::{GuardError, Result};

/// Quantize-and-jitter policy for shaping per-tuple delays.
///
/// Carried on [`GuardConfig`](crate::GuardConfig) and stamped onto each
/// published [`PolicySnapshot`](crate::PolicySnapshot) so observers can
/// tell which schedule a snapshot prices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayShaping {
    /// Master switch. `false` ⇒ [`shape`](DelayShaping::shape) is the
    /// bit-exact identity on the raw delay.
    pub enabled: bool,
    /// Top bucket edge, in seconds. Bucket edges are
    /// `anchor_secs · gamma^m` for integer `m ≤ 0` (and `m > 0` for raw
    /// delays above the anchor). Choose it at or above the policy cap so
    /// the most expensive tuples share one bucket.
    pub anchor_secs: f64,
    /// Geometric bucket ratio (> 1). Larger γ ⇒ fewer, coarser buckets
    /// ⇒ less rank information leaks, at more honest-user inflation.
    pub gamma: f64,
    /// Jitter amplitude as a fraction of the bucket edge, in
    /// `[0, gamma − 1]`. The shaped delay is
    /// `edge · (1 + jitter_frac · u)`, `u ∈ [0, 1)`.
    pub jitter_frac: f64,
    /// Seed for the jitter hash. Part of the deterministic-replay
    /// contract: `(seed, query nonce, tuple key)` fully determine `u`.
    pub seed: u64,
}

impl DelayShaping {
    /// Shaping disabled: `shape` is the identity. The default.
    pub fn off() -> DelayShaping {
        DelayShaping {
            enabled: false,
            anchor_secs: 1.0,
            gamma: 4.0,
            jitter_frac: 0.0,
            seed: 0,
        }
    }

    /// Enabled shaping with the given bucket geometry and jitter.
    pub fn new(anchor_secs: f64, gamma: f64, jitter_frac: f64, seed: u64) -> DelayShaping {
        DelayShaping {
            enabled: true,
            anchor_secs,
            gamma,
            jitter_frac,
            seed,
        }
    }

    /// Validate parameter ranges (called from `GuardConfig::validate`).
    pub fn validate(&self) -> Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.anchor_secs <= 0.0 || !self.anchor_secs.is_finite() {
            return Err(GuardError::Config(format!(
                "shaping anchor_secs must be positive and finite, got {}",
                self.anchor_secs
            )));
        }
        if self.gamma <= 1.0 || !self.gamma.is_finite() {
            return Err(GuardError::Config(format!(
                "shaping gamma must be > 1, got {}",
                self.gamma
            )));
        }
        if !(0.0..=self.gamma - 1.0).contains(&self.jitter_frac) || !self.jitter_frac.is_finite() {
            return Err(GuardError::Config(format!(
                "shaping jitter_frac must be in [0, gamma - 1] = [0, {}], got {} \
                 (the bound is what makes shaped delays monotone across buckets)",
                self.gamma - 1.0,
                self.jitter_frac
            )));
        }
        Ok(())
    }

    /// The bucket edge for a raw delay: the smallest `anchor · γ^m`
    /// (`m ∈ ℤ`) that is ≥ `raw`. Non-positive and non-finite raw delays
    /// pass through untouched (zero-delay tuples stay free; an infinite
    /// cap stays infinite).
    pub fn quantize(&self, raw: f64) -> f64 {
        if !self.enabled || raw <= 0.0 || !raw.is_finite() {
            return raw;
        }
        // m = ceil(log_γ(raw / anchor)); float log can land a hair under
        // the true integer, so correct upward until the edge covers raw.
        let m = (raw / self.anchor_secs).ln() / self.gamma.ln();
        let mut k = m.ceil() as i32;
        let mut edge = self.anchor_secs * self.gamma.powi(k);
        while edge < raw {
            k += 1;
            edge = self.anchor_secs * self.gamma.powi(k);
        }
        // Same guard downward: if the next-lower edge still covers raw,
        // ceil() overshot by one (raw exactly on an edge, log rounded up).
        loop {
            let lower = self.anchor_secs * self.gamma.powi(k - 1);
            if lower >= raw {
                k -= 1;
                edge = lower;
            } else {
                break;
            }
        }
        edge
    }

    /// The jitter draw `u ∈ [0, 1)` for `(seed, nonce, key)` —
    /// splitmix64-finalized so every input bit diffuses.
    pub(crate) fn jitter_u(&self, nonce: u64, key: u64) -> f64 {
        let mut h = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(nonce);
        h = splitmix(h);
        h = splitmix(h ^ key.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        // Top 53 bits → [0, 1) exactly representable in f64.
        (h >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// The shaped delay for one tuple: quantized bucket edge times
    /// `1 + jitter_frac · u`. Identity when disabled. The result is
    /// always ≥ `raw`, and monotone non-decreasing in `raw` across
    /// bucket boundaries for any `(nonce, key)` pair (see module docs).
    pub fn shape(&self, raw: f64, nonce: u64, key: u64) -> f64 {
        if !self.enabled {
            return raw;
        }
        let edge = self.quantize(raw);
        if edge <= 0.0 || !edge.is_finite() {
            return edge;
        }
        edge * (1.0 + self.jitter_frac * self.jitter_u(nonce, key))
    }

    /// Expected shaped delay for a raw delay, averaging over the uniform
    /// jitter draw: `quantize(raw) · (1 + jitter_frac / 2)`. The noisy
    /// closed forms in [`analysis`](crate::analysis) are built on this.
    pub fn expected(&self, raw: f64) -> f64 {
        if !self.enabled {
            return raw;
        }
        let edge = self.quantize(raw);
        if edge <= 0.0 || !edge.is_finite() {
            return edge;
        }
        edge * (1.0 + self.jitter_frac / 2.0)
    }
}

impl Default for DelayShaping {
    fn default() -> Self {
        DelayShaping::off()
    }
}

/// splitmix64 finalizer (public-domain constant schedule).
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_bit_exact_identity() {
        let s = DelayShaping::off();
        for raw in [0.0, 1e-9, 0.37, 1.0, 10.0, f64::INFINITY, -1.0] {
            assert_eq!(s.shape(raw, 7, 42).to_bits(), raw.to_bits());
            assert_eq!(s.quantize(raw).to_bits(), raw.to_bits());
            assert_eq!(s.expected(raw).to_bits(), raw.to_bits());
        }
    }

    #[test]
    fn quantize_rounds_up_to_geometric_edge() {
        let s = DelayShaping::new(8.0, 2.0, 0.0, 1);
        assert_eq!(s.quantize(8.0), 8.0);
        assert_eq!(s.quantize(5.0), 8.0);
        assert_eq!(s.quantize(4.0), 4.0);
        assert_eq!(s.quantize(3.9), 4.0);
        assert_eq!(s.quantize(9.0), 16.0);
        assert_eq!(s.quantize(0.6), 1.0);
        // Never below raw, never more than γ× above.
        for i in 1..2000 {
            let raw = i as f64 * 0.013;
            let q = s.quantize(raw);
            assert!(q >= raw, "quantize({raw}) = {q} < raw");
            assert!(
                q < raw * 2.0 * (1.0 + 1e-12),
                "quantize({raw}) = {q} too big"
            );
        }
    }

    #[test]
    fn quantize_passes_degenerate_inputs_through() {
        let s = DelayShaping::new(8.0, 2.0, 0.0, 1);
        assert_eq!(s.quantize(0.0), 0.0);
        assert_eq!(s.quantize(-3.0), -3.0);
        assert!(s.quantize(f64::INFINITY).is_infinite());
        assert!(s.quantize(f64::NAN).is_nan());
    }

    #[test]
    fn shape_is_at_least_raw_and_bounded() {
        let s = DelayShaping::new(10.0, 3.0, 0.5, 99);
        for i in 1..500 {
            let raw = i as f64 * 0.07;
            let d = s.shape(raw, i, i * 31);
            assert!(d >= raw);
            let edge = s.quantize(raw);
            assert!(d >= edge && d < edge * 1.5);
        }
    }

    #[test]
    fn shape_monotone_across_buckets_any_jitter() {
        // jitter_frac = γ − 1, the extreme allowed value: max of one
        // bucket equals min of the next. Sample adversarial key pairs.
        let s = DelayShaping::new(16.0, 2.0, 1.0, 5);
        for a in 1..200u64 {
            for &b in &[a + 1, a * 2, a + 37] {
                let (ra, rb) = (a as f64 * 0.11, b as f64 * 0.11);
                let (qa, qb) = (s.quantize(ra), s.quantize(rb));
                if qa < qb {
                    let da = s.shape(ra, 1, a);
                    let db = s.shape(rb, 2, b);
                    assert!(
                        da <= db,
                        "cross-bucket order violated: shape({ra})={da} > shape({rb})={db}"
                    );
                }
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_spread() {
        let s = DelayShaping::new(1.0, 4.0, 0.3, 12345);
        assert_eq!(
            s.shape(0.7, 9, 100).to_bits(),
            s.shape(0.7, 9, 100).to_bits(),
            "same (seed, nonce, key) must re-price identically"
        );
        assert_ne!(
            s.shape(0.7, 9, 100).to_bits(),
            s.shape(0.7, 10, 100).to_bits(),
            "different nonce must draw different jitter"
        );
        let mut us: Vec<f64> = (0..64).map(|k| s.jitter_u(1, k)).collect();
        us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(us[0] >= 0.0 && *us.last().unwrap() < 1.0);
        let mean = us.iter().sum::<f64>() / us.len() as f64;
        assert!((mean - 0.5).abs() < 0.15, "jitter mean {mean} far from 1/2");
    }

    #[test]
    fn expected_is_edge_times_half_jitter() {
        let s = DelayShaping::new(10.0, 5.0, 0.4, 0);
        assert_eq!(s.expected(7.0), 10.0 * 1.2);
        assert_eq!(s.expected(10.0), 10.0 * 1.2);
        assert_eq!(s.expected(0.5), 2.0 * 1.2);
    }

    #[test]
    fn validation_catches_bad_geometry() {
        assert!(DelayShaping::off().validate().is_ok());
        assert!(DelayShaping::new(1.0, 4.0, 0.25, 0).validate().is_ok());
        assert!(DelayShaping::new(0.0, 4.0, 0.25, 0).validate().is_err());
        assert!(DelayShaping::new(1.0, 1.0, 0.0, 0).validate().is_err());
        assert!(DelayShaping::new(1.0, f64::NAN, 0.0, 0).validate().is_err());
        assert!(DelayShaping::new(1.0, 4.0, -0.1, 0).validate().is_err());
        assert!(
            DelayShaping::new(1.0, 4.0, 3.0 + 1e-9, 0)
                .validate()
                .is_err(),
            "jitter_frac above gamma - 1 breaks cross-bucket monotonicity"
        );
        assert!(DelayShaping::new(1.0, 4.0, 3.0, 0).validate().is_ok());
        let mut bad = DelayShaping::new(0.0, 0.5, 9.0, 0);
        bad.enabled = false;
        assert!(bad.validate().is_ok(), "disabled shaping is never rejected");
    }
}
