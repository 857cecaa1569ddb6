//! Access-rate delay policy (paper §2.1–§2.3).
//!
//! Implements Eq. 1 with the Eq. 5 cap:
//!
//! ```text
//! d(i) = min( d_max,  (1/N) · i^(α+β) / f_max )
//! ```
//!
//! where `i` is the tuple's popularity rank (1 = most popular), `N` the
//! relation size, `f_max` the relative frequency of the most popular
//! tuple, `α` the assumed skew of the workload, and `β` the operator's
//! aggressiveness knob ("chosen to balance the desired penalty imposed on
//! an extraction attack with the undesirable delays to legitimate users").
//!
//! Start-up transients (§2.3) fall out naturally: before any counts exist
//! `f_max = 0`, every rank is "last", and all delays sit at the cap; as the
//! distribution is learned, delays of popular items collapse toward zero.

use delayguard_popularity::FrequencyTracker;

/// How `f_max` is estimated from learned counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FmaxMode {
    /// §2.3 literally: the (decayed) top count "normalized by a global
    /// count of all requests". Under decay this shrinks as history is
    /// forgotten, inflating all delays — the behaviour behind the
    /// decay-rate sweeps of Tables 3–4.
    #[default]
    GlobalRequests,
    /// Decay-aware: top count over the *decayed* total; the mathematically
    /// self-consistent relative frequency. Its one user is the testkit's
    /// campaign world (`testkit::campaign`).
    DecayedTotal,
    /// The (decayed) top count itself, unnormalized. Reading Eq. 1's
    /// `f_max` as "the frequency with which the most popular item is
    /// requested" in *absolute events* rather than as a relative
    /// frequency. The paper's box-office experiment (Table 4) is only
    /// consistent with this reading; see EXPERIMENTS.md.
    RawCount,
}

/// Parameters of the access-rate delay policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessDelayPolicy {
    /// Assumed Zipf parameter of the legitimate workload (`α`).
    pub alpha: f64,
    /// Penalty exponent (`β`): higher hurts the adversary more.
    pub beta: f64,
    /// Maximum delay added to any single tuple, in seconds (`d_max`).
    pub cap_secs: f64,
    /// `f_max` estimation mode.
    pub fmax_mode: FmaxMode,
}

impl AccessDelayPolicy {
    /// A policy with the paper's default 10-second cap.
    pub fn new(alpha: f64, beta: f64) -> AccessDelayPolicy {
        AccessDelayPolicy {
            alpha,
            beta,
            cap_secs: 10.0,
            fmax_mode: FmaxMode::GlobalRequests,
        }
    }

    /// Override the `f_max` estimation mode.
    pub fn with_fmax_mode(mut self, mode: FmaxMode) -> AccessDelayPolicy {
        self.fmax_mode = mode;
        self
    }

    /// The `f_max` estimate this policy reads from a tracker.
    pub fn fmax_of(&self, tracker: &FrequencyTracker) -> f64 {
        match self.fmax_mode {
            FmaxMode::GlobalRequests => tracker.fmax_global(),
            FmaxMode::DecayedTotal => tracker.fmax(),
            FmaxMode::RawCount => tracker.max_count(),
        }
    }

    /// Override the cap (Table 2 sweeps 0.1 s – 100 s). `f64::INFINITY`
    /// disables capping (the uncapped Eq. 1 scheme of §2.1).
    pub fn with_cap(mut self, cap_secs: f64) -> AccessDelayPolicy {
        assert!(cap_secs >= 0.0, "cap must be non-negative");
        self.cap_secs = cap_secs;
        self
    }

    /// The uncapped Eq. 1 delay for popularity rank `rank` in a relation of
    /// `n` tuples whose most popular tuple has relative frequency `fmax`.
    pub fn raw_delay(&self, n: u64, rank: usize, fmax: f64) -> f64 {
        if n == 0 || fmax <= 0.0 {
            return f64::INFINITY; // nothing learned yet: treat as most obscure
        }
        (rank as f64).powf(self.alpha + self.beta) / (n as f64 * fmax)
    }

    /// The capped delay for a rank (Eq. 5).
    pub fn delay_for_rank(&self, n: u64, rank: usize, fmax: f64) -> f64 {
        self.raw_delay(n, rank, fmax).min(self.cap_secs)
    }

    /// The capped delay for a concrete tuple given learned statistics.
    /// A key the tracker has never seen is treated as the least popular
    /// tuple of the relation (rank `n`): the tracker only knows about the
    /// keys it has observed, but the relation has `n` tuples.
    pub fn delay(&self, tracker: &FrequencyTracker, n: u64, key: u64) -> f64 {
        let fmax = self.fmax_of(tracker);
        let rank = if tracker.contains(key) {
            tracker.rank(key)
        } else {
            n as usize
        };
        self.delay_for_rank(n, rank, fmax)
    }

    /// The cap rank `M` (Eq. 5): the smallest rank whose uncapped delay
    /// meets the cap. Ranks `>= M` are all charged `cap_secs`.
    pub fn cap_rank(&self, n: u64, fmax: f64) -> u64 {
        if fmax <= 0.0 || n == 0 {
            return 1; // everything capped during start-up
        }
        let exponent = self.alpha + self.beta;
        if exponent <= 0.0 {
            return 1;
        }
        let m = (self.cap_secs * n as f64 * fmax).powf(1.0 / exponent);
        (m.ceil() as u64).clamp(1, n)
    }

    /// Flatten a frozen tracker into a [`PackedAccessDelays`] table for
    /// this policy: sorted keys plus each key's precomputed delay
    /// numerator `rank^(α+β)`, with `f_max` evaluated once. Pricing a
    /// tuple from the packed table is a binary search and one division —
    /// no hash probes, no `powf`, no tracker access — and is bit-identical
    /// to [`AccessDelayPolicy::delay`] against the same frozen tracker
    /// because every floating-point operation has the same shape and
    /// inputs (`powf` at pack time over the same rank, the same
    /// `n·f_max` product, the same `min` against the cap).
    pub fn pack(&self, tracker: &FrequencyTracker) -> PackedAccessDelays {
        let exponent = self.alpha + self.beta;
        let mut pairs: Vec<(u64, usize)> = tracker.rank_table().collect();
        pairs.sort_unstable_by_key(|&(key, _)| key);
        PackedAccessDelays {
            policy: *self,
            fmax: self.fmax_of(tracker),
            keys: pairs.iter().map(|&(key, _)| key).collect(),
            numer: pairs
                .iter()
                .map(|&(_, rank)| (rank as f64).powf(exponent))
                .collect(),
        }
    }
}

/// A frozen tracker's delay inputs packed into flat, rank-ordered
/// arrays: the cache-friendly form of [`AccessDelayPolicy::delay`] for
/// the snapshot pricing hot path.
///
/// Built once per snapshot by [`AccessDelayPolicy::pack`]; priced
/// per-stream by first fixing the relation-size scalars
/// ([`PackedAccessDelays::scalars`]) and then calling
/// [`PackedAccessDelays::delay`] per tuple. The result is bit-identical
/// to the generic tracker walk for every key, tracked or not.
#[derive(Debug, Clone)]
pub struct PackedAccessDelays {
    /// The policy the table was packed for (delays are only valid — and
    /// only bit-exact — against this exact policy).
    policy: AccessDelayPolicy,
    /// `f_max` evaluated against the frozen tracker at pack time.
    fmax: f64,
    /// Every tracked key, sorted ascending for binary search.
    keys: Vec<u64>,
    /// `rank^(α+β)` for the key at the same position in `keys`.
    numer: Vec<f64>,
}

/// Per-stream scalars fixed by [`PackedAccessDelays::scalars`] when a
/// query opens: everything in Eq. 1 that depends on the relation size
/// `n` but not on the individual tuple.
#[derive(Debug, Clone, Copy)]
pub struct PackedScalars {
    /// `n · f_max` — the delay denominator.
    nf: f64,
    /// `n^(α+β)` — the numerator charged to keys the tracker never saw
    /// (they rank last, i.e. at `n`).
    untracked_numer: f64,
    /// Start-up transient: `n == 0` or `f_max <= 0` prices everything at
    /// the cap (via `INFINITY.min(cap)`, exactly like the generic path).
    degenerate: bool,
}

impl PackedAccessDelays {
    /// Whether this packed table was built for exactly `policy` (delays
    /// from a stale pack under a different policy would be wrong, not
    /// just slow).
    pub fn matches(&self, policy: &AccessDelayPolicy) -> bool {
        self.policy == *policy
    }

    /// The `f_max` frozen into this pack.
    pub fn fmax(&self) -> f64 {
        self.fmax
    }

    /// Number of packed keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the pack holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Fix the per-stream scalars for a relation of `n` rows.
    pub fn scalars(&self, n: u64) -> PackedScalars {
        PackedScalars {
            nf: n as f64 * self.fmax,
            untracked_numer: (n as f64).powf(self.policy.alpha + self.policy.beta),
            degenerate: n == 0 || self.fmax <= 0.0,
        }
    }

    /// The capped Eq. 5 delay for `key`: bit-identical to
    /// [`AccessDelayPolicy::delay`] on the tracker this pack froze, with
    /// `n` as passed to [`PackedAccessDelays::scalars`].
    #[inline]
    pub fn delay(&self, s: &PackedScalars, key: u64) -> f64 {
        let raw = if s.degenerate {
            f64::INFINITY
        } else {
            let numer = match self.keys.binary_search(&key) {
                Ok(i) => self.numer[i],
                Err(_) => s.untracked_numer,
            };
            numer / s.nf
        };
        raw.min(self.policy.cap_secs)
    }

    /// [`PackedAccessDelays::delay`] with a position hint for sequential
    /// workloads. Rows pulled by an index range scan arrive in key order,
    /// so each lookup usually lands right where the previous one left
    /// off; checking that slot (and the miss-side insertion point) before
    /// falling back to binary search makes pricing a scanned chunk O(1)
    /// per tuple instead of O(log keys). Returns bit-identical delays to
    /// [`PackedAccessDelays::delay`] for every key and any hint value.
    #[inline]
    pub fn delay_seq(&self, s: &PackedScalars, key: u64, hint: &mut usize) -> f64 {
        if s.degenerate {
            return f64::INFINITY.min(self.policy.cap_secs);
        }
        let i = *hint;
        let numer = if i < self.keys.len() && self.keys[i] == key {
            *hint = i + 1;
            self.numer[i]
        } else if i < self.keys.len() && self.keys[i] > key && (i == 0 || self.keys[i - 1] < key) {
            // `key` falls in the gap just before the hint: untracked.
            s.untracked_numer
        } else {
            match self.keys.binary_search(&key) {
                Ok(j) => {
                    *hint = j + 1;
                    self.numer[j]
                }
                Err(j) => {
                    *hint = j;
                    s.untracked_numer
                }
            }
        };
        (numer / s.nf).min(self.policy.cap_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What extracting tuples `0..n` costs: each one's delay, once.
    fn extraction_cost(p: &AccessDelayPolicy, t: &FrequencyTracker, n: u64) -> f64 {
        (0..n).map(|key| p.delay(t, n, key)).sum()
    }

    fn learned_tracker() -> FrequencyTracker {
        // Keys 0..10 with counts 2^(10-k): key 0 most popular.
        let mut t = FrequencyTracker::no_decay();
        for key in 0..10u64 {
            for _ in 0..(1u64 << (10 - key)) {
                t.record(key);
            }
        }
        t
    }

    #[test]
    fn popular_items_get_short_delays() {
        let t = learned_tracker();
        let p = AccessDelayPolicy::new(1.0, 1.0);
        let d_popular = p.delay(&t, 10, 0);
        let d_unpopular = p.delay(&t, 10, 9);
        assert!(d_popular < d_unpopular);
        // Rank 1, alpha+beta=2, fmax ~ 0.5: d = 1/(10*0.5) = 0.2.
        assert!((d_popular - 1.0 / (10.0 * t.fmax())).abs() < 1e-9);
    }

    #[test]
    fn unseen_tuple_pays_cap() {
        let t = learned_tracker();
        let p = AccessDelayPolicy::new(1.0, 1.0).with_cap(5.0);
        assert_eq!(p.delay(&t, 1000, 999_999), 5.0);
    }

    #[test]
    fn startup_transient_all_capped() {
        let t = FrequencyTracker::no_decay();
        let p = AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0);
        assert_eq!(p.delay(&t, 100, 0), 10.0);
        assert_eq!(p.cap_rank(100, t.fmax()), 1);
    }

    #[test]
    fn delay_monotone_in_rank() {
        let p = AccessDelayPolicy::new(1.5, 0.5).with_cap(f64::INFINITY);
        let mut last = 0.0;
        for rank in 1..100 {
            let d = p.delay_for_rank(10_000, rank, 0.3);
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn cap_rank_splits_capped_from_uncapped() {
        let p = AccessDelayPolicy::new(1.0, 1.0).with_cap(1.0);
        let n = 10_000u64;
        let fmax = 0.2;
        let m = p.cap_rank(n, fmax);
        assert!(m > 1 && m < n);
        // Just below M: uncapped. At/above M: capped.
        assert!(p.raw_delay(n, (m - 1) as usize, fmax) < 1.0 + 1e-9);
        assert!(p.raw_delay(n, (m + 1) as usize, fmax) >= 1.0);
        assert_eq!(p.delay_for_rank(n, (m + 1) as usize, fmax), 1.0);
    }

    #[test]
    fn higher_beta_hurts_adversary_more() {
        let t = learned_tracker();
        let lo = AccessDelayPolicy::new(1.0, 0.5).with_cap(1e9);
        let hi = AccessDelayPolicy::new(1.0, 2.0).with_cap(1e9);
        assert!(extraction_cost(&hi, &t, 1000) > extraction_cost(&lo, &t, 1000));
    }

    #[test]
    fn adversary_total_charges_unseen_at_cap() {
        let t = learned_tracker(); // 10 tracked keys
        let p = AccessDelayPolicy::new(1.0, 1.0).with_cap(10.0);
        let total = extraction_cost(&p, &t, 1_000);
        // 990 unseen keys at the 10 s cap dominate.
        assert!(total >= 9_900.0);
        assert!(total <= 10_000.0 + 1.0);
    }

    #[test]
    fn packed_delays_are_bit_identical_to_tracker_walk() {
        // Randomized trackers across fmax modes, caps (including 0 and
        // uncapped), and relation sizes (including n = 0): the packed
        // table must reproduce `AccessDelayPolicy::delay` to the bit for
        // tracked and untracked keys alike.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..40u32 {
            let mut t = FrequencyTracker::new(if case % 2 == 0 {
                delayguard_popularity::DecaySchedule::none()
            } else {
                delayguard_popularity::DecaySchedule::new(1.01)
            });
            let keys = (case % 7) as u64 * 13;
            for i in 0..(case as u64 * 17) {
                t.advance_to(i as f64);
                t.record(next() % (keys + 1));
            }
            if case % 3 == 0 {
                t.ensure_tracked(next() % 1000);
            }
            let mode = match case % 3 {
                0 => FmaxMode::GlobalRequests,
                1 => FmaxMode::DecayedTotal,
                _ => FmaxMode::RawCount,
            };
            let cap = [0.0, 1.0, 10.0, f64::INFINITY][case as usize % 4];
            let p = AccessDelayPolicy::new(0.8, 1.2)
                .with_fmax_mode(mode)
                .with_cap(cap);
            let packed = p.pack(&t);
            assert!(packed.matches(&p));
            assert!(!packed.matches(&AccessDelayPolicy { beta: 1.3, ..p }));
            for n in [0u64, 1, t.tracked() as u64 + 5, 10_000] {
                let s = packed.scalars(n);
                let probe: Vec<u64> = t
                    .rank_table()
                    .map(|(k, _)| k)
                    .chain([next() % 2000, u64::MAX, 0])
                    .collect();
                for key in probe {
                    assert_eq!(
                        packed.delay(&s, key).to_bits(),
                        p.delay(&t, n, key).to_bits(),
                        "case {case} n {n} key {key}"
                    );
                }
            }
        }
    }

    #[test]
    fn hinted_lookup_is_bit_identical_to_binary_search() {
        // `delay_seq` must agree with `delay` to the bit for every key
        // and *any* hint value — sequential scans, random probes,
        // untracked keys, and stale hints left over from another chunk.
        let mut x: u64 = 0x2545f4914f6cdd1d;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..20u32 {
            let mut t = FrequencyTracker::no_decay();
            for _ in 0..(case as u64 * 31) {
                t.record(next() % 97);
            }
            let cap = [0.0, 10.0, f64::INFINITY][case as usize % 3];
            let p = AccessDelayPolicy::new(1.5, 1.0).with_cap(cap);
            let packed = p.pack(&t);
            for n in [0u64, 1, 500] {
                let s = packed.scalars(n);
                // Sequential ascending sweep, the intended usage.
                let mut hint = 0usize;
                for key in 0..120u64 {
                    assert_eq!(
                        packed.delay_seq(&s, key, &mut hint).to_bits(),
                        packed.delay(&s, key).to_bits(),
                        "case {case} n {n} seq key {key}"
                    );
                }
                // Random keys against arbitrary (possibly stale) hints.
                for _ in 0..200 {
                    let key = next() % 150;
                    let mut hint = (next() % 140) as usize;
                    assert_eq!(
                        packed.delay_seq(&s, key, &mut hint).to_bits(),
                        packed.delay(&s, key).to_bits(),
                        "case {case} n {n} random key {key}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_cap_disables_delays() {
        let t = learned_tracker();
        let p = AccessDelayPolicy::new(1.0, 1.0).with_cap(0.0);
        assert_eq!(p.delay(&t, 10, 0), 0.0);
        assert_eq!(extraction_cost(&p, &t, 100), 0.0);
    }
}
