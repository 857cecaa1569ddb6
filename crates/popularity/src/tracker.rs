//! Per-key frequency tracking with decay, normalization, and ranks.
//!
//! [`FrequencyTracker`] implements the paper's count scheme (§2.3): each
//! tuple carries a count of the times it was requested; the count,
//! normalized by a global count of all requests, indicates popularity.
//! Decay is handled by the inflated-increment technique in
//! [`crate::decay`] on a clock the owner moves with
//! [`FrequencyTracker::advance_to`] (the guard advances it to each event's
//! time), and popularity *ranks* (needed by delay Eq. 1) come from the
//! log-bucketed order statistics in [`crate::rank`].
//!
//! The same structure tracks update rates for the §3 update-rate scheme —
//! "frequency" is just events per key.

use crate::decay::DecaySchedule;
use crate::rank::RankIndex;
use std::collections::HashMap;

/// Tracks decayed event frequencies per `u64` key (RowIds, object ids).
#[derive(Debug, Clone)]
pub struct FrequencyTracker {
    counts: HashMap<u64, f64>,
    schedule: DecaySchedule,
    rank: RankIndex,
    /// Sum of all raw (inflated) counts.
    total_raw: f64,
    /// Largest raw count over all keys (raw counts only grow between
    /// rescales, so a running max is exact).
    max_raw: f64,
    /// Total events ever recorded.
    events: u64,
}

impl FrequencyTracker {
    /// A tracker with the given decay schedule.
    pub fn new(schedule: DecaySchedule) -> FrequencyTracker {
        FrequencyTracker {
            counts: HashMap::new(),
            schedule,
            rank: RankIndex::new(),
            total_raw: 0.0,
            max_raw: 0.0,
            events: 0,
        }
    }

    /// A tracker that never decays (static distributions, paper Table 3's
    /// `decay = 1.0` row).
    pub fn no_decay() -> FrequencyTracker {
        FrequencyTracker::new(DecaySchedule::none())
    }

    /// The decay schedule in use.
    pub fn schedule(&self) -> &DecaySchedule {
        &self.schedule
    }

    /// Record one event for `key` at the current decay clock (see
    /// [`FrequencyTracker::advance_to`]).
    pub fn record(&mut self, key: u64) {
        self.record_weighted(key, 1.0);
    }

    /// Record an event worth `units` fresh accesses at the current decay
    /// clock: a weekly sales figure in one shot, or coalesced counts (a
    /// warm start, a peer's replicated delta) landing as one batch.
    pub fn record_weighted(&mut self, key: u64, units: f64) {
        self.apply(key, self.schedule.weight() * units);
        self.events += extra_events(units);
    }

    /// Move the decay clock forward to `t` (a no-op unless `t` is later
    /// than the clock): every count recorded so far loses `g^(t - now)`
    /// of its weight relative to events recorded from here on. Recording
    /// never moves the clock; the owner advances it to each event's time
    /// before recording it, so age is measured in time, not in traffic.
    pub fn advance_to(&mut self, t: f64) {
        self.schedule.advance_to(t);
        if self.schedule.needs_rescale() {
            self.rescale();
        }
    }

    /// Add a raw (already inflated) increment to a key's counter.
    ///
    /// Bumps `events` by one; weighted entry points add the remaining
    /// `units - 1` themselves via [`extra_events`], so a record worth
    /// `units` accesses counts as `units` requests in the undecayed
    /// global total that [`FrequencyTracker::fmax_global`] divides by.
    /// Without that, bulk-seeded counts (write-behind flushes,
    /// warm-started popularity) would dwarf the request count and push
    /// the "relative" frequency far above 1.
    fn apply(&mut self, key: u64, w: f64) {
        use std::collections::hash_map::Entry;
        let new = match self.counts.entry(key) {
            Entry::Occupied(mut e) => {
                // Already rank-indexed (possibly at count 0 via
                // `ensure_tracked`): move, don't re-insert.
                let old = *e.get();
                *e.get_mut() += w;
                let new = *e.get();
                self.rank.update(old, new);
                new
            }
            Entry::Vacant(e) => {
                e.insert(w);
                self.rank.insert(w);
                w
            }
        };
        self.total_raw += w;
        if new > self.max_raw {
            self.max_raw = new;
        }
        self.events += 1;
    }

    /// Pre-register a key with zero count so it participates in ranks
    /// ("we assume all items are equally unpopular with frequencies of
    /// zero", §2.3). Zero-count keys rank below every key with events.
    pub fn ensure_tracked(&mut self, key: u64) {
        if let std::collections::hash_map::Entry::Vacant(e) = self.counts.entry(key) {
            e.insert(0.0);
            self.rank.insert(0.0);
        }
    }

    /// Whether `key` has ever been seen (recorded or pre-registered).
    pub fn contains(&self, key: u64) -> bool {
        self.counts.contains_key(&key)
    }

    /// Number of distinct keys tracked (including zero-count keys).
    pub fn tracked(&self) -> usize {
        self.counts.len()
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Decay-normalized count for `key`, in units of "equivalent fresh
    /// accesses". Unknown keys count as zero.
    pub fn count(&self, key: u64) -> f64 {
        self.schedule
            .normalize(self.counts.get(&key).copied().unwrap_or(0.0))
    }

    /// Decay-normalized total of all counts.
    pub fn total(&self) -> f64 {
        self.schedule.normalize(self.total_raw)
    }

    /// Frequency of the most popular key (`f_max` in delay Eq. 1).
    pub fn fmax(&self) -> f64 {
        if self.total_raw <= 0.0 {
            return 0.0;
        }
        self.max_raw / self.total_raw
    }

    /// Largest decay-normalized count.
    pub fn max_count(&self) -> f64 {
        self.schedule.normalize(self.max_raw)
    }

    /// The paper's §2.3 popularity normalization: the (decayed) maximum
    /// count over "a global count of all requests" — the *undecayed*
    /// event total. Identical to [`FrequencyTracker::fmax`] without decay;
    /// under decay it shrinks as history is forgotten, which is what makes
    /// every delay grow with the decay rate in the paper's Tables 3–4.
    pub fn fmax_global(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.max_count() / self.events as f64
    }

    /// Approximate 1-based popularity rank of `key` among tracked keys
    /// (1 = most popular). Keys never seen rank after every tracked key.
    pub fn rank(&self, key: u64) -> usize {
        match self.counts.get(&key) {
            Some(&raw) => self.rank.rank(raw),
            None => self.tracked() + 1,
        }
    }

    /// Exact 1-based rank by linear scan (`O(n)`), with the same
    /// worst-rank tie semantics as [`FrequencyTracker::rank`]; the
    /// reference the tests compare against.
    pub fn exact_rank(&self, key: u64) -> usize {
        let Some(&mine) = self.counts.get(&key) else {
            return self.tracked() + 1;
        };
        let greater = self.counts.values().filter(|&&c| c > mine).count();
        let tied = self.counts.values().filter(|&&c| c == mine).count();
        greater + tied.max(1)
    }

    /// Iterate `(key, approximate 1-based rank)` pairs for every tracked
    /// key, in arbitrary order. Each rank is exactly what
    /// [`FrequencyTracker::rank`] would return for that key right now, so
    /// a frozen tracker can be flattened into a rank table once and
    /// probed without touching the hash map again (the snapshot pricing
    /// fast path).
    pub fn rank_table(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.counts
            .iter()
            .map(|(&k, &raw)| (k, self.rank.rank(raw)))
    }

    /// Iterate `(key, decay-normalized count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.counts
            .iter()
            .map(|(&k, &raw)| (k, self.schedule.normalize(raw)))
    }

    /// Snapshot the tracker as `(key, decay-normalized count)` pairs
    /// sorted by key: the deterministic wire form replication ships.
    /// Normalized counts are the decay-invariant representation — the
    /// receiver folds them back in at *its* current weight via
    /// [`FrequencyTracker::record_weighted`], so two trackers at
    /// different points in their inflated-increment/rescale cycles
    /// exchange state without either's arithmetic leaking into the other.
    pub fn export_counts(&self) -> Vec<(u64, f64)> {
        let mut out: Vec<(u64, f64)> = self.iter().collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Divide every stored quantity by the accumulated inflation factor and
    /// rebuild the rank index. Called automatically when the schedule
    /// signals overflow risk.
    fn rescale(&mut self) {
        let f = self.schedule.take_rescale_factor();
        debug_assert!(f > 1.0);
        self.rank.clear();
        for v in self.counts.values_mut() {
            *v /= f;
            self.rank.insert(*v);
        }
        self.total_raw /= f;
        self.max_raw /= f;
    }
}

/// Requests beyond the one [`FrequencyTracker::apply`] already counted
/// for a record worth `units` accesses. Fractional units (coalesced
/// write-behind deltas) round to the nearest whole request; anything
/// below 1 adds nothing extra.
fn extra_events(units: f64) -> u64 {
    (units.round() as u64).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative frequency of `key`: its count over the total count.
    /// Zero when nothing has been recorded.
    fn frequency(t: &FrequencyTracker, key: u64) -> f64 {
        if t.total_raw <= 0.0 {
            return 0.0;
        }
        t.counts.get(&key).copied().unwrap_or(0.0) / t.total_raw
    }

    #[test]
    fn counts_and_frequencies_no_decay() {
        let mut t = FrequencyTracker::no_decay();
        for _ in 0..30 {
            t.record(1);
        }
        for _ in 0..10 {
            t.record(2);
        }
        assert_eq!(t.count(1), 30.0);
        assert_eq!(t.count(2), 10.0);
        assert_eq!(t.count(99), 0.0);
        assert_eq!(t.total(), 40.0);
        assert!((frequency(&t, 1) - 0.75).abs() < 1e-12);
        assert!((t.fmax() - 0.75).abs() < 1e-12);
        assert_eq!(t.events(), 40);
        assert_eq!(t.tracked(), 2);
    }

    #[test]
    fn ranks_follow_counts() {
        let mut t = FrequencyTracker::no_decay();
        for key in 0..10u64 {
            // Key k gets 2^k accesses: unambiguous ranking.
            for _ in 0..(1u64 << key) {
                t.record(key);
            }
        }
        for key in 0..10u64 {
            assert_eq!(t.rank(key), (10 - key) as usize, "key {key}");
            assert_eq!(t.exact_rank(key), (10 - key) as usize);
        }
        assert_eq!(t.rank(777), 11, "unseen key ranks last");
    }

    #[test]
    fn zero_count_keys_rank_last() {
        let mut t = FrequencyTracker::no_decay();
        t.record(1);
        t.ensure_tracked(2);
        t.ensure_tracked(2); // idempotent
        t.ensure_tracked(3);
        assert_eq!(t.tracked(), 3);
        assert!(t.contains(2));
        assert!(!t.contains(9));
        assert_eq!(t.rank(1), 1);
        // Both zero-count keys tie at the worst rank.
        assert_eq!(t.rank(2), 3);
        assert_eq!(t.rank(3), 3);
        assert_eq!(t.exact_rank(2), 3);
        assert_eq!(frequency(&t, 2), 0.0);
    }

    #[test]
    fn decay_forgets_the_past() {
        // With strong decay, a key hammered long ago loses to a key
        // accessed recently.
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.1));
        for i in 1..=100 {
            t.advance_to(i as f64);
            t.record(1);
        }
        for i in 101..=120 {
            t.advance_to(i as f64);
            t.record(2);
        }
        assert!(
            t.count(2) > t.count(1),
            "recent key should dominate: {} vs {}",
            t.count(2),
            t.count(1)
        );
        assert_eq!(t.rank(2), 1);
    }

    #[test]
    fn no_decay_is_order_insensitive() {
        let mut a = FrequencyTracker::no_decay();
        let mut b = FrequencyTracker::no_decay();
        for _ in 0..50 {
            a.record(1);
        }
        for _ in 0..50 {
            a.record(2);
        }
        for _ in 0..50 {
            b.record(2);
        }
        for _ in 0..50 {
            b.record(1);
        }
        assert_eq!(a.count(1), b.count(1));
        assert_eq!(frequency(&a, 2), frequency(&b, 2));
    }

    #[test]
    fn rescale_preserves_normalized_state() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        for i in 0..100 {
            t.advance_to(i as f64);
            t.record(i % 7);
        }
        assert!(t.schedule().rescales() > 0, "rescale should have fired");
        // Normalized counts remain sane and ranks consistent with counts.
        let mut pairs: Vec<(u64, f64)> = t.iter().collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(t.rank(pairs[0].0), 1);
        let total: f64 = pairs.iter().map(|(_, c)| c).sum();
        assert!((total - t.total()).abs() / total < 1e-9);
    }

    #[test]
    fn ensure_tracked_then_record_does_not_duplicate_rank_entries() {
        // Regression: pre-registering a key and then recording it must
        // move its single rank entry, not add a second one.
        let mut t = FrequencyTracker::no_decay();
        for k in 0..100u64 {
            t.ensure_tracked(k);
        }
        for _ in 0..10 {
            t.record(0);
        }
        t.record(1);
        assert_eq!(t.tracked(), 100);
        assert_eq!(t.rank(0), 1);
        assert_eq!(t.rank(1), 2);
        // All 98 zero-count keys tie at the worst rank, exactly 100.
        assert_eq!(t.rank(50), 100);
        assert_eq!(t.exact_rank(50), 100);
    }

    #[test]
    fn record_does_not_advance_the_clock() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(2.0));
        t.record(1);
        t.record(1);
        assert_eq!(t.count(1), 2.0, "no inflation without time");
        assert_eq!(t.schedule().weight(), 1.0);
        t.advance_to(1.0);
        assert_eq!(t.count(1), 1.0, "one unit of time halves the count");
        t.record(2);
        assert_eq!(t.count(2), 1.0, "new events worth 1 at current weight");
    }

    #[test]
    fn weighted_records() {
        let mut t = FrequencyTracker::no_decay();
        t.record_weighted(1, 100.0);
        t.record(2);
        assert_eq!(t.count(1), 100.0);
        assert!((frequency(&t, 1) - 100.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_decays_without_events() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(2.0));
        t.record(1);
        let before = t.count(1);
        t.advance_to(1.0);
        let after = t.count(1);
        assert!((after - before / 2.0).abs() < 1e-12);
        assert_eq!(t.events(), 1);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.5));
        t.record(1);
        t.advance_to(10.0);
        let count = t.count(1);
        for back in [10.0, 9.0, 3.5, 0.0] {
            t.advance_to(back);
            assert_eq!(t.count(1), count, "advance_to({back}) moved decay");
        }
        t.advance_to(11.0);
        assert!(t.count(1) < count);
    }

    #[test]
    fn k_unit_steps_equal_one_k_step() {
        let mut stepped = FrequencyTracker::new(DecaySchedule::new(1.03));
        let mut jumped = FrequencyTracker::new(DecaySchedule::new(1.03));
        for tr in [&mut stepped, &mut jumped] {
            tr.record(1);
            tr.record(2);
        }
        for t in 1..=40 {
            stepped.advance_to(t as f64);
        }
        jumped.advance_to(40.0);
        for tr in [&mut stepped, &mut jumped] {
            tr.record(2);
        }
        for key in [1, 2] {
            let (a, b) = (stepped.count(key), jumped.count(key));
            assert!((a - b).abs() <= a * 1e-12, "key {key}: {a} vs {b}");
        }
        assert!((stepped.total() - jumped.total()).abs() <= stepped.total() * 1e-12);
    }

    #[test]
    fn rescale_fires_when_time_alone_advances() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(10.0).with_rescale_threshold(1e6));
        t.record(1);
        t.advance_to(5.0);
        assert_eq!(t.schedule().rescales(), 0);
        t.advance_to(6.0);
        assert_eq!(
            t.schedule().rescales(),
            1,
            "weight 1e6 reached the threshold"
        );
        assert_eq!(t.schedule().weight(), 1.0);
        assert!((t.count(1) - 1e-6).abs() <= 1e-18);
        assert!((t.total() - 1e-6).abs() <= 1e-18);
        assert_eq!(t.rank(1), 1);
    }

    #[test]
    fn unit_rate_keeps_weight_exactly_one() {
        let mut t = FrequencyTracker::no_decay();
        for i in 0..1000u64 {
            t.advance_to(i as f64 * 3.25);
            t.record(i % 5);
        }
        t.advance_to(1e12);
        assert_eq!(t.schedule().weight(), 1.0);
        assert_eq!(t.count(0), 200.0);
        assert_eq!(t.total(), 1000.0);
    }

    #[test]
    fn export_fold_roundtrip_is_decay_invariant() {
        // A tracker deep into its inflation cycle (rescales included)
        // exports normalized counts; folding them into a fresh tracker
        // reproduces counts, frequencies and ranks.
        let mut src = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        for i in 0..200u64 {
            src.advance_to(i as f64);
            src.record(i % 11);
        }
        assert!(src.schedule().rescales() > 0);
        let exported = src.export_counts();
        let mut dst = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        // Put the receiver at a different point in its own cycle first.
        dst.advance_to(17.0);
        for &(k, units) in &exported {
            dst.record_weighted(k, units);
        }
        for k in 0..11u64 {
            let a = src.count(k);
            let b = dst.count(k);
            assert!(
                (a - b).abs() <= a.abs() * 1e-9,
                "key {k}: {a} vs {b} despite normalization"
            );
            assert_eq!(src.rank(k), dst.rank(k), "key {k}");
        }
        assert!((src.fmax() - dst.fmax()).abs() < 1e-12);
    }

    #[test]
    fn export_counts_is_sorted_and_complete() {
        let mut t = FrequencyTracker::no_decay();
        t.record(9);
        t.record(3);
        t.ensure_tracked(7);
        let e = t.export_counts();
        assert_eq!(e, vec![(3, 1.0), (7, 0.0), (9, 1.0)]);
    }

    #[test]
    fn rank_table_matches_rank_per_key() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.2));
        for i in 0..500u64 {
            t.advance_to(i as f64);
            t.record(i % 23);
        }
        t.ensure_tracked(1000);
        let table: Vec<(u64, usize)> = t.rank_table().collect();
        assert_eq!(table.len(), t.tracked());
        for (key, rank) in table {
            assert_eq!(rank, t.rank(key), "key {key}");
        }
    }

    #[test]
    fn approx_rank_tracks_exact_rank_closely() {
        // Zipf-ish synthetic counts; approximate rank must stay within the
        // tie-width of exact rank.
        let mut t = FrequencyTracker::no_decay();
        let mut x: u64 = 12345;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Skewed key choice: low keys much more likely.
            let key = (x % 64).min(x % 17).min(x % 5);
            t.record(key);
        }
        for key in 0..20u64 {
            let a = t.rank(key);
            let e = t.exact_rank(key);
            // Ranks agree up to ties within one log-bucket.
            assert!(
                (a as i64 - e as i64).abs() <= 3,
                "key {key}: approx {a} vs exact {e}"
            );
        }
    }
}
