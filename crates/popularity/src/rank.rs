//! Approximate order statistics over counts.
//!
//! The delay formula (paper Eq. 1) needs the *popularity rank* of a tuple.
//! Maintaining exact ranks under every count change costs `O(log n)` with a
//! balanced tree keyed by count — but counts are floats that all change
//! meaning under decay, so instead we bucket counts logarithmically
//! (resolution ≈ 1.6% per bucket) and keep a [`Fenwick`] tree of bucket
//! occupancies. Rank queries then cost `O(log B)` for `B` buckets and are
//! exact *across* buckets, tying only within a bucket — an error bounded by
//! the bucket's relative width, which is far below the workload noise the
//! scheme already tolerates.

use crate::fenwick::Fenwick;

/// Buckets per natural-log unit: bucket width `e^(1/64)` ≈ 1.57%.
const RESOLUTION: f64 = 64.0;
/// Bucket index offset so tiny counts stay in range.
const OFFSET: i64 = 2048;
/// Total bucket count: covers counts from ~e^-32 to ~e^96 (≈ 1e41).
const NUM_BUCKETS: usize = 8192;

/// Map a raw count to its bucket.
pub fn bucket_of(count: f64) -> usize {
    if count <= 0.0 || count.is_nan() || !count.is_finite() {
        return 0;
    }
    let b = (count.ln() * RESOLUTION).floor() as i64 + OFFSET;
    b.clamp(0, NUM_BUCKETS as i64 - 1) as usize
}

/// Log-bucketed multiset of counts supporting approximate rank queries.
#[derive(Debug, Clone)]
pub struct RankIndex {
    buckets: Fenwick,
}

impl RankIndex {
    /// An empty index.
    pub fn new() -> RankIndex {
        RankIndex {
            buckets: Fenwick::new(NUM_BUCKETS),
        }
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.buckets.total() as usize
    }

    /// Whether no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.buckets.total() == 0
    }

    /// Track a new entry with the given count.
    pub fn insert(&mut self, count: f64) {
        self.buckets.add(bucket_of(count), 1);
    }

    /// Remove an entry that had the given count.
    pub fn remove(&mut self, count: f64) {
        self.buckets.sub(bucket_of(count), 1);
    }

    /// Move an entry from `old` to `new` count (no-op if same bucket).
    pub fn update(&mut self, old: f64, new: f64) {
        let (a, b) = (bucket_of(old), bucket_of(new));
        if a != b {
            self.buckets.sub(a, 1);
            self.buckets.add(b, 1);
        }
    }

    /// 1-based rank of an entry with this count: the number of entries in
    /// strictly greater buckets plus the number of entries tied in the same
    /// bucket (including the entry itself). Ties therefore share the
    /// *worst* rank of their bucket — the conservative choice for the
    /// defense, since Eq. 1 delays grow with rank and under-ranking a tied
    /// group would under-charge the adversary for every tuple in it. For a
    /// probe count whose bucket is empty, this is `1 +` the greater count.
    pub fn rank(&self, count: f64) -> usize {
        let b = bucket_of(count);
        let above = self.buckets.suffix_above(b) as usize;
        let same = self.buckets.bucket(b) as usize;
        above + same.max(1)
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.buckets.clear();
    }
}

impl Default for RankIndex {
    fn default() -> Self {
        RankIndex::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_monotone_in_count() {
        let mut last = 0;
        for e in -200..200 {
            let c = (e as f64 * 0.1).exp();
            let b = bucket_of(c);
            assert!(b >= last, "bucket must not decrease");
            last = b;
        }
    }

    #[test]
    fn bucket_handles_degenerate_inputs() {
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);
        assert_eq!(bucket_of(f64::INFINITY), 0);
        assert_eq!(bucket_of(1e300), NUM_BUCKETS - 1);
    }

    #[test]
    fn rank_orders_distinct_magnitudes() {
        let mut r = RankIndex::new();
        r.insert(1.0);
        r.insert(10.0);
        r.insert(100.0);
        r.insert(1000.0);
        assert_eq!(r.rank(1000.0), 1);
        assert_eq!(r.rank(100.0), 2);
        assert_eq!(r.rank(10.0), 3);
        assert_eq!(r.rank(1.0), 4);
        // A hypothetical count between others slots correctly.
        assert_eq!(r.rank(50.0), 3);
        assert_eq!(r.rank(1e9), 1);
    }

    #[test]
    fn ties_share_worst_rank() {
        let mut r = RankIndex::new();
        for _ in 0..5 {
            r.insert(7.0);
        }
        r.insert(100.0);
        // One entry above, five tied: all five occupy the worst rank 6.
        assert_eq!(r.rank(7.0), 6);
        assert_eq!(r.rank(100.0), 1);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn update_moves_entries() {
        let mut r = RankIndex::new();
        r.insert(1.0);
        r.insert(2.0);
        assert_eq!(r.rank(1.0), 2);
        r.update(1.0, 400.0);
        assert_eq!(r.rank(400.0), 1);
        assert_eq!(r.rank(2.0), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn remove_and_clear() {
        let mut r = RankIndex::new();
        r.insert(5.0);
        r.insert(6.0);
        r.remove(5.0);
        assert_eq!(r.len(), 1);
        r.clear();
        assert!(r.is_empty());
    }

    #[test]
    fn rank_error_bounded_by_bucket_width() {
        // Counts differing by more than one bucket width (~1.6%) are always
        // ranked correctly relative to each other.
        let mut r = RankIndex::new();
        let mut counts = Vec::new();
        let mut c = 1.0;
        for _ in 0..100 {
            counts.push(c);
            r.insert(c);
            c *= 1.05; // > bucket width, so each lands in a distinct bucket
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(r.rank(c), 100 - i);
        }
    }
}
