//! Approximate order statistics over counts.
//!
//! The delay formula (paper Eq. 1) needs the *popularity rank* of a tuple.
//! Maintaining exact ranks under every count change costs `O(log n)` with a
//! balanced tree keyed by count — but counts are floats that all change
//! meaning under decay, so instead we bucket counts logarithmically
//! (resolution ≈ 1.6% per bucket) and keep a `Fenwick` tree of bucket
//! occupancies. Rank queries then cost `O(log B)` for `B` buckets and are
//! exact *across* buckets, tying only within a bucket — an error bounded by
//! the bucket's relative width, which is far below the workload noise the
//! scheme already tolerates.

use crate::fenwick::Fenwick;
use std::sync::OnceLock;

/// Buckets per natural-log unit: bucket width `e^(1/64)` ≈ 1.57%.
const RESOLUTION: f64 = 64.0;
/// Bucket index offset so tiny counts stay in range.
const OFFSET: i64 = 2048;
/// Total bucket count: covers counts from ~e^-32 to ~e^96 (≈ 1e41).
pub(crate) const NUM_BUCKETS: usize = 8192;
/// Whole counts below this map through a precomputed table (no `ln`).
const WHOLE_COUNTS: usize = 1 << 14;

/// Map a raw count to its bucket.
///
/// Whole counts — every count without decay — read a table that
/// `bucket_by_ln` filled once, so the answer is the same bits either
/// way and a record pays no logarithm.
#[inline]
pub fn bucket_of(count: f64) -> usize {
    let whole = count as u32;
    if whole as f64 == count && (whole as usize) < WHOLE_COUNTS {
        return whole_count_buckets()[whole as usize] as usize;
    }
    bucket_by_ln(count)
}

fn whole_count_buckets() -> &'static [u16] {
    static TABLE: OnceLock<Box<[u16]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..WHOLE_COUNTS)
            .map(|c| bucket_by_ln(c as f64) as u16)
            .collect()
    })
}

fn bucket_by_ln(count: f64) -> usize {
    if count <= 0.0 || count.is_nan() || !count.is_finite() {
        return 0;
    }
    let b = (count.ln() * RESOLUTION).floor() as i64 + OFFSET;
    b.clamp(0, NUM_BUCKETS as i64 - 1) as usize
}

/// Log-bucketed multiset of counts supporting approximate rank queries.
///
/// Entries are addressed by bucket ([`bucket_of`]); callers that already
/// know an entry's bucket (the tracker computes it once per record) pass
/// it directly.
#[derive(Debug, Clone)]
pub struct RankIndex {
    /// Prefix sums of `occupancy`, for "how many entries rank above".
    buckets: Fenwick,
    /// Entries per bucket, read in O(1).
    occupancy: Vec<u32>,
}

impl RankIndex {
    /// An empty index.
    pub fn new() -> RankIndex {
        RankIndex {
            buckets: Fenwick::new(NUM_BUCKETS),
            occupancy: vec![0; NUM_BUCKETS],
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

    /// Track a new entry in bucket `b`.
    pub fn insert(&mut self, b: usize) {
        self.buckets.add(b, 1);
        self.occupancy[b] += 1;
    }

    /// Move an entry from bucket `from` to bucket `to` (no-op if equal).
    pub(crate) fn shift(&mut self, from: usize, to: usize) {
        if from != to {
            debug_assert!(self.occupancy[from] > 0, "bucket {from} underflow");
            self.buckets.shift(from, to, 1);
            self.occupancy[from] -= 1;
            self.occupancy[to] += 1;
        }
    }

    /// [`RankIndex::insert`] in the per-bucket counts only: rank queries
    /// read stale sums until [`RankIndex::settle`].
    pub(crate) fn insert_occupancy(&mut self, b: usize) {
        self.occupancy[b] += 1;
    }

    /// [`RankIndex::shift`] in the per-bucket counts only: rank queries
    /// read stale sums until [`RankIndex::settle`].
    pub(crate) fn shift_occupancy(&mut self, from: usize, to: usize) {
        debug_assert!(self.occupancy[from] > 0, "bucket {from} underflow");
        self.occupancy[from] -= 1;
        self.occupancy[to] += 1;
    }

    /// Rebuild the prefix sums from the per-bucket counts, in
    /// `O(NUM_BUCKETS)`: the same tree the moves would have built one at
    /// a time.
    pub(crate) fn settle(&mut self) {
        self.buckets.rebuild(&self.occupancy);
    }

    /// 1-based rank of an entry in bucket `b`: the number of entries in
    /// strictly greater buckets plus the number of entries tied in the
    /// same bucket (including the entry itself). Ties therefore share the
    /// *worst* rank of their bucket — the conservative choice for the
    /// defense, since Eq. 1 delays grow with rank and under-ranking a tied
    /// group would under-charge the adversary for every tuple in it. For
    /// an empty bucket, this is `1 +` the greater count.
    pub(crate) fn rank_of_bucket(&self, b: usize) -> usize {
        let above = self.buckets.suffix_above(b) as usize;
        above + (self.occupancy[b] as usize).max(1)
    }

    /// `RankIndex::rank_of_bucket` for an entry with this count.
    pub fn rank(&self, count: f64) -> usize {
        self.rank_of_bucket(bucket_of(count))
    }

    /// `(bucket, rank)` for every occupied bucket, most popular first,
    /// in one O(B) pass: each rank equals
    /// `RankIndex::rank_of_bucket` for that bucket.
    pub fn bucket_ranks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let mut above = 0usize;
        (0..NUM_BUCKETS).rev().filter_map(move |b| {
            let here = self.occupancy[b] as usize;
            if here == 0 {
                return None;
            }
            above += here;
            Some((b, above))
        })
    }

    /// Heap bytes held: the Fenwick tree and the per-bucket counts.
    pub fn heap_bytes(&self) -> usize {
        (self.buckets.len() + 1) * std::mem::size_of::<u32>()
            + self.occupancy.len() * std::mem::size_of::<u32>()
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.occupancy.iter_mut().for_each(|v| *v = 0);
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
        assert_eq!(bucket_of(-0.0), 0);
    }

    #[test]
    fn whole_count_table_matches_the_logarithm() {
        for c in (0..WHOLE_COUNTS).chain([WHOLE_COUNTS, 1 << 20, u32::MAX as usize]) {
            assert_eq!(bucket_of(c as f64), bucket_by_ln(c as f64), "count {c}");
        }
        for c in [0.5, 1.5, 2.25, 65535.5, 1e-3] {
            assert_eq!(bucket_of(c), bucket_by_ln(c), "count {c}");
        }
    }

    #[test]
    fn bucket_ranks_match_rank_of_bucket() {
        let mut r = RankIndex::new();
        for c in [0.0, 0.0, 1.0, 3.0, 3.0, 3.0, 1e6, 7.5] {
            r.insert(bucket_of(c));
        }
        let ranks: Vec<(usize, usize)> = r.bucket_ranks().collect();
        assert_eq!(ranks.len(), 5);
        for (b, rank) in ranks {
            assert_eq!(rank, r.rank_of_bucket(b), "bucket {b}");
        }
        assert_eq!(r.rank(1e6), 1);
        assert_eq!(r.rank(0.0), 8);
    }

    #[test]
    fn rank_orders_distinct_magnitudes() {
        let mut r = RankIndex::new();
        for c in [1.0, 10.0, 100.0, 1000.0] {
            r.insert(bucket_of(c));
        }
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
            r.insert(bucket_of(7.0));
        }
        r.insert(bucket_of(100.0));
        // One entry above, five tied: all five occupy the worst rank 6.
        assert_eq!(r.rank(7.0), 6);
        assert_eq!(r.rank(100.0), 1);
        assert_eq!(r.len(), 6);
    }

    #[test]
    fn update_moves_entries() {
        let mut r = RankIndex::new();
        r.insert(bucket_of(1.0));
        r.insert(bucket_of(2.0));
        assert_eq!(r.rank(1.0), 2);
        r.shift(bucket_of(1.0), bucket_of(400.0));
        assert_eq!(r.rank(400.0), 1);
        assert_eq!(r.rank(2.0), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn settled_occupancy_ranks_like_moves() {
        let counts = [0.0, 1.0, 1.0, 3.0, 7.5, 40.0, 1e6];
        let mut moved = RankIndex::new();
        let mut settled = RankIndex::new();
        settled.insert(bucket_of(5.0));
        settled.clear();
        for &c in &counts {
            moved.insert(bucket_of(c));
            settled.insert_occupancy(bucket_of(c));
        }
        moved.shift(bucket_of(1.0), bucket_of(2e6));
        settled.shift_occupancy(bucket_of(1.0), bucket_of(2e6));
        settled.settle();
        assert_eq!(settled.len(), moved.len());
        for c in [0.0, 1.0, 3.0, 7.5, 40.0, 1e6, 2e6, 5.0] {
            assert_eq!(settled.rank(c), moved.rank(c), "count {c}");
        }
    }

    #[test]
    fn clear_empties() {
        let mut r = RankIndex::new();
        r.insert(bucket_of(5.0));
        r.insert(bucket_of(6.0));
        assert_eq!(r.len(), 2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.rank(5.0), 1);
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
            r.insert(bucket_of(c));
            c *= 1.05; // > bucket width, so each lands in a distinct bucket
        }
        for (i, &c) in counts.iter().enumerate() {
            assert_eq!(r.rank(c), 100 - i);
        }
    }
}
