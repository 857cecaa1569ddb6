//! Adversary models (paper §1.1, §2.4).
//!
//! An extraction adversary "must eventually request every element in the
//! set". These models decide *in what order* and *with how many
//! identities* it does so. The delay totals they incur are priced by the
//! guard (`GuardedDatabase::tuple_delay`).

use crate::rng::Rng;

/// The order in which an adversary requests the universe `0..objects`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExtractionOrder {
    /// Ascending key order — the "robot that repeatedly asks slightly
    /// different selective queries whose union is the entire database".
    Sequential,
    /// A seeded random permutation — a robot trying to look less regular.
    /// Delay totals are identical (the sum is order-independent); only
    /// time-to-first-coverage of specific keys changes.
    Shuffled(u64),
}

impl ExtractionOrder {
    /// Materialize the request order over `objects` keys.
    pub fn keys(&self, objects: u64) -> Vec<u64> {
        match self {
            ExtractionOrder::Sequential => (0..objects).collect(),
            ExtractionOrder::Shuffled(seed) => Rng::new(*seed).permutation(objects as usize),
        }
    }
}

/// A Sybil adversary that splits extraction across `identities` fake users
/// issuing queries in parallel (§2.4): it pays the *maximum* of its
/// identities' delay totals rather than the sum.
#[derive(Debug, Clone, Copy)]
pub struct SybilPlan {
    /// Number of identities the adversary controls.
    pub identities: usize,
    /// How the key space is ordered before partitioning.
    pub order: ExtractionOrder,
}

impl SybilPlan {
    /// Partition the key universe into one work list per identity
    /// (round-robin, which balances delay when delays correlate with key
    /// order only weakly).
    pub fn partition(&self, objects: u64) -> Vec<Vec<u64>> {
        assert!(self.identities > 0, "need at least one identity");
        let keys = self.order.keys(objects);
        let mut parts = vec![Vec::new(); self.identities];
        for (i, key) in keys.into_iter().enumerate() {
            parts[i % self.identities].push(key);
        }
        parts
    }

    /// Given per-key delays, the wall-clock the parallel extraction takes:
    /// the maximum per-identity sum.
    pub fn wall_clock(&self, objects: u64, delay_of: impl Fn(u64) -> f64) -> f64 {
        self.partition(objects)
            .into_iter()
            .map(|part| part.into_iter().map(&delay_of).sum::<f64>())
            .fold(0.0, f64::max)
    }
}

/// A storefront adversary forwards *legitimate users'* queries and caches
/// results (§2.4). It only ever sees what legitimate users ask, so its
/// coverage is bounded by the distinct-key footprint of the legit workload.
#[derive(Debug, Clone)]
pub struct StorefrontObserver {
    seen: Vec<bool>,
    distinct: u64,
    forwarded: u64,
}

impl StorefrontObserver {
    /// Observe a universe of `objects` keys.
    pub fn new(objects: u64) -> StorefrontObserver {
        StorefrontObserver {
            seen: vec![false; objects as usize],
            distinct: 0,
            forwarded: 0,
        }
    }

    /// The storefront forwards one user query for `key` and caches it.
    pub fn forward(&mut self, key: u64) {
        self.forwarded += 1;
        let slot = &mut self.seen[key as usize];
        if !*slot {
            *slot = true;
            self.distinct += 1;
        }
    }

    /// Queries forwarded so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Distinct keys harvested so far.
    pub fn coverage(&self) -> u64 {
        self.distinct
    }

    /// Fraction of the universe harvested.
    pub fn coverage_fraction(&self) -> f64 {
        self.distinct as f64 / self.seen.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_order_is_complete_and_sorted() {
        let keys = ExtractionOrder::Sequential.keys(10);
        assert_eq!(keys, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn shuffled_order_is_complete_permutation() {
        let mut keys = ExtractionOrder::Shuffled(3).keys(100);
        assert_ne!(keys, (0..100).collect::<Vec<u64>>());
        keys.sort_unstable();
        assert_eq!(keys, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sybil_partitions_cover_everything_once() {
        let plan = SybilPlan {
            identities: 7,
            order: ExtractionOrder::Sequential,
        };
        let parts = plan.partition(100);
        assert_eq!(parts.len(), 7);
        let mut all: Vec<u64> = parts.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u64>>());
    }

    #[test]
    fn sybil_wall_clock_divides_delay() {
        // Uniform 1-second delays: k identities cut wall clock ~k-fold.
        let single = SybilPlan {
            identities: 1,
            order: ExtractionOrder::Sequential,
        };
        let many = SybilPlan {
            identities: 10,
            order: ExtractionOrder::Sequential,
        };
        let d = |_k: u64| 1.0;
        assert_eq!(single.wall_clock(100, d), 100.0);
        assert_eq!(many.wall_clock(100, d), 10.0);
    }

    #[test]
    fn sybil_pays_max_partition() {
        // All the delay concentrated on key 0: parallelism doesn't help.
        let plan = SybilPlan {
            identities: 10,
            order: ExtractionOrder::Sequential,
        };
        let d = |k: u64| if k == 0 { 100.0 } else { 0.0 };
        assert_eq!(plan.wall_clock(100, d), 100.0);
    }

    #[test]
    fn storefront_coverage_tracks_distinct_forwards() {
        let mut s = StorefrontObserver::new(10);
        for key in [1u64, 1, 2, 3, 3, 3] {
            s.forward(key);
        }
        assert_eq!(s.forwarded(), 6);
        assert_eq!(s.coverage(), 3);
        assert!((s.coverage_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn storefront_skewed_workload_covers_slowly() {
        // Under a Zipf workload most forwards hit already-cached keys, so
        // coverage grows far slower than query volume.
        use crate::zipf::Zipf;
        let z = Zipf::new(1000, 1.5);
        let mut rng = Rng::new(21);
        let mut s = StorefrontObserver::new(1000);
        for _ in 0..10_000 {
            s.forward(z.sample(&mut rng) - 1);
        }
        assert!(
            s.coverage_fraction() < 0.5,
            "coverage {}",
            s.coverage_fraction()
        );
    }

    #[test]
    #[should_panic]
    fn sybil_needs_identities() {
        SybilPlan {
            identities: 0,
            order: ExtractionOrder::Sequential,
        }
        .partition(10);
    }
}
