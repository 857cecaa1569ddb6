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
    #[should_panic]
    fn sybil_needs_identities() {
        SybilPlan {
            identities: 0,
            order: ExtractionOrder::Sequential,
        }
        .partition(10);
    }
}
