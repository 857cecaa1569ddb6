//! Cluster replication units: the state one node ships to its peers so
//! that pricing converges cluster-wide.
//!
//! A cluster node prices `d(i)` (Eq. 1) from its *merged* view: its own
//! popularity trackers plus the latest [`TableDelta`] received from every
//! peer. Deltas are **cumulative full-state summaries**, not increments —
//! each carries the origin's complete decay-normalized counts and a
//! monotone `seq`, and the receiver keeps only the newest per origin
//! (replace-if-newer). That makes application commutative and idempotent
//! by construction: any interleaving of deltas from different origins, in
//! any order, with arbitrary duplication, converges to the same merged
//! state — the property the delta-sync protocol leans on when links
//! reorder, drop, or replay frames.
//!
//! Counts travel in the tracker's decay-*normalized* form (see
//! `FrequencyTracker::export_counts`): the receiver folds them at its own
//! current decay weight, so two nodes whose decay clocks ticked different
//! numbers of times still agree on relative popularity, and the
//! inflated-increment/rescale arithmetic stays exact on both sides.

use crate::gatekeeper::GateDelta;

/// Bit marking a tracker key as remote-originated (top bit of the key
/// space; local `RowId`s are small sequential integers nowhere near it).
pub const REMOTE_KEY_TAG: u64 = 1 << 63;

/// Bits of per-origin key space under the tag (origin occupies the 16
/// bits below the tag bit).
pub const REMOTE_KEY_BITS: u32 = 47;

/// Namespace a remote origin's row key into the local tracker key space.
///
/// Physical `RowId`s are node-local and collide across nodes (every node
/// numbers its rows from zero), so a peer's row `k` folds into the merged
/// tracker under a tagged key: tag bit, then the 16-bit origin, then the
/// low 47 bits of `k`. Local rows keep their raw keys, so the pricing
/// lookup for a locally served tuple needs no translation, while remote
/// rows still occupy rank slots in the merged distribution.
pub fn tag_remote_key(origin: u16, key: u64) -> u64 {
    REMOTE_KEY_TAG | ((origin as u64) << REMOTE_KEY_BITS) | (key & ((1 << REMOTE_KEY_BITS) - 1))
}

/// One table's cumulative popularity state as originated by one node.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TableDelta {
    /// `(row key, decay-normalized access count)`, sorted by key,
    /// covering every row the origin tracks (including zero-count rows,
    /// which still occupy rank slots).
    pub accesses: Vec<(u64, f64)>,
    /// `(row key, decay-normalized update count)`, sorted by key.
    pub updates: Vec<(u64, f64)>,
    /// Physical rows the origin holds for this table; receivers add this
    /// to their local cardinality so `n` in Eq. 1 is the *global* table
    /// size.
    pub rows: u64,
    /// Virtual time the table first saw traffic at the origin (merged by
    /// minimum, so the update window spans the cluster's observation).
    pub epoch: Option<f64>,
}

/// A full replication unit: everything one node has locally originated,
/// stamped with a monotone sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaDelta {
    /// Originating node (also the gatekeeper charge-log origin).
    pub origin: u16,
    /// Monotone per-origin sequence; receivers keep the highest seen and
    /// discard older or duplicate deltas (idempotence under replay).
    pub seq: u64,
    /// Per-table cumulative state, sorted by table name.
    pub tables: Vec<(String, TableDelta)>,
    /// Gatekeeper charge logs (user + /24 buckets), merged CRDT-style on
    /// the receiving front door.
    pub gate: GateDelta,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_tagging_partitions_key_space() {
        let is_remote = |key: u64| key & REMOTE_KEY_TAG != 0;
        assert!(!is_remote(0));
        assert!(!is_remote(123_456));
        let t = tag_remote_key(3, 42);
        assert!(is_remote(t));
        // Distinct origins never collide on the same raw key.
        assert_ne!(tag_remote_key(1, 42), tag_remote_key(2, 42));
        // Distinct raw keys under one origin never collide.
        assert_ne!(tag_remote_key(1, 1), tag_remote_key(1, 2));
        // Tagged keys never collide with plausible local row ids.
        assert_ne!(tag_remote_key(0, 0) & REMOTE_KEY_TAG, 0);
    }

    #[test]
    fn tag_is_injective_over_origin_and_low_bits() {
        let mut seen = std::collections::HashSet::new();
        for origin in [0u16, 1, 2, 255, u16::MAX] {
            for key in [0u64, 1, 7, 1 << 20, (1 << REMOTE_KEY_BITS) - 1] {
                assert!(seen.insert(tag_remote_key(origin, key)));
            }
        }
    }
}
