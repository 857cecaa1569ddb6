//! Immutable policy snapshots: the read side of the guard's concurrency
//! split.
//!
//! The defense sits on the hot path of every tuple served — each access
//! must look up a popularity rank (Eq. 1), `f_max`, and the update window
//! to price its delay. Doing that against mutable trackers would force a
//! lock per query. Instead the guard maintains an immutable
//! [`PolicySnapshot`] behind an `arc-swap` cell: query threads load it
//! with one atomic snapshot operation, price every returned tuple from it
//! with **zero locked work**, and record their accesses into a lock-free
//! event queue. A refresher (background thread, or any thread that trips
//! the [`SnapshotPolicy`] bounds) periodically drains the queue into the
//! authoritative per-table trackers and publishes a fresh snapshot.
//!
//! A rebuild costs what changed, not the whole table. Each tracker keeps
//! its counts in key-ordered chunks held by `Arc`, so a snapshot's
//! trackers share every chunk with the live ones and a record copies
//! only the chunk it writes. The packed access table re-reads rank
//! buckets only for chunks whose pointer moved since the previous
//! snapshot, plus one O(B) per-bucket table; a decay rescale writes
//! every chunk and so re-packs them all.
//! [`SnapshotStats::last_keys_repacked`] and
//! [`SnapshotStats::last_rebuild_secs`] report what the last rebuild did.
//!
//! Staleness is bounded, not zero — and that is *safe* for the defense:
//! every tuple starts at the delay cap (§2.3's start-up transient), and a
//! stale snapshot only under-reports popularity, which over-charges
//! delay. An adversary cannot exploit staleness to read obscure tuples
//! faster; a legitimate user's hot tuple merely takes one refresh epoch
//! to collapse to its fast price.

use crate::access::PackedAccessDelays;
use crate::shaping::DelayShaping;
use delayguard_popularity::FrequencyTracker;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Bounded-staleness knobs for the snapshot read path.
///
/// A snapshot is considered stale — and any query thread (or the server's
/// background refresher) will rebuild it — once **either** bound is hit:
/// more than `max_pending_events` recorded accesses are waiting in the
/// queue, or the snapshot is older than `max_age_secs` of wall-clock
/// time. Tighter bounds track popularity more closely at the cost of more
/// frequent rebuilds; looser bounds amortize rebuild work over more
/// queries (the update-maintenance trade of Kara et al.).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotPolicy {
    /// Rebuild after this many recorded-but-unapplied access events.
    pub max_pending_events: usize,
    /// Rebuild once the snapshot is this many wall-clock seconds old
    /// (only when events are pending; an idle guard never rebuilds).
    pub max_age_secs: f64,
}

impl SnapshotPolicy {
    /// Default bounds: rebuild every 4096 pending events or 50 ms,
    /// whichever comes first.
    pub fn new(max_pending_events: usize, max_age_secs: f64) -> SnapshotPolicy {
        SnapshotPolicy {
            max_pending_events,
            max_age_secs,
        }
    }
}

impl Default for SnapshotPolicy {
    fn default() -> Self {
        SnapshotPolicy {
            max_pending_events: 4096,
            max_age_secs: 0.05,
        }
    }
}

/// One table's frozen guard statistics.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    /// Access-frequency tracker as of the snapshot (its chunks shared
    /// with the live tracker until either side writes them).
    pub access: FrequencyTracker,
    /// Update-frequency tracker as of the snapshot.
    pub updates: FrequencyTracker,
    /// Virtual time the table first came under observation.
    pub epoch: Option<f64>,
    /// Rows held by *other* cluster nodes for this table (from replicated
    /// deltas); pricing adds this to the local cardinality so `n` in
    /// Eq. 1 is the global table size. Zero on a single node.
    pub extra_rows: u64,
    /// The access tracker packed into per-key rank buckets and a
    /// per-bucket delay numerator at snapshot build time, when the guard
    /// runs a pure access-rate policy: the hot path prices from this with
    /// one chunk lookup and one table read per tuple instead of rank
    /// queries and a `powf`. Chunks the tracker did not write since the
    /// previous snapshot keep that snapshot's buckets. `None` when the
    /// policy is window-dependent (update-rate, hybrid) or the snapshot
    /// predates any traffic; pricing then falls back to the trackers.
    /// Delays from the pack are bit-identical to the tracker walk.
    pub packed_access: Option<PackedAccessDelays>,
}

impl TableSnapshot {
    /// The update-rate observation window at time `now` (mirrors the live
    /// guard's window arithmetic).
    pub fn window(&self, now: f64) -> f64 {
        match self.epoch {
            Some(e) => (now - e).max(1e-9),
            None => 1e-9,
        }
    }
}

/// The never-observed table: empty trackers, no epoch. Delay math on it
/// yields the start-up transient (everything at the cap), exactly like a
/// freshly inserted live guard.
pub(crate) fn empty_table_snapshot() -> Arc<TableSnapshot> {
    static EMPTY: OnceLock<Arc<TableSnapshot>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| {
        Arc::new(TableSnapshot {
            access: FrequencyTracker::no_decay(),
            updates: FrequencyTracker::no_decay(),
            epoch: None,
            extra_rows: 0,
            packed_access: None,
        })
    }))
}

/// An immutable view of every table's guard statistics, swapped in
/// atomically by the refresher. Unchanged tables share their
/// [`TableSnapshot`] `Arc` across generations, and a changed table shares
/// every tracker chunk it did not write, so rebuild cost is proportional
/// to what actually changed.
#[derive(Debug)]
pub struct PolicySnapshot {
    /// Per-table frozen statistics.
    pub tables: HashMap<String, Arc<TableSnapshot>>,
    /// Monotone generation counter (0 = the empty boot snapshot).
    pub version: u64,
    /// Guard-clock (wall, seconds since the guard started) build time.
    pub built_at_secs: f64,
    /// Master-mutation counter value this snapshot reflects; the guard
    /// compares it against the live counter to detect staleness from the
    /// exact/locked path.
    pub mutations_seen: u64,
    /// The delay-shaping policy this snapshot prices under (stamped from
    /// `GuardConfig::shaping` at build time, [`DelayShaping::off`] on the
    /// boot snapshot). Observational — the charge sites read the live
    /// config — but lets STATS/debug consumers tell which schedule a
    /// generation speaks.
    pub shaping: DelayShaping,
}

impl PolicySnapshot {
    /// The empty boot snapshot.
    pub fn empty() -> PolicySnapshot {
        PolicySnapshot {
            tables: HashMap::new(),
            version: 0,
            built_at_secs: 0.0,
            mutations_seen: 0,
            shaping: DelayShaping::off(),
        }
    }

    /// A table's frozen statistics, if it has ever been observed.
    pub fn table(&self, name: &str) -> Option<&Arc<TableSnapshot>> {
        self.tables.get(name)
    }

    /// Sorted names of every observed table.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

/// Observability counters for the snapshot machinery (served by
/// `GuardedDatabase::snapshot_stats`, published as gauges by the server's
/// refresher and `delayguard_sim::guardstats`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnapshotStats {
    /// Current snapshot generation.
    pub version: u64,
    /// Guard-clock seconds at which the snapshot was built.
    pub built_at_secs: f64,
    /// Guard-clock age of the snapshot, in seconds.
    pub age_secs: f64,
    /// Access events recorded but not yet applied to the trackers.
    pub pending_events: usize,
    /// Snapshot rebuilds performed since the guard started.
    pub rebuilds: u64,
    /// Events drained from the queue into the trackers since start.
    pub events_applied: u64,
    /// Times a drained batch rebuilt a tracker's rank prefix sums (at
    /// most once per tracker per batch; a small batch moves them in
    /// place instead).
    pub rank_rebuilds: u64,
    /// Guard-clock duration of the last rebuild (drain, apply, publish),
    /// in seconds.
    pub last_rebuild_secs: f64,
    /// Keys whose packed delays the last rebuild re-read: the tracked
    /// keys of every chunk written since the previous snapshot.
    pub last_keys_repacked: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_prices_at_startup_transient() {
        let snap = PolicySnapshot::empty();
        assert_eq!(snap.version, 0);
        assert!(snap.table("items").is_none());
        let empty = empty_table_snapshot();
        assert_eq!(empty.window(5.0), 1e-9);
        assert_eq!(empty.access.fmax(), 0.0);
        assert!(!empty.access.contains(42));
    }

    #[test]
    fn empty_table_snapshot_is_shared() {
        let a = empty_table_snapshot();
        let b = empty_table_snapshot();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn window_mirrors_live_guard() {
        let ts = TableSnapshot {
            access: FrequencyTracker::no_decay(),
            updates: FrequencyTracker::no_decay(),
            epoch: Some(10.0),
            extra_rows: 0,
            packed_access: None,
        };
        assert_eq!(ts.window(30.0), 20.0);
        assert_eq!(ts.window(10.0), 1e-9, "clamped at epoch");
    }

    #[test]
    fn defaults_are_sane() {
        let p = SnapshotPolicy::default();
        assert!(p.max_pending_events >= 1);
        assert!(p.max_age_secs > 0.0);
    }
}
