//! Publishing the guard's snapshot-machinery health into a [`Registry`].
//!
//! The guard's lock-free read path trades exactness for bounded
//! staleness, so operators need to *see* the bound being honored: how old
//! the current [`delayguard_core::PolicySnapshot`] is, how many recorded
//! accesses are waiting to be folded in, how often rebuilds run, and what
//! the last one cost (its duration and the keys it re-packed). The
//! server's refresher thread calls [`GuardStatsPublisher::publish`] once
//! per epoch; simulations can call it ad hoc around experiment phases.

use crate::registry::{Counter, Gauge, Registry};
use delayguard_core::{GuardedDatabase, SnapshotStats};

/// Pre-resolved handles for the snapshot-machinery metrics, so the
/// refresher republishes without touching the registry lock.
#[derive(Debug, Clone)]
pub struct GuardStatsPublisher {
    /// Age of the live policy snapshot, in whole microseconds.
    pub snapshot_age_micros: Gauge,
    /// Snapshot generation counter.
    pub snapshot_version: Gauge,
    /// Recorded access events not yet applied to the master trackers.
    pub pending_events: Gauge,
    /// Snapshot rebuilds performed since the guard started.
    pub rebuilds: Counter,
    /// Events drained into the trackers since the guard started.
    pub events_applied: Counter,
    /// Duration of the last snapshot rebuild, in whole microseconds.
    pub rebuild_micros: Gauge,
    /// Keys whose packed delays the last snapshot rebuild re-read.
    pub keys_repacked: Gauge,
}

impl GuardStatsPublisher {
    /// Resolve every handle against `registry` (creating the metrics).
    pub fn new(registry: &Registry) -> GuardStatsPublisher {
        GuardStatsPublisher {
            snapshot_age_micros: registry.gauge("guard_snapshot_age_micros"),
            snapshot_version: registry.gauge("guard_snapshot_version"),
            pending_events: registry.gauge("guard_pending_events"),
            rebuilds: registry.counter("guard_snapshot_rebuilds_total"),
            events_applied: registry.counter("guard_events_applied_total"),
            rebuild_micros: registry.gauge("guard_snapshot_rebuild_micros"),
            keys_repacked: registry.gauge("guard_snapshot_keys_repacked"),
        }
    }

    /// Publish the guard's current [`SnapshotStats`].
    pub fn publish(&self, db: &GuardedDatabase) -> SnapshotStats {
        let stats = db.snapshot_stats();
        self.publish_stats(&stats);
        stats
    }

    /// Publish an already-sampled [`SnapshotStats`].
    pub(crate) fn publish_stats(&self, stats: &SnapshotStats) {
        self.snapshot_age_micros
            .set((stats.age_secs.max(0.0) * 1e6).round() as i64);
        self.snapshot_version
            .set(stats.version.min(i64::MAX as u64) as i64);
        self.pending_events
            .set(stats.pending_events.min(i64::MAX as usize) as i64);
        self.rebuild_micros
            .set((stats.last_rebuild_secs.max(0.0) * 1e6).round() as i64);
        self.keys_repacked
            .set(stats.last_keys_repacked.min(i64::MAX as u64) as i64);
        // Counters are monotone; republish only the delta since last time.
        let applied = self.events_applied.get();
        if stats.events_applied > applied {
            self.events_applied.add(stats.events_applied - applied);
        }
        let rebuilds = self.rebuilds.get();
        if stats.rebuilds > rebuilds {
            self.rebuilds.add(stats.rebuilds - rebuilds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricValue;
    use delayguard_core::GuardConfig;

    #[test]
    fn publishes_snapshot_health() {
        let db = GuardedDatabase::new(GuardConfig::paper_default());
        db.execute_at("CREATE TABLE t (id INT NOT NULL)", 0.0)
            .unwrap();
        db.execute_at("INSERT INTO t VALUES (1), (2)", 0.0).unwrap();
        db.execute_with_deadline("SELECT * FROM t WHERE id = 1")
            .unwrap();
        db.refresh();

        let registry = Registry::new();
        let pub1 = GuardStatsPublisher::new(&registry);
        let stats = pub1.publish(&db);
        assert!(stats.version >= 1);
        assert_eq!(stats.pending_events, 0);
        match registry.value("guard_snapshot_version") {
            Some(MetricValue::Gauge { value, .. }) => {
                assert_eq!(value, stats.version as i64);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            registry.value("guard_events_applied_total"),
            Some(MetricValue::Counter(n)) if n == stats.events_applied
        ));
        // The refresh re-read the one chunk holding both rows.
        assert_eq!(stats.last_keys_repacked, 2);
        let gauge = |name| match registry.value(name) {
            Some(MetricValue::Gauge { value, .. }) => value,
            other => panic!("{name}: unexpected {other:?}"),
        };
        assert_eq!(gauge("guard_snapshot_keys_repacked"), 2);
        assert_eq!(
            gauge("guard_snapshot_rebuild_micros"),
            (stats.last_rebuild_secs * 1e6).round() as i64
        );

        // A refresh with nothing written re-reads nothing.
        db.refresh();
        let idle = pub1.publish(&db);
        assert_eq!(idle.last_keys_repacked, 0);
        assert_eq!(gauge("guard_snapshot_keys_repacked"), 0);
    }

    #[test]
    fn republishing_keeps_counters_monotone() {
        let db = GuardedDatabase::new(GuardConfig::paper_default());
        db.execute_at("CREATE TABLE t (id INT NOT NULL)", 0.0)
            .unwrap();
        db.execute_at("INSERT INTO t VALUES (1)", 0.0).unwrap();
        let registry = Registry::new();
        let publisher = GuardStatsPublisher::new(&registry);
        publisher.publish(&db);
        db.execute_with_deadline("SELECT * FROM t WHERE id = 1")
            .unwrap();
        db.refresh();
        let first = publisher.publish(&db).rebuilds;
        // Publishing twice with no new rebuilds must not double-count.
        let again = publisher.publish(&db).rebuilds;
        assert_eq!(first, again);
        assert_eq!(publisher.rebuilds.get(), first);
    }
}
