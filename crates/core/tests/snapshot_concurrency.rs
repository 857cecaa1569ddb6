//! Concurrency correctness for the snapshot read path.
//!
//! Three guarantees from the concurrency model (see `guarded.rs` module
//! docs and DESIGN.md §"Concurrency model"):
//!
//! 1. **No lost events**: accesses recorded by concurrent query threads
//!    racing a snapshot refresher all land in the master trackers.
//! 2. **Decay fidelity**: with decay enabled, the drained-in-order event
//!    stream produces the same total decayed mass as a sequential
//!    tracker fed the same number of records.
//! 3. **Bounded staleness / convergence** (the acceptance criterion): a
//!    tuple's snapshot-path delay equals the exact single-threaded value
//!    after at most one refresh epoch.

use delayguard_core::{
    AccessDelayPolicy, GuardConfig, GuardPolicy, GuardedDatabase, SnapshotPolicy,
};
use delayguard_popularity::{DecaySchedule, FrequencyTracker};
use delayguard_query::{parse, StatementOutput};
use delayguard_storage::RowId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn guarded(config: GuardConfig, rows: u64) -> GuardedDatabase {
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    for i in 0..rows {
        db.execute_at(&format!("INSERT INTO t VALUES ({i}, 'row-{i}')"), 0.0)
            .unwrap();
    }
    db
}

/// RowId of `id = <id>` without touching the guard (engine-direct read).
fn rid_of(db: &GuardedDatabase, id: u64) -> RowId {
    let stmt = parse(&format!("SELECT * FROM t WHERE id = {id}")).unwrap();
    match db.engine().execute_stmt(&stmt).unwrap() {
        StatementOutput::Rows(rows) => rows.rows[0].0,
        other => panic!("unexpected output {other:?}"),
    }
}

fn access_policy() -> GuardPolicy {
    GuardPolicy::AccessRate(AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0))
}

#[test]
fn concurrent_snapshot_traffic_loses_no_events() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 500;
    let config = GuardConfig::paper_default()
        .with_policy(access_policy())
        // Small pending bound so query threads themselves trip inline
        // refreshes while the dedicated refresher races them.
        .with_snapshot_policy(SnapshotPolicy::new(64, 1e9));
    let db = Arc::new(guarded(config, 64));

    let stop = Arc::new(AtomicBool::new(false));
    let refresher = {
        let db = Arc::clone(&db);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.refresh();
                thread::yield_now();
            }
        })
    };

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                // Each thread hammers its own tuple: per-key counts are
                // then exact regardless of interleaving.
                let sql = format!("SELECT * FROM t WHERE id = {tid}");
                for _ in 0..PER_THREAD {
                    let r = db.execute_with_deadline(&sql).unwrap();
                    assert_eq!(r.tuple_delays.len(), 1);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    refresher.join().unwrap();

    // One final epoch folds in anything still queued.
    db.refresh();
    assert_eq!(db.access_events("t"), THREADS * PER_THREAD);
    let stats = db.snapshot_stats();
    assert_eq!(stats.pending_events, 0);
    assert_eq!(stats.events_applied, THREADS * PER_THREAD);

    // No decay: every thread's tuple holds exactly its own record count.
    let snap = db.snapshot();
    let table = snap.table("t").expect("table observed");
    for tid in 0..THREADS {
        let rid = rid_of(&db, tid);
        assert_eq!(
            table.access.count(rid.raw()),
            PER_THREAD as f64,
            "tuple {tid} lost events"
        );
    }
}

#[test]
fn concurrent_decayed_mass_matches_sequential_tracker() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 250;
    const DECAY: f64 = 1.001;
    let config = GuardConfig::paper_default()
        .with_policy(access_policy())
        .with_access_decay(DECAY)
        .with_snapshot_policy(SnapshotPolicy::new(32, 1e9));
    let db = Arc::new(guarded(config, 16));

    let workers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let db = Arc::clone(&db);
            thread::spawn(move || {
                let sql = format!("SELECT * FROM t WHERE id = {tid}");
                for _ in 0..PER_THREAD {
                    db.execute_with_deadline(&sql).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    db.refresh();

    // Sequential reference: same pre-registered keys, same number of
    // records. The decayed total is order-independent (every record adds
    // the current inflated weight, whatever its key), so the concurrent
    // tracker must agree to float tolerance.
    let mut reference = FrequencyTracker::new(DecaySchedule::new(DECAY));
    for i in 0..16 {
        reference.ensure_tracked(rid_of(&db, i).raw());
    }
    for i in 0..THREADS * PER_THREAD {
        reference.record(rid_of(&db, i % THREADS).raw());
    }

    let snap = db.snapshot();
    let table = snap.table("t").expect("table observed");
    assert_eq!(table.access.events(), reference.events());
    let (got, want) = (table.access.total(), reference.total());
    assert!(
        (got - want).abs() <= want.abs() * 1e-6,
        "decayed mass diverged: got {got}, want {want}"
    );
    // Note: per-key counts (and hence fmax) legitimately depend on the
    // interleaving — later records carry more decay weight — so only the
    // order-independent aggregates are compared.
}

#[test]
fn snapshot_delay_converges_within_one_refresh_epoch() {
    // The acceptance criterion: run an identical single-threaded query
    // sequence through (a) the exact virtual-time path and (b) the
    // clock-driven snapshot path with refreshes disabled (the access-rate
    // price does not depend on the timestamps, so the real clock will
    // do), then perform ONE refresh.
    // Every tuple's snapshot-priced delay must equal the sequential
    // value exactly — the master record sequences are identical, so the
    // floats are bit-identical, not merely close.
    let exact_cfg = GuardConfig::paper_default().with_policy(access_policy());
    let snap_cfg = exact_cfg.with_snapshot_policy(SnapshotPolicy::new(usize::MAX, 1e9));
    let db_exact = guarded(exact_cfg, 50);
    let db_snap = guarded(snap_cfg, 50);

    // A skewed deterministic workload over 10 tuples.
    for q in 0..400u64 {
        let id = if q % 3 == 0 { 1 } else { q % 10 };
        let now = 1.0 + q as f64;
        let sql = format!("SELECT * FROM t WHERE id = {id}");
        db_exact.execute_at(&sql, now).unwrap();
        db_snap.execute_with_deadline(&sql).unwrap();
    }

    // Before the refresh the snapshot path still prices from the boot
    // snapshot: everything at the cap.
    let hot = rid_of(&db_snap, 1);
    assert_eq!(db_snap.snapshot_tuple_delay("t", hot, 500.0).unwrap(), 10.0);

    // One refresh epoch.
    db_snap.refresh();

    for id in 0..50 {
        let rid_s = rid_of(&db_snap, id);
        let rid_e = rid_of(&db_exact, id);
        let got = db_snap.snapshot_tuple_delay("t", rid_s, 500.0).unwrap();
        let want = db_exact.tuple_delay("t", rid_e, 500.0).unwrap();
        assert_eq!(got, want, "tuple {id} diverged after one epoch");
    }
    // And the hot tuple actually got cheap — the assertion above is not
    // vacuous cap-vs-cap.
    assert!(
        db_snap.snapshot_tuple_delay("t", hot, 500.0).unwrap() < 0.5,
        "hot tuple should be far below the cap"
    );
}
