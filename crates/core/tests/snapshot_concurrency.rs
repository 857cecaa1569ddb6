//! Concurrency correctness for the snapshot read path.
//!
//! Three guarantees from the concurrency model (see `guarded.rs` module
//! docs and DESIGN.md §"Concurrency model"):
//!
//! 1. **No lost events**: accesses recorded by concurrent query threads
//!    racing a snapshot refresher all land in the master trackers.
//! 2. **Decay fidelity**: with decay enabled, the drained-in-order event
//!    stream produces the same decayed mass, in total and per key, as a
//!    sequential tracker fed the same records at the same guard times.
//! 3. **Bounded staleness / convergence** (the acceptance criterion): a
//!    tuple's snapshot-path delay equals the exact single-threaded value
//!    after at most one refresh epoch.

use delayguard_core::{
    AccessDelayPolicy, Clock, GuardConfig, GuardPolicy, GuardedDatabase, ManualClock, RealClock,
    SnapshotPolicy,
};
use delayguard_popularity::{DecaySchedule, FrequencyTracker};
use delayguard_query::{parse, Engine, StatementOutput};
use delayguard_storage::RowId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

fn guarded(config: GuardConfig, rows: u64) -> GuardedDatabase {
    guarded_with_clock(config, rows, Arc::new(RealClock::new()))
}

fn guarded_with_clock(config: GuardConfig, rows: u64, clock: Arc<dyn Clock>) -> GuardedDatabase {
    let db = GuardedDatabase::with_engine_and_clock(Engine::new(), config, clock);
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
    const PER_PHASE: u64 = 60;
    const PHASES: u64 = 4;
    // Per second of guard time: strong enough that every phase's
    // records weigh visibly less than the next phase's.
    const DECAY: f64 = 1.5;
    let config = GuardConfig::paper_default()
        .with_policy(access_policy())
        .with_access_decay(DECAY)
        .with_snapshot_policy(SnapshotPolicy::new(32, 1e9));
    let clock = ManualClock::shared();
    let db = Arc::new(guarded_with_clock(config, 16, clock.clone()));

    // Each phase is one second of guard time: the clock stands still
    // while the threads race, then moves on.
    for phase in 1..=PHASES {
        clock.advance_to_secs(phase as f64);
        let workers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let db = Arc::clone(&db);
                thread::spawn(move || {
                    let sql = format!("SELECT * FROM t WHERE id = {tid}");
                    for _ in 0..PER_PHASE {
                        db.execute_with_deadline(&sql).unwrap();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
    }
    db.refresh();

    // Sequential reference: same pre-registered keys, the clock advanced
    // to each phase's time, then that phase's records. Every record of a
    // phase carries the same weight, so neither the total nor any key's
    // count depends on how the threads interleaved.
    let mut reference = FrequencyTracker::new(DecaySchedule::new(DECAY));
    for i in 0..16 {
        reference.ensure_tracked(rid_of(&db, i).raw());
    }
    for phase in 1..=PHASES {
        reference.advance_to(phase as f64);
        for i in 0..THREADS * PER_PHASE {
            reference.record(rid_of(&db, i % THREADS).raw());
        }
    }

    let snap = db.snapshot();
    let table = snap.table("t").expect("table observed");
    assert_eq!(table.access.events(), THREADS * PER_PHASE * PHASES);
    assert_eq!(table.access.events(), reference.events(), "lost events");
    let (got, want) = (table.access.total(), reference.total());
    assert!(
        (got - want).abs() <= want.abs() * 1e-12,
        "decayed mass diverged: got {got}, want {want}"
    );
    assert!(
        want < 0.7 * reference.events() as f64,
        "decay must be exercised: mass {want}"
    );
    for tid in 0..THREADS {
        let key = rid_of(&db, tid).raw();
        let (got, want) = (table.access.count(key), reference.count(key));
        assert!(
            (got - want).abs() <= want.abs() * 1e-12,
            "tuple {tid}: got {got}, want {want}"
        );
    }
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
    let hot_sql = "SELECT * FROM t WHERE id = 1";
    assert_eq!(
        db_snap.execute_with_deadline(hot_sql).unwrap().tuple_delays,
        [10.0]
    );
    // That charge recorded one more access; the exact path records it too,
    // so both master sequences stay identical.
    db_exact.execute_at(hot_sql, 401.0).unwrap();

    // One refresh epoch.
    db_snap.refresh();

    for id in 0..50 {
        let rid_e = rid_of(&db_exact, id);
        let sql = format!("SELECT * FROM t WHERE id = {id}");
        let got = db_snap.execute_with_deadline(&sql).unwrap().tuple_delays;
        let want = db_exact.tuple_delay("t", rid_e, 500.0).unwrap();
        assert_eq!(got, [want], "tuple {id} diverged after one epoch");
    }
    // And the hot tuple actually got cheap — the assertion above is not
    // vacuous cap-vs-cap.
    assert!(
        db_snap.execute_with_deadline(hot_sql).unwrap().tuple_delays[0] < 0.5,
        "hot tuple should be far below the cap"
    );
}
