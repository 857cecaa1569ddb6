//! The guard's statement cache seen through its SQL entry points: a
//! cached shape answers from the table as it is now, threads that find
//! the cache busy answer and price as one thread does, errors read as a
//! direct parse reports them, and the cache stays within its bound.

use delayguard_core::clock::{Clock, ManualClock};
use delayguard_core::{
    AccessDelayPolicy, DeadlineResponse, GuardConfig, GuardError, GuardPolicy, GuardedDatabase,
    SnapshotPolicy,
};
use delayguard_query::{parse, Engine, StatementOutput, STATEMENT_CACHE_CAPACITY};
use delayguard_storage::Value;
use std::sync::Arc;
use std::thread;

/// `t(id, name)` with a unique index on `id`, ids `0..rows`, on a
/// manual clock whose snapshot never rebuilds by itself.
fn guarded(rows: i64) -> GuardedDatabase {
    let config = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.2, 1.0).with_cap(10.0),
        ))
        .with_snapshot_policy(SnapshotPolicy::new(usize::MAX, 1e18));
    let clock: Arc<dyn Clock> = ManualClock::shared();
    let db = GuardedDatabase::with_engine_and_clock(Engine::new(), config, clock);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, name TEXT NOT NULL)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    let values: Vec<String> = (0..rows).map(|id| format!("({id}, 'n{id}')")).collect();
    db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0)
        .unwrap();
    db
}

fn names(output: &StatementOutput) -> Vec<Value> {
    let rows = output.rows().expect("a SELECT");
    rows.rows
        .iter()
        .map(|(_, row)| row.values()[0].clone())
        .collect()
}

#[test]
fn a_table_rebuilt_with_other_columns_answers_from_the_new_table() {
    let db = guarded(10);
    let sql = |id: i64| format!("SELECT name FROM t WHERE id = {id}");
    let read = |id| names(&db.execute_at(&sql(id), 1.0).unwrap().output);
    assert_eq!(read(3), vec![Value::Text("n3".into())]);
    assert_eq!(db.cached_statements(), 1);
    db.execute_at("DROP TABLE t", 2.0).unwrap();
    db.execute_at("CREATE TABLE t (name TEXT NOT NULL, id INT NOT NULL)", 2.0)
        .unwrap();
    db.execute_at("INSERT INTO t VALUES ('fresh-3', 3), ('fresh-4', 4)", 2.0)
        .unwrap();
    assert_eq!(read(3), vec![Value::Text("fresh-3".into())]);
    assert_eq!(read(4), vec![Value::Text("fresh-4".into())]);
    assert_eq!(db.cached_statements(), 1, "one shape, replanned");
}

#[test]
fn threads_that_find_the_cache_busy_answer_and_price_as_one_thread_does() {
    const ROWS: i64 = 200;
    let queries: Vec<String> = (0..1_500)
        .map(|i: i64| match i % 3 {
            0 => format!("SELECT * FROM t WHERE id = {}", (i * 7) % ROWS),
            1 => format!("SELECT name FROM t WHERE id = {}", (i * 13) % ROWS),
            _ => {
                let lo = (i * 11) % ROWS;
                format!(
                    "SELECT id, name FROM t WHERE id >= {lo} AND id < {}",
                    lo + 5
                )
            }
        })
        .collect();
    // Skewed popularity through the exact path, published once: every
    // later query prices from this one snapshot, whatever the order.
    let setup = || {
        let db = guarded(ROWS);
        for i in 0..2_000_i64 {
            let id = (i * i) % 37;
            db.execute_at(&format!("SELECT * FROM t WHERE id = {id}"), 1.0 + i as f64)
                .unwrap();
        }
        db.refresh();
        Arc::new(db)
    };
    let run = |db: &GuardedDatabase| -> Vec<DeadlineResponse> {
        queries
            .iter()
            .map(|sql| db.execute_with_deadline(sql).unwrap())
            .collect()
    };
    let alone = run(&setup());
    let shared = setup();
    let raced: Vec<Vec<DeadlineResponse>> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let db = Arc::clone(&shared);
                s.spawn(move || run(&db))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for responses in &raced {
        for ((sql, got), want) in queries.iter().zip(responses).zip(&alone) {
            assert_eq!(got.output, want.output, "{sql}");
            assert_eq!(got.tuple_delays, want.tuple_delays, "{sql}");
            assert_eq!(got.tuple_offsets, want.tuple_offsets, "{sql}");
            assert_eq!(got.delay_secs, want.delay_secs, "{sql}");
            assert_eq!(got.issued_at_nanos, want.issued_at_nanos, "{sql}");
        }
    }
    assert_eq!(shared.cached_statements(), 3);
}

#[test]
fn a_malformed_select_reports_exactly_what_parsing_reports() {
    let db = guarded(5);
    for sql in [
        "SELECT id FROM t WHERE",
        "SELECT id FROM t WHERE id = ?",
        "SELECT id FROM t WHERE name = 'open",
        "SELECT id FROM t WHERE id = 99999999999999999999",
        "SELECT id FROM t LIMIT 'x'",
        "SELECT id FROM t WHERE id = 1 1",
    ] {
        let direct = GuardError::from(parse(sql).unwrap_err());
        // Twice: an error is never cached.
        for _ in 0..2 {
            assert_eq!(db.execute_at(sql, 1.0).unwrap_err(), direct, "{sql}");
        }
    }
    assert_eq!(db.cached_statements(), 0);
}

#[test]
fn more_shapes_than_capacity_stay_bounded_and_answer_right() {
    let db = guarded(100);
    let shapes = STATEMENT_CACHE_CAPACITY + 16;
    assert_eq!(shapes, 80);
    for round in 0..2 {
        for limit in 1..=shapes {
            // The LIMIT count is part of the shape; the id is not.
            let sql = format!("SELECT id FROM t WHERE id >= {round} LIMIT {limit}");
            let out = db.execute_at(&sql, 1.0).unwrap().output;
            assert_eq!(out.rows().map(|rows| rows.len()), Some(limit), "{sql}");
            assert!(db.cached_statements() <= STATEMENT_CACHE_CAPACITY);
        }
    }
    assert_eq!(db.cached_statements(), STATEMENT_CACHE_CAPACITY);
}
