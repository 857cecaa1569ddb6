//! End-to-end integration: the full SQL path (parse → plan → execute →
//! count → rank → delay) under a realistic skewed workload, reproducing
//! the paper's core claim through the engine rather than the fast-path
//! simulator.

use delayguard::core::{GuardConfig, GuardedDatabase};
use delayguard::query::StatementOutput;
use delayguard::sim::median_of;
use delayguard::workload::{Rng, Zipf};

fn setup(rows: u64) -> GuardedDatabase {
    let db = GuardedDatabase::new(GuardConfig::paper_default());
    db.execute_at(
        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
        0.0,
    )
    .unwrap();
    db.execute_at("CREATE UNIQUE INDEX directory_pk ON directory (id)", 0.0)
        .unwrap();
    for id in 0..rows {
        db.execute_at(
            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
            0.0,
        )
        .unwrap();
    }
    db
}

#[test]
fn legitimate_users_fast_extraction_slow_through_sql() {
    let rows = 500u64;
    let db = setup(rows);
    let zipf = Zipf::new(rows, 1.5);
    let mut rng = Rng::new(99);

    // A population of legitimate users with Zipf preferences. Object ids
    // here coincide with ranks; the defense does not care.
    let mut user_delays = Vec::new();
    let mut t = 1.0;
    for _ in 0..20_000 {
        let id = zipf.sample(&mut rng) - 1;
        let resp = db
            .execute_at(&format!("SELECT entry FROM directory WHERE id = {id}"), t)
            .unwrap();
        assert_eq!(resp.tuples_charged, 1);
        user_delays.push(resp.delay_secs);
        t += 1.0;
    }
    // Warm state: judge the steady-state median on the last half.
    let steady = user_delays.split_off(user_delays.len() / 2);
    let median = median_of(steady);

    // The adversary crawls the table row by row through the same front
    // door (delays summed but not recorded into its favor: we query the
    // delays the *current* state would charge).
    let mut adversary_total = 0.0;
    for id in 0..rows {
        let resp = db
            .execute_at(&format!("SELECT entry FROM directory WHERE id = {id}"), t)
            .unwrap();
        adversary_total += resp.delay_secs;
        t += 1.0;
    }

    assert!(median < 0.5, "median user delay {median}");
    assert!(
        adversary_total > 1_000.0,
        "adversary total {adversary_total}"
    );
    let per_tuple = adversary_total / rows as f64;
    assert!(
        per_tuple / median.max(1e-6) > 10.0,
        "per-tuple adversary {per_tuple} vs median {median}"
    );
}

#[test]
fn multi_tuple_queries_charged_as_aggregate_of_singles() {
    let db = setup(50);
    // Warm up two tuples heavily.
    for t in 0..200 {
        db.execute_at("SELECT * FROM directory WHERE id = 1", t as f64)
            .unwrap();
        db.execute_at("SELECT * FROM directory WHERE id = 2", t as f64)
            .unwrap();
    }
    let single1 = db
        .execute_at("SELECT * FROM directory WHERE id = 1", 500.0)
        .unwrap();
    let single2 = db
        .execute_at("SELECT * FROM directory WHERE id = 2", 500.0)
        .unwrap();
    let pair = db
        .execute_at("SELECT * FROM directory WHERE id = 1 OR id = 2", 500.0)
        .unwrap();
    assert_eq!(pair.tuples_charged, 2);
    // Sum model: the pair costs about the two singles combined. (Counts
    // moved slightly between measurements, so allow slack.)
    let sum = single1.delay_secs + single2.delay_secs;
    assert!(
        (pair.delay_secs - sum).abs() <= sum * 0.2 + 1e-6,
        "pair {} vs singles {}",
        pair.delay_secs,
        sum
    );
}

#[test]
fn updates_and_deletes_flow_through_the_guard() {
    let db = setup(20);
    let r = db
        .execute_at("UPDATE directory SET entry = 'x' WHERE id < 5", 1.0)
        .unwrap();
    assert!(matches!(&r.output, StatementOutput::Updated { rids } if rids.len() == 5));
    assert_eq!(r.delay_secs, 0.0, "writes are not delayed");
    let r = db
        .execute_at("DELETE FROM directory WHERE id >= 15", 2.0)
        .unwrap();
    assert!(matches!(&r.output, StatementOutput::Deleted { rids } if rids.len() == 5));
    let rows = db.execute_at("SELECT * FROM directory", 3.0).unwrap();
    match rows.output {
        StatementOutput::Rows(out) => assert_eq!(out.len(), 15),
        other => panic!("{other:?}"),
    }
}

#[test]
fn guard_survives_concurrent_use() {
    let db = std::sync::Arc::new(setup(100));
    let mut handles = Vec::new();
    for thread in 0..4 {
        let db = std::sync::Arc::clone(&db);
        handles.push(std::thread::spawn(move || {
            for i in 0..500u64 {
                let id = (thread * 25 + i % 25) % 100;
                let resp = db
                    .execute_at(
                        &format!("SELECT entry FROM directory WHERE id = {id}"),
                        i as f64,
                    )
                    .unwrap();
                assert_eq!(resp.tuples_charged, 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(db.access_events("directory"), 2000);
}
