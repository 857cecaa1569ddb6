//! Snapshot persistence across the whole stack: data, indexes, and stats
//! survive a save/load cycle, and a reloaded engine serves identical
//! results.

use delayguard::query::{Engine, SelectOutput};
use delayguard::storage::{persist, Catalog};
use std::sync::Arc;

/// A SELECT's output; panics on any other statement.
fn select(e: &Engine, sql: &str) -> SelectOutput {
    e.execute(sql).unwrap().rows().cloned().expect("a SELECT")
}

fn populated_engine() -> Engine {
    let e = Engine::new();
    e.execute("CREATE TABLE movies (id INT NOT NULL, title TEXT NOT NULL, gross FLOAT)")
        .unwrap();
    e.execute("CREATE UNIQUE INDEX movies_pk ON movies (id)")
        .unwrap();
    e.execute("CREATE INDEX movies_gross ON movies (gross)")
        .unwrap();
    for i in 0..1_000 {
        e.execute(&format!(
            "INSERT INTO movies VALUES ({i}, 'movie-{i}', {}.25)",
            i % 97
        ))
        .unwrap();
    }
    e.execute("DELETE FROM movies WHERE id >= 900").unwrap();
    e.execute("UPDATE movies SET gross = 999.0 WHERE id = 42")
        .unwrap();
    e
}

#[test]
fn snapshot_round_trip_preserves_query_results() {
    let e = populated_engine();
    let before = select(&e, "SELECT id, title FROM movies WHERE gross = 999.0");
    let bytes = persist::snapshot_bytes(e.catalog());
    let catalog: Catalog = persist::catalog_from_bytes(&bytes).unwrap();
    let e2 = Engine::with_catalog(Arc::new(catalog));
    let after = select(&e2, "SELECT id, title FROM movies WHERE gross = 999.0");
    assert_eq!(before.rows.len(), 1);
    assert_eq!(before.rows[0].1, after.rows[0].1);
    assert_eq!(
        select(&e, "SELECT * FROM movies").len(),
        select(&e2, "SELECT * FROM movies").len()
    );
    // Index-backed point query still works (indexes rebuilt on load).
    let point = select(&e2, "SELECT title FROM movies WHERE id = 7");
    assert_eq!(point.len(), 1);
}

#[test]
fn snapshot_file_round_trip() {
    let dir = std::env::temp_dir().join(format!("dg-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.dgsnap");

    let e = populated_engine();
    persist::save(e.catalog(), &path).unwrap();
    let loaded = persist::load(&path).unwrap();
    let e2 = Engine::with_catalog(Arc::new(loaded));
    assert_eq!(select(&e2, "SELECT * FROM movies").len(), 900);

    // Stats survive too.
    let t = e2.catalog().table("movies").unwrap();
    let stats = t.read().stats();
    assert_eq!(stats.inserts, 1_000);
    assert_eq!(stats.deletes, 100);
    assert_eq!(stats.updates, 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn snapshot_detects_tampering() {
    let e = populated_engine();
    let mut bytes = persist::snapshot_bytes(e.catalog());
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x01;
    assert!(persist::catalog_from_bytes(&bytes).is_err());
}

#[test]
fn reloaded_engine_accepts_new_writes() {
    let e = populated_engine();
    let bytes = persist::snapshot_bytes(e.catalog());
    let e2 = Engine::with_catalog(Arc::new(persist::catalog_from_bytes(&bytes).unwrap()));
    e2.execute("INSERT INTO movies VALUES (5000, 'sequel', 1.0)")
        .unwrap();
    // Unique index still enforced after reload.
    assert!(e2
        .execute("INSERT INTO movies VALUES (5000, 'dup', 1.0)")
        .is_err());
    assert_eq!(select(&e2, "SELECT * FROM movies").len(), 901);
}
