//! Durability integration: snapshot + WAL recovery reproduces a database
//! that crashed mid-workload.

use delayguard::query::{Engine, SelectOutput};
use delayguard::storage::wal::{read_log, recover, Wal, WalRecord};
use delayguard::storage::{persist, Row, Value};
use std::sync::Arc;

/// A SELECT's output; panics on any other statement.
fn select(e: &Engine, sql: &str) -> SelectOutput {
    e.execute(sql).unwrap().rows().cloned().expect("a SELECT")
}

fn schema_sql() -> &'static str {
    "CREATE TABLE ledger (id INT NOT NULL, balance INT NOT NULL)"
}

#[test]
fn snapshot_plus_wal_equals_crash_recovery() {
    let dir = std::env::temp_dir().join(format!("dg-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap_path = dir.join("base.dgsnap");
    let wal_path = dir.join("tail.wal");
    std::fs::remove_file(&wal_path).ok();

    // Phase 1: build a base database and snapshot it.
    let engine = Engine::new();
    engine.execute(schema_sql()).unwrap();
    engine
        .execute("CREATE UNIQUE INDEX ledger_pk ON ledger (id)")
        .unwrap();
    for i in 0..100 {
        engine
            .execute(&format!("INSERT INTO ledger VALUES ({i}, 1000)"))
            .unwrap();
    }
    persist::save(engine.catalog(), &snap_path).unwrap();

    // Phase 2: keep mutating, logging every mutation to the WAL.
    let mut wal = Wal::open(&wal_path).unwrap();
    wal.append(&WalRecord::Checkpoint).unwrap();
    let table = engine.catalog().table("ledger").unwrap();
    for i in 100..150 {
        let row = Row::new(vec![Value::Int(i), Value::Int(500)]);
        table.write().insert(row.clone()).unwrap();
        wal.append(&WalRecord::Insert {
            table: "ledger".into(),
            row,
        })
        .unwrap();
    }
    // An update and a delete, logged by rid.
    let rid = {
        let t = table.read();
        let id_col = t.schema().index_of("id").unwrap();
        t.index_lookup(&[id_col], &vec![Value::Int(10)]).unwrap()[0]
    };
    let new_row = Row::new(vec![Value::Int(10), Value::Int(9999)]);
    table.write().update(rid, new_row.clone()).unwrap();
    wal.append(&WalRecord::Update {
        table: "ledger".into(),
        rid,
        row: new_row,
    })
    .unwrap();
    wal.sync().unwrap();
    // "Crash": drop the live engine.
    drop(engine);

    // Phase 3: recover = load snapshot, replay the WAL tail.
    let catalog = persist::load(&snap_path).unwrap();
    let applied = recover(&catalog, &read_log(&wal_path).unwrap()).unwrap();
    assert_eq!(applied, 51);
    let recovered = Engine::with_catalog(Arc::new(catalog));
    assert_eq!(select(&recovered, "SELECT * FROM ledger").len(), 150);
    let hit = select(&recovered, "SELECT balance FROM ledger WHERE id = 10");
    assert_eq!(hit.rows[0].1.get(0), Some(&Value::Int(9999)));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_wal_tail_loses_only_the_last_record() {
    let dir = std::env::temp_dir().join(format!("dg-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("torn.wal");
    std::fs::remove_file(&wal_path).ok();

    {
        let mut wal = Wal::open(&wal_path).unwrap();
        for i in 0..5 {
            wal.append(&WalRecord::Insert {
                table: "ledger".into(),
                row: Row::new(vec![Value::Int(i), Value::Int(0)]),
            })
            .unwrap();
        }
        wal.sync().unwrap();
    }
    // Simulate a crash mid-append of record 5.
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let cut = bytes.len() - 5;
    bytes.truncate(cut);
    std::fs::write(&wal_path, &bytes).unwrap();

    let engine = Engine::new();
    engine.execute(schema_sql()).unwrap();
    let records = read_log(&wal_path).unwrap();
    assert_eq!(records.len(), 4, "intact prefix only");
    let applied = recover(engine.catalog(), &records).unwrap();
    assert_eq!(applied, 4);
    assert_eq!(select(&engine, "SELECT * FROM ledger").len(), 4);

    std::fs::remove_dir_all(&dir).ok();
}
