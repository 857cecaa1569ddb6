//! The snapshot's packed access table is maintained, not rebuilt: each
//! refresh re-reads the rank buckets of only the tracker chunks written
//! since the previous snapshot and shares the rest with it.
//!
//! Seeded random traffic — point reads and range scans, inserts of new
//! keys mid-run, updates, a decay rate high enough to force rescales, and
//! a merged replica delta — runs against a guard on the snapshot path
//! while a twin guard executes the same statements at the same times on
//! the exact path. After every refresh:
//!
//! * every tracked key, and a spread of untracked ones, prices to the bit
//!   from the maintained pack, from a pack of the same tracker built from
//!   scratch, and from the generic tracker walk;
//! * `popularity_table` and `access_events` answer the same on both
//!   guards.

use delayguard_core::{
    AccessDelayPolicy, Clock, GuardConfig, GuardPolicy, GuardedDatabase, ManualClock, ReplicaDelta,
    TableDelta,
};
use delayguard_query::Engine;
use delayguard_workload::Rng;
use std::sync::Arc;

/// Rows loaded before traffic starts (three chunks and a partial one).
const ROWS: u64 = 700;

fn policy() -> AccessDelayPolicy {
    AccessDelayPolicy::new(1.2, 1.0).with_cap(5.0)
}

fn guard(clock: Arc<dyn Clock>) -> GuardedDatabase {
    // 3^210 passes the decay schedule's 1e100 rescale threshold, so a
    // run of a few hundred guard seconds rescales at least once.
    let config = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(policy()))
        .with_access_decay(3.0);
    let db = GuardedDatabase::with_engine_and_clock(Engine::new(), config, clock);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    for lo in (0..ROWS).step_by(100) {
        let values: Vec<String> = (lo..lo + 100).map(|i| format!("({i}, 'r')")).collect();
        db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0)
            .unwrap();
    }
    db
}

/// A peer's cumulative state for `t`: popularity over its own rows.
fn peer_delta(rng: &mut Rng) -> ReplicaDelta {
    let accesses = (0..300u64)
        .map(|k| (k, rng.below(50) as f64))
        .collect::<Vec<_>>();
    ReplicaDelta {
        origin: 7,
        seq: 1,
        tables: vec![(
            "t".to_owned(),
            TableDelta {
                accesses,
                updates: Vec::new(),
                rows: 300,
                epoch: Some(0.0),
            },
        )],
        gate: Default::default(),
    }
}

/// The maintained pack of `main`'s snapshot against a fresh pack and the
/// tracker walk, key by key. Returns (keys re-packed, keys tracked).
fn check_pack(main: &GuardedDatabase, step: usize) -> (usize, usize) {
    let p = policy();
    let snap = main.snapshot();
    let table = snap.table("t").expect("t is observed");
    let maintained = table.packed_access.as_ref().expect("access-rate pack");
    let fresh = p.pack(&table.access, None);
    assert_eq!(fresh.repacked_keys(), table.access.tracked());
    assert_eq!(maintained.len(), table.access.tracked());
    assert_eq!(maintained.fmax().to_bits(), fresh.fmax().to_bits());
    let tracked: Vec<u64> = table.access.rank_table().map(|(k, _)| k).collect();
    let untracked = (ROWS..ROWS + 600).chain([u64::MAX, 1 << 63, (1 << 63) + 299]);
    let n_local = main.engine().catalog().table("t").unwrap().read().len() as u64;
    for n in [n_local + table.extra_rows, 1, 100_000] {
        let (ms, fs) = (maintained.scalars(n), fresh.scalars(n));
        let mut hint = 0;
        for &key in &tracked {
            let want = p.delay(&table.access, n, key).to_bits();
            assert_eq!(
                maintained.delay(&ms, key).to_bits(),
                want,
                "step {step} n {n} tracked key {key}"
            );
            assert_eq!(fresh.delay(&fs, key).to_bits(), want);
            assert_eq!(maintained.delay_seq(&ms, key, &mut hint).to_bits(), want);
        }
        for key in untracked.clone() {
            let want = p.delay(&table.access, n, key).to_bits();
            assert_eq!(
                maintained.delay(&ms, key).to_bits(),
                want,
                "step {step} n {n} untracked key {key}"
            );
            assert_eq!(fresh.delay(&fs, key).to_bits(), want);
        }
    }
    (maintained.repacked_keys(), table.access.tracked())
}

fn run(seed: u64) {
    let mut rng = Rng::new(seed);
    let clock = ManualClock::shared();
    let main = guard(Arc::clone(&clock) as Arc<dyn Clock>);
    let twin = guard(ManualClock::shared() as Arc<dyn Clock>);
    let mut next_id = ROWS;
    let (mut refreshes, mut partial) = (0, 0);
    for step in 0..400 {
        clock.advance_nanos(rng.below(2_000_000_000));
        let now = clock.now_nanos() as f64 / 1e9;
        if step == 200 {
            let delta = peer_delta(&mut rng);
            assert!(main.apply_replica_delta(&delta));
            assert!(twin.apply_replica_delta(&delta));
        }
        let sql = match rng.below(100) {
            0..=44 => {
                // Skewed point reads: low ids far more often.
                let id = rng.below(next_id).min(rng.below(next_id));
                format!("SELECT id FROM t WHERE id = {id}")
            }
            45..=59 => {
                let lo = rng.below(next_id);
                let len = 1 + rng.below(300);
                format!("SELECT id FROM t WHERE id >= {lo} AND id < {}", lo + len)
            }
            60..=69 => {
                next_id += 1;
                format!("INSERT INTO t VALUES ({}, 'new')", next_id - 1)
            }
            70..=79 => {
                let id = rng.below(next_id);
                format!("UPDATE t SET body = 'u' WHERE id = {id}")
            }
            _ => {
                main.refresh();
                let (repacked, tracked) = check_pack(&main, step);
                refreshes += 1;
                if repacked < tracked {
                    partial += 1;
                }
                assert_eq!(main.popularity_table("t"), twin.popularity_table("t"));
                assert_eq!(main.access_events("t"), twin.access_events("t"));
                continue;
            }
        };
        main.execute_with_deadline(&sql).unwrap();
        twin.execute_at(&sql, now).unwrap();
    }
    main.refresh();
    check_pack(&main, usize::MAX);
    let snap = main.snapshot();
    let table = snap.table("t").unwrap();
    assert_eq!(
        table.extra_rows, 300,
        "seed {seed}: the replica delta is merged"
    );
    let access = &table.access;
    assert!(
        access.schedule().rescales() > 0,
        "seed {seed}: the run must cross a rescale"
    );
    assert!(
        partial * 2 > refreshes,
        "seed {seed}: only {partial} of {refreshes} refreshes re-packed part of the table"
    );
}

#[test]
fn incremental_pack_equals_a_fresh_pack() {
    for seed in [1, 2, 3] {
        run(seed);
    }
}
