//! Decay measured in guard time, not in traffic.
//!
//! `GuardConfig::access_decay_rate` is a rate per unit of guard time (the
//! statement's `now_secs`). These tests drive the guard only through
//! `execute_at` and `GuardConfig::with_access_decay`:
//!
//! 1. How fast a key's history is forgotten does not depend on how much
//!    other traffic the guard served meanwhile.
//! 2. A crawler reading every tuple at 100× the honest rate does not
//!    erase honest popularity: the honest median during and after the
//!    crawl stays within a small factor of its value before it. (With
//!    decay counted per recorded event, the crawl's own reads would set
//!    the forgetting rate.)
//!
//! Run with `--nocapture` to see the crawl scenario's medians.

use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::StatementOutput;
use delayguard_storage::RowId;
use delayguard_workload::{Rng, Zipf};
use std::fmt::Write;

/// A guard over `t(id INT, body TEXT)` holding ids `0..rows`, inserted at
/// t = 0; returns the guard and each id's row.
fn load(config: GuardConfig, rows: u64) -> (GuardedDatabase, Vec<RowId>) {
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT NOT NULL)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_id ON t (id)", 0.0)
        .unwrap();
    let mut rids = Vec::with_capacity(rows as usize);
    for start in (0..rows).step_by(1000) {
        let mut sql = String::from("INSERT INTO t VALUES ");
        for id in start..(start + 1000).min(rows) {
            let sep = if id == start { "" } else { ", " };
            write!(sql, "{sep}({id}, 'row {id}')").unwrap();
        }
        match db.execute_at(&sql, 0.0).unwrap().output {
            StatementOutput::Inserted { rids: r } => rids.extend(r),
            other => panic!("INSERT returned {other:?}"),
        }
    }
    (db, rids)
}

/// Point-read `id` at guard time `now`; returns the charged delay.
fn read(db: &GuardedDatabase, id: u64, now: f64) -> f64 {
    db.execute_at(&format!("SELECT * FROM t WHERE id = {id}"), now)
        .unwrap()
        .delay_secs
}

/// Normalized access count of `rid` as the guard holds it.
fn count(db: &GuardedDatabase, rid: RowId) -> f64 {
    db.refresh();
    db.snapshot().table("t").unwrap().access.count(rid.raw())
}

#[test]
fn forgetting_does_not_depend_on_background_traffic() {
    // Both guards see key 0 at t = 1, 2, 3, then background reads on
    // other keys spread over (3, 100], the last at t = 100: 10 reads on
    // one guard, 1,000 on the other.
    let config = GuardConfig::paper_default().with_access_decay(1.01);
    let mut counts = Vec::new();
    for background in [10u64, 1_000] {
        let (db, rids) = load(config, 201);
        for t in 1..=3 {
            read(&db, 0, t as f64);
        }
        for j in 1..=background {
            let now = 3.0 + 97.0 * j as f64 / background as f64;
            read(&db, 1 + j % 200, now);
        }
        counts.push(count(&db, rids[0]));
    }
    let expected = (1.01f64 + 1.01f64.powi(2) + 1.01f64.powi(3)) / 1.01f64.powi(100);
    for (c, background) in counts.iter().zip([10, 1_000]) {
        assert!(
            (c - expected).abs() <= expected * 1e-12,
            "{background} background reads: count {c}, expected {expected}"
        );
    }
    assert!(
        (counts[0] - counts[1]).abs() <= counts[0] * 1e-12,
        "history forgotten at a rate set by traffic: {} vs {}",
        counts[0],
        counts[1]
    );
}

/// Tuples in the crawl scenario.
const ROWS: u64 = 10_000;
/// Honest reads per second of guard time.
const HONEST_PER_SEC: f64 = 10.0;
/// Seconds of honest traffic before the crawl.
const HONEST_SECS: f64 = 300.0;
/// Seconds of honest traffic after the crawl.
const AFTER_SECS: f64 = 100.0;
/// The crawler reads at 100× the honest rate.
const CRAWL_PER_SEC: f64 = 100.0 * HONEST_PER_SEC;
/// Popularity half-life: 100 s of guard time, so the rate is
/// `2^(1/100)` per second.
const DECAY_PER_UNIT: f64 = 1.006_955_550_056_719;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Honest Zipf(1.5) reads at 10/s for 300 s; a sequential crawl of every
/// tuple at 1,000/s with honest reads continuing at 10/s; then 100 s of
/// honest reads. Returns the honest median delay over the last 100 s
/// before the crawl, during the crawl, and over the 100 s after it.
fn crawl_scenario(config: GuardConfig) -> (f64, f64, f64) {
    let (db, _) = load(config, ROWS);
    let zipf = Zipf::new(ROWS, 1.5);
    let mut rng = Rng::new(0xC4A7);
    let mut honest = |db: &GuardedDatabase, now: f64| read(db, zipf.sample(&mut rng) - 1, now);
    let step = 1.0 / HONEST_PER_SEC;
    let warm = (HONEST_SECS * HONEST_PER_SEC) as u64;
    let mut before = Vec::new();
    for j in 1..=warm {
        let d = honest(&db, j as f64 * step);
        if j as f64 * step > HONEST_SECS - 100.0 {
            before.push(d);
        }
    }
    let honest_every = (CRAWL_PER_SEC / HONEST_PER_SEC) as u64;
    let mut during = Vec::new();
    for id in 0..ROWS {
        let now = HONEST_SECS + (id + 1) as f64 / CRAWL_PER_SEC;
        read(&db, id, now);
        if (id + 1) % honest_every == 0 {
            during.push(honest(&db, now));
        }
    }
    let crawl_end = HONEST_SECS + ROWS as f64 / CRAWL_PER_SEC;
    let after: Vec<f64> = (1..=(AFTER_SECS * HONEST_PER_SEC) as u64)
        .map(|j| honest(&db, crawl_end + j as f64 * step))
        .collect();
    (median(before), median(during), median(after))
}

#[test]
fn a_fast_crawl_does_not_erase_honest_popularity() {
    let config = GuardConfig::paper_default().with_access_decay(DECAY_PER_UNIT);
    let (before, during, after) = crawl_scenario(config);
    println!(
        "honest median delay, half-life 100 s, decay rate {DECAY_PER_UNIT} per unit: \
         before {before:.6e} s, during {during:.6e} s, after {after:.6e} s"
    );
    // Measured: 3.41 ms before, 13.4 ms during, 15.0 ms after. The rise
    // left is `FmaxMode::GlobalRequests` dividing the top count by every
    // request ever seen (the crawl quadruples that total), not forgotten
    // history. Counted per event at the same half-life (2^(1/1000) per
    // read at 10 reads/s), the same run reads 3.41 ms, 459 ms and 80.6 ms.
    assert!(before > 0.0 && before < 0.01, "before {before}");
    assert!(during <= 6.0 * before, "during {during} vs before {before}");
    assert!(after <= 6.0 * before, "after {after} vs before {before}");
}
