//! Differential test: the full guard stack against the naive reference
//! pricer ([`delayguard_testkit::NaivePricer`]) on seeded random traffic
//! — point reads, range scans, inserts, updates and deletes — under all
//! three policy arms and both charging models.
//!
//! Two pricers are checked against the one model:
//!
//! * `execute_at` (exact): each tuple is priced against the state left by
//!   every earlier tuple, those of its own statement included, so the
//!   model prices and records one tuple at a time.
//! * `execute_with_deadline` under a `ManualClock` with
//!   `max_pending_events = 1` (snapshot, refreshed after every
//!   statement): a statement is priced from one frozen view, so the model
//!   prices the whole result and only then records it.
//!
//! A third case samples the paper's evaluation: a small Calgary replay
//! through `delayguard_sim::replay` (Tables 1–3 run on the same path)
//! checked request by request.

use delayguard_core::clock::ManualClock;
use delayguard_core::{
    AccessDelayPolicy, ChargingModel, Clock, GuardConfig, GuardPolicy, GuardedDatabase,
    SnapshotPolicy, UpdateDelayPolicy,
};
use delayguard_query::{Engine, StatementOutput};
use delayguard_sim::{per_request, replay};
use delayguard_testkit::{check_seeds, NaivePricer};
use delayguard_workload::{CalgaryConfig, Rng, Zipf};
use std::sync::Arc;

const ROWS: u64 = 48;
const STATEMENTS: u64 = 300;

fn policies() -> [GuardPolicy; 3] {
    let access = AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0);
    let update = UpdateDelayPolicy::new(2.0).with_cap(10.0);
    [
        GuardPolicy::AccessRate(access),
        GuardPolicy::UpdateRate(update),
        GuardPolicy::Hybrid(access, update),
    ]
}

/// Drive one seeded statement stream through the guard and the model;
/// `exact` picks which of the guard's two pricers is under test.
fn run(seed: u64, policy: GuardPolicy, charging: ChargingModel, exact: bool) {
    let config = GuardConfig::paper_default()
        .with_policy(policy)
        .with_charging(charging)
        .with_snapshot_policy(SnapshotPolicy::new(1, 1e9));
    let clock = ManualClock::shared();
    let db = GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let mut model = NaivePricer::new(policy, charging);
    let mut rng = Rng::new(seed);
    let zipf = Zipf::new(ROWS, 1.1);
    let (mut live, mut next_id, mut now) = (0u64, ROWS, 0.0f64);
    let ctx = |sql: &str| format!("seed {seed} {policy:?} {charging:?} exact={exact}: {sql}");

    let mut statement = |sql: String, now: f64, live: &mut u64| {
        // The guard's answer: output, charged delay, and the timestamp it
        // stamped the statement with.
        let (output, charged, at) = if exact {
            let r = db.execute_at(&sql, now).expect("statement runs");
            (r.output, r.delay_secs, now)
        } else {
            clock.advance_to_secs(now);
            let r = db.execute_with_deadline(&sql).expect("statement runs");
            (r.output, r.delay_secs, db.now_secs())
        };
        // The model's answer, from the row ids the engine reported.
        let expected = match &output {
            StatementOutput::Rows(out) => {
                let keys: Vec<u64> = out.rows.iter().map(|(rid, _)| rid.raw()).collect();
                let mut delays = Vec::with_capacity(keys.len());
                for &key in &keys {
                    delays.push(model.price(key, *live, at));
                    if exact {
                        model.access(key, at);
                    }
                }
                if !exact {
                    keys.iter().for_each(|&key| model.access(key, at));
                }
                model.fold(&delays)
            }
            StatementOutput::Inserted { rids } => {
                rids.iter().for_each(|rid| model.insert(rid.raw(), at));
                *live += rids.len() as u64;
                0.0
            }
            StatementOutput::Updated { rids } => {
                rids.iter().for_each(|rid| model.update(rid.raw(), at));
                0.0
            }
            StatementOutput::Deleted { rids } => {
                rids.iter().for_each(|rid| model.update(rid.raw(), at));
                *live -= rids.len() as u64;
                0.0
            }
            _ => 0.0,
        };
        assert!(
            (charged - expected).abs() <= 1e-12 * expected.abs(),
            "{}: guard charged {charged}, model says {expected}",
            ctx(&sql)
        );
    };

    statement(
        "CREATE TABLE t (id INT NOT NULL, v INT NOT NULL)".into(),
        now,
        &mut live,
    );
    statement("CREATE UNIQUE INDEX t_pk ON t (id)".into(), now, &mut live);
    for id in 0..ROWS {
        statement(format!("INSERT INTO t VALUES ({id}, 0)"), now, &mut live);
    }
    for q in 0..STATEMENTS {
        now += rng.f64_range(0.01, 5.0);
        let id = zipf.sample(&mut rng) - 1;
        let sql = match rng.below(10) {
            0..=3 => format!("SELECT * FROM t WHERE id = {id}"),
            4..=5 => format!(
                "SELECT v FROM t WHERE id >= {id} AND id < {}",
                id + rng.range(2, 12)
            ),
            6 => {
                next_id += 1;
                format!("INSERT INTO t VALUES ({next_id}, {q})")
            }
            7..=8 => format!("UPDATE t SET v = {q} WHERE id = {id}"),
            _ => format!("DELETE FROM t WHERE id = {}", rng.below(next_id + 1)),
        };
        statement(sql, now, &mut live);
    }
}

#[test]
fn exact_pricer_matches_the_naive_model() {
    check_seeds(
        "exact_pricer_matches_the_naive_model",
        &[13, 2004],
        |seed| {
            for policy in policies() {
                for charging in [ChargingModel::PerTupleSum, ChargingModel::PerQueryMax] {
                    run(seed, policy, charging, true);
                }
            }
        },
    );
}

#[test]
fn snapshot_pricer_matches_the_naive_model() {
    check_seeds(
        "snapshot_pricer_matches_the_naive_model",
        &[13, 2004],
        |seed| {
            for policy in policies() {
                for charging in [ChargingModel::PerTupleSum, ChargingModel::PerQueryMax] {
                    run(seed, policy, charging, false);
                }
            }
        },
    );
}

#[test]
fn calgary_replay_matches_the_naive_model() {
    let trace = CalgaryConfig::scaled_to(500);
    let policy = GuardPolicy::AccessRate(AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0));
    let config = GuardConfig::paper_default().with_policy(policy);
    let result = replay(per_request(trace.key_stream()), trace.objects, config, 1);
    assert_eq!(result.delays.len(), trace.requests as usize);
    // The replay inserts every id at t = 0, then reads request i's key at
    // t = i + 1. Ranks are invariant under renaming keys, so the model
    // can track ids where the guard tracks row ids.
    let mut model = NaivePricer::new(policy, ChargingModel::PerTupleSum);
    for key in 0..trace.objects {
        model.insert(key, 0.0);
    }
    for (i, (key, &charged)) in trace.key_stream().zip(&result.delays).enumerate() {
        let now = (i + 1) as f64;
        let expected = model.price(key, trace.objects, now);
        assert!(
            (charged - expected).abs() <= 1e-12 * expected.abs(),
            "request {i} (key {key}): guard charged {charged}, model says {expected}"
        );
        model.access(key, now);
    }
}
