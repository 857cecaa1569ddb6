//! Property-based tests over the core data structures and invariants.
//!
//! These were originally written against `proptest`; the build container
//! has no network access to crates.io (see `vendor/README.md`), so they
//! now use a small deterministic generator harness over the workspace's
//! own `delayguard::workload::Rng`. Every test runs a fixed number of
//! random cases from a fixed seed, so failures reproduce exactly.

use delayguard::popularity::{DecaySchedule, FrequencyTracker};
use delayguard::query::parse;
use delayguard::storage::codec::{decode_row, row_bytes};
use delayguard::storage::page::{Page, MAX_RECORD};
use delayguard::storage::{Row, Value};
use delayguard::workload::{Rng, Zipf};

const CASES: u64 = 128;

/// Run `body` for `CASES` seeded random cases.
fn cases(test_seed: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng::new(test_seed ^ (case.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        body(&mut rng);
    }
}

fn arb_bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
    let len = rng.below(max_len + 1) as usize;
    (0..len).map(|_| rng.below(256) as u8).collect()
}

fn arb_text(rng: &mut Rng, max_len: u64) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| {
            // Mix ASCII with a few multi-byte code points.
            match rng.below(8) {
                0 => 'é',
                1 => '界',
                2 => '\u{1F600}',
                _ => (rng.range(0x20, 0x7e) as u8) as char,
            }
        })
        .collect()
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.below(7) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Int(rng.next_u64() as i64),
        3 => Value::Float(f64::from_bits(rng.next_u64())),
        4 => Value::Float(rng.f64_range(-1e9, 1e9)),
        5 => Value::Text(arb_text(rng, 40)),
        _ => Value::Bytes(arb_bytes(rng, 63)),
    }
}

fn arb_row(rng: &mut Rng) -> Row {
    let arity = rng.below(8) as usize;
    Row::new((0..arity).map(|_| arb_value(rng)).collect())
}

// ---- codec -------------------------------------------------------------

#[test]
fn codec_round_trips_any_row() {
    cases(0xC0DEC, |rng| {
        let row = arb_row(rng);
        let bytes = row_bytes(&row);
        let back = decode_row(&bytes).unwrap();
        // NaN-safe comparison via the total order on Value.
        assert_eq!(row.arity(), back.arity());
        for (a, b) in row.values().iter().zip(back.values()) {
            assert!(a.cmp(b) == std::cmp::Ordering::Equal, "{a:?} vs {b:?}");
        }
    });
}

#[test]
fn codec_never_panics_on_garbage() {
    cases(0xBAD5EED, |rng| {
        let bytes = arb_bytes(rng, 255);
        // Must return Ok or Err, never panic.
        let _ = decode_row(&bytes);
    });
}

// ---- value ordering -----------------------------------------------------

#[test]
fn value_order_is_total_and_antisymmetric() {
    use std::cmp::Ordering;
    cases(0x0BDE12, |rng| {
        let a = arb_value(rng);
        let b = arb_value(rng);
        match a.cmp(&b) {
            Ordering::Less => assert_eq!(b.cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.cmp(&a), Ordering::Less),
            Ordering::Equal => assert_eq!(b.cmp(&a), Ordering::Equal),
        }
    });
}

#[test]
fn value_order_transitive() {
    cases(0x7A25, |rng| {
        let mut v = [arb_value(rng), arb_value(rng), arb_value(rng)];
        v.sort();
        assert!(v[0] <= v[1] && v[1] <= v[2] && v[0] <= v[2]);
    });
}

// ---- slotted page -------------------------------------------------------

#[test]
fn page_model_check() {
    cases(0x9A6E, |rng| {
        // Random insert/delete sequence cross-checked against a model map.
        let mut page = Page::new();
        let mut model: std::collections::HashMap<u16, Vec<u8>> = std::collections::HashMap::new();
        let ops = rng.below(60);
        for _ in 0..ops {
            let op = rng.below(256) as u8;
            let data = arb_bytes(rng, 299);
            if !op.is_multiple_of(3) || model.is_empty() {
                if let Some(slot) = page.insert(&data) {
                    model.insert(slot, data);
                }
            } else {
                let &slot = model.keys().next().unwrap();
                assert!(page.delete(slot));
                model.remove(&slot);
            }
            // Every model entry must be readable.
            for (slot, want) in &model {
                assert_eq!(page.get(*slot), Some(want.as_slice()));
            }
            assert_eq!(page.live_count(), model.len());
        }
        // Snapshot round trip preserves everything.
        let restored = Page::from_bytes(page.as_bytes()).unwrap();
        for (slot, want) in &model {
            assert_eq!(restored.get(*slot), Some(want.as_slice()));
        }
    });
}

#[test]
fn page_never_accepts_oversized() {
    cases(0x516, |rng| {
        let len = MAX_RECORD + 1 + rng.below(63) as usize;
        let data = vec![0xABu8; len];
        let mut page = Page::new();
        assert!(page.insert(&data).is_none());
    });
}

// ---- decayed counters ---------------------------------------------------

#[test]
fn tracker_total_equals_sum_of_counts() {
    cases(0x707A1, |rng| {
        let rate = rng.range(1000, 1100) as f64 / 1000.0;
        let n = rng.range(1, 500);
        let mut t = FrequencyTracker::new(DecaySchedule::new(rate));
        for _ in 0..n {
            t.record(rng.below(50));
        }
        let sum: f64 = t.iter().map(|(_, c)| c).sum();
        assert!((sum - t.total()).abs() <= t.total() * 1e-9 + 1e-12);
        assert_eq!(t.events(), n);
    });
}

#[test]
fn tracker_rank_consistent_with_exact() {
    cases(0x2A2C, |rng| {
        let n = rng.range(1, 400);
        let mut t = FrequencyTracker::no_decay();
        for _ in 0..n {
            t.record(rng.below(30));
        }
        for key in 0..30u64 {
            if t.contains(key) {
                let a = t.rank(key) as i64;
                let e = t.exact_rank(key) as i64;
                // Integer counts: same count -> same bucket, so the only
                // divergence is distinct counts sharing a log bucket.
                assert!((a - e).abs() <= 4, "key {key}: {a} vs {e}");
            }
        }
    });
}

#[test]
fn fmax_is_max_frequency() {
    cases(0xF4A0, |rng| {
        let n = rng.range(1, 300);
        let mut t = FrequencyTracker::no_decay();
        for _ in 0..n {
            t.record(rng.below(20));
        }
        let best = t.iter().map(|(k, _)| t.frequency(k)).fold(0.0, f64::max);
        assert!((t.fmax() - best).abs() < 1e-12);
        assert!(t.fmax() <= 1.0 + 1e-12);
    });
}

// ---- zipf ---------------------------------------------------------------

#[test]
fn zipf_cdf_well_formed() {
    cases(0x21FF, |rng| {
        let n = rng.range(1, 2_000);
        let alpha = rng.below(300) as f64 / 100.0;
        let z = Zipf::new(n, alpha);
        let total: f64 = (1..=n).map(|i| z.probability(i)).sum();
        assert!((total - 1.0).abs() < 1e-6, "n={n} alpha={alpha}: {total}");
        let mut sample_rng = Rng::new(7);
        for _ in 0..50 {
            let s = z.sample(&mut sample_rng);
            assert!((1..=n).contains(&s));
        }
    });
}

// ---- SQL parser ---------------------------------------------------------

#[test]
fn parser_never_panics() {
    cases(0x50151, |rng| {
        let input = arb_text(rng, 80);
        let _ = parse(&input);
    });
}

#[test]
fn parser_accepts_generated_selects() {
    fn ident(rng: &mut Rng, max_extra: u64) -> String {
        let mut s = String::new();
        s.push((rng.range(b'a' as u64, b'z' as u64) as u8) as char);
        for _ in 0..rng.below(max_extra + 1) {
            let c = match rng.below(3) {
                0 => (rng.range(b'0' as u64, b'9' as u64) as u8) as char,
                1 => '_',
                _ => (rng.range(b'a' as u64, b'z' as u64) as u8) as char,
            };
            s.push(c);
        }
        s
    }
    cases(0x5E1EC7, |rng| {
        let table = ident(rng, 10);
        let col = ident(rng, 10);
        let v = rng.next_u64() as i32;
        let limit = rng.below(1000);
        let sql = format!("SELECT {col} FROM {table} WHERE {col} = {v} LIMIT {limit}");
        let stmt = parse(&sql).unwrap();
        match stmt {
            delayguard::query::ast::Statement::Select {
                table: t, limit: l, ..
            } => {
                assert_eq!(t, table);
                assert_eq!(l, Some(limit));
            }
            other => panic!("unexpected {other:?}"),
        }
    });
}

// ---- delay policy invariants --------------------------------------------

#[test]
fn delay_never_exceeds_cap_nor_negative() {
    use delayguard::core::AccessDelayPolicy;
    cases(0xCA9, |rng| {
        let cap = rng.below(20_000) as f64 / 1000.0;
        let n = rng.range(1, 200);
        let probe = rng.below(200);
        let mut t = FrequencyTracker::no_decay();
        for _ in 0..n {
            t.record(rng.below(100));
        }
        let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(cap);
        let d = policy.delay(&t, 100, probe);
        assert!(d >= 0.0);
        assert!(d <= cap + 1e-12);
    });
}

// ---- streaming execution pipeline ---------------------------------------

/// The materialized entry points are drains of the streaming pipeline;
/// this cross-checks them end to end on random Zipf workloads over a
/// pair of identically-seeded databases, in one of two arms per case:
///
/// * **clock/snapshot pair** — every query on database A runs through
///   `execute_with_deadline`, the same query on B through
///   `execute_stmt_streaming` drained in random-sized chunks. Rows,
///   per-tuple delays, release offsets, and the combined delay must be
///   bit-identical — and stay identical across queries, which proves the
///   chunked path records the same popularity mutations as the one-shot
///   path. Occasionally a query is dropped mid-stream on both sides (a
///   client hanging up after k chunks); the charged prefix must match
///   and later queries still agree.
/// * **exact vs streamed** — A runs every statement through
///   `execute_at` (the exact pricer) at the virtual time B's manual
///   clock shows while B drains it in chunks (the snapshot pricer,
///   refreshed after every statement). Rows and tuple counts always
///   agree, and the popularity ledgers stay identical. The charged delay
///   is bit-identical wherever the two pricers are defined to agree:
///   under the update-rate policy always, under the access-rate policy
///   for results of at most one row (the exact pricer records each tuple
///   before pricing the next one of the same statement; the snapshot
///   pricer prices the whole statement from one frozen view).
#[test]
fn streaming_execution_matches_materialized() {
    use delayguard::core::clock::ManualClock;
    use delayguard::core::{
        ChargedChunk, ChargingModel, Clock, DeadlineResponse, GuardConfig, GuardPolicy,
        GuardedDatabase, SnapshotPolicy, StreamedQuery, UpdateDelayPolicy,
    };
    use delayguard::query::{parse, RowBuf, SelectOutput, StatementOutput};
    use std::sync::Arc;

    /// Drain a streaming query in chunks of `chunk_rows`, stopping after
    /// `drop_after` charged chunks if set; mirrors the materialized
    /// response shape for comparison.
    fn drain_streaming(
        db: &GuardedDatabase,
        sql: &str,
        chunk_rows: usize,
        drop_after: Option<usize>,
    ) -> DeadlineResponse {
        let stmt = parse(sql).unwrap();
        db.execute_stmt_streaming(&stmt, |query| match query {
            StreamedQuery::Rows(mut stream) => {
                let (mut buf, mut charged) = (RowBuf::new(), ChargedChunk::default());
                let mut rows = Vec::new();
                let mut delays = Vec::new();
                let mut offsets = Vec::new();
                let mut chunks = 0;
                while stream.next_chunk_into(chunk_rows, &mut buf).unwrap() > 0 {
                    if drop_after == Some(chunks) {
                        break;
                    }
                    stream.charge_into(buf.rows(), &mut charged);
                    delays.extend_from_slice(&charged.delays);
                    offsets.extend_from_slice(&charged.offsets);
                    rows.extend_from_slice(buf.rows());
                    chunks += 1;
                }
                assert_eq!(stream.tuples_charged() as usize, delays.len());
                DeadlineResponse {
                    output: StatementOutput::Rows(SelectOutput {
                        columns: stream.columns().to_vec(),
                        rows,
                    }),
                    tuple_delays: delays,
                    tuple_offsets: offsets,
                    delay_secs: stream.delay_secs(),
                    issued_at_nanos: stream.issued_at_nanos(),
                }
            }
            StreamedQuery::Finished(resp) => resp,
        })
        .unwrap()
    }

    fn assert_rows_equal(a: &StatementOutput, b: &StatementOutput, ctx: &str) {
        match (a, b) {
            (StatementOutput::Rows(ra), StatementOutput::Rows(rb)) => {
                assert_eq!(ra.columns, rb.columns, "{ctx}: columns");
                assert_eq!(ra.rows.len(), rb.rows.len(), "{ctx}: row count");
                for ((ida, rowa), (idb, rowb)) in ra.rows.iter().zip(&rb.rows) {
                    assert_eq!(ida, idb, "{ctx}: row id");
                    assert_eq!(rowa.values(), rowb.values(), "{ctx}: row payload");
                }
            }
            (oa, ob) => assert_eq!(oa, ob, "{ctx}: non-row outputs"),
        }
    }

    fn assert_bit_equal(a: &DeadlineResponse, b: &DeadlineResponse, ctx: &str) {
        assert_rows_equal(&a.output, &b.output, ctx);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.tuple_delays),
            bits(&b.tuple_delays),
            "{ctx}: delays"
        );
        assert_eq!(
            bits(&a.tuple_offsets),
            bits(&b.tuple_offsets),
            "{ctx}: offsets"
        );
        assert_eq!(
            a.delay_secs.to_bits(),
            b.delay_secs.to_bits(),
            "{ctx}: combined delay"
        );
        assert_eq!(a.issued_at_nanos, b.issued_at_nanos, "{ctx}: issue time");
        assert_eq!(a.deadline_nanos(), b.deadline_nanos(), "{ctx}: deadline");
    }

    cases(0x57EEA, |rng| {
        // Random but shared configuration for the pair of databases.
        let charging = if rng.chance(0.5) {
            ChargingModel::PerTupleSum
        } else {
            ChargingModel::PerQueryMax
        };
        let exact_arm = !rng.chance(0.5);
        let update_rate = exact_arm && rng.chance(0.5);
        let mut config = GuardConfig::paper_default()
            .with_charging(charging)
            // Refresh after every statement so the chunked path (one
            // recorded event per chunk) and the one-shot path (one event
            // per statement) apply their mutations at the same points —
            // and, in the exact arm, so the snapshot pricer sees exactly
            // the state the exact pricer does.
            .with_snapshot_policy(SnapshotPolicy {
                max_pending_events: 1,
                ..SnapshotPolicy::default()
            });
        if update_rate {
            config = config.with_policy(GuardPolicy::UpdateRate(
                UpdateDelayPolicy::new(1.0).with_cap(10.0),
            ));
        }
        let clock_a = Arc::new(ManualClock::new());
        let clock_b = Arc::new(ManualClock::new());
        let db_a = GuardedDatabase::with_engine_and_clock(
            delayguard::query::Engine::new(),
            config,
            Arc::clone(&clock_a) as Arc<dyn Clock>,
        );
        let db_b = GuardedDatabase::with_engine_and_clock(
            delayguard::query::Engine::new(),
            config,
            Arc::clone(&clock_b) as Arc<dyn Clock>,
        );
        // Database A's one-shot form of a statement: the clock-driven
        // drain, or the exact pricer at the time both clocks show.
        let one_shot = |sql: &str| {
            if exact_arm {
                let r = db_a.execute_at(sql, clock_b.now_secs()).unwrap();
                (r.output, r.delay_secs, r.tuples_charged)
            } else {
                let r = db_a.execute_with_deadline(sql).unwrap();
                (r.output, r.delay_secs, r.tuple_delays.len())
            }
        };

        // Identical schema and contents on both sides.
        let n_rows = rng.range(1, 40);
        for sql in [
            "CREATE TABLE t (id INT NOT NULL, grp INT NOT NULL, note TEXT NOT NULL)",
            "CREATE UNIQUE INDEX t_pk ON t (id)",
        ] {
            one_shot(sql);
            db_b.execute_with_deadline(sql).unwrap();
        }
        for id in 0..n_rows {
            let sql = format!("INSERT INTO t VALUES ({id}, {}, 'n-{id}')", id % 5);
            one_shot(&sql);
            db_b.execute_with_deadline(&sql).unwrap();
        }

        // A Zipf-skewed query mix, advancing both clocks in lockstep.
        let zipf = Zipf::new(n_rows.max(1), 1.1);
        let n_queries = rng.range(3, 12);
        for q in 0..n_queries {
            let dt = rng.below(2_000_000_000);
            clock_a.advance_nanos(dt);
            clock_b.advance_nanos(dt);
            let sql = match rng.below(if exact_arm { 6 } else { 5 }) {
                0 => "SELECT * FROM t".to_string(),
                1 => format!("SELECT id, note FROM t WHERE id = {}", zipf.sample(rng) - 1),
                2 => format!("SELECT * FROM t WHERE grp = {}", rng.below(5)),
                3 => format!(
                    "SELECT * FROM t ORDER BY id DESC LIMIT {}",
                    rng.range(1, 10)
                ),
                4 => format!("SELECT note FROM t WHERE id < {}", zipf.sample(rng)),
                // Writes move the update-rate prices (exact arm only: the
                // clock pair has compared SELECTs since it was written).
                _ => format!(
                    "UPDATE t SET note = 'w-{q}' WHERE id = {}",
                    zipf.sample(rng) - 1
                ),
            };
            let chunk_rows = rng.range(1, 8) as usize;
            if exact_arm {
                let (out_a, delay_a, tuples_a) = one_shot(&sql);
                let b = drain_streaming(&db_b, &sql, chunk_rows, None);
                let ctx = format!("exact arm, query {q} ({sql})");
                assert_rows_equal(&out_a, &b.output, &ctx);
                assert_eq!(tuples_a, b.tuple_delays.len(), "{ctx}: tuples charged");
                if update_rate || tuples_a <= 1 {
                    assert_eq!(delay_a.to_bits(), b.delay_secs.to_bits(), "{ctx}: delay");
                }
                assert_eq!(
                    db_a.popularity_table("t"),
                    db_b.popularity_table("t"),
                    "{ctx}: popularity ledger"
                );
            } else if rng.chance(0.15) {
                // Mid-stream drop, mirrored on both sides: only the
                // charged prefix may have been recorded.
                let k = rng.below(4) as usize;
                let a = drain_streaming(&db_a, &sql, chunk_rows, Some(k));
                let b = drain_streaming(&db_b, &sql, chunk_rows, Some(k));
                assert_bit_equal(&a, &b, &format!("query {q} (dropped after {k})"));
                assert!(a.tuple_delays.len() <= k * chunk_rows);
            } else {
                let a = db_a.execute_with_deadline(&sql).unwrap();
                let b = drain_streaming(&db_b, &sql, chunk_rows, None);
                assert_bit_equal(&a, &b, &format!("query {q} ({sql})"));
            }
        }
    });
}

#[test]
fn charging_models_bounded_by_each_other() {
    use delayguard::core::ChargingModel;
    cases(0xC4A26E, |rng| {
        let n = rng.below(50) as usize;
        let delays: Vec<f64> = (0..n).map(|_| rng.f64_range(0.0, 10.0)).collect();
        let sum = ChargingModel::PerTupleSum.combine(delays.iter().copied());
        let max = ChargingModel::PerQueryMax.combine(delays.iter().copied());
        assert!(max <= sum + 1e-12);
        if let Some(&first) = delays.first() {
            assert!(max >= first - 1e-12 || max >= 0.0);
        }
    });
}
