//! Property-based tests over the core data structures and invariants.
//!
//! These were originally written against `proptest`; the build container
//! has no network access to crates.io (see `vendor/README.md`), so they
//! now use a small deterministic generator harness over the workspace's
//! own `delayguard::workload::Rng`. Every test runs a fixed number of
//! random cases from a fixed seed, so failures reproduce exactly.

use delayguard::popularity::{DecaySchedule, FrequencyTracker};
use delayguard::query::parse;
use delayguard::storage::codec::{decode_row, encode_row};
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
        let mut bytes = Vec::new();
        encode_row(&row, &mut bytes);
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
        for i in 0..n {
            t.advance_to(i as f64);
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
        let best = t.iter().map(|(_, c)| c / t.total()).fold(0.0, f64::max);
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
                        columns: Arc::clone(stream.columns()),
                        rows,
                    }),
                    tuple_delays: delays,
                    tuple_offsets: offsets,
                    delay_secs: stream.delay_secs(),
                    issued_at_nanos: stream.issued_at_nanos(),
                    // A SELECT writes no table.
                    data_version: 0,
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

// ---- the wire's statement cache -----------------------------------------

/// A front door over a guarded database on the virtual clock, with a sink
/// that keeps every frame: the rig of the statement-cache differentials.
mod wire {
    use delayguard::core::gatekeeper::RegistrationPolicy;
    use delayguard::core::{Clock, GatekeeperConfig, GuardConfig, GuardedDatabase, ManualClock};
    use delayguard::query::Engine;
    use delayguard::server::{
        DelayScheduler, Frame, FrameSink, FrontDoor, GateConfig, MutationVerb, ServerMetrics,
        SessionState,
    };
    use delayguard::sim::Registry;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Every frame, runs expanded, with the virtual time it was pushed at.
    pub struct Sink {
        clock: Arc<ManualClock>,
        pub frames: Mutex<Vec<(u64, Frame)>>,
    }

    impl FrameSink for Sink {
        fn push_control(&self, frame: Frame) {
            let at = self.clock.now_nanos();
            let mut frames = Vec::new();
            frame.expand_into(&mut frames);
            let mut sent = self.frames.lock().unwrap();
            sent.extend(frames.into_iter().map(|f| (at, f)));
        }

        fn push_row(&self, frame: Frame) {
            self.push_control(frame);
        }

        fn try_reserve_rows(&self, _n: usize) -> bool {
            true
        }
    }

    pub struct World {
        pub clock: Arc<ManualClock>,
        scheduler: Arc<DelayScheduler>,
        pub gate: FrontDoor,
        sink: Arc<Sink>,
        registry: Registry,
        user: u64,
    }

    const PEER: [u8; 4] = [10, 1, 2, 3];

    impl World {
        pub fn new(setup: &[String]) -> World {
            let clock = ManualClock::shared();
            let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
            let db = Arc::new(GuardedDatabase::with_engine_and_clock(
                Engine::new(),
                GuardConfig::paper_default(),
                Arc::clone(&dyn_clock),
            ));
            for sql in setup {
                db.execute_at(sql, 0.0).unwrap();
            }
            let registry = Registry::new();
            let metrics = ServerMetrics::new(&registry);
            let tick = Duration::from_millis(1);
            let scheduler = DelayScheduler::manual(tick, metrics.clone(), Arc::clone(&dyn_clock));
            let open = GatekeeperConfig {
                registration: RegistrationPolicy::interval(0.0),
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                ..GatekeeperConfig::default()
            };
            let gate = FrontDoor::new(
                GateConfig {
                    gatekeeper: open,
                    stream_chunk_rows: 4,
                    ..GateConfig::default()
                },
                db,
                Arc::clone(&scheduler),
                dyn_clock,
                metrics,
                registry.clone(),
            );
            let sink = Arc::new(Sink {
                clock: Arc::clone(&clock),
                frames: Mutex::new(Vec::new()),
            });
            let mut world = World {
                clock,
                scheduler,
                gate,
                sink,
                registry,
                user: 0,
            };
            world.user = world.register(&SessionState::new());
            world
        }

        /// Negotiate v2 framing on `session`; returns the new identity.
        pub fn register(&self, session: &SessionState) -> u64 {
            let register = Frame::Register {
                claimed_ip: [0; 4],
                version: 2,
            };
            self.gate.handle_frame(register, PEER, session, &self.sink);
            match self.sink.frames.lock().unwrap().pop() {
                Some((_, Frame::Registered { user, .. })) => user,
                other => panic!("expected Registered, got {other:?}"),
            }
        }

        pub fn counter(&self, name: &str) -> u64 {
            match self.registry.value(name) {
                Some(delayguard::sim::MetricValue::Counter(n)) => n,
                other => panic!("{name}: {other:?}"),
            }
        }

        /// Issue `sql` on `session` and release everything it scheduled.
        pub fn query(&self, query_id: u32, sql: &str, session: &SessionState) -> Vec<(u64, Frame)> {
            let frame = Frame::Query {
                query_id,
                user: self.user,
                sql: sql.to_owned(),
            };
            self.send(frame, session)
        }

        /// Send `sql` in a write frame of `verb` on `session`.
        pub fn write(
            &self,
            verb: MutationVerb,
            query_id: u32,
            sql: &str,
            session: &SessionState,
        ) -> Vec<(u64, Frame)> {
            let (user, sql) = (self.user, sql.to_owned());
            let frame = match verb {
                MutationVerb::Insert => Frame::Insert {
                    query_id,
                    user,
                    sql,
                },
                MutationVerb::Update => Frame::Update {
                    query_id,
                    user,
                    sql,
                },
                MutationVerb::Delete => Frame::Delete {
                    query_id,
                    user,
                    sql,
                },
            };
            self.send(frame, session)
        }

        /// Hand `frame` to the front door and release everything it
        /// scheduled.
        fn send(&self, frame: Frame, session: &SessionState) -> Vec<(u64, Frame)> {
            self.gate.handle_frame(frame, PEER, session, &self.sink);
            while let Some(at) = self.scheduler.next_deadline_nanos() {
                self.clock.advance_to_nanos(at);
                self.scheduler.poll();
            }
            std::mem::take(&mut *self.sink.frames.lock().unwrap())
        }
    }
}

/// A SELECT served from a session's statement cache answers exactly what
/// the same text parsed and planned afresh answers. Two identical worlds
/// on the virtual clock get the same generated SELECTs: world A through
/// one session (its cache warms up, later queries only bind), world B
/// through a fresh session per query (every query parsed and planned).
/// Every frame — rows with their `seq`, `ROWS_END`, `DONE` with its
/// delay — and the virtual time it was released at must be equal, and
/// the rows must be the ones the engine returns for the literal text.
#[test]
fn cached_statements_answer_like_fresh_ones() {
    use delayguard::query::Engine;
    use delayguard::server::{Frame, SessionState};
    use wire::World;

    let mut hits = 0;
    cases(0x5E5510C, |rng| {
        let n = rng.range(5, 40) as i64;
        let mut setup = vec![
            "CREATE TABLE t (id INT NOT NULL, grp INT, score FLOAT NOT NULL, note TEXT NOT NULL)"
                .to_owned(),
            "CREATE UNIQUE INDEX t_pk ON t (id)".to_owned(),
            "CREATE INDEX t_note ON t (note)".to_owned(),
        ];
        for i in 0..n {
            let grp = if i % 7 == 0 {
                "NULL".to_owned()
            } else {
                (i % 4).to_string()
            };
            setup.push(format!(
                "INSERT INTO t VALUES ({}, {grp}, {:.1}, 'it''s-{i}')",
                i - n / 2,
                i as f64 * 1.5 - 10.0
            ));
        }
        let (cached, fresh) = (World::new(&setup), World::new(&setup));
        let plain = Engine::new();
        for sql in &setup {
            plain.execute(sql).unwrap();
        }
        let session = SessionState::new();
        cached.register(&session);
        let id = |rng: &mut Rng| rng.range(0, n as u64 + 6) as i64 - n / 2 - 3;
        let score = |rng: &mut Rng| format!("{:.2}", rng.f64_range(-15.0, 55.0));
        for query_id in 1..=rng.range(8, 24) as u32 {
            let sql = match rng.below(8) {
                0 => format!("SELECT * FROM t WHERE id = {}", id(rng)),
                1 => format!(
                    "SELECT id, note FROM t WHERE score >= {} AND score < {}",
                    score(rng),
                    score(rng)
                ),
                2 => format!(
                    "SELECT id FROM t WHERE note = 'it''s-{}'",
                    rng.below(n as u64 + 2)
                ),
                3 => format!("SELECT id, grp FROM t WHERE grp = NULL OR id = {}", id(rng)),
                4 => format!(
                    "SELECT id FROM t WHERE grp >= {} ORDER BY score DESC LIMIT {}",
                    rng.below(4),
                    rng.range(1, 6)
                ),
                5 => format!(
                    "SELECT * FROM t WHERE id > {} AND id > {} AND id <= {}",
                    id(rng),
                    id(rng),
                    id(rng)
                ),
                6 => format!(
                    "SELECT note FROM t WHERE id >= {} AND id < {}",
                    id(rng),
                    id(rng)
                ),
                _ => format!(
                    "SELECT id FROM t WHERE id < {} AND {} < id ORDER BY id LIMIT {}",
                    id(rng),
                    id(rng),
                    rng.range(1, 4)
                ),
            };
            let dt = rng.below(2_000_000_000);
            cached.clock.advance_nanos(dt);
            fresh.clock.advance_nanos(dt);
            let a = cached.query(query_id, &sql, &session);
            let one_off = SessionState::new();
            fresh.register(&one_off);
            let b = fresh.query(query_id, &sql, &one_off);
            assert_eq!(a, b, "query {query_id}: {sql}");
            let rows: Vec<&Row> = a
                .iter()
                .filter_map(|(_, f)| match f {
                    Frame::Row { row, .. } => Some(row),
                    _ => None,
                })
                .collect();
            let want = plain.execute(&sql).unwrap();
            let want = want.rows().expect("a SELECT");
            assert_eq!(rows.len(), want.len(), "row count: {sql}");
            for (got, (_, want)) in rows.iter().zip(&want.rows) {
                assert_eq!(got.values(), want.values(), "{sql}");
            }
            assert!(
                matches!(a.last(), Some((_, Frame::Done { .. }))),
                "{sql}: {a:?}"
            );
        }
        hits += cached.counter("server_stmt_cache_hits");
        assert_eq!(fresh.counter("server_stmt_cache_hits"), 0);
    });
    assert!(
        hits > CASES * 2,
        "the cached world bound only {hits} statements"
    );
}

/// A write served from a session's statement cache does exactly what the
/// same text parsed afresh does. Two identical worlds on the virtual clock
/// get the same generated traffic — INSERT, UPDATE and DELETE frames with
/// SELECTs between them, among them writes that fail (a unique violation,
/// a type mismatch, `NULL` into `NOT NULL`, an UPDATE in a DELETE frame),
/// an index created mid-run and the table dropped and created again:
/// world A through one session (later writes only bind), world B through a
/// fresh session per statement (every one parsed). Every frame must be
/// equal — `MUTATED` rows and data version, `Error` text, `Refused`
/// reason — and so must the final table and the snapshot's access and
/// update counts.
#[test]
fn cached_writes_answer_like_fresh_ones() {
    use delayguard::server::{Frame, MutationVerb, SessionState};
    use wire::World;

    const TABLE: [&str; 2] = [
        "CREATE TABLE t (id INT NOT NULL, grp INT, score FLOAT NOT NULL, note TEXT NOT NULL)",
        "CREATE UNIQUE INDEX t_pk ON t (id)",
    ];
    let (mut hits, mut mutated, mut errors) = (0, 0, 0);
    cases(0x3717E5, |rng| {
        let n = rng.range(4, 24) as i64;
        let mut setup: Vec<String> = TABLE.iter().map(|s| s.to_string()).collect();
        for i in 0..n {
            setup.push(format!(
                "INSERT INTO t VALUES ({i}, {}, {:.1}, 'n-{i}')",
                i % 3,
                i as f64 * 0.5
            ));
        }
        let (cached, fresh) = (World::new(&setup), World::new(&setup));
        let session = SessionState::new();
        cached.register(&session);
        // DDL lands in both worlds alike, between two frames.
        let ddl = |sql: &str| {
            let run = |w: &World| {
                w.gate
                    .db()
                    .execute_with_deadline(sql)
                    .map(|r| r.output)
                    .map_err(|e| e.to_string())
            };
            assert_eq!(run(&cached), run(&fresh), "{sql}");
        };
        let frames = rng.range(12, 32) as u32;
        let index_at = rng.range(1, frames as u64) as u32;
        let rebuild_at = rng.range(1, frames as u64) as u32;
        let id = |rng: &mut Rng| rng.range(0, n as u64 + 6) as i64 - 2;
        let score = |rng: &mut Rng| format!("{:.1}", rng.f64_range(-5.0, 20.0));
        for query_id in 1..=frames {
            if query_id == index_at {
                ddl("CREATE INDEX t_grp ON t (grp)");
            }
            if query_id == rebuild_at {
                ddl("DROP TABLE t");
                TABLE.iter().for_each(|sql| ddl(sql));
            }
            let (verb, sql) = match rng.below(12) {
                0 => (
                    Some(MutationVerb::Insert),
                    format!(
                        "INSERT INTO t VALUES ({}, {}, {}, 'i-{query_id}')",
                        id(rng),
                        rng.below(3),
                        score(rng)
                    ),
                ),
                1 => (
                    Some(MutationVerb::Insert),
                    format!(
                        "INSERT INTO t VALUES ({}, NULL, {}, 'a'), ({}, 2, -{}, 'b')",
                        id(rng),
                        score(rng),
                        id(rng),
                        score(rng)
                    ),
                ),
                2 => (
                    Some(MutationVerb::Insert),
                    format!("INSERT INTO t VALUES ({}, 1, NULL, 'x')", id(rng)),
                ),
                3 => (
                    Some(MutationVerb::Update),
                    format!(
                        "UPDATE t SET note = 'u-{query_id}', score = score + {} WHERE id = {}",
                        score(rng),
                        id(rng)
                    ),
                ),
                4 => (
                    Some(MutationVerb::Update),
                    format!(
                        "UPDATE t SET grp = {} WHERE id >= {} AND id < {}",
                        rng.below(4),
                        id(rng),
                        id(rng)
                    ),
                ),
                5 => (
                    Some(MutationVerb::Update),
                    format!("UPDATE t SET score = 'high' WHERE id = {}", id(rng)),
                ),
                6 => (
                    Some(MutationVerb::Update),
                    format!("UPDATE t SET id = {} WHERE id = {}", id(rng), id(rng)),
                ),
                7 => (
                    Some(MutationVerb::Delete),
                    format!("DELETE FROM t WHERE id = {}", id(rng)),
                ),
                8 => (
                    Some(MutationVerb::Delete),
                    format!("UPDATE t SET grp = 1 WHERE id = {}", id(rng)),
                ),
                9 => (
                    Some(MutationVerb::Update),
                    format!(
                        "UPDATE t SET note = 'g-{query_id}' WHERE grp = {}",
                        rng.below(4)
                    ),
                ),
                10 => (None, format!("SELECT * FROM t WHERE id = {}", id(rng))),
                _ => (
                    None,
                    format!("SELECT id, note FROM t WHERE grp = {}", rng.below(4)),
                ),
            };
            let dt = rng.below(2_000_000_000);
            cached.clock.advance_nanos(dt);
            fresh.clock.advance_nanos(dt);
            let send = |w: &World, session: &SessionState| match verb {
                Some(verb) => w.write(verb, query_id, &sql, session),
                None => w.query(query_id, &sql, session),
            };
            let a = send(&cached, &session);
            let one_off = SessionState::new();
            fresh.register(&one_off);
            let b = send(&fresh, &one_off);
            assert_eq!(a, b, "frame {query_id}: {sql}");
            for (_, frame) in &a {
                match frame {
                    Frame::Mutated { .. } => mutated += 1,
                    Frame::Error { .. } => errors += 1,
                    _ => {}
                }
            }
        }
        // What each world holds, read past the guard so nothing is
        // recorded, and what its refreshed snapshot counted.
        let table = |w: &World| w.gate.db().engine().execute("SELECT * FROM t").unwrap();
        assert_eq!(table(&cached), table(&fresh), "final table");
        let counts = |w: &World| {
            let db = w.gate.db();
            db.refresh();
            let snapshot = db.snapshot();
            let t = snapshot.table("t").expect("traffic on t");
            let bits = |tracker: &FrequencyTracker| -> Vec<(u64, u64)> {
                tracker.iter().map(|(k, c)| (k, c.to_bits())).collect()
            };
            (
                bits(&t.access),
                bits(&t.updates),
                t.access.events(),
                t.updates.events(),
            )
        };
        assert_eq!(counts(&cached), counts(&fresh), "snapshot counts");
        hits += cached.counter("server_stmt_cache_hits");
        assert_eq!(fresh.counter("server_stmt_cache_hits"), 0);
    });
    assert!(
        hits > CASES * 4,
        "the cached world bound only {hits} statements"
    );
    assert!(mutated > CASES * 4, "only {mutated} writes applied");
    assert!(errors > CASES, "only {errors} writes failed");
}
