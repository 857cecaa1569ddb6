//! The per-session statement cache seen from the front door: a cached
//! shape answers exactly what a fresh parse would, the cache stays within
//! its bound, DDL between two frames replans, errors read as they always
//! did, and the hit/miss counters reach `STATS`. Also here: admission
//! stamps its charges under the gatekeeper lock, so two sessions of one
//! /24 append to the subnet's log in time order.

use delayguard_core::clock::{Clock, ManualClock, RealClock};
use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::{GatekeeperConfig, GuardConfig, GuardError, GuardedDatabase};
use delayguard_query::{parse, Engine};
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::Frame;
use delayguard_server::scheduler::DelayScheduler;
use delayguard_server::STATEMENT_CACHE_CAPACITY;
use delayguard_sim::{MetricValue, Registry};
use delayguard_storage::Value;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// Keeps every frame; grants every reservation.
#[derive(Default)]
struct Recorder {
    frames: Mutex<Vec<Frame>>,
}

impl FrameSink for Recorder {
    fn push_control(&self, frame: Frame) {
        self.frames.lock().push(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.frames.lock().push(frame);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

struct Rig {
    clock: Arc<ManualClock>,
    scheduler: Arc<DelayScheduler>,
    registry: Registry,
    gate: FrontDoor,
    db: Arc<GuardedDatabase>,
    session: SessionState,
    sink: Arc<Recorder>,
    user: u64,
    next_id: u32,
}

/// The real front door on a manual clock over `t(id, name)`, ids
/// `0..rows`, with one registered v2 session.
fn rig(rows: i64) -> Rig {
    let clock = ManualClock::shared();
    let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        GuardConfig::paper_default(),
        Arc::clone(&dyn_clock),
    ));
    db.execute_at("CREATE TABLE t (id INT NOT NULL, name TEXT NOT NULL)", 0.0)
        .unwrap();
    for id in 0..rows {
        db.execute_at(&format!("INSERT INTO t VALUES ({id}, 'n{id}')"), 0.0)
            .unwrap();
    }
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&dyn_clock),
    );
    let gate = FrontDoor::new(
        GateConfig {
            gatekeeper: GatekeeperConfig {
                registration: RegistrationPolicy::interval(0.0),
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                ..GatekeeperConfig::default()
            },
            ..GateConfig::default()
        },
        Arc::clone(&db),
        Arc::clone(&scheduler),
        dyn_clock,
        metrics,
        registry.clone(),
    );
    let session = SessionState::new();
    let sink = Arc::new(Recorder::default());
    gate.handle_frame(
        Frame::Register {
            claimed_ip: [0; 4],
            version: 2,
        },
        [10, 0, 0, 1],
        &session,
        &sink,
    );
    let user = match sink.frames.lock().pop() {
        Some(Frame::Registered { user, .. }) => user,
        other => panic!("expected Registered, got {other:?}"),
    };
    Rig {
        clock,
        scheduler,
        registry,
        gate,
        db,
        session,
        sink,
        user,
        next_id: 0,
    }
}

/// What one query answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Rows(Vec<Vec<Value>>),
    Error(String),
}

impl Rig {
    /// Send `sql` on the rig's session and run the wheel dry.
    fn query(&mut self, sql: &str) -> Answer {
        self.next_id += 1;
        let query_id = self.next_id;
        self.sink.frames.lock().clear();
        self.gate.handle_frame(
            Frame::Query {
                query_id,
                user: self.user,
                sql: sql.into(),
            },
            [10, 0, 0, 1],
            &self.session,
            &self.sink,
        );
        while let Some(at) = self.scheduler.next_deadline_nanos() {
            self.clock.advance_to_nanos(at);
            self.scheduler.poll();
        }
        let frames = std::mem::take(&mut *self.sink.frames.lock());
        let mut rows = Vec::new();
        for frame in frames {
            match frame {
                Frame::Row { row, .. } => rows.push(row.values().to_vec()),
                Frame::Error { message, .. } => return Answer::Error(message),
                Frame::Done { .. } => return Answer::Rows(rows),
                _ => {}
            }
        }
        panic!("query {query_id} ({sql}) never finished");
    }

    fn counter(&self, name: &str) -> u64 {
        match self.registry.value(name) {
            Some(MetricValue::Counter(n)) => n,
            other => panic!("{name}: {other:?}"),
        }
    }
}

fn ids(answer: &Answer) -> Vec<i64> {
    match answer {
        Answer::Rows(rows) => rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                ref v => panic!("not an int: {v:?}"),
            })
            .collect(),
        Answer::Error(e) => panic!("query failed: {e}"),
    }
}

#[test]
fn a_cached_shape_binds_each_frames_literals() {
    let mut rig = rig(20);
    assert_eq!(ids(&rig.query("SELECT id FROM t WHERE id = 7")), vec![7]);
    assert_eq!(ids(&rig.query("SELECT id FROM t WHERE id = 8")), vec![8]);
    assert_eq!(
        ids(&rig.query("SELECT id FROM t WHERE id >= 3 AND id < 6")),
        vec![3, 4, 5]
    );
    assert_eq!(
        ids(&rig.query("SELECT id FROM t WHERE id >= 11 AND id < 13")),
        vec![11, 12]
    );
    assert_eq!(
        ids(&rig.query("SELECT id FROM t WHERE name = 'n9'")),
        vec![9]
    );
    assert_eq!(rig.session.cached_statements(), 3);
    assert_eq!(rig.counter("server_stmt_cache_misses"), 3);
    assert_eq!(rig.counter("server_stmt_cache_hits"), 2);
    // Both counters are part of what STATS renders.
    let rendered = rig.registry.render();
    assert!(rendered.contains("server_stmt_cache_hits"), "{rendered}");
    assert!(rendered.contains("server_stmt_cache_misses"), "{rendered}");
}

#[test]
fn more_shapes_than_capacity_stay_correct_and_bounded() {
    let mut rig = rig(50);
    // Literals are not part of a shape, but spacing is: k spaces make
    // shape k.
    let shapes = STATEMENT_CACHE_CAPACITY + 16;
    for round in 0..3 {
        for k in 0..shapes {
            let id = (7 * k + round) % 60;
            let sql = format!("SELECT id FROM t WHERE{}id = {id}", " ".repeat(k + 1));
            let want = if id < 50 { vec![id as i64] } else { vec![] };
            assert_eq!(ids(&rig.query(&sql)), want, "{sql}");
            assert!(rig.session.cached_statements() <= STATEMENT_CACHE_CAPACITY);
        }
    }
    assert_eq!(rig.session.cached_statements(), STATEMENT_CACHE_CAPACITY);
    // Cycling through more shapes than fit evicts each before its reuse.
    assert_eq!(rig.counter("server_stmt_cache_misses"), 3 * shapes as u64);
}

#[test]
fn an_index_created_between_frames_replans_the_cached_shape() {
    let mut rig = rig(20);
    let sql = |name: &str| format!("SELECT id, name FROM t WHERE name = '{name}'");
    assert_eq!(ids(&rig.query(&sql("n3"))), vec![3]);
    rig.db
        .execute_at("CREATE INDEX t_name ON t (name)", 0.0)
        .unwrap();
    assert_eq!(ids(&rig.query(&sql("n4"))), vec![4]);
    assert_eq!(ids(&rig.query(&sql("n5"))), vec![5]);
    assert_eq!(rig.counter("server_stmt_cache_hits"), 2);
}

#[test]
fn a_table_rebuilt_between_frames_replans_the_cached_shape() {
    let mut rig = rig(20);
    let sql = |id: i64| format!("SELECT name FROM t WHERE id = {id}");
    assert_eq!(
        rig.query(&sql(3)),
        Answer::Rows(vec![vec![Value::Text("n3".into())]])
    );
    // Same name, columns in the other order, different rows.
    rig.db.execute_at("DROP TABLE t", 0.0).unwrap();
    let gone = rig.query(&sql(3));
    let direct = rig.db.execute_at(&sql(3), 0.0).unwrap_err().to_string();
    assert_eq!(
        gone,
        Answer::Error(direct),
        "a dropped table reads as before"
    );
    rig.db
        .execute_at("CREATE TABLE t (name TEXT NOT NULL, id INT NOT NULL)", 0.0)
        .unwrap();
    rig.db
        .execute_at("INSERT INTO t VALUES ('fresh-3', 3), ('fresh-4', 4)", 0.0)
        .unwrap();
    assert_eq!(
        rig.query(&sql(4)),
        Answer::Rows(vec![vec![Value::Text("fresh-4".into())]])
    );
    assert_eq!(
        rig.query(&sql(3)),
        Answer::Rows(vec![vec![Value::Text("fresh-3".into())]])
    );
}

#[test]
fn errors_read_exactly_as_a_direct_parse_reports_them() {
    let mut rig = rig(5);
    for sql in [
        "SELECT id FROM t WHERE id = ?",
        "SELECT id FROM t WHERE name = 'open",
        "SELECT id FROM t WHERE id = 99999999999999999999",
        "SELECT id FROM t WHERE",
        "SELECT id FROM t LIMIT 'x'",
        "SELECT nope FROM t WHERE id = 1",
        "SELECT id FROM missing WHERE id = 1",
    ] {
        let direct = match parse(sql) {
            Err(e) => GuardError::from(e).to_string(),
            Ok(stmt) => rig
                .db
                .execute_stmt_with_deadline(&stmt)
                .unwrap_err()
                .to_string(),
        };
        // Twice: an error is never cached.
        for _ in 0..2 {
            assert_eq!(rig.query(sql), Answer::Error(direct.clone()), "{sql}");
        }
    }
    assert_eq!(
        rig.query("DELETE FROM t WHERE id = 1"),
        Answer::Error("QUERY frames carry SELECT statements only".into())
    );
    assert_eq!(rig.session.cached_statements(), 0);
    assert_eq!(ids(&rig.query("SELECT id FROM t WHERE id = 1")), vec![1]);
}

#[test]
fn racing_sessions_of_one_subnet_charge_in_time_order() {
    const FRAMES: u32 = 20_000;
    let clock = RealClock::shared();
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        GuardConfig::paper_default(),
        Arc::clone(&clock),
    ));
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&clock),
    );
    let gate = Arc::new(FrontDoor::new(
        GateConfig {
            gatekeeper: GatekeeperConfig {
                registration: RegistrationPolicy::interval(0.0),
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                ..GatekeeperConfig::default()
            },
            ..GateConfig::default()
        },
        db,
        scheduler,
        clock,
        metrics,
        registry,
    ));
    let threads: Vec<_> = [[10, 0, 0, 1], [10, 0, 0, 2]]
        .into_iter()
        .map(|peer| {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let (session, sink) = (SessionState::new(), Arc::new(Recorder::default()));
                let register = Frame::Register {
                    claimed_ip: [0; 4],
                    version: 2,
                };
                gate.handle_frame(register, peer, &session, &sink);
                let user = match sink.frames.lock().pop() {
                    Some(Frame::Registered { user, .. }) => user,
                    other => panic!("expected Registered, got {other:?}"),
                };
                for query_id in 0..FRAMES {
                    // Admission is all this test watches: the missing
                    // table answers each admitted frame with an error.
                    let sql = "SELECT id FROM missing WHERE id = 1".into();
                    let query = Frame::Query {
                        query_id,
                        user,
                        sql,
                    };
                    gate.handle_frame(query, peer, &session, &sink);
                    sink.frames.lock().clear();
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    let delta = gate.gatekeeper().lock().export_gate_delta();
    let logs = delta
        .users
        .iter()
        .map(|(_, log)| log)
        .chain(delta.subnets.iter().map(|s| &s.log));
    let mut charges = 0;
    for log in logs {
        charges += log.len();
        assert!(
            log.windows(2).all(|w| w[0].at_secs <= w[1].at_secs),
            "a charge log went back in time"
        );
    }
    assert_eq!(delta.subnets.len(), 1, "both peers share one /24");
    assert_eq!(charges, 4 * FRAMES as usize, "two users and their subnet");
}
