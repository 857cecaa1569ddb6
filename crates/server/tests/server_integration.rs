//! End-to-end tests against a live server on an ephemeral port:
//! concurrent clients observing the delay policy on the wire, explicit
//! refusals for unregistered / rate-exhausted identities, graceful
//! shutdown delivering in-flight delayed tuples, and 10 000 concurrent
//! delays on a single scheduler thread.
//!
//! These genuinely sleep: every enforced cap is paid in wall clock, so
//! the caps here are the smallest that still order events reliably
//! (suite runtime ~1.7 s, down from ~2.9 s). The same scenarios run with
//! exact arithmetic and zero real waiting in
//! `crates/testkit/tests/virtual_time.rs`; this suite remains as the
//! real-socket smoke check.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::clock::{Clock, RealClock};
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_core::{GuardedDatabase, UpdateDelayPolicy};
use delayguard_query::Engine;
use delayguard_server::client::{Client, MutateOutcome, QueryOutcome, RegisterOutcome};
use delayguard_server::protocol::{read_frame, write_frame, Frame, RefuseReason, PROTOCOL_VERSION};
use delayguard_server::server::{Server, ServerConfig, ServerHandle};
use delayguard_sim::{MetricValue, Registry};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// A guarded database with `rows` directory entries and a delay cap of
/// `cap_secs` per tuple under `charging`.
fn seeded_db(rows: usize, cap_secs: f64, charging: ChargingModel) -> Arc<GuardedDatabase> {
    let config = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
        ))
        .with_charging(charging);
    let db = GuardedDatabase::new(config);
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
    Arc::new(db)
}

/// A permissive gatekeeper: tests that exercise rate limits override it.
fn open_gatekeeper() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1000.0,
        per_user_burst: 1000.0,
        per_subnet_rate: 1000.0,
        per_subnet_burst: 1000.0,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

/// The `directory` table's data version on `db`.
fn directory_version(db: &GuardedDatabase) -> u64 {
    let directory = db.engine().catalog().table("directory").unwrap();
    let version = directory.read().data_version();
    version
}

fn start(config: ServerConfig, db: Arc<GuardedDatabase>) -> ServerHandle {
    Server::start("127.0.0.1:0", config, db, Registry::new()).expect("server starts")
}

fn register(client: &mut Client) -> u64 {
    match client.register().expect("register exchange") {
        RegisterOutcome::Registered { user, .. } => user,
        other => panic!("registration refused: {other:?}"),
    }
}

#[test]
fn popular_tuple_streams_faster_than_unpopular() {
    let cap = 0.2;
    let db = seeded_db(50, cap, ChargingModel::PerQueryMax);
    // Make tuple 1 overwhelmingly popular before the server opens: the
    // tracker learns fmax ≈ 1, so rank-1 delay collapses toward zero
    // while never-accessed tuples stay at the cap.
    for t in 0..200 {
        db.execute_at("SELECT entry FROM directory WHERE id = 1", t as f64)
            .unwrap();
    }
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();

    // Two clients race: one for the popular tuple, one for an unpopular
    // one. Delay is enforced per tuple on the wire, so the popular query
    // must come back faster by roughly the policy cap.
    let popular = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let user = register(&mut c);
        c.query(user, "SELECT entry FROM directory WHERE id = 1")
            .unwrap()
    });
    let unpopular = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let user = register(&mut c);
        c.query(user, "SELECT entry FROM directory WHERE id = 37")
            .unwrap()
    });
    let popular = popular.join().unwrap();
    let unpopular = unpopular.join().unwrap();

    let (pop_delay, pop_elapsed) = match &popular {
        QueryOutcome::Rows {
            rows,
            delay_secs,
            elapsed,
            ..
        } => {
            assert_eq!(rows.len(), 1);
            (*delay_secs, *elapsed)
        }
        other => panic!("popular query: {other:?}"),
    };
    let (unpop_delay, unpop_elapsed) = match &unpopular {
        QueryOutcome::Rows {
            rows,
            delay_secs,
            elapsed,
            ..
        } => {
            assert_eq!(rows.len(), 1);
            (*delay_secs, *elapsed)
        }
        other => panic!("unpopular query: {other:?}"),
    };

    // The policy margin: unpopular sits at the cap, popular near zero.
    assert!(
        unpop_delay >= cap - 1e-9,
        "unpopular tuple should be charged the cap, got {unpop_delay}"
    );
    assert!(
        pop_delay < cap / 4.0,
        "popular tuple should be charged far below the cap, got {pop_delay}"
    );
    // Enforcement is real wall time, never early.
    assert!(
        unpop_elapsed >= Duration::from_secs_f64(unpop_delay),
        "unpopular released early: {unpop_elapsed:?} < {unpop_delay}s"
    );
    assert!(
        unpop_elapsed >= pop_elapsed + Duration::from_secs_f64(cap / 2.0),
        "popular ({pop_elapsed:?}) should beat unpopular ({unpop_elapsed:?}) by the policy margin"
    );
    handle.shutdown();
}

#[test]
fn unregistered_and_exhausted_clients_refused_explicitly() {
    let db = seeded_db(10, 0.0, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: GatekeeperConfig {
                per_user_rate: 0.001, // effectively no refill within the test
                per_user_burst: 2.0,
                per_subnet_rate: 1000.0,
                per_subnet_burst: 1000.0,
                registration: RegistrationPolicy::interval(0.0),
                storefront_query_threshold: 0,
            },
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();

    // Never registered: refused with the explicit reason.
    let mut stranger = Client::connect(addr).unwrap();
    let outcome = stranger
        .query(999_999, "SELECT * FROM directory WHERE id = 1")
        .unwrap();
    assert!(
        matches!(
            outcome,
            QueryOutcome::Refused {
                reason: RefuseReason::Unregistered,
                ..
            }
        ),
        "{outcome:?}"
    );

    // Registered but burst-exhausted: two queries pass, the third is
    // refused with a retry hint.
    let mut member = Client::connect(addr).unwrap();
    let user = register(&mut member);
    for _ in 0..2 {
        let ok = member
            .query(user, "SELECT * FROM directory WHERE id = 1")
            .unwrap();
        assert!(matches!(ok, QueryOutcome::Rows { .. }), "{ok:?}");
    }
    match member
        .query(user, "SELECT * FROM directory WHERE id = 1")
        .unwrap()
    {
        QueryOutcome::Refused {
            reason: RefuseReason::UserRate,
            retry_after_secs,
        } => assert!(retry_after_secs > 0.0),
        other => panic!("expected user-rate refusal, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn graceful_shutdown_delivers_inflight_delayed_tuples() {
    // Cold table: every tuple of the first query is charged the full cap.
    let cap = 0.3;
    let db = seeded_db(10, cap, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();

    let client = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let user = register(&mut c);
        c.query(user, "SELECT * FROM directory").unwrap()
    });
    // Let the query reach the wheel, then shut down while all ten tuples
    // are still pending delivery.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    match client.join().unwrap() {
        QueryOutcome::Rows {
            rows,
            delay_secs,
            elapsed,
            ..
        } => {
            assert_eq!(rows.len(), 10, "drain must deliver every in-flight tuple");
            assert!(delay_secs >= cap - 1e-9);
            assert!(
                elapsed >= Duration::from_secs_f64(cap),
                "shutdown must not release tuples early ({elapsed:?})"
            );
        }
        other => panic!("expected full result set after drain, got {other:?}"),
    }
}

#[test]
fn draining_server_refuses_new_queries() {
    let cap = 0.4;
    let db = seeded_db(8, cap, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();

    // Park one slow query on the wheel so shutdown has something to drain.
    let mut first = Client::connect(addr).unwrap();
    let user = register(&mut first);
    let inflight =
        std::thread::spawn(move || first.query(user, "SELECT * FROM directory").unwrap());
    std::thread::sleep(Duration::from_millis(100));

    // Second client connects *before* the drain starts, then queries
    // after: the request must be refused as shutting down, not hang.
    let mut second = Client::connect(addr).unwrap();
    let second_user = register(&mut second);
    let shutdown = std::thread::spawn(move || handle.shutdown());
    std::thread::sleep(Duration::from_millis(100));
    match second.query(second_user, "SELECT * FROM directory") {
        Ok(QueryOutcome::Refused {
            reason: RefuseReason::ShuttingDown,
            ..
        }) => {}
        // The drain may already have severed the connection.
        Err(_) => {}
        Ok(other) => panic!("expected shutting-down refusal, got {other:?}"),
    }
    assert!(matches!(
        inflight.join().unwrap(),
        QueryOutcome::Rows { rows, .. } if rows.len() == 8
    ));
    shutdown.join().unwrap();
}

#[test]
fn ten_thousand_delays_share_one_scheduler_thread() {
    // 10 000 cold tuples, each charged the cap under PerQueryMax
    // charging: every row in a chunk shares one deadline, so the gate
    // coalesces each chunk into a single wheel entry — pending scales
    // with chunks, not rows, and the whole query still runs on one
    // scheduler thread.
    let cap = 0.25;
    let db = seeded_db(10_000, cap, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            send_queue_rows: 20_000,
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();

    let mut c = Client::connect(addr).unwrap();
    let user = register(&mut c);
    match c.query(user, "SELECT * FROM directory").unwrap() {
        QueryOutcome::Rows { rows, elapsed, .. } => {
            assert_eq!(rows.len(), 10_000);
            assert!(elapsed >= Duration::from_secs_f64(cap));
        }
        other => panic!("{other:?}"),
    }

    // The acceptance criterion, read off the metrics registry: the
    // wheel held one coalesced entry per same-deadline chunk (40 chunks
    // of 256 rows, plus the end-of-stream trailers) — never one entry
    // per tuple, and never a task or thread per delay.
    let chunks = (10_000i64 + 255) / 256;
    let registry = handle.registry();
    match registry.value("scheduler_pending") {
        Some(MetricValue::Gauge { high_water, .. }) => {
            assert!(
                high_water >= chunks && high_water <= chunks + 4,
                "pending high water {high_water}, expected ~{chunks} coalesced sends"
            )
        }
        other => panic!("scheduler_pending missing: {other:?}"),
    }
    match registry.value("scheduler_threads") {
        Some(MetricValue::Gauge { high_water, .. }) => {
            assert_eq!(high_water, 1, "scheduler must not spawn per-delay tasks")
        }
        other => panic!("scheduler_threads missing: {other:?}"),
    }
    match registry.value("server_rows_streamed") {
        Some(MetricValue::Counter(n)) => assert_eq!(n, 10_000),
        other => panic!("server_rows_streamed missing: {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn stats_verb_reports_counters() {
    let db = seeded_db(5, 0.0, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let mut c = Client::connect(handle.addr()).unwrap();
    let user = register(&mut c);
    c.query(user, "SELECT * FROM directory WHERE id = 1")
        .unwrap();
    let stats = c.stats().unwrap();
    for metric in [
        "server_connections_accepted",
        "server_users_registered",
        "server_queries_admitted",
        "server_rows_streamed",
        "scheduler_threads",
        "scheduler_wakeups",
        "scheduler_fire_lateness_micros",
    ] {
        assert!(stats.contains(metric), "missing {metric} in:\n{stats}");
    }
    handle.shutdown();
}

#[test]
fn writes_flow_through_the_front_door_end_to_end() {
    let db = seeded_db(10, 0.0, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let addr = handle.addr();
    let mut c = Client::connect(addr).unwrap();
    let user = register(&mut c);

    // INSERT commits and reports the table's bumped data version.
    let v_insert = match c
        .insert(user, "INSERT INTO directory VALUES (100, 'entry-100')")
        .unwrap()
    {
        MutateOutcome::Mutated {
            rows, data_version, ..
        } => {
            assert_eq!(rows, 1);
            data_version
        }
        other => panic!("insert: {other:?}"),
    };

    // The row is immediately visible to reads on the same connection.
    match c
        .query(user, "SELECT entry FROM directory WHERE id = 100")
        .unwrap()
    {
        QueryOutcome::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("select after insert: {other:?}"),
    }

    // UPDATE and DELETE advance the version monotonically.
    let v_update = match c
        .update(
            user,
            "UPDATE directory SET entry = 'renamed' WHERE id = 100",
        )
        .unwrap()
    {
        MutateOutcome::Mutated {
            rows, data_version, ..
        } => {
            assert_eq!(rows, 1);
            data_version
        }
        other => panic!("update: {other:?}"),
    };
    assert!(v_update > v_insert, "{v_update} vs {v_insert}");
    match c
        .delete(user, "DELETE FROM directory WHERE id = 100")
        .unwrap()
    {
        MutateOutcome::Mutated {
            rows, data_version, ..
        } => {
            assert_eq!(rows, 1);
            assert!(data_version > v_update);
        }
        other => panic!("delete: {other:?}"),
    }

    // The opcode is a claim the server checks: SQL that does not match
    // the frame's verb is rejected without touching the database.
    match c
        .insert(user, "DELETE FROM directory WHERE id = 1")
        .unwrap()
    {
        MutateOutcome::Failed { message } => {
            assert!(message.contains("INSERT"), "{message}")
        }
        other => panic!("verb mismatch: {other:?}"),
    }

    // A v1 session never negotiated the write surface: explicit refusal
    // code, connection stays usable for reads.
    let mut legacy = Client::connect(addr).unwrap();
    let legacy_user = match legacy.register_v1().unwrap() {
        RegisterOutcome::Registered { user, .. } => user,
        other => panic!("v1 register: {other:?}"),
    };
    match legacy
        .insert(legacy_user, "INSERT INTO directory VALUES (101, 'x')")
        .unwrap()
    {
        MutateOutcome::Refused {
            reason: RefuseReason::WritesUnsupported,
            ..
        } => {}
        other => panic!("v1 write: {other:?}"),
    }
    match legacy
        .query(legacy_user, "SELECT entry FROM directory WHERE id = 1")
        .unwrap()
    {
        QueryOutcome::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        other => panic!("v1 read after refused write: {other:?}"),
    }
    handle.shutdown();
}

/// The STATS leak audit: the popularity rank order is the secret the
/// delay policy defends, so by default a `STATS` reply must not carry
/// any of it — an adversary who could read ranks off the stats surface
/// would not need the timing side channel at all. The rank detail only
/// appears behind the explicit opt-in knob (an operator-facing surface).
/// A `QUERY` frame is the read surface: a write or DDL statement riding
/// in on one must be answered with an `Error` before anything executes —
/// otherwise it bypasses the v1 `WritesUnsupported` refusal, the verb
/// check and reserve-before-apply that the mutation frames enforce.
#[test]
fn query_frames_refuse_writes_and_ddl() {
    let db = seeded_db(10, 0.0, ChargingModel::PerQueryMax);
    let registry = Registry::new();
    let handle = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        Arc::clone(&db),
        registry.clone(),
    )
    .expect("server starts");
    let version = directory_version(&db);
    for legacy in [true, false] {
        let mut c = Client::connect(handle.addr()).unwrap();
        let registered = if legacy {
            c.register_v1()
        } else {
            c.register()
        };
        let user = match registered.expect("register exchange") {
            RegisterOutcome::Registered { user, .. } => user,
            other => panic!("registration refused: {other:?}"),
        };
        for sql in ["DELETE FROM directory WHERE id = 1", "DROP TABLE directory"] {
            match c.query(user, sql).unwrap() {
                QueryOutcome::Failed { message } => {
                    assert!(message.contains("SELECT"), "{sql}: {message}")
                }
                other => panic!("legacy={legacy}: {sql} was not refused: {other:?}"),
            }
        }
        // The row and the table survive, untouched, and the connection
        // is still good for reads.
        match c
            .query(user, "SELECT entry FROM directory WHERE id = 1")
            .unwrap()
        {
            QueryOutcome::Rows { rows, .. } => assert_eq!(rows.len(), 1),
            other => panic!("legacy={legacy}: select after refusals: {other:?}"),
        }
        assert_eq!(directory_version(&db), version);
    }
    assert!(matches!(
        registry.value("server_query_errors"),
        Some(MetricValue::Counter(4))
    ));
    handle.shutdown();
}

#[test]
fn stats_reply_hides_rank_order_unless_opted_in() {
    for expose in [false, true] {
        let db = seeded_db(5, 0.0, ChargingModel::PerQueryMax);
        let handle = start(
            ServerConfig {
                gatekeeper: open_gatekeeper(),
                stats_expose_popularity: expose,
                ..ServerConfig::default()
            },
            db,
        );
        let mut c = Client::connect(handle.addr()).unwrap();
        let user = register(&mut c);
        // Create a rank order worth leaking before asking for stats.
        for _ in 0..3 {
            c.query(user, "SELECT * FROM directory WHERE id = 1")
                .unwrap();
        }
        c.query(user, "SELECT * FROM directory WHERE id = 3")
            .unwrap();
        let stats = c.stats().unwrap();
        assert!(stats.contains("server_queries_admitted"));
        if expose {
            assert!(
                stats.contains("popularity_table directory")
                    && stats.contains("popularity_rank directory")
                    && stats.contains("rank 1"),
                "opted-in stats must carry the rank detail:\n{stats}"
            );
        } else {
            assert!(
                !stats.contains("popularity") && !stats.contains("rank"),
                "default stats must not leak popularity/rank fields:\n{stats}"
            );
        }
        handle.shutdown();
    }
}

// ---- the session thread's write path ------------------------------------

/// A raw v2 session registered on `addr`, for tests that pipeline frames
/// or must not read: the stream, a buffered reader over a clone of it,
/// and the registered user.
fn raw_session(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>, u64) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let register = Frame::Register {
        claimed_ip: [0; 4],
        version: PROTOCOL_VERSION,
    };
    write_frame(&mut stream, &register).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    match next_frame(&mut reader) {
        Frame::Registered { user, .. } => (stream, reader, user),
        other => panic!("expected REGISTERED, got {other:?}"),
    }
}

fn next_frame(reader: &mut BufReader<TcpStream>) -> Frame {
    read_frame(reader)
        .expect("frame within the read timeout")
        .expect("frame before EOF")
}

/// The value of counter `name` in a rendered `STATS` reply.
fn stat(rendered: &str, name: &str) -> u64 {
    rendered
        .lines()
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [n, v] if n == name => v.parse().ok(),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {name} in:\n{rendered}"))
}

/// A pipelined burst of point reads under a 1 µs cap: a reply is due by
/// the time it is charged (all but the rare one charged within 1 µs of
/// its start, which takes the wheel), so the session answers the burst
/// before it next reads. Each query's frames arrive in order, the
/// queries in the order sent, no row before its charged delay, and the
/// whole burst in a handful of socket writes, not one per query.
#[test]
fn pipelined_due_point_reads_leave_in_few_socket_writes() {
    const QUERIES: u32 = 100;
    let db = seeded_db(QUERIES as usize, 1e-6, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let (mut stream, mut reader, user) = raw_session(handle.addr());
    let mut burst = Vec::new();
    for query_id in 0..QUERIES {
        let sql = format!("SELECT entry FROM directory WHERE id = {query_id}");
        write_frame(
            &mut burst,
            &Frame::Query {
                query_id,
                user,
                sql,
            },
        )
        .unwrap();
    }
    let sent = Instant::now();
    stream.write_all(&burst).unwrap();
    // Per query: frames seen so far (ROWS_BEGIN, ROW, ROWS_END, DONE)
    // and when its row arrived.
    let mut seen = vec![0u8; QUERIES as usize];
    let mut row_at = vec![Duration::ZERO; QUERIES as usize];
    let mut begun = 0;
    let mut done = 0;
    while done < QUERIES {
        let frame = next_frame(&mut reader);
        let (query_id, step) = match &frame {
            Frame::RowsBegin { query_id, .. } => {
                assert_eq!(*query_id, begun, "queries answered out of order");
                begun += 1;
                (*query_id, 0)
            }
            Frame::Row {
                query_id, seq: 0, ..
            } => {
                row_at[*query_id as usize] = sent.elapsed();
                (*query_id, 1)
            }
            Frame::RowsEnd { query_id, rows: 1 } => (*query_id, 2),
            Frame::Done {
                query_id,
                delay_secs,
                tuples: 1,
            } => {
                assert!(*delay_secs <= 1e-6 + 1e-12, "cap exceeded: {delay_secs}");
                assert!(
                    row_at[*query_id as usize] >= Duration::from_secs_f64(*delay_secs),
                    "query {query_id} released early"
                );
                done += 1;
                (*query_id, 3)
            }
            other => panic!("unexpected frame {other:?}"),
        };
        assert_eq!(seen[query_id as usize], step, "query {query_id}: {frame:?}");
        seen[query_id as usize] += 1;
    }
    write_frame(&mut stream, &Frame::Stats).unwrap();
    let rendered = match next_frame(&mut reader) {
        Frame::StatsReply { rendered } => rendered,
        other => panic!("expected STATS_REPLY, got {other:?}"),
    };
    // One write carried REGISTERED; the burst took the rest.
    let writes = stat(&rendered, "server_socket_writes_total");
    assert!(
        (2..=1 + u64::from(QUERIES) / 10).contains(&writes),
        "{QUERIES} pipelined replies took {writes} socket writes"
    );
    handle.shutdown();
}

/// A reply still ahead of the clock when charged waits on the wheel,
/// and the wheel's release must wake the connection's writer: the
/// session itself is idle in `read`, since the client sends nothing
/// more. `ROWS_BEGIN` is due at once and leaves before the session
/// blocks; the row leaves at its deadline, not before.
#[test]
fn pending_reply_leaves_at_its_deadline_while_the_session_idles() {
    let cap = 0.2;
    let db = seeded_db(10, cap, ChargingModel::PerQueryMax);
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
    );
    let (mut stream, mut reader, user) = raw_session(handle.addr());
    let sent = Instant::now();
    let sql = "SELECT entry FROM directory WHERE id = 3".to_string();
    write_frame(
        &mut stream,
        &Frame::Query {
            query_id: 1,
            user,
            sql,
        },
    )
    .unwrap();
    assert!(matches!(
        next_frame(&mut reader),
        Frame::RowsBegin { query_id: 1, .. }
    ));
    assert!(
        sent.elapsed() < Duration::from_secs_f64(cap),
        "ROWS_BEGIN waited for the row's deadline"
    );
    assert!(matches!(
        next_frame(&mut reader),
        Frame::Row {
            query_id: 1,
            seq: 0,
            ..
        }
    ));
    let row_at = sent.elapsed();
    assert!(matches!(
        next_frame(&mut reader),
        Frame::RowsEnd {
            query_id: 1,
            rows: 1
        }
    ));
    match next_frame(&mut reader) {
        Frame::Done { delay_secs, .. } => {
            assert!(delay_secs >= cap - 1e-9);
            assert!(
                row_at >= Duration::from_secs_f64(delay_secs),
                "released early"
            );
        }
        other => panic!("expected DONE, got {other:?}"),
    }
    assert!(
        row_at < Duration::from_secs_f64(cap + 2.0),
        "the wheel's release waited for the session ({row_at:?})"
    );
    handle.shutdown();
}

/// A scan whose first rows are due when charged and whose last rows are
/// not: under the update-rate policy an updated tuple is charged next to
/// nothing and a never-updated one the cap. The due prefix leaves before
/// the session blocks in `read`, the tail leaves from the wheel at the
/// cap, and every row keeps its `seq`, with `ROWS_END` and `DONE` last.
#[test]
fn due_prefix_then_wheel_tail_keeps_seq_order() {
    let cap = 0.2;
    let config = GuardConfig::paper_default()
        .with_policy(GuardPolicy::UpdateRate(
            UpdateDelayPolicy::new(1e-9).with_cap(cap),
        ))
        .with_charging(ChargingModel::PerQueryMax);
    let db = GuardedDatabase::new(config);
    db.execute_at(
        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
        0.0,
    )
    .unwrap();
    for id in 0..8 {
        db.execute_at(
            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
            0.0,
        )
        .unwrap();
    }
    for id in 0..4 {
        db.execute_at(
            &format!("UPDATE directory SET entry = 'hot-{id}' WHERE id = {id}"),
            1.0,
        )
        .unwrap();
    }
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        Arc::new(db),
    );
    let (mut stream, mut reader, user) = raw_session(handle.addr());
    let sent = Instant::now();
    let sql = "SELECT * FROM directory".to_string();
    write_frame(
        &mut stream,
        &Frame::Query {
            query_id: 5,
            user,
            sql,
        },
    )
    .unwrap();
    assert!(matches!(
        next_frame(&mut reader),
        Frame::RowsBegin { query_id: 5, .. }
    ));
    for expected in 0..8u32 {
        match next_frame(&mut reader) {
            Frame::Row {
                query_id: 5, seq, ..
            } => assert_eq!(seq, expected, "rows out of order"),
            other => panic!("expected row {expected}, got {other:?}"),
        }
        let at = sent.elapsed();
        if expected < 4 {
            assert!(
                at < Duration::from_secs_f64(cap / 2.0),
                "due row {expected} waited ({at:?})"
            );
        } else {
            assert!(
                at >= Duration::from_secs_f64(cap),
                "row {expected} released early ({at:?})"
            );
        }
    }
    assert!(matches!(
        next_frame(&mut reader),
        Frame::RowsEnd {
            query_id: 5,
            rows: 8
        }
    ));
    assert!(matches!(
        next_frame(&mut reader),
        Frame::Done {
            query_id: 5,
            tuples: 8,
            ..
        }
    ));
    handle.shutdown();
}

/// Wall time plus a skip the test can add, so that the server's flush
/// timeouts, which read its clock, pass without being waited out.
#[derive(Debug)]
struct SkippingClock {
    real: RealClock,
    skipped_nanos: AtomicU64,
}

impl Clock for SkippingClock {
    fn now_nanos(&self) -> u64 {
        self.real.now_nanos() + self.skipped_nanos.load(Ordering::SeqCst)
    }

    fn sleep_until_nanos(&self, deadline: u64) {
        let now = self.now_nanos();
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
    }
}

/// A server on a [`SkippingClock`] holding 64 rows of 8 KB in `blobs`
/// and one row in `directory`, pricing everything at zero delay.
fn blob_server() -> (Arc<SkippingClock>, ServerHandle) {
    let clock = Arc::new(SkippingClock {
        real: RealClock::new(),
        skipped_nanos: AtomicU64::new(0),
    });
    let config = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(0.0),
    ));
    let db = GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        config,
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    db.execute_at(
        "CREATE TABLE blobs (id INT NOT NULL, body TEXT NOT NULL)",
        0.0,
    )
    .unwrap();
    let body = "x".repeat(8000);
    for id in 0..64 {
        db.execute_at(&format!("INSERT INTO blobs VALUES ({id}, '{body}')"), 0.0)
            .unwrap();
    }
    db.execute_at("CREATE TABLE directory (id INT NOT NULL)", 0.0)
        .unwrap();
    db.execute_at("INSERT INTO directory VALUES (1)", 0.0)
        .unwrap();
    let handle = start(
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        Arc::new(db),
    );
    (clock, handle)
}

/// Open a session that pipelines 24 scans of 512 KB each, far more than
/// the socket buffers hold, and never reads a reply. The returned
/// streams keep the connection open.
fn stop_reading(addr: SocketAddr) -> (TcpStream, BufReader<TcpStream>) {
    let (mut stuck, unread, user) = raw_session(addr);
    let mut burst = Vec::new();
    for query_id in 0..24 {
        let sql = "SELECT * FROM blobs".to_string();
        write_frame(
            &mut burst,
            &Frame::Query {
                query_id,
                user,
                sql,
            },
        )
        .unwrap();
    }
    stuck.write_all(&burst).unwrap();
    (stuck, unread)
}

/// Shut `handle` down while skipping its clock 100 ms every 10 ms of
/// real time; returns the clock time skipped before shutdown returned.
/// Each of shutdown's timed waits overshoots its deadline by at most one
/// step.
fn shutdown_skipping(clock: &SkippingClock, handle: ServerHandle) -> Duration {
    let (done_tx, done_rx) = mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        handle.shutdown();
        done_tx.send(()).unwrap();
    });
    let waited = Instant::now();
    while done_rx.try_recv().is_err() {
        assert!(
            waited.elapsed() < Duration::from_secs(30),
            "shutdown hung on a client that stopped reading"
        );
        clock.skipped_nanos.fetch_add(100_000_000, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(10));
    }
    shutdown.join().unwrap();
    Duration::from_nanos(clock.skipped_nanos.load(Ordering::SeqCst))
}

/// A client that pipelines 12 MB of results and never reads wedges its
/// own session in a socket write, and nothing else: another client is
/// served as usual, and `shutdown()` still returns once the stuck
/// connection's flush timeout has passed on the server's clock.
#[test]
fn a_client_that_stops_reading_stalls_only_its_own_session() {
    let (clock, handle) = blob_server();
    let addr = handle.addr();
    let _stuck = stop_reading(addr);
    std::thread::sleep(Duration::from_millis(200));

    let served = Instant::now();
    let mut other = Client::connect(addr).unwrap();
    let other_user = register(&mut other);
    match other
        .query(other_user, "SELECT * FROM directory WHERE id = 1")
        .unwrap()
    {
        QueryOutcome::Rows { rows, .. } => assert_eq!(rows.len(), 1),
        outcome => panic!("the other client was not served: {outcome:?}"),
    }
    assert!(served.elapsed() < Duration::from_secs(5));
    shutdown_skipping(&clock, handle);
}

/// Shutdown waits once for every connection, not once per connection:
/// with three clients that stopped reading, it returns after one shared
/// flush timeout plus one shared writer timeout (10 s each) of server
/// clock time, not after both timeouts per client.
#[test]
fn shutdown_waits_once_for_every_stuck_client() {
    let (clock, handle) = blob_server();
    let addr = handle.addr();
    let _stuck: Vec<_> = (0..3).map(|_| stop_reading(addr)).collect();
    std::thread::sleep(Duration::from_millis(200));
    let skipped = shutdown_skipping(&clock, handle);
    assert!(
        skipped <= Duration::from_secs(21),
        "shutdown took {skipped:?} of server clock time for three stuck clients"
    );
}
