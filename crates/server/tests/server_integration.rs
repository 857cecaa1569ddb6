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
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_core::GuardedDatabase;
use delayguard_server::client::{Client, MutateOutcome, QueryOutcome, RegisterOutcome};
use delayguard_server::protocol::RefuseReason;
use delayguard_server::server::{Server, ServerConfig, ServerHandle};
use delayguard_sim::{MetricValue, Registry};
use std::sync::Arc;
use std::time::Duration;

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
    assert_eq!(outcome.refusal(), Some(RefuseReason::Unregistered));

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
    let version = db.table_data_version("directory").unwrap();
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
        assert_eq!(db.table_data_version("directory").unwrap(), version);
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
