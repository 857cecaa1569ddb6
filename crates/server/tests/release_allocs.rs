//! Allocation regression test for the release path.
//!
//! The front door encodes what it releases: each release batch is laid
//! down as wire bytes straight from the executor's borrowed rows, so a
//! `SELECT` allocates per batch, never per row or per column. This test
//! drives a 2048-row `SELECT` through [`FrontDoor::handle_frame`] into a
//! sink that grants every reservation and drops what it receives, under
//! a counting global allocator, twice: once with every row due at charge
//! time, and once with the rows filed on a manual scheduler's wheel and
//! delivered by polling it. Each must allocate less than once per 32
//! released rows. Cloning each row into its own frame costs at least two
//! allocations per row (the value vector and the text body).
//!
//! A due point `SELECT` is held to two allocations: the queue node of
//! its access event, which carries the one key inline, and its one reply
//! run, sized once for `ROWS_BEGIN`, the row and the trailer.

#[path = "../../bench/src/alloc_count.rs"]
mod alloc_count;

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::clock::{Clock, ManualClock};
use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::policy::GuardPolicy;
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::{ChargingModel, GatekeeperConfig, GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::Frame;
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ROWS: usize = 2048;

/// Grants every reservation and drops every frame, counting the row
/// slots the frames fill and keeping the identity `REGISTER` handed out.
#[derive(Default)]
struct DropSink {
    rows: AtomicUsize,
    user: AtomicU64,
}

impl DropSink {
    fn take(&self, frame: Frame) {
        match frame {
            Frame::Encoded { rows, .. } => {
                self.rows.fetch_add(rows, Ordering::Relaxed);
            }
            Frame::Row { .. } => {
                self.rows.fetch_add(1, Ordering::Relaxed);
            }
            Frame::Registered { user, .. } => self.user.store(user, Ordering::Relaxed),
            _ => {}
        }
    }
}

impl FrameSink for DropSink {
    fn push_control(&self, frame: Frame) {
        self.take(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.take(frame);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

struct Rig {
    clock: Arc<ManualClock>,
    scheduler: Arc<DelayScheduler>,
    gate: FrontDoor,
    sink: Arc<DropSink>,
    session: SessionState,
    user: u64,
}

/// The real front door on a manual clock and a manual-mode scheduler
/// over `t(id, body)` with [`ROWS`] rows, and one registered v2 session.
fn rig(guard: GuardConfig) -> Rig {
    let clock = ManualClock::shared();
    let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        guard,
        Arc::clone(&dyn_clock),
    ));
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    for id in 0..ROWS {
        let sql = format!("INSERT INTO t VALUES ({id}, 'row body number {id}')");
        db.execute_at(&sql, 0.0).unwrap();
    }
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&dyn_clock),
    );
    let config = GateConfig {
        gatekeeper: GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            per_user_rate: 1e9,
            per_user_burst: 1e9,
            per_subnet_rate: 1e9,
            per_subnet_burst: 1e9,
            ..GatekeeperConfig::default()
        },
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(
        config,
        db,
        Arc::clone(&scheduler),
        dyn_clock,
        metrics,
        registry,
    );
    let sink = Arc::new(DropSink::default());
    let session = SessionState::new();
    let register = Frame::Register {
        claimed_ip: [0; 4],
        version: 2,
    };
    gate.handle_frame(register, [10, 0, 0, 1], &session, &sink);
    let user = sink.user.load(Ordering::Relaxed);
    Rig {
        clock,
        scheduler,
        gate,
        sink,
        session,
        user,
    }
}

impl Rig {
    /// Issue the full scan as `query_id` and deliver it: poll the wheel
    /// past every deadline. Returns the allocations this thread made.
    fn scan(&self, query_id: u32) -> u64 {
        self.gate.db().refresh();
        let delivered = self.sink.rows.load(Ordering::Relaxed);
        let before = alloc_count::count();
        let query = Frame::Query {
            query_id,
            user: self.user,
            sql: "SELECT * FROM t".into(),
        };
        self.gate
            .handle_frame(query, [10, 0, 0, 1], &self.session, &self.sink);
        while let Some(at) = self.scheduler.next_deadline_nanos() {
            self.clock.advance_to_nanos(at);
            self.scheduler.poll();
        }
        let allocs = alloc_count::count() - before;
        let rows = self.sink.rows.load(Ordering::Relaxed) - delivered;
        assert_eq!(rows, ROWS, "every row released");
        allocs
    }
}

/// A warm-up scan (statement prepared, session buffers grown), then the
/// measured one.
fn assert_allocs_per_batch(rig: &Rig, case: &str) {
    rig.scan(1);
    let allocs = rig.scan(2);
    eprintln!("{case}: {allocs} allocations for {ROWS} released rows");
    assert!(
        allocs < (ROWS / 32) as u64,
        "{case}: {allocs} allocations for {ROWS} released rows"
    );
}

#[test]
fn due_rows_allocate_per_batch_not_per_row() {
    let guard = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(0.0),
    ));
    let rig = rig(guard);
    assert_allocs_per_batch(&rig, "due at charge time");
    assert_eq!(rig.scheduler.pending(), 0, "nothing waited on the wheel");
}

#[test]
fn wheel_rows_allocate_per_batch_not_per_row() {
    let guard = GuardConfig::paper_default().with_charging(ChargingModel::PerQueryMax);
    let rig = rig(guard);
    let scheduled = rig.gate.metrics().scheduler_scheduled.get();
    assert_allocs_per_batch(&rig, "released from the wheel");
    assert!(
        rig.gate.metrics().scheduler_scheduled.get() > scheduled,
        "the rows waited on the wheel"
    );
}

/// Point queries measured after the warm-up.
const POINT_QUERIES: usize = 2048;

#[test]
fn a_due_point_select_allocates_at_most_twice() {
    let guard = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(0.0),
    ));
    let rig = rig(guard);
    let db = rig.gate.db();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    let point = |query_id: usize| Frame::Query {
        query_id: query_id as u32,
        user: rig.user,
        sql: format!("SELECT * FROM t WHERE id = {}", query_id * 7 % ROWS),
    };
    let run = |frames: Vec<Frame>| {
        for frame in frames {
            rig.gate
                .handle_frame(frame, [10, 0, 0, 1], &rig.session, &rig.sink);
        }
    };
    // Warm-up: the shape prepared, the session's buffers grown, every
    // key tracked; then an empty queue, so no refresh falls in the span.
    run((0..ROWS).map(point).collect());
    db.refresh();
    let frames: Vec<Frame> = (ROWS..ROWS + POINT_QUERIES).map(point).collect();
    let delivered = rig.sink.rows.load(Ordering::Relaxed);
    let before = alloc_count::count();
    run(frames);
    let allocs = alloc_count::count() - before;
    assert_eq!(
        rig.sink.rows.load(Ordering::Relaxed) - delivered,
        POINT_QUERIES,
        "one row per point query"
    );
    assert_eq!(rig.scheduler.pending(), 0, "every reply was due");
    eprintln!("due point SELECT: {allocs} allocations for {POINT_QUERIES} queries");
    // Admission appends each query's charge to the gatekeeper's user and
    // subnet logs, which are never trimmed: both logs hold `ROWS` charges
    // when the span starts, so each doubles its capacity once inside it.
    // Those two reallocations are the logs' growth, not the point path's.
    let log_growth = 2;
    assert!(
        allocs <= 2 * POINT_QUERIES as u64 + log_growth,
        "{allocs} allocations for {POINT_QUERIES} point queries"
    );
}

/// UPDATEs measured after the warm-up.
const UPDATES: usize = 2048;

/// A due `UPDATE` frame runs prepared from the session's statement
/// cache: a hit binds the frame's literals into the cached plan, the
/// run locates and rewrites the row, and the one-row update event
/// carries its key inline. Held to `PER_WRITE` = 6 allocations: the text
/// literal the shape scan lifts, the located row ids (returned as the
/// statement's output), the rewritten row's value vector and its new
/// text, the event's queue node and the reply run. Before writes ran
/// prepared (each frame parsed, planned, its table's schema cloned, the
/// row decoded twice and re-encoded into a fresh buffer) this test read
/// 57.0 allocations per write.
#[test]
fn a_due_prepared_update_allocates_at_most_k() {
    const PER_WRITE: u64 = 6;
    let policy = |cap| {
        GuardPolicy::Hybrid(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap),
            UpdateDelayPolicy::new(1.0).with_cap(cap),
        )
    };
    let rig = rig(GuardConfig::paper_default().with_policy(policy(0.0)));
    let db = rig.gate.db();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    let update = |query_id: usize| Frame::Update {
        query_id: query_id as u32,
        user: rig.user,
        sql: format!(
            "UPDATE t SET body = 'row body number {query_id:05}' WHERE id = {}",
            query_id * 7 % ROWS
        ),
    };
    let run = |frames: Vec<Frame>| {
        for frame in frames {
            rig.gate
                .handle_frame(frame, [10, 0, 0, 1], &rig.session, &rig.sink);
        }
    };
    // Warm-up: the shape cached and planned, the session's buffers grown,
    // every row rewritten at the width the measured bodies have (so each
    // later one fits its slot; a row that outgrows its slot moves, and
    // its index entry with it); then an empty queue, so no refresh falls
    // in the span.
    run((0..ROWS).map(update).collect());
    db.refresh();
    let frames: Vec<Frame> = (ROWS..ROWS + UPDATES).map(update).collect();
    let writes = rig.gate.metrics().queries_admitted.get();
    let before = alloc_count::count();
    run(frames);
    let allocs = alloc_count::count() - before;
    assert_eq!(
        rig.gate.metrics().queries_admitted.get() - writes,
        UPDATES as u64,
        "every UPDATE applied"
    );
    assert_eq!(rig.scheduler.pending(), 0, "every reply was due");
    eprintln!("due prepared UPDATE: {allocs} allocations for {UPDATES} writes");
    // As for the point SELECT: the gatekeeper's two charge logs each
    // double their capacity once inside the span.
    let log_growth = 2;
    assert!(
        allocs <= PER_WRITE * UPDATES as u64 + log_growth,
        "{allocs} allocations for {UPDATES} UPDATEs"
    );
}
