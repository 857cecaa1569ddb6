//! Regression tests for the shape of a result's wheel jobs.
//!
//! The gate groups consecutive frames whose deadlines land on the same
//! scheduler tick into one job, and that job hands the whole batch to the
//! sink in a single push, encoded as one run — one queue lock and one
//! writer wakeup per tick per connection instead of one per frame. The trailer (`ROWS_END`, `DONE`) rides in the last row batch
//! when it shares that batch's tick, so a result released at one deadline
//! is one job and one send. `ROWS_BEGIN` waits for no deadline: it leads
//! the first batch when that is due, and otherwise leaves alone at issue
//! time, ahead of the rows on the wheel. These tests pin that contract
//! against a recording sink that expands each run into the frames it
//! holds: one batch when deadlines coincide, per-deadline delivery in
//! sequence order when they do not, and every charged row delivered when
//! a stream is cut short.
//!
//! The `due_*` tests pin the due path: frames whose deadlines have
//! already passed when the statement is charged go straight into the
//! sink with no wheel job, never before their deadline, and never ahead
//! of an earlier frame of the same statement that is still on the wheel.

use delayguard_core::clock::{secs_to_nanos, Clock, ManualClock};
use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::{ChargingModel, GatekeeperConfig, GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::{Frame, RefuseReason};
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the sink observed, in arrival order. Every run pushed is one
/// `Batch` entry holding the frames it encodes — a per-frame fallback
/// would show up as many single-frame batches.
#[derive(Debug)]
enum Event {
    Control(Frame),
    Batch(Vec<Frame>),
}

struct RecordingSink {
    events: Mutex<Vec<Event>>,
    /// Row slots `try_reserve_rows` will still grant.
    row_budget: AtomicUsize,
    /// Row slots granted so far.
    reserved: AtomicUsize,
    /// Row slots used by a delivered `ROW`/`MUTATED` frame or handed
    /// back with `release_rows`.
    returned: AtomicUsize,
    /// Clock times (seconds) to move `clock` to at each successive
    /// reservation, i.e. just before each chunk is charged: how a test
    /// makes time pass inside one statement.
    clock_at_reserve: Mutex<VecDeque<f64>>,
    clock: Option<Arc<ManualClock>>,
}

impl RecordingSink {
    fn new() -> Arc<RecordingSink> {
        RecordingSink::with_row_budget(usize::MAX)
    }

    fn with_row_budget(rows: usize) -> Arc<RecordingSink> {
        RecordingSink::build(rows, None, &[])
    }

    /// A sink that moves `clock` to `times[i]` seconds when the statement
    /// reserves its `i`-th chunk.
    fn moving_clock(clock: &Arc<ManualClock>, times: &[f64]) -> Arc<RecordingSink> {
        RecordingSink::build(usize::MAX, Some(Arc::clone(clock)), times)
    }

    fn build(rows: usize, clock: Option<Arc<ManualClock>>, times: &[f64]) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            events: Mutex::new(Vec::new()),
            row_budget: AtomicUsize::new(rows),
            reserved: AtomicUsize::new(0),
            returned: AtomicUsize::new(0),
            clock_at_reserve: Mutex::new(times.iter().copied().collect()),
            clock,
        })
    }

    fn record(&self, event: Event) {
        let frames = match &event {
            Event::Control(frame) => std::slice::from_ref(frame),
            Event::Batch(frames) => &frames[..],
        };
        let slots = frames
            .iter()
            .filter(|f| matches!(f, Frame::Row { .. } | Frame::Mutated { .. }))
            .count();
        self.returned.fetch_add(slots, Ordering::SeqCst);
        self.events.lock().push(event);
    }
}

impl FrameSink for RecordingSink {
    fn push_control(&self, frame: Frame) {
        match frame {
            Frame::Encoded { .. } => self.push_row(frame),
            frame => self.record(Event::Control(frame)),
        }
    }

    fn push_row(&self, frame: Frame) {
        let slots = match &frame {
            Frame::Encoded { rows, .. } => *rows,
            _ => 1,
        };
        let mut frames = Vec::new();
        frame.expand_into(&mut frames);
        let filled = frames
            .iter()
            .filter(|f| matches!(f, Frame::Row { .. } | Frame::Mutated { .. }))
            .count();
        assert_eq!(
            slots, filled,
            "a run's `rows` counts the slots its frames fill"
        );
        self.record(Event::Batch(frames));
    }

    fn try_reserve_rows(&self, n: usize) -> bool {
        if let (Some(clock), Some(secs)) = (&self.clock, self.clock_at_reserve.lock().pop_front()) {
            clock.advance_to_secs(secs);
        }
        let granted = self
            .row_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(n)
            })
            .is_ok();
        if granted {
            self.reserved.fetch_add(n, Ordering::SeqCst);
        }
        granted
    }

    fn release_rows(&self, n: usize) {
        self.returned.fetch_add(n, Ordering::SeqCst);
    }
}

struct Rig {
    clock: Arc<ManualClock>,
    scheduler: Arc<DelayScheduler>,
    metrics: ServerMetrics,
    gate: Arc<FrontDoor>,
}

/// The real front door on a manual clock and a manual-mode scheduler,
/// with `rows` one-column tuples (ids `0..rows`) seeded at time zero and
/// results streamed `chunk_rows` at a time.
fn rig(charging: ChargingModel, rows: usize, chunk_rows: usize) -> Rig {
    let clock = ManualClock::shared();
    let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let guard = GuardConfig::paper_default().with_charging(charging);
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        guard,
        Arc::clone(&dyn_clock),
    ));
    db.execute_at("CREATE TABLE directory (id INT NOT NULL)", 0.0)
        .unwrap();
    for id in 0..rows {
        db.execute_at(&format!("INSERT INTO directory VALUES ({id})"), 0.0)
            .unwrap();
    }
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&dyn_clock),
    );
    let gate = Arc::new(FrontDoor::new(
        GateConfig {
            gatekeeper: GatekeeperConfig {
                registration: RegistrationPolicy::interval(0.0),
                ..GatekeeperConfig::default()
            },
            stream_chunk_rows: chunk_rows,
            ..GateConfig::default()
        },
        db,
        Arc::clone(&scheduler),
        dyn_clock,
        metrics.clone(),
        registry,
    ));
    Rig {
        clock,
        scheduler,
        metrics,
        gate,
    }
}

/// Register a v2 session from `peer` and issue `sql` as `query_id`; the
/// sink is left holding everything pushed at issue time.
fn issue(rig: &Rig, sink: &Arc<RecordingSink>, peer: [u8; 4], query_id: u32, sql: &str) {
    issue_frame(rig, sink, peer, |user| Frame::Query {
        query_id,
        user,
        sql: sql.into(),
    });
}

/// Register a v2 session from `peer` and hand the gate the frame `make`
/// builds for the registered user.
fn issue_frame(
    rig: &Rig,
    sink: &Arc<RecordingSink>,
    peer: [u8; 4],
    make: impl FnOnce(u64) -> Frame,
) {
    let session = SessionState::new();
    rig.gate.handle_frame(
        Frame::Register {
            claimed_ip: [0; 4],
            version: 2,
        },
        peer,
        &session,
        sink,
    );
    let user = match sink.events.lock().pop() {
        Some(Event::Control(Frame::Registered { user, .. })) => user,
        other => panic!("expected Registered, got {other:?}"),
    };
    rig.gate.handle_frame(make(user), peer, &session, sink);
}

/// Walk the wheel deadline by deadline so jobs fire exactly when (and in
/// the order) the scheduler says they are due.
fn drain_wheel(rig: &Rig) {
    while let Some(at) = rig.scheduler.next_deadline_nanos() {
        rig.clock.advance_to_nanos(at);
        rig.scheduler.poll();
    }
}

/// The row batches `events` carries: every batch with a leading
/// `ROWS_BEGIN` taken off, and a batch that held only that left out.
fn batches(events: &[Event]) -> Vec<&[Frame]> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Batch(frames) => match &frames[..] {
                [Frame::RowsBegin { .. }, rest @ ..] => (!rest.is_empty()).then_some(rest),
                all => Some(all),
            },
            Event::Control(_) => None,
        })
        .collect()
}

/// What follows `ROWS_BEGIN` of `query_id` at the head of `frames`.
fn after_begin(query_id: u32, frames: &[Frame]) -> &[Frame] {
    match frames.split_first() {
        Some((Frame::RowsBegin { query_id: q, .. }, rest)) if *q == query_id => rest,
        _ => panic!("expected ROWS_BEGIN of query {query_id} first, got {frames:?}"),
    }
}

/// The row sequence numbers in `frames`, which must all be rows of
/// `query_id`.
fn row_seqs(query_id: u32, frames: &[Frame]) -> Vec<u32> {
    frames
        .iter()
        .map(|f| match f {
            Frame::Row {
                query_id: q, seq, ..
            } if *q == query_id => *seq,
            other => panic!("expected a row of query {query_id}, got {other:?}"),
        })
        .collect()
}

/// Assert `frames` ends with the trailer of a `rows`-row result and
/// return what precedes it.
fn strip_trailer(query_id: u32, rows: u32, frames: &[Frame]) -> &[Frame] {
    let (body, trailer) = frames.split_at(frames.len().saturating_sub(2));
    match trailer {
        [Frame::RowsEnd {
            query_id: q1,
            rows: r,
        }, Frame::Done {
            query_id: q2,
            tuples,
            ..
        }] if (*q1, *q2, *r, *tuples) == (query_id, query_id, rows, rows) => body,
        other => panic!("expected ROWS_END + DONE for {rows} rows, got {other:?}"),
    }
}

/// PerQueryMax charges every row the same offset, so all deadlines share
/// one tick — the whole result must be ONE wheel job and ONE send:
/// `[rows…, ROWS_END, DONE]`, rows in sequence order.
#[test]
fn same_tick_result_is_one_job_and_one_send() {
    let rig = rig(ChargingModel::PerQueryMax, 16, 256);
    let sink = RecordingSink::new();
    issue(&rig, &sink, [10, 0, 0, 1], 7, "SELECT * FROM directory");
    assert_eq!(
        rig.metrics.scheduler_scheduled.get(),
        1,
        "a result released at one deadline is one wheel job"
    );
    drain_wheel(&rig);

    let events = std::mem::take(&mut *sink.events.lock());
    match &events[..] {
        [Event::Batch(begin), Event::Batch(frames)] => {
            assert!(after_begin(7, begin).is_empty());
            let rows = strip_trailer(7, 16, frames);
            assert_eq!(row_seqs(7, rows), (0..16).collect::<Vec<u32>>());
        }
        other => panic!("expected RowsBegin then one batch, got {other:?}"),
    }
}

/// A point query — the case the one-job shape exists for — and an empty
/// result, whose trailer has no row batch to join. Each result is one
/// send. The point query's 10 s deadline is still ahead, so it is one
/// wheel job, after its `ROWS_BEGIN` left alone; the empty result costs
/// nothing, is due at once and files no job, and its `ROWS_BEGIN` leads
/// the same send.
#[test]
fn point_and_empty_results_are_one_send_each() {
    let rig = rig(ChargingModel::PerTupleSum, 16, 256);
    for (query_id, sql, rows, jobs) in [
        (1u32, "SELECT * FROM directory WHERE id = 3", 1u32, 1u64),
        (2u32, "SELECT * FROM directory WHERE id = 99", 0u32, 0u64),
    ] {
        let sink = RecordingSink::new();
        let before = rig.metrics.scheduler_scheduled.get();
        issue(&rig, &sink, [10, 0, query_id as u8, 1], query_id, sql);
        assert_eq!(rig.metrics.scheduler_scheduled.get() - before, jobs);
        drain_wheel(&rig);
        let events = std::mem::take(&mut *sink.events.lock());
        assert_eq!(events.len() as u64, 1 + jobs);
        let frames = match &events[..] {
            [Event::Batch(begin), Event::Batch(frames)]
                if after_begin(query_id, begin).is_empty() =>
            {
                &frames[..]
            }
            [Event::Batch(frames)] => after_begin(query_id, frames),
            other => panic!("expected RowsBegin then one batch, got {other:?}"),
        };
        assert_eq!(strip_trailer(query_id, rows, frames).len(), rows as usize);
    }
}

/// PerTupleSum on a cold table prices every tuple at the 10 s cap, so
/// offsets are strictly increasing prefix sums — no two rows share a
/// tick. Coalescing must degrade to one single-row send per deadline,
/// delivered in deadline (= sequence) order, never early; the trailer
/// joins only the last row, whose deadline is the result's.
#[test]
fn distinct_tick_rows_keep_deadline_order() {
    let rig = rig(ChargingModel::PerTupleSum, 8, 256);
    let sink = RecordingSink::new();
    issue(&rig, &sink, [10, 0, 0, 1], 9, "SELECT * FROM directory");
    assert_eq!(rig.metrics.scheduler_scheduled.get(), 8);

    // Each row's deadline is its prefix-sum offset: 10 s, 20 s, … 80 s.
    // Step the clock to just before each deadline (nothing may fire),
    // then onto it (exactly one batch fires).
    for row in 0..8u32 {
        let due = secs_to_nanos(10.0 * (row + 1) as f64);
        rig.clock.advance_to_nanos(due - secs_to_nanos(0.5));
        rig.scheduler.poll();
        assert_eq!(
            batches(&sink.events.lock()).len() as u32,
            row,
            "row {row} released before its deadline"
        );

        rig.clock.advance_to_nanos(due + secs_to_nanos(0.001));
        rig.scheduler.poll();
        let events = sink.events.lock();
        let sent = batches(&events);
        assert_eq!(sent.len() as u32, row + 1);
        let last = *sent.last().unwrap();
        let rows = if row < 7 {
            last
        } else {
            strip_trailer(9, 8, last)
        };
        assert_eq!(
            row_seqs(9, rows),
            vec![row],
            "distinct ticks must not coalesce, and rows release in deadline order"
        );
    }
    assert_eq!(rig.scheduler.pending(), 0);
}

/// A result that ends exactly on a chunk boundary learns it is over only
/// from the next, empty pull — after its last batch was filed. The
/// trailer is then one job of its own, still behind every row.
#[test]
fn chunk_boundary_result_trails_its_rows_with_one_trailer_job() {
    let rig = rig(ChargingModel::PerQueryMax, 8, 4);
    let sink = RecordingSink::new();
    issue(&rig, &sink, [10, 0, 0, 1], 5, "SELECT * FROM directory");
    assert_eq!(rig.metrics.scheduler_scheduled.get(), 3);
    drain_wheel(&rig);
    let events = sink.events.lock();
    let sent = batches(&events);
    assert_eq!(sent.len(), 3);
    assert_eq!(row_seqs(5, sent[0]), vec![0, 1, 2, 3]);
    assert_eq!(row_seqs(5, sent[1]), vec![4, 5, 6, 7]);
    assert!(strip_trailer(5, 8, sent[2]).is_empty());
}

/// Two interleaved connections on one wheel: coalescing is per
/// connection. Each sink still receives its own result as one batch even
/// though both queries share every tick of the scheduler.
#[test]
fn coalescing_is_per_connection() {
    let rig = rig(ChargingModel::PerQueryMax, 12, 256);
    let sink_a = RecordingSink::new();
    let sink_b = RecordingSink::new();
    for (query_id, sink) in [(1u32, &sink_a), (2u32, &sink_b)] {
        let peer = [10, 0, query_id as u8, 1];
        issue(&rig, sink, peer, query_id, "SELECT * FROM directory");
    }
    drain_wheel(&rig);
    for (query_id, sink) in [(1u32, &sink_a), (2u32, &sink_b)] {
        let events = sink.events.lock();
        let sent = batches(&events);
        assert_eq!(sent.len(), 1, "one send per connection per tick");
        let rows = strip_trailer(query_id, 12, sent[0]);
        assert_eq!(row_seqs(query_id, rows), (0..12).collect::<Vec<u32>>());
    }
}

/// The send queue takes the first two chunks and refuses the third. The
/// refused chunk is never charged; the eight rows already charged are
/// still delivered, and the refusal trails them instead of a trailer.
#[test]
fn mid_stream_refusal_trails_every_charged_row() {
    let rig = rig(ChargingModel::PerQueryMax, 12, 4);
    let sink = RecordingSink::with_row_budget(8);
    issue(&rig, &sink, [10, 0, 0, 1], 3, "SELECT * FROM directory");
    drain_wheel(&rig);
    let events = sink.events.lock();
    match &events[..] {
        [Event::Batch(begin), Event::Batch(first), Event::Batch(second), Event::Control(Frame::Refused {
            query_id: 3,
            reason: RefuseReason::Overloaded,
            ..
        })] => {
            assert!(after_begin(3, begin).is_empty());
            assert_eq!(row_seqs(3, first), vec![0, 1, 2, 3]);
            assert_eq!(row_seqs(3, second), vec![4, 5, 6, 7]);
        }
        other => panic!("expected two row batches then the refusal, got {other:?}"),
    }
    assert_eq!(rig.metrics.rows_streamed.get(), 8);
}

/// The executor fails on the seventh tuple (division by zero), after
/// three chunks were charged and filed. The error frame goes out at once
/// and there is no trailer, but all six charged rows still arrive at
/// their deadline.
#[test]
fn executor_error_still_delivers_every_charged_row() {
    let rig = rig(ChargingModel::PerQueryMax, 8, 2);
    let sink = RecordingSink::new();
    let sql = "SELECT * FROM directory WHERE 60 / (6 - id) > 0";
    issue(&rig, &sink, [10, 0, 0, 1], 4, sql);
    match &sink.events.lock()[..] {
        [Event::Batch(begin), Event::Control(Frame::Error { query_id: 4, .. })]
            if after_begin(4, begin).is_empty() => {}
        other => panic!("expected RowsBegin then Error at issue time, got {other:?}"),
    }
    drain_wheel(&rig);
    let events = sink.events.lock();
    let delivered: Vec<u32> = batches(&events)
        .into_iter()
        .flat_map(|frames| row_seqs(4, frames))
        .collect();
    assert_eq!(delivered, (0..6).collect::<Vec<u32>>());
    assert_eq!(rig.metrics.query_errors.get(), 1);
}

/// Every frame `events` carries, in arrival order.
fn frames(events: &[Event]) -> Vec<&Frame> {
    events
        .iter()
        .flat_map(|e| match e {
            Event::Control(frame) => std::slice::from_ref(frame),
            Event::Batch(frames) => &frames[..],
        })
        .collect()
}

/// Statements whose deadlines have passed when they are charged go
/// straight to the sink: no wheel job, one send. On a cold table each
/// tuple costs the 10 s cap, and the clock is moved (as the chunk
/// reserves its slots) to exactly the last deadline — "at or before the
/// clock" is due. Due frames gather into one send even when their
/// deadlines span many ticks.
#[test]
fn due_results_are_pushed_at_charge_with_no_wheel_job() {
    let rig = rig(ChargingModel::PerTupleSum, 16, 256);
    let point = RecordingSink::moving_clock(&rig.clock, &[10.0]);
    issue(
        &rig,
        &point,
        [10, 0, 1, 1],
        1,
        "SELECT * FROM directory WHERE id = 3",
    );
    // Four rows released at 20, 30, 40 and 50 s (issued at 10 s).
    let scan = RecordingSink::moving_clock(&rig.clock, &[50.0]);
    issue(
        &rig,
        &scan,
        [10, 0, 2, 1],
        2,
        "SELECT * FROM directory WHERE id < 4",
    );

    assert_eq!(rig.metrics.scheduler_scheduled.get(), 0, "no wheel job");
    assert_eq!(rig.scheduler.pending(), 0);
    assert_eq!(rig.metrics.released_at_charge.get(), 2);
    let stats = RecordingSink::new();
    rig.gate
        .handle_frame(Frame::Stats, [10, 0, 4, 1], &SessionState::new(), &stats);
    match &stats.events.lock()[..] {
        [Event::Control(Frame::StatsReply { rendered })] => assert!(
            rendered.lines().any(|l| l
                .split_whitespace()
                .eq(["server_released_at_charge_total", "2"])),
            "STATS shows the counter: {rendered}"
        ),
        other => panic!("expected a STATS reply, got {other:?}"),
    }
    for (query_id, sink, rows) in [(1u32, &point, 1u32), (2, &scan, 4)] {
        let events = sink.events.lock();
        match &events[..] {
            [Event::Batch(frames)] => {
                let body = strip_trailer(query_id, rows, after_begin(query_id, frames));
                assert_eq!(row_seqs(query_id, body), (0..rows).collect::<Vec<u32>>());
            }
            other => panic!("expected RowsBegin leading one batch, got {other:?}"),
        }
    }
}

/// A write is never delayed, so its `MUTATED` reply is due the moment
/// the write applies and goes straight to the sink, like a due `SELECT`
/// chunk. Two writes applied half way through a 1 ms tick are zero
/// wheel jobs: both confirmations reach the sink at charge time, in
/// order, and nothing is left for the tick. `released_at_charge` counts
/// `SELECT` statements only.
#[test]
fn due_write_confirmations_skip_the_wheel() {
    let rig = rig(ChargingModel::PerTupleSum, 16, 256);
    rig.clock.advance_to_nanos(10_500_000);
    let write = RecordingSink::new();
    for (query_id, id) in [(1u32, 15), (2, 14)] {
        issue_frame(&rig, &write, [10, 0, 3, 1], |user| Frame::Update {
            query_id,
            user,
            sql: format!("UPDATE directory SET id = {} WHERE id = {id}", 100 + id),
        });
    }
    assert_eq!(rig.metrics.scheduler_scheduled.get(), 0, "no wheel job");
    assert_eq!(rig.metrics.released_at_charge.get(), 0);
    assert_eq!(rig.scheduler.next_deadline_nanos(), None);
    assert_eq!(rig.scheduler.poll(), 0);
    assert_eq!(rig.clock.now_nanos(), 10_500_000, "sent at charge time");
    let sent: Vec<u32> = frames(&write.events.lock())
        .into_iter()
        .map(|f| match f {
            Frame::Mutated {
                query_id, rows: 1, ..
            } => *query_id,
            other => panic!("expected MUTATED, got {other:?}"),
        })
        .collect();
    assert_eq!(sent, vec![1, 2]);
    let reserved = write.reserved.load(Ordering::SeqCst);
    assert_eq!(reserved, 2);
    assert_eq!(write.returned.load(Ordering::SeqCst), reserved);
}

/// A deadline still ahead at charge time — by a single nanosecond — is
/// one wheel job, and the wheel releases it only once the clock has
/// passed it.
#[test]
fn due_pending_result_is_one_wheel_job_released_at_its_deadline() {
    let rig = rig(ChargingModel::PerTupleSum, 16, 256);
    let deadline = secs_to_nanos(10.0);
    let sink = RecordingSink::moving_clock(&rig.clock, &[10.0 - 1e-9]);
    issue(
        &rig,
        &sink,
        [10, 0, 0, 1],
        1,
        "SELECT * FROM directory WHERE id = 3",
    );
    assert_eq!(rig.metrics.scheduler_scheduled.get(), 1);
    assert_eq!(rig.metrics.released_at_charge.get(), 0);
    assert!(rig.clock.now_nanos() < deadline);

    rig.scheduler.poll();
    assert!(batches(&sink.events.lock()).is_empty(), "released early");
    rig.clock.advance_to_nanos(deadline);
    assert_eq!(rig.scheduler.poll(), 1);
    let events = sink.events.lock();
    match &events[..] {
        [Event::Batch(begin), Event::Batch(frames)] => {
            assert!(after_begin(1, begin).is_empty());
            assert_eq!(row_seqs(1, strip_trailer(1, 1, frames)), vec![0]);
        }
        other => panic!("expected RowsBegin then one batch, got {other:?}"),
    }
}

/// Two rows a chunk, five rows at 10 s each. The first chunk is charged
/// at t = 0, so its rows go on the wheel; the clock then jumps to 1000 s
/// before the later chunks are charged, so their deadlines (30–50 s) have
/// passed — yet they must follow the first chunk onto the wheel, or they
/// would overtake rows whose tick has not fired. Every row arrives in
/// sequence order, and `ROWS_END`/`DONE` come last.
#[test]
fn due_chunks_follow_an_earlier_chunk_onto_the_wheel() {
    let rig = rig(ChargingModel::PerTupleSum, 5, 2);
    let sink = RecordingSink::moving_clock(&rig.clock, &[0.0, 1000.0, 1000.0]);
    issue(&rig, &sink, [10, 0, 0, 1], 6, "SELECT * FROM directory");
    assert!(
        rig.clock.now_secs() >= 1000.0,
        "later chunks were charged late"
    );
    assert!(
        batches(&sink.events.lock()).is_empty(),
        "a later chunk overtook the wheel"
    );
    assert_eq!(
        rig.metrics.scheduler_scheduled.get(),
        5,
        "one job per row tick"
    );
    assert_eq!(rig.metrics.released_at_charge.get(), 0);

    assert_eq!(rig.scheduler.poll(), 5);
    let events = sink.events.lock();
    let sent: Vec<Frame> = frames(&events).into_iter().cloned().collect();
    let (begin, rest) = sent.split_first().unwrap();
    assert!(matches!(begin, Frame::RowsBegin { query_id: 6, .. }));
    let rows = strip_trailer(6, 5, rest);
    assert_eq!(row_seqs(6, rows), (0..5).collect::<Vec<u32>>());
}

/// A graceful drain with frames in flight both ways: a scan whose first
/// two rows were due when charged (pushed at once) and whose last two
/// wait on the wheel, a write whose confirmation was due (pushed at
/// once, no wheel job), and a point query still pending. The drain
/// delivers every frame, in order, and every reserved row slot is used
/// by a delivered frame.
#[test]
fn due_and_wheel_frames_all_deliver_through_a_drain() {
    let rig = rig(ChargingModel::PerTupleSum, 8, 256);
    // Rows at 10, 20, 30 and 40 s; the clock reads 25 s at charge time.
    let scan = RecordingSink::moving_clock(&rig.clock, &[25.0]);
    issue(
        &rig,
        &scan,
        [10, 0, 1, 1],
        1,
        "SELECT * FROM directory WHERE id < 4",
    );
    match &scan.events.lock()[..] {
        [Event::Batch(due)] => {
            assert_eq!(
                row_seqs(1, after_begin(1, due)),
                vec![0, 1],
                "the due prefix goes out now"
            );
        }
        other => panic!("expected RowsBegin then the due rows, got {other:?}"),
    }
    let write = RecordingSink::new();
    issue_frame(&rig, &write, [10, 0, 2, 1], |user| Frame::Insert {
        query_id: 2,
        user,
        sql: "INSERT INTO directory VALUES (100)".into(),
    });
    let point = RecordingSink::new();
    issue(
        &rig,
        &point,
        [10, 0, 3, 1],
        3,
        "SELECT * FROM directory WHERE id = 7",
    );
    assert!(
        matches!(
            &write.events.lock()[..],
            [Event::Batch(frames)] if matches!(frames[..], [Frame::Mutated { query_id: 2, .. }])
        ),
        "the write's confirmation goes out at charge time"
    );
    assert_eq!(
        rig.scheduler.pending(),
        3,
        "two scan ticks and the point query; the write filed no wheel job"
    );

    rig.gate.begin_drain();
    rig.scheduler.drain();
    assert_eq!(rig.scheduler.pending(), 0);

    let scan_events = scan.events.lock();
    let sent = batches(&scan_events);
    let rows: Vec<u32> = sent
        .iter()
        .enumerate()
        .flat_map(|(i, frames)| {
            let body = if i + 1 == sent.len() {
                strip_trailer(1, 4, frames)
            } else {
                frames
            };
            row_seqs(1, body)
        })
        .collect();
    assert_eq!(rows, vec![0, 1, 2, 3]);
    let written = write.events.lock();
    assert!(matches!(
        &written[..],
        [Event::Batch(frames)] if matches!(frames[..], [Frame::Mutated { query_id: 2, .. }])
    ));
    let pointed = point.events.lock();
    match &pointed[..] {
        [Event::Batch(begin), Event::Batch(frames)] => {
            assert!(after_begin(3, begin).is_empty());
            assert_eq!(row_seqs(3, strip_trailer(3, 1, frames)), vec![0]);
        }
        other => panic!("expected the point query's batch, got {other:?}"),
    }
    for sink in [&scan, &write, &point] {
        let reserved = sink.reserved.load(Ordering::SeqCst);
        assert!(reserved > 0);
        assert_eq!(sink.returned.load(Ordering::SeqCst), reserved);
    }
    assert_eq!(rig.metrics.released_at_charge.get(), 0);
}
