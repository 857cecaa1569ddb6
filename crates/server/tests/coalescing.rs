//! Regression tests for the shape of a result's wheel jobs.
//!
//! The gate groups consecutive frames whose deadlines land on the same
//! scheduler tick into one job, and that job hands the whole batch to the
//! sink in a single `push_batch` call — one queue lock and one writer
//! wakeup per tick per connection instead of one per frame. The trailer
//! (`ROWS_END`, `DONE`) rides in the last row batch when it shares that
//! batch's tick, so a result released at one deadline is one job and one
//! send. These tests pin that contract against a recording sink: one
//! batch when deadlines coincide, per-deadline delivery in sequence order
//! when they do not, and every charged row delivered when a stream is
//! cut short.

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
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the sink observed, in arrival order. Every `push_batch` call is
/// one `Batch` entry — a per-frame fallback would show up as many
/// single-frame batches.
#[derive(Debug)]
enum Event {
    Control(Frame),
    Batch(Vec<Frame>),
}

struct RecordingSink {
    events: Mutex<Vec<Event>>,
    /// Row slots `try_reserve_rows` will still grant.
    row_budget: AtomicUsize,
}

impl RecordingSink {
    fn new() -> Arc<RecordingSink> {
        RecordingSink::with_row_budget(usize::MAX)
    }

    fn with_row_budget(rows: usize) -> Arc<RecordingSink> {
        Arc::new(RecordingSink {
            events: Mutex::new(Vec::new()),
            row_budget: AtomicUsize::new(rows),
        })
    }
}

impl FrameSink for RecordingSink {
    fn push_control(&self, frame: Frame) {
        self.events.lock().push(Event::Control(frame));
    }

    fn push_row(&self, frame: Frame) {
        self.events.lock().push(Event::Batch(vec![frame]));
    }

    fn push_batch(&self, frames: &mut Vec<Frame>) {
        self.events
            .lock()
            .push(Event::Batch(std::mem::take(frames)));
    }

    fn try_reserve_rows(&self, n: usize) -> bool {
        self.row_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(n)
            })
            .is_ok()
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
    rig.gate.handle_frame(
        Frame::Query {
            query_id,
            user,
            sql: sql.into(),
        },
        peer,
        &session,
        sink,
    );
}

/// Walk the wheel deadline by deadline so jobs fire exactly when (and in
/// the order) the scheduler says they are due.
fn drain_wheel(rig: &Rig) {
    while let Some(at) = rig.scheduler.next_deadline_nanos() {
        rig.clock.advance_to_nanos(at);
        rig.scheduler.poll();
    }
}

fn batches(events: &[Event]) -> Vec<&Vec<Frame>> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Batch(frames) => Some(frames),
            Event::Control(_) => None,
        })
        .collect()
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
        [Event::Control(Frame::RowsBegin { query_id: 7, .. }), Event::Batch(frames)] => {
            let rows = strip_trailer(7, 16, frames);
            assert_eq!(row_seqs(7, rows), (0..16).collect::<Vec<u32>>());
        }
        other => panic!("expected RowsBegin then one batch, got {other:?}"),
    }
}

/// A point query — the case the one-job shape exists for — and an empty
/// result, whose trailer has no row batch to join.
#[test]
fn point_and_empty_results_are_one_job_each() {
    let rig = rig(ChargingModel::PerTupleSum, 16, 256);
    for (query_id, sql, rows) in [
        (1u32, "SELECT * FROM directory WHERE id = 3", 1u32),
        (2u32, "SELECT * FROM directory WHERE id = 99", 0u32),
    ] {
        let sink = RecordingSink::new();
        let before = rig.metrics.scheduler_scheduled.get();
        issue(&rig, &sink, [10, 0, query_id as u8, 1], query_id, sql);
        assert_eq!(rig.metrics.scheduler_scheduled.get() - before, 1);
        drain_wheel(&rig);
        let events = std::mem::take(&mut *sink.events.lock());
        match &events[..] {
            [Event::Control(Frame::RowsBegin { .. }), Event::Batch(frames)] => {
                assert_eq!(strip_trailer(query_id, rows, frames).len(), rows as usize);
            }
            other => panic!("expected RowsBegin then one batch, got {other:?}"),
        }
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
            &last[..]
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
        [Event::Control(Frame::RowsBegin { query_id: 3, .. }), Event::Batch(first), Event::Batch(second), Event::Control(Frame::Refused {
            query_id: 3,
            reason: RefuseReason::Overloaded,
            ..
        })] => {
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
        [Event::Control(Frame::RowsBegin { query_id: 4, .. }), Event::Control(Frame::Error { query_id: 4, .. })] =>
            {}
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
