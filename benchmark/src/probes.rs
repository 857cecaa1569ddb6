//! Layer probes: time calls into each layer's public functions from the
//! benchmark's own code, replaying inputs of the kind the workload
//! generates. Each probe owns what it mutates; none touches the server
//! the trials ran against.

use crate::harness::{build_db, connect, guard_config, open_gatekeeper, Conn};
use crate::report::Metric;
use crate::workloads::{body_of, key_of_rank, select_sql, stream_seed, zipf_for, Policy, Spec};
use delayguard_core::gatekeeper::{Gatekeeper, Ipv4, RegistrationOutcome};
use delayguard_core::{ChargedChunk, Clock, GuardedDatabase, RealClock, StreamedQuery};
use delayguard_popularity::{FrequencyTracker, ShardedEventQueue};
use delayguard_query::ast::Statement;
use delayguard_query::{parse, ExecScratch, RowBuf, StreamedStatement};
use delayguard_server::protocol::{encode_frame_into, read_frame_buffered, Frame};
use delayguard_server::{
    DelayScheduler, FrameSink, FrontDoor, GateConfig, ServerMetrics, SessionState, TimerWheel,
};
use delayguard_sim::{median_of, Quantiles, Registry};
use delayguard_storage::{Row, RowId, Value};
use delayguard_workload::Rng;
use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Stream number of the probes' own generator under the workload seed.
const STREAM_PROBES: u64 = 2;
/// Inputs each probe cycles through.
const INPUTS: usize = 256;
/// Rows of the scan the per-tuple probes run.
const SCAN_ROWS: u64 = 2_048;
/// Rows the executor hands on at a time, as the front door asks for them.
const CHUNK_ROWS: usize = 256;
const TICK: Duration = Duration::from_millis(1);

/// Nanoseconds per call of `f`: the median over batches that fill
/// `budget`, each batch sized to run for about a millisecond.
fn time_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t.elapsed() >= Duration::from_millis(1) || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let mut per_call = Vec::new();
    let end = Instant::now() + budget;
    while per_call.len() < 3 || Instant::now() < end {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    median_of(per_call)
}

/// Like [`time_ns`] for work that needs untimed preparation and clean-up
/// around what it times: each `round` returns the nanoseconds per call
/// of the `N` things it timed, and the median round of each is reported.
fn time_rounds<const N: usize>(budget: Duration, mut round: impl FnMut() -> [f64; N]) -> [f64; N] {
    let mut rounds: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let end = Instant::now() + budget;
    while rounds[0].len() < 3 || Instant::now() < end {
        for (samples, ns) in rounds.iter_mut().zip(round()) {
            samples.push(ns);
        }
    }
    rounds.map(median_of)
}

/// A round-robin cursor over prepared inputs.
struct Cycle<T> {
    items: Vec<T>,
    at: usize,
}

impl<T> Cycle<T> {
    fn new(items: Vec<T>) -> Cycle<T> {
        Cycle { items, at: 0 }
    }

    fn next(&mut self) -> &mut T {
        self.at = (self.at + 1) % self.items.len();
        &mut self.items[self.at]
    }
}

/// The keys a probe replays: Zipf-distributed like honest traffic.
fn probe_keys(rows: u64, seed: u64) -> Vec<u64> {
    let zipf = zipf_for(rows);
    let mut rng = Rng::new(stream_seed(seed, STREAM_PROBES));
    (0..INPUTS)
        .map(|_| key_of_rank(zipf.sample(&mut rng), rows))
        .collect()
}

fn scan_starts(rows: u64, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(stream_seed(seed, STREAM_PROBES + 1));
    (0..INPUTS)
        .map(|_| rng.below(rows - SCAN_ROWS + 1))
        .collect()
}

fn probe_db(hybrid: bool, rows: u64, seed: u64) -> GuardedDatabase {
    let policy = if hybrid {
        Policy::Hybrid { cap_secs: 1e-6 }
    } else {
        Policy::AccessRate { cap_secs: 1e-6 }
    };
    build_db(guard_config(policy), rows, seed, &zipf_for(rows))
}

// ---- protocol -------------------------------------------------------------

fn protocol(budget: Duration, sqls: &[String]) -> Vec<Metric> {
    let mut buf = Vec::with_capacity(256);
    let mut scratch = Vec::new();
    let mut queries = Cycle::new(
        sqls.iter()
            .enumerate()
            .map(|(i, sql)| Frame::Query {
                query_id: i as u32 + 1,
                user: 7,
                sql: sql.clone(),
            })
            .collect(),
    );
    let encode_query = time_ns(budget, || {
        buf.clear();
        encode_frame_into(black_box(queries.next()), &mut buf).expect("query frame fits");
    });
    let mut wire = Cycle::new(
        queries
            .items
            .iter()
            .map(|f| {
                let mut bytes = Vec::new();
                encode_frame_into(f, &mut bytes).expect("query frame fits");
                bytes
            })
            .collect::<Vec<Vec<u8>>>(),
    );
    let decode_query = time_ns(budget, || {
        let mut bytes = wire.next().as_slice();
        black_box(read_frame_buffered(&mut bytes, &mut scratch).expect("frame decodes"));
    });
    let mut rows = Cycle::new(
        (0..INPUTS as u64)
            .map(|i| Frame::Row {
                query_id: 1,
                seq: i as u32,
                row: Row::new(vec![
                    Value::Int(i as i64 * 257),
                    Value::Text(body_of(i * 257, 0)),
                ]),
            })
            .collect(),
    );
    let encode_row = time_ns(budget, || {
        buf.clear();
        encode_frame_into(black_box(rows.next()), &mut buf).expect("row frame fits");
    });
    let mut wire = Cycle::new(
        rows.items
            .iter()
            .map(|f| {
                let mut bytes = Vec::new();
                encode_frame_into(f, &mut bytes).expect("row frame fits");
                bytes
            })
            .collect::<Vec<Vec<u8>>>(),
    );
    let bytes_per_row =
        wire.items.iter().map(Vec::len).sum::<usize>() as f64 / wire.items.len() as f64;
    let decode_row = time_ns(budget, || {
        let mut bytes = wire.next().as_slice();
        black_box(read_frame_buffered(&mut bytes, &mut scratch).expect("frame decodes"));
    });
    vec![
        Metric::single("protocol.encode_query_ns", encode_query),
        Metric::single("protocol.decode_query_ns", decode_query),
        Metric::single("protocol.encode_row_ns", encode_row),
        Metric::single("protocol.decode_row_ns", decode_row),
        Metric::single("protocol.bytes_per_row", bytes_per_row),
    ]
}

// ---- query ----------------------------------------------------------------

/// Pull every row of an open cursor in front-door-sized chunks.
fn drain(streamed: &mut StreamedStatement<'_>, buf: &mut RowBuf) -> usize {
    let StreamedStatement::Rows(cursor) = streamed else {
        return 0;
    };
    let mut rows = 0;
    loop {
        match cursor.fill_chunk(CHUNK_ROWS, buf).expect("cursor pulls") {
            0 => return rows,
            n => rows += n,
        }
    }
}

fn query(budget: Duration, db: &GuardedDatabase, sqls: &[String], scans: &[String]) -> Vec<Metric> {
    let engine = db.engine();
    let mut inputs = Cycle::new(sqls.to_vec());
    let parse_ns = time_ns(budget, || {
        black_box(parse(inputs.next()).expect("generated SQL parses"));
    });
    let prepare_ns = time_ns(budget, || {
        black_box(engine.prepare_select(inputs.next()).expect("SELECT plans"));
    });
    let mut scratch = ExecScratch::new();
    let mut buf = RowBuf::new();
    let prepare_all = |sqls: &[String]| {
        Cycle::new(
            sqls.iter()
                .map(|s| engine.prepare_select(s).expect("SELECT plans"))
                .collect(),
        )
    };
    let mut points = prepare_all(sqls);
    let exec_point = time_ns(budget, || {
        let rows = engine
            .execute_prepared_streaming(points.next(), &mut scratch, |s| drain(s, &mut buf))
            .expect("prepared SELECT runs");
        black_box(rows);
    });
    let mut ranges = prepare_all(scans);
    let exec_scan = time_ns(budget, || {
        let rows = engine
            .execute_prepared_streaming(ranges.next(), &mut scratch, |s| drain(s, &mut buf))
            .expect("prepared SELECT runs");
        assert_eq!(rows as u64, SCAN_ROWS);
    });
    vec![
        Metric::single("query.parse_ns", parse_ns),
        Metric::single("query.plan_ns", prepare_ns - parse_ns),
        Metric::single("query.exec_point_ns", exec_point),
        Metric::single("query.exec_scan_ns_per_row", exec_scan / SCAN_ROWS as f64),
    ]
}

// ---- storage --------------------------------------------------------------

fn storage(budget: Duration, db: &GuardedDatabase, keys: &[u64], rows: u64) -> Vec<Metric> {
    let table = db.engine().catalog().table("t").expect("table t exists");
    let row_of = |id: u64| Row::new(vec![Value::Int(id as i64), Value::Text(body_of(id, 0))]);
    let (index_lookup, peek, rids) = {
        let t = table.read();
        let mut index_keys = Cycle::new(
            keys.iter()
                .map(|&k| vec![Value::Int(k as i64)])
                .collect::<Vec<_>>(),
        );
        let mut out: Vec<RowId> = Vec::new();
        let index_lookup = time_ns(budget, || {
            out.clear();
            assert!(t.index_lookup_into(&[0], index_keys.next(), &mut out));
            black_box(&out);
        });
        let rids: Vec<RowId> = index_keys
            .items
            .iter()
            .map(|k| t.index_lookup(&[0], k).expect("index on id")[0])
            .collect();
        let mut cycle = Cycle::new(rids.clone());
        let mut row = Row::new(Vec::new());
        let peek = time_ns(budget, || {
            t.peek_into(*cycle.next(), &mut row).expect("row is live");
            black_box(&row);
        });
        (index_lookup, peek, rids)
    };
    let mut t = table.write();
    // Rewrite rows with the body they already hold: the table's content
    // is the same afterwards.
    let mut targets = Cycle::new(rids.into_iter().zip(keys.iter().copied()).collect());
    let [update] = time_rounds(budget, || {
        let fresh: Vec<Row> = (0..INPUTS).map(|_| row_of(targets.next().1)).collect();
        let t0 = Instant::now();
        for row in fresh {
            let (rid, _) = targets.next();
            *rid = t.update(*rid, row).expect("update applies");
        }
        [t0.elapsed().as_nanos() as f64 / INPUTS as f64]
    });
    let [insert, delete] = time_rounds(budget, || {
        let fresh: Vec<Row> = (0..INPUTS as u64).map(|i| row_of(rows + i)).collect();
        let t0 = Instant::now();
        let rids: Vec<RowId> = fresh
            .into_iter()
            .map(|r| t.insert(r).expect("fresh id inserts"))
            .collect();
        let t1 = Instant::now();
        for rid in rids {
            black_box(t.delete(rid).expect("row just inserted"));
        }
        [(t1 - t0), t1.elapsed()].map(|d| d.as_nanos() as f64 / INPUTS as f64)
    });
    vec![
        Metric::single("storage.index_lookup_ns", index_lookup),
        Metric::single("storage.peek_ns", peek),
        Metric::single("storage.insert_ns", insert),
        Metric::single("storage.update_ns", update),
        Metric::single("storage.delete_ns", delete),
    ]
}

// ---- popularity -----------------------------------------------------------

fn popularity(budget: Duration, keys: &[u64], rows: u64) -> Vec<Metric> {
    let mut tracker = FrequencyTracker::no_decay();
    for key in 0..rows {
        tracker.record(key);
    }
    let mut cycle = Cycle::new(keys.to_vec());
    let record = time_ns(budget, || tracker.record(*cycle.next()));
    let rank = time_ns(budget, || {
        black_box(tracker.rank(*cycle.next()));
    });
    let queue: ShardedEventQueue<Vec<u64>> = ShardedEventQueue::new(16);
    let [push, drain] = time_rounds(budget, || {
        const EVENTS: u64 = 1_000;
        let t0 = Instant::now();
        for _ in 0..EVENTS {
            // One event per priced chunk, carrying the chunk's keys.
            queue.push(vec![*cycle.next()]);
        }
        let t1 = Instant::now();
        assert_eq!(black_box(queue.drain()).len() as u64, EVENTS);
        [(t1 - t0), t1.elapsed()].map(|d| d.as_nanos() as f64 / EVENTS as f64)
    });
    vec![
        Metric::single("popularity.record_ns", record),
        Metric::single("popularity.rank_ns", rank),
        Metric::single("popularity.queue_push_ns", push),
        Metric::single("popularity.queue_drain_ns_per_event", drain),
    ]
}

// ---- core -----------------------------------------------------------------

/// Execute a pre-parsed SELECT the way the front door does: pull a
/// chunk, price it, repeat. Returns the tuples priced.
fn price(db: &GuardedDatabase, stmt: &Statement, buf: &mut RowBuf, out: &mut ChargedChunk) -> u64 {
    db.execute_stmt_streaming(stmt, |q| {
        let StreamedQuery::Rows(mut stream) = q else {
            return 0;
        };
        while stream
            .next_chunk_into(CHUNK_ROWS, buf)
            .expect("cursor pulls")
            > 0
        {
            stream.charge_into(buf.rows(), out);
        }
        stream.tuples_charged()
    })
    .expect("SELECT runs")
}

fn parsed(sqls: &[String]) -> Cycle<Statement> {
    Cycle::new(
        sqls.iter()
            .map(|s| parse(s).expect("generated SQL parses"))
            .collect(),
    )
}

fn update_sqls(keys: &[u64]) -> Vec<String> {
    keys.iter()
        .map(|&k| format!("UPDATE t SET body = '{}' WHERE id = {k}", body_of(k, 0)))
        .collect()
}

/// `refresh()` with 1000 point reads pending, every row of the table
/// tracked: the cost of publishing one policy snapshot at that size.
fn refresh_us(budget: Duration, db: &GuardedDatabase, sqls: &[String], rows: u64) -> f64 {
    for lo in (0..rows).step_by(SCAN_ROWS as usize) {
        db.execute_at(&select_sql(lo, SCAN_ROWS), 1e6)
            .expect("warming scan runs");
    }
    db.refresh();
    let mut points = parsed(sqls);
    let (mut buf, mut out) = (RowBuf::new(), ChargedChunk::default());
    let [us] = time_rounds(budget, || {
        for _ in 0..1_000 {
            price(db, points.next(), &mut buf, &mut out);
        }
        let t0 = Instant::now();
        db.refresh();
        [t0.elapsed().as_nanos() as f64 / 1e3]
    });
    us
}

/// `db` with `inputs` is the workload-sized table; `hybrid` is always the
/// small table under the Hybrid policy, probed with `hybrid_inputs`.
fn core(
    budget: Duration,
    db: &GuardedDatabase,
    hybrid: &GuardedDatabase,
    inputs: &Inputs,
    hybrid_inputs: &Inputs,
) -> Vec<Metric> {
    let mut gatekeeper = Gatekeeper::new(open_gatekeeper());
    let mut register = || match gatekeeper.register(Ipv4([127, 0, 0, 1]), 0.0) {
        RegistrationOutcome::Admitted { user, .. } => user,
        other => panic!("an unthrottled registrar answered {other:?}"),
    };
    let (user, neighbour) = (register(), register());
    let clock = RealClock::new();
    // Admission keeps a charge log per identity; a short budget bounds it.
    let admit = time_ns(budget / 4, || {
        black_box(gatekeeper.admit(user, clock.now_secs()));
    });
    // Two sessions of one /24 read the clock before they take the
    // gatekeeper lock, so their charges can reach the shared subnet
    // bucket out of time order. Here every second one does, with
    // 100 000 charges already in the subnet's log.
    let mut now = clock.now_secs();
    while gatekeeper.query_count(user) < 100_000 {
        now += 4e-6;
        gatekeeper.admit(user, now);
    }
    let [admit_interleaved] = time_rounds(budget / 4, || {
        let t0 = Instant::now();
        for _ in 0..16 {
            now += 4e-6;
            black_box(gatekeeper.admit(user, now + 2e-6));
            black_box(gatekeeper.admit(neighbour, now + 1e-6));
        }
        [t0.elapsed().as_nanos() as f64 / 32.0]
    });
    let (mut buf, mut out) = (RowBuf::new(), ChargedChunk::default());
    let mut points = parsed(&inputs.points);
    let price_point = time_ns(budget, || {
        black_box(price(db, points.next(), &mut buf, &mut out));
    });
    let mut ranges = parsed(&inputs.scans);
    let price_scan = time_ns(budget, || {
        assert_eq!(price(db, ranges.next(), &mut buf, &mut out), SCAN_ROWS);
    });
    let mut ranges = parsed(&hybrid_inputs.scans);
    let price_hybrid = time_ns(budget, || {
        assert_eq!(price(hybrid, ranges.next(), &mut buf, &mut out), SCAN_ROWS);
    });
    let mut writes = parsed(&update_sqls(&hybrid_inputs.keys));
    let mutation = time_ns(budget, || {
        hybrid
            .execute_stmt_streaming(writes.next(), |q| {
                black_box(matches!(q, StreamedQuery::Finished(_)));
            })
            .expect("UPDATE runs");
    });
    vec![
        Metric::single("core.admit_ns", admit),
        Metric::single("core.admit_interleaved_ns_100k", admit_interleaved),
        Metric::single("core.price_point_ns", price_point),
        Metric::single("core.price_ns_per_tuple", price_scan / SCAN_ROWS as f64),
        Metric::single(
            "core.price_hybrid_ns_per_tuple",
            price_hybrid / SCAN_ROWS as f64,
        ),
        Metric::single("core.mutation_ns", mutation),
    ]
}

// ---- gate -----------------------------------------------------------------

/// A sink that keeps nothing: the probe times the front door, not a
/// queue behind it. It remembers the identity `REGISTER` handed out.
#[derive(Default)]
struct NullSink {
    user: AtomicU64,
    frames: AtomicU64,
}

impl FrameSink for NullSink {
    fn push_control(&self, frame: Frame) {
        if let Frame::Registered { user, .. } = frame {
            self.user.store(user, Ordering::Relaxed);
        }
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    fn push_row(&self, _frame: Frame) {
        self.frames.fetch_add(1, Ordering::Relaxed);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

/// Time `FrontDoor::handle_frame` on frames built by `frame_of`, with a
/// thread-less scheduler polled between batches (untimed).
fn gate_ns(
    budget: Duration,
    db: Arc<GuardedDatabase>,
    sqls: &[String],
    frame_of: impl Fn(u32, u64, String) -> Frame,
) -> f64 {
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let clock = db.clock();
    let scheduler = DelayScheduler::manual(TICK, metrics.clone(), Arc::clone(&clock));
    let config = GateConfig {
        gatekeeper: open_gatekeeper(),
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(config, db, Arc::clone(&scheduler), clock, metrics, registry);
    let sink = Arc::new(NullSink::default());
    let session = SessionState::new();
    let peer = [127, 0, 0, 1];
    let register = Frame::Register {
        claimed_ip: [0; 4],
        version: delayguard_server::PROTOCOL_VERSION,
    };
    gate.handle_frame(register, peer, &session, &sink);
    let user = sink.user.load(Ordering::Relaxed);
    let mut next_id = 0u32;
    let [ns] = time_rounds(budget, || {
        let frames: Vec<Frame> = sqls
            .iter()
            .map(|sql| {
                next_id += 1;
                frame_of(next_id, user, sql.clone())
            })
            .collect();
        let before = sink.frames.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for frame in frames {
            gate.handle_frame(frame, peer, &session, &sink);
        }
        let ns = t0.elapsed().as_nanos() as f64;
        // Every deadline is within a microsecond: one tick later the
        // wheel is empty again.
        std::thread::sleep(2 * TICK);
        scheduler.poll();
        assert_eq!(scheduler.pending(), 0);
        assert!(sink.frames.load(Ordering::Relaxed) > before);
        [ns / sqls.len() as f64]
    });
    ns
}

// ---- wheel ----------------------------------------------------------------

/// Deadlines spread over the next 250 ticks, like a 250 ms cap.
const WHEEL_SPAN: u64 = 250;

fn filled_wheel(now: u64, pending: u64, rng: &mut Rng) -> TimerWheel<u64> {
    let mut wheel = TimerWheel::new();
    wheel.advance(now);
    for i in 0..pending {
        wheel.insert(now + 1 + rng.below(WHEEL_SPAN), i);
    }
    wheel
}

fn wheel(budget: Duration, seed: u64) -> Vec<Metric> {
    let mut rng = Rng::new(stream_seed(seed, STREAM_PROBES + 2));
    const PENDING: u64 = 1_000;
    let mut now = 1_000;
    let [insert, advance] = time_rounds(budget, || {
        let mut wheel = filled_wheel(now, PENDING, &mut rng);
        let deadlines: Vec<u64> = (0..PENDING)
            .map(|_| now + 1 + rng.below(WHEEL_SPAN))
            .collect();
        let t0 = Instant::now();
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.insert(d, i as u64);
        }
        let t1 = Instant::now();
        let mut fired = 0;
        for tick in now + 1..=now + WHEEL_SPAN {
            fired += wheel.advance(tick).len() as u64;
        }
        let advanced = t1.elapsed();
        assert_eq!(fired, 2 * PENDING);
        now += WHEEL_SPAN + 7;
        [
            (t1 - t0).as_nanos() as f64 / PENDING as f64,
            advanced.as_nanos() as f64 / fired as f64,
        ]
    });
    // With 100k pending, the tick that crosses a 64-tick boundary moves
    // a whole upper-level slot down: the longest the wheel lock is held.
    let mut worst_tick_ns = Vec::new();
    for _ in 0..3 {
        let mut wheel = filled_wheel(now, 100_000, &mut rng);
        let mut worst = 0u128;
        for tick in now + 1..=now + WHEEL_SPAN {
            let t0 = Instant::now();
            black_box(wheel.advance(tick));
            worst = worst.max(t0.elapsed().as_nanos());
        }
        assert_eq!(wheel.pending(), 0);
        worst_tick_ns.push(worst as f64);
        now += WHEEL_SPAN + 7;
    }
    vec![
        Metric::single("wheel.insert_ns", insert),
        Metric::single("wheel.advance_ns_per_item", advance),
        Metric::single("wheel.cascade_ns_100k", median_of(worst_tick_ns)),
    ]
}

// ---- scheduler ------------------------------------------------------------

/// Fire lateness of a real scheduler thread: jobs stamp their own fire
/// time on the scheduler's clock.
fn scheduler(budget: Duration, seed: u64) -> Vec<Metric> {
    let registry = Registry::new();
    let clock: Arc<dyn Clock> = RealClock::shared();
    let sched =
        DelayScheduler::start_with_clock(TICK, ServerMetrics::new(&registry), Arc::clone(&clock));
    let mut rng = Rng::new(stream_seed(seed, STREAM_PROBES + 3));
    let (tx, rx) = mpsc::channel::<f64>();
    let schedule = |deadline: u64| {
        let (tx, clock) = (tx.clone(), Arc::clone(&clock));
        sched.schedule(
            deadline,
            Box::new(move || {
                let late_us = (clock.now_nanos() - deadline) as f64 / 1e3;
                // The receiver outlives every job: drain() below waits for them.
                let _ = tx.send(late_us);
            }),
        );
    };
    // Idle: one deadline pending at a time, 1-3 ms out.
    let mut idle = Vec::new();
    let end = Instant::now() + budget / 3;
    while idle.len() < 20 || Instant::now() < end {
        schedule(clock.now_nanos() + 1_000_000 + rng.below(2_000_000));
        idle.push(rx.recv().expect("scheduler thread is alive"));
    }
    // Loaded: 4000 deadlines a second, uniform in 1-250 ms.
    let mut loaded = Vec::new();
    let start = clock.now_nanos();
    let count = (4_000.0 * (budget.as_secs_f64() * 2.0 / 3.0)) as u64;
    for i in 0..count {
        clock.sleep_until_nanos(start + i * 250_000);
        schedule(clock.now_nanos() + 1_000_000 + rng.below(249_000_000));
        loaded.extend(rx.try_iter());
    }
    sched.drain();
    loaded.extend(rx.try_iter());
    assert_eq!(loaded.len() as u64, count);
    let loaded = Quantiles::of(loaded);
    vec![
        Metric::single(
            "scheduler.fire_lateness_idle_p50_us",
            Quantiles::of(idle).median(),
        ),
        Metric::single("scheduler.fire_lateness_loaded_p50_us", loaded.median()),
        Metric::single("scheduler.fire_lateness_loaded_p99_us", loaded.p99()),
    ]
}

// ---- transport ------------------------------------------------------------

/// `STATS` round trips on a live connection: control frames bypass the
/// wheel, so this is socket, session thread, send queue and writer
/// thread alone.
pub fn stats_rtt_p50_us(conn: &mut Conn, seconds: f64) -> io::Result<f64> {
    let mut rtt_us = Vec::new();
    let end = Instant::now() + Duration::from_secs_f64(seconds / 40.0);
    while rtt_us.len() < 50 || Instant::now() < end {
        let t0 = Instant::now();
        conn.tx.send(&Frame::Stats)?;
        conn.tx.flush()?;
        match conn.rx.recv()? {
            Frame::StatsReply { .. } => rtt_us.push(t0.elapsed().as_nanos() as f64 / 1e3),
            other => return Err(io::Error::other(format!("STATS answered {other:?}"))),
        }
    }
    Ok(Quantiles::of(rtt_us).median())
}

/// TCP connect plus `REGISTER` round trip, median of several.
pub fn connect_register_us(addr: SocketAddr) -> io::Result<f64> {
    let mut us = Vec::new();
    for _ in 0..15 {
        let t0 = Instant::now();
        let conn = connect(addr)?;
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        drop(conn);
    }
    Ok(Quantiles::of(us).median())
}

// ---- all of them ----------------------------------------------------------

/// Probe inputs for a table of `rows` rows: Zipf keys, the point reads
/// of them, and range scans at uniform offsets.
struct Inputs {
    keys: Vec<u64>,
    points: Vec<String>,
    scans: Vec<String>,
}

impl Inputs {
    fn new(rows: u64, seed: u64) -> Inputs {
        let keys = probe_keys(rows, seed);
        Inputs {
            points: keys.iter().map(|&k| select_sql(k, 1)).collect(),
            scans: scan_starts(rows, seed)
                .iter()
                .map(|&lo| select_sql(lo, SCAN_ROWS))
                .collect(),
            keys,
        }
    }
}

/// Run every in-process probe within about `budget_secs`, on inputs of
/// the workload's kind: its table size and its SQL shapes.
pub fn run_all(spec: &Spec, seed: u64, budget_secs: f64) -> Vec<Metric> {
    // A quarter for the scheduler (it has to wait out real deadlines), the
    // rest shared by some forty timed loops and the table builds.
    let each = Duration::from_secs_f64(budget_secs * 0.75 / 50.0);
    const SMALL: u64 = 8_192;
    const LARGE: u64 = 65_536;
    let (small_in, large_in) = (Inputs::new(SMALL, seed), Inputs::new(LARGE, seed));
    let small = probe_db(false, SMALL, seed);
    let large = probe_db(false, LARGE, seed);
    let hybrid = Arc::new(probe_db(true, SMALL, seed));

    let mut out = Vec::new();
    out.push(Metric::single(
        "core.refresh_us_8k",
        refresh_us(each * 2, &small, &small_in.points, SMALL),
    ));
    out.push(Metric::single(
        "core.refresh_us_64k",
        refresh_us(each * 2, &large, &large_in.points, LARGE),
    ));
    // Everything else runs at the workload's own table size.
    let (db, inputs) = if spec.rows == SMALL {
        (Arc::new(small), &small_in)
    } else {
        (Arc::new(large), &large_in)
    };
    out.extend(protocol(each, &inputs.points));
    out.extend(popularity(each, &inputs.keys, spec.rows));
    out.extend(wheel(each, seed));
    out.extend(scheduler(Duration::from_secs_f64(budget_secs * 0.25), seed));
    out.extend(query(each, &db, &inputs.points, &inputs.scans));
    out.extend(storage(each, &db, &inputs.keys, spec.rows));
    out.extend(core(each, &db, &hybrid, inputs, &small_in));

    let handle_query = gate_ns(each * 2, db, &inputs.points, |query_id, user, sql| {
        Frame::Query {
            query_id,
            user,
            sql,
        }
    });
    let handle_mutation = gate_ns(
        each * 2,
        hybrid,
        &update_sqls(&small_in.keys),
        |query_id, user, sql| Frame::Update {
            query_id,
            user,
            sql,
        },
    );
    let get = |name: &str| out.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
    // `core.price_point_ns` is plan + execute + price of one pre-parsed
    // point query; what is left of handle_query after admission, parse
    // and that is the front door's own work: frames, boxed jobs, locks.
    let gate_self =
        handle_query - get("core.admit_ns") - get("query.parse_ns") - get("core.price_point_ns");
    out.push(Metric::single("gate.handle_query_ns", handle_query));
    out.push(Metric::single("gate.self_ns", gate_self));
    out.push(Metric::single("gate.handle_mutation_ns", handle_mutation));
    out
}
