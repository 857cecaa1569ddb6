//! Multithreaded guarded-query throughput: the experiment behind the
//! `throughput` binary.
//!
//! Measures end-to-end guarded `SELECT` throughput (execute + price +
//! record) at increasing thread counts through the two clock-driven
//! forms of the one execution core:
//!
//! * **`snapshot_sharded`** — ad-hoc statements drained by
//!   `execute_stmt_with_deadline`.
//! * **`prepared_zero_copy`** — prepared statements streamed through
//!   recycled buffers by `execute_prepared_streaming`.
//!
//! Queries are multi-row range scans so per-tuple charging dominates.
//!
//! [`front_door_sessions`] measures the served read path instead: due
//! point queries through the server's front door, one session against
//! two sessions on one guard.

use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::{
    AccessDelayPolicy, ChargedChunk, GatekeeperConfig, GuardConfig, GuardPolicy, GuardedDatabase,
};
use delayguard_query::ast::Statement;
use delayguard_query::{parse, ExecScratch, PreparedSelect, RowBuf};
use delayguard_server::{
    DelayScheduler, Frame, FrameSink, FrontDoor, GateConfig, ServerMetrics, SessionState,
    PROTOCOL_VERSION,
};
use delayguard_sim::Registry;
use delayguard_storage::copymeter;
use delayguard_workload::Rng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

/// Workload shape shared by every measurement.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputConfig {
    /// Table size.
    pub rows: u64,
    /// Rows returned per query (range width).
    pub rows_per_query: u64,
    /// Queries each worker thread issues during the measured phase.
    pub queries_per_thread: u64,
    /// Warm-up traffic (per table, sequential) before measuring, so the
    /// guard prices learned popularity rather than the all-at-cap
    /// start-up transient.
    pub warmup_queries: u64,
}

impl Default for ThroughputConfig {
    fn default() -> ThroughputConfig {
        ThroughputConfig {
            rows: 8192,
            rows_per_query: 32,
            // 120–180 ms of prepared single-thread queries per point on a
            // 2-vCPU host, not the few milliseconds 2 000 queries took.
            queries_per_thread: 40_000,
            warmup_queries: 2_000,
        }
    }
}

impl ThroughputConfig {
    /// A fast variant for CI smoke runs.
    pub fn smoke() -> ThroughputConfig {
        ThroughputConfig {
            rows: 1024,
            rows_per_query: 16,
            queries_per_thread: 200,
            warmup_queries: 200,
        }
    }
}

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputSample {
    /// Worker threads issuing queries concurrently.
    pub threads: usize,
    /// Total queries completed across all threads.
    pub queries: u64,
    /// Wall-clock time for the measured phase, in seconds.
    pub elapsed_secs: f64,
    /// Queries per second.
    pub qps: f64,
    /// Tuples priced and recorded per second.
    pub tuples_per_sec: f64,
}

/// The guard configuration under test: the paper's canonical policy
/// with a finite cap; no decay so the warm-up's learned distribution is
/// stable across the run.
pub fn snapshot_sharded_config() -> GuardConfig {
    GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0),
    ))
}

/// Build and seed a guarded database for the workload: `rows` tuples,
/// indexed id column, plus `warmup_queries` of sequential warm-up traffic
/// (through the exact virtual-time path; none leaves every tuple at the
/// start-up cap) and an initial snapshot refresh.
pub fn seeded_db(config: GuardConfig, shape: &ThroughputConfig) -> GuardedDatabase {
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    // Multi-row inserts keep seeding cheap.
    let mut i = 0;
    while i < shape.rows {
        let end = (i + 256).min(shape.rows);
        let values: Vec<String> = (i..end).map(|k| format!("({k}, 'row-{k}')")).collect();
        db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0)
            .unwrap();
        i = end;
    }
    // Warm-up traffic so the measured phase prices a learned (non-cap)
    // distribution.
    let mut rng = Rng::new(0x5eed);
    for q in 0..shape.warmup_queries {
        let start = rng.below(shape.rows.saturating_sub(shape.rows_per_query).max(1));
        db.execute_at(
            &format!(
                "SELECT * FROM t WHERE id >= {start} AND id < {}",
                start + shape.rows_per_query
            ),
            1.0 + q as f64,
        )
        .unwrap();
    }
    db.refresh();
    db
}

/// Each worker's query mix: 64 distinct range scans, cycled.
fn worker_sql(tid: u64, shape: &ThroughputConfig) -> Vec<String> {
    let mut rng = Rng::new(0xbadc0de + tid);
    (0..64)
        .map(|_| {
            let start = rng.below(shape.rows.saturating_sub(shape.rows_per_query).max(1));
            format!(
                "SELECT * FROM t WHERE id >= {start} AND id < {}",
                start + shape.rows_per_query
            )
        })
        .collect()
}

/// One worker's query closure for the allocation-free pipeline: its own
/// prepared query mix and recycled scratch/row/pricing buffers, each
/// call draining query `q` of the mix through
/// `execute_prepared_streaming` in `chunk_rows`-sized pulls — the exact
/// shape of the server gate's per-connection loop. Returns the rows seen.
fn prepared_worker<'a>(
    db: &'a GuardedDatabase,
    tid: u64,
    shape: &ThroughputConfig,
) -> impl FnMut(u64) -> u64 + 'a {
    let mut preps: Vec<PreparedSelect> = worker_sql(tid, shape)
        .iter()
        .map(|sql| db.engine().prepare_select(sql).unwrap())
        .collect();
    let mut scratch = ExecScratch::new();
    let mut buf = RowBuf::new();
    let mut charged = ChargedChunk::default();
    // One row more than a full result, so the last (only) chunk comes
    // back short and the drain ends without an empty probe.
    let chunk_rows = shape.rows_per_query as usize + 1;
    move |q| {
        let i = (q % preps.len() as u64) as usize;
        db.execute_prepared_streaming(&mut preps[i], &mut scratch, |mut stream| {
            let mut rows = 0u64;
            loop {
                let n = stream.next_chunk_into(chunk_rows, &mut buf).unwrap();
                if n == 0 {
                    break;
                }
                stream.charge_into(buf.rows(), &mut charged);
                rows += n as u64;
                // A short chunk means the cursor is exhausted; skip the
                // empty re-probe the trailing `Ok(0)` round would cost.
                if n < chunk_rows {
                    break;
                }
            }
            rows
        })
        .unwrap()
    }
}

/// The one measured phase: `threads` workers start together on a
/// barrier and each issues `queries_per_thread` queries. `worker(tid)`
/// runs on the worker's own thread and returns its query closure — so
/// whatever it prepares (statements, recycled buffers) is built before
/// the clock starts and never crosses threads — which is handed the
/// query's sequence number and returns the rows it saw.
fn run<Q: FnMut(u64) -> u64>(
    threads: usize,
    shape: &ThroughputConfig,
    worker: impl Fn(u64) -> Q + Sync,
) -> ThroughputSample {
    let barrier = Barrier::new(threads + 1);
    let started = thread::scope(|s| {
        for tid in 0..threads as u64 {
            let (barrier, worker) = (&barrier, &worker);
            s.spawn(move || {
                let mut query = worker(tid);
                barrier.wait();
                let rows: u64 = (0..shape.queries_per_thread).map(&mut query).sum();
                assert_eq!(
                    rows,
                    shape.queries_per_thread * shape.rows_per_query,
                    "short result set"
                );
            });
        }
        barrier.wait();
        Instant::now()
    });
    let elapsed_secs = started.elapsed().as_secs_f64().max(1e-9);
    let queries = threads as u64 * shape.queries_per_thread;
    ThroughputSample {
        threads,
        queries,
        elapsed_secs,
        qps: queries as f64 / elapsed_secs,
        tuples_per_sec: (queries * shape.rows_per_query) as f64 / elapsed_secs,
    }
}

/// The `snapshot_sharded` series: range scans parsed up front (so what
/// is measured is execute + price + record, not SQL parsing) and drained
/// by `execute_stmt_with_deadline`.
pub fn run_adhoc(
    db: &GuardedDatabase,
    threads: usize,
    shape: &ThroughputConfig,
) -> ThroughputSample {
    run(threads, shape, |tid| {
        let stmts: Vec<Statement> = worker_sql(tid, shape)
            .iter()
            .map(|sql| parse(sql).unwrap())
            .collect();
        move |q| {
            let stmt = &stmts[(q % stmts.len() as u64) as usize];
            let resp = db.execute_stmt_with_deadline(stmt).expect("worker query");
            resp.tuple_delays.len() as u64
        }
    })
}

/// The `prepared_zero_copy` series: the allocation-free pipeline.
pub fn run_prepared(
    db: &GuardedDatabase,
    threads: usize,
    shape: &ThroughputConfig,
) -> ThroughputSample {
    run(threads, shape, |tid| prepared_worker(db, tid, shape))
}

/// Steady-state instrumentation of the prepared hot path.
#[derive(Debug, Clone, Copy)]
pub struct HotPathMeters {
    /// Queries in the measured span.
    pub queries: u64,
    /// Heap allocations per query (counting allocator delta / queries).
    pub allocs_per_query: f64,
    /// Payload bytes memcpy'd per row ([`copymeter`] delta / rows).
    pub bytes_copied_per_row: f64,
}

/// Measure `allocs_per_query` and `bytes_copied_per_row` over a
/// steady-state single-thread span of the prepared pipeline.
///
/// `alloc_probe` reads the calling thread's allocation counter — the
/// bench binaries pass their counting `#[global_allocator]`'s reader (the
/// library itself is `forbid(unsafe_code)` and cannot own the allocator).
/// A long warm-up first gets every recycled buffer to its high-water
/// mark, so the measured span sees only the allocations the pipeline
/// makes *per query*, not one-time growth.
pub fn measure_hot_path(
    db: &GuardedDatabase,
    shape: &ThroughputConfig,
    alloc_probe: &dyn Fn() -> u64,
) -> HotPathMeters {
    let mut query = prepared_worker(db, 0, shape);
    let (warmup, measured) = (256u64, 1024u64);
    for q in 0..warmup {
        query(q);
    }
    let allocs_before = alloc_probe();
    let copied_before = copymeter::read();
    let rows: u64 = (0..measured).map(&mut query).sum();
    let allocs = alloc_probe() - allocs_before;
    let copied = copymeter::read() - copied_before;
    HotPathMeters {
        queries: measured,
        allocs_per_query: allocs as f64 / measured as f64,
        bytes_copied_per_row: copied as f64 / rows.max(1) as f64,
    }
}

/// Shape of the `front_door_sessions` rows: due point `SELECT`s through
/// [`FrontDoor::handle_frame`].
#[derive(Debug, Clone, Copy)]
pub struct SessionsConfig {
    /// Table size; each query reads one uniformly drawn id.
    pub rows: u64,
    /// Queries each session issues in the measured phase.
    pub queries_per_session: u64,
}

/// Interval of the `front_door_sessions` refresher thread, in
/// milliseconds: the server's default snapshot refresh interval.
pub const SESSIONS_REFRESH_MS: u64 = 20;

impl Default for SessionsConfig {
    fn default() -> SessionsConfig {
        SessionsConfig {
            rows: 8192,
            queries_per_session: 200_000,
        }
    }
}

impl SessionsConfig {
    /// A fast variant for CI smoke runs.
    pub fn smoke() -> SessionsConfig {
        SessionsConfig {
            rows: 1024,
            queries_per_session: 2_000,
        }
    }
}

/// One measured `front_door_sessions` point.
#[derive(Debug, Clone, Copy)]
pub struct SessionsSample {
    /// Sessions issuing queries concurrently against one guard.
    pub sessions: usize,
    /// Whether every session's identity registered from one /24, so
    /// every admission charges one shared subnet bucket.
    pub shared_subnet: bool,
    /// Mean wall time one session spends per query, in nanoseconds.
    pub ns_per_query: f64,
    /// Queries per second, summed over the sessions.
    pub aggregate_qps: f64,
}

/// Grants every reservation and drops every frame, keeping the identity
/// `REGISTER` handed out.
#[derive(Default)]
struct DroppingSink {
    user: AtomicU64,
}

impl FrameSink for DroppingSink {
    fn push_control(&self, frame: Frame) {
        if let Frame::Registered { user, .. } = frame {
            self.user.store(user, Ordering::Relaxed);
        }
    }

    fn push_row(&self, _frame: Frame) {}

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

/// `sessions` sessions, each with its own identity (a `REGISTER` from its
/// own /24, or with `shared_subnet` all from one /24, as wirebench's
/// loopback clients are), issue due point `SELECT`s through
/// [`FrontDoor::handle_frame`] into dropping sinks, all against one
/// guard, while a refresher thread refreshes it every
/// [`SESSIONS_REFRESH_MS`]. The cap is zero, so every reply is due at
/// charge time and nothing waits on the (manual, never polled) wheel:
/// what is measured is the per-query CPU of admission, the prepared
/// read, pricing and encoding, and what sessions on one guard cost each
/// other. Frames are built before the clock starts.
pub fn front_door_sessions(
    sessions: usize,
    shared_subnet: bool,
    shape: &SessionsConfig,
) -> SessionsSample {
    let guard = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
        AccessDelayPolicy::new(1.5, 1.0).with_cap(0.0),
    ));
    let table = ThroughputConfig {
        rows: shape.rows,
        rows_per_query: 1,
        queries_per_thread: 0,
        warmup_queries: 0,
    };
    let db = Arc::new(seeded_db(guard, &table));
    let clock = db.clock();
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&clock),
    );
    let config = GateConfig {
        gatekeeper: GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            per_user_rate: 1e12,
            per_user_burst: 1e12,
            per_subnet_rate: 1e12,
            per_subnet_burst: 1e12,
            ..GatekeeperConfig::default()
        },
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(config, Arc::clone(&db), scheduler, clock, metrics, registry);
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(sessions + 1);
    let (started, busy_nanos) = thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(SESSIONS_REFRESH_MS));
                db.refresh();
            }
        });
        let workers: Vec<_> = (0..sessions as u8)
            .map(|sid| {
                let (gate, barrier) = (&gate, &barrier);
                s.spawn(move || {
                    let peer = if shared_subnet {
                        [10, 0, 0, 1 + sid]
                    } else {
                        [10, 0, sid, 1]
                    };
                    let sink = Arc::new(DroppingSink::default());
                    let session = SessionState::new();
                    let register = Frame::Register {
                        claimed_ip: [0; 4],
                        version: PROTOCOL_VERSION,
                    };
                    gate.handle_frame(register, peer, &session, &sink);
                    let user = sink.user.load(Ordering::Relaxed);
                    let mut rng = Rng::new(0xf00d + u64::from(sid));
                    let frames: Vec<Frame> = (0..shape.queries_per_session)
                        .map(|q| Frame::Query {
                            query_id: q as u32,
                            user,
                            sql: format!("SELECT * FROM t WHERE id = {}", rng.below(shape.rows)),
                        })
                        .collect();
                    barrier.wait();
                    let began = Instant::now();
                    for frame in frames {
                        gate.handle_frame(frame, peer, &session, &sink);
                    }
                    began.elapsed().as_nanos() as f64
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let busy: f64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        let elapsed = started.elapsed();
        stop.store(true, Ordering::Relaxed);
        (elapsed, busy)
    });
    let queries = sessions as u64 * shape.queries_per_session;
    assert_eq!(
        gate.metrics().queries_admitted.get(),
        queries,
        "every query was admitted"
    );
    SessionsSample {
        sessions,
        shared_subnet,
        ns_per_query: busy_nanos / queries as f64,
        aggregate_qps: queries as f64 / started.as_secs_f64().max(1e-9),
    }
}

/// The cost of one snapshot refresh after `changed` of `keys` tracked
/// keys changed.
#[derive(Debug, Clone, Copy)]
pub struct RebuildSample {
    /// Tracked keys in the table.
    pub keys: u64,
    /// Keys written since the previous refresh: a contiguous run that
    /// starts on a chunk boundary.
    pub changed: u64,
    /// Median refresh duration over the repetitions, in microseconds.
    pub refresh_us: f64,
    /// Most keys one refresh re-packed, over the repetitions.
    pub keys_repacked: u64,
    /// `changed` rounded up to whole chunks: what a refresh may re-pack.
    pub repack_bound: u64,
}

/// Popularity state held per tracked key, once `keys` are tracked.
#[derive(Debug, Clone, Copy)]
pub struct PopularityBytes {
    /// Tracked keys in the table.
    pub keys: u64,
    /// The access tracker's heap bytes per key (chunks, directory, rank
    /// index).
    pub tracker_per_key: f64,
    /// The packed delay table's heap bytes per key.
    pub packed_per_key: f64,
}

fn row_id(key: u64) -> delayguard_storage::RowId {
    delayguard_storage::RowId::new((key >> 16) as u32, key as u16)
}

/// Refresh cost against keys changed, on a guard tracking `keys` dense
/// keys under the access-rate policy: for each `k` in `changed`, `reps`
/// times, write `k` keys through `warm_accesses` (which refreshes) and
/// read the refresh's duration and keys re-packed from
/// `snapshot_stats`.
pub fn rebuild_costs(
    keys: u64,
    changed: &[u64],
    reps: usize,
) -> (Vec<RebuildSample>, PopularityBytes) {
    use delayguard_popularity::chunks::CHUNK_KEYS;
    let db = GuardedDatabase::new(snapshot_sharded_config());
    // Skewed but deterministic counts, so ranks spread over many buckets.
    let seed: Vec<_> = (0..keys)
        .map(|k| (row_id(k), (1 + k.wrapping_mul(0x9E37_79B1) % 1024) as f64))
        .collect();
    db.warm_accesses("t", &seed, 0.0);
    let bytes = {
        let snap = db.snapshot();
        let table = snap.table("t").expect("warmed table is published");
        let packed = table.packed_access.as_ref().expect("access-rate pack");
        PopularityBytes {
            keys,
            tracker_per_key: table.access.heap_bytes() as f64 / keys as f64,
            packed_per_key: packed.heap_bytes() as f64 / keys as f64,
        }
    };
    drop(seed);
    let chunk = CHUNK_KEYS as u64;
    let samples = changed
        .iter()
        .map(|&k| {
            let mut micros = Vec::with_capacity(reps);
            let mut repacked = 0;
            for rep in 0..reps as u64 {
                // A different aligned run each time, so no repetition
                // re-writes chunks the previous one just wrote.
                let lo = (rep * 7919 * chunk) % keys / chunk * chunk;
                let batch: Vec<_> = (0..k).map(|i| (row_id((lo + i) % keys), 1.0)).collect();
                db.warm_accesses("t", &batch, 0.0);
                let stats = db.snapshot_stats();
                micros.push(stats.last_rebuild_secs * 1e6);
                repacked = repacked.max(stats.last_keys_repacked);
            }
            micros.sort_by(f64::total_cmp);
            RebuildSample {
                keys,
                changed: k,
                refresh_us: micros[micros.len() / 2],
                keys_repacked: repacked,
                repack_bound: k.div_ceil(chunk) * chunk,
            }
        })
        .collect();
    (samples, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_the_sweep_shape() {
        let shape = ThroughputConfig {
            rows: 256,
            rows_per_query: 8,
            queries_per_thread: 50,
            warmup_queries: 50,
        };
        let db = seeded_db(snapshot_sharded_config(), &shape);
        let sample = run_adhoc(&db, 2, &shape);
        assert_eq!(sample.queries, 100);
        assert!(sample.qps > 0.0);
    }

    #[test]
    fn prepared_path_accounts_every_tuple() {
        let shape = ThroughputConfig {
            rows: 128,
            rows_per_query: 4,
            queries_per_thread: 25,
            warmup_queries: 10,
        };
        let db = seeded_db(snapshot_sharded_config(), &shape);
        let sample = run_prepared(&db, 2, &shape);
        assert_eq!(sample.queries, 50);
        db.refresh();
        let expected = (shape.warmup_queries + sample.queries) * shape.rows_per_query;
        assert_eq!(db.access_events("t"), expected);
    }

    #[test]
    fn hot_path_meters_report_finite_numbers() {
        let shape = ThroughputConfig {
            rows: 256,
            rows_per_query: 8,
            queries_per_thread: 50,
            warmup_queries: 50,
        };
        let db = seeded_db(snapshot_sharded_config(), &shape);
        // The test harness has no counting allocator; a constant probe
        // still exercises the measurement plumbing end to end.
        let meters = measure_hot_path(&db, &shape, &|| 0);
        assert_eq!(meters.queries, 1024);
        assert_eq!(meters.allocs_per_query, 0.0);
        assert!(
            meters.bytes_copied_per_row > 0.0,
            "rows decode through the copymeter"
        );
    }

    #[test]
    fn front_door_sessions_admit_and_time_every_query() {
        let shape = SessionsConfig {
            rows: 64,
            queries_per_session: 200,
        };
        for (sessions, shared_subnet) in [(1, false), (2, false), (2, true)] {
            let sample = front_door_sessions(sessions, shared_subnet, &shape);
            assert_eq!(sample.sessions, sessions);
            assert_eq!(sample.shared_subnet, shared_subnet);
            assert!(sample.ns_per_query > 0.0 && sample.aggregate_qps > 0.0);
        }
    }

    #[test]
    fn samples_account_every_tuple() {
        let shape = ThroughputConfig {
            rows: 128,
            rows_per_query: 4,
            queries_per_thread: 25,
            warmup_queries: 10,
        };
        let db = seeded_db(snapshot_sharded_config(), &shape);
        let sample = run_adhoc(&db, 4, &shape);
        db.refresh();
        // warmup + measured tuples all recorded, none lost.
        let expected = (shape.warmup_queries + sample.queries) * shape.rows_per_query;
        assert_eq!(db.access_events("t"), expected);
    }
}
