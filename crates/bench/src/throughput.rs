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

use delayguard_core::{
    AccessDelayPolicy, ChargedChunk, GuardConfig, GuardPolicy, GuardedDatabase, PreparedQuery,
};
use delayguard_query::ast::Statement;
use delayguard_query::{parse, ExecScratch, RowBuf};
use delayguard_storage::copymeter;
use delayguard_workload::Rng;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

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
            queries_per_thread: 2_000,
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
    let mut preps: Vec<PreparedQuery> = worker_sql(tid, shape)
        .iter()
        .map(|sql| db.prepare(sql).unwrap())
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
