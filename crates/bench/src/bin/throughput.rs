//! Concurrent-throughput sweep: guarded-query qps at every power-of-two
//! thread count the host can actually run, through ad-hoc statements and
//! the prepared zero-copy pipeline. A full run writes
//! `BENCH_throughput.json` at the repo root (schema:
//! [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin throughput
//! cargo run -p delayguard-bench --release --bin throughput -- --smoke
//! ```
//!
//! `--smoke` runs a tiny shape for CI: it checks the harness end to end
//! and still enforces the allocation budget (allocation counts are exact,
//! not load-dependent), but does not enforce the timing gate (qps on
//! shared CI runners is noise; the acceptance numbers come from the full
//! run).

use delayguard_bench::report::{hardware_threads, Op::*, Report, Scope::*};
use delayguard_bench::throughput::{
    measure_hot_path, run_adhoc, run_prepared, seeded_db, snapshot_sharded_config,
    ThroughputConfig, ThroughputSample,
};
use delayguard_core::GuardedDatabase;
use std::process::ExitCode;

#[path = "../alloc_count.rs"]
mod alloc_count;

/// Committed pre-PR single-thread qps of the then-best path
/// (`snapshot_sharded`, ad-hoc statements through
/// `execute_stmt_with_deadline`), from `BENCH_throughput.json` as of the
/// streaming-executor PR. The zero-copy gate measures against this fixed
/// snapshot, so a regression in the new pipeline cannot hide behind a
/// faster machine re-measuring its own baseline.
const PRE_PR_SINGLE_THREAD_QPS: f64 = 51_798.19;
/// Full runs must beat the recorded baseline by at least this factor on
/// one thread. Single-thread speedup needs no hardware parallelism, so
/// it is enforced on every full run.
const SINGLE_THREAD_SPEEDUP_MIN: f64 = 3.0;
/// Steady-state allocations per query through the prepared pipeline.
/// Currently: one queue node for the recorded access event and one keys
/// vector inside it. Enforced even in smoke — counts are exact.
const ALLOCS_PER_QUERY_MAX: f64 = 2.0;

fn main() -> ExitCode {
    let mut report = Report::new("throughput");
    let shape = if report.smoke() {
        ThroughputConfig::smoke()
    } else {
        ThroughputConfig::default()
    };
    // Powers of two up to what the host can run at once: a row above
    // `hardware_threads` measures oversubscription, not scaling.
    let threads: Vec<usize> = std::iter::successors(Some(1), |t| Some(t * 2))
        .take_while(|&t| t <= hardware_threads())
        .collect();
    report
        .param("rows", shape.rows as f64)
        .param("rows_per_query", shape.rows_per_query as f64)
        .param("queries_per_thread", shape.queries_per_thread as f64)
        .param("warmup_queries", shape.warmup_queries as f64)
        .param("baseline_single_thread_qps", PRE_PR_SINGLE_THREAD_QPS);

    eprintln!(
        "concurrent throughput sweep: {} rows, {} rows/query, {} queries/thread, threads {threads:?}",
        shape.rows, shape.rows_per_query, shape.queries_per_thread
    );
    // Ad-hoc statements, then the allocation-free prepared pipeline.
    sweep(&mut report, "snapshot_sharded", &threads, &shape, run_adhoc);
    let prepared_1t_qps = sweep(
        &mut report,
        "prepared_zero_copy",
        &threads,
        &shape,
        run_prepared,
    );

    // Steady-state allocation and copy accounting on the measuring
    // thread, via the counting global allocator this binary installs.
    let db = seeded_db(snapshot_sharded_config(), &shape);
    let meters = measure_hot_path(&db, &shape, &alloc_count::count);
    let speedup = prepared_1t_qps / PRE_PR_SINGLE_THREAD_QPS;
    let allocs = meters.allocs_per_query;
    report
        .sample("allocs_per_query", allocs, "1/query")
        .sample("bytes_copied_per_row", meters.bytes_copied_per_row, "B/row")
        .sample("single_thread_speedup_vs_recorded_baseline", speedup, "x")
        .gate("allocs_per_query", allocs, Le, ALLOCS_PER_QUERY_MAX, Always)
        .gate(
            "single_thread_speedup_vs_recorded_baseline",
            speedup,
            Ge,
            SINGLE_THREAD_SPEEDUP_MIN,
            FullRun,
        )
        .finish()
}

/// Run `path` at each thread count — over a freshly seeded database per
/// point, so no run inherits another's learned state — and record the
/// series. Returns the single-thread qps (`threads` starts at 1).
fn sweep(
    report: &mut Report,
    series: &str,
    threads: &[usize],
    shape: &ThroughputConfig,
    path: fn(&GuardedDatabase, usize, &ThroughputConfig) -> ThroughputSample,
) -> f64 {
    eprintln!("-- {series} --");
    let samples: Vec<ThroughputSample> = threads
        .iter()
        .map(|&t| path(&seeded_db(snapshot_sharded_config(), shape), t, shape))
        .collect();
    for s in &samples {
        eprintln!(
            "  {:>2} threads: {:>10.0} qps ({:>12.0} tuples/s, {:.3}s)",
            s.threads, s.qps, s.tuples_per_sec, s.elapsed_secs
        );
    }
    report.rows(
        series,
        [
            "threads",
            "queries",
            "elapsed_secs",
            "qps",
            "tuples_per_sec",
        ],
        samples.iter().map(|s| {
            let (threads, queries) = (s.threads as f64, s.queries as f64);
            [threads, queries, s.elapsed_secs, s.qps, s.tuples_per_sec]
        }),
    );
    samples[0].qps
}
