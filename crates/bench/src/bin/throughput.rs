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
//! It also records what one snapshot refresh costs against the keys
//! changed since the previous one (`rebuild_costs`: refresh µs and keys
//! re-packed after k ∈ {1, 100, 10 000, n} changed keys at n ∈ {8 192,
//! 65 536, 1 048 576}) and the popularity bytes held per tracked key,
//! and due point queries through the server's front door, one session
//! against two on one guard, from two /24s and from one
//! (`front_door_sessions`).
//!
//! `--smoke` runs a tiny shape for CI: it checks the harness end to end
//! and still enforces the allocation budget and the re-pack bound (both
//! are exact counts, not load-dependent), but does not enforce the timing
//! gates (wall time on shared CI runners is noise; the acceptance numbers
//! come from the full run).

use delayguard_bench::report::{hardware_threads, Op::*, Report, Scope::*};
use delayguard_bench::throughput::{
    front_door_sessions, measure_hot_path, rebuild_costs, run_adhoc, run_prepared, seeded_db,
    snapshot_sharded_config, RebuildSample, SessionsConfig, SessionsSample, ThroughputConfig,
    ThroughputSample, SESSIONS_REFRESH_MS,
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
/// Currently, for these multi-row range scans: one queue node for the
/// recorded access event and one key vector inside it (a one-row chunk
/// carries its key inline and allocates only the node). Enforced even in
/// smoke — counts are exact.
const ALLOCS_PER_QUERY_MAX: f64 = 2.0;
/// Table sizes of the rebuild-cost rows.
const REBUILD_KEYS: [u64; 3] = [8_192, 65_536, 1 << 20];
/// Changed-key counts below `n` (`n` itself is always measured too).
const REBUILD_CHANGED: [u64; 3] = [1, 100, 10_000];
/// Bound on one refresh of a 1 048 576-key table after 100 keys changed,
/// in microseconds: about five times the ~190 µs the first full run
/// measured on a 2-vCPU host (DESIGN.md §8).
const REFRESH_US_1M_KEYS_100_CHANGED_MAX: f64 = 1_000.0;

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

    // Due point queries through the front door: one session, then two
    // on one guard from their own /24s, then two from one /24 (sharing
    // its subnet bucket). The three shapes take turns, `reps` rounds, so
    // a slow phase of the host falls on all of them; each point is the
    // median of its runs by aggregate q/s.
    let sessions_shape = if report.smoke() {
        SessionsConfig::smoke()
    } else {
        SessionsConfig::default()
    };
    eprintln!(
        "-- front_door_sessions: {} rows, {} queries/session, refresher every {} ms --",
        sessions_shape.rows, sessions_shape.queries_per_session, SESSIONS_REFRESH_MS
    );
    let shapes = [(1, false), (2, false), (2, true)];
    let reps = if report.smoke() { 1 } else { 5 };
    let mut runs: Vec<Vec<SessionsSample>> = vec![Vec::new(); shapes.len()];
    for _ in 0..reps {
        for (runs, &(n, shared_subnet)) in runs.iter_mut().zip(&shapes) {
            runs.push(front_door_sessions(n, shared_subnet, &sessions_shape));
        }
    }
    let sessions: Vec<SessionsSample> = runs
        .into_iter()
        .map(|mut runs| {
            runs.sort_by(|a, b| a.aggregate_qps.total_cmp(&b.aggregate_qps));
            let s = runs[runs.len() / 2];
            let subnets = if s.shared_subnet {
                "one /24"
            } else {
                "own /24s"
            };
            eprintln!(
                "  {} session(s), {subnets}: {:>7.0} ns/query each, {:>9.0} q/s together",
                s.sessions, s.ns_per_query, s.aggregate_qps
            );
            s
        })
        .collect();
    report.param("sessions_rows", sessions_shape.rows as f64);
    report.param(
        "sessions_queries_per_session",
        sessions_shape.queries_per_session as f64,
    );
    report.param("sessions_refresh_ms", SESSIONS_REFRESH_MS as f64);
    report.rows(
        "front_door_sessions",
        ["sessions", "shared_subnet", "ns_per_query", "aggregate_qps"],
        sessions.iter().map(|s| {
            let shared = f64::from(u8::from(s.shared_subnet));
            [s.sessions as f64, shared, s.ns_per_query, s.aggregate_qps]
        }),
    );
    let two_over_one = sessions[1].aggregate_qps / sessions[0].aggregate_qps;
    report.sample("front_door_two_sessions_over_one", two_over_one, "x");
    let one_subnet_over_one = sessions[2].aggregate_qps / sessions[0].aggregate_qps;
    report.sample(
        "front_door_two_sessions_one_subnet_over_one",
        one_subnet_over_one,
        "x",
    );

    // Steady-state allocation and copy accounting on the measuring
    // thread, via the counting global allocator this binary installs.
    let db = seeded_db(snapshot_sharded_config(), &shape);
    let meters = measure_hot_path(&db, &shape, &alloc_count::count);
    let speedup = prepared_1t_qps / PRE_PR_SINGLE_THREAD_QPS;
    let allocs = meters.allocs_per_query;
    let reps = if report.smoke() { 3 } else { 7 };
    let mut rebuilds: Vec<RebuildSample> = Vec::new();
    let mut bytes = Vec::new();
    for n in REBUILD_KEYS {
        let changed: Vec<u64> = REBUILD_CHANGED
            .iter()
            .copied()
            .filter(|&k| k < n)
            .chain([n])
            .collect();
        let (samples, per_key) = rebuild_costs(n, &changed, reps);
        for s in &samples {
            eprintln!(
                "  refresh, {:>7} keys, {:>7} changed: {:>10.1} us, {:>7} keys re-packed (bound {})",
                s.keys, s.changed, s.refresh_us, s.keys_repacked, s.repack_bound
            );
        }
        rebuilds.extend(samples);
        bytes.push(per_key);
    }
    report.rows(
        "rebuild_costs",
        [
            "keys",
            "changed",
            "refresh_us",
            "keys_repacked",
            "repack_bound",
        ],
        rebuilds.iter().map(|s| {
            [
                s.keys as f64,
                s.changed as f64,
                s.refresh_us,
                s.keys_repacked as f64,
                s.repack_bound as f64,
            ]
        }),
    );
    report.rows(
        "popularity_bytes_per_key",
        ["keys", "tracker", "packed"],
        bytes
            .iter()
            .map(|b| [b.keys as f64, b.tracker_per_key, b.packed_per_key]),
    );
    let over_bound = rebuilds
        .iter()
        .map(|s| s.keys_repacked as f64 - s.repack_bound as f64)
        .fold(f64::NEG_INFINITY, f64::max);
    let refresh_1m_100 = rebuilds
        .iter()
        .find(|s| s.keys == 1 << 20 && s.changed == 100)
        .map_or(f64::NAN, |s| s.refresh_us);

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
        .gate(
            "rebuild_keys_repacked_over_bound",
            over_bound,
            Le,
            0.0,
            Always,
        )
        .gate(
            "refresh_us_1m_keys_100_changed",
            refresh_1m_100,
            Le,
            REFRESH_US_1M_KEYS_100_CHANGED_MAX,
            FullRun,
        );
    // Two sessions on one guard must get at least as much done as one,
    // also when their identities share one /24's bucket; on a single
    // hardware thread they can only take turns.
    if hardware_threads() >= 2 {
        report
            .gate(
                "front_door_two_sessions_over_one",
                two_over_one,
                Ge,
                1.0,
                FullRun,
            )
            .gate(
                "front_door_two_sessions_one_subnet_over_one",
                one_subnet_over_one,
                Ge,
                1.0,
                FullRun,
            );
    }
    report.finish()
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
