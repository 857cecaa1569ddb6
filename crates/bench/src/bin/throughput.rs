//! Concurrent-throughput sweep runner: measures guarded-query qps at
//! 1/2/4/8 threads through ad-hoc statements and the prepared zero-copy
//! pipeline, and writes `BENCH_throughput.json` at the repo root.
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin throughput
//! cargo run -p delayguard-bench --release --bin throughput -- --smoke
//! ```
//!
//! `--smoke` runs a tiny shape for CI: it checks the harness end to end
//! and still enforces the allocation budget (allocation counts are exact,
//! not load-dependent), but skips the timing gates (qps on shared CI
//! runners is noise; the acceptance numbers come from the full run).

use delayguard_bench::throughput::{
    measure_hot_path, seeded_db, snapshot_sharded_config, sweep, sweep_prepared, HotPathMeters,
    ThroughputConfig, ThroughputSample,
};
use std::path::PathBuf;

#[path = "../alloc_count.rs"]
mod alloc_count;

const THREADS: &[usize] = &[1, 2, 4, 8];

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

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shape = if smoke {
        ThroughputConfig::smoke()
    } else {
        ThroughputConfig::default()
    };
    let hardware_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    eprintln!(
        "concurrent throughput sweep: {} rows, {} rows/query, {} queries/thread, \
         {hardware_threads} hardware threads{}",
        shape.rows,
        shape.rows_per_query,
        shape.queries_per_thread,
        if smoke { " (smoke)" } else { "" }
    );

    eprintln!("-- snapshot_sharded (ad-hoc statements) --");
    let snapshot = sweep(snapshot_sharded_config(), &shape, THREADS);
    print_samples(&snapshot);
    eprintln!("-- prepared_zero_copy (allocation-free hot path) --");
    let prepared = sweep_prepared(snapshot_sharded_config(), &shape, THREADS);
    print_samples(&prepared);

    let prepared_1t = prepared
        .iter()
        .find(|s| s.threads == 1)
        .expect("single-thread sample");
    let single_thread_speedup = prepared_1t.qps / PRE_PR_SINGLE_THREAD_QPS;
    eprintln!(
        "zero-copy single-thread: {:.0} qps, {single_thread_speedup:.2}x the recorded \
         {PRE_PR_SINGLE_THREAD_QPS:.0} qps baseline (gate: >= {SINGLE_THREAD_SPEEDUP_MIN}x{})",
        prepared_1t.qps,
        if smoke { ", not enforced in smoke" } else { "" }
    );

    // Steady-state allocation and copy accounting on the measuring
    // thread, via the counting global allocator this binary installs.
    let meters = {
        let db = seeded_db(snapshot_sharded_config(), &shape);
        measure_hot_path(&db, &shape, &alloc_count::count)
    };
    eprintln!(
        "hot path: {:.3} allocs/query (budget {ALLOCS_PER_QUERY_MAX}), \
         {:.1} bytes copied/row",
        meters.allocs_per_query, meters.bytes_copied_per_row
    );

    let path = output_path();
    std::fs::write(
        &path,
        render_json(
            &shape,
            &snapshot,
            &prepared,
            &meters,
            single_thread_speedup,
            hardware_threads,
            smoke,
        ),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    // Allocation counts are exact and machine-independent: enforced on
    // every run, smoke included.
    if meters.allocs_per_query > ALLOCS_PER_QUERY_MAX {
        eprintln!(
            "FAIL: hot path allocates {:.3} per query, budget is {ALLOCS_PER_QUERY_MAX}",
            meters.allocs_per_query
        );
        std::process::exit(1);
    }
    // The single-thread zero-copy gate needs no parallelism: enforced on
    // every full run regardless of hardware_threads.
    if !smoke && single_thread_speedup < SINGLE_THREAD_SPEEDUP_MIN {
        eprintln!(
            "FAIL: zero-copy path is {single_thread_speedup:.2}x the recorded single-thread \
             baseline, need >= {SINGLE_THREAD_SPEEDUP_MIN}x"
        );
        std::process::exit(1);
    }
}

fn print_samples(samples: &[ThroughputSample]) {
    for s in samples {
        eprintln!(
            "  {:>2} threads: {:>10.0} qps ({:>12.0} tuples/s, {:.3}s)",
            s.threads, s.qps, s.tuples_per_sec, s.elapsed_secs
        );
    }
}

/// `BENCH_throughput.json` at the repository root (two levels above this
/// crate's manifest).
fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_throughput.json")
}

fn render_json(
    shape: &ThroughputConfig,
    snapshot: &[ThroughputSample],
    prepared: &[ThroughputSample],
    meters: &HotPathMeters,
    single_thread_speedup: f64,
    hardware_threads: usize,
    smoke: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"concurrent_throughput\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"hardware_threads\": {hardware_threads},\n"));
    out.push_str("  \"workload\": {\n");
    out.push_str(&format!("    \"rows\": {},\n", shape.rows));
    out.push_str(&format!(
        "    \"rows_per_query\": {},\n",
        shape.rows_per_query
    ));
    out.push_str(&format!(
        "    \"queries_per_thread\": {},\n",
        shape.queries_per_thread
    ));
    out.push_str(&format!(
        "    \"warmup_queries\": {}\n",
        shape.warmup_queries
    ));
    out.push_str("  },\n");
    out.push_str("  \"results\": {\n");
    out.push_str(&format!(
        "    \"snapshot_sharded\": {},\n",
        samples_json(snapshot)
    ));
    out.push_str(&format!(
        "    \"prepared_zero_copy\": {}\n",
        samples_json(prepared)
    ));
    out.push_str("  },\n");
    out.push_str("  \"hot_path\": {\n");
    out.push_str(&format!(
        "    \"allocs_per_query\": {:.4},\n",
        meters.allocs_per_query
    ));
    out.push_str(&format!(
        "    \"bytes_copied_per_row\": {:.2},\n",
        meters.bytes_copied_per_row
    ));
    out.push_str(&format!(
        "    \"single_thread_speedup_vs_recorded_baseline\": {single_thread_speedup:.4}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"budget\": {\n");
    out.push_str(&format!(
        "    \"allocs_per_query_max\": {ALLOCS_PER_QUERY_MAX},\n"
    ));
    out.push_str(&format!(
        "    \"single_thread_speedup_min\": {SINGLE_THREAD_SPEEDUP_MIN},\n"
    ));
    out.push_str(&format!(
        "    \"baseline_single_thread_qps\": {PRE_PR_SINGLE_THREAD_QPS}\n"
    ));
    out.push_str("  },\n");
    out.push_str(
        "  \"acceptance\": \"prepared_zero_copy single-thread qps >= 3x the recorded pre-PR \
         baseline and allocs_per_query <= budget (both enforced on every full run; the \
         allocation budget also holds in smoke); the 2/4/8-thread rows are recorded beside \
         hardware_threads and carry no gate\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}

fn samples_json(samples: &[ThroughputSample]) -> String {
    let entries: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "      {{\"threads\": {}, \"queries\": {}, \"elapsed_secs\": {:.6}, \"qps\": {:.2}, \"tuples_per_sec\": {:.2}}}",
                s.threads, s.queries, s.elapsed_secs, s.qps, s.tuples_per_sec
            )
        })
        .collect();
    format!("[\n{}\n    ]", entries.join(",\n"))
}
