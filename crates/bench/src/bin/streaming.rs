//! Streaming-pipeline bench: first-row latency and peak buffered rows,
//! materialized (`execute_with_deadline`) vs streaming
//! (`execute_stmt_streaming` pulled in 256-row chunks), at 1k / 100k / 1M-row
//! scans. Writes `BENCH_streaming.json` at the repo root.
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin streaming
//! cargo run -p delayguard-bench --release --bin streaming -- --smoke
//! ```
//!
//! The point of the streaming executor is that result-set memory and
//! time-to-first-tuple stop scaling with the scan: the materialized path
//! buffers all `n` rows before the first can be priced, the streaming
//! path never holds more than one chunk. `--smoke` runs small shapes for
//! CI; the latency gate (first row of the largest scan within 2x of a
//! one-row query) is enforced only on the full run.

use delayguard_bench::throughput::{measure_hot_path, HotPathMeters, ThroughputConfig};
use delayguard_core::{ChargedChunk, GuardConfig, GuardedDatabase, StreamedQuery};
use delayguard_query::{parse, RowBuf};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

#[path = "../alloc_count.rs"]
mod alloc_count;

/// Matches `ServerConfig::stream_chunk_rows`'s default.
const CHUNK_ROWS: usize = 256;
/// Timing repetitions; the minimum is reported.
const REPS: usize = 5;
/// Steady-state allocation budget for one prepared query on the zero-copy
/// path (one access-event queue node plus its key vector per chunk).
const ALLOCS_PER_QUERY_MAX: f64 = 2.0;

#[derive(Debug, Clone, Copy)]
struct Sample {
    rows: u64,
    /// Seconds until the first row was priced and available to schedule.
    first_row_secs: f64,
    /// Seconds to drain the whole result.
    total_secs: f64,
    /// Largest number of result rows buffered at once.
    peak_buffered_rows: u64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scans: &[u64] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let largest = *scans.last().unwrap();

    eprintln!(
        "streaming pipeline bench: scans {scans:?}, chunk {CHUNK_ROWS} rows{}",
        if smoke { " (smoke)" } else { "" }
    );

    // One database per scan size, fully scanned: first-row latency must
    // not scale with the table. The point-query baseline runs against the
    // largest table.
    let point_sql = "SELECT * FROM t WHERE id = 0";
    let mut point = None;
    let mut materialized = Vec::new();
    let mut streaming = Vec::new();
    for &rows in scans {
        let db = seeded_db(rows);
        let m = best_of(REPS, || run_materialized(&db, "SELECT * FROM t"));
        // One full drain validates the count and the chunk-bounded peak
        // buffer; the first-row metric then comes from reps that drop the
        // stream after the first tuple, so the latency measured is the
        // pipeline's open-plus-one-row cost, not the cache wreckage a
        // prior full drain leaves behind.
        let mut s = run_streaming(&db, "SELECT * FROM t", CHUNK_ROWS, false);
        s.first_row_secs = best_of(REPS, || {
            run_streaming(&db, "SELECT * FROM t", CHUNK_ROWS, true)
        })
        .first_row_secs;
        assert_eq!(m.rows, rows, "materialized scan returned {} rows", m.rows);
        assert_eq!(s.rows, rows, "streaming scan returned {} rows", s.rows);
        eprintln!(
            "  {rows:>9} rows: first row {:>10.1}us materialized / {:>8.1}us streaming, \
             peak buffer {:>9} / {:>4}",
            m.first_row_secs * 1e6,
            s.first_row_secs * 1e6,
            m.peak_buffered_rows,
            s.peak_buffered_rows
        );
        materialized.push(m);
        streaming.push(s);
        if rows == largest {
            point = Some(best_of(REPS, || {
                run_streaming(&db, point_sql, CHUNK_ROWS, true)
            }));
        }
    }
    let point = point.unwrap();
    eprintln!(
        "  point query ({largest}-row table): first row {:.1}us",
        point.first_row_secs * 1e6
    );

    // The memory bound is structural, not statistical: enforce it always.
    for s in &streaming {
        assert!(
            s.peak_buffered_rows <= CHUNK_ROWS as u64,
            "streaming buffered {} rows, chunk is {CHUNK_ROWS}",
            s.peak_buffered_rows
        );
    }

    let largest_first_row = streaming.last().unwrap().first_row_secs;
    let ratio = largest_first_row / point.first_row_secs.max(1e-12);
    eprintln!(
        "  first-row latency, {largest}-row scan vs point query: {ratio:.2}x (gate: <= 2x{})",
        if smoke { ", not enforced in smoke" } else { "" }
    );

    // Memory discipline on the streaming hot path: the same prepared
    // drain loop the server runs, metered by the counting allocator and
    // the codec copymeter.
    let hot_shape = ThroughputConfig {
        rows: 8192,
        rows_per_query: 32,
        queries_per_thread: 0,
        warmup_queries: 0,
    };
    let hot_db = Arc::new(seeded_db(hot_shape.rows));
    let meters = measure_hot_path(&hot_db, &hot_shape, &alloc_count::count);
    eprintln!(
        "  hot path: {:.3} allocs/query (budget {ALLOCS_PER_QUERY_MAX}), \
         {:.1} bytes copied/row",
        meters.allocs_per_query, meters.bytes_copied_per_row
    );

    let path = output_path();
    std::fs::write(
        &path,
        render_json(smoke, &point, &materialized, &streaming, ratio, &meters),
    )
    .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());

    // The allocation budget is structural too: enforced even in smoke.
    if meters.allocs_per_query > ALLOCS_PER_QUERY_MAX {
        eprintln!(
            "FAIL: {:.3} allocs/query on the streaming hot path, budget is \
             {ALLOCS_PER_QUERY_MAX}",
            meters.allocs_per_query
        );
        std::process::exit(1);
    }

    if !smoke && ratio > 2.0 {
        eprintln!(
            "FAIL: first row of the {largest}-row streaming scan took {ratio:.2}x a point query"
        );
        std::process::exit(1);
    }
}

fn seeded_db(rows: u64) -> GuardedDatabase {
    let db = GuardedDatabase::new(GuardConfig::paper_default());
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    let mut i = 0;
    while i < rows {
        let end = (i + 256).min(rows);
        let values: Vec<String> = (i..end).map(|k| format!("({k}, 'row-{k}')")).collect();
        db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0)
            .unwrap();
        i = end;
    }
    db.refresh();
    db
}

fn best_of(reps: usize, mut run: impl FnMut() -> Sample) -> Sample {
    let mut best = run();
    for _ in 1..reps {
        let s = run();
        if s.first_row_secs < best.first_row_secs {
            best = s;
        }
    }
    best
}

/// The pre-streaming shape: the whole result set is executed, buffered,
/// and priced before any row could be released.
fn run_materialized(db: &GuardedDatabase, sql: &str) -> Sample {
    let started = Instant::now();
    let resp = db.execute_with_deadline(sql).unwrap();
    let total_secs = started.elapsed().as_secs_f64();
    let rows = resp.tuple_delays.len() as u64;
    Sample {
        rows,
        // No row exists until the full drain finishes.
        first_row_secs: total_secs,
        total_secs,
        peak_buffered_rows: rows,
    }
}

fn run_streaming(
    db: &GuardedDatabase,
    sql: &str,
    chunk_rows: usize,
    first_row_only: bool,
) -> Sample {
    let started = Instant::now();
    let stmt = parse(sql).unwrap();
    db.execute_stmt_streaming(&stmt, |query| match query {
        StreamedQuery::Rows(mut stream) => {
            let (mut buf, mut charged) = (RowBuf::new(), ChargedChunk::default());
            let mut first_row_secs = 0.0;
            let mut rows = 0u64;
            let mut peak = 0u64;
            // Time-to-first-tuple is the pipeline's latency floor, so the
            // first pull asks for a single row; the drain then continues
            // in server-sized chunks.
            let mut next = 1;
            loop {
                let n = stream.next_chunk_into(next, &mut buf).unwrap() as u64;
                if n == 0 {
                    break;
                }
                next = chunk_rows;
                stream.charge_into(buf.rows(), &mut charged);
                if rows == 0 {
                    first_row_secs = started.elapsed().as_secs_f64();
                }
                rows += n;
                peak = peak.max(n);
                // The buffer is recycled by the next pull, as it is after
                // a chunk's deadlines are handed to the scheduler.
                if first_row_only {
                    break;
                }
            }
            Sample {
                rows,
                first_row_secs,
                total_secs: started.elapsed().as_secs_f64(),
                peak_buffered_rows: peak,
            }
        }
        StreamedQuery::Finished(_) => panic!("expected a SELECT"),
    })
    .unwrap()
}

/// `BENCH_streaming.json` at the repository root.
fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_streaming.json")
}

fn render_json(
    smoke: bool,
    point: &Sample,
    materialized: &[Sample],
    streaming: &[Sample],
    ratio: f64,
    meters: &HotPathMeters,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"streaming_pipeline\",\n");
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    out.push_str(&format!("  \"chunk_rows\": {CHUNK_ROWS},\n"));
    out.push_str(&format!(
        "  \"point_query_first_row_secs\": {:.9},\n",
        point.first_row_secs
    ));
    out.push_str(&format!(
        "  \"materialized\": {},\n",
        samples_json(materialized)
    ));
    out.push_str(&format!("  \"streaming\": {},\n", samples_json(streaming)));
    out.push_str(&format!(
        "  \"largest_scan_first_row_over_point_query\": {ratio:.4},\n"
    ));
    out.push_str(&format!(
        "  \"hot_path\": {{\"allocs_per_query\": {:.3}, \"bytes_copied_per_row\": {:.3}}},\n",
        meters.allocs_per_query, meters.bytes_copied_per_row
    ));
    out.push_str(&format!(
        "  \"budget\": {{\"allocs_per_query_max\": {ALLOCS_PER_QUERY_MAX:.1}}},\n"
    ));
    out.push_str(
        "  \"acceptance\": \"streaming peak_buffered_rows <= chunk_rows at every scan size \
         (always enforced); allocs_per_query <= budget on the prepared drain loop (always \
         enforced); first row of the largest scan within 2x of a one-row query (enforced on \
         the full run)\"\n",
    );
    out.push('}');
    out.push('\n');
    out
}

fn samples_json(samples: &[Sample]) -> String {
    let entries: Vec<String> = samples
        .iter()
        .map(|s| {
            format!(
                "    {{\"rows\": {}, \"first_row_secs\": {:.9}, \"total_secs\": {:.9}, \
                 \"peak_buffered_rows\": {}}}",
                s.rows, s.first_row_secs, s.total_secs, s.peak_buffered_rows
            )
        })
        .collect();
    format!("[\n{}\n  ]", entries.join(",\n"))
}
