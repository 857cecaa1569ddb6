//! Streaming-pipeline bench: first-row latency and peak buffered rows,
//! materialized (`execute_with_deadline`) vs streaming
//! (`execute_stmt_streaming` pulled in 256-row chunks), at 1k / 100k / 1M-row
//! scans. A full run writes `BENCH_streaming.json` at the repo root
//! (schema: [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin streaming
//! cargo run -p delayguard-bench --release --bin streaming -- --smoke
//! ```
//!
//! The point of the streaming executor is that result-set memory and
//! time-to-first-tuple stop scaling with the scan: the materialized path
//! buffers all `n` rows before the first can be priced, the streaming
//! path never holds more than one chunk (gated on every run). `--smoke`
//! runs small shapes for CI; the latency gate (first row of the largest
//! scan within 2x of a one-row query) is enforced only on the full run.
//! The prepared drain loop's allocation budget is measured and gated
//! once, by the `throughput` bin.

use delayguard_bench::report::{Op::*, Report, Scope::*};
use delayguard_bench::throughput::{seeded_db, ThroughputConfig};
use delayguard_core::{ChargedChunk, GuardConfig, GuardedDatabase, StreamedQuery};
use delayguard_query::{parse, RowBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Matches `ServerConfig::stream_chunk_rows`'s default.
const CHUNK_ROWS: usize = 256;
/// Timing repetitions; the minimum is reported.
const REPS: usize = 5;

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

fn main() -> ExitCode {
    let mut report = Report::new("streaming");
    let scans: &[u64] = if report.smoke() {
        &[1_000, 10_000]
    } else {
        &[1_000, 100_000, 1_000_000]
    };
    let largest = *scans.last().unwrap();
    report.param("chunk_rows", CHUNK_ROWS as f64);

    eprintln!("streaming pipeline bench: scans {scans:?}, chunk {CHUNK_ROWS} rows");

    // One database per scan size, fully scanned: first-row latency must
    // not scale with the table. The point-query baseline runs against the
    // largest table.
    let point_sql = "SELECT * FROM t WHERE id = 0";
    let mut point = None;
    let mut materialized = Vec::new();
    let mut streaming = Vec::new();
    for &rows in scans {
        // No warm-up traffic: every tuple prices at the start-up cap,
        // which costs the pipeline the same work as a learned price.
        let shape = ThroughputConfig {
            rows,
            warmup_queries: 0,
            ..ThroughputConfig::default()
        };
        let db = seeded_db(GuardConfig::paper_default(), &shape);
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
    let ratio = streaming.last().unwrap().first_row_secs / point.first_row_secs.max(1e-12);
    let peak = streaming
        .iter()
        .map(|s| s.peak_buffered_rows)
        .max()
        .unwrap();

    let columns = ["rows", "first_row_secs", "total_secs", "peak_buffered_rows"];
    let row = |s: &Sample| {
        let (rows, peak) = (s.rows as f64, s.peak_buffered_rows as f64);
        [rows, s.first_row_secs, s.total_secs, peak]
    };
    report
        .sample("point_query_first_row_secs", point.first_row_secs, "s")
        .rows("materialized", columns, materialized.iter().map(row))
        .rows("streaming", columns, streaming.iter().map(row))
        .sample("largest_scan_first_row_over_point_query", ratio, "x")
        // The memory bound is structural, not statistical: always enforced.
        .gate(
            "peak_buffered_rows",
            peak as f64,
            Le,
            CHUNK_ROWS as f64,
            Always,
        )
        .gate(
            "largest_scan_first_row_over_point_query",
            ratio,
            Le,
            2.0,
            FullRun,
        )
        .finish()
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
