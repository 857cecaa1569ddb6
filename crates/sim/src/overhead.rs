//! Implementation-overhead measurement (paper §4.4, Table 5).
//!
//! The paper poses 100 random single-tuple selection queries and compares
//! the average cost without count maintenance / delay computation against
//! the cost with them. This module reproduces that methodology against the
//! embedded engine: the *baseline* runs plain SQL through
//! [`delayguard_query::Engine`]; the *guarded* run goes through
//! [`delayguard_core::GuardedDatabase::execute_at`], which additionally
//! maintains per-tuple counts, updates order statistics, and computes the
//! Eq. 1 delay (the delay itself is accounted, not slept — Table 5
//! measures mechanism cost, not the imposed wait).
//!
//! Both arms prepare through a [`StatementCache`] — the guard through its
//! own, the baseline through one over the bare engine — and materialize
//! the result the same way, so the difference is only the guard's work.

use crate::metrics::OnlineStats;
use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::{
    Engine, Prepared, SelectOutput, StatementCache, StatementKind, StreamedStatement,
};
use delayguard_workload::Rng;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of an overhead run.
#[derive(Debug, Clone, Copy)]
pub struct OverheadConfig {
    /// Rows in the table.
    pub rows: u64,
    /// Number of measured selection queries.
    pub queries: u64,
    /// Warm-up queries before measurement starts.
    pub warmup: u64,
    /// RNG seed for query targets.
    pub seed: u64,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            rows: 10_000,
            // The paper poses 100 random selections; its base query cost
            // was ~55 ms on a 2004 commercial DBMS. Ours is microseconds,
            // so we take more samples for a stable mean.
            queries: 5_000,
            warmup: 500,
            seed: 0x0CEA11,
        }
    }
}

/// Result: per-query latency statistics for both configurations.
#[derive(Debug, Clone)]
pub struct OverheadReport {
    /// Plain engine cost (Table 5 "Base query cost").
    pub base: OnlineStats,
    /// Guarded cost (Table 5 "Total cost").
    pub guarded: OnlineStats,
}

impl OverheadReport {
    /// Mean added cost per query, seconds.
    pub fn overhead_secs(&self) -> f64 {
        self.guarded.mean() - self.base.mean()
    }

    /// Overhead as a fraction of the base cost.
    pub fn overhead_fraction(&self) -> f64 {
        if self.base.mean() <= 0.0 {
            0.0
        } else {
            self.overhead_secs() / self.base.mean()
        }
    }
}

fn build_engine(rows: u64) -> Engine {
    let engine = Engine::new();
    engine
        .execute("CREATE TABLE records (id INT NOT NULL, payload TEXT NOT NULL)")
        .expect("create table");
    engine
        .execute("CREATE UNIQUE INDEX records_pk ON records (id)")
        .expect("create index");
    // Batch inserts for setup speed.
    let mut batch = String::new();
    for id in 0..rows {
        if batch.is_empty() {
            batch.push_str("INSERT INTO records VALUES ");
        } else {
            batch.push(',');
        }
        batch.push_str(&format!("({id}, 'payload-{id}')"));
        if batch.len() > 60_000 || id == rows - 1 {
            engine.execute(&batch).expect("insert batch");
            batch.clear();
        }
    }
    engine
}

/// The baseline arm: `sql` prepared through `statements` over the bare
/// engine and materialized as `execute_at` materializes a SELECT.
fn base_query(engine: &Engine, statements: &mut StatementCache, sql: &str) -> SelectOutput {
    let Ok(Prepared::Select(prep, scratch)) =
        statements.prepare(engine, sql, StatementKind::Select).1
    else {
        panic!("the baseline runs SELECTs: {sql}");
    };
    engine
        .execute_prepared_streaming(prep, scratch, |streamed| {
            let StreamedStatement::Rows(cursor) = streamed else {
                unreachable!("a prepared statement is a SELECT");
            };
            let mut rows = Vec::new();
            while let Some(row) = cursor.next_row().expect("row") {
                rows.push(row);
            }
            SelectOutput {
                columns: Arc::clone(cursor.columns()),
                rows,
            }
        })
        .expect("query")
}

/// Run the Table 5 methodology.
///
/// Base and guarded queries are *interleaved* over the same id sequence:
/// with microsecond-scale query costs, two sequential measurement phases
/// would let cache/frequency drift swamp the guard's overhead.
pub fn measure_overhead(config: &OverheadConfig) -> OverheadReport {
    let mut blocks = measure_blocks(config, 1);
    blocks.pop().expect("one block")
}

/// [`measure_overhead`], with the measured queries split into `blocks`
/// consecutive blocks of (nearly) equal size, one report each.
fn measure_blocks(config: &OverheadConfig, blocks: usize) -> Vec<OverheadReport> {
    let engine = build_engine(config.rows);
    let guarded_db =
        GuardedDatabase::with_engine(build_engine(config.rows), GuardConfig::paper_default());
    let mut statements = StatementCache::new();
    let mut rng = Rng::new(config.seed);
    let mut reports = vec![
        OverheadReport {
            base: OnlineStats::new(),
            guarded: OnlineStats::new(),
        };
        blocks
    ];
    for i in 0..config.warmup + config.queries {
        let id = rng.below(config.rows);
        let sql = format!("SELECT * FROM records WHERE id = {id}");

        let start = Instant::now();
        let out = base_query(&engine, &mut statements, &sql);
        let dt_base = start.elapsed().as_secs_f64();
        assert_eq!(out.len(), 1, "each selection returns exactly one tuple");

        let start = Instant::now();
        let resp = guarded_db
            .execute_at(&sql, i as f64)
            .expect("guarded query");
        let dt_guarded = start.elapsed().as_secs_f64();
        assert_eq!(resp.tuples_charged, 1);

        if i >= config.warmup {
            let block = (i - config.warmup) * blocks as u64 / config.queries;
            let report = &mut reports[block as usize];
            report.base.push(dt_base);
            report.guarded.push(dt_guarded);
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::median_of;

    #[test]
    fn overhead_is_measurable_and_modest() {
        let blocks = measure_blocks(
            &OverheadConfig {
                rows: 2_000,
                queries: 200,
                warmup: 50,
                seed: 1,
            },
            9,
        );
        let count = |arm: fn(&OverheadReport) -> &OnlineStats| {
            blocks.iter().map(|b| arm(b).count()).sum::<u64>()
        };
        assert_eq!(count(|b| &b.base), 200);
        assert_eq!(count(|b| &b.guarded), 200);
        assert!(blocks.iter().all(|b| b.base.mean() > 0.0));
        // The guard costs something but not an order of magnitude: the
        // paper reports ~20%; we allow a broad band because debug builds
        // and CI noise vary. The key claim is "overheads are small". It
        // is the median over interleaved blocks, not the mean of every
        // sample: one preempted ~1 µs sample moves the mean of all 200,
        // but only its own block here.
        let frac = median_of(blocks.iter().map(|b| b.overhead_fraction()).collect());
        assert!(frac < 5.0, "overhead fraction {frac} out of band");
    }
}
