//! Trace replay through the shipped guard (paper §4.1–§4.3).
//!
//! [`replay`] replays a request stream against a [`GuardedDatabase`]
//! exactly as the paper replays its traces: every request is a point
//! `SELECT` run through [`GuardedDatabase::execute_at`] at its issue
//! time, charged the delay implied by the statistics learned *so far*,
//! then recorded. At the end the adversary's extraction total is priced
//! from the frozen final counts ("we computed the delay that would be
//! imposed on an adversary ... by examining the access counts after the
//! trace was replayed"), one [`GuardedDatabase::tuple_delay`] per row.
//!
//! The issue times are the guard's decay clock, so they choose the
//! paper's decay granularity with no knob of their own: [`per_request`]
//! issues request `i` at `i + 1`, decaying "at each request" (Calgary,
//! Tables 1–3); issuing week `w`'s requests at `w` decays "at weekly
//! boundaries" (box office, Table 4).
//!
//! [`update_skew_delays`] is the §4.3 counterpart: each tuple's update
//! count is seeded from its true rate, then every tuple is read once.
//!
//! Both run the product's exact pricer with the product's own
//! [`GuardConfig`]; there is no second pricer to drift from it.

use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::StatementOutput;
use delayguard_storage::RowId;
use delayguard_workload::UpdateRates;
use std::fmt::Write;

use crate::metrics::median_of;

/// The replayed relation: `t(id INT NOT NULL, body TEXT NOT NULL)`.
const TABLE: &str = "t";

/// Rows per `INSERT` while loading the relation.
const INSERT_BATCH: u64 = 1000;

/// Everything the paper reports about one replay, plus the guard it ran
/// on for further pricing.
pub struct ReplayResult {
    /// Delay charged to every `stride`-th request, in order (seconds).
    pub delays: Vec<f64>,
    /// Total adversary delay to extract all objects, from final counts.
    pub adversary_total_secs: f64,
    /// `N · d_max`: the largest total an adversary could ever pay.
    pub max_possible_secs: f64,
    /// The guard after the last request.
    pub db: GuardedDatabase,
    /// `rows[k]` is the row holding key `k`.
    pub rows: Vec<RowId>,
    /// Virtual time of the last request; the adversary is priced here.
    pub end_secs: f64,
}

impl ReplayResult {
    /// Median per-request user delay, seconds.
    pub fn median_user_delay_secs(&self) -> f64 {
        median_of(self.delays.clone())
    }

    /// Adversary total as a fraction of the maximum possible
    /// (the paper reports "nearly 90% of the maximum possible delay" for
    /// Calgary and "100%" for the box-office data).
    pub fn fraction_of_max(&self) -> f64 {
        if self.max_possible_secs <= 0.0 {
            0.0
        } else {
            self.adversary_total_secs / self.max_possible_secs
        }
    }

    /// The raw delay key `k` costs at the end of the trace.
    pub fn tuple_delay(&self, key: u64) -> f64 {
        self.db
            .tuple_delay(TABLE, self.rows[key as usize], self.end_secs)
            .expect("replayed table exists")
    }
}

/// A guard over `t` holding ids `0..objects`, inserted at t = 0 in key
/// order so row order is key order. Inserting tracks each row at zero
/// popularity (the paper's "all items are equally unpopular" start).
fn load(objects: u64, config: GuardConfig) -> (GuardedDatabase, Vec<RowId>) {
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT NOT NULL)", 0.0)
        .expect("create table");
    db.execute_at("CREATE UNIQUE INDEX t_id ON t (id)", 0.0)
        .expect("create index");
    let mut rows = Vec::with_capacity(objects as usize);
    let mut sql = String::new();
    for start in (0..objects).step_by(INSERT_BATCH as usize) {
        sql.clear();
        sql.push_str("INSERT INTO t VALUES ");
        for id in start..(start + INSERT_BATCH).min(objects) {
            let sep = if id == start { "" } else { ", " };
            write!(sql, "{sep}({id}, 'object {id}')").expect("write to String");
        }
        match db.execute_at(&sql, 0.0).expect("insert batch").output {
            StatementOutput::Inserted { rids } => rows.extend(rids),
            other => unreachable!("INSERT returned {other:?}"),
        }
    }
    (db, rows)
}

/// Point-read `key` at virtual time `now`; returns the charged delay.
fn read(db: &GuardedDatabase, sql: &mut String, key: u64, now: f64) -> f64 {
    sql.clear();
    write!(sql, "SELECT * FROM t WHERE id = {key}").expect("write to String");
    db.execute_at(sql, now).expect("point read").delay_secs
}

/// Issue request `i` of `keys` at virtual time `i + 1`: one unit of
/// guard time per request, so a decay rate is per request (§2.3).
pub fn per_request(keys: impl IntoIterator<Item = u64>) -> impl Iterator<Item = (f64, u64)> {
    keys.into_iter()
        .enumerate()
        .map(|(i, key)| ((i + 1) as f64, key))
}

/// Replay `(issue_time, key)` requests over `objects` objects: each reads
/// its key at virtual time `issue_time` (non-decreasing; the guard's
/// decay clock), and every `stride`-th charged delay is kept (systematic
/// sampling keeps the median accurate while bounding memory for
/// multi-million-request sweeps like Table 1).
///
/// # Panics
/// If `stride == 0`, `config` is invalid, or a key is `>= objects`.
pub fn replay(
    requests: impl IntoIterator<Item = (f64, u64)>,
    objects: u64,
    config: GuardConfig,
    stride: usize,
) -> ReplayResult {
    assert!(stride > 0, "stride must be positive");
    config.validate().expect("valid guard config");
    let (db, rows) = load(objects, config);
    let requests = requests.into_iter();
    let mut delays = Vec::with_capacity(requests.size_hint().0.div_ceil(stride));
    let mut sql = String::new();
    let mut end_secs = 0.0;
    for (i, (now, key)) in requests.enumerate() {
        assert!(key < objects, "key {key} outside 0..{objects}");
        end_secs = now;
        let d = read(&db, &mut sql, key, now);
        if i % stride == 0 {
            delays.push(d);
        }
    }
    let adversary_total_secs = rows
        .iter()
        .map(|&rid| db.tuple_delay(TABLE, rid, end_secs).expect("table exists"))
        .sum();
    ReplayResult {
        delays,
        adversary_total_secs,
        max_possible_secs: objects as f64 * config.policy.max_tuple_delay(),
        db,
        rows,
        end_secs,
    }
}

/// The §4.3 dynamic-data setup on the guard: load one tuple per rate at
/// t = 0, seed tuple `i` with `r_i · 1 s` of updates at t = 1, then
/// point-read every tuple at t = 1. Returns the delay each read was
/// charged, by key: Fig. 4 is their median, Fig. 5 their sum (the
/// adversary's total), and Fig. 6 is
/// [`UpdateRates::stale_fraction`] of that sum.
pub fn update_skew_delays(rates: &UpdateRates, config: GuardConfig) -> Vec<f64> {
    config.validate().expect("valid guard config");
    let objects = rates.len() as u64;
    let (db, rows) = load(objects, config);
    let window_secs = 1.0;
    let counts: Vec<(RowId, f64)> = (0..objects)
        .map(|k| (rows[k as usize], rates.rate(k) * window_secs))
        .collect();
    db.warm_updates(TABLE, &counts, window_secs);
    let mut sql = String::new();
    (0..objects)
        .map(|k| read(&db, &mut sql, k, window_secs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_core::{AccessDelayPolicy, GuardPolicy, UpdateDelayPolicy};
    use delayguard_workload::CalgaryConfig;

    fn small_trace() -> CalgaryConfig {
        CalgaryConfig {
            objects: 500,
            requests: 20_000,
            alpha: 1.5,
            inter_arrival_secs: 1.0,
            seed: 42,
        }
    }

    fn config(cap: f64) -> GuardConfig {
        GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap),
        ))
    }

    fn run(config: GuardConfig, stride: usize) -> ReplayResult {
        let trace = small_trace();
        replay(
            per_request(trace.key_stream()),
            trace.objects,
            config,
            stride,
        )
    }

    #[test]
    fn users_fast_adversary_slow() {
        let result = run(config(10.0), 1);
        let median = result.median_user_delay_secs();
        // The median request hits a highly popular object: tiny delay.
        assert!(median < 0.05, "median {median}");
        // The adversary pays close to N * cap.
        assert!(
            result.fraction_of_max() > 0.8,
            "{}",
            result.fraction_of_max()
        );
        // Orders of magnitude between them.
        let per_object_adversary = result.adversary_total_secs / small_trace().objects as f64;
        assert!(per_object_adversary / median.max(1e-9) > 1e2);
    }

    #[test]
    fn early_requests_pay_cap_late_ones_do_not() {
        let result = run(config(10.0), 1);
        assert_eq!(result.delays[0], 10.0, "start-up transient: cap");
        let late = &result.delays[result.delays.len() - 1000..];
        let late_median = median_of(late.to_vec());
        assert!(late_median < 0.05, "late median {late_median}");
    }

    #[test]
    fn delays_match_trace_length() {
        let result = run(config(10.0), 1);
        assert_eq!(result.delays.len(), small_trace().requests as usize);
        assert_eq!(result.rows.len(), 500);
        assert_eq!(
            result.db.access_events(TABLE),
            small_trace().requests,
            "every request recorded once"
        );
    }

    #[test]
    fn adversary_total_is_the_sum_of_tuple_delays() {
        let result = run(config(10.0), 64);
        let direct: f64 = (0..500).map(|k| result.tuple_delay(k)).sum();
        assert_eq!(direct, result.adversary_total_secs);
        assert_eq!(result.max_possible_secs, 500.0 * 10.0);
    }

    #[test]
    fn decay_increases_median_delay() {
        // Table 3's phenomenon: stronger per-request decay shrinks the
        // effective history, so learned ranks are noisier and the median
        // user delay rises.
        let no_decay = run(config(10.0), 1);
        let heavy = run(config(10.0).with_access_decay(1.001), 1);
        assert!(
            heavy.median_user_delay_secs() > no_decay.median_user_delay_secs(),
            "decay {} vs none {}",
            heavy.median_user_delay_secs(),
            no_decay.median_user_delay_secs()
        );
        // And the adversary's total only grows.
        assert!(heavy.adversary_total_secs >= no_decay.adversary_total_secs * 0.99);
    }

    #[test]
    fn strided_sampling_preserves_median() {
        let full = run(config(10.0), 1);
        let strided = run(config(10.0), 16);
        assert_eq!(
            strided.delays.len(),
            (small_trace().requests as usize).div_ceil(16)
        );
        let every_16th: Vec<f64> = full.delays.iter().step_by(16).copied().collect();
        assert_eq!(strided.delays, every_16th);
        let m_full = full.median_user_delay_secs();
        let m_strided = strided.median_user_delay_secs();
        assert!(
            (m_full - m_strided).abs() <= m_full.max(0.001) * 0.5,
            "median {m_full} vs strided {m_strided}"
        );
    }

    #[test]
    fn higher_cap_scales_adversary_not_median() {
        // Table 2's phenomenon.
        let low = run(config(10.0), 1);
        let high = run(config(100.0), 1);
        assert!(high.adversary_total_secs > low.adversary_total_secs * 5.0);
        let m_low = low.median_user_delay_secs();
        let m_high = high.median_user_delay_secs();
        assert!(
            (m_high - m_low).abs() <= m_low.max(0.001) * 0.5,
            "median roughly unchanged: {m_low} vs {m_high}"
        );
    }

    #[test]
    fn update_skew_delays_price_each_tuple_from_its_rate() {
        let rates = UpdateRates::zipf(300, 1.5, 30.0, 5);
        let policy = UpdateDelayPolicy::new(1.0).with_cap(10.0);
        let config = GuardConfig::paper_default().with_policy(GuardPolicy::UpdateRate(policy));
        let delays = update_skew_delays(&rates, config);
        assert_eq!(delays.len(), 300);
        for (k, &d) in delays.iter().enumerate() {
            assert_eq!(
                d,
                policy.delay_from_rate(300, rates.rate(k as u64)),
                "key {k}"
            );
        }
    }
}
