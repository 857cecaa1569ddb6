//! The experiment implementations behind every table and figure of the
//! paper's §4: each returns structured rows (gated by the `experiments`
//! binary) and a rendered table. Tables 1–4 and Figures 4–6 are priced
//! by the shipped guard through [`delayguard_sim::replay`] and
//! [`delayguard_sim::update_skew_delays`].

use delayguard_core::analysis;
use delayguard_core::{AccessDelayPolicy, GuardConfig, GuardPolicy, UpdateDelayPolicy};
use delayguard_popularity::{top_k, FrequencyTracker};
use delayguard_sim::{
    fmt_dollars, fmt_pct, fmt_secs, measure_overhead, median_of, per_request, replay,
    update_skew_delays, OverheadConfig, TableBuilder,
};
use delayguard_workload::{BoxOfficeConfig, CalgaryConfig, UpdateRates, WEEK_SECS};
use std::time::Instant;

/// The paper's 10-second default cap.
pub(crate) const DEFAULT_CAP_SECS: f64 = 10.0;

/// The Calgary guard: access-rate delays with α matching the trace's
/// observed skew (≈1.5) and β = 1.0 (the tuning knob).
fn calgary_guard(cap_secs: f64, decay_rate: f64) -> GuardConfig {
    let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs);
    GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(policy))
        .with_access_decay(decay_rate)
}

// ---------------------------------------------------------------- Fig. 1

/// Figure 1: request distribution of the (synthetic) Calgary trace —
/// top-10 ranks and their request counts.
pub fn fig1() -> (Vec<(u64, f64)>, String) {
    let trace = CalgaryConfig::paper().generate();
    let mut tracker = FrequencyTracker::no_decay();
    for r in &trace.requests {
        tracker.record(r.key);
    }
    let top = top_k(&tracker, 10);
    let mut table = TableBuilder::new(
        "Figure 1. Request Distribution: synthetic Calgary trace (12,179 objects, 725,091 requests, Zipf 1.5)",
        &["Rank", "Object", "Requests"],
    );
    for (rank, (key, count)) in top.iter().enumerate() {
        table.row(&[
            format!("{}", rank + 1),
            format!("{key}"),
            format!("{count:.0}"),
        ]);
    }
    (top, table.render())
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1.
#[derive(Debug, Clone, Copy)]
pub struct Table1Row {
    pub objects: u64,
    pub median_user_delay_secs: f64,
    pub adversary_delay_secs: f64,
    pub fraction_of_max: f64,
}

/// Table 1: delays in synthetic traces of 100k / 500k / 1M tuples
/// (Calgary-shaped workload scaled up; cap 10 s).
pub fn table1(sizes: &[u64]) -> (Vec<Table1Row>, String) {
    let mut rows = Vec::new();
    let mut table = TableBuilder::new(
        "Table 1. Delays in Synthetic Traces (cap 10 s)",
        &[
            "Database Size (tuples)",
            "Median User Delay",
            "Adversary Delay",
            "Fraction of N*cap",
        ],
    );
    for &n in sizes {
        let cfg = CalgaryConfig::scaled_to(n);
        // Stride keeps the delay sample bounded for the 60M-request run.
        let stride = (cfg.requests / 1_000_000).max(1) as usize;
        let guard = calgary_guard(DEFAULT_CAP_SECS, 1.0);
        let result = replay(per_request(cfg.key_stream()), n, guard, stride);
        let row = Table1Row {
            objects: n,
            median_user_delay_secs: result.median_user_delay_secs(),
            adversary_delay_secs: result.adversary_total_secs,
            fraction_of_max: result.fraction_of_max(),
        };
        table.row(&[
            format!("{n}"),
            fmt_secs(row.median_user_delay_secs),
            fmt_secs(row.adversary_delay_secs),
            fmt_pct(row.fraction_of_max),
        ]);
        rows.push(row);
    }
    (rows, table.render())
}

// ---------------------------------------------------------------- Table 2

/// One row of Table 2.
#[derive(Debug, Clone, Copy)]
pub struct Table2Row {
    pub cap_secs: f64,
    pub adversary_delay_secs: f64,
    pub median_user_delay_secs: f64,
}

/// Table 2: scaling the maximum delay cap (0.1 / 1 / 10 / 100 s) on a
/// Calgary trace (the paper's is [`CalgaryConfig::paper`]).
pub fn table2(cfg: &CalgaryConfig) -> (Vec<Table2Row>, String) {
    let caps = [0.1, 1.0, 10.0, 100.0];
    let mut rows = Vec::new();
    let mut table = TableBuilder::new(
        format!(
            "Table 2. Scaling Maximum Delay Costs (synthetic Calgary, {} objects)",
            cfg.objects
        ),
        &["Cap (sec)", "Adversary Delay", "Median User Delay"],
    );
    for cap in caps {
        let guard = calgary_guard(cap, 1.0);
        let result = replay(per_request(cfg.key_stream()), cfg.objects, guard, 1);
        let row = Table2Row {
            cap_secs: cap,
            adversary_delay_secs: result.adversary_total_secs,
            median_user_delay_secs: result.median_user_delay_secs(),
        };
        table.row(&[
            format!("{cap}"),
            fmt_secs(row.adversary_delay_secs),
            fmt_secs(row.median_user_delay_secs),
        ]);
        rows.push(row);
    }
    (rows, table.render())
}

/// Seconds one Calgary request costs `execute_at`: the median of three
/// replays of `cfg` (cap 10 s) with the keys drawn up front and no
/// delays kept, so the time is the guard's, plus loading the relation
/// and pricing the adversary once per replay.
pub fn calgary_secs_per_request(cfg: &CalgaryConfig) -> f64 {
    let keys: Vec<u64> = cfg.key_stream().collect();
    let runs = (0..3)
        .map(|_| {
            let guard = calgary_guard(DEFAULT_CAP_SECS, 1.0);
            let started = Instant::now();
            let requests = per_request(keys.iter().copied());
            let result = replay(requests, cfg.objects, guard, usize::MAX);
            let secs = started.elapsed().as_secs_f64();
            drop(result);
            secs / keys.len() as f64
        })
        .collect();
    median_of(runs)
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3 / Table 4.
#[derive(Debug, Clone, Copy)]
pub struct DecayRow {
    pub decay_rate: f64,
    pub median_user_delay_secs: f64,
    pub adversary_delay_secs: f64,
}

/// Table 3: per-request decay-rate sweep on a Calgary trace.
pub fn table3(cfg: &CalgaryConfig) -> (Vec<DecayRow>, String) {
    let rates = [1.0, 1.000001, 1.000002, 1.000005, 1.00001, 1.00002];
    let mut rows = Vec::new();
    let mut table = TableBuilder::new(
        "Table 3. Delays in synthetic Calgary Trace (per-request decay sweep, cap 10 s)",
        &["Decay Rate", "Median User Delay", "Adversary Delay"],
    );
    for rate in rates {
        let guard = calgary_guard(DEFAULT_CAP_SECS, rate);
        let result = replay(per_request(cfg.key_stream()), cfg.objects, guard, 1);
        let row = DecayRow {
            decay_rate: rate,
            median_user_delay_secs: result.median_user_delay_secs(),
            adversary_delay_secs: result.adversary_total_secs,
        };
        table.row(&[
            format!("{rate:.6}"),
            fmt_secs(row.median_user_delay_secs),
            fmt_secs(row.adversary_delay_secs),
        ]);
        rows.push(row);
    }
    (rows, table.render())
}

// ------------------------------------------------------------ Fig. 2 / 3

/// Top-k film/sales pairs, descending.
pub type SalesRanking = Vec<(u64, f64)>;

/// Figures 2 and 3: top-10 films by annual sales and by first-week sales.
pub fn fig2_fig3() -> (SalesRanking, SalesRanking, String) {
    let season = BoxOfficeConfig::default().generate();
    let annual = season.top_annual(10);
    let week0 = season.top_week(0, 10);
    let mut t2 = TableBuilder::new(
        "Figure 2. Sales Distribution of Top 10 Movies (synthetic 2002 season, annual)",
        &["Rank", "Film", "Annual Sales"],
    );
    for (rank, (film, sales)) in annual.iter().enumerate() {
        t2.row(&[
            format!("{}", rank + 1),
            format!("{film}"),
            fmt_dollars(*sales),
        ]);
    }
    let mut t3 = TableBuilder::new(
        "Figure 3. Top 10 Movies for First Week (synthetic 2002 season)",
        &["Rank", "Film", "Week-1 Sales"],
    );
    for (rank, (film, sales)) in week0.iter().enumerate() {
        t3.row(&[
            format!("{}", rank + 1),
            format!("{film}"),
            fmt_dollars(*sales),
        ]);
    }
    let rendered = format!("{}\n{}", t2.render(), t3.render());
    (annual, week0, rendered)
}

// ---------------------------------------------------------------- Table 4

/// Table 4: weekly decay-rate sweep on the box-office trace, replayed
/// through the guard with week `w`'s requests issued at t = `w`: one
/// unit of guard time per week, so the rate decays counts "at weekly
/// boundaries" (§4.2).
pub fn table4() -> (Vec<DecayRow>, String) {
    let trace = BoxOfficeConfig::default().generate().trace();
    let rates = [1.0, 1.01, 1.02, 1.05, 1.10, 1.20, 1.50, 2.0, 5.0];
    // The paper's Table 4 medians (tens of microseconds on a 634-row
    // table) are only consistent with Eq. 1's f_max read as the *absolute*
    // top count; see EXPERIMENTS.md for the decoding.
    let policy = AccessDelayPolicy::new(1.5, 1.0)
        .with_cap(DEFAULT_CAP_SECS)
        .with_fmax_mode(delayguard_core::access::FmaxMode::RawCount);
    let mut rows = Vec::new();
    let mut table = TableBuilder::new(
        "Table 4. Delays in synthetic Box Office Data (weekly decay sweep, cap 10 s, 634 films)",
        &["Decay Rate", "Median User Delay", "Adversary Delay"],
    );
    for rate in rates {
        let guard = GuardConfig::paper_default()
            .with_policy(GuardPolicy::AccessRate(policy))
            .with_access_decay(rate);
        let weekly = trace
            .requests
            .iter()
            .map(|r| ((r.time / WEEK_SECS).floor(), r.key));
        let result = replay(weekly, trace.objects, guard, 1);
        let row = DecayRow {
            decay_rate: rate,
            median_user_delay_secs: result.median_user_delay_secs(),
            adversary_delay_secs: result.adversary_total_secs,
        };
        table.row(&[
            format!("{rate:.2}"),
            fmt_secs(row.median_user_delay_secs),
            fmt_secs(row.adversary_delay_secs),
        ]);
        rows.push(row);
    }
    (rows, table.render())
}

// --------------------------------------------------------- Figs. 4, 5, 6

/// One skew point of the §4.3 dynamic-data simulation.
#[derive(Debug, Clone, Copy)]
pub struct UpdateSkewRow {
    pub alpha: f64,
    /// Fig. 4: median user delay (uniform queries), seconds.
    pub median_user_delay_secs: f64,
    /// Fig. 5: total adversary delay, seconds.
    pub adversary_delay_secs: f64,
    /// Fig. 6: stale fraction of the extracted copy (Eq. 10 rule).
    pub stale_fraction: f64,
}

/// Configuration of the §4.3 sweep.
#[derive(Debug, Clone, Copy)]
pub struct UpdateSkewConfig {
    pub objects: u64,
    /// Aggregate update rate over the whole relation, updates/sec.
    pub total_update_rate: f64,
    /// Eq. 9 scale constant.
    pub c: f64,
    pub cap_secs: f64,
    pub seed: u64,
}

impl Default for UpdateSkewConfig {
    fn default() -> Self {
        UpdateSkewConfig {
            objects: 100_000,
            // One update per tuple per second on average: the §4.3 setup
            // "simultaneously posed queries and posted updates".
            total_update_rate: 100_000.0,
            // Eq. 12 gives S_max = (c/(1+α))^(1/α); the paper's Fig. 6
            // shows ~100% staleness at low skew, which requires c ≥ 1+α
            // there ("delays were set so that an adversary should expect
            // to obtain stale values"). c = 2 keeps low/mid skews fully
            // stale while the 10 s cap erodes staleness at high skew —
            // the declining right side of Fig. 6.
            c: 2.0,
            cap_secs: DEFAULT_CAP_SECS,
            seed: 0xF456,
        }
    }
}

/// Figures 4–6: sweep update skew α over 0.25..=2.5. Each point loads
/// the relation into a guard under the update-rate policy, seeds every
/// tuple's true rate and reads each tuple once
/// ([`update_skew_delays`]).
pub fn fig456(config: &UpdateSkewConfig, alphas: &[f64]) -> (Vec<UpdateSkewRow>, String) {
    let policy = UpdateDelayPolicy::new(config.c).with_cap(config.cap_secs);
    let guard = GuardConfig::paper_default().with_policy(GuardPolicy::UpdateRate(policy));
    let mut rows = Vec::new();
    let mut table = TableBuilder::new(
        format!(
            "Figures 4-6. Dynamic data simulation ({} tuples, uniform queries, Zipf updates at {} upd/s)",
            config.objects, config.total_update_rate
        ),
        &[
            "Skew (alpha)",
            "Fig4: Median User Delay",
            "Fig5: Adversary Delay",
            "Fig6: Stale Fraction",
        ],
    );
    for &alpha in alphas {
        let rates = UpdateRates::zipf(config.objects, alpha, config.total_update_rate, config.seed);
        let delays = update_skew_delays(&rates, guard);
        // The adversary reads every tuple once: its total is the sum.
        let adversary_delay_secs: f64 = delays.iter().sum();
        let row = UpdateSkewRow {
            alpha,
            median_user_delay_secs: median_of(delays),
            adversary_delay_secs,
            stale_fraction: rates.stale_fraction(adversary_delay_secs),
        };
        table.row(&[
            format!("{alpha:.2}"),
            fmt_secs(row.median_user_delay_secs),
            fmt_secs(row.adversary_delay_secs),
            fmt_pct(row.stale_fraction),
        ]);
        rows.push(row);
    }
    (rows, table.render())
}

/// The α values of Figures 4–6.
pub fn paper_alphas() -> Vec<f64> {
    (1..=10).map(|i| i as f64 * 0.25).collect()
}

// ---------------------------------------------------------------- Table 5

/// Table 5: implementation overhead on simple selection queries.
pub fn table5(config: &OverheadConfig) -> (delayguard_sim::OverheadReport, String) {
    let report = measure_overhead(config);
    let mut table = TableBuilder::new(
        format!(
            "Table 5. Overheads in Simple Selection Queries ({} rows, {} queries)",
            config.rows, config.queries
        ),
        &["", "avg", "stdev"],
    );
    table.row(&[
        "Base query cost".into(),
        fmt_secs(report.base.mean()),
        fmt_secs(report.base.stdev()),
    ]);
    table.row(&[
        "Total cost (counts + delay computation)".into(),
        fmt_secs(report.guarded.mean()),
        fmt_secs(report.guarded.stdev()),
    ]);
    table.row(&[
        "Overhead".into(),
        fmt_secs(report.overhead_secs()),
        fmt_pct(report.overhead_fraction()),
    ]);
    let rendered = table.render();
    (report, rendered)
}

// ------------------------------------------------------------- Analysis

/// Cross-check the closed forms (Eq. 3/4/7/12) against simulation.
pub fn analysis_table() -> String {
    let mut table = TableBuilder::new(
        "Analysis cross-check: closed forms (Eq. 3, 4/7, 12) at N = 100,000",
        &[
            "alpha",
            "median request rank (Eq.3)",
            "adversary/user ratio, cap 10s (Eq.7)",
            "S_max(c=1) exact vs Eq.12",
        ],
    );
    let n = 100_000u64;
    for alpha in [0.5, 1.0, 1.5, 2.0] {
        let med = analysis::median_rank_exact(n, alpha);
        let fmax = 1.0 / delayguard_workload::generalized_harmonic(n, alpha);
        let ratio = analysis::delay_ratio(n, alpha, 1.0, fmax, Some(10.0));
        let exact = analysis::stale_fraction_exact(n, alpha, 1.0);
        let approx = analysis::smax_asymptotic(alpha, 1.0);
        table.row(&[
            format!("{alpha:.2}"),
            format!("{med}"),
            format!("{ratio:.3e}"),
            format!("{exact:.3} vs {approx:.3}"),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_is_skewed() {
        let (top, rendered) = fig1();
        assert_eq!(top.len(), 10);
        assert!(top[0].1 / top[9].1 > 10.0, "decade of skew across top 10");
        assert!(rendered.contains("Figure 1"));
    }

    #[test]
    fn table2_shape_matches_paper() {
        // Adversary delay grows with the cap, while the *fraction* of the
        // maximum falls (fewer tuples are capped at higher caps).
        let cfg = CalgaryConfig {
            objects: 1_000,
            requests: 20_000,
            ..CalgaryConfig::paper()
        };
        let (rows, rendered) = table2(&cfg);
        assert!(rendered.contains("Table 2"));
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(w[1].adversary_delay_secs > w[0].adversary_delay_secs);
        }
        let n = cfg.objects as f64;
        let frac_low = rows[0].adversary_delay_secs / (n * rows[0].cap_secs);
        let frac_high = rows[3].adversary_delay_secs / (n * rows[3].cap_secs);
        assert!(frac_low > frac_high, "{frac_low} vs {frac_high}");
        assert!(frac_low > 0.85, "small caps cap nearly everything");
    }

    #[test]
    fn fig456_shapes_match_paper() {
        let cfg = UpdateSkewConfig {
            objects: 2_000,
            total_update_rate: 2_000.0,
            ..Default::default()
        };
        let (rows, _) = fig456(&cfg, &[0.25, 1.0, 2.0, 2.5]);
        // Fig 4: median user delay rises with skew.
        assert!(rows[0].median_user_delay_secs < rows[3].median_user_delay_secs);
        // Fig 5: adversary delay rises with skew toward N * cap.
        assert!(rows[0].adversary_delay_secs < rows[3].adversary_delay_secs);
        assert!(rows[3].adversary_delay_secs <= cfg.objects as f64 * cfg.cap_secs + 1e-6);
        assert!(rows[3].adversary_delay_secs >= 0.5 * cfg.objects as f64 * cfg.cap_secs);
        // Fig 6: staleness near-total at low skew, reduced at high skew.
        assert!(rows[0].stale_fraction > 0.9, "{}", rows[0].stale_fraction);
        assert!(rows[3].stale_fraction < rows[0].stale_fraction);
    }
}
