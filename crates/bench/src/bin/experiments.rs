//! Regenerate every table and figure of the paper's evaluation (§4) and
//! gate the shapes EXPERIMENTS.md claims; a full run writes
//! `BENCH_experiments.json` (schema: [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin experiments               # full (~3 min)
//! cargo run -p delayguard-bench --release --bin experiments -- --smoke    # small shapes
//! cargo run -p delayguard-bench --release --bin experiments -- fig1 table3
//! ```
//!
//! Artifact ids: fig1, table1, table2, table3, fig2, fig3, table4, fig4,
//! fig5, fig6 (aliases: fig456), table5, analysis. The committed file is
//! a run of all of them. Every shape gate is on a deterministic
//! virtual-clock result, so smoke enforces them all (Table 4 runs at full
//! size in smoke too). The one timing gate, `execute_at`'s cost per
//! Calgary request, binds on full runs only; Table 5's timings have no
//! gate.

use delayguard_bench::experiments::{self, UpdateSkewConfig};
use delayguard_bench::report::{Op, Op::*, Report, Scope};
use delayguard_sim::OverheadConfig;
use delayguard_workload::CalgaryConfig;
use std::process::ExitCode;
use std::time::Instant;

/// Record `(name, value, op, bound)` gates, all enforced in smoke too.
fn gates(report: &mut Report, list: &[(&str, f64, Op, f64)]) {
    for &(name, value, op, bound) in list {
        report.gate(name, value, op, bound, Scope::Always);
    }
}

/// Record `rows` as the `series` table, one column per named field.
macro_rules! record_rows {
    ($report:ident, $series:literal, $rows:ident, $($field:ident),+) => {
        $report.rows($series, [$(stringify!($field)),+], $rows.iter().map(|r| [$(r.$field as f64),+]))
    };
}

/// Steps of `values` that fail to rise strictly.
fn non_increasing_steps(values: &[f64]) -> f64 {
    values.windows(2).filter(|w| w[1] <= w[0]).count() as f64
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn main() -> ExitCode {
    let mut report = Report::new("experiments");
    let smoke = report.smoke();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let want = |ids: &[&str]| -> bool {
        selected.is_empty() || ids.iter().any(|id| selected.contains(id))
    };
    // Smoke shapes keep the run near half a minute on two cores: Table 1
    // at sizes whose median is already sub-millisecond, Tables 2–3 on a
    // half-size Calgary trace with the paper's request/object ratio.
    let (mut skew, mut overhead) = (UpdateSkewConfig::default(), OverheadConfig::default());
    let (sizes, calgary): (&[u64], _) = if smoke {
        (skew.objects, skew.total_update_rate, overhead.rows) = (20_000, 20_000.0, 2_000);
        (&[20_000, 50_000], CalgaryConfig::scaled_to(6_000))
    } else {
        (&[100_000, 500_000, 1_000_000], CalgaryConfig::paper())
    };
    report
        .param("calgary_objects", calgary.objects as f64)
        .param("calgary_requests", calgary.requests as f64)
        .param("fig456_objects", skew.objects as f64)
        .param("table5_rows", overhead.rows as f64);
    let wall = Instant::now();

    println!("delayguard experiments — reproducing Jayapandian et al., SDM/VLDB 2004\n");

    if want(&["fig1"]) {
        println!("{}", experiments::fig1().1);
    }
    if want(&["table1"]) {
        let largest = sizes[sizes.len() - 1];
        eprintln!("[table1] replaying scaled traces (largest: {largest} objects)...");
        let (rows, rendered) = experiments::table1(sizes);
        println!("{rendered}");
        record_rows!(
            report,
            "table1",
            rows,
            objects,
            median_user_delay_secs,
            adversary_delay_secs,
            fraction_of_max
        );
        let fractions: Vec<f64> = rows.iter().map(|r| r.fraction_of_max).collect();
        let medians: Vec<f64> = rows.iter().map(|r| r.median_user_delay_secs).collect();
        gates(
            &mut report,
            &[
                ("table1_min_fraction_of_max", min(&fractions), Ge, 0.99),
                ("table1_max_median_user_delay_secs", max(&medians), Le, 1e-3),
            ],
        );
    }
    if want(&["table2"]) {
        let (rows, rendered) = experiments::table2(&calgary);
        println!("{rendered}");
        let per_request = experiments::calgary_secs_per_request(&calgary);
        report
            .sample("execute_at_secs_per_calgary_request", per_request, "s")
            .gate(
                "execute_at_secs_per_calgary_request",
                per_request,
                Le,
                1.5e-6,
                Scope::FullRun,
            );
        record_rows!(
            report,
            "table2",
            rows,
            cap_secs,
            median_user_delay_secs,
            adversary_delay_secs
        );
        let adversary: Vec<f64> = rows.iter().map(|r| r.adversary_delay_secs).collect();
        let medians: Vec<f64> = rows.iter().map(|r| r.median_user_delay_secs).collect();
        let (steps, spread) = (
            non_increasing_steps(&adversary),
            max(&medians) - min(&medians),
        );
        gates(
            &mut report,
            &[
                ("table2_adversary_non_increasing_steps", steps, Le, 0.0),
                ("table2_median_spread_secs", spread, Le, 0.0),
            ],
        );
    }
    if want(&["table3"]) {
        let (rows, rendered) = experiments::table3(&calgary);
        println!("{rendered}");
        record_rows!(
            report,
            "table3",
            rows,
            decay_rate,
            median_user_delay_secs,
            adversary_delay_secs
        );
        let adversary: Vec<f64> = rows.iter().map(|r| r.adversary_delay_secs).collect();
        let medians: Vec<f64> = rows.iter().map(|r| r.median_user_delay_secs).collect();
        let (steps, spread) = (
            non_increasing_steps(&medians),
            max(&adversary) / min(&adversary),
        );
        gates(
            &mut report,
            &[
                ("table3_median_non_increasing_steps", steps, Le, 0.0),
                ("table3_adversary_spread", spread - 1.0, Le, 0.01),
            ],
        );
    }
    if want(&["fig2", "fig3"]) {
        println!("{}", experiments::fig2_fig3().2);
    }
    if want(&["table4"]) {
        let (rows, rendered) = experiments::table4();
        println!("{rendered}");
        record_rows!(
            report,
            "table4",
            rows,
            decay_rate,
            median_user_delay_secs,
            adversary_delay_secs
        );
        let adversary: Vec<f64> = rows.iter().map(|r| r.adversary_delay_secs).collect();
        let medians: Vec<f64> = rows.iter().map(|r| r.median_user_delay_secs).collect();
        gates(
            &mut report,
            &[
                (
                    "table4_adversary_non_increasing_steps",
                    non_increasing_steps(&adversary),
                    Le,
                    0.0,
                ),
                ("table4_max_median_user_delay_secs", max(&medians), Le, 1.0),
            ],
        );
    }
    if want(&["fig4", "fig5", "fig6", "fig456"]) {
        let (rows, rendered) = experiments::fig456(&skew, &experiments::paper_alphas());
        println!("{rendered}");
        record_rows!(
            report,
            "fig456",
            rows,
            alpha,
            median_user_delay_secs,
            adversary_delay_secs,
            stale_fraction
        );
        let low: Vec<f64> = rows
            .iter()
            .filter(|r| r.alpha <= 1.0)
            .map(|r| r.stale_fraction)
            .collect();
        let at = |alpha| {
            rows.iter()
                .find(|r| r.alpha == alpha)
                .map_or(f64::NAN, |r| r.stale_fraction)
        };
        // A stale fraction is a multiple of 1/N, so `< 0.5` is
        // `<= 0.5 - 1/N`.
        let below_half = 0.5 - 1.0 / skew.objects as f64;
        gates(
            &mut report,
            &[
                ("fig6_min_stale_fraction_alpha_le_1", min(&low), Ge, 0.99),
                ("fig6_stale_fraction_alpha_2_0", at(2.0), Ge, 0.5),
                ("fig6_stale_fraction_alpha_2_5", at(2.5), Le, below_half),
            ],
        );
    }
    if want(&["table5"]) {
        let (result, rendered) = experiments::table5(&overhead);
        println!("{rendered}");
        report
            .sample("table5_base_mean_secs", result.base.mean(), "s")
            .sample("table5_guarded_mean_secs", result.guarded.mean(), "s")
            .sample("table5_overhead_fraction", result.overhead_fraction(), "1");
    }
    if want(&["analysis"]) {
        println!("{}", experiments::analysis_table());
    }
    report.sample("wall_secs", wall.elapsed().as_secs_f64(), "s");
    report.finish()
}
