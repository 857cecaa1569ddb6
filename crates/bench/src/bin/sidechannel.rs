//! Timing side-channel bench: rank-inference accuracy, shaped vs
//! control, and the honest-user price of delay shaping. A full run
//! writes `BENCH_sidechannel.json` at the repo root (schema:
//! [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin sidechannel
//! cargo run -p delayguard-bench --release --bin sidechannel -- --smoke
//! ```
//!
//! Two numbers summarize the defense:
//!
//! * **Inference accuracy.** A rank-inference crawler times every tuple
//!   of the `CampaignParams::sidechannel` world once and sorts by
//!   observed response time. Against the unshaped control its Kendall τ
//!   is ≈ 1 (the delay policy is a monotone function of the secret rank
//!   order); against the shaped world τ collapses to the cross-bucket
//!   ceiling (≈ 0.06) and tail recall falls to chance. The adaptive
//!   probe-and-fit attacker is measured the same way.
//! * **Honest-user inflation.** Shaping rounds every delay up to a
//!   bucket edge and adds jitter, so the median-rank user pays
//!   `quantize(d(median)) · (1 + jitter/2)` instead of `d(median)` —
//!   the reported inflation factor is that ratio, measured on the wire.
//!
//! `--smoke` runs the same shape (the campaign is virtual-clock fast)
//! and records the accuracy gates without enforcing them.

use delayguard_bench::report::{Op::*, Report, Scope::*};
use delayguard_testkit::campaign::{Campaign, CampaignParams, RankInferenceReport};
use std::process::ExitCode;
use std::time::Instant;

/// Pinned seed: the bench is a measurement, not a property sweep; the
/// campaign suites cover random seeds.
const SEED: u64 = 2004;

const USER_IP: [u8; 4] = [172, 16, 0, 1];
const CRAWLER_IP: [u8; 4] = [10, 0, 0, 1];
const PROBER_IP: [u8; 4] = [10, 0, 1, 1];

/// One world's measurements: the median-rank user's charge and the full
/// rank-inference sweep.
struct WorldRun {
    median_user_secs: f64,
    report: RankInferenceReport,
    analytic_total: f64,
    analytic_ceiling: f64,
}

fn run_world(shaped: bool) -> WorldRun {
    let mut campaign = Campaign::new(SEED, CampaignParams::sidechannel(shaped));
    let median = campaign.median_rank();
    let probe = campaign.crawl_observations(USER_IP, &[median]);
    let report = campaign.rank_inference_crawl(CRAWLER_IP);
    let analytic_total = if shaped {
        campaign.analytic_shaped_total()
    } else {
        campaign.analytic_total()
    };
    WorldRun {
        median_user_secs: probe.observations[0].charged_secs,
        report,
        analytic_total,
        analytic_ceiling: campaign.analytic_tau_ceiling(),
    }
}

fn main() -> ExitCode {
    let mut report = Report::new("sidechannel");
    let wall = Instant::now();
    let n = CampaignParams::sidechannel(false).n;

    eprintln!("rank-inference sweep, control world (n = {n}, shaping off)");
    let control = run_world(false);
    eprintln!(
        "  tau {:.4}  tail recall {:.3}  adversary total {:.0}s",
        control.report.tau, control.report.tail_recall, control.report.sweep.total_charged_secs
    );

    eprintln!("rank-inference sweep, shaped world");
    let shaped = run_world(true);
    eprintln!(
        "  tau {:.4} (analytic ceiling {:.4})  tail recall {:.3}  adversary total {:.0}s",
        shaped.report.tau,
        shaped.analytic_ceiling,
        shaped.report.tail_recall,
        shaped.report.sweep.total_charged_secs
    );

    let tail_k = (n as usize) / 8;
    eprintln!("adaptive probe-and-fit attacker, both worlds");
    let mut c = Campaign::new(SEED, CampaignParams::sidechannel(false));
    let adaptive_control = c.adaptive_probe_attack(PROBER_IP, 32, tail_k);
    let mut s = Campaign::new(SEED, CampaignParams::sidechannel(true));
    let adaptive_shaped = s.adaptive_probe_attack(PROBER_IP, 32, tail_k);
    eprintln!(
        "  control: fitted exponent {:.3} (true 2.0), tail capture {:.3}; \
         shaped: tail capture {:.3}",
        adaptive_control.fitted_exponent,
        adaptive_control.tail_capture,
        adaptive_shaped.tail_capture
    );

    let inflation = shaped.median_user_secs / control.median_user_secs;
    let control_total = control.report.sweep.total_charged_secs;
    let shaped_total = shaped.report.sweep.total_charged_secs;
    let attack_ratio = shaped_total / control_total;
    let elapsed = wall.elapsed().as_secs_f64();
    eprintln!(
        "median user pays {:.3}s shaped vs {:.3}s raw ({inflation:.2}x); \
         full-table attack pays {attack_ratio:.2}x; {elapsed:.2}s wall",
        shaped.median_user_secs, control.median_user_secs
    );

    let (tau, shaped_tau) = (control.report.tau, shaped.report.tau);
    report
        .param("seed", SEED as f64)
        .param("rows", n as f64)
        .param("tail_k", tail_k as f64);
    for (name, value, unit) in [
        ("control_tau", tau, "tau"),
        ("shaped_tau", shaped_tau, "tau"),
        (
            "analytic_shaped_tau_ceiling",
            shaped.analytic_ceiling,
            "tau",
        ),
        (
            "control_tail_recall",
            control.report.tail_recall,
            "fraction",
        ),
        ("shaped_tail_recall", shaped.report.tail_recall, "fraction"),
        (
            "adaptive_control_fitted_exponent",
            adaptive_control.fitted_exponent,
            "exponent",
        ),
        (
            "adaptive_control_tail_capture",
            adaptive_control.tail_capture,
            "fraction",
        ),
        (
            "adaptive_shaped_tail_capture",
            adaptive_shaped.tail_capture,
            "fraction",
        ),
        (
            "control_median_user_secs",
            control.median_user_secs,
            "virtual s",
        ),
        (
            "shaped_median_user_secs",
            shaped.median_user_secs,
            "virtual s",
        ),
        ("honest_median_inflation", inflation, "x"),
        ("control_adversary_total_secs", control_total, "virtual s"),
        ("shaped_adversary_total_secs", shaped_total, "virtual s"),
        (
            "analytic_control_total_secs",
            control.analytic_total,
            "virtual s",
        ),
        (
            "analytic_shaped_total_secs",
            shaped.analytic_total,
            "virtual s",
        ),
        ("attack_cost_ratio", attack_ratio, "x"),
        ("wall_secs", elapsed, "s"),
    ] {
        report.sample(name, value, unit);
    }
    report
        .gate("control_tau", tau, Ge, 0.9, FullRun)
        .gate("shaped_tau_abs", shaped_tau.abs(), Le, 0.15, FullRun)
        .gate("honest_median_inflation", inflation, Le, 10.0, FullRun)
        .finish()
}
