//! A web-directory provider under extraction attack (paper §4.1).
//!
//! ```text
//! cargo run --release --example web_directory
//! ```
//!
//! Replays a year of Calgary-shaped legitimate traffic through a
//! `GuardedDatabase` — every request a point `SELECT` — then totals what
//! a sequential extraction robot would pay with the learned statistics:
//! the Table 2/3 setup.

use delayguard::core::{AccessDelayPolicy, GuardConfig, GuardPolicy};
use delayguard::sim::{fmt_pct, fmt_secs, per_request, replay, Quantiles};
use delayguard::workload::CalgaryConfig;

fn main() {
    // A directory the size of the paper's Calgary trace.
    let trace = CalgaryConfig {
        objects: 12_179,
        requests: 725_091,
        alpha: 1.5,
        inter_arrival_secs: 43.5,
        seed: 2026,
    };
    println!(
        "directory: {} records; replaying {} legitimate requests...\n",
        trace.objects, trace.requests
    );

    for cap in [1.0, 10.0, 100.0] {
        let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(cap);
        let config = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(policy));
        let result = replay(per_request(trace.key_stream()), trace.objects, config, 1);
        println!("cap = {cap:>5.1} s:");
        println!(
            "  median legitimate-user delay : {}",
            fmt_secs(result.median_user_delay_secs())
        );
        println!(
            "  p99 legitimate-user delay    : {}",
            fmt_secs(Quantiles::of(result.delays.clone()).p99())
        );
        println!(
            "  full-extraction delay        : {}  ({} of the N x cap maximum)",
            fmt_secs(result.adversary_total_secs),
            fmt_pct(result.fraction_of_max()),
        );
        let ratio = result.adversary_total_secs / result.median_user_delay_secs().max(1e-9);
        println!("  adversary / median-user      : {ratio:.2e}\n");
    }

    println!("raising the cap punishes extraction without touching the median user.");
}
