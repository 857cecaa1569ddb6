//! The update-rate defense: whatever you steal is already stale (§3).
//!
//! ```text
//! cargo run --release --example freshness_defense
//! ```
//!
//! When access patterns are uniform the popularity scheme has nothing to
//! exploit — but update rates are rarely uniform. Charging delay inversely
//! to a tuple's update rate guarantees (Eq. 12) that by the time an
//! extraction finishes, a tunable fraction of the copy is obsolete. Each
//! target is checked on a `GuardedDatabase` that has learned the rates.

use delayguard::core::{GuardConfig, GuardPolicy, UpdateDelayPolicy};
use delayguard::sim::{fmt_pct, fmt_secs, median_of, update_skew_delays};
use delayguard::workload::UpdateRates;

fn main() {
    let n = 50_000u64;
    let alpha = 1.0;
    let rates = UpdateRates::zipf(n, alpha, n as f64, 7);
    println!(
        "dataset: {n} tuples, Zipf({alpha}) update rates, {:.0} updates/s total\n",
        rates.total_rate()
    );

    // Pick c for a target staleness guarantee, then price every tuple.
    for target in [0.25, 0.5, 0.9] {
        let policy = UpdateDelayPolicy::for_staleness(target, alpha).with_cap(10.0);
        let config = GuardConfig::paper_default().with_policy(GuardPolicy::UpdateRate(policy));
        let delays = update_skew_delays(&rates, config);
        let extraction_secs: f64 = delays.iter().sum();
        println!("target staleness {:>4}:", fmt_pct(target));
        println!("  chosen c                    : {:.4}", policy.c);
        println!(
            "  median user delay (uniform) : {}",
            fmt_secs(median_of(delays))
        );
        println!(
            "  extraction takes            : {}",
            fmt_secs(extraction_secs)
        );
        println!(
            "  stale on completion         : {} (Eq. 10)",
            fmt_pct(rates.stale_fraction(extraction_secs))
        );
        println!(
            "  Eq. 12 prediction           : {}\n",
            fmt_pct(policy.smax(alpha))
        );
    }

    println!("the adversary can have speed or freshness — never both.");
}
