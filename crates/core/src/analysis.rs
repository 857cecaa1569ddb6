//! Closed-form analysis from §2.1–§2.2 and §3.1 of the paper.
//!
//! These functions reproduce the paper's equations exactly (by direct
//! summation where the paper gives a sum, by the stated closed form where
//! it gives one), so simulations can be cross-checked against theory in
//! `EXPERIMENTS.md` and the `analysis_vs_sim` integration test.

use crate::shaping::DelayShaping;
use delayguard_workload::{generalized_harmonic, power_sum};

/// Eq. 1: delay of the `i`-th most popular of `n` tuples.
pub fn delay_at_rank(n: u64, alpha: f64, beta: f64, fmax: f64, rank: u64) -> f64 {
    assert!(n > 0 && rank >= 1 && fmax > 0.0);
    (rank as f64).powf(alpha + beta) / (n as f64 * fmax)
}

/// Eq. 2: total (uncapped) delay to extract all `n` tuples.
pub fn adversary_total(n: u64, alpha: f64, beta: f64, fmax: f64) -> f64 {
    assert!(n > 0 && fmax > 0.0);
    power_sum(n, alpha + beta) / (n as f64 * fmax)
}

/// Eq. 5 inverted: the cap rank `M` at which delay reaches `dmax`.
pub fn cap_rank(n: u64, alpha: f64, beta: f64, fmax: f64, dmax: f64) -> u64 {
    assert!(n > 0 && fmax > 0.0 && dmax >= 0.0);
    let exponent = alpha + beta;
    if exponent <= 0.0 {
        return 1;
    }
    let m = (dmax * n as f64 * fmax).powf(1.0 / exponent);
    (m.ceil() as u64).clamp(1, n)
}

/// Eq. 6: total delay to extract all `n` tuples under a `dmax` cap.
pub fn adversary_total_capped(n: u64, alpha: f64, beta: f64, fmax: f64, dmax: f64) -> f64 {
    let m = cap_rank(n, alpha, beta, fmax, dmax);
    let below: f64 = (1..=m)
        .map(|i| delay_at_rank(n, alpha, beta, fmax, i).min(dmax))
        .sum();
    below + (n - m) as f64 * dmax
}

/// The exact median *request* rank for a Zipf(α) workload over `n` items:
/// the smallest `i` such that `H(i, α) ≥ H(n, α)/2`. (Eq. 3 gives its
/// asymptotics; this is the finite-n value.)
pub fn median_rank_exact(n: u64, alpha: f64) -> u64 {
    assert!(n > 0);
    let half = generalized_harmonic(n, alpha) / 2.0;
    let mut acc = 0.0;
    for i in 1..=n {
        acc += (i as f64).powf(-alpha);
        if acc >= half {
            return i;
        }
    }
    n
}

/// Eq. 4 (and Eq. 7 with a cap): the adversary-to-median delay ratio,
/// computed exactly for finite `n`. This is the paper's headline quantity:
/// "orders of magnitude higher than that for legitimate user queries".
pub fn delay_ratio(n: u64, alpha: f64, beta: f64, fmax: f64, dmax: Option<f64>) -> f64 {
    let med = median_rank_exact(n, alpha);
    let d_med = match dmax {
        Some(cap) => delay_at_rank(n, alpha, beta, fmax, med).min(cap),
        None => delay_at_rank(n, alpha, beta, fmax, med),
    };
    let d_total = match dmax {
        Some(cap) => adversary_total_capped(n, alpha, beta, fmax, cap),
        None => adversary_total(n, alpha, beta, fmax),
    };
    d_total / d_med
}

/// Eq. 11/12: exact maximum stale fraction for a Zipf(α) update
/// distribution of `n` items with delay scale `c`: the fraction `S` such
/// that the `(S·N)`-th ranked item's update period equals the total
/// extraction delay. Also see [`smax_asymptotic`].
pub fn stale_fraction_exact(n: u64, alpha: f64, c: f64) -> f64 {
    assert!(n > 0 && alpha > 0.0 && c > 0.0);
    // d_total = (c/N) * sum(i^alpha) / rmax ; item i stale iff
    // 1/r_i <= d_total, i.e. i^alpha / rmax <= d_total.
    // => i_stale_max = (d_total * rmax)^(1/alpha); S = i/N.
    let d_total_rmax = (c / n as f64) * power_sum(n, alpha);
    let i_max = d_total_rmax.powf(1.0 / alpha);
    (i_max / n as f64).min(1.0)
}

/// Eq. 12: the paper's asymptotic approximation
/// `S_max ≈ (c/(1+α))^(1/α)`.
pub fn smax_asymptotic(alpha: f64, c: f64) -> f64 {
    assert!(alpha > 0.0 && c > 0.0);
    (c / (1.0 + alpha)).powf(1.0 / alpha).min(1.0)
}

/// Parallel (Sybil) attack economics (§2.4): if registration of new
/// identities is limited to one per `t_register` seconds, an adversary
/// wanting wall-clock `T_total / k` must first spend `k · t_register`
/// accumulating identities. The optimum `k` minimizes
/// `k·t_register + T_total/k`; this returns `(k_opt, best_wall_clock)`.
pub fn sybil_optimum(total_delay: f64, t_register: f64) -> (f64, f64) {
    assert!(total_delay >= 0.0 && t_register > 0.0);
    let k = (total_delay / t_register).sqrt().max(1.0);
    (k, k * t_register + total_delay / k)
}

/// The registration interval that makes a parallel attack no better than a
/// serial one by a factor `slowdown ∈ (0, 1]`: choose `t_register` so the
/// optimal parallel wall clock is at least `slowdown · total_delay`.
pub fn registration_interval_for(total_delay: f64, slowdown: f64) -> f64 {
    assert!(total_delay > 0.0 && slowdown > 0.0 && slowdown <= 1.0);
    // best wall clock = 2·sqrt(t·T)  =>  t = (slowdown·T)^2 / (4T).
    (slowdown * total_delay).powi(2) / (4.0 * total_delay)
}

// ---- cluster (sharded front door) closed forms --------------------------

/// The Eq. 2 adversary total against `nodes` *un-replicated* shards — the
/// cluster's negative control.
///
/// Rows are partitioned round-robin by popularity rank (rank `i` lives on
/// node `(i − 1) mod nodes`), the model for a hash partition uncorrelated
/// with popularity. Each node prices from its **local** view only: local
/// cardinality `m ≈ n/nodes`, local relative `f_max` (its own hottest
/// row's share of its own traffic), and local ranks. A shard-aware
/// crawler querying each row at its owner therefore pays
///
/// ```text
///   Σ_j  P(m_j, α+β) / (m_j · f_max,j),
///   f_max,j = (j+1)^(−α) / Σ_{i ≡ j (mod N)} i^(−α)
/// ```
///
/// which collapses toward `(N+1)/(2N²)` of [`adversary_total`] for
/// α = β = 1 — the Eq. 4 defeat the replicated cluster must close (its
/// merged views restore global `n`, global ranks, and global `f_max`).
pub fn sharded_unreplicated_total(n: u64, nodes: u64, alpha: f64, beta: f64) -> f64 {
    assert!(n > 0 && nodes > 0);
    let mut total = 0.0;
    for j in 0..nodes.min(n) {
        // Node j's rows are global ranks j+1, j+1+N, j+1+2N, ...
        let m = (n - j).div_ceil(nodes);
        let mut local_sum = 0.0;
        let mut i = j + 1;
        while i <= n {
            local_sum += (i as f64).powf(-alpha);
            i += nodes;
        }
        let fmax_local = ((j + 1) as f64).powf(-alpha) / local_sum;
        total += power_sum(m, alpha + beta) / (m as f64 * fmax_local);
    }
    total
}

/// Extra fractional tolerance for cross-checking a *replicated* cluster
/// campaign against the single-node closed forms (Eq. 3 / Eq. 4 with a
/// replication-lag term).
///
/// Between delta syncs a node prices from remote counts that are stale by
/// at most `lag_secs`, so any count — and hence `f_max` and every
/// `d(i)` — can be off by at most the traffic one origin adds in that
/// window relative to the warmed baseline: `rate · lag / warm_events`.
/// Campaigns assert `|sim − theory| ≤ (base_tol + this) · theory`.
pub fn replication_lag_slack(warm_events: f64, event_rate: f64, lag_secs: f64) -> f64 {
    assert!(warm_events > 0.0 && event_rate >= 0.0 && lag_secs >= 0.0);
    (event_rate * lag_secs) / warm_events
}

// ---- shaped-delay (timing side channel) closed forms ---------------------

/// Eq. 1 with the Eq. 5 cap and the [`DelayShaping`] noise term: the
/// *expected* delay the shaped pipeline charges the `i`-th ranked tuple.
/// The raw capped delay is rounded up to its geometric bucket edge and
/// the uniform jitter averages to `1 + jitter_frac/2` of the edge. With
/// shaping disabled this is exactly the raw capped Eq. 1 value.
pub fn shaped_delay_at_rank(
    n: u64,
    alpha: f64,
    beta: f64,
    fmax: f64,
    dmax: f64,
    shaping: &DelayShaping,
    rank: u64,
) -> f64 {
    shaping.expected(delay_at_rank(n, alpha, beta, fmax, rank).min(dmax))
}

/// Eq. 4's numerator re-derived with the quantization/noise term: the
/// expected total delay a crawler of all `n` tuples is charged under
/// shaping. Direct summation of [`shaped_delay_at_rank`] — quantization
/// rounds up, so this is ≥ [`adversary_total_capped`], never below.
pub fn shaped_adversary_total(
    n: u64,
    alpha: f64,
    beta: f64,
    fmax: f64,
    dmax: f64,
    shaping: &DelayShaping,
) -> f64 {
    (1..=n)
        .map(|i| shaped_delay_at_rank(n, alpha, beta, fmax, dmax, shaping, i))
        .sum()
}

/// Eq. 3's median-user delay re-derived with the noise term: the expected
/// shaped delay of the median *request* (the [`median_rank_exact`] rank
/// of the Zipf(α) workload). The honest-user inflation from shaping is
/// this value over the raw capped median delay.
pub fn shaped_median_user_delay(
    n: u64,
    alpha: f64,
    beta: f64,
    fmax: f64,
    dmax: f64,
    shaping: &DelayShaping,
) -> f64 {
    let med = median_rank_exact(n, alpha);
    shaped_delay_at_rank(n, alpha, beta, fmax, dmax, shaping, med)
}

/// The information-theoretic ceiling on rank inference under shaping: the
/// fraction of tuple pairs whose *bucket* still orders them.
///
/// Within a bucket every tuple pays the same edge and ordering is jitter
/// noise (expected pair contribution 0); only cross-bucket pairs keep
/// their true order. Kendall tau-a of a timing attack therefore cannot
/// exceed `cross_pairs / C(n, 2)` in expectation — the quantity the
/// sidechannel campaigns compare their measured tau against.
pub fn shaping_tau_ceiling(
    n: u64,
    alpha: f64,
    beta: f64,
    fmax: f64,
    dmax: f64,
    shaping: &DelayShaping,
) -> f64 {
    assert!(n >= 2);
    // Bucket sizes: ranks sharing a quantized edge.
    let mut sizes: Vec<u64> = Vec::new();
    let mut last_edge = f64::NAN;
    for i in 1..=n {
        let edge = shaping.quantize(delay_at_rank(n, alpha, beta, fmax, i).min(dmax));
        if edge == last_edge {
            *sizes.last_mut().expect("size exists when edge repeats") += 1;
        } else {
            sizes.push(1);
            last_edge = edge;
        }
    }
    let total_pairs = n as f64 * (n - 1) as f64 / 2.0;
    let within: f64 = sizes.iter().map(|&s| s as f64 * (s - 1) as f64 / 2.0).sum();
    (total_pairs - within) / total_pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_at_rank_matches_formula() {
        // N=100, alpha+beta=2, fmax=0.5: d(i) = i^2/50.
        let d = delay_at_rank(100, 1.0, 1.0, 0.5, 10);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn adversary_total_is_sum_of_ranks() {
        let n = 50;
        let (a, b, f) = (1.0, 0.5, 0.3);
        let direct: f64 = (1..=n).map(|i| delay_at_rank(n, a, b, f, i)).sum();
        assert!((adversary_total(n, a, b, f) - direct).abs() / direct < 1e-12);
    }

    #[test]
    fn capped_total_below_uncapped_and_above_floor() {
        let (n, a, b, f, cap) = (10_000u64, 1.5, 1.0, 0.4, 10.0);
        let capped = adversary_total_capped(n, a, b, f, cap);
        let uncapped = adversary_total(n, a, b, f);
        assert!(capped < uncapped);
        // At least the tail pays full cap.
        let m = cap_rank(n, a, b, f, cap);
        assert!(capped >= (n - m) as f64 * cap);
        assert!(capped <= n as f64 * cap + 1e-9);
    }

    #[test]
    fn median_rank_exact_regimes() {
        // alpha > 1: logarithmic — tiny even for a million items.
        assert!(median_rank_exact(1_000_000, 1.5) < 50);
        // alpha = 1: ~sqrt(N).
        let m = median_rank_exact(1_000_000, 1.0);
        assert!((500..5_000).contains(&m), "got {m}");
        // alpha < 1: a constant fraction of N.
        let m = median_rank_exact(1_000_000, 0.5);
        assert!(m > 100_000, "got {m}");
    }

    #[test]
    fn ratio_explodes_with_n_for_high_skew() {
        // Eq. 4: for alpha >= 1 the ratio grows super-linearly in N.
        let f = 0.4;
        let r_small = delay_ratio(1_000, 1.5, 1.0, f, None);
        let r_big = delay_ratio(100_000, 1.5, 1.0, f, None);
        assert!(r_big / r_small > 100.0, "{r_small} -> {r_big}");
        // And stays "orders of magnitude" even with a cap.
        let r_capped = delay_ratio(100_000, 1.5, 1.0, f, Some(10.0));
        assert!(r_capped > 1e4, "capped ratio {r_capped}");
    }

    #[test]
    fn stale_fraction_exact_close_to_asymptotic() {
        for &alpha in &[0.5, 1.0, 1.5, 2.0] {
            let c = 0.5;
            let exact = stale_fraction_exact(1_000_000, alpha, c);
            let approx = smax_asymptotic(alpha, c);
            let rel = (exact - approx).abs() / approx;
            assert!(
                rel < 0.05,
                "alpha {alpha}: exact {exact} vs approx {approx}"
            );
        }
    }

    #[test]
    fn stale_fraction_monotone_in_c() {
        let s1 = stale_fraction_exact(10_000, 1.0, 0.2);
        let s2 = stale_fraction_exact(10_000, 1.0, 0.8);
        assert!(s2 > s1);
        assert!(stale_fraction_exact(10_000, 1.0, 1e9) <= 1.0);
    }

    #[test]
    fn sybil_optimum_balances_terms() {
        let (k, wall) = sybil_optimum(1_000_000.0, 100.0);
        assert!((k - 100.0).abs() < 1.0);
        assert!((wall - 20_000.0).abs() < 10.0);
        // Registering faster helps the adversary.
        let (_, wall_fast) = sybil_optimum(1_000_000.0, 1.0);
        assert!(wall_fast < wall);
    }

    #[test]
    fn registration_interval_achieves_slowdown() {
        let total = 1_000_000.0;
        for slowdown in [0.1, 0.5, 1.0] {
            let t = registration_interval_for(total, slowdown);
            let (_, wall) = sybil_optimum(total, t);
            assert!(
                wall >= slowdown * total * 0.999,
                "slowdown {slowdown}: wall {wall}"
            );
        }
    }

    #[test]
    fn one_shard_is_the_single_node_total() {
        let (n, a, b) = (1100u64, 1.0, 1.0);
        let fmax = 1.0 / generalized_harmonic(n, a);
        let single = adversary_total(n, a, b, fmax);
        let sharded = sharded_unreplicated_total(n, 1, a, b);
        assert!((sharded - single).abs() / single < 1e-12);
    }

    #[test]
    fn unreplicated_shards_defeat_the_adversary_total() {
        // The campaign's parameters: n = 1100, α = β = 1, 4 nodes.
        let (n, a, b) = (1100u64, 1.0, 1.0);
        let single = sharded_unreplicated_total(n, 1, a, b);
        let four = sharded_unreplicated_total(n, 4, a, b);
        let ratio = four / single;
        // α = β = 1 collapses toward (N+1)/(2N²) ≈ 0.156 of the total.
        assert!(
            (0.10..0.20).contains(&ratio),
            "expected the Eq. 4 defeat, got ratio {ratio}"
        );
        // More shards, bigger defeat.
        let eight = sharded_unreplicated_total(n, 8, a, b);
        assert!(eight < four && four < single);
    }

    #[test]
    fn unreplicated_total_handles_uneven_and_degenerate_splits() {
        // n not divisible by nodes still covers every rank exactly once.
        let direct: f64 = sharded_unreplicated_total(10, 3, 1.0, 1.0);
        assert!(direct.is_finite() && direct > 0.0);
        // More nodes than rows degenerates to one row per node, each
        // priced as its own universe: m = 1, fmax = 1, d = 1.
        let tiny = sharded_unreplicated_total(3, 8, 1.0, 1.0);
        assert!((tiny - 3.0).abs() < 1e-12, "got {tiny}");
    }

    #[test]
    fn shaped_forms_reduce_to_raw_when_off() {
        let (n, a, b) = (256u64, 1.0, 1.0);
        let fmax = 1.0 / generalized_harmonic(n, a);
        let cap = 2000.0;
        let off = DelayShaping::off();
        let raw_total = adversary_total_capped(n, a, b, fmax, cap);
        assert!((shaped_adversary_total(n, a, b, fmax, cap, &off) - raw_total).abs() < 1e-9);
        let med = median_rank_exact(n, a);
        let raw_med = delay_at_rank(n, a, b, fmax, med).min(cap);
        assert!((shaped_median_user_delay(n, a, b, fmax, cap, &off) - raw_med).abs() < 1e-12);
        // Unshaped, every pair of distinct raw delays stays ordered.
        assert!((shaping_tau_ceiling(n, a, b, fmax, cap, &off) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shaping_only_raises_prices() {
        let (n, a, b) = (256u64, 1.0, 1.0);
        let fmax = 1.0 / generalized_harmonic(n, a);
        let cap = 2000.0;
        let s = DelayShaping::new(2000.0, 400.0, 0.1, 7);
        assert!(
            shaped_adversary_total(n, a, b, fmax, cap, &s)
                > adversary_total_capped(n, a, b, fmax, cap)
        );
        for rank in [1, 13, 100, 256] {
            let raw = delay_at_rank(n, a, b, fmax, rank).min(cap);
            assert!(shaped_delay_at_rank(n, a, b, fmax, cap, &s, rank) >= raw);
        }
    }

    #[test]
    fn sidechannel_geometry_collapses_the_tau_ceiling() {
        // The campaign's world: n = 256, α = β = 1, cap above the max raw
        // delay, two-bucket geometry (edges 2000 and 5). The top bucket
        // holds all but the hottest handful of ranks, so almost every
        // pair becomes a tie.
        let (n, a, b) = (256u64, 1.0, 1.0);
        let fmax = 1.0 / generalized_harmonic(n, a);
        let cap = 2000.0;
        let s = DelayShaping::new(2000.0, 400.0, 0.1, 7);
        let ceiling = shaping_tau_ceiling(n, a, b, fmax, cap, &s);
        assert!(
            ceiling < 0.12,
            "tau ceiling {ceiling} too high for the campaign's near-chance band"
        );
        // Sanity: the unshaped world keeps full rank information.
        assert!(shaping_tau_ceiling(n, a, b, fmax, cap, &DelayShaping::off()) > 0.999);
    }

    #[test]
    fn replication_lag_slack_scales_linearly() {
        assert_eq!(replication_lag_slack(1e6, 0.0, 30.0), 0.0);
        let s1 = replication_lag_slack(1e6, 100.0, 5.0);
        let s2 = replication_lag_slack(1e6, 100.0, 10.0);
        assert!((s2 - 2.0 * s1).abs() < 1e-15);
        assert!(s1 > 0.0 && s1 < 0.01);
    }
}
