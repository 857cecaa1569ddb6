//! Theory-versus-simulation cross-checks: the paper's closed forms
//! (Eq. 2–7, 11–12) must agree with the guard on matched setups.

use delayguard::core::analysis;
use delayguard::core::{AccessDelayPolicy, GuardConfig, GuardPolicy, UpdateDelayPolicy};
use delayguard::popularity::FrequencyTracker;
use delayguard::sim::{median_of, per_request, replay, update_skew_delays};
use delayguard::workload::{generalized_harmonic, ExtractionOrder, UpdateRates, Zipf};

/// Build a tracker holding the *exact* Zipf counts (no sampling noise) so
/// closed forms and the policy see the same world.
fn exact_zipf_tracker(n: u64, alpha: f64, total_requests: f64) -> FrequencyTracker {
    let zipf = Zipf::new(n, alpha);
    let mut t = FrequencyTracker::no_decay();
    for rank in 1..=n {
        // record_weighted keeps one "event" per call, so scale by count.
        let expected = zipf.probability(rank) * total_requests;
        t.record_weighted(rank - 1, expected);
    }
    t
}

#[test]
fn adversary_total_matches_eq6_with_exact_counts() {
    let (n, alpha, beta, cap) = (5_000u64, 1.5, 1.0, 10.0);
    let tracker = exact_zipf_tracker(n, alpha, 1.0);
    // With exact counts the measured fmax equals the Zipf fmax...
    let fmax_theory = 1.0 / generalized_harmonic(n, alpha);
    // (events = n here, so normalize the tracker's estimate accordingly.)
    let policy = AccessDelayPolicy::new(alpha, beta)
        .with_cap(cap)
        .with_fmax_mode(delayguard::core::access::FmaxMode::DecayedTotal);
    // Every tuple is tracked, so extraction pays each one's delay once.
    let measured: f64 = (0..n).map(|key| policy.delay(&tracker, n, key)).sum();
    let theory = analysis::adversary_total_capped(n, alpha, beta, fmax_theory, cap);
    let rel = (measured - theory).abs() / theory;
    // Rank bucketing ties keys within ~1.6% count bands; the totals agree
    // within a few percent.
    assert!(
        rel < 0.05,
        "measured {measured} vs theory {theory} (rel {rel})"
    );
}

#[test]
fn median_request_rank_matches_eq3_exact_form() {
    let n = 50_000u64;
    for alpha in [0.5, 1.0, 1.5] {
        let zipf = Zipf::new(n, alpha);
        let exact = analysis::median_rank_exact(n, alpha);
        assert_eq!(
            zipf.median_rank(),
            exact,
            "alpha {alpha}: sampler and analysis disagree"
        );
    }
}

#[test]
fn replayed_median_tracks_analytic_median_delay() {
    // Replay a large synthetic trace, then compare the measured median
    // user delay against d(i_med) from Eq. 1 with learned fmax.
    let n = 2_000u64;
    let alpha = 1.5;
    let cfg = delayguard::workload::CalgaryConfig {
        objects: n,
        requests: 60_000,
        alpha,
        inter_arrival_secs: 1.0,
        seed: 4,
    };
    let policy = AccessDelayPolicy::new(alpha, 1.0).with_cap(10.0);
    let config = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(policy));
    let result = replay(per_request(cfg.key_stream()), n, config, 1);
    // Steady state: use the last quarter of delays.
    let tail = &result.delays[result.delays.len() * 3 / 4..];
    let measured_median = median_of(tail.to_vec());
    let fmax = 1.0 / generalized_harmonic(n, alpha);
    let i_med = analysis::median_rank_exact(n, alpha);
    let analytic = analysis::delay_at_rank(n, alpha, 1.0, fmax, i_med).min(10.0);
    // Within a small factor: learned ranks and fmax carry sampling noise,
    // and rank ties shift the median request's rank by a few places.
    assert!(
        measured_median <= analytic * 8.0 && measured_median >= analytic / 8.0,
        "measured {measured_median} vs analytic {analytic}"
    );
}

#[test]
fn staleness_simulation_matches_eq11_exact_form() {
    let n = 5_000u64;
    for alpha in [0.5, 1.0, 2.0] {
        let c = 0.8;
        let rates = UpdateRates::zipf(n, alpha, n as f64, 5);
        let policy = UpdateDelayPolicy::new(c).with_cap(f64::INFINITY);
        let config = GuardConfig::paper_default().with_policy(GuardPolicy::UpdateRate(policy));
        let extraction_secs: f64 = update_skew_delays(&rates, config).iter().sum();
        let simulated = rates.stale_fraction(extraction_secs);
        let exact = analysis::stale_fraction_exact(n, alpha, c);
        assert!(
            (simulated - exact).abs() < 0.03,
            "alpha {alpha}: simulated {simulated} vs exact {exact}"
        );
        // And Eq. 12's asymptotic form is close to the exact finite-n one.
        let asym = analysis::smax_asymptotic(alpha, c);
        assert!(
            (exact - asym).abs() < 0.05,
            "alpha {alpha}: exact {exact} vs asymptotic {asym}"
        );
    }
}

#[test]
fn delay_ratio_grows_orders_of_magnitude_in_n() {
    // The headline Eq. 4/7 claim: for alpha >= 1 the adversary-to-user
    // ratio explodes with database size even under a cap.
    let fmax = 0.3;
    let mut last = 0.0;
    for n in [1_000u64, 10_000, 100_000] {
        let r = analysis::delay_ratio(n, 1.5, 1.0, fmax, Some(10.0));
        assert!(r > last * 5.0, "ratio must grow strongly: {last} -> {r}");
        last = r;
    }
    assert!(last > 1e6, "at 100k tuples the ratio is enormous: {last}");
}

#[test]
fn sybil_economics_consistent_with_plan_partitioning() {
    use delayguard::workload::SybilPlan;
    // Uniform capped delays: k identities divide the wall clock by k, so
    // the optimum matches the closed form.
    let n = 10_000u64;
    let cap = 10.0;
    let total = n as f64 * cap;
    let t_register = 100.0;
    let (k_opt, wall_opt) = analysis::sybil_optimum(total, t_register);
    // Simulate the adversary at the analytic optimum fleet size.
    let plan = SybilPlan {
        identities: k_opt.round() as usize,
        order: ExtractionOrder::Sequential,
    };
    let extraction_wall = plan.wall_clock(n, |_| cap);
    let registration_wall = plan.identities as f64 * t_register;
    let simulated = extraction_wall + registration_wall;
    let rel = (simulated - wall_opt).abs() / wall_opt;
    assert!(
        rel < 0.05,
        "simulated {simulated} vs closed form {wall_opt}"
    );
}
