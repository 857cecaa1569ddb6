//! Differential test: `delayguard_sim::replay` (the guard's exact
//! `execute_at` path, which prices Tables 1–4) against a reference loop
//! over a bare `FrequencyTracker` and `AccessDelayPolicy::delay`.
//!
//! The reference prices each request from the state left by the ones
//! before it, then advances the decay clock to the request's issue time
//! and records it — what the guard does per tuple. Every delay, and the
//! adversary total, must agree bit for bit.
//!
//! Two inputs cover the paper's two decay granularities:
//!
//! * a Calgary slice decayed per request (`GlobalRequests`, request `i`
//!   issued at `i + 1`), as in Table 3;
//! * a box-office slice decayed per week (`RawCount`, week `w`'s requests
//!   issued at `w`), as in Table 4.

use delayguard_core::access::FmaxMode;
use delayguard_core::{AccessDelayPolicy, GuardConfig, GuardPolicy};
use delayguard_popularity::{DecaySchedule, FrequencyTracker};
use delayguard_sim::{per_request, replay};
use delayguard_workload::{BoxOfficeConfig, CalgaryConfig, WEEK_SECS};

/// Replay `requests` through the guard and through the reference loop,
/// and demand identical bits.
fn check(requests: &[(f64, u64)], objects: u64, policy: AccessDelayPolicy, rate: f64) {
    let config = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(policy))
        .with_access_decay(rate);
    let result = replay(requests.iter().copied(), objects, config, 1);
    assert_eq!(result.delays.len(), requests.len());

    // The replay inserts every id at t = 0 in key order; ranks are
    // invariant under renaming keys, so the reference tracks ids where
    // the guard tracks row ids.
    let mut tracker = FrequencyTracker::new(DecaySchedule::new(rate));
    for key in 0..objects {
        tracker.ensure_tracked(key);
    }
    for (i, (&(now, key), &charged)) in requests.iter().zip(&result.delays).enumerate() {
        let expected = policy.delay(&tracker, objects, key);
        assert_eq!(
            charged.to_bits(),
            expected.to_bits(),
            "request {i} (t = {now}, key {key}): guard {charged}, reference {expected}"
        );
        tracker.advance_to(now);
        tracker.record(key);
    }
    let adversary: f64 = (0..objects)
        .map(|key| policy.delay(&tracker, objects, key))
        .sum();
    assert_eq!(
        result.adversary_total_secs.to_bits(),
        adversary.to_bits(),
        "adversary: guard {}, reference {adversary}",
        result.adversary_total_secs
    );
}

#[test]
fn calgary_slice_decayed_per_request() {
    let cfg = CalgaryConfig::paper();
    let requests: Vec<(f64, u64)> = per_request(cfg.key_stream().take(2_000)).collect();
    let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0);
    assert_eq!(policy.fmax_mode, FmaxMode::GlobalRequests);
    check(&requests, cfg.objects, policy, 1.00002);
}

#[test]
fn box_office_slice_decayed_per_week() {
    let trace = BoxOfficeConfig::default().generate().trace();
    let requests: Vec<(f64, u64)> = trace
        .requests
        .iter()
        .map(|r| ((r.time / WEEK_SECS).floor(), r.key))
        .take_while(|&(week, _)| week < 3.0)
        .collect();
    assert!(requests.iter().any(|&(week, _)| week == 2.0), "three weeks");
    let policy = AccessDelayPolicy::new(1.5, 1.0)
        .with_cap(10.0)
        .with_fmax_mode(FmaxMode::RawCount);
    check(&requests, trace.objects, policy, 2.0);
}
