//! Defense-in-depth integration: access-rate, update-rate, and hybrid
//! policies against sequential, shuffled, Sybil, and storefront
//! adversaries.

use delayguard::core::{
    AccessDelayPolicy, ChargingModel, GuardConfig, GuardPolicy, GuardedDatabase, UpdateDelayPolicy,
};
use delayguard::sim::{median_of, per_request, replay, update_skew_delays, ReplayResult};
use delayguard::workload::{
    CalgaryConfig, ExtractionOrder, Rng, StorefrontObserver, SybilPlan, UpdateRates, Zipf,
};

/// A guard that has learned Zipf(1.5) popularity from `requests` point
/// reads over `objects` rows.
fn learned_guard(objects: u64, requests: u64) -> ReplayResult {
    let trace = CalgaryConfig {
        objects,
        requests,
        alpha: 1.5,
        inter_arrival_secs: 1.0,
        seed: 31,
    };
    let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0);
    let config = GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(policy));
    replay(per_request(trace.key_stream()), objects, config, 1)
}

/// Total an extraction robot pays reading every tuple once in `order`.
fn extraction_total(guard: &ReplayResult, objects: u64, order: ExtractionOrder) -> f64 {
    order
        .keys(objects)
        .into_iter()
        .map(|k| guard.tuple_delay(k))
        .sum()
}

#[test]
fn extraction_order_cannot_dodge_the_total() {
    let objects = 2_000;
    let guard = learned_guard(objects, 40_000);
    let seq = extraction_total(&guard, objects, ExtractionOrder::Sequential);
    let shuf = extraction_total(&guard, objects, ExtractionOrder::Shuffled(7));
    assert!((seq - shuf).abs() < 1e-6);
    assert!(seq / guard.max_possible_secs > 0.5);
}

#[test]
fn sybil_parallelism_bounded_by_partition_max() {
    let objects = 2_000u64;
    let guard = learned_guard(objects, 40_000);
    let serial = extraction_total(&guard, objects, ExtractionOrder::Sequential);
    for identities in [2usize, 10, 100] {
        let plan = SybilPlan {
            identities,
            order: ExtractionOrder::Sequential,
        };
        let wall = plan.wall_clock(objects, |k| guard.tuple_delay(k));
        // Parallelism divides the wall clock by ~k but never below
        // serial/k (round-robin balance) and never beats the per-tuple cap
        // structure by more than the fleet size.
        assert!(wall <= serial / identities as f64 * 1.3 + 10.0);
        assert!(wall >= serial / identities as f64 * 0.7 - 10.0);
    }
}

#[test]
fn storefront_coverage_grows_sublinearly_under_skew() {
    // A storefront only sees what its customers ask: under Zipf(1.5) its
    // coverage of a 10k-object universe crawls even after 100k forwards.
    let objects = 10_000u64;
    let zipf = Zipf::new(objects, 1.5);
    let mut rng = Rng::new(17);
    let mut storefront = StorefrontObserver::new(objects);
    let mut coverage_at = Vec::new();
    for i in 1..=100_000u64 {
        storefront.forward(zipf.sample(&mut rng) - 1);
        if i.is_power_of_two() {
            coverage_at.push((i, storefront.coverage_fraction()));
        }
    }
    assert!(
        storefront.coverage_fraction() < 0.6,
        "storefront covered {}",
        storefront.coverage_fraction()
    );
    // Coverage per forwarded query decays: early queries discover new
    // objects almost every time, late ones mostly hit the cache.
    let per_request_rate = |w: &[(u64, f64)]| (w[1].1 - w[0].1) / (w[1].0 - w[0].0) as f64;
    let windows: Vec<&[(u64, f64)]> = coverage_at.windows(2).collect();
    let early = per_request_rate(windows[1]);
    let late = per_request_rate(windows[windows.len() - 1]);
    assert!(
        late < early / 10.0,
        "late rate {late} vs early rate {early}"
    );
}

#[test]
fn hybrid_policy_covers_both_skew_axes() {
    // A table where key 0 is access-hot but never updated, and key 1 is
    // update-hot but rarely read: the hybrid policy protects against
    // both extraction signals at once.
    let config = GuardConfig {
        policy: GuardPolicy::Hybrid(
            AccessDelayPolicy::new(1.0, 1.0).with_cap(10.0),
            UpdateDelayPolicy::new(1.0).with_cap(10.0),
        ),
        charging: ChargingModel::PerTupleSum,
        access_decay_rate: 1.0,
        update_decay_rate: 1.0,
        ..GuardConfig::paper_default()
    };
    let db = GuardedDatabase::new(config);
    db.execute_at("CREATE TABLE t (id INT NOT NULL, v TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    for i in 0..50 {
        db.execute_at(&format!("INSERT INTO t VALUES ({i}, 'v')"), 0.0)
            .unwrap();
    }
    // Key 0: heavy reads. Key 1: heavy updates.
    for t in 0..300 {
        db.execute_at("SELECT * FROM t WHERE id = 0", t as f64)
            .unwrap();
        db.execute_at("UPDATE t SET v = 'u' WHERE id = 1", t as f64)
            .unwrap();
    }
    let read_hot = db
        .execute_at("SELECT * FROM t WHERE id = 0", 400.0)
        .unwrap();
    let update_hot = db
        .execute_at("SELECT * FROM t WHERE id = 1", 400.0)
        .unwrap();
    let cold = db
        .execute_at("SELECT * FROM t WHERE id = 30", 400.0)
        .unwrap();
    // Key 0 is access-popular but update-cold: the hybrid still charges
    // the update cap (freshness defense dominates).
    assert_eq!(read_hot.delay_secs, 10.0);
    // Key 1 is update-hot but access-cold: access cap dominates.
    assert_eq!(update_hot.delay_secs, 10.0);
    // Key 30 is cold on both axes: capped either way.
    assert_eq!(cold.delay_secs, 10.0);
}

#[test]
fn update_rate_defense_under_uniform_access() {
    // The §3 scenario end-to-end: uniform access gives the access scheme
    // nothing, but update skew still penalizes extraction with staleness.
    let n = 20_000u64;
    let rates = UpdateRates::zipf(n, 1.0, n as f64, 3);
    let policy = UpdateDelayPolicy::for_staleness(0.6, 1.0).with_cap(10.0);
    let config = GuardConfig::paper_default().with_policy(GuardPolicy::UpdateRate(policy));
    let delays = update_skew_delays(&rates, config);
    let stale = rates.stale_fraction(delays.iter().sum());
    assert!(
        (stale - 0.6).abs() < 0.05,
        "staleness guarantee missed: {stale}"
    );
    // Median uniform user sees a tiny delay.
    let med = median_of(delays);
    assert!(med < 0.01, "median {med}");
}
