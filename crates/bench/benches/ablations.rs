//! Ablation benches for the design choices called out in DESIGN.md §5:
//!
//! 1. rank maintenance: log-bucketed Fenwick vs exact linear scan;
//! 2. decay: inflated-increment vs naive per-access discounting;
//! 3. delay charging: per-tuple sum vs per-query max.

use criterion::{criterion_group, criterion_main, Criterion};
use delayguard_core::{AccessDelayPolicy, ChargingModel};
use delayguard_popularity::{DecaySchedule, FrequencyTracker};
use delayguard_workload::{Rng, Zipf};
use std::collections::HashMap;
use std::hint::black_box;

fn zipf_keys(n: u64, count: usize, seed: u64) -> Vec<u64> {
    let zipf = Zipf::new(n, 1.2);
    let mut rng = Rng::new(seed);
    (0..count).map(|_| zipf.sample(&mut rng) - 1).collect()
}

fn ablation_rank(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rank");
    let mut tracker = FrequencyTracker::no_decay();
    for key in zipf_keys(10_000, 100_000, 11) {
        tracker.record(key);
    }
    let mut key = 0u64;
    group.bench_function("fenwick_rank", |b| {
        b.iter(|| {
            key = (key + 1) % 10_000;
            black_box(tracker.rank(key))
        })
    });
    let mut key = 0u64;
    group.bench_function("exact_rank_linear_scan", |b| {
        b.iter(|| {
            key = (key + 1) % 10_000;
            black_box(tracker.exact_rank(key))
        })
    });
    group.finish();
}

fn ablation_decay(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_decay");
    let keys = zipf_keys(10_000, 50_000, 13);

    // Paper technique: O(1) inflated increments.
    group.bench_function("inflated_increment", |b| {
        b.iter(|| {
            let mut t = FrequencyTracker::new(DecaySchedule::new(1.0001));
            for &k in &keys {
                t.record(k);
            }
            black_box(t.total())
        })
    });

    // Naive alternative the paper rejects: discount every counter on every
    // access ("It is expensive to discount the value of every count at
    // each access"). Run on 1/50th of the trace to keep the bench usable —
    // Criterion reports per-iteration time; multiply by 50 to compare.
    let short = &keys[..keys.len() / 50];
    group.bench_function("naive_discount_per_access_2pct", |b| {
        b.iter(|| {
            let mut counts: HashMap<u64, f64> = HashMap::new();
            for &k in short {
                for v in counts.values_mut() {
                    *v /= 1.0001;
                }
                *counts.entry(k).or_insert(0.0) += 1.0;
            }
            black_box(counts.len())
        })
    });
    group.finish();
}

fn ablation_charging(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_charging");
    let mut tracker = FrequencyTracker::no_decay();
    for key in zipf_keys(10_000, 100_000, 19) {
        tracker.record(key);
    }
    let policy = AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0);
    let result_keys: Vec<u64> = (0..100).collect();
    for (name, model) in [
        ("per_tuple_sum", ChargingModel::PerTupleSum),
        ("per_query_max", ChargingModel::PerQueryMax),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let delays = result_keys
                    .iter()
                    .map(|&k| policy.delay(&tracker, 10_000, k));
                black_box(model.combine(delays))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, ablation_rank, ablation_decay, ablation_charging);
criterion_main!(benches);
