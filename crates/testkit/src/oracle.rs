//! A naive reference pricer: the paper's delay formulas computed the
//! slow, obvious way, as a permanent differential oracle for the guard.
//!
//! [`NaivePricer`] is a `HashMap` of counts per tracker and nothing else
//! — no Fenwick tree, no snapshot, no packed table, no event queue, no
//! stream. A rank is a linear scan, `f_max` is a linear scan, and Eq. 1 /
//! Eq. 9 are written out directly. It models one table under no decay
//! (`rate = 1.0`), shaping off, and `FmaxMode::GlobalRequests`; the
//! caller feeds it the same inserts, updates and accesses the guard saw
//! and compares [`NaivePricer::price`] with what the guard charged
//! (`tests/pricing_oracle.rs`).

use delayguard_core::access::FmaxMode;
use delayguard_core::{AccessDelayPolicy, ChargingModel, GuardPolicy, UpdateDelayPolicy};
use delayguard_popularity::rank::bucket_of;
use std::collections::HashMap;

/// The reference model of one table's guard state.
pub struct NaivePricer {
    policy: GuardPolicy,
    charging: ChargingModel,
    /// Access count per tracked key (inserted keys start at zero).
    accesses: HashMap<u64, f64>,
    /// Every access ever recorded — the "global count of all requests".
    requests: u64,
    /// Update count per updated (or deleted) key.
    updates: HashMap<u64, f64>,
    /// When the table first came under observation.
    epoch: Option<f64>,
}

impl NaivePricer {
    /// An empty model pricing under `policy`, folding under `charging`.
    pub fn new(policy: GuardPolicy, charging: ChargingModel) -> NaivePricer {
        NaivePricer {
            policy,
            charging,
            accesses: HashMap::new(),
            requests: 0,
            updates: HashMap::new(),
            epoch: None,
        }
    }

    /// A row was inserted at `now`: tracked at zero popularity (§2.3).
    pub fn insert(&mut self, key: u64, now: f64) {
        self.epoch.get_or_insert(now);
        self.accesses.entry(key).or_insert(0.0);
    }

    /// A row was updated or deleted at `now`.
    pub fn update(&mut self, key: u64, now: f64) {
        self.epoch.get_or_insert(now);
        *self.updates.entry(key).or_insert(0.0) += 1.0;
    }

    /// A row was returned to a client at `now`.
    pub fn access(&mut self, key: u64, now: f64) {
        self.epoch.get_or_insert(now);
        *self.accesses.entry(key).or_insert(0.0) += 1.0;
        self.requests += 1;
    }

    /// The delay `key` is charged at `now` in a table of `n` rows.
    pub fn price(&self, key: u64, n: u64, now: f64) -> f64 {
        match self.policy {
            GuardPolicy::None => 0.0,
            GuardPolicy::AccessRate(p) => self.eq1(&p, key, n),
            GuardPolicy::UpdateRate(p) => self.eq9(&p, key, n, now),
            GuardPolicy::Hybrid(a, u) => self.eq1(&a, key, n).max(self.eq9(&u, key, n, now)),
        }
    }

    /// A statement's total under the charging model.
    pub fn fold(&self, delays: &[f64]) -> f64 {
        match self.charging {
            ChargingModel::PerTupleSum => delays.iter().fold(0.0, |acc, d| acc + d),
            ChargingModel::PerQueryMax => delays.iter().fold(0.0, |acc, &d| acc.max(d)),
        }
    }

    /// Eq. 1 with the Eq. 5 cap: `min(cap, rank^(α+β) / (n · f_max))`.
    fn eq1(&self, p: &AccessDelayPolicy, key: u64, n: u64) -> f64 {
        assert_eq!(p.fmax_mode, FmaxMode::GlobalRequests, "unmodelled mode");
        let top = self.accesses.values().fold(0.0, |m: f64, &c| m.max(c));
        if n == 0 || self.requests == 0 || top <= 0.0 {
            return p.cap_secs; // nothing learned: everything at the cap
        }
        let fmax = top / self.requests as f64;
        // Ties share the worst rank of their log-bucket; a key the model
        // has never seen is the least popular tuple of the relation.
        let rank = match self.accesses.get(&key) {
            Some(&mine) => self
                .accesses
                .values()
                .filter(|&&c| bucket_of(c) >= bucket_of(mine))
                .count(),
            None => n as usize,
        };
        ((rank as f64).powf(p.alpha + p.beta) / (n as f64 * fmax)).min(p.cap_secs)
    }

    /// Eq. 9 over the observation window: `min(cap, c / (n · rate))`.
    fn eq9(&self, p: &UpdateDelayPolicy, key: u64, n: u64, now: f64) -> f64 {
        let window = self.epoch.map_or(1e-9, |e| (now - e).max(1e-9));
        let rate = self.updates.get(&key).copied().unwrap_or(0.0) / window;
        if n == 0 || rate <= 0.0 {
            return p.cap_secs; // never updated: most stale-prone
        }
        (p.c / (n as f64 * rate)).min(p.cap_secs)
    }
}
