//! Guard configuration.

use crate::access::AccessDelayPolicy;
use crate::error::{GuardError, Result};
use crate::policy::{ChargingModel, GuardPolicy};
use crate::shaping::DelayShaping;
use crate::snapshot::SnapshotPolicy;

/// Configuration of a [`crate::GuardedDatabase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Which delay scheme to apply.
    pub policy: GuardPolicy,
    /// How multi-tuple queries are charged.
    pub charging: ChargingModel,
    /// Decay rate for access counts per unit of guard time (`1.0` = no
    /// decay): an access `Δt` older than another weighs `rate^-Δt` of it,
    /// however much traffic came between. Guard time is the statement's
    /// `now_secs`: seconds on a server, the request index in Table 3's
    /// replay (which sweeps `1.0..=1.00002` per request) and the week in
    /// Table 4's (`1.0..=5.0` per week).
    pub access_decay_rate: f64,
    /// Decay rate for update counts, per unit of guard time like
    /// [`GuardConfig::access_decay_rate`].
    pub update_decay_rate: f64,
    /// Bounded-staleness knobs for the snapshot pricer (every
    /// clock-driven entry point; `execute_at` is always exact).
    pub snapshot: SnapshotPolicy,
    /// Number of shards the per-table guard state (and the record queue)
    /// is split across. Rounded up to a power of two.
    pub shards: usize,
    /// Timing-side-channel defense: quantize delays into geometric
    /// buckets and add seeded per-(query, tuple) jitter so response
    /// times stop revealing popularity rank. Off by default —
    /// [`DelayShaping::off`] makes pricing bit-identical to the
    /// unshaped pipeline.
    pub shaping: DelayShaping,
}

impl GuardConfig {
    /// The paper's canonical configuration: access-rate delays with
    /// `α = 1.5`, `β = 1.0`, a 10-second cap, per-tuple-sum charging and
    /// no decay; default snapshot staleness bounds.
    pub fn paper_default() -> GuardConfig {
        GuardConfig {
            policy: GuardPolicy::AccessRate(AccessDelayPolicy::new(1.5, 1.0)),
            charging: ChargingModel::PerTupleSum,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            snapshot: SnapshotPolicy::default(),
            shards: 16,
            shaping: DelayShaping::off(),
        }
    }

    /// Replace the policy.
    pub fn with_policy(mut self, policy: GuardPolicy) -> GuardConfig {
        self.policy = policy;
        self
    }

    /// Replace the access decay rate (per unit of guard time).
    pub fn with_access_decay(mut self, rate: f64) -> GuardConfig {
        self.access_decay_rate = rate;
        self
    }

    /// Replace the charging model.
    pub fn with_charging(mut self, charging: ChargingModel) -> GuardConfig {
        self.charging = charging;
        self
    }

    /// Replace the snapshot staleness bounds.
    pub fn with_snapshot_policy(mut self, snapshot: SnapshotPolicy) -> GuardConfig {
        self.snapshot = snapshot;
        self
    }

    /// Replace the guard shard count.
    pub fn with_shards(mut self, shards: usize) -> GuardConfig {
        self.shards = shards;
        self
    }

    /// Replace the delay-shaping policy.
    pub fn with_shaping(mut self, shaping: DelayShaping) -> GuardConfig {
        self.shaping = shaping;
        self
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if self.access_decay_rate < 1.0 || !self.access_decay_rate.is_finite() {
            return Err(GuardError::Config(format!(
                "access decay rate must be >= 1.0, got {}",
                self.access_decay_rate
            )));
        }
        if self.update_decay_rate < 1.0 || !self.update_decay_rate.is_finite() {
            return Err(GuardError::Config(format!(
                "update decay rate must be >= 1.0, got {}",
                self.update_decay_rate
            )));
        }
        if let GuardPolicy::AccessRate(p) | GuardPolicy::Hybrid(p, _) = self.policy {
            if p.alpha < 0.0 || p.beta < 0.0 || p.cap_secs < 0.0 {
                return Err(GuardError::Config(
                    "access policy parameters must be non-negative".into(),
                ));
            }
        }
        if self.shards == 0 {
            return Err(GuardError::Config("shard count must be at least 1".into()));
        }
        if self.snapshot.max_pending_events == 0 {
            return Err(GuardError::Config(
                "snapshot max_pending_events must be at least 1".into(),
            ));
        }
        if self.snapshot.max_age_secs <= 0.0 || !self.snapshot.max_age_secs.is_finite() {
            return Err(GuardError::Config(format!(
                "snapshot max_age_secs must be positive and finite, got {}",
                self.snapshot.max_age_secs
            )));
        }
        self.shaping.validate()?;
        Ok(())
    }
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid() {
        assert!(GuardConfig::paper_default().validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let c = GuardConfig::paper_default()
            .with_access_decay(1.00001)
            .with_charging(ChargingModel::PerQueryMax)
            .with_policy(GuardPolicy::None);
        assert_eq!(c.access_decay_rate, 1.00001);
        assert_eq!(c.charging, ChargingModel::PerQueryMax);
        assert_eq!(c.policy, GuardPolicy::None);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn bad_decay_rejected() {
        let c = GuardConfig::paper_default().with_access_decay(0.5);
        assert!(c.validate().is_err());
        let mut c = GuardConfig::paper_default();
        c.update_decay_rate = f64::NAN;
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_policy_rejected() {
        let mut c = GuardConfig::paper_default();
        c.policy = GuardPolicy::AccessRate(crate::access::AccessDelayPolicy::new(-1.0, 1.0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn bad_concurrency_knobs_rejected() {
        let mut c = GuardConfig::paper_default();
        c.shards = 0;
        assert!(c.validate().is_err());
        let mut c = GuardConfig::paper_default();
        c.snapshot.max_pending_events = 0;
        assert!(c.validate().is_err());
        let mut c = GuardConfig::paper_default();
        c.snapshot.max_age_secs = 0.0;
        assert!(c.validate().is_err());
        let c = GuardConfig::paper_default()
            .with_shards(1)
            .with_snapshot_policy(SnapshotPolicy::new(64, 0.01));
        assert!(c.validate().is_ok());
        assert_eq!(c.snapshot.max_pending_events, 64);
    }

    #[test]
    fn shaping_knob_validates_through_config() {
        let c = GuardConfig::paper_default().with_shaping(DelayShaping::new(10.0, 4.0, 0.25, 7));
        assert!(c.validate().is_ok());
        assert!(c.shaping.enabled);
        let bad = GuardConfig::paper_default().with_shaping(DelayShaping::new(10.0, 0.5, 0.0, 7));
        assert!(bad.validate().is_err());
        assert_eq!(GuardConfig::paper_default().shaping, DelayShaping::off());
    }
}
