//! Trace replay through the learning + delay pipeline (paper §4.1–§4.2).
//!
//! Replays a [`Trace`] against a [`FrequencyTracker`] and an
//! [`AccessDelayPolicy`], exactly as the paper replays the Calgary and
//! box-office traces: each request is charged the delay implied by the
//! statistics learned *so far*, then recorded. At the end, the adversary's
//! extraction total is computed from the final counts ("we computed the
//! delay that would be imposed on an adversary ... by examining the access
//! counts after the trace was replayed").
//!
//! This is the *fast path* used for the large parameter sweeps; the
//! engine-backed path (`delayguard_core::GuardedDatabase`) runs the same
//! logic through SQL and is exercised by the integration tests and the
//! overhead experiment (Table 5).

use delayguard_core::AccessDelayPolicy;
use delayguard_popularity::{DecaySchedule, FrequencyTracker};
use delayguard_workload::Trace;

use crate::metrics::{median_of, OnlineStats};

/// When decay ticks are applied during replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayMode {
    /// Tick once per request (§2.3: "the decay is applied at each
    /// request"; Table 3 sweeps this rate).
    PerRequest(f64),
    /// Tick once per period of virtual time (Table 4 applies decay "at
    /// weekly boundaries").
    PerBoundary { rate: f64, period_secs: f64 },
}

impl DecayMode {
    fn rate(&self) -> f64 {
        match self {
            DecayMode::PerRequest(r) => *r,
            DecayMode::PerBoundary { rate, .. } => *rate,
        }
    }
}

/// Replay configuration.
#[derive(Debug, Clone, Copy)]
pub struct ReplayConfig {
    /// The access-rate delay policy under test.
    pub policy: AccessDelayPolicy,
    /// Decay application mode.
    pub decay: DecayMode,
    /// Pre-register every object at zero count (the paper's "all items
    /// are equally unpopular with frequencies of zero" start state).
    pub pretrack_all: bool,
}

/// Everything the paper reports about one replay.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Delay charged to each request, in order (seconds).
    pub delays: Vec<f64>,
    /// Learned statistics at the end of the trace.
    pub tracker: FrequencyTracker,
    /// Total adversary delay to extract all objects, from final counts.
    pub adversary_total_secs: f64,
    /// `N · d_max`: the largest total an adversary could ever pay.
    pub max_possible_secs: f64,
}

impl ReplayResult {
    /// Median per-request user delay, seconds.
    pub fn median_user_delay_secs(&self) -> f64 {
        median_of(self.delays.clone())
    }

    /// Mean/stdev/min/max summary of user delays.
    pub fn user_delay_stats(&self) -> OnlineStats {
        let mut s = OnlineStats::new();
        for &d in &self.delays {
            s.push(d);
        }
        s
    }

    /// Adversary total as a fraction of the maximum possible
    /// (the paper reports "nearly 90% of the maximum possible delay" for
    /// Calgary and "100%" for the box-office data).
    pub fn fraction_of_max(&self) -> f64 {
        if self.max_possible_secs <= 0.0 {
            0.0
        } else {
            self.adversary_total_secs / self.max_possible_secs
        }
    }
}

/// Replay a lazy key stream under per-request decay, keeping every
/// `stride`-th delay sample (systematic sampling keeps the median accurate
/// while bounding memory for multi-million-request sweeps like Table 1).
///
/// # Panics
/// If `stride == 0` or `config.decay` is not [`DecayMode::PerRequest`]
/// (boundary decay needs request *times*; use [`replay`]).
pub fn replay_keys(
    keys: impl IntoIterator<Item = u64>,
    objects: u64,
    config: &ReplayConfig,
    stride: usize,
) -> ReplayResult {
    assert!(stride > 0, "stride must be positive");
    let DecayMode::PerRequest(rate) = config.decay else {
        panic!("replay_keys supports per-request decay only");
    };
    let mut tracker = FrequencyTracker::new(DecaySchedule::new(rate));
    if config.pretrack_all {
        for key in 0..objects {
            tracker.ensure_tracked(key);
        }
    }
    let mut delays = Vec::new();
    for (i, key) in keys.into_iter().enumerate() {
        let d = config.policy.delay(&tracker, objects, key);
        if i % stride == 0 {
            delays.push(d);
        }
        tracker.record(key);
    }
    let adversary_total_secs = config.policy.adversary_total(&tracker, objects);
    ReplayResult {
        delays,
        tracker,
        adversary_total_secs,
        max_possible_secs: objects as f64 * config.policy.cap_secs,
    }
}

/// Replay `trace` under `config`.
pub fn replay(trace: &Trace, config: &ReplayConfig) -> ReplayResult {
    let mut tracker = FrequencyTracker::new(DecaySchedule::new(config.decay.rate()));
    if config.pretrack_all {
        for key in 0..trace.objects {
            tracker.ensure_tracked(key);
        }
    }
    let mut delays = Vec::with_capacity(trace.len());
    let mut next_boundary = match config.decay {
        DecayMode::PerBoundary { period_secs, .. } => Some(period_secs),
        DecayMode::PerRequest(_) => None,
    };
    for req in &trace.requests {
        if let (Some(boundary), DecayMode::PerBoundary { period_secs, .. }) =
            (next_boundary.as_mut(), config.decay)
        {
            while req.time >= *boundary {
                tracker.tick_boundary();
                *boundary += period_secs;
            }
        }
        let d = config.policy.delay(&tracker, trace.objects, req.key);
        delays.push(d);
        match config.decay {
            DecayMode::PerRequest(_) => tracker.record(req.key),
            DecayMode::PerBoundary { .. } => tracker.record_static(req.key),
        }
    }
    let adversary_total_secs = config.policy.adversary_total(&tracker, trace.objects);
    ReplayResult {
        delays,
        tracker,
        adversary_total_secs,
        max_possible_secs: trace.objects as f64 * config.policy.cap_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_workload::CalgaryConfig;

    fn small_trace() -> Trace {
        CalgaryConfig {
            objects: 1000,
            requests: 100_000,
            alpha: 1.5,
            inter_arrival_secs: 1.0,
            seed: 42,
        }
        .generate()
    }

    fn policy() -> AccessDelayPolicy {
        AccessDelayPolicy::new(1.5, 1.0).with_cap(10.0)
    }

    fn config() -> ReplayConfig {
        ReplayConfig {
            policy: policy(),
            decay: DecayMode::PerRequest(1.0),
            pretrack_all: true,
        }
    }

    #[test]
    fn users_fast_adversary_slow() {
        let trace = small_trace();
        let result = replay(&trace, &config());
        let median = result.median_user_delay_secs();
        // The median request hits a highly popular object: tiny delay.
        assert!(median < 0.05, "median {median}");
        // The adversary pays close to N * cap.
        assert!(
            result.fraction_of_max() > 0.8,
            "{}",
            result.fraction_of_max()
        );
        // Orders of magnitude between them.
        let per_object_adversary = result.adversary_total_secs / trace.objects as f64;
        assert!(per_object_adversary / median.max(1e-9) > 1e2);
    }

    #[test]
    fn early_requests_pay_cap_late_ones_do_not() {
        let trace = small_trace();
        let result = replay(&trace, &config());
        assert_eq!(result.delays[0], 10.0, "start-up transient: cap");
        let late = &result.delays[result.delays.len() - 1000..];
        let late_median = median_of(late.to_vec());
        assert!(late_median < 0.05, "late median {late_median}");
    }

    #[test]
    fn delays_match_trace_length() {
        let trace = small_trace();
        let result = replay(&trace, &config());
        assert_eq!(result.delays.len(), trace.len());
        assert_eq!(result.tracker.events(), trace.len() as u64);
    }

    #[test]
    fn decay_increases_median_delay() {
        // Table 3's phenomenon: stronger per-request decay shrinks the
        // effective history, so learned ranks are noisier and the median
        // user delay rises.
        let trace = small_trace();
        let no_decay = replay(&trace, &config());
        let heavy = replay(
            &trace,
            &ReplayConfig {
                decay: DecayMode::PerRequest(1.001),
                ..config()
            },
        );
        assert!(
            heavy.median_user_delay_secs() > no_decay.median_user_delay_secs(),
            "decay {} vs none {}",
            heavy.median_user_delay_secs(),
            no_decay.median_user_delay_secs()
        );
        // And the adversary's total only grows.
        assert!(heavy.adversary_total_secs >= no_decay.adversary_total_secs * 0.99);
    }

    #[test]
    fn boundary_decay_mode_runs() {
        let trace = small_trace();
        let result = replay(
            &trace,
            &ReplayConfig {
                decay: DecayMode::PerBoundary {
                    rate: 1.5,
                    period_secs: 10_000.0,
                },
                ..config()
            },
        );
        assert!(result.tracker.schedule().ticks() > 0, "boundaries ticked");
        assert!(
            result.tracker.schedule().ticks() < 20,
            "only boundaries tick"
        );
        assert!(result.median_user_delay_secs() < 1.0);
    }

    #[test]
    fn replay_keys_matches_replay_for_per_request_decay() {
        let trace = small_trace();
        let cfg = config();
        let a = replay(&trace, &cfg);
        let keys = trace.requests.iter().map(|r| r.key);
        let b = replay_keys(keys, trace.objects, &cfg, 1);
        assert_eq!(a.delays, b.delays);
        assert!((a.adversary_total_secs - b.adversary_total_secs).abs() < 1e-9);
    }

    #[test]
    fn strided_sampling_preserves_median() {
        let trace = small_trace();
        let cfg = config();
        let full = replay(&trace, &cfg);
        let keys = trace.requests.iter().map(|r| r.key);
        let strided = replay_keys(keys, trace.objects, &cfg, 16);
        assert_eq!(strided.delays.len(), trace.len().div_ceil(16));
        let m_full = full.median_user_delay_secs();
        let m_strided = strided.median_user_delay_secs();
        assert!(
            (m_full - m_strided).abs() <= m_full.max(0.001) * 0.5,
            "median {m_full} vs strided {m_strided}"
        );
    }

    #[test]
    #[should_panic]
    fn replay_keys_rejects_boundary_decay() {
        let cfg = ReplayConfig {
            decay: DecayMode::PerBoundary {
                rate: 1.5,
                period_secs: 100.0,
            },
            ..config()
        };
        replay_keys(std::iter::once(0u64), 10, &cfg, 1);
    }

    #[test]
    fn higher_cap_scales_adversary_not_median() {
        // Table 2's phenomenon.
        let trace = small_trace();
        let low = replay(&trace, &config());
        let high = replay(
            &trace,
            &ReplayConfig {
                policy: policy().with_cap(100.0),
                ..config()
            },
        );
        assert!(high.adversary_total_secs > low.adversary_total_secs * 5.0);
        let m_low = low.median_user_delay_secs();
        let m_high = high.median_user_delay_secs();
        assert!(
            (m_high - m_low).abs() <= m_low.max(0.001) * 0.5,
            "median roughly unchanged: {m_low} vs {m_high}"
        );
    }
}
