//! # delayguard-sim
//!
//! The paper's evaluation (§4) run on the shipped guard:
//!
//! * [`metrics`] — online mean/stdev (Welford) and exact quantiles; the
//!   paper reports *medians* for users and totals for adversaries.
//! * [`replay`] — replay a workload through
//!   `GuardedDatabase::execute_at` at each request's issue time and price
//!   the adversary from the final counts (Tables 1–4), and the §4.3
//!   update-skew setup (Figures 4–6).
//! * [`overhead`] — the §4.4 mechanism-cost methodology (Table 5).
//! * [`registry`] — lock-free counters/gauges shared with
//!   `delayguard-server`'s `STATS` endpoint.
//! * [`guardstats`] — publishes the guard's snapshot-machinery health
//!   (snapshot age, pending events, rebuilds) into a [`Registry`].
//! * [`report`] — plain-text table rendering for the harness.

#![forbid(unsafe_code)]

pub mod guardstats;
pub mod metrics;
pub mod overhead;
pub mod registry;
pub mod replay;
pub mod report;

pub use guardstats::GuardStatsPublisher;
pub use metrics::{median_of, OnlineStats, Quantiles};
pub use overhead::{measure_overhead, OverheadConfig, OverheadReport};
pub use registry::{Counter, Gauge, MetricValue, Registry};
pub use replay::{per_request, replay, update_skew_delays, ReplayResult};
pub use report::{fmt_dollars, fmt_pct, fmt_secs, TableBuilder};
