//! The server's metric handles, drawn from the shared
//! [`delayguard_sim::Registry`].
//!
//! One struct holds pre-resolved counter/gauge handles so hot paths never
//! touch the registry lock; the `STATS` verb renders the same registry,
//! and simulations can publish into it too (the registry type lives in
//! `delayguard-sim`).

use delayguard_sim::{Counter, Gauge, Registry};

/// Pre-resolved handles for every metric the server records.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Connections accepted into a session.
    pub connections_accepted: Counter,
    /// Connections shed at accept time (session limit reached).
    pub connections_shed: Counter,
    /// Live sessions (high-water = peak concurrency).
    pub sessions: Gauge,
    /// Identities handed out.
    pub users_registered: Counter,
    /// Registrations refused by the one-per-`t`-seconds policy.
    pub registrations_refused: Counter,
    /// Queries admitted past the gatekeeper.
    pub queries_admitted: Counter,
    /// Queries refused: not registered.
    pub refused_unregistered: Counter,
    /// Queries refused: per-user bucket empty.
    pub refused_user_rate: Counter,
    /// Queries refused: subnet aggregate bucket empty.
    pub refused_subnet_rate: Counter,
    /// Queries refused: send queue could not take the result set.
    pub refused_backpressure: Counter,
    /// Requests refused because the server is draining.
    pub refused_shutdown: Counter,
    /// Tuples streamed to clients.
    pub rows_streamed: Counter,
    /// Total delay charged, in microseconds.
    pub delay_micros_charged: Counter,
    /// Statements that failed in the engine.
    pub query_errors: Counter,
    /// `QUERY` frames whose SELECT shape was already prepared on the
    /// session (bound, not parsed or planned).
    pub stmt_cache_hits: Counter,
    /// `QUERY` frames parsed and planned afresh: a new shape, an evicted
    /// one, or text that failed to parse.
    pub stmt_cache_misses: Counter,
    /// Threads dedicated to delay scheduling (the acceptance criterion:
    /// stays at 1 no matter how many delays are pending).
    pub scheduler_threads: Gauge,
    /// Delays currently waiting on the timer wheel.
    pub scheduler_pending: Gauge,
    /// Statements whose every frame went straight to the sink at charge
    /// time, because its deadline had already passed: they filed no wheel
    /// job, so `scheduler_scheduled_total` does not count them.
    pub released_at_charge: Counter,
    /// Delays ever scheduled on the wheel.
    pub scheduler_scheduled: Counter,
    /// Delays fired off the wheel.
    pub scheduler_fired: Counter,
    /// Times the scheduler thread came back from a sleep (timeout or
    /// notify). Scales with distinct deadlines, not elapsed ticks or
    /// `schedule` calls.
    pub scheduler_wakeups: Counter,
    /// Microseconds between a fired batch's earliest deadline tick and
    /// the clock read that released it (high-water = worst release
    /// lateness the scheduler thread has caused or inherited).
    pub scheduler_fire_lateness_micros: Gauge,
    /// Replication deltas folded from peers (cluster only).
    pub deltas_applied: Counter,
    /// Replication deltas discarded as stale/duplicate (cluster only).
    pub deltas_stale: Counter,
    /// Replication deltas exported to peers (cluster only).
    pub deltas_exported: Counter,
}

impl ServerMetrics {
    /// Resolve every handle against `registry` (creating the metrics).
    pub fn new(registry: &Registry) -> ServerMetrics {
        ServerMetrics {
            connections_accepted: registry.counter("server_connections_accepted"),
            connections_shed: registry.counter("server_connections_shed"),
            sessions: registry.gauge("server_sessions"),
            users_registered: registry.counter("server_users_registered"),
            registrations_refused: registry.counter("server_registrations_refused"),
            queries_admitted: registry.counter("server_queries_admitted"),
            refused_unregistered: registry.counter("server_refused_unregistered"),
            refused_user_rate: registry.counter("server_refused_user_rate"),
            refused_subnet_rate: registry.counter("server_refused_subnet_rate"),
            refused_backpressure: registry.counter("server_refused_backpressure"),
            refused_shutdown: registry.counter("server_refused_shutdown"),
            rows_streamed: registry.counter("server_rows_streamed"),
            delay_micros_charged: registry.counter("server_delay_micros_charged"),
            query_errors: registry.counter("server_query_errors"),
            stmt_cache_hits: registry.counter("server_stmt_cache_hits"),
            stmt_cache_misses: registry.counter("server_stmt_cache_misses"),
            scheduler_threads: registry.gauge("scheduler_threads"),
            scheduler_pending: registry.gauge("scheduler_pending"),
            released_at_charge: registry.counter("server_released_at_charge_total"),
            scheduler_scheduled: registry.counter("scheduler_scheduled_total"),
            scheduler_fired: registry.counter("scheduler_fired_total"),
            scheduler_wakeups: registry.counter("scheduler_wakeups"),
            scheduler_fire_lateness_micros: registry.gauge("scheduler_fire_lateness_micros"),
            deltas_applied: registry.counter("cluster_deltas_applied"),
            deltas_stale: registry.counter("cluster_deltas_stale"),
            deltas_exported: registry.counter("cluster_deltas_exported"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_the_registry() {
        let registry = Registry::new();
        let m = ServerMetrics::new(&registry);
        m.queries_admitted.inc();
        m.sessions.add(2);
        assert_eq!(
            registry.value("server_queries_admitted"),
            Some(delayguard_sim::MetricValue::Counter(1))
        );
        let rendered = registry.render();
        assert!(rendered.contains("server_sessions"));
    }
}
