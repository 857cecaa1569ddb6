//! `delayguard-server`: the network front door for the delay defense.
//!
//! The core crates decide *how much* delay a query has earned (the
//! paper's per-tuple charging, popularity tracking, and gatekeeper
//! policy); this crate makes that decision hold on a wire. It serves a
//! length-delimited TCP protocol ([`protocol`]) where:
//!
//! 1. clients `REGISTER` for an identity — admission runs the gatekeeper
//!    (registration throttling, per-user and per-/24-subnet token
//!    buckets keyed by the peer address),
//! 2. each `QUERY` that passes admission executes immediately — prepared,
//!    from the session's own statement cache
//!    ([`delayguard_query::stmt_cache`]) — but its
//!    tuples stream back only as their delay deadlines expire, enforced
//!    by a single-threaded hierarchical timer wheel ([`wheel`],
//!    [`scheduler`]) — thousands of pending delays, one thread,
//! 3. `STATS` returns a metrics snapshot from the registry shared with
//!    `delayguard-sim`.
//!
//! Load is bounded end to end: a session cap with explicit shedding,
//! per-connection bounded send queues that refuse (not block) when a
//! result set would not fit, and a graceful shutdown that drains every
//! already-charged tuple before closing ([`server`]). A blocking
//! [`client`] rounds out the crate for tests and demos.

#![forbid(unsafe_code)]

pub mod client;
pub mod gate;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod wheel;

pub use client::{Client, ClientError, MutateOutcome, QueryOutcome, ReceivedRow, RegisterOutcome};
pub use delayguard_query::STATEMENT_CACHE_CAPACITY;
pub use gate::{FrameSink, FrontDoor, GateConfig, MutationVerb, SessionControl, SessionState};
pub use metrics::ServerMetrics;
pub use protocol::{Frame, ProtocolError, RefuseReason, PROTOCOL_VERSION, ROWS_UNKNOWN};
pub use scheduler::DelayScheduler;
pub use server::{Server, ServerConfig, ServerHandle};
pub use wheel::TimerWheel;
