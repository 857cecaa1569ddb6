//! # delayguard
//!
//! Facade crate re-exporting the whole `delayguard` workspace: a
//! production-quality Rust implementation of
//!
//! > Jayapandian, Noble, Mickens, Jagadish.
//! > *Using Delay to Defend Against Database Extraction.*
//! > SDM Workshop at VLDB 2004, LNCS 3178, pp. 202–218.
//!
//! See the README for a tour and `examples/` for runnable entry points.
//!
//! * [`storage`] — embedded relational storage engine (tables, pages,
//!   indexes, snapshots).
//! * [`query`] — SQL-subset parser, planner, and executor.
//! * [`popularity`] — decayed frequency statistics, order statistics,
//!   and the lock-free access-event queue (§2.3, §4.4).
//! * [`core`] — the paper's contribution: delay policies (§2.1–2.2, §3.1),
//!   closed-form analysis (Eq. 2–7, 11–12), the gatekeeper (§2.4), and the
//!   [`core::GuardedDatabase`] facade.
//! * [`workload`] — deterministic Zipf/trace/adversary generators (§4).
//! * [`sim`] — virtual-clock replay, extraction experiments, staleness and
//!   latency metrics (§4.1–4.4), shared metrics registry.
//! * [`server`] — the network front door: framed TCP protocol, gatekeeper
//!   admission, timer-wheel delay enforcement, load shedding, graceful
//!   drain.

pub use delayguard_core as core;
pub use delayguard_popularity as popularity;
pub use delayguard_query as query;
pub use delayguard_server as server;
pub use delayguard_sim as sim;
pub use delayguard_storage as storage;
pub use delayguard_workload as workload;
