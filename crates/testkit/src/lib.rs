//! # delayguard-testkit
//!
//! Deterministic simulation testing for the whole front door.
//!
//! The testkit runs the **real** server stack — the wire codec
//! ([`delayguard_server::protocol`]), the gatekeeper, the
//! [`FrontDoor`](delayguard_server::gate::FrontDoor), the
//! [`DelayScheduler`](delayguard_server::scheduler::DelayScheduler) and
//! its timer wheel, and the
//! [`GuardedDatabase`](delayguard_core::GuardedDatabase) snapshot path —
//! on a virtual clock and an in-memory transport, with every source of
//! nondeterminism (latency, drops, partitions, resets, reordering,
//! workload sampling) driven by one seed:
//!
//! * [`world::SimWorld`] — the simulated deployment, one node or many:
//!   clients connect over an in-memory channel mesh, frames travel
//!   through the real codec, time advances only to the next scheduled
//!   thing (a wheel deadline or a frame arrival), and months of simulated
//!   delay cost milliseconds of wall clock. With `nodes > 1` it is the
//!   sharded front door: N complete server stacks behind a router, the
//!   popularity aggregates that price `d(i)` replicated by the
//!   `DELTA` / `DELTA_ACK` gossip (protocol v2), node partition and heal.
//! * [`partition::PartitionMap`] — round-robin key ownership
//!   (`id mod N`) and statement routing. Round-robin models hash
//!   partitioning: ownership is uncorrelated with popularity, so every
//!   shard sees a proportional slice of the Zipf head and tail.
//! * [`net`] — the transport seam: [`net::SimNet`] / [`net::NetLink`]
//!   are implemented by both the in-memory mesh and real TCP
//!   ([`net::TcpNet`]), so the same generic client code drives either;
//!   [`net::FaultPlan`] is the seeded per-link fault model.
//! * [`campaign`] — §2.4 adversary campaigns in virtual time: sequential
//!   crawlers, Sybil swarms racing the registration interval, subnet
//!   swarms, popularity-aware crawlers — with closed-form expectations
//!   from [`delayguard_core::analysis`] (Eq. 4) to assert against. The
//!   same campaigns run sharded: replicated nodes converge to the
//!   single-node Eq. 3/Eq. 4 economics; un-replicated shards collapse
//!   the adversary total to ≈ 1/N of the closed form
//!   ([`delayguard_core::analysis::sharded_unreplicated_total`]).
//! * [`oracle`] — a ~100-line naive reference pricer (Eq. 1 / Eq. 9
//!   over plain hash maps) the full guard stack is checked against.
//! * [`seed`] — the replay harness: every failing test prints its seed
//!   and a `TESTKIT_REPLAY=<seed>` command that reruns the exact
//!   execution; [`world::SimWorld::digest`] folds every delivered frame
//!   (with its delivery time) into an order-sensitive hash, so
//!   bit-identical reruns are checkable with one comparison.
//!
//! Determinism holds because the simulation is single-threaded and every
//! component reads time through the injected
//! [`Clock`](delayguard_core::clock::Clock): the complete execution is a
//! pure function of (seed, script). The repo lint
//! (`cargo run -p xtask -- lint`) keeps wall-clock reads off the
//! simulated path; this crate itself may read the wall only to *budget*
//! tests (asserting that simulated months finish in wall seconds).
//!
//! Replication safety rests on the core seams the multi-node world
//! composes: the origin-tagged remote key space
//! ([`delayguard_core::replica::tag_remote_key`]), replace-if-newer
//! delta application (order-independent, bit-exact under decay), and
//! the gatekeeper's mergeable charge-log CRDTs.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod net;
pub mod oracle;
pub mod partition;
pub mod seed;
pub mod staleness;
pub mod world;

pub use campaign::{
    kendall_tau, seed_directory, seed_directory_shard, tail_recall, theil_sen_slope,
    AdaptiveReport, Campaign, CampaignParams, CrawlReport, Observation, ObservationReport,
    RankInferenceReport, SybilReport,
};
pub use net::{
    Arrival, FaultPlan, LinkError, MutationOutcome, NetLink, QueryOutcome, SimNet, TcpNet,
};
pub use oracle::NaivePricer;
pub use partition::PartitionMap;
pub use seed::{check, check_seeds, replay_seed};
pub use staleness::{StalenessCampaign, StalenessParams, StalenessReport};
pub use world::{ConnId, SimConfig, SimWorld};
