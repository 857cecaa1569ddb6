//! # delayguard-core
//!
//! The contribution of *Using Delay to Defend Against Database Extraction*
//! (Jayapandian, Noble, Mickens, Jagadish — SDM/VLDB 2004), implemented
//! over the `delayguard` substrate crates:
//!
//! * [`access`] — the §2 access-rate delay policy (Eq. 1 with the Eq. 5
//!   cap): popular tuples return instantly, obscure tuples slowly, so an
//!   extraction robot pays orders of magnitude more than real users.
//! * [`update`] — the §3 update-rate delay policy (Eq. 9) and its
//!   staleness guarantee (Eq. 12): whatever the adversary extracts is
//!   largely stale by the time extraction completes.
//! * [`policy`] — policy composition (hybrid max-combine) and the
//!   per-query charging model (§2.1's aggregate-of-simple-queries rule).
//! * [`analysis`] — the paper's closed forms (Eq. 2–7, 11–12) plus the
//!   §2.4 Sybil economics, for theory-vs-simulation cross-checks.
//! * [`gatekeeper`] — §2.4 defenses: registration throttling, per-user
//!   and per-subnet token buckets, storefront flagging.
//! * [`guarded`] — [`GuardedDatabase`]: the engine wrapper that learns
//!   popularity and charges delays per returned tuple, returned as
//!   deadlines for the caller to enforce.
//! * [`snapshot`] — the immutable [`snapshot::PolicySnapshot`] read view
//!   and bounded-staleness knobs behind the guard's lock-free query path.
//!
//! ```
//! use delayguard_core::{GuardConfig, GuardedDatabase};
//!
//! let db = GuardedDatabase::new(GuardConfig::paper_default());
//! db.execute_at("CREATE TABLE d (id INT NOT NULL, v TEXT)", 0.0).unwrap();
//! db.execute_at("INSERT INTO d VALUES (1, 'hot'), (2, 'cold')", 0.0).unwrap();
//! // Nothing learned yet: the first read pays the 10-second cap.
//! let r = db.execute_at("SELECT * FROM d WHERE id = 1", 1.0).unwrap();
//! assert_eq!(r.delay_secs, 10.0);
//! ```

#![forbid(unsafe_code)]

pub mod access;
pub mod analysis;
pub mod clock;
pub mod config;
pub mod error;
pub mod gatekeeper;
pub mod guarded;
pub mod policy;
pub mod replica;
pub mod shaping;
pub mod snapshot;
pub mod update;

pub use access::{AccessDelayPolicy, PackedAccessDelays};
pub use clock::{Clock, ManualClock, RealClock};
pub use config::GuardConfig;
pub use error::{GuardError, Result};
pub use gatekeeper::{Gatekeeper, GatekeeperConfig};
pub use guarded::{
    ChargedChunk, DeadlineResponse, DeadlineStream, GuardedDatabase, GuardedResponse, StreamedQuery,
};
pub use policy::{ChargingModel, GuardPolicy};
pub use replica::{ReplicaDelta, TableDelta};
pub use shaping::DelayShaping;
pub use snapshot::{PolicySnapshot, SnapshotPolicy, SnapshotStats, TableSnapshot};
pub use update::UpdateDelayPolicy;
