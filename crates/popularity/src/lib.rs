//! # delayguard-popularity
//!
//! Frequency statistics for the delay defense (paper §2.3 and §4.4):
//!
//! * [`decay`] — exponential decay by inflated increments, with periodic
//!   rescaling.
//! * [`tracker`] — per-key decayed counts, normalized frequencies, `f_max`,
//!   and popularity ranks.
//! * [`rank`] — log-bucketed order statistics over a Fenwick tree
//!   ([`fenwick`]) giving `O(log B)` approximate ranks.
//! * [`topk`] — top-k extraction for the paper's distribution figures.
//! * [`shardqueue`] — the concurrent form of §4.4's write-behind idea
//!   (keep read queries from becoming read-modify-write storms): a
//!   lock-free sharded event queue that query threads push into and a
//!   background refresher drains, in global sequence order, into the
//!   authoritative trackers.
//!
//! Concurrency correctness here is tool-checked, not review-checked: the
//! lock-free [`shardqueue`] imports its atomics through the [`sync`]
//! facade, and `tests/model.rs` (built with `--features model` plus
//! `RUSTFLAGS="--cfg delayguard_model"`) drives the same code through the
//! vendored `loom_lite` model checker, exhaustively exploring thread
//! interleavings up to a preemption bound.
//!
//! ```
//! use delayguard_popularity::{DecaySchedule, FrequencyTracker};
//!
//! let mut t = FrequencyTracker::new(DecaySchedule::new(1.000001));
//! for _ in 0..1000 { t.record(7); }
//! t.record(8);
//! assert_eq!(t.rank(7), 1);
//! assert!(t.fmax() > 0.99);
//! ```

// No unsafe outside the audited lock-free queue, and inside it every
// unsafe operation must be written out explicitly.
#![deny(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod decay;
pub mod fenwick;
pub mod rank;
#[allow(unsafe_code)]
pub mod shardqueue;
pub mod sync;
pub mod topk;
pub mod tracker;

pub use decay::DecaySchedule;
pub use fenwick::Fenwick;
pub use rank::RankIndex;
pub use shardqueue::ShardedEventQueue;
pub use topk::top_k;
pub use tracker::FrequencyTracker;
