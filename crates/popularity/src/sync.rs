//! Synchronization facade: the one place this crate names its atomics.
//!
//! Lock-free code in this crate ([`crate::shardqueue`]) imports its
//! atomic types and thread-identity helpers from here instead of from
//! `std::sync` directly, so the *same source* can be driven two ways:
//!
//! * **normally** — the re-exports resolve to `std::sync::atomic` and the
//!   hot path compiles to exactly the instructions it always did;
//! * **under the model checker** — building with the `model` cargo
//!   feature **and** `RUSTFLAGS="--cfg delayguard_model"` resolves them
//!   to `loom_lite::sync`, whose every operation is a deterministic
//!   schedule point, letting `tests/model.rs` exhaustively explore thread
//!   interleavings (see `vendor/loom_lite`).
//!
//! Both switches are required on purpose: the cargo feature pulls in the
//! vendored checker, the cfg keeps accidental `--all-features` builds
//! from silently de-optimizing the production atomics.

#[cfg(all(feature = "model", delayguard_model))]
pub use loom_lite::sync::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(all(feature = "model", delayguard_model)))]
pub use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// A small per-thread integer used to stripe threads across shards.
///
/// Under the model this is the model-thread index (0 for the test
/// closure, then spawn order) — deterministic per schedule, which is what
/// makes shard assignment, and therefore the whole execution, replayable.
#[cfg(all(feature = "model", delayguard_model))]
pub(crate) fn thread_index() -> usize {
    loom_lite::thread::index()
}

/// A small per-thread integer used to stripe threads across shards,
/// assigned round-robin the first time each OS thread asks.
#[cfg(not(all(feature = "model", delayguard_model)))]
pub(crate) fn thread_index() -> usize {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static INDEX: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    INDEX.with(|c| {
        let v = c.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        c.set(v);
        v
    })
}
