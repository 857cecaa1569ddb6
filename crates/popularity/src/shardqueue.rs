//! Lock-free sharded event queue for write-behind access recording.
//!
//! The paper's §4.4 write-behind cache keeps read queries from becoming
//! read-modify-write storms on a *single-threaded* server. Under concurrency the same idea needs a concurrent front end:
//! every query thread must be able to record "tuple `k` was accessed" with
//! no locks on the hot path, while a single background drainer folds those
//! events into the authoritative [`crate::FrequencyTracker`]s.
//!
//! [`ShardedEventQueue`] provides exactly that:
//!
//! * producers push onto one of `S` Treiber stacks (a compare-and-swap
//!   loop on an `AtomicPtr` head — lock-free, no waiting producers ever
//!   block each other across shards, and contention *within* a shard is a
//!   single CAS retry);
//! * every event is stamped with a global sequence number from one
//!   `AtomicU64`, so the drainer can merge the per-shard stacks back into
//!   one totally ordered batch. When the producers are a single thread,
//!   that order is exactly the push order — which is what lets the
//!   snapshot path reproduce the sequential path's decay arithmetic
//!   bit-for-bit (the inflated-increment scheme is order-sensitive);
//! * the drainer (`drain`) atomically severs each shard's stack with one
//!   `swap`, so no event is ever lost or observed twice, no matter how
//!   drains race with pushes.
//!
//! Shard choice is per-thread (a thread-local stripe id), so a thread's
//! own events never contend with its previous push, and threads spread
//! across shards round-robin.
//!
//! All atomics are imported through the [`crate::sync`] facade, so the
//! exact code below is also explored exhaustively by the deterministic
//! model checker (`tests/model.rs`, built with `--features model` and
//! `RUSTFLAGS="--cfg delayguard_model"`): lost events, duplicated events,
//! and drain-order violations are checked on every interleaving up to the
//! preemption bound, not just the ones an 8-thread stress run happens to
//! hit.

use std::ptr;

use crate::sync::{thread_index, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

struct Node<T> {
    next: *mut Node<T>,
    seq: u64,
    item: T,
}

/// A lock-free multi-producer queue sharded into Treiber stacks, drained
/// in global sequence order by a single (or occasional) consumer.
#[derive(Debug)]
pub struct ShardedEventQueue<T> {
    shards: Box<[AtomicPtr<Node<T>>]>,
    seq: AtomicU64,
    pending: AtomicUsize,
    /// Advisory lower bound on every undrained sequence number, updated
    /// after each drain. Only used as the base point for wrap-aware
    /// ordering in [`ShardedEventQueue::drain`]; any recent value works,
    /// so plain loads/stores suffice.
    watermark: AtomicU64,
}

// SAFETY: the queue hands items across threads; that is its whole
// purpose. The raw `Node` pointers are only ever owned by one side at a
// time — a producer owns a node until its CAS publishes it, the drainer
// owns a whole chain once its `swap` severs it — so sending the queue (or
// references to it) between threads never aliases mutable node state.
// `T: Send` is required because items cross threads; no `T: Sync` is
// needed because no two threads ever share a reference to the same item.
unsafe impl<T: Send> Send for ShardedEventQueue<T> {}
// SAFETY: as above — all shared-state mutation goes through atomics, and
// node ownership transfers are mediated by the CAS/swap protocol.
unsafe impl<T: Send> Sync for ShardedEventQueue<T> {}

/// Per-thread shard stripe: round-robin over OS threads normally, the
/// deterministic model-thread index under the model checker.
fn thread_stripe() -> usize {
    thread_index()
}

impl<T> ShardedEventQueue<T> {
    /// A queue with `shards` stacks (rounded up to a power of two, at
    /// least 1).
    pub fn new(shards: usize) -> ShardedEventQueue<T> {
        ShardedEventQueue::with_initial_seq(shards, 0)
    }

    /// A queue whose global sequence counter starts at `first_seq`.
    ///
    /// Drain order is correct across `u64` wraparound (sequence numbers
    /// are compared by wrapping distance from the drain watermark, not by
    /// raw value), and this constructor exists so tests can actually
    /// exercise that boundary without pushing 2⁶⁴ events first.
    pub fn with_initial_seq(shards: usize, first_seq: u64) -> ShardedEventQueue<T> {
        let n = shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedEventQueue {
            shards,
            seq: AtomicU64::new(first_seq),
            pending: AtomicUsize::new(0),
            watermark: AtomicU64::new(first_seq),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Events pushed but not yet drained. Monotone between a push and the
    /// drain that consumes it; exact when quiescent.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::Relaxed)
    }

    /// Push one event, returning its global sequence number. Lock-free:
    /// a CAS loop on the owning shard's head pointer.
    pub fn push(&self, item: T) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[thread_stripe() & (self.shards.len() - 1)];
        // Count before publishing: a drain that pops this node must see
        // the increment (the Release CAS orders it), so `pending` can
        // over-count transiently but never underflow.
        self.pending.fetch_add(1, Ordering::Relaxed);
        let node = Box::into_raw(Box::new(Node {
            next: ptr::null_mut(),
            seq,
            item,
        }));
        let mut head = shard.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` came from `Box::into_raw` above and is
            // exclusively ours until the CAS below publishes it; writing
            // its `next` field cannot race with anything.
            unsafe { (*node).next = head };
            match shard.compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        seq
    }

    /// Remove everything queued so far and return it sorted by global
    /// sequence number (i.e. in push order for a single producer, and in
    /// *a* consistent serialization for concurrent producers). Safe to
    /// call concurrently with pushes; concurrent drains each get disjoint
    /// events.
    pub fn drain(&self) -> Vec<(u64, T)> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            // Sever the whole stack in one step; pushes racing with this
            // land either wholly in this batch or wholly in the next.
            let mut head = shard.swap(ptr::null_mut(), Ordering::Acquire);
            while !head.is_null() {
                // SAFETY: the swap above transferred ownership of the
                // entire chain to us; no other thread can reach these
                // nodes, so reconstituting each Box is sound and happens
                // exactly once per node.
                let node = unsafe { Box::from_raw(head) };
                head = node.next;
                out.push((node.seq, node.item));
            }
        }
        self.pending.fetch_sub(out.len(), Ordering::Release);
        // Stacks pop newest-first; restore the global total order.
        // Compare by wrapping distance from the watermark (a lower bound
        // on every undrained seq) so ordering survives u64 wraparound:
        // raw comparison would sort post-wrap seq 0 before pre-wrap
        // seq u64::MAX.
        let base = self.watermark.load(Ordering::Relaxed);
        out.sort_unstable_by_key(|&(seq, _)| seq.wrapping_sub(base));
        if let Some(&(last, _)) = out.last() {
            self.watermark
                .store(last.wrapping_add(1), Ordering::Relaxed);
        }
        out
    }

    /// Whether nothing is queued (exact when quiescent).
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

impl<T> Drop for ShardedEventQueue<T> {
    fn drop(&mut self) {
        for shard in self.shards.iter() {
            let mut head = shard.swap(ptr::null_mut(), Ordering::Acquire);
            while !head.is_null() {
                // SAFETY: `&mut self` in Drop means no other thread holds
                // a reference to the queue, so every still-published node
                // is exclusively ours to free, once each.
                let node = unsafe { Box::from_raw(head) };
                head = node.next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_preserves_push_order() {
        let q = ShardedEventQueue::new(8);
        for i in 0..100u64 {
            q.push(i);
        }
        assert_eq!(q.pending(), 100);
        let batch = q.drain();
        assert_eq!(batch.len(), 100);
        for (i, (seq, item)) in batch.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(*item, i as u64);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drain_interleaved_with_pushes() {
        let q = ShardedEventQueue::new(4);
        q.push(1);
        q.push(2);
        let a = q.drain();
        q.push(3);
        let b = q.drain();
        let items: Vec<u64> = a.into_iter().chain(b).map(|(_, x)| x).collect();
        assert_eq!(items, vec![1, 2, 3]);
    }

    #[test]
    fn concurrent_pushes_lose_nothing() {
        // Shrunk drastically under Miri: the interpreter is ~3 orders of
        // magnitude slower than native, and the interleaving depth, not
        // the event count, is what Miri checks.
        const THREADS: usize = if cfg!(miri) { 4 } else { 8 };
        const PER: u64 = if cfg!(miri) { 50 } else { 10_000 };
        use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
        let q = Arc::new(ShardedEventQueue::new(8));
        let drained = Arc::new(std::sync::Mutex::new(Vec::new()));
        let stop = Arc::new(StdAtomicUsize::new(0));
        // A drainer races the producers the whole time.
        let drainer = {
            let q = Arc::clone(&q);
            let drained = Arc::clone(&drained);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                let batch = q.drain();
                drained.lock().unwrap().extend(batch);
                if stop.load(StdOrdering::Acquire) == THREADS && q.is_empty() {
                    drained.lock().unwrap().extend(q.drain());
                    break;
                }
            })
        };
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        q.push((t as u64) * PER + i);
                    }
                    stop.fetch_add(1, StdOrdering::Release);
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        drainer.join().unwrap();
        let mut all = drained.lock().unwrap().clone();
        assert_eq!(all.len(), THREADS * PER as usize, "no event lost");
        // Sequence numbers are unique.
        all.sort_unstable_by_key(|&(seq, _)| seq);
        for w in all.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate sequence");
        }
        // Every item arrived exactly once, and each thread's items appear
        // in its own push order.
        let mut items: Vec<u64> = all.iter().map(|&(_, x)| x).collect();
        let mut last_per_thread = [None::<u64>; THREADS];
        for &(_, x) in &all {
            let t = (x / PER) as usize;
            if let Some(prev) = last_per_thread[t] {
                assert!(x > prev, "per-thread order violated");
            }
            last_per_thread[t] = Some(x);
        }
        items.sort_unstable();
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn drop_releases_pending_nodes() {
        let q = ShardedEventQueue::new(2);
        for i in 0..1000 {
            q.push(vec![i; 4]); // heap payloads; Miri/leak checkers would catch leaks
        }
        drop(q);
    }

    /// Dropping a queue with undrained events runs every payload's
    /// destructor exactly once — the property the Miri CI job verifies
    /// with its leak checker, asserted here with a drop counter so it
    /// also holds in plain test runs.
    #[test]
    fn drop_with_pending_frees_each_payload_once() {
        use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};

        struct Bump(Arc<StdAtomicUsize>);
        impl Drop for Bump {
            fn drop(&mut self) {
                self.0.fetch_add(1, StdOrdering::SeqCst);
            }
        }

        let drops = Arc::new(StdAtomicUsize::new(0));
        let q = ShardedEventQueue::new(4);
        const N: usize = 257;
        for _ in 0..N {
            q.push(Bump(Arc::clone(&drops)));
        }
        assert_eq!(drops.load(StdOrdering::SeqCst), 0);
        drop(q);
        assert_eq!(
            drops.load(StdOrdering::SeqCst),
            N,
            "each payload dropped exactly once"
        );
    }

    /// Sequence numbers are compared by wrapping distance, so a queue
    /// whose counter crosses u64::MAX still drains in push order.
    #[test]
    fn seq_wraparound_preserves_drain_order() {
        let q = ShardedEventQueue::with_initial_seq(4, u64::MAX - 2);
        for i in 0..6u64 {
            q.push(i);
        }
        let batch = q.drain();
        let seqs: Vec<u64> = batch.iter().map(|&(s, _)| s).collect();
        let items: Vec<u64> = batch.iter().map(|&(_, x)| x).collect();
        assert_eq!(
            seqs,
            vec![u64::MAX - 2, u64::MAX - 1, u64::MAX, 0, 1, 2],
            "sequence stamps cross the wrap"
        );
        assert_eq!(
            items,
            vec![0, 1, 2, 3, 4, 5],
            "drain order is push order across the wrap"
        );
        // And the batches after the wrap keep working.
        q.push(6);
        q.push(7);
        let items: Vec<u64> = q.drain().into_iter().map(|(_, x)| x).collect();
        assert_eq!(items, vec![6, 7]);
    }

    /// With more registering threads than shards, stripes keep being
    /// handed out round-robin: every thread gets a distinct stripe id,
    /// stable for the life of the thread, and masking folds them onto the
    /// shard array. (Exact shard coverage is asserted in the model tests,
    /// where thread identity is deterministic.)
    #[test]
    fn thread_stripe_round_robin_when_threads_exceed_shards() {
        const THREADS: usize = 8;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                std::thread::spawn(|| {
                    let a = super::thread_stripe();
                    let b = super::thread_stripe();
                    (a, b)
                })
            })
            .collect();
        let stripes: Vec<(usize, usize)> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &stripes {
            assert_eq!(a, b, "stripe is stable within a thread");
            assert!(seen.insert(*a), "stripe {a} handed out twice");
        }
        // Events from more threads than shards all land and drain intact.
        let q = Arc::new(ShardedEventQueue::new(2));
        let producers: Vec<_> = (0..THREADS)
            .map(|t| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    q.push(t as u64);
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let mut items: Vec<u64> = q.drain().into_iter().map(|(_, x)| x).collect();
        items.sort_unstable();
        assert_eq!(items, (0..THREADS as u64).collect::<Vec<_>>());
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedEventQueue::<u8>::new(0).shards(), 1);
        assert_eq!(ShardedEventQueue::<u8>::new(3).shards(), 4);
        assert_eq!(ShardedEventQueue::<u8>::new(16).shards(), 16);
    }
}
