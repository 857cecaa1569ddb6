//! Mergeable admission buckets: token buckets as charge-log CRDTs.
//!
//! A cluster node admits queries against its *local* view of a budget
//! that is logically global (one bucket per identity, one per /24). To
//! make that view convergent, a bucket is represented not by its mutable
//! `(tokens, last)` state but by the **per-origin append-only logs of
//! charges** levied against it. Each node appends to its own log;
//! replication ships full logs; merging takes, per origin, the longer
//! log (a grow-only register keyed by the per-origin sequence number).
//! That merge is commutative, associative and idempotent — the classic
//! state-based CRDT shape — and tolerates loss, duplication, reordering
//! and partitions: cumulative logs resent after a heal converge in one
//! exchange.
//!
//! The admission *level* is a pure function of the merged logs: replay
//! every charge in global `(time, origin, seq)` order through the exact
//! [`TokenBucket`](super::token_bucket::TokenBucket) arithmetic
//! (refill-then-subtract, floored at zero). Because clamped subtraction
//! of positive amounts is order-independent at equal times and refill
//! composes path-independently, the replayed level equals what a single
//! centralized bucket would hold after processing the union stream —
//! which is exactly the property the per-/24 Sybil defense needs to
//! survive sharding (a crawler splitting its swarm across N nodes still
//! drains one global budget). With a single origin the replay performs
//! the same operations in the same order as a plain `TokenBucket`, so a
//! one-node deployment is bit-for-bit unchanged.
//!
//! Replay is incremental: a cached `(tokens, last)` frontier advances as
//! charges are folded in order, so steady-state local admission is O(1).
//! Only a merge that introduces charges *behind* the frontier (a delta
//! from a lagging peer) rewinds to genesis and replays the merged log —
//! rare, bounded by log length, and what keeps the result independent of
//! delta arrival order.

use std::collections::BTreeMap;

/// Same refill tolerance as the plain token bucket.
const EPS: f64 = 1e-9;

/// One admission charge, as recorded by its origin node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Charge {
    /// 1-based position in the origin's log (the merge key).
    pub seq: u64,
    /// Origin-node clock time the charge was levied.
    pub at_secs: f64,
    /// Tokens taken (1.0 per admitted query).
    pub amount: f64,
}

/// A token bucket whose state is a mergeable set of per-origin charge
/// logs. See the module docs for the convergence argument.
#[derive(Debug, Clone)]
pub struct MergeableBucket {
    rate: f64,
    burst: f64,
    origin: u16,
    /// Per-origin append-only charge logs (own origin included).
    logs: BTreeMap<u16, Vec<Charge>>,
    /// How many entries of each origin's log the cache has replayed.
    replayed: BTreeMap<u16, usize>,
    /// Cached replay state: the exact `TokenBucket` fields after folding
    /// every replayed charge in `(at, origin, seq)` order.
    tokens: f64,
    last: f64,
    /// Replay key of the last folded charge; a merge behind it forces a
    /// rewind-and-replay so arrival order cannot affect the result.
    frontier: Option<(f64, u16, u64)>,
}

fn key_cmp(a: (f64, u16, u64), b: (f64, u16, u64)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

impl MergeableBucket {
    /// A bucket that starts full, owned by node `origin`.
    ///
    /// # Panics
    /// If `rate` or `burst` is not positive and finite.
    pub fn new(rate: f64, burst: f64, origin: u16) -> MergeableBucket {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive");
        assert!(burst > 0.0 && burst.is_finite(), "burst must be positive");
        MergeableBucket {
            rate,
            burst,
            origin,
            logs: BTreeMap::new(),
            replayed: BTreeMap::new(),
            tokens: burst,
            last: 0.0,
            frontier: None,
        }
    }

    /// This node's own charge log (what replication ships to peers).
    pub fn own_log(&self) -> &[Charge] {
        self.logs
            .get(&self.origin)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Record a local charge at `now` (appended to the own-origin log;
    /// folded into the cached level on the next read).
    pub fn charge(&mut self, now: f64, amount: f64) {
        let log = self.logs.entry(self.origin).or_default();
        let seq = log.len() as u64 + 1;
        log.push(Charge {
            seq,
            at_secs: now,
            amount,
        });
    }

    /// Fold another origin's log in. Entries already known (by `seq`) are
    /// skipped, so merging is idempotent; since each origin's log is
    /// cumulative and append-only, merge order cannot matter.
    pub fn merge(&mut self, origin: u16, entries: &[Charge]) {
        let log = self.logs.entry(origin).or_default();
        for c in entries {
            if c.seq == log.len() as u64 + 1 {
                log.push(*c);
            }
        }
    }

    /// Tokens available at `now` under the merged charge history.
    pub fn available(&mut self, now: f64) -> f64 {
        self.sync();
        self.peek(now)
    }

    /// Earliest time at which `n` tokens will be available (≥ `now`).
    pub fn next_available(&mut self, now: f64, n: f64) -> f64 {
        self.sync();
        let t = self.peek(now);
        if t + EPS >= n {
            now
        } else {
            now + (n - t) / self.rate
        }
    }

    /// Refill-to-`now` without disturbing the replay frontier: the cache
    /// must stay pinned at the last *charge* time so a late remote charge
    /// between `last` and `now` still folds in at its own instant.
    fn peek(&self, now: f64) -> f64 {
        if now > self.last {
            (self.tokens + (now - self.last) * self.rate).min(self.burst)
        } else {
            self.tokens
        }
    }

    /// Advance the cached replay over every un-folded charge, rewinding
    /// to genesis first if any of them lands behind the frontier.
    fn sync(&mut self) {
        if self.fold_own_tail() {
            return;
        }
        let mut pending = self.pending();
        if pending.is_empty() {
            return;
        }
        if let Some(f) = self.frontier {
            let first = (pending[0].0, pending[0].1, pending[0].2);
            if key_cmp(first, f) == std::cmp::Ordering::Less {
                // A merge introduced history behind the frontier: replay
                // the whole merged log so arrival order cannot matter.
                self.tokens = self.burst;
                self.last = 0.0;
                self.frontier = None;
                self.replayed.clear();
                pending = self.pending();
            }
        }
        for &(at, origin, seq, amount) in &pending {
            self.fold(at, origin, seq, amount);
            *self.replayed.entry(origin).or_insert(0) += 1;
        }
    }

    /// The steady state of local admission, folded without allocating:
    /// when the only un-replayed charges are the own origin's, and they
    /// lie in replay order at or after the frontier, fold them in place —
    /// the same operations, in the same order, as the sorted replay.
    /// Returns `false`, having folded nothing, in every other case.
    fn fold_own_tail(&mut self) -> bool {
        let origin = self.origin;
        let replayed = |o: &u16| self.replayed.get(o).copied().unwrap_or(0);
        if self
            .logs
            .iter()
            .any(|(o, log)| *o != origin && replayed(o) < log.len())
        {
            return false;
        }
        let (done, len) = (replayed(&origin), self.own_log().len());
        let tail = self.own_log()[done..].iter();
        let keys = self
            .frontier
            .into_iter()
            .chain(tail.map(|c| (c.at_secs, origin, c.seq)));
        if !keys.is_sorted_by(|a, b| key_cmp(*a, *b).is_le()) {
            return false;
        }
        for i in done..len {
            let c = self.own_log()[i];
            self.fold(c.at_secs, origin, c.seq, c.amount);
        }
        if len > done {
            self.replayed.insert(origin, len);
        }
        true
    }

    /// Fold one charge into the cached replay: refill to its time, then
    /// subtract, floored at zero (the exact `TokenBucket` arithmetic).
    fn fold(&mut self, at: f64, origin: u16, seq: u64, amount: f64) {
        if at > self.last {
            self.tokens = (self.tokens + (at - self.last) * self.rate).min(self.burst);
            self.last = at;
        }
        self.tokens = (self.tokens - amount).max(0.0);
        self.frontier = Some((at, origin, seq));
    }

    /// Un-replayed charges in `(at, origin, seq)` replay order.
    fn pending(&self) -> Vec<(f64, u16, u64, f64)> {
        let mut out = Vec::new();
        for (&origin, log) in &self.logs {
            let done = self.replayed.get(&origin).copied().unwrap_or(0);
            for c in &log[done..] {
                out.push((c.at_secs, origin, c.seq, c.amount));
            }
        }
        out.sort_by(|a, b| key_cmp((a.0, a.1, a.2), (b.0, b.1, b.2)));
        out
    }
}

/// One gatekeeper's locally-originated charges, for replication: the
/// full own-origin log of every bucket it has charged. Cumulative, so a
/// delta lost to the network is subsumed by the next one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateDelta {
    /// The exporting node.
    pub origin: u16,
    /// `(user id, own-origin charge log)`, sorted by user id.
    pub users: Vec<(u64, Vec<Charge>)>,
    /// Per-subnet own-origin charge logs, sorted by subnet key.
    pub subnets: Vec<SubnetCharges>,
}

/// Charges against one subnet's aggregate bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct SubnetCharges {
    /// Subnet base address.
    pub base: [u8; 4],
    /// Prefix length.
    pub prefix: u8,
    /// The exporting node's own charge log for this subnet.
    pub log: Vec<Charge>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gatekeeper::token_bucket::TokenBucket;

    /// Tiny deterministic xorshift for property-style tests.
    struct X(u64);
    impl X {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random per-origin log with strictly increasing times.
    fn random_log(rng: &mut X, len: usize, t0: f64) -> Vec<Charge> {
        let mut t = t0;
        (0..len)
            .map(|i| {
                t += rng.f64() * 3.0;
                Charge {
                    seq: i as u64 + 1,
                    at_secs: t,
                    amount: 0.5 + rng.f64() * 2.0,
                }
            })
            .collect()
    }

    /// Observable state: merged log shape plus the level probed at a few
    /// times after every known charge.
    fn observe(b: &mut MergeableBucket) -> Vec<(u16, usize)> {
        let shape: Vec<(u16, usize)> = b.logs.iter().map(|(&o, l)| (o, l.len())).collect();
        shape
    }

    fn levels(b: &mut MergeableBucket, probes: &[f64]) -> Vec<f64> {
        probes.iter().map(|&t| b.available(t)).collect()
    }

    #[test]
    fn single_origin_matches_token_bucket_exactly() {
        let mut rng = X(0x5eed);
        let mut plain = TokenBucket::new(1.5, 7.0);
        let mut crdt = MergeableBucket::new(1.5, 7.0, 0);
        let mut t = 0.0;
        for _ in 0..500 {
            t += rng.f64() * 2.0;
            // Same decision procedure the gatekeeper uses: check, then
            // charge on success.
            let p_avail = plain.available(t);
            let c_avail = crdt.available(t);
            assert_eq!(p_avail.to_bits(), c_avail.to_bits(), "at t={t}");
            if c_avail >= 1.0 - 1e-9 {
                plain.try_take(t);
                crdt.charge(t, 1.0);
            }
            let hint_p = plain.next_available(t, 1.0);
            let hint_c = crdt.next_available(t, 1.0);
            assert!((hint_p - hint_c).abs() < 1e-9, "{hint_p} vs {hint_c}");
        }
    }

    /// Own charges read one at a time fold in place; one that lands
    /// behind the frontier (or a remote entry pending beside them) takes
    /// the sorted replay instead. At every read the level is that of the
    /// whole log replayed once in `(at, origin, seq)` order, bit for bit.
    #[test]
    fn in_place_fold_matches_sorted_replay() {
        let (rate, burst) = (1.0, 4.0);
        let mut rng = X(0xf01d);
        let mut bucket = MergeableBucket::new(rate, burst, 1);
        let remote = random_log(&mut rng, 20, 0.0);
        let mut all: Vec<(f64, u16, u64, f64)> = Vec::new();
        let mut t = 0.0;
        for i in 0..300u64 {
            t += rng.f64();
            // Every 17th charge is stamped in the past.
            let at = if i % 17 == 16 { t - 1.5 } else { t };
            let amount = 0.25 + rng.f64();
            bucket.charge(at, amount);
            all.push((at, 1, i + 1, amount));
            if i == 150 {
                bucket.merge(4, &remote);
                all.extend(remote.iter().map(|c| (c.at_secs, 4, c.seq, c.amount)));
            }
            all.sort_by(|a, b| key_cmp((a.0, a.1, a.2), (b.0, b.1, b.2)));
            let (mut tokens, mut last) = (burst, 0.0);
            for &(at, _, _, amount) in &all {
                if at > last {
                    tokens = (tokens + (at - last) * rate).min(burst);
                    last = at;
                }
                tokens = (tokens - amount).max(0.0);
            }
            let want = if t > last {
                (tokens + (t - last) * rate).min(burst)
            } else {
                tokens
            };
            assert_eq!(bucket.available(t).to_bits(), want.to_bits(), "charge {i}");
        }
    }

    #[test]
    fn merge_is_idempotent() {
        let mut rng = X(7);
        let log = random_log(&mut rng, 40, 0.0);
        let mut b = MergeableBucket::new(1.0, 5.0, 0);
        b.merge(3, &log);
        let before_shape = observe(&mut b);
        let before = levels(&mut b, &[10.0, 50.0, 200.0]);
        b.merge(3, &log);
        b.merge(3, &log[..20]);
        assert_eq!(observe(&mut b), before_shape);
        assert_eq!(levels(&mut b, &[10.0, 50.0, 200.0]), before);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let mut rng = X(99);
        let a = random_log(&mut rng, 30, 0.0);
        let b = random_log(&mut rng, 25, 0.5);
        let c = random_log(&mut rng, 35, 1.0);
        let probes = [5.0, 40.0, 120.0];
        let orders: [[(u16, &[Charge]); 3]; 3] = [
            [(1, &a), (2, &b), (3, &c)],
            [(3, &c), (1, &a), (2, &b)],
            [(2, &b), (3, &c), (1, &a)],
        ];
        let mut results = Vec::new();
        for order in orders {
            let mut bkt = MergeableBucket::new(2.0, 6.0, 0);
            for (origin, log) in order {
                bkt.merge(origin, log);
                // Interleave reads so the cache is exercised mid-merge:
                // arrival order must still not matter.
                let _ = bkt.available(60.0);
            }
            results.push((observe(&mut bkt), levels(&mut bkt, &probes)));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn partial_then_full_log_converges() {
        // Loss tolerance: a peer that missed intermediate deltas catches
        // up entirely from the latest cumulative log.
        let mut rng = X(11);
        let log = random_log(&mut rng, 50, 0.0);
        let mut lossy = MergeableBucket::new(1.0, 4.0, 0);
        lossy.merge(9, &log[..10]); // first delta arrives
        let _ = lossy.available(30.0); // ...and is read
        lossy.merge(9, &log); // later cumulative delta heals the gap
        let mut direct = MergeableBucket::new(1.0, 4.0, 0);
        direct.merge(9, &log);
        assert_eq!(
            levels(&mut lossy, &[100.0, 300.0]),
            levels(&mut direct, &[100.0, 300.0])
        );
    }

    #[test]
    fn merged_level_equals_union_stream_on_one_bucket() {
        // Two origins charge independently; the merged level must equal a
        // single bucket that saw the interleaved union stream.
        let mut rng = X(1234);
        let a = random_log(&mut rng, 60, 0.0);
        let b = random_log(&mut rng, 60, 0.1);
        let mut merged = MergeableBucket::new(1.0, 10.0, 0);
        merged.merge(1, &a);
        merged.merge(2, &b);
        // The union stream, in replay order.
        let mut union: Vec<(f64, f64)> = a
            .iter()
            .map(|c| (c.at_secs, c.amount))
            .chain(b.iter().map(|c| (c.at_secs, c.amount)))
            .collect();
        union.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut single = TokenBucket::new(1.0, 10.0);
        let mut last_at = 0.0;
        for (at, amount) in union {
            let have = single.available(at); // refill
            single.take_n(at, amount.min(have));
            last_at = at;
        }
        // Bit-exact agreement at the final charge instant (identical
        // refill-subtract sequences), and after a full refill.
        assert_eq!(
            merged.available(last_at).to_bits(),
            single.available(last_at).to_bits()
        );
        let t = last_at + 500.0;
        assert_eq!(merged.available(t), single.available(t));
    }

    #[test]
    fn rewind_preserves_convergence_under_late_history() {
        // A charge far in the past arrives after the cache advanced: the
        // bucket must rewind and end bit-identical to the in-order fold.
        let mut late = MergeableBucket::new(1.0, 3.0, 0);
        late.charge(100.0, 1.0);
        let _ = late.available(100.0);
        late.merge(
            5,
            &[Charge {
                seq: 1,
                at_secs: 1.0,
                amount: 2.0,
            }],
        );
        let mut ordered = MergeableBucket::new(1.0, 3.0, 0);
        ordered.merge(
            5,
            &[Charge {
                seq: 1,
                at_secs: 1.0,
                amount: 2.0,
            }],
        );
        ordered.charge(100.0, 1.0);
        assert_eq!(
            late.available(101.0).to_bits(),
            ordered.available(101.0).to_bits()
        );
    }
}
