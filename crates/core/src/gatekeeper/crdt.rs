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
//! token-bucket arithmetic
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
//! The bucket keeps its own origin's log and replay position as plain
//! fields and other origins' logs in a side map, read only after a merge
//! added entries to one of them: an own charge levied in order folds in
//! place, with no map walk and no allocation. A merge that introduces
//! charges *behind* the frontier (a delta from a lagging peer) rewinds to
//! genesis and replays the merged log in sorted order — rare, bounded by
//! log length, and what keeps the result independent of delta arrival
//! order.

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

/// Another origin's append-only charge log, as merged so far.
#[derive(Debug, Clone, Default)]
struct RemoteLog {
    log: Vec<Charge>,
    /// How many entries of `log` the cache has replayed.
    replayed: usize,
}

/// A token bucket whose state is a mergeable set of per-origin charge
/// logs. See the module docs for the convergence argument.
#[derive(Debug, Clone)]
pub(crate) struct MergeableBucket {
    rate: f64,
    burst: f64,
    origin: u16,
    /// This node's own append-only charge log.
    own: Vec<Charge>,
    /// How many entries of `own` the cache has replayed.
    own_replayed: usize,
    /// Every other origin's log, by origin.
    remote: BTreeMap<u16, RemoteLog>,
    /// Some remote log holds entries the cache has not replayed (a merge
    /// added them since the last sorted replay).
    remote_pending: bool,
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

/// Append the entries of `entries` that extend `log` by `seq`.
fn extend_log(log: &mut Vec<Charge>, entries: &[Charge]) {
    for c in entries {
        if c.seq == log.len() as u64 + 1 {
            log.push(*c);
        }
    }
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
            own: Vec::new(),
            own_replayed: 0,
            remote: BTreeMap::new(),
            remote_pending: false,
            tokens: burst,
            last: 0.0,
            frontier: None,
        }
    }

    /// This node's own charge log (what replication ships to peers).
    pub(crate) fn own_log(&self) -> &[Charge] {
        &self.own
    }

    /// Record a local charge at `now` (appended to the own-origin log;
    /// folded into the cached level on the next read).
    pub(crate) fn charge(&mut self, now: f64, amount: f64) {
        let seq = self.own.len() as u64 + 1;
        self.own.push(Charge {
            seq,
            at_secs: now,
            amount,
        });
    }

    /// Fold another origin's log in. Entries already known (by `seq`) are
    /// skipped, so merging is idempotent; since each origin's log is
    /// cumulative and append-only, merge order cannot matter. Entries
    /// under this bucket's own origin extend the own log.
    pub(crate) fn merge(&mut self, origin: u16, entries: &[Charge]) {
        if origin == self.origin {
            extend_log(&mut self.own, entries);
            return;
        }
        let remote = self.remote.entry(origin).or_default();
        let known = remote.log.len();
        extend_log(&mut remote.log, entries);
        self.remote_pending |= remote.log.len() > known;
    }

    /// Tokens available at `now` under the merged charge history.
    pub(crate) fn available(&mut self, now: f64) -> f64 {
        self.sync();
        self.peek(now)
    }

    /// Earliest time at which `n` tokens will be available (≥ `now`).
    pub(crate) fn next_available(&mut self, now: f64, n: f64) -> f64 {
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
        if !self.remote_pending && self.fold_own_tail() {
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
                self.own_replayed = 0;
                self.remote.values_mut().for_each(|r| r.replayed = 0);
                pending = self.pending();
            }
        }
        for &(at, origin, seq, amount) in &pending {
            self.fold(at, origin, seq, amount);
        }
        // Everything pending was folded: every log is replayed in full.
        self.own_replayed = self.own.len();
        self.remote
            .values_mut()
            .for_each(|r| r.replayed = r.log.len());
        self.remote_pending = false;
    }

    /// The steady state of local admission, folded without allocating or
    /// touching the remote logs (the caller has checked none has entries
    /// pending): when the own log's un-replayed tail lies in replay order
    /// at or after the frontier, fold it in place — the same operations,
    /// in the same order, as the sorted replay. Returns `false`, having
    /// folded nothing, otherwise.
    fn fold_own_tail(&mut self) -> bool {
        let origin = self.origin;
        let tail = &self.own[self.own_replayed..];
        let keys = self
            .frontier
            .into_iter()
            .chain(tail.iter().map(|c| (c.at_secs, origin, c.seq)));
        if !keys.is_sorted_by(|a, b| key_cmp(*a, *b).is_le()) {
            return false;
        }
        for i in self.own_replayed..self.own.len() {
            let c = self.own[i];
            self.fold(c.at_secs, origin, c.seq, c.amount);
        }
        self.own_replayed = self.own.len();
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
        let own = self.own[self.own_replayed..]
            .iter()
            .map(|c| (self.origin, c));
        let remote = self
            .remote
            .iter()
            .flat_map(|(&origin, r)| r.log[r.replayed..].iter().map(move |c| (origin, c)));
        let mut out: Vec<(f64, u16, u64, f64)> = own
            .chain(remote)
            .map(|(origin, c)| (c.at_secs, origin, c.seq, c.amount))
            .collect();
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
        let mut shape: Vec<(u16, usize)> =
            b.remote.iter().map(|(&o, r)| (o, r.log.len())).collect();
        shape.push((b.origin, b.own.len()));
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

    /// `(available(now), next_available(now, 1.0))` of a bucket that
    /// replays `charges` once, from genesis, in `(at, origin, seq)`
    /// order: the definition the cached replay must reproduce.
    fn replayed(rate: f64, burst: f64, charges: &[(f64, u16, u64, f64)], now: f64) -> (f64, f64) {
        let mut sorted = charges.to_vec();
        sorted.sort_by(|a, b| key_cmp((a.0, a.1, a.2), (b.0, b.1, b.2)));
        let (mut tokens, mut last) = (burst, 0.0);
        for &(at, _, _, amount) in &sorted {
            if at > last {
                tokens = (tokens + (at - last) * rate).min(burst);
                last = at;
            }
            tokens = (tokens - amount).max(0.0);
        }
        let level = if now > last {
            (tokens + (now - last) * rate).min(burst)
        } else {
            tokens
        };
        let next = if level + EPS >= 1.0 {
            now
        } else {
            now + (1.0 - level) / rate
        };
        (level, next)
    }

    /// The own log in a plain field and remote logs in a side map, against
    /// the definition. Over a random mix of own charges (some stamped in
    /// the past), remote deliveries (cumulative prefixes, stale repeats and
    /// slices that skip ahead) and echoes of the own log merged under the
    /// own origin, with reads between some steps and not others: at every
    /// read `available` and `next_available` equal the whole merged log
    /// replayed once in `(at, origin, seq)` order, bit for bit, and
    /// `own_log` holds exactly the charges levied, in order.
    #[test]
    fn bucket_layout_matches_whole_log_replay() {
        for seed in 1..=48u64 {
            let mut rng = X(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1);
            let (rate, burst) = (0.5 + rng.f64() * 2.0, 1.0 + rng.f64() * 5.0);
            let own = (seed % 3) as u16 * 2;
            let mut bucket = MergeableBucket::new(rate, burst, own);
            // Quarter-second times, so charges of different origins (and
            // of one origin) often share an instant.
            let quarter = |rng: &mut X| (rng.next() % 3) as f64 * 0.25;
            let remotes: Vec<(u16, Vec<Charge>)> = [1u16, 3, 5]
                .iter()
                .map(|&origin| {
                    let mut t = quarter(&mut rng) * 4.0;
                    let log = (1..=30u64)
                        .map(|seq| {
                            t += quarter(&mut rng);
                            let amount = 0.25 + rng.f64() * 1.5;
                            Charge {
                                seq,
                                at_secs: t,
                                amount,
                            }
                        })
                        .collect();
                    (origin, log)
                })
                .collect();
            let mut delivered = vec![0usize; remotes.len()];
            let mut levied: Vec<Charge> = Vec::new();
            let mut t = 0.0;
            for step in 0..300 {
                t += quarter(&mut rng);
                match rng.next() % 8 {
                    0..=3 => {
                        let amount = 0.25 + rng.f64() * 1.5;
                        bucket.charge(t, amount);
                        levied.push(Charge {
                            seq: levied.len() as u64 + 1,
                            at_secs: t,
                            amount,
                        });
                    }
                    4 => {
                        let at = (t - quarter(&mut rng) * 4.0).max(0.0);
                        bucket.charge(at, 1.0);
                        levied.push(Charge {
                            seq: levied.len() as u64 + 1,
                            at_secs: at,
                            amount: 1.0,
                        });
                    }
                    5 | 6 => {
                        let r = (rng.next() % remotes.len() as u64) as usize;
                        let (origin, log) = &remotes[r];
                        let end = (rng.next() % (log.len() as u64 + 1)) as usize;
                        let start = (rng.next() % (end as u64 + 1)) as usize;
                        bucket.merge(*origin, &log[start..end]);
                        if start <= delivered[r] {
                            delivered[r] = delivered[r].max(end);
                        }
                    }
                    _ => {
                        let n = (rng.next() % (levied.len() as u64 + 1)) as usize;
                        bucket.merge(own, &levied[..n]);
                    }
                }
                assert_eq!(bucket.own_log(), &levied[..], "seed {seed} step {step}");
                if rng.next().is_multiple_of(3) {
                    continue;
                }
                let mut all: Vec<(f64, u16, u64, f64)> = levied
                    .iter()
                    .map(|c| (c.at_secs, own, c.seq, c.amount))
                    .collect();
                for ((origin, log), &n) in remotes.iter().zip(&delivered) {
                    all.extend(
                        log[..n]
                            .iter()
                            .map(|c| (c.at_secs, *origin, c.seq, c.amount)),
                    );
                }
                let now = t + quarter(&mut rng);
                let (level, next) = replayed(rate, burst, &all, now);
                assert_eq!(
                    bucket.available(now).to_bits(),
                    level.to_bits(),
                    "seed {seed} step {step}: level"
                );
                assert_eq!(
                    bucket.next_available(now, 1.0).to_bits(),
                    next.to_bits(),
                    "seed {seed} step {step}: next"
                );
            }
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
