//! Per-key frequency tracking with decay, normalization, and ranks.
//!
//! [`FrequencyTracker`] implements the paper's count scheme (§2.3): each
//! tuple carries a count of the times it was requested; the count,
//! normalized by a global count of all requests, indicates popularity.
//! Decay is handled by the inflated-increment technique in
//! [`crate::decay`] on a clock the owner moves with
//! [`FrequencyTracker::advance_to`] (the guard advances it to each event's
//! time), and popularity *ranks* (needed by delay Eq. 1) come from the
//! log-bucketed order statistics in [`crate::rank`].
//!
//! Counts live in key order, in [`CountChunk`]s of up to
//! [`CHUNK_KEYS`](crate::chunks::CHUNK_KEYS) consecutive keys held by
//! `Arc` ([`crate::chunks`]): about 8 bytes per tracked key when keys are
//! dense, as a table's `RowId`s are within each page (keys scattered
//! over the whole `u64` space would cost up to a chunk each; every
//! caller keys by row id or by dense object id). Cloning a tracker
//! copies one pointer per chunk and shares the chunks; a later record
//! copies the one chunk it writes if a clone still holds it. A published
//! snapshot therefore shares every chunk the live tracker has not
//! touched since, and anything derived per chunk (the guard's packed
//! delay table) can tell a touched chunk from an untouched one by
//! pointer ([`Arc::ptr_eq`]).
//!
//! The same structure tracks update rates for the §3 update-rate scheme —
//! "frequency" is just events per key.

use crate::chunks::{split_key, KeyChunks, CHUNK_BITS, CHUNK_KEYS};
use crate::decay::DecaySchedule;
use crate::rank::{bucket_of, RankIndex, NUM_BUCKETS};
use std::sync::Arc;

/// Rank moves a batch fold applies to the rank index's prefix sums one
/// at a time. Past this many it moves only per-bucket counts and rebuilds
/// the sums once at the end, which costs about as much as this many moves.
const EAGER_RANK_MOVES: usize = NUM_BUCKETS / 8;

/// Raw counts of one run of [`CHUNK_KEYS`] consecutive keys.
///
/// Storage runs only up to the highest tracked slot: a `RowId` packs a
/// page number above a 16-bit slot, so a table of wide rows uses a few
/// low slots of each page's chunk and pays for those alone.
#[derive(Debug, Clone)]
pub struct CountChunk {
    /// Bit `slot` set: the key in that slot is tracked.
    tracked: [u64; CHUNK_KEYS / 64],
    /// Raw (inflated) count per slot, up to the highest tracked one;
    /// zero where untracked.
    raw: Vec<f64>,
}

impl CountChunk {
    fn empty() -> CountChunk {
        CountChunk {
            tracked: [0; CHUNK_KEYS / 64],
            raw: Vec::new(),
        }
    }

    /// The raw count in `slot`, if that key is tracked.
    #[inline]
    pub fn raw(&self, slot: usize) -> Option<f64> {
        if self.tracked[slot / 64] >> (slot % 64) & 1 == 1 {
            Some(self.raw[slot])
        } else {
            None
        }
    }

    /// Track the key in `slot` with raw count `raw`.
    #[inline]
    fn set(&mut self, slot: usize, raw: f64) {
        if slot >= self.raw.len() {
            self.raw.resize(slot + 1, 0.0);
        }
        self.raw[slot] = raw;
        self.tracked[slot / 64] |= 1 << (slot % 64);
    }

    /// One past the highest slot this chunk stores.
    pub fn slots(&self) -> usize {
        self.raw.len()
    }

    /// `(slot, raw count)` for every tracked key, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.tracked
            .iter()
            .enumerate()
            .flat_map(move |(word, &bits)| {
                let mut bits = bits;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let slot = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some((slot, self.raw[slot]))
                })
            })
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.tracked.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether no key is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracked.iter().all(|&w| w == 0)
    }

    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<CountChunk>() + self.raw.capacity() * std::mem::size_of::<f64>()
    }
}

/// One step of [`FrequencyTracker::fold_batch`].
#[derive(Debug, Clone, Copy)]
pub enum BatchStep<'k> {
    /// [`FrequencyTracker::advance_to`] the time, then
    /// [`FrequencyTracker::record`] each key in order.
    Record(f64, &'k [u64]),
    /// [`FrequencyTracker::ensure_tracked`] each key in order.
    Track(&'k [u64]),
}

/// A batch step taken apart into single operations: a clock move, or
/// one key to record (`record`) or to track at zero (`!record`).
#[derive(Clone, Copy)]
enum Op {
    Advance(f64),
    Key { key: u64, record: bool },
}

impl<'k> BatchStep<'k> {
    fn ops(self) -> impl Iterator<Item = Op> + 'k {
        let (at, keys, record) = match self {
            BatchStep::Record(t, keys) => (Some(t), keys, true),
            BatchStep::Track(keys) => (None, keys, false),
        };
        let keys = keys.iter().map(move |&key| Op::Key { key, record });
        at.map(Op::Advance).into_iter().chain(keys)
    }
}

/// The running state of one [`FrequencyTracker::fold_batch`]: the rank
/// index, made writable once, and the tracker's totals.
struct Fold<'a> {
    rank: &'a mut RankIndex,
    /// Moves still applied to the prefix sums as they happen.
    eager_left: usize,
    /// Whether the prefix sums lag the per-bucket counts.
    stale: bool,
    tracked: usize,
    total_raw: f64,
    max_raw: f64,
    events: u64,
}

impl Fold<'_> {
    fn insert(&mut self, b: usize) {
        if self.eager_left > 0 {
            self.eager_left -= 1;
            self.rank.insert(b);
        } else {
            self.rank.insert_occupancy(b);
            self.stale = true;
        }
    }

    fn shift(&mut self, from: usize, to: usize) {
        if from == to {
            return;
        }
        if self.eager_left > 0 {
            self.eager_left -= 1;
            self.rank.shift(from, to);
        } else {
            self.rank.shift_occupancy(from, to);
            self.stale = true;
        }
    }

    /// `record` (worth `w` raw) or `ensure_tracked` of the key in `slot`
    /// of `chunk`: [`FrequencyTracker::apply`]'s arithmetic, in its order.
    #[inline]
    fn apply(&mut self, chunk: &mut CountChunk, slot: usize, record: bool, w: f64) {
        let old = chunk.raw(slot);
        if !record {
            if old.is_none() {
                chunk.set(slot, 0.0);
                self.insert(bucket_of(0.0));
                self.tracked += 1;
            }
            return;
        }
        let new = old.map_or(w, |old| old + w);
        chunk.set(slot, new);
        match old {
            Some(old) => self.shift(bucket_of(old), bucket_of(new)),
            None => {
                self.insert(bucket_of(new));
                self.tracked += 1;
            }
        }
        self.total_raw += w;
        if new > self.max_raw {
            self.max_raw = new;
        }
        self.events += 1;
    }

    /// [`FrequencyTracker::rescale`], leaving the prefix sums to the
    /// fold's one rebuild at the end.
    fn rescale(&mut self, chunks: &mut KeyChunks<Arc<CountChunk>>, schedule: &mut DecaySchedule) {
        let f = schedule.take_rescale_factor();
        rescale_chunks(chunks, f, self.rank);
        self.total_raw /= f;
        self.max_raw /= f;
        self.eager_left = 0;
        self.stale = true;
    }
}

/// Chunk `id`, writable (copied first if a clone still shares it),
/// created empty if no tracked key falls in it yet; `cursor` is the
/// position tried first and is left at the chunk's.
fn open_chunk<'c>(
    chunks: &'c mut KeyChunks<Arc<CountChunk>>,
    cursor: &mut usize,
    id: u64,
) -> &'c mut CountChunk {
    let i = match chunks.find_from(id, *cursor) {
        Ok(i) => i,
        Err(i) => {
            chunks.insert(i, id, Arc::new(CountChunk::empty()));
            i
        }
    };
    *cursor = i;
    Arc::make_mut(chunks.at_mut(i))
}

/// The raw count of `key` in `chunks`, if tracked.
fn raw_in(chunks: &KeyChunks<Arc<CountChunk>>, key: u64) -> Option<f64> {
    chunks.get(key).and_then(|(chunk, slot)| chunk.raw(slot))
}

/// Divide every raw count by `f` and refill `rank`'s per-bucket counts
/// from the results (its prefix sums are stale until settled). Every
/// chunk is written, so every chunk is new afterwards.
fn rescale_chunks(chunks: &mut KeyChunks<Arc<CountChunk>>, f: f64, rank: &mut RankIndex) {
    debug_assert!(f > 1.0);
    rank.clear();
    for chunk in chunks.items_mut() {
        let chunk = Arc::make_mut(chunk);
        for v in chunk.raw.iter_mut() {
            *v /= f;
        }
        for (_, raw) in chunk.iter() {
            rank.insert_occupancy(bucket_of(raw));
        }
    }
}

/// Tracks decayed event frequencies per `u64` key (RowIds, object ids).
#[derive(Debug, Clone)]
pub struct FrequencyTracker {
    chunks: KeyChunks<Arc<CountChunk>>,
    /// Position of the chunk the last record wrote: a scan's keys arrive
    /// in order, so the next record usually lands in the same chunk.
    cursor: usize,
    /// Number of tracked keys.
    tracked: usize,
    schedule: DecaySchedule,
    /// Shared with clones until the next record, like the chunks.
    rank: Arc<RankIndex>,
    /// Sum of all raw (inflated) counts.
    total_raw: f64,
    /// Largest raw count over all keys (raw counts only grow between
    /// rescales, so a running max is exact).
    max_raw: f64,
    /// Total events ever recorded.
    events: u64,
}

impl FrequencyTracker {
    /// A tracker with the given decay schedule.
    pub fn new(schedule: DecaySchedule) -> FrequencyTracker {
        FrequencyTracker {
            chunks: KeyChunks::new(),
            cursor: 0,
            tracked: 0,
            schedule,
            rank: Arc::new(RankIndex::new()),
            total_raw: 0.0,
            max_raw: 0.0,
            events: 0,
        }
    }

    /// A tracker that never decays (static distributions, paper Table 3's
    /// `decay = 1.0` row).
    pub fn no_decay() -> FrequencyTracker {
        FrequencyTracker::new(DecaySchedule::none())
    }

    /// The decay schedule in use.
    pub fn schedule(&self) -> &DecaySchedule {
        &self.schedule
    }

    /// Record one event for `key` at the current decay clock (see
    /// [`FrequencyTracker::advance_to`]).
    pub fn record(&mut self, key: u64) {
        self.record_weighted(key, 1.0);
    }

    /// Record an event worth `units` fresh accesses at the current decay
    /// clock: a weekly sales figure in one shot, or coalesced counts (a
    /// warm start, a peer's replicated delta) landing as one batch.
    pub fn record_weighted(&mut self, key: u64, units: f64) {
        self.apply(key, self.schedule.weight() * units);
        self.events += extra_events(units);
    }

    /// Move the decay clock forward to `t` (a no-op unless `t` is later
    /// than the clock): every count recorded so far loses `g^(t - now)`
    /// of its weight relative to events recorded from here on. Recording
    /// never moves the clock; the owner advances it to each event's time
    /// before recording it, so age is measured in time, not in traffic.
    pub fn advance_to(&mut self, t: f64) {
        self.schedule.advance_to(t);
        if self.schedule.needs_rescale() {
            self.rescale();
        }
    }

    /// Fold a batch of steps: exactly [`FrequencyTracker::advance_to`] +
    /// [`FrequencyTracker::record`] for each [`BatchStep::Record`] and
    /// [`FrequencyTracker::ensure_tracked`] for each
    /// [`BatchStep::Track`], in order — the same arithmetic in the same
    /// order, so every count, total and rank ends bit-equal — at a
    /// constant cost per key. The rank index is made writable once per
    /// batch and a chunk once per run of a step's keys that fall in it;
    /// past the first [`EAGER_RANK_MOVES`] rank moves a key moves only
    /// its bucket's count, and the prefix sums are rebuilt once at the
    /// end. Returns whether they were.
    pub fn fold_batch<'k>(&mut self, steps: impl IntoIterator<Item = BatchStep<'k>>) -> bool {
        let mut ops = steps.into_iter().flat_map(BatchStep::ops).peekable();
        if ops.peek().is_none() {
            return false;
        }
        let mut fold = Fold {
            rank: Arc::make_mut(&mut self.rank),
            eager_left: EAGER_RANK_MOVES,
            stale: false,
            tracked: self.tracked,
            total_raw: self.total_raw,
            max_raw: self.max_raw,
            events: self.events,
        };
        let mut w = self.schedule.weight();
        while let Some(op) = ops.next() {
            let (key, record) = match op {
                Op::Advance(t) => {
                    self.schedule.advance_to(t);
                    if self.schedule.needs_rescale() {
                        fold.rescale(&mut self.chunks, &mut self.schedule);
                    }
                    w = self.schedule.weight();
                    continue;
                }
                // An already tracked key writes nothing: leave its chunk
                // shared.
                Op::Key { key, record: false } if raw_in(&self.chunks, key).is_some() => continue,
                Op::Key { key, record } => (key, record),
            };
            let (id, slot) = split_key(key);
            let chunk = open_chunk(&mut self.chunks, &mut self.cursor, id);
            fold.apply(chunk, slot, record, w);
            // Keep writing this chunk while the step's keys stay in it.
            let same_chunk = |op: &Op| matches!(*op, Op::Key { key, .. } if split_key(key).0 == id);
            while let Some(Op::Key { key, record }) = ops.next_if(same_chunk) {
                fold.apply(chunk, split_key(key).1, record, w);
            }
        }
        self.tracked = fold.tracked;
        self.total_raw = fold.total_raw;
        self.max_raw = fold.max_raw;
        self.events = fold.events;
        if fold.stale {
            fold.rank.settle();
        }
        fold.stale
    }

    /// The chunk holding `key`, writable (copied first if a clone still
    /// shares it), created empty if no tracked key falls in it yet.
    fn chunk_mut(&mut self, key: u64) -> (&mut CountChunk, usize) {
        let (id, slot) = split_key(key);
        (open_chunk(&mut self.chunks, &mut self.cursor, id), slot)
    }

    /// The raw count of `key`, if tracked.
    fn raw(&self, key: u64) -> Option<f64> {
        raw_in(&self.chunks, key)
    }

    /// Add a raw (already inflated) increment to a key's counter.
    ///
    /// Bumps `events` by one; weighted entry points add the remaining
    /// `units - 1` themselves via [`extra_events`], so a record worth
    /// `units` accesses counts as `units` requests in the undecayed
    /// global total that [`FrequencyTracker::fmax_global`] divides by.
    /// Without that, bulk-seeded counts (write-behind flushes,
    /// warm-started popularity) would dwarf the request count and push
    /// the "relative" frequency far above 1.
    fn apply(&mut self, key: u64, w: f64) {
        let (chunk, slot) = self.chunk_mut(key);
        let old = chunk.raw(slot);
        let new = old.map_or(w, |old| old + w);
        chunk.set(slot, new);
        let rank = Arc::make_mut(&mut self.rank);
        match old {
            // Already rank-indexed (possibly at count 0 via
            // `ensure_tracked`): move, don't re-insert.
            Some(old) => rank.shift(bucket_of(old), bucket_of(new)),
            None => {
                rank.insert(bucket_of(new));
                self.tracked += 1;
            }
        }
        self.total_raw += w;
        if new > self.max_raw {
            self.max_raw = new;
        }
        self.events += 1;
    }

    /// Pre-register a key with zero count so it participates in ranks
    /// ("we assume all items are equally unpopular with frequencies of
    /// zero", §2.3). Zero-count keys rank below every key with events.
    pub fn ensure_tracked(&mut self, key: u64) {
        if self.contains(key) {
            return;
        }
        let (chunk, slot) = self.chunk_mut(key);
        chunk.set(slot, 0.0);
        Arc::make_mut(&mut self.rank).insert(bucket_of(0.0));
        self.tracked += 1;
    }

    /// Whether `key` has ever been seen (recorded or pre-registered).
    pub fn contains(&self, key: u64) -> bool {
        self.raw(key).is_some()
    }

    /// Number of distinct keys tracked (including zero-count keys).
    pub fn tracked(&self) -> usize {
        self.tracked
    }

    /// Total events recorded.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Decay-normalized count for `key`, in units of "equivalent fresh
    /// accesses". Unknown keys count as zero.
    pub fn count(&self, key: u64) -> f64 {
        self.schedule.normalize(self.raw(key).unwrap_or(0.0))
    }

    /// Decay-normalized total of all counts.
    pub fn total(&self) -> f64 {
        self.schedule.normalize(self.total_raw)
    }

    /// Frequency of the most popular key (`f_max` in delay Eq. 1).
    pub fn fmax(&self) -> f64 {
        if self.total_raw <= 0.0 {
            return 0.0;
        }
        self.max_raw / self.total_raw
    }

    /// Largest decay-normalized count.
    pub fn max_count(&self) -> f64 {
        self.schedule.normalize(self.max_raw)
    }

    /// The paper's §2.3 popularity normalization: the (decayed) maximum
    /// count over "a global count of all requests" — the *undecayed*
    /// event total. Identical to [`FrequencyTracker::fmax`] without decay;
    /// under decay it shrinks as history is forgotten, which is what makes
    /// every delay grow with the decay rate in the paper's Tables 3–4.
    pub fn fmax_global(&self) -> f64 {
        if self.events == 0 {
            return 0.0;
        }
        self.max_count() / self.events as f64
    }

    /// Approximate 1-based popularity rank of `key` among tracked keys
    /// (1 = most popular). Keys never seen rank after every tracked key.
    pub fn rank(&self, key: u64) -> usize {
        match self.raw(key) {
            Some(raw) => self.rank.rank(raw),
            None => self.tracked() + 1,
        }
    }

    /// Exact 1-based rank by linear scan (`O(n)`), with the same
    /// worst-rank tie semantics as [`FrequencyTracker::rank`]; the
    /// reference the tests compare against.
    pub fn exact_rank(&self, key: u64) -> usize {
        let Some(mine) = self.raw(key) else {
            return self.tracked() + 1;
        };
        let greater = self.raws().filter(|&(_, c)| c > mine).count();
        let tied = self.raws().filter(|&(_, c)| c == mine).count();
        greater + tied.max(1)
    }

    /// `(key, raw count)` for every tracked key, in key order.
    fn raws(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.chunks.iter().flat_map(|(id, chunk)| {
            chunk
                .iter()
                .map(move |(slot, raw)| (id << CHUNK_BITS | slot as u64, raw))
        })
    }

    /// `(chunk id, chunk)` for every chunk, in key order: the chunk with
    /// id `c` holds keys `c << CHUNK_BITS ..`. A chunk is a new `Arc`
    /// whenever a record has written it since it was last shared, so a
    /// table derived per chunk is rebuilt only where the pointer moved.
    pub fn chunks(&self) -> impl Iterator<Item = (u64, &Arc<CountChunk>)> + '_ {
        self.chunks.iter()
    }

    /// The rank index over every tracked key's raw count (the bucket of
    /// a raw count is [`bucket_of`]).
    pub fn rank_index(&self) -> &RankIndex {
        &self.rank
    }

    /// Iterate `(key, approximate 1-based rank)` pairs for every tracked
    /// key, in key order. Each rank is exactly what
    /// [`FrequencyTracker::rank`] would return for that key right now.
    pub fn rank_table(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        self.raws().map(|(k, raw)| (k, self.rank.rank(raw)))
    }

    /// Iterate `(key, decay-normalized count)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.raws()
            .map(|(k, raw)| (k, self.schedule.normalize(raw)))
    }

    /// Snapshot the tracker as `(key, decay-normalized count)` pairs
    /// sorted by key: the deterministic wire form replication ships.
    /// Normalized counts are the decay-invariant representation — the
    /// receiver folds them back in at *its* current weight via
    /// [`FrequencyTracker::record_weighted`], so two trackers at
    /// different points in their inflated-increment/rescale cycles
    /// exchange state without either's arithmetic leaking into the other.
    pub fn export_counts(&self) -> Vec<(u64, f64)> {
        self.iter().collect()
    }

    /// Heap bytes this tracker holds: its chunks, their directory and the
    /// rank index (chunks shared with a clone count in full for both).
    pub fn heap_bytes(&self) -> usize {
        let chunks: usize = self.chunks.iter().map(|(_, c)| c.heap_bytes()).sum();
        chunks + self.chunks.directory_bytes() + self.rank.heap_bytes()
    }

    /// Divide every stored quantity by the accumulated inflation factor and
    /// rebuild the rank index. Called automatically when the schedule
    /// signals overflow risk. Every chunk is written, so every chunk is
    /// new afterwards.
    fn rescale(&mut self) {
        let f = self.schedule.take_rescale_factor();
        let rank = Arc::make_mut(&mut self.rank);
        rescale_chunks(&mut self.chunks, f, rank);
        rank.settle();
        self.total_raw /= f;
        self.max_raw /= f;
    }
}

/// Requests beyond the one [`FrequencyTracker::apply`] already counted
/// for a record worth `units` accesses. Fractional units (coalesced
/// write-behind deltas) round to the nearest whole request; anything
/// below 1 adds nothing extra.
fn extra_events(units: f64) -> u64 {
    (units.round() as u64).saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative frequency of `key`: its count over the total count.
    /// Zero when nothing has been recorded.
    fn frequency(t: &FrequencyTracker, key: u64) -> f64 {
        if t.total_raw <= 0.0 {
            return 0.0;
        }
        t.raw(key).unwrap_or(0.0) / t.total_raw
    }

    #[test]
    fn counts_and_frequencies_no_decay() {
        let mut t = FrequencyTracker::no_decay();
        for _ in 0..30 {
            t.record(1);
        }
        for _ in 0..10 {
            t.record(2);
        }
        assert_eq!(t.count(1), 30.0);
        assert_eq!(t.count(2), 10.0);
        assert_eq!(t.count(99), 0.0);
        assert_eq!(t.total(), 40.0);
        assert!((frequency(&t, 1) - 0.75).abs() < 1e-12);
        assert!((t.fmax() - 0.75).abs() < 1e-12);
        assert_eq!(t.events(), 40);
        assert_eq!(t.tracked(), 2);
    }

    #[test]
    fn ranks_follow_counts() {
        let mut t = FrequencyTracker::no_decay();
        for key in 0..10u64 {
            // Key k gets 2^k accesses: unambiguous ranking.
            for _ in 0..(1u64 << key) {
                t.record(key);
            }
        }
        for key in 0..10u64 {
            assert_eq!(t.rank(key), (10 - key) as usize, "key {key}");
            assert_eq!(t.exact_rank(key), (10 - key) as usize);
        }
        assert_eq!(t.rank(777), 11, "unseen key ranks last");
    }

    #[test]
    fn zero_count_keys_rank_last() {
        let mut t = FrequencyTracker::no_decay();
        t.record(1);
        t.ensure_tracked(2);
        t.ensure_tracked(2); // idempotent
        t.ensure_tracked(3);
        assert_eq!(t.tracked(), 3);
        assert!(t.contains(2));
        assert!(!t.contains(9));
        assert_eq!(t.rank(1), 1);
        // Both zero-count keys tie at the worst rank.
        assert_eq!(t.rank(2), 3);
        assert_eq!(t.rank(3), 3);
        assert_eq!(t.exact_rank(2), 3);
        assert_eq!(frequency(&t, 2), 0.0);
    }

    #[test]
    fn decay_forgets_the_past() {
        // With strong decay, a key hammered long ago loses to a key
        // accessed recently.
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.1));
        for i in 1..=100 {
            t.advance_to(i as f64);
            t.record(1);
        }
        for i in 101..=120 {
            t.advance_to(i as f64);
            t.record(2);
        }
        assert!(
            t.count(2) > t.count(1),
            "recent key should dominate: {} vs {}",
            t.count(2),
            t.count(1)
        );
        assert_eq!(t.rank(2), 1);
    }

    #[test]
    fn no_decay_is_order_insensitive() {
        let mut a = FrequencyTracker::no_decay();
        let mut b = FrequencyTracker::no_decay();
        for _ in 0..50 {
            a.record(1);
        }
        for _ in 0..50 {
            a.record(2);
        }
        for _ in 0..50 {
            b.record(2);
        }
        for _ in 0..50 {
            b.record(1);
        }
        assert_eq!(a.count(1), b.count(1));
        assert_eq!(frequency(&a, 2), frequency(&b, 2));
    }

    #[test]
    fn rescale_preserves_normalized_state() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        for i in 0..100 {
            t.advance_to(i as f64);
            t.record(i % 7);
        }
        assert!(t.schedule().rescales() > 0, "rescale should have fired");
        // Normalized counts remain sane and ranks consistent with counts.
        let mut pairs: Vec<(u64, f64)> = t.iter().collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        assert_eq!(t.rank(pairs[0].0), 1);
        let total: f64 = pairs.iter().map(|(_, c)| c).sum();
        assert!((total - t.total()).abs() / total < 1e-9);
    }

    #[test]
    fn ensure_tracked_then_record_does_not_duplicate_rank_entries() {
        // Regression: pre-registering a key and then recording it must
        // move its single rank entry, not add a second one.
        let mut t = FrequencyTracker::no_decay();
        for k in 0..100u64 {
            t.ensure_tracked(k);
        }
        for _ in 0..10 {
            t.record(0);
        }
        t.record(1);
        assert_eq!(t.tracked(), 100);
        assert_eq!(t.rank(0), 1);
        assert_eq!(t.rank(1), 2);
        // All 98 zero-count keys tie at the worst rank, exactly 100.
        assert_eq!(t.rank(50), 100);
        assert_eq!(t.exact_rank(50), 100);
    }

    #[test]
    fn record_does_not_advance_the_clock() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(2.0));
        t.record(1);
        t.record(1);
        assert_eq!(t.count(1), 2.0, "no inflation without time");
        assert_eq!(t.schedule().weight(), 1.0);
        t.advance_to(1.0);
        assert_eq!(t.count(1), 1.0, "one unit of time halves the count");
        t.record(2);
        assert_eq!(t.count(2), 1.0, "new events worth 1 at current weight");
    }

    #[test]
    fn weighted_records() {
        let mut t = FrequencyTracker::no_decay();
        t.record_weighted(1, 100.0);
        t.record(2);
        assert_eq!(t.count(1), 100.0);
        assert!((frequency(&t, 1) - 100.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn advance_to_decays_without_events() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(2.0));
        t.record(1);
        let before = t.count(1);
        t.advance_to(1.0);
        let after = t.count(1);
        assert!((after - before / 2.0).abs() < 1e-12);
        assert_eq!(t.events(), 1);
    }

    #[test]
    fn advance_to_is_monotone() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.5));
        t.record(1);
        t.advance_to(10.0);
        let count = t.count(1);
        for back in [10.0, 9.0, 3.5, 0.0] {
            t.advance_to(back);
            assert_eq!(t.count(1), count, "advance_to({back}) moved decay");
        }
        t.advance_to(11.0);
        assert!(t.count(1) < count);
    }

    #[test]
    fn k_unit_steps_equal_one_k_step() {
        let mut stepped = FrequencyTracker::new(DecaySchedule::new(1.03));
        let mut jumped = FrequencyTracker::new(DecaySchedule::new(1.03));
        for tr in [&mut stepped, &mut jumped] {
            tr.record(1);
            tr.record(2);
        }
        for t in 1..=40 {
            stepped.advance_to(t as f64);
        }
        jumped.advance_to(40.0);
        for tr in [&mut stepped, &mut jumped] {
            tr.record(2);
        }
        for key in [1, 2] {
            let (a, b) = (stepped.count(key), jumped.count(key));
            assert!((a - b).abs() <= a * 1e-12, "key {key}: {a} vs {b}");
        }
        assert!((stepped.total() - jumped.total()).abs() <= stepped.total() * 1e-12);
    }

    #[test]
    fn rescale_fires_when_time_alone_advances() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(10.0).with_rescale_threshold(1e6));
        t.record(1);
        t.advance_to(5.0);
        assert_eq!(t.schedule().rescales(), 0);
        t.advance_to(6.0);
        assert_eq!(
            t.schedule().rescales(),
            1,
            "weight 1e6 reached the threshold"
        );
        assert_eq!(t.schedule().weight(), 1.0);
        assert!((t.count(1) - 1e-6).abs() <= 1e-18);
        assert!((t.total() - 1e-6).abs() <= 1e-18);
        assert_eq!(t.rank(1), 1);
    }

    #[test]
    fn unit_rate_keeps_weight_exactly_one() {
        let mut t = FrequencyTracker::no_decay();
        for i in 0..1000u64 {
            t.advance_to(i as f64 * 3.25);
            t.record(i % 5);
        }
        t.advance_to(1e12);
        assert_eq!(t.schedule().weight(), 1.0);
        assert_eq!(t.count(0), 200.0);
        assert_eq!(t.total(), 1000.0);
    }

    #[test]
    fn export_fold_roundtrip_is_decay_invariant() {
        // A tracker deep into its inflation cycle (rescales included)
        // exports normalized counts; folding them into a fresh tracker
        // reproduces counts, frequencies and ranks.
        let mut src = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        for i in 0..200u64 {
            src.advance_to(i as f64);
            src.record(i % 11);
        }
        assert!(src.schedule().rescales() > 0);
        let exported = src.export_counts();
        let mut dst = FrequencyTracker::new(DecaySchedule::new(1.5).with_rescale_threshold(1e6));
        // Put the receiver at a different point in its own cycle first.
        dst.advance_to(17.0);
        for &(k, units) in &exported {
            dst.record_weighted(k, units);
        }
        for k in 0..11u64 {
            let a = src.count(k);
            let b = dst.count(k);
            assert!(
                (a - b).abs() <= a.abs() * 1e-9,
                "key {k}: {a} vs {b} despite normalization"
            );
            assert_eq!(src.rank(k), dst.rank(k), "key {k}");
        }
        assert!((src.fmax() - dst.fmax()).abs() < 1e-12);
    }

    #[test]
    fn export_counts_is_sorted_and_complete() {
        let mut t = FrequencyTracker::no_decay();
        t.record(9);
        t.record(3);
        t.ensure_tracked(7);
        let e = t.export_counts();
        assert_eq!(e, vec![(3, 1.0), (7, 0.0), (9, 1.0)]);
    }

    #[test]
    fn rank_table_matches_rank_per_key() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(1.2));
        for i in 0..500u64 {
            t.advance_to(i as f64);
            t.record(i % 23);
        }
        t.ensure_tracked(1000);
        let table: Vec<(u64, usize)> = t.rank_table().collect();
        assert_eq!(table.len(), t.tracked());
        for (key, rank) in table {
            assert_eq!(rank, t.rank(key), "key {key}");
        }
    }

    #[test]
    fn clones_share_chunks_until_written() {
        let mut t = FrequencyTracker::new(DecaySchedule::new(10.0).with_rescale_threshold(1e6));
        for key in 0..1000u64 {
            t.record(key);
        }
        let frozen = t.clone();
        let moved = |a: &FrequencyTracker, b: &FrequencyTracker| -> Vec<u64> {
            a.chunks()
                .zip(b.chunks())
                .filter(|((_, x), (_, y))| !Arc::ptr_eq(x, y))
                .map(|((id, _), _)| id)
                .collect()
        };
        assert!(moved(&t, &frozen).is_empty());
        t.record(300);
        t.ensure_tracked(301);
        assert_eq!(moved(&t, &frozen), vec![1], "only chunk 1 was written");
        assert_eq!(frozen.count(300), 1.0);
        assert_eq!(t.count(300), 2.0);
        t.advance_to(6.0);
        assert_eq!(t.schedule().rescales(), 1);
        assert_eq!(
            moved(&t, &frozen),
            vec![0, 1, 2, 3],
            "a rescale writes every chunk"
        );
    }

    /// Everything a reader of a tracker can see, as bits.
    fn observed(t: &FrequencyTracker, keys: &[u64]) -> Vec<u64> {
        let mut out = vec![
            t.total().to_bits(),
            t.fmax().to_bits(),
            t.fmax_global().to_bits(),
            t.max_count().to_bits(),
            t.events(),
            t.tracked() as u64,
            t.schedule().rescales(),
            t.schedule().weight().to_bits(),
            t.rank_index().len() as u64,
        ];
        for &k in keys {
            out.push(t.count(k).to_bits());
            out.push(t.rank(k) as u64);
        }
        out.extend(
            t.rank_index()
                .bucket_ranks()
                .flat_map(|(b, r)| [b as u64, r as u64]),
        );
        out
    }

    /// Raw counts of every chunk, by chunk id (a deep copy).
    fn chunk_contents(t: &FrequencyTracker) -> Vec<(u64, Vec<(usize, u64)>)> {
        t.chunks()
            .map(|(id, c)| (id, c.iter().map(|(s, r)| (s, r.to_bits())).collect()))
            .collect()
    }

    /// Ids of the chunks `now` holds that `then` does not share.
    fn moved(now: &FrequencyTracker, then: &FrequencyTracker) -> Vec<u64> {
        now.chunks()
            .filter(|(id, c)| {
                !then
                    .chunks()
                    .any(|(tid, tc)| tid == *id && Arc::ptr_eq(c, tc))
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// `fold_batch` against `advance_to` + `record` / `ensure_tracked`
    /// one step at a time, bit for bit: counts, ranks, `fmax`,
    /// `fmax_global`, totals, events and rescales after every batch, at
    /// decay 1.0, 1.001 and 1.05 with rescales inside batches, batches
    /// above and below the eager-move bound, keys in scan runs, at random
    /// and in new chunks between old ones, events out of time order, and
    /// snapshot clones between batches: a clone's chunks keep their
    /// contents, and a batch writes exactly the chunks the one-at-a-time
    /// steps write.
    #[test]
    fn fold_batch_matches_advance_and_record() {
        for (rate, dt) in [(1.0, 1.0), (1.001, 40.0), (1.05, 2.0)] {
            let schedule = DecaySchedule::new(rate).with_rescale_threshold(1e3);
            let mut stepped = FrequencyTracker::new(schedule.clone());
            let mut folded = FrequencyTracker::new(schedule);
            let mut rng = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut probe: Vec<u64> = vec![7, 1 << 30];
            let mut t = 0.0;
            let mut rescaled_inside = 0;
            for batch in 0..60 {
                // Owned steps: (time, keys, record?)
                let len = if batch % 4 == 0 { 200 } else { 1 + next() % 12 };
                let mut steps: Vec<(f64, Vec<u64>, bool)> = Vec::new();
                for _ in 0..len {
                    t += (next() % 1000) as f64 / 1000.0 * dt;
                    let at = if next() % 9 == 0 { t - dt } else { t };
                    let keys: Vec<u64> = match next() % 6 {
                        0 => {
                            let start = next() % 3000;
                            (start..start + 1 + next() % 300).collect()
                        }
                        1 => (0..1 + next() % 4).map(|_| (next() % 64) << 12).collect(),
                        2 => vec![(1 << 30) | (next() % 700)],
                        _ => (0..1 + next() % 3).map(|_| next() % 3000).collect(),
                    };
                    probe.extend(keys.iter().take(2));
                    steps.push((at, keys, next() % 7 != 0));
                }
                let rescales = folded.schedule().rescales();
                let (frozen_stepped, frozen) = (stepped.clone(), folded.clone());
                let frozen_contents = chunk_contents(&frozen);
                let frozen_seen = observed(&frozen, &probe);
                for (at, keys, record) in &steps {
                    if *record {
                        stepped.advance_to(*at);
                        keys.iter().for_each(|&k| stepped.record(k));
                    } else {
                        keys.iter().for_each(|&k| stepped.ensure_tracked(k));
                    }
                }
                folded.fold_batch(steps.iter().map(|(at, keys, record)| {
                    if *record {
                        BatchStep::Record(*at, keys)
                    } else {
                        BatchStep::Track(keys)
                    }
                }));
                if folded.schedule().rescales() > rescales && steps.len() > 1 {
                    rescaled_inside += 1;
                }
                let what = format!("rate {rate} batch {batch}");
                assert_eq!(
                    observed(&folded, &probe),
                    observed(&stepped, &probe),
                    "{what}"
                );
                assert_eq!(chunk_contents(&folded), chunk_contents(&stepped), "{what}");
                assert_eq!(chunk_contents(&frozen), frozen_contents, "{what}: clone");
                assert_eq!(observed(&frozen, &probe), frozen_seen, "{what}: clone");
                assert_eq!(
                    moved(&folded, &frozen),
                    moved(&stepped, &frozen_stepped),
                    "{what}: chunks written"
                );
            }
            if rate > 1.0 {
                assert!(
                    rescaled_inside > 0,
                    "rate {rate}: no rescale inside a batch"
                );
            }
        }
    }

    /// A batch with more rank moves than the eager bound rebuilds the
    /// prefix sums once, at its end; a small one moves them in place.
    #[test]
    fn fold_batch_rebuilds_rank_sums_once_past_the_eager_bound() {
        let mut t = FrequencyTracker::no_decay();
        let few: Vec<u64> = (0..10).collect();
        assert!(!t.fold_batch([BatchStep::Record(1.0, &few)]));
        let many: Vec<u64> = (0..EAGER_RANK_MOVES as u64 + 1).collect();
        assert!(t.fold_batch([BatchStep::Record(2.0, &many), BatchStep::Record(3.0, &few)]));
        assert!(!t.fold_batch(std::iter::empty()));
        assert_eq!(t.rank(0), 10);
        assert_eq!(t.rank(11), t.tracked());
    }

    #[test]
    fn approx_rank_tracks_exact_rank_closely() {
        // Zipf-ish synthetic counts; approximate rank must stay within the
        // tie-width of exact rank.
        let mut t = FrequencyTracker::no_decay();
        let mut x: u64 = 12345;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Skewed key choice: low keys much more likely.
            let key = (x % 64).min(x % 17).min(x % 5);
            t.record(key);
        }
        for key in 0..20u64 {
            let a = t.rank(key);
            let e = t.exact_rank(key);
            // Ranks agree up to ties within one log-bucket.
            assert!(
                (a as i64 - e as i64).abs() <= 3,
                "key {key}: approx {a} vs exact {e}"
            );
        }
    }
}
