//! The guarded database: the paper's scheme wrapped around the engine.
//!
//! [`GuardedDatabase`] executes SQL through [`delayguard_query::Engine`]
//! and, for every *returned tuple*, (a) charges a delay according to the
//! configured [`GuardPolicy`] and (b) records the access in the table's
//! popularity tracker. Updates feed the update-rate tracker; inserts
//! pre-register tuples at zero popularity (start-up transient, §2.3).
//!
//! The computed delay is *returned*, not slept, so simulations can account
//! years of adversary delay instantly. Deployments enforce it through
//! [`GuardedDatabase::execute_with_deadline`], which converts the policy's
//! per-tuple delays into [`Clock`]-relative nanosecond deadlines the
//! caller (a server event loop, a timer wheel, ...) schedules however it
//! likes; a library caller simply sleeps until
//! [`DeadlineResponse::deadline_nanos`].
//!
//! # One execution core
//!
//! Every entry point is a thin adapter over one private core
//! (`GuardedDatabase::run`): open the engine cursor, pin the table
//! cardinality, pricing state and shaping nonce, build the one
//! [`DeadlineStream`], note writes, trip the staleness check. The *entry
//! point* picks the pricer, not configuration: a virtual timestamp
//! ([`GuardedDatabase::execute_at`]) means exact price-and-record under
//! the table's shard lock; the guard clock (`execute_with_deadline`, the
//! `*_streaming` family) means snapshot pricing. Tuples are priced in
//! exactly one place, [`DeadlineStream::charge_into`]. The two SQL-text
//! entry points reach the core through the guard's [`StatementCache`]:
//! a SELECT runs prepared, bound to the text's literals, and the cache
//! is only ever `try_lock`ed.
//!
//! # Concurrency model
//!
//! Guard state is split into a **read-mostly snapshot path** and a
//! **write-behind count path** so concurrent queries never contend on a
//! global lock:
//!
//! * The authoritative per-table `TableGuard`s live in hash-sharded
//!   mutexes ([`GuardConfig::shards`]); only the refresher and the exact
//!   virtual-time path touch them.
//! * The clock-driven path (`execute_with_deadline` and the streaming
//!   entry points) prices every tuple from an immutable
//!   [`PolicySnapshot`] behind an atomic-swap cell and records accesses
//!   into a lock-free [`ShardedEventQueue`] — zero locked work beyond the
//!   snapshot load.
//! * A refresher — the server's background thread, or any query thread
//!   that trips the [`crate::SnapshotPolicy`] staleness bounds (then via a
//!   non-blocking `try_lock`, so queries never wait) — drains the queue
//!   into the trackers *in global sequence order* and publishes a new
//!   snapshot. Each drained event first advances its tracker's decay
//!   clock to the event's own `now_secs` (decay is measured in guard
//!   time, not in events), and an event that drains after a later one
//!   never rewinds it. The drained batch is folded a table at a time,
//!   under one shard lock per table, through
//!   [`FrequencyTracker::fold_batch`]: per event the same arithmetic in
//!   the same order, at a constant cost per key and at most one rank
//!   prefix-sum rebuild per tracker per batch.
//!
//! The virtual-time simulation path (`execute_at`) keeps exact
//! sequential semantics: it applies pending events and then works under
//! the table's shard lock, so every existing experiment reproduces
//! bit-for-bit. After at most one refresh epoch the snapshot path's
//! master state — and therefore its delays — converges to exactly what
//! the sequential path would have produced for the same event sequence
//! (asserted in `tests/snapshot_concurrency.rs`).

use crate::access::PackedScalars;
use crate::clock::{nanos_to_secs, secs_to_nanos, Clock, RealClock};
use crate::config::GuardConfig;
use crate::error::Result;
use crate::policy::{ChargingModel, GuardPolicy};
use crate::replica::{tag_remote_key, ReplicaDelta, TableDelta};
use crate::snapshot::{empty_table_snapshot, PolicySnapshot, SnapshotStats, TableSnapshot};
use arc_swap::ArcSwap;
use delayguard_popularity::{BatchStep, DecaySchedule, FrequencyTracker, ShardedEventQueue};
use delayguard_query::ast::Statement;
use delayguard_query::{
    Engine, ExecScratch, Prepared, PreparedSelect, PreparedWrite, RowBuf, SelectCursor,
    SelectOutput, StatementCache, StatementKind, StatementOutput, StreamedStatement,
};
use delayguard_storage::{Row, RowId};
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-table guard state.
struct TableGuard {
    access: FrequencyTracker,
    updates: FrequencyTracker,
    /// Virtual time when this table first came under observation; the
    /// update-rate window is measured from here.
    epoch: Option<f64>,
    /// Mutated since the last snapshot rebuild (cleared by the rebuild,
    /// which re-clones dirty tables only).
    dirty: bool,
}

impl TableGuard {
    fn new(config: &GuardConfig) -> TableGuard {
        TableGuard {
            access: FrequencyTracker::new(DecaySchedule::new(config.access_decay_rate)),
            updates: FrequencyTracker::new(DecaySchedule::new(config.update_decay_rate)),
            epoch: None,
            dirty: false,
        }
    }

    fn window(&self, now: f64) -> f64 {
        match self.epoch {
            Some(e) => (now - e).max(1e-9),
            None => 1e-9,
        }
    }
}

/// The latest cumulative state received from one remote origin
/// (replace-if-newer by `seq`; see [`crate::replica`]).
#[derive(Default)]
struct RemoteState {
    seq: u64,
    tables: BTreeMap<String, TableDelta>,
}

/// Build one table's published snapshot: the local guard's trackers plus
/// every remote origin's latest cumulative delta, folded in ascending
/// origin order. Full-state replace upstream plus this fixed fold order
/// makes the result independent of delta arrival order — the same set of
/// per-origin states always rebuilds bit-identically.
///
/// The trackers are cloned by sharing their chunks, and the packed
/// access table re-reads only the chunks that differ from `previous`'s
/// (the table's last published snapshot): the local chunks written since
/// then, and every remote-tagged chunk, which the fold builds anew.
fn merged_table_snapshot(
    guard: &TableGuard,
    name: &str,
    remote: &BTreeMap<u16, RemoteState>,
    policy: &GuardPolicy,
    previous: Option<&TableSnapshot>,
) -> TableSnapshot {
    let mut access = guard.access.clone();
    let mut updates = guard.updates.clone();
    let mut extra_rows = 0u64;
    let mut epoch = guard.epoch;
    for (&origin, state) in remote.iter() {
        if let Some(td) = state.tables.get(name) {
            for &(key, units) in &td.accesses {
                access.record_weighted(tag_remote_key(origin, key), units);
            }
            for &(key, units) in &td.updates {
                updates.record_weighted(tag_remote_key(origin, key), units);
            }
            extra_rows += td.rows;
            epoch = match (epoch, td.epoch) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
    }
    // Pure access-rate pricing depends only on the frozen tracker, so it
    // can be packed once per rebuild; update-rate and hybrid delays
    // depend on the per-query window and keep the generic tracker walk.
    let packed_access = match policy {
        GuardPolicy::AccessRate(p) => {
            Some(p.pack(&access, previous.and_then(|t| t.packed_access.as_ref())))
        }
        _ => None,
    };
    TableSnapshot {
        access,
        updates,
        epoch,
        extra_rows,
        packed_access,
    }
}

/// One recorded guard mutation, queued by the snapshot path and applied
/// by the refresher. A whole chunk's keys ride in one event so the queue
/// sees one push per chunk, not one per row.
struct AccessEvent {
    table: Arc<str>,
    now_secs: f64,
    kind: EventKind,
}

/// What a statement records of the rows it read or wrote.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RowNote {
    /// Rows returned by a SELECT: record accesses.
    Select,
    /// Rows an UPDATE or DELETE touched: record update events.
    Update,
    /// Rows inserted: pre-register at zero popularity (§2.3).
    Insert,
}

enum EventKind {
    /// One row (a point read, or a one-row write), recorded like `Many`
    /// of that key, with no key vector for the refresher to free.
    One(RowNote, u64),
    Many(RowNote, Vec<u64>),
}

impl EventKind {
    /// The access record of a charged SELECT chunk's rows, or `None` for
    /// an empty chunk.
    fn select(rows: &[(RowId, Row)]) -> Option<EventKind> {
        match rows {
            [] => None,
            [(rid, _)] => Some(EventKind::One(RowNote::Select, rid.raw())),
            _ => Some(EventKind::Many(
                RowNote::Select,
                rows.iter().map(|(rid, _)| rid.raw()).collect(),
            )),
        }
    }

    /// The record of the rows a write touched (at least one).
    fn write(note: RowNote, rids: &[RowId]) -> EventKind {
        match rids {
            [rid] => EventKind::One(note, rid.raw()),
            _ => EventKind::Many(note, rids.iter().map(|r| r.raw()).collect()),
        }
    }

    fn note(&self) -> RowNote {
        match self {
            EventKind::One(note, _) | EventKind::Many(note, _) => *note,
        }
    }

    fn keys(&self) -> &[u64] {
        match self {
            EventKind::One(_, key) => std::slice::from_ref(key),
            EventKind::Many(_, keys) => keys,
        }
    }
}

/// Outcome of a guarded statement.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardedResponse {
    /// The engine's output (rows, affected RowIds, ...).
    pub output: StatementOutput,
    /// Total delay charged to this statement, in seconds.
    pub delay_secs: f64,
    /// How many tuples contributed to the delay.
    pub tuples_charged: usize,
}

/// Outcome of a guarded statement with clock enforcement deadlines.
///
/// Returned by [`GuardedDatabase::execute_with_deadline`]: instead of
/// sleeping, the guard hands the caller the [`Clock`]-relative nanosecond
/// times before which each tuple (and the statement as a whole) must not
/// be released. A server schedules these on a timer wheel; a simple
/// caller sleeps until [`DeadlineResponse::deadline_nanos`]. All times
/// are nanoseconds since the guard clock's epoch, so they are meaningful
/// under the real clock and a simulated one alike.
#[derive(Debug, Clone)]
pub struct DeadlineResponse {
    /// The engine's output (rows, affected RowIds, ...).
    pub output: StatementOutput,
    /// Raw per-tuple policy delays in row order, in seconds.
    pub tuple_delays: Vec<f64>,
    /// Per-tuple release offsets from `issued_at_nanos`, in seconds,
    /// under the configured charging model: `PerTupleSum` streams tuples
    /// at prefix sums (the query completes after the sum), `PerQueryMax`
    /// releases each tuple at its own delay (the query completes at the
    /// max).
    pub tuple_offsets: Vec<f64>,
    /// Total delay charged to the statement, in seconds (the largest
    /// tuple offset).
    pub delay_secs: f64,
    /// Guard-clock time when the statement was executed, in nanoseconds;
    /// all offsets are relative to this.
    pub issued_at_nanos: u64,
    /// A write's table's data version as its own commit left it (what a
    /// `MUTATED` reply reports); 0 for a statement that wrote no table.
    pub data_version: u64,
}

impl DeadlineResponse {
    /// The guard-clock time (nanoseconds) at which the whole statement
    /// may complete.
    pub fn deadline_nanos(&self) -> u64 {
        self.issued_at_nanos
            .saturating_add(secs_to_nanos(self.delay_secs))
    }

    /// Collapse to the summary form used by simulations and library code.
    pub(crate) fn into_response(self) -> GuardedResponse {
        GuardedResponse {
            output: self.output,
            delay_secs: self.delay_secs,
            tuples_charged: self.tuple_delays.len(),
        }
    }
}

/// A guarded statement being executed in streaming mode.
///
/// Handed to the closure of [`GuardedDatabase::execute_stmt_streaming`]:
/// SELECTs arrive as an open [`DeadlineStream`] to pull and price in
/// chunks; everything else has already run and carries its finished
/// [`DeadlineResponse`] (non-SELECT statements are never delayed, so
/// their deadline is the issue time).
pub enum StreamedQuery<'s, 'c> {
    /// An open, priced SELECT pipeline.
    Rows(DeadlineStream<'s, 'c>),
    /// A non-SELECT statement that already ran to completion.
    Finished(DeadlineResponse),
}

/// One chunk's worth of pricing, filled by
/// [`DeadlineStream::charge_into`].
#[derive(Debug, Clone, Default)]
pub struct ChargedChunk {
    /// Raw per-tuple policy delays for the chunk, in row order (seconds).
    pub delays: Vec<f64>,
    /// Per-tuple release offsets from
    /// [`DeadlineStream::issued_at_nanos`], in seconds, under the
    /// configured charging model — the streaming continuation of
    /// [`DeadlineResponse::tuple_offsets`].
    pub offsets: Vec<f64>,
}

/// What the core executes: an ad-hoc statement, a prepared SELECT with
/// the caller's recycled executor scratch, or a prepared write.
enum Source<'a> {
    Stmt(&'a Statement),
    Prepared(&'a mut PreparedSelect, &'a mut ExecScratch),
    Write(&'a mut PreparedWrite),
}

/// Pricing state pinned when a [`DeadlineStream`] opens.
///
/// The snapshot pricer pins the `Arc<TableSnapshot>` (and its window)
/// once so a concurrent refresh cannot reprice a query mid-stream; the
/// exact pricer re-enters the shard lock per chunk, which is exact
/// because the epoch and `now` are fixed for the whole statement.
enum StreamPricing {
    /// Price and record each tuple against the live trackers under the
    /// table's shard lock (virtual-time statements).
    Exact,
    /// Price from the frozen snapshot, record via the event queue
    /// (clock-driven statements).
    Snapshot {
        stats: Arc<TableSnapshot>,
        window: f64,
        /// Relation-size scalars for the packed access-rate fast path,
        /// fixed at open when the snapshot carries a pack built for the
        /// active policy. `None` falls back to the generic tracker walk
        /// (identical bits, more cache misses).
        fast: Option<PackedScalars>,
    },
}

/// An open SELECT whose tuples are priced as they are pulled.
///
/// Pull uncharged rows with [`DeadlineStream::next_chunk_into`], then
/// price and record them with [`DeadlineStream::charge_into`] — in that
/// order, so a caller that must shed load (a full send queue, say) can
/// refuse the chunk *before* the requester's popularity ledger is charged
/// for it. The charging model folds online: after any prefix of chunks,
/// [`DeadlineStream::delay_secs`] equals exactly what
/// [`DeadlineResponse::delay_secs`] would be for that prefix.
pub struct DeadlineStream<'s, 'c> {
    db: &'s GuardedDatabase,
    cursor: &'s mut SelectCursor<'c>,
    table: Arc<str>,
    /// Table cardinality captured at open (the policy's `n`).
    n: u64,
    now_secs: f64,
    issued_at_nanos: u64,
    pricing: StreamPricing,
    /// Per-query shaping nonce, pinned at open so every chunk of one
    /// statement draws jitter from the same `(seed, nonce, key)` inputs
    /// — chunking cannot change a query's shaped schedule.
    nonce: u64,
    /// Running combine of every delay charged so far: the prefix sum
    /// under `PerTupleSum`, the running max under `PerQueryMax`.
    total_delay_secs: f64,
    tuples_charged: u64,
}

impl DeadlineStream<'_, '_> {
    /// Output column names, in projection order.
    pub fn columns(&self) -> &Arc<[String]> {
        self.cursor.columns()
    }

    /// Guard-clock time when the statement was issued (nanoseconds); all
    /// offsets are relative to this.
    pub fn issued_at_nanos(&self) -> u64 {
        self.issued_at_nanos
    }

    /// Pull up to `max_rows` projected rows into a caller-owned buffer,
    /// reusing its row allocations; returns how many were filled (0 once
    /// the pipeline is exhausted). A connection that recycles its
    /// [`RowBuf`] decodes every tuple into storage it already owns.
    pub fn next_chunk_into(&mut self, max_rows: usize, buf: &mut RowBuf) -> Result<usize> {
        Ok(self.cursor.fill_chunk(max_rows.max(1), buf)?)
    }

    /// Price a pulled chunk into a caller-owned [`ChargedChunk`] and
    /// record its accesses in the popularity ledger, folding the delays
    /// into the running charging model. This is the only place a query's
    /// tuples are priced. On the snapshot pricer the only allocation is
    /// the access event, the record the refresher folds into the
    /// trackers: one queue node per chunk, which holds a single-tuple
    /// chunk's key inline (a point read allocates nothing else) and a
    /// longer chunk's keys in one vector.
    pub fn charge_into(&mut self, rows: &[(RowId, Row)], out: &mut ChargedChunk) {
        out.delays.clear();
        out.offsets.clear();
        // Shaping wraps every raw policy delay *before* the charging-model
        // fold below, so deadlines, DONE trailers, the server wheel and
        // the cluster all speak the shaped schedule. With shaping off,
        // `shape` is the bit-exact identity.
        let config = &self.db.config;
        let (shaping, nonce) = (config.shaping, self.nonce);
        match &self.pricing {
            StreamPricing::Snapshot {
                stats,
                window,
                fast,
            } => {
                match (fast, stats.packed_access.as_ref()) {
                    (Some(scalars), Some(packed)) => {
                        // Chunks from range scans arrive in key order, so
                        // a positional hint prices each tuple in O(1).
                        let mut hint = 0usize;
                        for (rid, _) in rows {
                            let key = rid.raw();
                            let raw = packed.delay_seq(scalars, key, &mut hint);
                            out.delays.push(shaping.shape(raw, nonce, key));
                        }
                    }
                    _ => {
                        for (rid, _) in rows {
                            let key = rid.raw();
                            let raw = config.policy.tuple_delay(
                                &stats.access,
                                &stats.updates,
                                self.n,
                                key,
                                *window,
                            );
                            out.delays.push(shaping.shape(raw, nonce, key));
                        }
                    }
                }
                if let Some(kind) = EventKind::select(rows) {
                    self.db.queue.push(AccessEvent {
                        table: Arc::clone(&self.table),
                        now_secs: self.now_secs,
                        kind,
                    });
                }
            }
            StreamPricing::Exact => {
                // Events queued by clock-driven traffic precede this
                // statement; fold them in first so the trackers are exact.
                self.db.apply_pending();
                self.db.with_guard(&self.table, self.now_secs, |guard| {
                    let window = guard.window(self.now_secs);
                    for (rid, _) in rows {
                        let key = rid.raw();
                        // Delay reflects popularity *before* this access,
                        // on the decay clock of the previous record.
                        let raw = config.policy.tuple_delay(
                            &guard.access,
                            &guard.updates,
                            self.n,
                            key,
                            window,
                        );
                        out.delays.push(shaping.shape(raw, nonce, key));
                        guard.access.advance_to(self.now_secs);
                        guard.access.record(key);
                    }
                    if !rows.is_empty() {
                        guard.dirty = true;
                        self.db
                            .mutations
                            .fetch_add(rows.len() as u64, Ordering::Release);
                    }
                });
            }
        }
        out.offsets.reserve(out.delays.len());
        for &d in &out.delays {
            match config.charging {
                ChargingModel::PerTupleSum => {
                    self.total_delay_secs += d;
                    out.offsets.push(self.total_delay_secs);
                }
                ChargingModel::PerQueryMax => {
                    self.total_delay_secs = self.total_delay_secs.max(d);
                    out.offsets.push(d);
                }
            }
        }
        self.tuples_charged += out.delays.len() as u64;
    }

    /// Total delay charged so far, in seconds (the statement-level
    /// combine over every chunk charged to date).
    pub fn delay_secs(&self) -> f64 {
        self.total_delay_secs
    }

    /// Tuples charged so far.
    pub fn tuples_charged(&self) -> u64 {
        self.tuples_charged
    }

    /// The guard-clock time (nanoseconds) before which the statement, as
    /// charged so far, must not complete.
    pub fn deadline_nanos(&self) -> u64 {
        self.issued_at_nanos
            .saturating_add(secs_to_nanos(self.total_delay_secs))
    }

    /// Pull every remaining row as owned values and charge them as one
    /// chunk: the materialized form the non-streaming entry points
    /// return. Owned pulls skip the clone a [`RowBuf`] drain would need.
    fn drain(mut self) -> Result<DeadlineResponse> {
        let mut charged = ChargedChunk::default();
        let output = self.drain_into(&mut charged)?;
        Ok(DeadlineResponse {
            output,
            tuple_delays: charged.delays,
            tuple_offsets: charged.offsets,
            delay_secs: self.total_delay_secs,
            issued_at_nanos: self.issued_at_nanos,
            data_version: 0,
        })
    }

    /// [`Self::drain`]'s pull and charge, pricing into `charged`.
    fn drain_into(&mut self, charged: &mut ChargedChunk) -> Result<StatementOutput> {
        let mut rows = Vec::new();
        while let Some(row) = self.cursor.next_row()? {
            rows.push(row);
        }
        self.charge_into(&rows, charged);
        Ok(StatementOutput::Rows(SelectOutput {
            columns: Arc::clone(self.columns()),
            rows,
        }))
    }
}

/// Release offsets for each tuple under a charging model (see
/// [`DeadlineResponse::tuple_offsets`]).
#[cfg(test)]
fn release_offsets(charging: ChargingModel, delays: &[f64]) -> Vec<f64> {
    match charging {
        ChargingModel::PerTupleSum => {
            let mut acc = 0.0;
            delays
                .iter()
                .map(|d| {
                    acc += d;
                    acc
                })
                .collect()
        }
        ChargingModel::PerQueryMax => delays.to_vec(),
    }
}

/// A database whose front door is defended by delay.
pub struct GuardedDatabase {
    engine: Engine,
    config: GuardConfig,
    /// Authoritative per-table guard state, hash-sharded by table name.
    shards: Box<[Mutex<HashMap<String, TableGuard>>]>,
    /// Lock-free record queue filled by the snapshot path.
    queue: ShardedEventQueue<AccessEvent>,
    /// The immutable read view, atomically replaced by the refresher.
    snapshot: ArcSwap<PolicySnapshot>,
    /// `built_at_secs` of the published snapshot, as `f64` bits, stored
    /// when it is published: the staleness check reads the age here
    /// without pinning the snapshot.
    snapshot_built_at: AtomicU64,
    /// Serializes drain/apply/rebuild. Query threads only ever `try_lock`
    /// it, so the hot path never blocks here.
    refresh_lock: Mutex<()>,
    /// Bumped on every master-tracker mutation; snapshots record the value
    /// they reflect so staleness from the exact path is detectable.
    mutations: AtomicU64,
    rebuilds: AtomicU64,
    events_applied: AtomicU64,
    /// Rank-index prefix-sum rebuilds made by `apply_batch`'s folds.
    rank_rebuilds: AtomicU64,
    /// Guard-clock duration of the last snapshot rebuild.
    last_rebuild_nanos: AtomicU64,
    /// Keys whose packed delays the last rebuild re-read.
    last_keys_repacked: AtomicU64,
    /// Latest cumulative delta per remote origin (cluster replication).
    /// Locked only on the delta-sync path and during snapshot rebuilds —
    /// never by query threads.
    remote: Mutex<BTreeMap<u16, RemoteState>>,
    /// Bumped whenever `remote` changes; the refresher compares it
    /// against `remote_applied` to know merged snapshots need a rebuild.
    remote_version: AtomicU64,
    /// `remote_version` value the current snapshot generation reflects
    /// (written only under `refresh_lock`).
    remote_applied: AtomicU64,
    /// Monotone per-statement counter feeding the shaping jitter hash:
    /// each statement (or open stream) draws one nonce, so re-querying
    /// the same tuple re-draws its jitter. Only advanced when shaping is
    /// enabled, keeping the unshaped hot path untouched.
    shaping_nonce: AtomicU64,
    /// The guard's one time source: every deadline-path read goes through
    /// here, so a simulated clock makes the whole guard deterministic.
    clock: Arc<dyn Clock>,
    /// Prepared SELECT and write shapes for `execute_at` and
    /// `execute_with_deadline`, and the chunk `execute_at` prices into.
    /// Only ever `try_lock`ed.
    statements: Mutex<(StatementCache, ChargedChunk)>,
}

impl GuardedDatabase {
    /// A guarded database over a fresh engine.
    pub fn new(config: GuardConfig) -> GuardedDatabase {
        GuardedDatabase::with_engine(Engine::new(), config)
    }

    /// Guard an existing engine (e.g. with pre-loaded data).
    pub fn with_engine(engine: Engine, config: GuardConfig) -> GuardedDatabase {
        GuardedDatabase::with_engine_and_clock(engine, config, RealClock::shared())
    }

    /// Guard an existing engine reading time from an explicit [`Clock`]
    /// (the deterministic-simulation entry point).
    pub fn with_engine_and_clock(
        engine: Engine,
        config: GuardConfig,
        clock: Arc<dyn Clock>,
    ) -> GuardedDatabase {
        let shard_count = config.shards.max(1).next_power_of_two();
        let shards = (0..shard_count)
            .map(|_| Mutex::new(HashMap::new()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        GuardedDatabase {
            engine,
            queue: ShardedEventQueue::new(shard_count),
            snapshot: ArcSwap::from_pointee(PolicySnapshot::empty()),
            // 0.0 s, the empty snapshot's build time.
            snapshot_built_at: AtomicU64::new(0),
            refresh_lock: Mutex::new(()),
            mutations: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            events_applied: AtomicU64::new(0),
            rank_rebuilds: AtomicU64::new(0),
            last_rebuild_nanos: AtomicU64::new(0),
            last_keys_repacked: AtomicU64::new(0),
            remote: Mutex::new(BTreeMap::new()),
            remote_version: AtomicU64::new(0),
            remote_applied: AtomicU64::new(0),
            shaping_nonce: AtomicU64::new(0),
            config,
            shards,
            clock,
            statements: Mutex::default(),
        }
    }

    /// The underlying engine (unguarded access for administration).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The guard configuration.
    pub fn config(&self) -> &GuardConfig {
        &self.config
    }

    /// Seconds since the guard clock's epoch (the time source every
    /// deadline-path operation uses).
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// The guard's time source (shared with servers so scheduler
    /// deadlines and guard deadlines live on the same clock).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Draw the shaping nonce for one statement. A no-op zero when
    /// shaping is disabled so the unshaped pipeline stays bit-identical
    /// (and free of the extra atomic).
    fn next_shaping_nonce(&self) -> u64 {
        if self.config.shaping.enabled {
            self.shaping_nonce.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn shard(&self, table: &str) -> &Mutex<HashMap<String, TableGuard>> {
        let mut h = DefaultHasher::new();
        table.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    // ---- execution entry points -----------------------------------------
    //
    // Each is an adapter over `run`. A virtual timestamp selects the exact
    // pricer; reading the guard clock selects the snapshot pricer.

    /// Execute at an explicit virtual time (simulation entry point):
    /// exact sequential semantics — every tuple is priced and recorded
    /// against the live trackers under the table's shard lock — so
    /// simulations are deterministic whatever the snapshot bounds are.
    pub fn execute_at(&self, sql: &str, now_secs: f64) -> Result<GuardedResponse> {
        self.execute(sql, Some(now_secs), |query, charged| match query {
            StreamedQuery::Rows(mut stream) => Ok(GuardedResponse {
                output: stream.drain_into(charged)?,
                delay_secs: stream.delay_secs(),
                tuples_charged: charged.delays.len(),
            }),
            StreamedQuery::Finished(resp) => Ok(resp.into_response()),
        })
    }

    /// Execute at guard-clock time and return enforcement deadlines
    /// instead of sleeping: servers schedule them on a timer wheel, a
    /// library caller sleeps until [`DeadlineResponse::deadline_nanos`].
    pub fn execute_with_deadline(&self, sql: &str) -> Result<DeadlineResponse> {
        self.execute(sql, None, |query, _| Self::materialize(query))
    }

    /// The SQL entry points' path into `run`: `sql` goes through the
    /// guard's [`StatementCache`], so a SELECT, INSERT, UPDATE or DELETE
    /// runs prepared — a shape seen before is only bound to this text's
    /// literals — and DDL runs as parsed, once.
    ///
    /// The cache is only ever `try_lock`ed. A caller that finds it busy
    /// prepares through an empty cache of its own, which misses (parse,
    /// plan, run once), so no statement waits on another thread's.
    /// `finish` gets the statement and a chunk buffer recycled with the
    /// cache.
    fn execute<R>(
        &self,
        sql: &str,
        at: Option<f64>,
        finish: impl FnOnce(StreamedQuery<'_, '_>, &mut ChargedChunk) -> Result<R>,
    ) -> Result<R> {
        let kind = StatementKind::of(sql).unwrap_or(StatementKind::Select);
        let mut shared = self.statements.try_lock();
        let mut own = None;
        let (cache, charged) = match shared.as_deref_mut() {
            Some((cache, charged)) => (cache, charged),
            None => {
                let (cache, charged) = own.insert(Default::default());
                (cache, charged)
            }
        };
        match cache.prepare(&self.engine, sql, kind).1? {
            Prepared::Select(prep, scratch) => {
                self.run(Source::Prepared(prep, scratch), at, |q| finish(q, charged))?
            }
            Prepared::Write(prep) => self.run(Source::Write(prep), at, |q| finish(q, charged))?,
            Prepared::Other(stmt) => {
                // A DDL statement does not hold the cache.
                drop(shared);
                let mut charged = ChargedChunk::default();
                self.run(Source::Stmt(&stmt), at, |q| finish(q, &mut charged))?
            }
        }
    }

    /// Shapes the guard's SQL entry points hold prepared (at most
    /// [`delayguard_query::STATEMENT_CACHE_CAPACITY`]).
    pub fn cached_statements(&self) -> usize {
        self.statements.lock().0.len()
    }

    /// [`Self::execute_with_deadline`] over a pre-parsed statement: a
    /// single-chunk drain of the streaming pipeline, so the materialized
    /// and streaming forms cannot diverge.
    pub fn execute_stmt_with_deadline(&self, stmt: &Statement) -> Result<DeadlineResponse> {
        self.run(Source::Stmt(stmt), None, Self::materialize)?
    }

    /// Execute a statement in streaming mode: a SELECT is handed to `f`
    /// as an open [`DeadlineStream`] that prices tuples chunk by chunk as
    /// they are pulled from the executor, instead of materializing and
    /// pricing the whole result up front.
    ///
    /// Pricing state (table cardinality, the policy snapshot and its
    /// window) is pinned when the stream opens, so a query's delays are
    /// independent of how it is chunked; a stream dropped mid-result
    /// charges — and records in the popularity trackers — exactly the
    /// tuples that were passed to [`DeadlineStream::charge_into`],
    /// nothing more. A SELECT holds the table's read lock for the
    /// duration of `f` (a write, its write lock), as it does for a
    /// materialized execution, so `f` must not call back into this
    /// database: even a nested read of the same table can deadlock,
    /// queued behind a writer that waits for `f`'s lock.
    pub fn execute_stmt_streaming<R>(
        &self,
        stmt: &Statement,
        f: impl FnOnce(StreamedQuery<'_, '_>) -> R,
    ) -> Result<R> {
        self.run(Source::Stmt(stmt), None, f)
    }

    /// Execute a prepared SELECT ([`Engine::prepare_select`], or a
    /// [`StatementCache`] hit) in streaming mode: the steady-state hot
    /// path. Identical pricing, recording, and results to
    /// [`Self::execute_stmt_streaming`] on the same statement — but no
    /// parse, no plan, no per-query scratch: the cursor fills rows into
    /// `scratch`'s recycled buffers and the access event reuses the
    /// prepared table name.
    pub fn execute_prepared_streaming<R>(
        &self,
        prep: &mut PreparedSelect,
        scratch: &mut ExecScratch,
        f: impl FnOnce(DeadlineStream<'_, '_>) -> R,
    ) -> Result<R> {
        self.run(Source::Prepared(prep, scratch), None, |query| match query {
            StreamedQuery::Rows(stream) => f(stream),
            StreamedQuery::Finished(_) => unreachable!("prepared statements are always SELECTs"),
        })
    }

    /// Execute a prepared write ([`Engine::prepare_write`], or a
    /// [`StatementCache`] hit). A write is never delayed, so it comes back
    /// finished, its `data_version` the table's as its own commit left
    /// it.
    pub fn execute_prepared_write(&self, prep: &mut PreparedWrite) -> Result<DeadlineResponse> {
        self.run(Source::Write(prep), None, Self::materialize)?
    }

    /// The materialized form of a guarded statement: drain an open
    /// stream as one chunk, pass a finished statement through.
    fn materialize(query: StreamedQuery<'_, '_>) -> Result<DeadlineResponse> {
        match query {
            StreamedQuery::Rows(stream) => stream.drain(),
            StreamedQuery::Finished(resp) => Ok(resp),
        }
    }

    // ---- the one execution core -------------------------------------------

    /// Execute `source` and hand the guarded result to `f`.
    ///
    /// `at` is the statement's virtual timestamp: `Some` selects the
    /// exact pricer at that time, `None` reads the guard clock and
    /// selects the snapshot pricer. Everything a statement needs —
    /// issue time, shaping nonce, table cardinality, pinned pricing
    /// state, write notes, the staleness check — is established here and
    /// nowhere else.
    ///
    /// `f` runs while the engine holds the table's lock: the read lock
    /// for a SELECT, so concurrent readers of one table price in
    /// parallel. It must not re-enter the catalog for that table — a
    /// nested read can deadlock behind a queued writer. The staleness
    /// check runs after the lock is released.
    fn run<R>(
        &self,
        source: Source<'_>,
        at: Option<f64>,
        f: impl FnOnce(StreamedQuery<'_, '_>) -> R,
    ) -> Result<R> {
        // One clock read: `issued_at_nanos` (deadline base) and `now_secs`
        // (popularity timestamp) must agree or simulated replays drift.
        let (now_secs, issued_at_nanos) = match at {
            Some(now) => (now, secs_to_nanos(now)),
            None => {
                let nanos = self.clock.now_nanos();
                (nanos_to_secs(nanos), nanos)
            }
        };
        let exact = at.is_some();
        let nonce = self.next_shaping_nonce();
        // An ad-hoc write is the prepared one, run once. Only the
        // `&Statement` entry points send one, so it is cloned to prepare.
        let mut adhoc;
        let source = match source {
            Source::Stmt(
                stmt @ (Statement::Insert { .. }
                | Statement::Update { .. }
                | Statement::Delete { .. }),
            ) => {
                adhoc = self.engine.prepare_write(stmt.clone())?;
                Source::Write(&mut adhoc)
            }
            source => source,
        };
        // `data_version` is a write's, as its own commit left it.
        let guarded =
            |table: Arc<str>, streamed: &mut StreamedStatement<'_>, data_version| match streamed {
                StreamedStatement::Rows(cursor) => {
                    // The policy's `n` comes from the cursor, not
                    // `Self::table_len`: the engine already holds the table's
                    // read lock, and a nested read can deadlock queued behind
                    // a writer waiting for that lock. A SELECT never changes
                    // cardinality, so the open-time capture equals the
                    // materialized value.
                    let mut n = cursor.table_rows();
                    let pricing = if exact {
                        StreamPricing::Exact
                    } else {
                        self.pin_snapshot(&table, now_secs, &mut n)
                    };
                    f(StreamedQuery::Rows(DeadlineStream {
                        db: self,
                        cursor,
                        table,
                        n,
                        now_secs,
                        issued_at_nanos,
                        pricing,
                        nonce,
                        total_delay_secs: 0.0,
                        tuples_charged: 0,
                    }))
                }
                StreamedStatement::Finished(out) => {
                    let output = std::mem::replace(out, StatementOutput::TableCreated);
                    match &output {
                        StatementOutput::Inserted { rids } => {
                            self.note_rows(&table, rids, now_secs, exact, RowNote::Insert)
                        }
                        // A delete changes the tuple's value (to "gone") — for
                        // the §3 staleness guarantee it is an update event
                        // like any other.
                        StatementOutput::Updated { rids } | StatementOutput::Deleted { rids } => {
                            self.note_rows(&table, rids, now_secs, exact, RowNote::Update)
                        }
                        _ => {}
                    }
                    f(StreamedQuery::Finished(DeadlineResponse {
                        output,
                        tuple_delays: Vec::new(),
                        tuple_offsets: Vec::new(),
                        delay_secs: 0.0,
                        issued_at_nanos,
                        data_version,
                    }))
                }
            };
        let result = match source {
            Source::Stmt(stmt) => {
                let table = Arc::from(statement_table(stmt));
                self.engine
                    .execute_stmt_streaming(stmt, |streamed| guarded(table, streamed, 0))?
            }
            Source::Prepared(prep, scratch) => {
                let table = Arc::clone(prep.table());
                self.engine
                    .execute_prepared_streaming(prep, scratch, |streamed| {
                        guarded(table, streamed, 0)
                    })?
            }
            Source::Write(prep) => {
                let (output, data_version) = self.engine.execute_write(prep)?;
                let table = Arc::clone(prep.table());
                guarded(
                    table,
                    &mut StreamedStatement::Finished(output),
                    data_version,
                )
            }
        };
        if !exact {
            self.maybe_refresh();
        }
        Ok(result)
    }

    /// Pin the snapshot pricer's state at open: the table's frozen
    /// statistics plus — when the snapshot carries a packed access table
    /// built for the active policy — the relation scalars of the
    /// allocation-free fast path. Grows `n` by peers' replicated rows so
    /// Eq. 1 sees the global table size.
    fn pin_snapshot(&self, table: &str, now_secs: f64, n: &mut u64) -> StreamPricing {
        let snap = self.snapshot.load_full();
        let stats = match snap.table(table) {
            Some(t) => Arc::clone(t),
            None => empty_table_snapshot(),
        };
        let window = stats.window(now_secs);
        *n += stats.extra_rows;
        let fast = match (&self.config.policy, &stats.packed_access) {
            (GuardPolicy::AccessRate(p), Some(packed)) if packed.matches(p) => {
                Some(packed.scalars(*n))
            }
            _ => None,
        };
        StreamPricing::Snapshot {
            stats,
            window,
            fast,
        }
    }

    /// Run `f` on `table`'s live guard under its shard lock, creating the
    /// guard (and opening its observation window at `now`) on first
    /// touch.
    fn with_guard<R>(&self, table: &str, now: f64, f: impl FnOnce(&mut TableGuard) -> R) -> R {
        let mut guards = self.shard(table).lock();
        let guard = match guards.get_mut(table) {
            Some(guard) => guard,
            None => guards
                .entry(table.to_owned())
                .or_insert_with(|| TableGuard::new(&self.config)),
        };
        guard.epoch.get_or_insert(now);
        f(guard)
    }

    /// Record updates/inserts: directly into the live trackers for an
    /// exact (virtual-time) statement, via the event queue otherwise.
    fn note_rows(&self, table: &Arc<str>, rids: &[RowId], now: f64, exact: bool, note: RowNote) {
        if rids.is_empty() {
            return;
        }
        if exact {
            self.apply_pending();
            self.with_guard(table, now, |guard| {
                match note {
                    RowNote::Update => {
                        guard.updates.advance_to(now);
                        for rid in rids {
                            guard.updates.record(rid.raw());
                        }
                    }
                    RowNote::Insert => {
                        for rid in rids {
                            guard.access.ensure_tracked(rid.raw());
                        }
                    }
                    RowNote::Select => unreachable!("a read is recorded when it is charged"),
                }
                guard.dirty = true;
                self.mutations
                    .fetch_add(rids.len() as u64, Ordering::Release);
            });
        } else {
            self.queue.push(AccessEvent {
                table: Arc::clone(table),
                now_secs: now,
                kind: EventKind::write(note, rids),
            });
        }
    }

    // ---- refresh machinery ----------------------------------------------

    /// Whether the snapshot is stale under the configured bounds.
    fn is_stale(&self) -> bool {
        let pending = self.queue.pending();
        if pending == 0 {
            return false;
        }
        if pending >= self.config.snapshot.max_pending_events {
            return true;
        }
        let built_at = f64::from_bits(self.snapshot_built_at.load(Ordering::Relaxed));
        self.now_secs() - built_at >= self.config.snapshot.max_age_secs
    }

    /// Opportunistic refresh: rebuild only if stale, and only if no other
    /// thread is already refreshing (never blocks).
    fn maybe_refresh(&self) {
        if self.is_stale() {
            if let Some(_guard) = self.refresh_lock.try_lock() {
                self.refresh_inner();
            }
        }
    }

    /// Drain the record queue into the authoritative trackers and publish
    /// a fresh [`PolicySnapshot`]. Blocking (but the only contenders are
    /// other refreshers); query threads trip refreshes via the
    /// non-blocking staleness check instead.
    pub fn refresh(&self) {
        let _guard = self.refresh_lock.lock();
        self.refresh_inner();
    }

    /// Apply queued events without rebuilding the snapshot (the exact
    /// path's pre-step). Cheap no-op when nothing is pending.
    fn apply_pending(&self) {
        if self.queue.is_empty() {
            return;
        }
        let _guard = self.refresh_lock.lock();
        self.apply_batch(self.queue.drain());
    }

    /// Apply a drained batch, in global sequence order, to the master
    /// trackers. Caller must hold `refresh_lock`.
    ///
    /// Tables share no tracker state, so each table's events are folded
    /// together, in their sequence order, under one shard lock: its
    /// access tracker takes every SELECT and INSERT event in one
    /// [`FrequencyTracker::fold_batch`] and its update tracker every
    /// UPDATE event in another — per event, the same `advance_to` and
    /// `record`/`ensure_tracked` as one at a time, and each rank index's
    /// prefix sums rebuilt at most once per batch.
    fn apply_batch(&self, batch: Vec<(u64, AccessEvent)>) {
        let mut applied = 0u64;
        let mut tables: Vec<(&str, Vec<&AccessEvent>)> = Vec::new();
        let mut slots: HashMap<&str, usize> = HashMap::new();
        let mut run: Option<(&Arc<str>, usize)> = None;
        for (_seq, ev) in &batch {
            applied += ev.kind.keys().len() as u64;
            let slot = match run {
                Some((table, slot)) if *table == ev.table => slot,
                _ => *slots.entry(&ev.table).or_insert_with(|| {
                    // Most batches are one table's: size its list once.
                    let cap = if tables.is_empty() { batch.len() } else { 0 };
                    tables.push((&ev.table, Vec::with_capacity(cap)));
                    tables.len() - 1
                }),
            };
            run = Some((&ev.table, slot));
            tables[slot].1.push(ev);
        }
        let mut rebuilt = 0u64;
        for (table, events) in &tables {
            self.with_guard(table, events[0].now_secs, |guard| {
                let accesses = events.iter().filter_map(|ev| match ev.kind.note() {
                    RowNote::Select => Some(BatchStep::Record(ev.now_secs, ev.kind.keys())),
                    RowNote::Insert => Some(BatchStep::Track(ev.kind.keys())),
                    RowNote::Update => None,
                });
                let updates = events.iter().filter_map(|ev| match ev.kind.note() {
                    RowNote::Update => Some(BatchStep::Record(ev.now_secs, ev.kind.keys())),
                    _ => None,
                });
                rebuilt += u64::from(guard.access.fold_batch(accesses));
                rebuilt += u64::from(guard.updates.fold_batch(updates));
                guard.dirty = true;
            });
        }
        self.rank_rebuilds.fetch_add(rebuilt, Ordering::Relaxed);
        if applied > 0 {
            self.events_applied.fetch_add(applied, Ordering::Relaxed);
            self.mutations.fetch_add(applied, Ordering::Release);
        }
    }

    /// Drain + apply + rebuild. Caller must hold `refresh_lock`.
    fn refresh_inner(&self) {
        let started = self.clock.now_nanos();
        let mut repacked = 0usize;
        self.apply_batch(self.queue.drain());
        let seen = self.mutations.load(Ordering::Acquire);
        let remote_ver = self.remote_version.load(Ordering::Acquire);
        let remote_changed = remote_ver != self.remote_applied.load(Ordering::Relaxed);
        let old = self.snapshot.load_full();
        let mut tables = old.tables.clone();
        let remote = self.remote.lock();
        if remote_changed {
            // A peer's delta may name tables this node has never seen
            // traffic on; give them a guard so the loop below publishes a
            // merged (remote-only) snapshot for them too.
            let mut names: Vec<&String> = remote.values().flat_map(|s| s.tables.keys()).collect();
            names.sort();
            names.dedup();
            for name in names {
                self.shard(name)
                    .lock()
                    .entry(name.clone())
                    .or_insert_with(|| TableGuard::new(&self.config));
            }
        }
        for shard in self.shards.iter() {
            let mut guards = shard.lock();
            for (name, guard) in guards.iter_mut() {
                let has_remote = remote.values().any(|s| s.tables.contains_key(name));
                if guard.dirty || !tables.contains_key(name) || (remote_changed && has_remote) {
                    let table = merged_table_snapshot(
                        guard,
                        name,
                        &remote,
                        &self.config.policy,
                        tables.get(name).map(|t| &**t),
                    );
                    repacked += table
                        .packed_access
                        .as_ref()
                        .map_or(0, |p| p.repacked_keys());
                    tables.insert(name.clone(), Arc::new(table));
                    guard.dirty = false;
                }
            }
        }
        drop(remote);
        self.remote_applied.store(remote_ver, Ordering::Release);
        let built_at_secs = self.now_secs();
        self.snapshot.store(Arc::new(PolicySnapshot {
            tables,
            version: old.version + 1,
            built_at_secs,
            mutations_seen: seen,
            shaping: self.config.shaping,
        }));
        self.snapshot_built_at
            .store(built_at_secs.to_bits(), Ordering::Relaxed);
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        self.last_rebuild_nanos.store(
            self.clock.now_nanos().saturating_sub(started),
            Ordering::Relaxed,
        );
        self.last_keys_repacked
            .store(repacked as u64, Ordering::Relaxed);
    }

    // ---- cluster replication --------------------------------------------

    /// Fold a peer's replication unit into this node's remote store and
    /// republish merged snapshots.
    ///
    /// Deltas are cumulative per-origin full states ([`crate::replica`]):
    /// only a `seq` strictly greater than the stored one replaces the
    /// origin's entry, so replayed, reordered, or duplicated frames are
    /// no-ops and application commutes across origins. Returns whether
    /// the delta was new. The gatekeeper half of a [`ReplicaDelta`] is
    /// merged by the front door, not here.
    pub fn apply_replica_delta(&self, delta: &ReplicaDelta) -> bool {
        {
            let mut remote = self.remote.lock();
            let state = remote.entry(delta.origin).or_default();
            if delta.seq <= state.seq {
                return false;
            }
            state.seq = delta.seq;
            state.tables = delta
                .tables
                .iter()
                .map(|(name, td)| (name.clone(), td.clone()))
                .collect();
        }
        self.remote_version.fetch_add(1, Ordering::Release);
        // Republish eagerly: delta-sync is a cold path, and queries should
        // price from the converged view as soon as the delta lands.
        self.refresh();
        true
    }

    /// Export this node's locally-originated popularity state, one
    /// [`TableDelta`] per table, sorted by name. Only the pure-local
    /// guards are read — remote folds live in published snapshots, never
    /// in the guards — so gossip can never double-count an access.
    /// Tables that exist in the engine but have seen no traffic export
    /// empty trackers with their row count (peers still need them for
    /// the global `n`).
    pub fn export_table_deltas(&self) -> Vec<(String, TableDelta)> {
        self.apply_pending();
        let mut out: BTreeMap<String, TableDelta> = self
            .engine
            .catalog()
            .table_names()
            .into_iter()
            .map(|name| (name, TableDelta::default()))
            .collect();
        for shard in self.shards.iter() {
            let guards = shard.lock();
            for (name, guard) in guards.iter() {
                let td = out.entry(name.clone()).or_default();
                td.accesses = guard.access.export_counts();
                td.updates = guard.updates.export_counts();
                td.epoch = guard.epoch;
            }
        }
        // Row counts read the engine catalog, which locks tables; take
        // them after the guard shard locks are released (queries lock
        // engine → shard, so the reverse order here could deadlock).
        for (name, td) in out.iter_mut() {
            td.rows = self.table_len(name).unwrap_or(0);
        }
        out.into_iter().collect()
    }

    /// Bring the snapshot up to date if any recorded or direct mutation
    /// is not yet reflected, without ever blocking on a concurrent
    /// refresher.
    fn sync_snapshot(&self) {
        let behind = !self.queue.is_empty()
            || self.snapshot.load_full().mutations_seen != self.mutations.load(Ordering::Acquire);
        if behind {
            if let Some(_guard) = self.refresh_lock.try_lock() {
                self.refresh_inner();
            }
        }
    }

    /// Bulk-load popularity state: record `units` worth of accesses
    /// against each row, then publish a fresh snapshot.
    ///
    /// This is the warm-start path (§2.3): a deployment that already
    /// knows its popularity distribution — from logs, or a simulation
    /// that would otherwise replay millions of warm-up queries — seeds
    /// the trackers in one call. The decay clock advances to `now_secs`
    /// and the whole batch lands at that one weight, exactly like a
    /// flushed batch of coalesced log entries; under no decay (rate
    /// `1.0`) the resulting state is identical to having recorded each
    /// access individually.
    pub fn warm_accesses(&self, table: &str, counts: &[(RowId, f64)], now_secs: f64) {
        if counts.is_empty() {
            return;
        }
        let _refresh = self.refresh_lock.lock();
        // Events already queued precede the warm-start batch.
        self.apply_batch(self.queue.drain());
        self.with_guard(table, now_secs, |guard| {
            guard.access.advance_to(now_secs);
            for &(rid, units) in counts {
                guard.access.record_weighted(rid.raw(), units);
            }
            guard.dirty = true;
        });
        self.mutations
            .fetch_add(counts.len() as u64, Ordering::Release);
        self.refresh_inner();
    }

    /// Bulk-load *update-rate* state: record `units` worth of update
    /// events against each row, then publish a fresh snapshot — the §3
    /// counterpart of [`Self::warm_accesses`]. A deployment (or a
    /// staleness campaign) that knows its per-tuple update rates seeds
    /// `count_i = rate_i · window` in one call instead of replaying the
    /// whole update history through the write path.
    pub fn warm_updates(&self, table: &str, counts: &[(RowId, f64)], now_secs: f64) {
        if counts.is_empty() {
            return;
        }
        let _refresh = self.refresh_lock.lock();
        self.apply_batch(self.queue.drain());
        self.with_guard(table, now_secs, |guard| {
            guard.updates.advance_to(now_secs);
            for &(rid, units) in counts {
                guard.updates.record_weighted(rid.raw(), units);
            }
            guard.dirty = true;
        });
        self.mutations
            .fetch_add(counts.len() as u64, Ordering::Release);
        self.refresh_inner();
    }

    // ---- inspection (served from the snapshot) --------------------------

    /// The current policy snapshot (an immutable, consistent view; callers
    /// may hold it as long as they like).
    pub fn snapshot(&self) -> Arc<PolicySnapshot> {
        self.snapshot.load_full()
    }

    /// Observability counters for the snapshot machinery.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        let snap = self.snapshot.load_full();
        let now = self.now_secs();
        SnapshotStats {
            version: snap.version,
            built_at_secs: snap.built_at_secs,
            age_secs: (now - snap.built_at_secs).max(0.0),
            pending_events: self.queue.pending(),
            rebuilds: self.rebuilds.load(Ordering::Relaxed),
            events_applied: self.events_applied.load(Ordering::Relaxed),
            rank_rebuilds: self.rank_rebuilds.load(Ordering::Relaxed),
            last_rebuild_secs: nanos_to_secs(self.last_rebuild_nanos.load(Ordering::Relaxed)),
            last_keys_repacked: self.last_keys_repacked.load(Ordering::Relaxed),
        }
    }

    /// The *raw* (unshaped) delay one tuple would currently be charged
    /// (without executing a query) — used by extraction accounting and by
    /// operators inspecting the policy. Exact: folds in any pending
    /// events first. Deliberately pre-[`DelayShaping`](crate::shaping):
    /// this is the Eq. 1 price the closed forms reason about; only the
    /// charge sites (which face the network) speak the shaped schedule.
    pub fn tuple_delay(&self, table: &str, rid: RowId, now: f64) -> Result<f64> {
        let n = self.table_len(table)?;
        self.apply_pending();
        let mut guards = self.shard(table).lock();
        let guard = guards
            .entry(table.to_owned())
            .or_insert_with(|| TableGuard::new(&self.config));
        let window = guard.window(now);
        Ok(self
            .config
            .policy
            .tuple_delay(&guard.access, &guard.updates, n, rid.raw(), window))
    }

    /// Every tracked tuple of `table` as `(key, rank)` pairs, sorted by
    /// rank then key. Served from the snapshot — concurrent stats traffic
    /// never takes the locks queries' writers use (a stale-but-bounded
    /// answer is refreshed opportunistically, never by blocking).
    ///
    /// This is the complete rank order the delay policy prices from —
    /// exactly what a timing adversary works to reconstruct — so servers
    /// must never expose it to unauthenticated peers (see the
    /// `stats_expose_popularity` server knob, off by default).
    pub fn popularity_table(&self, table: &str) -> Vec<(u64, usize)> {
        self.sync_snapshot();
        let snap = self.snapshot.load_full();
        let mut pairs: Vec<(u64, usize)> = match snap.table(table) {
            Some(t) => t.access.rank_table().collect(),
            None => return Vec::new(),
        };
        pairs.sort_unstable_by_key(|&(key, rank)| (rank, key));
        pairs
    }

    /// Number of accesses recorded against a table (snapshot-served, like
    /// [`Self::popularity_table`]).
    pub fn access_events(&self, table: &str) -> u64 {
        self.sync_snapshot();
        self.snapshot
            .load_full()
            .table(table)
            .map(|t| t.access.events())
            .unwrap_or(0)
    }

    /// Sorted names of every table the guard has observed traffic on
    /// (snapshot-served).
    pub fn tables(&self) -> Vec<String> {
        self.sync_snapshot();
        self.snapshot.load_full().table_names()
    }

    fn table_len(&self, table: &str) -> Result<u64> {
        let t = self.engine.catalog().table(table)?;
        let len = t.read().len() as u64;
        Ok(len)
    }
}

/// The table a statement touches.
fn statement_table(stmt: &Statement) -> &str {
    match stmt {
        Statement::Select { table, .. }
        | Statement::Insert { table, .. }
        | Statement::Update { table, .. }
        | Statement::Delete { table, .. }
        | Statement::CreateIndex { table, .. } => table,
        Statement::CreateTable { name, .. } | Statement::DropTable { name } => name,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessDelayPolicy;
    use crate::policy::{ChargingModel, GuardPolicy};
    use crate::snapshot::SnapshotPolicy;
    use crate::update::UpdateDelayPolicy;
    use delayguard_query::parse;

    fn setup(policy: GuardPolicy) -> GuardedDatabase {
        let config = GuardConfig {
            policy,
            charging: ChargingModel::PerTupleSum,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE items (id INT NOT NULL, body TEXT)", 0.0)
            .unwrap();
        db.execute_at("CREATE UNIQUE INDEX items_pk ON items (id)", 0.0)
            .unwrap();
        for i in 0..100 {
            db.execute_at(&format!("INSERT INTO items VALUES ({i}, 'row-{i}')"), 0.0)
                .unwrap();
        }
        db
    }

    fn access_policy() -> GuardPolicy {
        GuardPolicy::AccessRate(AccessDelayPolicy::new(1.0, 1.0).with_cap(10.0))
    }

    /// Popularity rank of a tuple (1 = most popular), from the guard's
    /// popularity table.
    fn rank_of(db: &GuardedDatabase, table: &str, rid: RowId) -> Option<usize> {
        db.popularity_table(table)
            .into_iter()
            .find(|&(key, _)| key == rid.raw())
            .map(|(_, rank)| rank)
    }

    /// The raw delay the snapshot path would charge one tuple right now,
    /// read from the current snapshot without refreshing it.
    fn snapshot_price(db: &GuardedDatabase, table: &str, rid: RowId, now: f64) -> f64 {
        let snap = db.snapshot.load_full();
        let stats = snap
            .table(table)
            .map_or_else(empty_table_snapshot, Arc::clone);
        let n = db.table_len(table).unwrap() + stats.extra_rows;
        db.config.policy.tuple_delay(
            &stats.access,
            &stats.updates,
            n,
            rid.raw(),
            stats.window(now),
        )
    }

    /// A drained batch that interleaves two tables' SELECT, INSERT and
    /// UPDATE events, of one key inline and of many, folds each tracker
    /// as the events one at a time would, bit for bit, and rebuilds each
    /// of the four rank indexes' prefix sums once, not once per run of
    /// events.
    #[test]
    fn interleaved_batch_rebuilds_each_rank_index_once() {
        let config = GuardConfig {
            update_decay_rate: 1.02,
            ..GuardConfig::paper_default().with_access_decay(1.01)
        };
        let db = GuardedDatabase::new(config);
        let (a, b): (Arc<str>, Arc<str>) = (Arc::from("a"), Arc::from("b"));
        let mut reference: HashMap<&str, TableGuard> = HashMap::new();
        for (i, run) in (0..1600u64).step_by(100).enumerate() {
            let now = 1.0 + i as f64 * 0.5;
            for table in [&a, &b] {
                let keys: Vec<u64> = (run..run + 100).collect();
                let kinds = [
                    EventKind::Many(RowNote::Select, keys.clone()),
                    EventKind::One(RowNote::Select, run / 2),
                    EventKind::Many(RowNote::Insert, vec![run + 5000, run / 3]),
                    EventKind::One(RowNote::Insert, run + 9000),
                    EventKind::Many(RowNote::Update, keys.clone()),
                    EventKind::One(RowNote::Update, run / 5),
                ];
                for kind in kinds {
                    let guard = reference
                        .entry(&**table)
                        .or_insert_with(|| TableGuard::new(&config));
                    match kind.note() {
                        RowNote::Select => {
                            guard.access.advance_to(now);
                            kind.keys().iter().for_each(|&k| guard.access.record(k));
                        }
                        RowNote::Update => {
                            guard.updates.advance_to(now);
                            kind.keys().iter().for_each(|&k| guard.updates.record(k));
                        }
                        RowNote::Insert => {
                            kind.keys()
                                .iter()
                                .for_each(|&k| guard.access.ensure_tracked(k));
                        }
                    }
                    db.queue.push(AccessEvent {
                        table: Arc::clone(table),
                        now_secs: now,
                        kind,
                    });
                }
            }
        }
        db.refresh();
        let stats = db.snapshot_stats();
        assert_eq!(stats.events_applied, 2 * 16 * (100 + 1 + 2 + 1 + 100 + 1));
        assert_eq!(stats.rank_rebuilds, 4, "one per tracker");
        for (name, want) in &reference {
            db.with_guard(name, 0.0, |guard| {
                for (got, want) in [
                    (&guard.access, &want.access),
                    (&guard.updates, &want.updates),
                ] {
                    assert_eq!(got.events(), want.events(), "table {name}");
                    assert_eq!(got.total().to_bits(), want.total().to_bits());
                    assert_eq!(got.fmax_global().to_bits(), want.fmax_global().to_bits());
                    let got_ranks: Vec<(u64, usize)> = got.rank_table().collect();
                    let want_ranks: Vec<(u64, usize)> = want.rank_table().collect();
                    assert_eq!(got_ranks, want_ranks, "table {name}");
                    let counts = |t: &FrequencyTracker| -> Vec<u64> {
                        t.iter().map(|(_, c)| c.to_bits()).collect()
                    };
                    assert_eq!(counts(got), counts(want), "table {name}");
                }
            });
        }
    }

    #[test]
    fn first_touch_pays_cap_then_popular_gets_fast() {
        let db = setup(access_policy());
        // Start-up: everything at cap.
        let r = db
            .execute_at("SELECT * FROM items WHERE id = 1", 1.0)
            .unwrap();
        assert_eq!(r.delay_secs, 10.0);
        assert_eq!(r.tuples_charged, 1);
        // Hammer tuple 1; its delay collapses.
        for t in 0..200 {
            db.execute_at("SELECT * FROM items WHERE id = 1", 2.0 + t as f64)
                .unwrap();
        }
        let fast = db
            .execute_at("SELECT * FROM items WHERE id = 1", 300.0)
            .unwrap();
        assert!(fast.delay_secs < 0.1, "got {}", fast.delay_secs);
        // An unrequested tuple still pays the cap.
        let slow = db
            .execute_at("SELECT * FROM items WHERE id = 77", 301.0)
            .unwrap();
        assert_eq!(slow.delay_secs, 10.0);
    }

    #[test]
    fn multi_tuple_query_charged_as_aggregate() {
        let db = setup(access_policy());
        let r = db
            .execute_at("SELECT * FROM items WHERE id < 5", 1.0)
            .unwrap();
        assert_eq!(r.tuples_charged, 5);
        assert_eq!(r.delay_secs, 50.0, "5 unknown tuples at the 10s cap");
    }

    #[test]
    fn per_query_max_charging() {
        let config = GuardConfig {
            policy: access_policy(),
            charging: ChargingModel::PerQueryMax,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE t (id INT)", 0.0).unwrap();
        for i in 0..10 {
            db.execute_at(&format!("INSERT INTO t VALUES ({i})"), 0.0)
                .unwrap();
        }
        let r = db.execute_at("SELECT * FROM t", 1.0).unwrap();
        assert_eq!(r.delay_secs, 10.0, "max, not sum");
    }

    #[test]
    fn update_policy_tracks_update_rates() {
        let db = setup(GuardPolicy::UpdateRate(
            UpdateDelayPolicy::new(1.0).with_cap(10.0),
        ));
        // Update tuple 1 frequently over 100 seconds.
        for t in 0..100 {
            db.execute_at("UPDATE items SET body = 'fresh' WHERE id = 1", t as f64)
                .unwrap();
        }
        let hot = db
            .execute_at("SELECT * FROM items WHERE id = 1", 100.0)
            .unwrap();
        let cold = db
            .execute_at("SELECT * FROM items WHERE id = 50", 100.0)
            .unwrap();
        assert!(hot.delay_secs < 0.1, "hot {}", hot.delay_secs);
        assert_eq!(cold.delay_secs, 10.0, "never-updated pays cap");
    }

    #[test]
    fn none_policy_charges_nothing_but_tracks() {
        let db = setup(GuardPolicy::None);
        let r = db
            .execute_at("SELECT * FROM items WHERE id = 3", 1.0)
            .unwrap();
        assert_eq!(r.delay_secs, 0.0);
        assert_eq!(db.access_events("items"), 1);
    }

    #[test]
    fn popularity_rank_reflects_traffic() {
        let db = setup(access_policy());
        for _ in 0..50 {
            db.execute_at("SELECT * FROM items WHERE id = 9", 1.0)
                .unwrap();
        }
        db.execute_at("SELECT * FROM items WHERE id = 8", 2.0)
            .unwrap();
        // Find rid of tuple 9 via a query.
        let out = db
            .execute_at("SELECT * FROM items WHERE id = 9", 3.0)
            .unwrap();
        let rid = match &out.output {
            StatementOutput::Rows(rows) => rows.rows[0].0,
            other => panic!("{other:?}"),
        };
        assert_eq!(rank_of(&db, "items", rid), Some(1));
    }

    #[test]
    fn non_row_statements_are_free() {
        let db = setup(access_policy());
        let r = db
            .execute_at("DELETE FROM items WHERE id = 99", 1.0)
            .unwrap();
        assert_eq!(r.delay_secs, 0.0);
        let r = db
            .execute_at("INSERT INTO items VALUES (500, 'x')", 1.0)
            .unwrap();
        assert_eq!(r.delay_secs, 0.0);
    }

    #[test]
    fn deadline_api_exposes_per_tuple_schedule() {
        let db = setup(access_policy());
        let r = db
            .execute_with_deadline("SELECT * FROM items WHERE id < 3")
            .unwrap();
        assert_eq!(
            r.tuple_delays,
            vec![10.0, 10.0, 10.0],
            "3 cold tuples at cap"
        );
        // PerTupleSum streams at prefix sums; the query deadline is the sum.
        assert_eq!(r.tuple_offsets, vec![10.0, 20.0, 30.0]);
        assert_eq!(r.delay_secs, 30.0);
        let deadlines: Vec<_> = r
            .tuple_offsets
            .iter()
            .map(|&off| r.issued_at_nanos + secs_to_nanos(off))
            .collect();
        assert_eq!(deadlines.len(), 3);
        assert!(deadlines.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*deadlines.last().unwrap(), r.deadline_nanos());
        let summary = r.into_response();
        assert_eq!(summary.tuples_charged, 3);
        assert_eq!(summary.delay_secs, 30.0);
    }

    #[test]
    fn deadline_offsets_under_max_charging() {
        let config = GuardConfig {
            policy: access_policy(),
            charging: ChargingModel::PerQueryMax,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE t (id INT)", 0.0).unwrap();
        for i in 0..4 {
            db.execute_at(&format!("INSERT INTO t VALUES ({i})"), 0.0)
                .unwrap();
        }
        let r = db.execute_with_deadline("SELECT * FROM t").unwrap();
        // Every tuple releases at its own delay; completion at the max.
        assert_eq!(r.tuple_offsets, r.tuple_delays);
        assert_eq!(r.delay_secs, 10.0);
    }

    #[test]
    fn deadline_path_reads_injected_clock() {
        use crate::clock::ManualClock;
        use delayguard_query::Engine;
        let clock = ManualClock::shared();
        let config = GuardConfig {
            policy: access_policy(),
            charging: ChargingModel::PerTupleSum,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::with_engine_and_clock(
            Engine::new(),
            config,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        db.execute_at("CREATE TABLE t (id INT)", 0.0).unwrap();
        db.execute_at("INSERT INTO t VALUES (1)", 0.0).unwrap();
        clock.advance_to_secs(42.0);
        let r = db.execute_with_deadline("SELECT * FROM t").unwrap();
        assert_eq!(r.issued_at_nanos, secs_to_nanos(42.0));
        assert_eq!(r.delay_secs, 10.0, "cold tuple pays the cap");
        assert_eq!(r.deadline_nanos(), secs_to_nanos(52.0));
    }

    #[test]
    fn warm_accesses_seeds_popularity_in_bulk() {
        let db = setup(access_policy());
        // RowIds for tuples 0..3 via queries (free of recording side
        // effects on ranks large enough to matter).
        let rid_of = |id: i64| {
            let out = db
                .execute_at(&format!("SELECT * FROM items WHERE id = {id}"), 0.5)
                .unwrap();
            match &out.output {
                StatementOutput::Rows(rows) => rows.rows[0].0,
                other => panic!("{other:?}"),
            }
        };
        let (a, b, c) = (rid_of(0), rid_of(1), rid_of(2));
        // A genuinely unwarmed tuple: an INSERT yields the RowId without
        // recording any access (a SELECT here would count one and leak
        // into the refreshed snapshot).
        let out = db
            .execute_at("INSERT INTO items VALUES (100, 'row-100')", 0.6)
            .unwrap();
        let cold_rid = match &out.output {
            StatementOutput::Inserted { rids } => rids[0],
            other => panic!("{other:?}"),
        };
        db.warm_accesses("items", &[(a, 1000.0), (b, 100.0), (c, 10.0)], 1.0);
        assert_eq!(rank_of(&db, "items", a), Some(1));
        assert_eq!(rank_of(&db, "items", b), Some(2));
        assert_eq!(rank_of(&db, "items", c), Some(3));
        // The snapshot was rebuilt inside the call: the snapshot path
        // prices the warmed tuple as popular immediately.
        let fast = snapshot_price(&db, "items", a, 2.0);
        let cold = snapshot_price(&db, "items", cold_rid, 2.0);
        assert!(fast < cold, "warmed {fast} vs cold {cold}");
        assert_eq!(cold, 10.0, "unwarmed tuple still pays the cap");
    }

    #[test]
    fn warm_updates_seeds_update_rate_in_bulk() {
        let db = setup(GuardPolicy::UpdateRate(
            UpdateDelayPolicy::new(1.0).with_cap(10.0),
        ));
        let out = db
            .execute_at("SELECT * FROM items WHERE id = 1", 0.5)
            .unwrap();
        let hot = match &out.output {
            StatementOutput::Rows(rows) => rows.rows[0].0,
            other => panic!("{other:?}"),
        };
        // Seed 1000 update events' worth of weight in one call — as if
        // tuple 1 had been written ten times a second for the whole
        // 100-second window.
        db.warm_updates("items", &[(hot, 1000.0)], 100.0);
        let fast = db
            .execute_at("SELECT * FROM items WHERE id = 1", 100.0)
            .unwrap();
        let cold = db
            .execute_at("SELECT * FROM items WHERE id = 50", 100.0)
            .unwrap();
        assert!(fast.delay_secs < 0.1, "warmed {}", fast.delay_secs);
        assert_eq!(cold.delay_secs, 10.0, "never-updated pays cap");
    }

    #[test]
    fn deletes_count_as_update_events() {
        let db = setup(GuardPolicy::UpdateRate(
            UpdateDelayPolicy::new(1.0).with_cap(10.0),
        ));
        let out = db
            .execute_at("SELECT * FROM items WHERE id = 7", 0.5)
            .unwrap();
        let rid = match &out.output {
            StatementOutput::Rows(rows) => rows.rows[0].0,
            other => panic!("{other:?}"),
        };
        let before = db.tuple_delay("items", rid, 4.0).unwrap();
        assert_eq!(before, 10.0, "never-mutated tuple at the cap");
        db.execute_at("DELETE FROM items WHERE id = 7", 5.0)
            .unwrap();
        let after = db.tuple_delay("items", rid, 10.0).unwrap();
        assert!(
            after < before,
            "delete recorded as an update event: {after} vs {before}"
        );
    }

    #[test]
    fn table_data_version_reflects_mutations() {
        let db = setup(GuardPolicy::None);
        let version = || {
            let items = db.engine().catalog().table("items").unwrap();
            let version = items.read().data_version();
            version
        };
        let v0 = version();
        db.execute_at("UPDATE items SET body = 'x' WHERE id = 1", 1.0)
            .unwrap();
        assert_eq!(version(), v0 + 1);
        db.execute_at("DELETE FROM items WHERE id = 2", 2.0)
            .unwrap();
        assert_eq!(version(), v0 + 2);
        db.execute_at("SELECT * FROM items WHERE id = 3", 3.0)
            .unwrap();
        assert_eq!(version(), v0 + 2, "reads are free");
        // A write's response carries the version its commit left.
        let write =
            db.execute_stmt_with_deadline(&parse("DELETE FROM items WHERE id = 4").unwrap());
        assert_eq!(write.unwrap().data_version, v0 + 3);
        let read = db.execute_with_deadline("SELECT * FROM items WHERE id = 5");
        assert_eq!(read.unwrap().data_version, 0, "a read writes no table");
        assert!(db
            .execute_at("UPDATE missing SET body = 'x' WHERE id = 1", 4.0)
            .is_err());
    }

    #[test]
    fn errors_propagate() {
        let db = setup(access_policy());
        assert!(db.execute_at("SELECT * FROM missing", 0.0).is_err());
        assert!(db.execute_at("NOT SQL AT ALL", 0.0).is_err());
    }

    #[test]
    fn snapshot_path_records_after_refresh() {
        let db = setup(access_policy());
        // Snapshot path: priced from the (empty) boot snapshot, recorded
        // into the queue.
        let r = db
            .execute_with_deadline("SELECT * FROM items WHERE id = 5")
            .unwrap();
        assert_eq!(r.delay_secs, 10.0, "cold snapshot prices at the cap");
        let before = db.snapshot_stats();
        db.refresh();
        let after = db.snapshot_stats();
        assert!(after.version > before.version);
        assert_eq!(after.pending_events, 0);
        assert_eq!(db.access_events("items"), 1);
        assert!(db.tables().contains(&"items".to_owned()));
    }

    #[test]
    fn snapshot_prices_from_last_epoch_until_refresh() {
        let config = GuardConfig {
            policy: access_policy(),
            // Bounds so loose the test controls every refresh itself.
            snapshot: SnapshotPolicy::new(usize::MAX, 1e9),
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE t (id INT NOT NULL)", 0.0)
            .unwrap();
        db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
            .unwrap();
        for i in 0..50 {
            db.execute_at(&format!("INSERT INTO t VALUES ({i})"), 0.0)
                .unwrap();
        }
        // Learn popularity for tuple 1 through the snapshot path.
        for _ in 0..100 {
            db.execute_with_deadline("SELECT * FROM t WHERE id = 1")
                .unwrap();
        }
        // Still priced at the cap: the snapshot has not been rebuilt.
        let stale = db
            .execute_with_deadline("SELECT * FROM t WHERE id = 1")
            .unwrap();
        assert_eq!(stale.delay_secs, 10.0);
        db.refresh();
        // One refresh epoch later the learned popularity is visible.
        let fresh = db
            .execute_with_deadline("SELECT * FROM t WHERE id = 1")
            .unwrap();
        assert!(fresh.delay_secs < 0.1, "got {}", fresh.delay_secs);
    }

    #[test]
    fn pending_threshold_triggers_inline_refresh() {
        let config = GuardConfig {
            policy: access_policy(),
            snapshot: SnapshotPolicy::new(10, 1e9),
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE t (id INT NOT NULL)", 0.0)
            .unwrap();
        db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
            .unwrap();
        for i in 0..20 {
            db.execute_at(&format!("INSERT INTO t VALUES ({i})"), 0.0)
                .unwrap();
        }
        for _ in 0..50 {
            db.execute_with_deadline("SELECT * FROM t WHERE id = 1")
                .unwrap();
        }
        let stats = db.snapshot_stats();
        assert!(
            stats.rebuilds >= 4,
            "50 single-row queries over a 10-event bound: got {} rebuilds",
            stats.rebuilds
        );
        assert!(stats.pending_events < 10);
    }

    #[test]
    fn mixed_paths_stay_consistent() {
        // Exact traffic, then snapshot-priced traffic, then an exact
        // query again: the exact pricer must fold queued events in before
        // computing, so totals line up.
        let db = setup(access_policy());
        for _ in 0..5 {
            db.execute_at("SELECT * FROM items WHERE id = 2", 1.0)
                .unwrap();
        }
        for _ in 0..5 {
            db.execute_with_deadline("SELECT * FROM items WHERE id = 2")
                .unwrap();
        }
        // The exact pricer applies the 5 queued events before recording
        // its own, so the master tracker now holds 11.
        db.execute_at("SELECT * FROM items WHERE id = 2", 3.0)
            .unwrap();
        assert_eq!(db.access_events("items"), 11);
    }

    /// Drain `sql` through the core in `chunk`-row pulls under the pricer
    /// `at` selects; returns per-tuple delays, offsets and the total.
    fn drain_chunked(
        db: &GuardedDatabase,
        sql: &str,
        at: Option<f64>,
        chunk: usize,
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let stmt = parse(sql).unwrap();
        db.run(Source::Stmt(&stmt), at, |query| {
            let StreamedQuery::Rows(mut stream) = query else {
                panic!("expected rows");
            };
            let (mut buf, mut charged) = (RowBuf::new(), ChargedChunk::default());
            let (mut delays, mut offsets) = (Vec::new(), Vec::new());
            while stream.next_chunk_into(chunk, &mut buf).unwrap() > 0 {
                stream.charge_into(buf.rows(), &mut charged);
                delays.extend_from_slice(&charged.delays);
                offsets.extend_from_slice(&charged.offsets);
            }
            (delays, offsets, stream.delay_secs())
        })
        .unwrap()
    }

    #[test]
    fn online_offset_fold_matches_release_offsets() {
        // The stream folds release offsets online as chunks are charged;
        // the batch reference computes them from the full delay vector.
        // One tuple per chunk is the adversarial chunking — the fold
        // state crosses every chunk boundary — and the results must still
        // be bit-identical under both charging models and both pricers.
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for charging in [ChargingModel::PerTupleSum, ChargingModel::PerQueryMax] {
            let config = GuardConfig {
                policy: access_policy(),
                charging,
                ..GuardConfig::paper_default()
            };
            let build = || {
                let db = GuardedDatabase::new(config);
                db.execute_at("CREATE TABLE items (id INT NOT NULL, body TEXT)", 0.0)
                    .unwrap();
                for i in 0..8 {
                    db.execute_at(&format!("INSERT INTO items VALUES ({i}, 'row-{i}')"), 0.0)
                        .unwrap();
                }
                // Skew the popularity so delays are not all equal.
                for _ in 0..50 {
                    db.execute_at("SELECT * FROM items WHERE id = 3", 1.0)
                        .unwrap();
                }
                db
            };
            for at in [None, Some(2.0)] {
                let (delays, offsets, total) =
                    drain_chunked(&build(), "SELECT * FROM items", at, 1);
                assert_eq!(delays.len(), 8);
                assert_eq!(
                    bits(&offsets),
                    bits(&release_offsets(charging, &delays)),
                    "{charging:?} at {at:?}"
                );
                let combined = match charging {
                    ChargingModel::PerTupleSum => delays.iter().sum(),
                    ChargingModel::PerQueryMax => delays.iter().copied().fold(0.0, f64::max),
                };
                assert_eq!(
                    total.to_bits(),
                    f64::to_bits(combined),
                    "{charging:?} at {at:?}: combined total"
                );
            }
        }
    }

    #[test]
    fn exact_pricer_is_chunking_invariant() {
        // `execute_at` is a one-chunk drain of the exact pricer. Draining
        // the same statements at the same virtual times in 1- and 3-row
        // chunks must charge bit-identical totals and leave bit-identical
        // trackers: exact pricing re-enters the shard lock per chunk, and
        // that must not be observable.
        let sqls = [
            "SELECT * FROM items WHERE id < 7",
            "SELECT * FROM items WHERE id = 3",
            "SELECT * FROM items",
            "SELECT * FROM items WHERE id > 90",
        ];
        let (whole, ones, threes) = (
            setup(access_policy()),
            setup(access_policy()),
            setup(access_policy()),
        );
        for (q, sql) in sqls.iter().cycle().take(12).enumerate() {
            let now = 1.0 + q as f64;
            let want = whole.execute_at(sql, now).unwrap();
            for (db, chunk) in [(&ones, 1), (&threes, 3)] {
                let (delays, _, total) = drain_chunked(db, sql, Some(now), chunk);
                assert_eq!(delays.len(), want.tuples_charged, "{sql} in {chunk}s");
                assert_eq!(
                    total.to_bits(),
                    want.delay_secs.to_bits(),
                    "{sql} in {chunk}s"
                );
            }
        }
        let table = whole.popularity_table("items");
        assert_eq!(ones.popularity_table("items"), table);
        assert_eq!(threes.popularity_table("items"), table);
    }

    #[test]
    fn prepared_snapshot_path_matches_adhoc_bit_for_bit() {
        // Traffic → refresh → the snapshot carries a packed access table.
        // The prepared fast path (packed pricing, recycled buffers) must
        // return the same rows and bit-identical delays as the ad-hoc
        // snapshot path, and keep recording accesses.
        let config = GuardConfig {
            policy: access_policy(),
            charging: ChargingModel::PerTupleSum,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            // The test drives every rebuild itself so both executions are
            // guaranteed to price from the same snapshot generation.
            snapshot: SnapshotPolicy::new(usize::MAX, 1e9),
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE items (id INT NOT NULL, body TEXT)", 0.0)
            .unwrap();
        db.execute_at("CREATE UNIQUE INDEX items_pk ON items (id)", 0.0)
            .unwrap();
        for i in 0..64 {
            db.execute_at(&format!("INSERT INTO items VALUES ({i}, 'row-{i}')"), 0.0)
                .unwrap();
        }
        for _ in 0..40 {
            db.execute_with_deadline("SELECT * FROM items WHERE id = 7")
                .unwrap();
        }
        db.refresh();
        let snap = db.snapshot();
        assert!(
            snap.table("items").unwrap().packed_access.is_some(),
            "access-rate policy must publish a packed table"
        );

        let sql = "SELECT * FROM items WHERE id >= 4 AND id < 12";
        let mut prep = db.engine().prepare_select(sql).unwrap();
        assert_eq!(&**prep.table(), "items");
        let mut scratch = ExecScratch::new();
        let mut buf = RowBuf::new();
        let mut charged = ChargedChunk {
            delays: Vec::new(),
            offsets: Vec::new(),
        };
        let events_before = db.access_events("items");
        for _ in 0..3 {
            let reference = db.execute_with_deadline(sql).unwrap();
            let (rows, delays, offsets) = db
                .execute_prepared_streaming(&mut prep, &mut scratch, |mut stream| {
                    let mut rows = Vec::new();
                    let mut delays = Vec::new();
                    let mut offsets = Vec::new();
                    loop {
                        let filled = stream.next_chunk_into(4, &mut buf).unwrap();
                        if filled == 0 {
                            break;
                        }
                        stream.charge_into(buf.rows(), &mut charged);
                        delays.extend_from_slice(&charged.delays);
                        offsets.extend_from_slice(&charged.offsets);
                        rows.extend(buf.rows().iter().cloned());
                    }
                    (rows, delays, offsets)
                })
                .unwrap();
            let ref_rows = match &reference.output {
                StatementOutput::Rows(out) => &out.rows,
                other => panic!("{other:?}"),
            };
            assert_eq!(&rows, ref_rows);
            let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
            // Both executions saw the same snapshot generation (refreshes
            // only fire on the staleness bounds, far above this traffic),
            // so delays and offsets must agree to the bit.
            assert_eq!(bits(&delays), bits(&reference.tuple_delays));
            assert_eq!(bits(&offsets), bits(&reference.tuple_offsets));
        }
        db.refresh();
        assert!(
            db.access_events("items") >= events_before + 48,
            "prepared path must keep recording accesses"
        );
    }

    // ---- cluster replication -------------------------------------------

    use crate::gatekeeper::GateDelta;
    use crate::replica::REMOTE_KEY_TAG;

    /// `(origin, latest folded seq)` for every remote origin.
    fn remote_origins(db: &GuardedDatabase) -> Vec<(u16, u64)> {
        db.remote
            .lock()
            .iter()
            .map(|(&origin, state)| (origin, state.seq))
            .collect()
    }

    fn replica_node(rows: u64) -> GuardedDatabase {
        let config = GuardConfig {
            policy: access_policy(),
            charging: ChargingModel::PerTupleSum,
            access_decay_rate: 1.0,
            update_decay_rate: 1.0,
            ..GuardConfig::paper_default()
        };
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE d (id INT NOT NULL, v TEXT)", 0.0)
            .unwrap();
        for i in 0..rows {
            db.execute_at(&format!("INSERT INTO d VALUES ({i}, 'r')"), 0.0)
                .unwrap();
        }
        db
    }

    fn delta_from(db: &GuardedDatabase, origin: u16, seq: u64) -> ReplicaDelta {
        ReplicaDelta {
            origin,
            seq,
            tables: db.export_table_deltas(),
            gate: GateDelta {
                origin,
                users: Vec::new(),
                subnets: Vec::new(),
            },
        }
    }

    #[test]
    fn replica_delta_folds_remote_popularity_under_tagged_keys() {
        let a = replica_node(10);
        let b = replica_node(6);
        // Node B's row 2 is the cluster's hottest tuple.
        for t in 0..60 {
            b.execute_at("SELECT * FROM d WHERE id = 2", 1.0 + t as f64)
                .unwrap();
        }
        // A has lighter local traffic on row 0.
        for t in 0..5 {
            a.execute_at("SELECT * FROM d WHERE id = 0", 1.0 + t as f64)
                .unwrap();
        }
        let delta = delta_from(&b, 2, 1);
        assert!(a.apply_replica_delta(&delta), "first application is new");
        assert!(!a.apply_replica_delta(&delta), "same seq is a no-op");
        assert_eq!(remote_origins(&a), vec![(2, 1)]);

        let snap = a.snapshot();
        let t = snap.table("d").expect("merged table published");
        assert_eq!(t.extra_rows, 6, "global n carries B's rows");
        // B's hot row ranks first in A's merged view, under a tagged key.
        let (hot_key, _) = delta.tables[0]
            .1
            .accesses
            .iter()
            .copied()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        assert_eq!(hot_key & REMOTE_KEY_TAG, 0, "export keys are raw");
        assert_eq!(t.access.rank(tag_remote_key(2, hot_key)), 1);
        assert!(
            t.access.rank(tag_remote_key(2, hot_key))
                < rank_of(&a, "d", RowId::from_raw(hot_key)).unwrap(),
            "A's local row with the same raw key is a different tuple"
        );
    }

    #[test]
    fn replica_delta_rejects_stale_and_duplicate_seqs() {
        let a = replica_node(4);
        let b = replica_node(4);
        b.execute_at("SELECT * FROM d WHERE id = 1", 1.0).unwrap();
        let newer = delta_from(&b, 7, 3);
        b.execute_at("SELECT * FROM d WHERE id = 2", 2.0).unwrap();
        let even_newer = delta_from(&b, 7, 4);
        assert!(a.apply_replica_delta(&even_newer));
        assert!(!a.apply_replica_delta(&newer), "older seq discarded");
        assert_eq!(remote_origins(&a), vec![(7, 4)]);
        let snap = a.snapshot();
        let t = snap.table("d").unwrap();
        // The seq-4 state (which saw both accesses) is what's folded.
        assert!(
            t.access
                .contains(tag_remote_key(7, RowId::from_raw(2).raw()))
                || {
                    // Row ids are engine-assigned; resolve via the delta instead.
                    even_newer.tables[0]
                        .1
                        .accesses
                        .iter()
                        .all(|&(k, _)| t.access.contains(tag_remote_key(7, k)))
                }
        );
    }

    #[test]
    fn replica_application_commutes_and_converges_bit_identically() {
        let mk_receiver = || {
            let db = replica_node(8);
            for t in 0..10 {
                db.execute_at("SELECT * FROM d WHERE id = 3", 1.0 + t as f64)
                    .unwrap();
            }
            db
        };
        let b = replica_node(5);
        for t in 0..20 {
            b.execute_at("SELECT * FROM d WHERE id = 1", 1.0 + t as f64)
                .unwrap();
        }
        let c = replica_node(3);
        for t in 0..7 {
            c.execute_at("SELECT * FROM d WHERE id = 0", 1.0 + t as f64)
                .unwrap();
        }
        let db_delta = delta_from(&b, 2, 1);
        let dc_delta = delta_from(&c, 3, 1);

        let first = mk_receiver();
        first.apply_replica_delta(&db_delta);
        first.apply_replica_delta(&dc_delta);
        first.apply_replica_delta(&db_delta); // replay

        let second = mk_receiver();
        second.apply_replica_delta(&dc_delta);
        second.apply_replica_delta(&db_delta);

        let (s1, s2) = (first.snapshot(), second.snapshot());
        let (t1, t2) = (s1.table("d").unwrap(), s2.table("d").unwrap());
        assert_eq!(t1.extra_rows, t2.extra_rows);
        let bits = |v: Vec<(u64, f64)>| {
            v.into_iter()
                .map(|(k, c)| (k, c.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(
            bits(t1.access.export_counts()),
            bits(t2.access.export_counts()),
            "merged trackers are bit-identical regardless of arrival order"
        );
        assert_eq!(t1.access.fmax().to_bits(), t2.access.fmax().to_bits());
    }

    #[test]
    fn snapshot_pricing_uses_global_cardinality() {
        let a = replica_node(10);
        for t in 0..100 {
            a.execute_at("SELECT * FROM d WHERE id = 1", 1.0 + t as f64)
                .unwrap();
        }
        a.refresh();
        // Find the hot row's rid from the local export (rank 1).
        let export = a.export_table_deltas();
        let (hot_key, _) = export[0]
            .1
            .accesses
            .iter()
            .copied()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .unwrap();
        let rid = RowId::from_raw(hot_key);
        let before = snapshot_price(&a, "d", rid, 200.0);
        assert!(before < 10.0, "hot row prices below the cap");
        // A peer holding 30 rows (no traffic yet) only grows `n`.
        let delta = ReplicaDelta {
            origin: 9,
            seq: 1,
            tables: vec![(
                "d".to_owned(),
                TableDelta {
                    rows: 30,
                    ..TableDelta::default()
                },
            )],
            gate: GateDelta {
                origin: 9,
                users: Vec::new(),
                subnets: Vec::new(),
            },
        };
        assert!(a.apply_replica_delta(&delta));
        let after = snapshot_price(&a, "d", rid, 200.0);
        // d(i) = i^(α+β)/(n·fmax): same rank, same fmax, n goes 10 → 40.
        assert!(
            (after * 4.0 - before).abs() <= 1e-12 * before.max(1.0),
            "expected exactly before/4, got before={before} after={after}"
        );
    }
}
