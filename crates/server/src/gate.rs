//! The transport-agnostic front door: admission, delay pricing, and
//! deadline scheduling, shared verbatim by the threaded TCP server
//! ([`crate::server`]) and the deterministic simulation harness
//! (`delayguard-testkit`).
//!
//! A transport owns sockets (or simulated links) and per-connection
//! queues; everything the paper actually specifies — gatekeeper
//! admission, per-tuple delay charging, releasing rows at their
//! deadlines (at once when already due, else on the timer wheel), refusal
//! codes and retry hints, drain accounting — lives here,
//! behind two small seams:
//!
//! * [`FrameSink`]: where response frames go. The TCP server's bounded
//!   `SendQueue` implements it; the testkit's in-memory connection does
//!   too. Replies are encoded where they are released: each release
//!   batch reaches the sink as one [`Frame::Encoded`] run of wire bytes,
//!   laid down from the executor's borrowed rows, which holds `rows`
//!   reserved slots and which the TCP writer only copies to the socket.
//!   `try_reserve_rows` is the backpressure seam: a `SELECT`
//!   reserves send-queue slots chunk by chunk as the executor produces
//!   rows ([`GateConfig::stream_chunk_rows`]) and is refused
//!   `Overloaded` the moment a chunk does not fit — *before* that
//!   chunk's tuples are charged to the popularity ledger.
//! * [`Clock`]: the front door never
//!   reads the wall directly; gatekeeper timestamps and scheduler
//!   deadlines come from the injected clock, so the same admission code
//!   is exact under simulation.
//!
//! Because both transports route every frame through [`FrontDoor`],
//! properties proven in simulation (refusal retry hints are exact, drain
//! delivers every charged tuple, Sybil swarms gain nothing) are
//! properties of the code the real server runs — not of a model of it.

use crate::metrics::ServerMetrics;
use crate::protocol::{
    encode_frame_into, encode_row_into, encode_rows_begin_into, row_frame_len,
    rows_begin_frame_len, Frame, RefuseReason, PROTOCOL_VERSION, ROWS_UNKNOWN,
};
use crate::scheduler::{DelayScheduler, Job};
use delayguard_core::clock::{secs_to_nanos, Clock};
use delayguard_core::gatekeeper::{
    Admission, Gatekeeper, GatekeeperConfig, Ipv4, RefusalReason, RegistrationOutcome, UserId,
};
use delayguard_core::replica::ReplicaDelta;
use delayguard_core::{ChargedChunk, DeadlineStream, GuardError, GuardedDatabase};
use delayguard_query::engine::StatementOutput;
use delayguard_query::{Prepared, RowBuf, StatementCache, StatementKind};
use delayguard_sim::Registry;
use delayguard_storage::{Row, RowId};
use parking_lot::Mutex as PMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a session's response frames go. Implemented by the TCP server's
/// bounded per-connection send queue and by the testkit's simulated
/// connection.
pub trait FrameSink: Send + Sync + 'static {
    /// Queue a control frame (registration, refusal, stats, error).
    /// Control frames bypass the row budget; they are small and bounded
    /// by the client's own request rate.
    fn push_control(&self, frame: Frame);

    /// Queue a frame that fills slots previously reserved with
    /// [`FrameSink::try_reserve_rows`]. Must never block: scheduler jobs
    /// call this on the wheel thread.
    ///
    /// The front door encodes replies where it releases them, so each
    /// release batch — what a `SELECT` chunk's charge found already due,
    /// a write's `MUTATED`, or what one wheel job releases at a tick — is
    /// already one [`Frame::Encoded`] run of wire bytes, pushed alone. A
    /// run holds `rows` of the slots reserved with
    /// [`FrameSink::try_reserve_rows`] (one per `ROW` and `MUTATED`) and
    /// arrives here, or through [`FrameSink::push_control`] when it holds
    /// none. A transport writes a run by copying its bytes; a sink that
    /// inspects frames expands it with [`Frame::expand_into`].
    fn push_row(&self, frame: Frame);

    /// Reserve capacity for `n` row frames, all-or-nothing, so a chunk
    /// either streams completely or the query is refused at the chunk
    /// boundary (with nothing from that chunk charged).
    fn try_reserve_rows(&self, n: usize) -> bool;

    /// Return `n` row slots reserved with [`FrameSink::try_reserve_rows`]
    /// without sending anything — the error path of a write that reserved
    /// its `MUTATED` reply slot and then failed to apply. Sinks that
    /// account reservations must override this or the slots leak for the
    /// connection's lifetime.
    fn release_rows(&self, _n: usize) {}
}

/// Push `frame` into `sink`: as a row push when it fills reserved row
/// slots, else as a control push.
fn push_frame<S: FrameSink + ?Sized>(sink: &S, frame: Frame) {
    if row_slots(&frame) > 0 {
        sink.push_row(frame);
    } else {
        sink.push_control(frame);
    }
}

/// How many send-queue slots reserved with
/// [`FrameSink::try_reserve_rows`] `frame` fills: one for a result row
/// and for the `MUTATED` confirmation a write reserves before it
/// applies, a run's `rows`, and none for every other frame, which
/// bypasses the row budget.
pub(crate) fn row_slots(frame: &Frame) -> usize {
    match frame {
        Frame::Row { .. } | Frame::Mutated { .. } => 1,
        Frame::Encoded { rows, .. } => *rows,
        _ => 0,
    }
}

/// Which write verb a mutation frame carried. The opcode is the
/// client's *claim*; [`FrontDoor::handle_mutation`] checks it against
/// the prepared statement's own verb so a `DELETE` can never ride in on
/// an `INSERT` frame's semantics.
pub use delayguard_query::MutationVerb;

/// Per-connection state: the protocol version negotiated at
/// `REGISTER`, and the statement cache every `QUERY` and write frame
/// runs through.
///
/// A connection starts at version 1 (legacy count-up-front framing) and
/// is upgraded when its `REGISTER` frame carries a version byte; the
/// effective version is the minimum of the client's and
/// [`PROTOCOL_VERSION`]. The transport owns one of these per connection
/// and passes it to every [`FrontDoor::handle_frame`] call.
pub struct SessionState {
    version: AtomicU8,
    /// Prepared statement shapes ([`delayguard_query::stmt_cache`]) plus
    /// the chunk buffers this session's queries stream through.
    statements: PMutex<(StatementCache, RowBuf, ChargedChunk)>,
}

impl SessionState {
    /// A fresh connection: legacy framing until `REGISTER` negotiates up.
    pub fn new() -> SessionState {
        SessionState {
            version: AtomicU8::new(1),
            statements: PMutex::new(Default::default()),
        }
    }

    /// Statement shapes this session holds prepared (at most
    /// [`crate::STATEMENT_CACHE_CAPACITY`]).
    pub fn cached_statements(&self) -> usize {
        self.statements.lock().0.len()
    }

    /// The negotiated protocol version.
    pub fn version(&self) -> u8 {
        self.version.load(Ordering::Relaxed)
    }

    /// Whether `SELECT` results use `ROWS_END`-trailer framing.
    pub fn streaming(&self) -> bool {
        self.version() >= 2
    }

    fn negotiate(&self, client_version: u8) {
        self.version
            .store(client_version.clamp(1, PROTOCOL_VERSION), Ordering::Relaxed);
    }
}

impl Default for SessionState {
    fn default() -> Self {
        SessionState::new()
    }
}

impl std::fmt::Debug for SessionState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionState")
            .field("version", &self.version())
            .field("cached_statements", &self.cached_statements())
            .finish()
    }
}

/// What the transport should do with the session after a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionControl {
    /// Keep reading frames.
    Continue,
    /// Terminate the session (protocol violation).
    Terminate,
}

/// Policy knobs the front door needs (a transport-independent subset of
/// the server's configuration).
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Gatekeeper (registration + rate limiting) policy.
    pub gatekeeper: GatekeeperConfig,
    /// Honor the `claimed_ip` field of `REGISTER` frames. Off by default
    /// (the peer address is authoritative); enable behind a trusted
    /// proxy, or in tests that need many subnets over loopback.
    pub trust_client_ip: bool,
    /// Retry hint attached to refusals that have no exact gatekeeper
    /// hint (`Overloaded`, `ShuttingDown`, `Unregistered`).
    pub retry_after_secs: f64,
    /// How many rows a streaming `SELECT` pulls from the executor (and
    /// reserves in the send queue) per chunk. Bounds the executor-side
    /// buffering per connection at `stream_chunk_rows × row size`,
    /// independent of result-set size.
    pub stream_chunk_rows: usize,
    /// Append per-table popularity detail (access totals and the full
    /// key → rank order) to `STATS` replies. **Off by default, and it
    /// must stay off on anything reachable by untrusted peers**: the rank
    /// order is exactly what the delay policy prices from, so serving it
    /// hands a database-extraction adversary the target list the timing
    /// side channel would otherwise have to infer — and short-circuits
    /// delay shaping entirely. Enable only on an operator-facing,
    /// authenticated surface.
    pub stats_expose_popularity: bool,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            gatekeeper: GatekeeperConfig::default(),
            trust_client_ip: false,
            retry_after_secs: 1.0,
            stream_chunk_rows: 256,
            stats_expose_popularity: false,
        }
    }
}

/// The front door itself: everything between "bytes decoded into a
/// [`Frame`]" and "frames handed to a [`FrameSink`]".
pub struct FrontDoor {
    config: GateConfig,
    db: Arc<GuardedDatabase>,
    gatekeeper: PMutex<Gatekeeper>,
    scheduler: Arc<DelayScheduler>,
    metrics: ServerMetrics,
    registry: Registry,
    clock: Arc<dyn Clock>,
    /// Set first during shutdown: refuse all new work.
    draining: AtomicBool,
    /// Query handlers between the draining check and their last release
    /// (a due push or a `schedule` call); shutdown waits for this to
    /// reach zero before draining the wheel, so no delay is scheduled
    /// after the drain and no due frame is pushed after the flush.
    inflight_queries: AtomicUsize,
    /// Monotone sequence stamped onto exported replication deltas.
    delta_seq: AtomicU64,
}

impl FrontDoor {
    /// A front door over `db`, scheduling deadlines on `scheduler` and
    /// reading time from `clock`. The scheduler must share `clock` (and
    /// the guard should too) or deadlines drift.
    pub fn new(
        config: GateConfig,
        db: Arc<GuardedDatabase>,
        scheduler: Arc<DelayScheduler>,
        clock: Arc<dyn Clock>,
        metrics: ServerMetrics,
        registry: Registry,
    ) -> FrontDoor {
        FrontDoor {
            gatekeeper: PMutex::new(Gatekeeper::new(config.gatekeeper)),
            config,
            db,
            scheduler,
            metrics,
            registry,
            clock,
            draining: AtomicBool::new(false),
            inflight_queries: AtomicUsize::new(0),
            delta_seq: AtomicU64::new(0),
        }
    }

    /// Seconds on the front door's clock.
    pub fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    /// The rank-revealing `STATS` appendix, rendered only when
    /// `stats_expose_popularity` is on: per observed table, the access
    /// total and the complete popularity order the policy prices from.
    fn render_popularity(&self) -> String {
        use std::fmt::Write as _;
        // `write!` appends into the one growing buffer (infallible for
        // `String`); STATS is a control verb, not the wire hot path, but
        // the R6 allocation budget is cheap to honor anyway.
        let mut out = String::new();
        for table in self.db.tables() {
            let _ = writeln!(
                out,
                "popularity_table {table}  accesses {}",
                self.db.access_events(&table)
            );
            for (key, rank) in self.db.popularity_table(&table) {
                let _ = writeln!(out, "popularity_rank {table}  key {key}  rank {rank}");
            }
        }
        out
    }

    /// The injected clock.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The delay scheduler deadlines land on.
    pub fn scheduler(&self) -> &Arc<DelayScheduler> {
        &self.scheduler
    }

    /// The guarded database.
    pub fn db(&self) -> &Arc<GuardedDatabase> {
        &self.db
    }

    /// The metrics this front door publishes.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The registry backing `STATS` replies.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Direct gatekeeper access (attack-economics assertions in tests).
    pub fn gatekeeper(&self) -> &PMutex<Gatekeeper> {
        &self.gatekeeper
    }

    // ---- cluster replication (peer links) --------------------------------

    /// Set this node's cluster origin id. Must be called before traffic:
    /// the origin stamps every gatekeeper charge log and every exported
    /// delta, and peers key their remote stores by it.
    pub fn set_node_origin(&self, origin: u16) {
        self.gatekeeper.lock().set_origin(origin);
    }

    /// Snapshot everything this node has locally originated — popularity
    /// per table, gatekeeper charge logs — as one [`ReplicaDelta`],
    /// stamped with the next monotone sequence number.
    pub fn export_delta(&self) -> ReplicaDelta {
        let seq = self.delta_seq.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.deltas_exported.inc();
        let gate = self.gatekeeper.lock().export_gate_delta();
        ReplicaDelta {
            origin: gate.origin,
            seq,
            tables: self.db.export_table_deltas(),
            gate,
        }
    }

    /// Fold a peer's delta: gatekeeper charge logs merge CRDT-style
    /// (commutative, idempotent), popularity state replaces-if-newer in
    /// the guard's remote store and republishes merged snapshots.
    /// Returns whether the popularity half was new.
    pub(crate) fn apply_delta(&self, delta: &ReplicaDelta) -> bool {
        // The gate merge is unconditionally safe: charge-log entries are
        // append-only and keyed by (origin, seq), so replaying an old
        // delta merges nothing.
        self.gatekeeper.lock().merge_gate_delta(&delta.gate);
        let fresh = self.db.apply_replica_delta(delta);
        if fresh {
            self.metrics.deltas_applied.inc();
        } else {
            self.metrics.deltas_stale.inc();
        }
        fresh
    }

    /// Handle one frame from an authenticated *peer node* link. Clients
    /// never reach this path — [`Self::handle_frame`] terminates sessions
    /// that send replication frames — so the transport decides which
    /// connections are peers (the cluster sim marks its inter-node links;
    /// a TCP deployment would gate on listener or auth).
    pub fn handle_peer_frame<S: FrameSink>(&self, frame: Frame, sink: &Arc<S>) -> SessionControl {
        match frame {
            Frame::Delta { delta } => {
                self.apply_delta(&delta);
                sink.push_control(Frame::DeltaAck {
                    origin: delta.origin,
                    seq: delta.seq,
                });
                SessionControl::Continue
            }
            // Acks are bookkeeping for the sender's skip-if-unchanged
            // logic; the front door itself has nothing to update.
            Frame::DeltaAck { .. } => SessionControl::Continue,
            other => {
                sink.push_control(Frame::Error {
                    query_id: 0,
                    message: format!("unexpected frame on peer link: {other:?}"),
                });
                SessionControl::Terminate
            }
        }
    }

    // ---- drain accounting ------------------------------------------------

    /// Refuse all new queries and registrations from this point on.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the front door is refusing new work.
    pub(crate) fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handlers that passed the draining check but have not finished
    /// scheduling yet. Shutdown waits for zero before draining the wheel.
    pub(crate) fn inflight_queries(&self) -> usize {
        self.inflight_queries.load(Ordering::SeqCst)
    }

    // ---- frame dispatch --------------------------------------------------

    /// Handle one decoded client frame. `peer_ip` is the transport's
    /// authoritative view of the peer (IPv4 octets); `session` is the
    /// connection's negotiated protocol state.
    pub fn handle_frame<S: FrameSink>(
        &self,
        frame: Frame,
        peer_ip: [u8; 4],
        session: &SessionState,
        sink: &Arc<S>,
    ) -> SessionControl {
        match frame {
            Frame::Register {
                claimed_ip,
                version,
            } => {
                session.negotiate(version);
                self.handle_register(claimed_ip, peer_ip, sink.as_ref());
                SessionControl::Continue
            }
            Frame::Query {
                query_id,
                user,
                sql,
            } => {
                self.handle_query(query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Insert {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Insert, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Update {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Update, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Delete {
                query_id,
                user,
                sql,
            } => {
                self.handle_mutation(MutationVerb::Delete, query_id, user, &sql, session, sink);
                SessionControl::Continue
            }
            Frame::Stats => {
                let mut rendered = self.registry.render();
                if self.config.stats_expose_popularity {
                    rendered.push_str(&self.render_popularity());
                }
                sink.push_control(Frame::StatsReply { rendered });
                SessionControl::Continue
            }
            other => {
                sink.push_control(Frame::Error {
                    query_id: 0,
                    message: format!("unexpected frame from client: {other:?}"),
                });
                SessionControl::Terminate
            }
        }
    }

    /// Handle a `REGISTER` frame.
    pub(crate) fn handle_register(
        &self,
        claimed_ip: [u8; 4],
        peer_ip: [u8; 4],
        sink: &dyn FrameSink,
    ) {
        let retry = self.config.retry_after_secs;
        if self.draining() {
            self.metrics.refused_shutdown.inc();
            sink.push_control(Frame::Refused {
                query_id: 0,
                reason: RefuseReason::ShuttingDown,
                retry_after_secs: retry,
            });
            return;
        }
        let ip = if self.config.trust_client_ip && claimed_ip != [0, 0, 0, 0] {
            claimed_ip
        } else {
            peer_ip
        };
        // Stamped under the lock, so registrations reach the gatekeeper
        // in the order of their timestamps.
        let (outcome, now) = {
            let mut gk = self.gatekeeper.lock();
            let now = self.now_secs();
            (gk.register(Ipv4(ip), now), now)
        };
        match outcome {
            RegistrationOutcome::Admitted { user, fee_charged } => {
                self.metrics.users_registered.inc();
                sink.push_control(Frame::Registered {
                    user: user.0,
                    fee: fee_charged,
                });
            }
            RegistrationOutcome::TooSoon { retry_at } => {
                self.metrics.registrations_refused.inc();
                sink.push_control(Frame::Refused {
                    query_id: 0,
                    reason: RefuseReason::RegistrationTooSoon,
                    retry_after_secs: (retry_at - now).max(0.0),
                });
            }
        }
    }

    /// Enter the in-flight count, then refuse if the door is draining.
    ///
    /// The count is entered *before* the draining check; shutdown waits
    /// for it to reach zero before draining the wheel, so every delay
    /// scheduled while the returned guard lives is delivered.
    fn begin_statement<S: FrameSink>(
        &self,
        query_id: u32,
        sink: &Arc<S>,
    ) -> Option<InflightGuard<'_>> {
        self.inflight_queries.fetch_add(1, Ordering::SeqCst);
        let guard = InflightGuard(self);
        if self.draining() {
            self.metrics.refused_shutdown.inc();
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::ShuttingDown,
                retry_after_secs: self.config.retry_after_secs,
            });
            return None;
        }
        Some(guard)
    }

    /// Charge gatekeeper admission for one statement. On refusal, counts
    /// it, sends the `Refused` frame and returns `false`.
    ///
    /// The clock is read under the gatekeeper lock: charges then land in
    /// every bucket's log in time order, even when sessions of one /24
    /// race, and a bucket never has to replay its log from genesis.
    fn admitted<S: FrameSink>(&self, query_id: u32, user: u64, sink: &Arc<S>) -> bool {
        let retry = self.config.retry_after_secs;
        let (reason, hint) = {
            let mut gk = self.gatekeeper.lock();
            let now = self.now_secs();
            let Admission::Refused(reason) = gk.admit(UserId(user), now) else {
                return true;
            };
            // Rate refusals carry the gatekeeper's exact refill time; a
            // client that waits precisely this long is admitted, one that
            // retries earlier is refused again.
            let hint = match reason {
                RefusalReason::UserRateExceeded | RefusalReason::SubnetRateExceeded => gk
                    .retry_at(UserId(user), now)
                    .map(|at| (at - now).max(0.0))
                    .unwrap_or(retry),
                RefusalReason::Unregistered => retry,
            };
            (reason, hint)
        };
        let counter = match reason {
            RefusalReason::Unregistered => &self.metrics.refused_unregistered,
            RefusalReason::UserRateExceeded => &self.metrics.refused_user_rate,
            RefusalReason::SubnetRateExceeded => &self.metrics.refused_subnet_rate,
        };
        counter.inc();
        sink.push_control(Frame::Refused {
            query_id,
            reason: wire_reason(reason),
            retry_after_secs: hint,
        });
        false
    }

    /// Count a statement-level failure and tell the client.
    fn query_error<S: FrameSink>(&self, query_id: u32, message: String, sink: &Arc<S>) {
        self.metrics.query_errors.inc();
        sink.push_control(Frame::Error { query_id, message });
    }

    /// Handle a `QUERY` frame: admission, delay pricing, and releasing
    /// every row (and the final `DONE`) at its deadline.
    ///
    /// A `QUERY` frame carries a `SELECT` and nothing else: writes have
    /// their own frames (whose handler enforces the session version, the
    /// verb and reserve-before-apply) and DDL has no wire surface, so any
    /// other statement is answered with an `Error` before it executes.
    ///
    /// The SELECT runs prepared, from the session's own statement cache
    /// ([`delayguard_query::stmt_cache`]): a shape the session has seen
    /// is only bound to this frame's literals, a new one is parsed and
    /// planned once. Admission is charged before the SQL is looked at.
    ///
    /// Results run through the streaming pipeline (`stream_select`):
    /// rows are pulled in [`GateConfig::stream_chunk_rows`]-sized chunks,
    /// each chunk reserves its send-queue slots *before* its tuples are
    /// charged, and charged chunks are released (pushed now if already
    /// due, else filed on the wheel) while the executor is still
    /// producing the next one. Version-≥2 sessions get trailer
    /// framing (`ROWS_BEGIN` with [`ROWS_UNKNOWN`], then a `ROWS_END`
    /// count); a legacy session is the same pipeline with one unbounded
    /// chunk, so `ROWS_BEGIN` can carry the exact count.
    pub fn handle_query<S: FrameSink>(
        &self,
        query_id: u32,
        user: u64,
        sql: &str,
        session: &SessionState,
        sink: &Arc<S>,
    ) {
        let Some(_inflight) = self.begin_statement(query_id, sink) else {
            return;
        };
        if !self.admitted(query_id, user, sink) {
            return;
        }
        let trailer_framing = session.streaming();
        let mut cache = session.statements.lock();
        let (statements, rows, charged) = &mut *cache;
        let (hit, prepared) = statements.prepare(self.db.engine(), sql, StatementKind::Select);
        self.count_lookup(hit);
        let (query, scratch) = match prepared {
            Ok(Prepared::Select(query, scratch)) => (query, scratch),
            Ok(_) => {
                let message = "QUERY frames carry SELECT statements only".to_owned();
                return self.query_error(query_id, message, sink);
            }
            Err(e) => return self.query_error(query_id, GuardError::from(e).to_string(), sink),
        };
        // A legacy session takes its whole result as one chunk: give it
        // buffers of its own, freed with the query, rather than grow the
        // session's to the largest result it ever read.
        let mut legacy = (RowBuf::new(), ChargedChunk::default());
        let (rows, charged) = if trailer_framing {
            (rows, charged)
        } else {
            (&mut legacy.0, &mut legacy.1)
        };
        let result = self
            .db
            .execute_prepared_streaming(query, scratch, |mut stream| {
                self.metrics.queries_admitted.inc();
                self.stream_select(query_id, &mut stream, trailer_framing, sink, rows, charged);
            });
        if let Err(e) = result {
            self.query_error(query_id, e.to_string(), sink);
        }
    }

    /// Handle a write frame (`INSERT`/`UPDATE`/`DELETE`): admission,
    /// verb check, reserve-before-apply, and a single `MUTATED` reply.
    ///
    /// The write runs prepared, from the session's statement cache, as a
    /// `QUERY` frame's SELECT does: a shape the session has seen is only
    /// bound to this frame's literals, a new one is parsed once and
    /// planned on its first run.
    ///
    /// The order of checks is deliberate:
    ///
    /// 1. v1 sessions are refused with [`RefuseReason::WritesUnsupported`]
    ///    — they never negotiated the mutation surface, and guessing at
    ///    framing an old client cannot parse is worse than an explicit
    ///    code.
    /// 2. Admission is charged.
    /// 3. The SQL is prepared (a parse error of the frame's own text is
    ///    reported here) and its verb checked against the frame's
    ///    *before* anything is reserved, so malformed writes have no
    ///    release path.
    /// 4. One reply slot is reserved in the send queue before the
    ///    statement is applied ([`FrameSink::try_reserve_rows`], the same
    ///    backpressure seam `SELECT` chunks use): a write whose `MUTATED`
    ///    confirmation cannot be delivered is refused `Overloaded` before
    ///    it mutates anything, never applied-but-unconfirmable.
    /// 5. The `MUTATED` reply carries the table's data version as this
    ///    write's own commit left it, and is released at the statement's
    ///    deadline through the same `Releases` as `SELECT` rows, consuming
    ///    the reservation; if the engine rejects the statement after the
    ///    reservation, the slot is handed back with
    ///    [`FrameSink::release_rows`].
    ///
    /// A write is never delayed, so its deadline has always passed by the
    /// time it is applied and the reply goes straight into the sink on
    /// the session thread. The TCP transport sends what a burst of input
    /// queued in one socket write, so the confirmations of pipelined
    /// writes still leave together without waiting for a scheduler tick.
    pub fn handle_mutation<S: FrameSink>(
        &self,
        verb: MutationVerb,
        query_id: u32,
        user: u64,
        sql: &str,
        session: &SessionState,
        sink: &Arc<S>,
    ) {
        let Some(_inflight) = self.begin_statement(query_id, sink) else {
            return;
        };
        if session.version() < 2 {
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::WritesUnsupported,
                retry_after_secs: 0.0,
            });
            return;
        }
        if !self.admitted(query_id, user, sink) {
            return;
        }
        let mut cache = session.statements.lock();
        let (hit, prepared) = cache.0.prepare(self.db.engine(), sql, StatementKind::Write);
        self.count_lookup(hit);
        let write = match prepared {
            Ok(Prepared::Write(write)) if write.verb() == verb => write,
            Ok(_) => {
                let message = format!("statement does not match {} frame", verb.name());
                return self.query_error(query_id, message, sink);
            }
            Err(e) => return self.query_error(query_id, e.to_string(), sink),
        };
        if !sink.try_reserve_rows(1) {
            // Refuse BEFORE applying: a write we could not confirm is a
            // write that did not happen.
            self.metrics.refused_backpressure.inc();
            sink.push_control(Frame::Refused {
                query_id,
                reason: RefuseReason::Overloaded,
                retry_after_secs: self.config.retry_after_secs,
            });
            return;
        }
        match self.db.execute_prepared_write(write) {
            Ok(resp) => {
                self.metrics.queries_admitted.inc();
                let rows = match &resp.output {
                    StatementOutput::Inserted { rids }
                    | StatementOutput::Updated { rids }
                    | StatementOutput::Deleted { rids } => rids.len() as u32,
                    _ => 0,
                };
                let mut releases = self.releases(sink);
                releases.push(
                    resp.deadline_nanos(),
                    &Frame::Mutated {
                        query_id,
                        rows,
                        data_version: resp.data_version,
                    },
                );
                releases.finish();
            }
            Err(e) => {
                sink.release_rows(1);
                self.query_error(query_id, e.to_string(), sink);
            }
        }
    }

    /// Count one wire statement-cache lookup.
    fn count_lookup(&self, hit: bool) {
        if hit {
            self.metrics.stmt_cache_hits.inc();
        } else {
            self.metrics.stmt_cache_misses.inc();
        }
    }

    /// `SELECT` delivery: pull → reserve → charge → release, one bounded
    /// chunk at a time.
    ///
    /// Each charged chunk is handed to the statement's [`Releases`],
    /// which pushes it into the sink at once when its deadlines have
    /// already passed (a popular tuple under a microsecond cap) and files
    /// it on the wheel otherwise. A chunk the executor could not fill is
    /// the last one, so the trailer (`ROWS_END`, `DONE`) is released with
    /// it at the final deadline: a due point query is one sink push and
    /// no wheel job, a pending one is one wheel job, one push and one
    /// socket write. A result that ends exactly on a chunk boundary
    /// learns so only from the next, empty pull, and its trailer is then
    /// released on its own.
    ///
    /// Without `trailer_framing` (a version-1 session) the client expects
    /// the exact row count in `ROWS_BEGIN` and no `ROWS_END`, so the whole
    /// result is the one, unbounded chunk: it reserves all-or-nothing and
    /// is only charged if it fits.
    ///
    /// The executor decodes into `buf` and pricing fills `charged`: the
    /// session's buffers, recycled across chunks and queries.
    fn stream_select<S: FrameSink>(
        &self,
        query_id: u32,
        stream: &mut DeadlineStream<'_, '_>,
        trailer_framing: bool,
        sink: &Arc<S>,
        buf: &mut RowBuf,
        charged: &mut ChargedChunk,
    ) {
        let chunk_rows = if trailer_framing {
            self.config.stream_chunk_rows.max(1)
        } else {
            usize::MAX
        };
        let mut releases = self.releases(sink);
        let mut seq: u32 = 0;
        let mut began = false;
        loop {
            let n = match stream.next_chunk_into(chunk_rows, buf) {
                Ok(n) => n,
                // Mid-stream executor failure: rows already released
                // still deliver at their deadlines; the error frame
                // tells the client the stream is truncated.
                Err(e) => return self.query_error(query_id, e.to_string(), sink),
            };
            if n > 0 {
                if !sink.try_reserve_rows(n) {
                    // Refuse BEFORE charging: the tuples of this chunk are
                    // neither delayed-priced nor recorded in the popularity
                    // ledger, so a shed query costs the requester nothing.
                    // The drain invariant ("every charged tuple is
                    // delivered") means the refusal trails the chunks
                    // charged before it, at the deadline they reached.
                    self.metrics.refused_backpressure.inc();
                    releases.control(
                        stream.deadline_nanos(),
                        Frame::Refused {
                            query_id,
                            reason: RefuseReason::Overloaded,
                            retry_after_secs: self.config.retry_after_secs,
                        },
                    );
                    releases.finish();
                    return;
                }
                let before_secs = stream.delay_secs();
                stream.charge_into(buf.rows(), charged);
                self.metrics
                    .delay_micros_charged
                    .add_secs(stream.delay_secs() - before_secs);
                self.metrics.rows_streamed.add(n as u64);
            }
            if !began {
                began = true;
                let rows = if trailer_framing {
                    ROWS_UNKNOWN
                } else {
                    n as u32
                };
                releases.begin(query_id, stream.columns(), rows, buf.rows());
            }
            seq = releases.rows(
                query_id,
                seq,
                stream.issued_at_nanos(),
                buf.rows(),
                &charged.offsets,
            );
            // The executor ran dry inside this pull: the result ends here.
            let last = n < chunk_rows;
            if last {
                // Pushed after every row, so ROWS_END follows the last row
                // and DONE comes last of all, same tick or not.
                let done_at = stream.deadline_nanos();
                if trailer_framing {
                    releases.push(
                        done_at,
                        &Frame::RowsEnd {
                            query_id,
                            rows: seq,
                        },
                    );
                }
                releases.push(
                    done_at,
                    &Frame::Done {
                        query_id,
                        delay_secs: stream.delay_secs(),
                        tuples: seq,
                    },
                );
            }
            let at_charge = releases.finish();
            if last {
                if at_charge {
                    self.metrics.released_at_charge.inc();
                }
                return;
            }
        }
    }

    /// A new statement's [`Releases`] into `sink`.
    fn releases<'a, S: FrameSink>(&'a self, sink: &'a Arc<S>) -> Releases<'a, S> {
        Releases {
            sink,
            scheduler: &self.scheduler,
            clock: self.clock.as_ref(),
            now: 0,
            by_tick: false,
            on_wheel: false,
            jobs: Vec::new(),
            bytes: Vec::new(),
            slots: 0,
            batch_deadline: 0,
        }
    }
}

/// One statement's releases, and the one place that decides how each
/// frame leaves: pushed into the sink on the session thread, or filed on
/// the timer wheel. Two rules keep the wire contract:
///
/// * **Never early.** A frame goes straight to the sink only once its
///   deadline is at or before the clock; the wheel takes every deadline
///   still ahead.
/// * **Per-statement order.** Once any frame of the statement has gone on
///   the wheel, every later frame goes there too, so a due frame can
///   never overtake an earlier one whose tick has not fired yet.
///
/// Frames are encoded as they are released: each batch is laid down as
/// wire bytes, straight from the executor's borrowed rows and the
/// stream's borrowed column names, and reaches the sink as one
/// [`Frame::Encoded`] run, sized up front for the rows that join it. The
/// release path allocates per batch, never per row or per column, and
/// the writer only copies bytes.
///
/// Due frames gather into one batch however many ticks their deadlines
/// span, and each chunk's due batch is one push: no boxed job, no wheel
/// lock, no scheduler wake-up. From the first frame still ahead of the
/// clock on, consecutive frames whose deadlines land on the same
/// scheduler tick form one batch. Each is pushed as it is completed if
/// its deadline has passed by then and nothing of the statement waits on
/// the wheel (the clock is read as late as it can be), and is otherwise
/// one job that hands the sink the whole batch at once (one queue lock
/// and one writer wakeup per tick per connection instead of one per
/// frame); a chunk's jobs are filed under one wheel-lock acquisition
/// ([`DelayScheduler::schedule_batch`]). Release times and
/// frame order on the wheel are exactly those of frame-at-a-time
/// scheduling: a batch fires at the shared tick, and the wheel's same-tick
/// insertion order is preserved.
struct Releases<'a, S: FrameSink> {
    sink: &'a Arc<S>,
    scheduler: &'a DelayScheduler,
    clock: &'a dyn Clock,
    /// The latest clock reading: a deadline at or before it has elapsed.
    /// Read again only when a deadline lies past it.
    now: u64,
    /// Batches follow scheduler ticks: some frame of the statement was
    /// still ahead of the clock when it was laid down.
    by_tick: bool,
    /// Some frame of the statement has gone on the wheel.
    on_wheel: bool,
    jobs: Vec<(u64, Job)>,
    /// The batch being built: whole wire frames, back to back.
    bytes: Vec<u8>,
    /// Row slots the frames in `bytes` fill.
    slots: usize,
    /// The latest deadline in the batch.
    batch_deadline: u64,
}

/// Bytes a result's closing `ROWS_END` (13) and `DONE` (21) frames take,
/// length prefixes included; a write's `MUTATED` (21) fits too.
const TRAILER_BYTES: usize = 34;

/// Bytes the `ROW` frames of `rows` take.
fn rows_len(rows: &[(RowId, Row)]) -> usize {
    rows.iter().map(|(_, r)| row_frame_len(r)).sum()
}

impl<'a, S: FrameSink> Releases<'a, S> {
    /// Release `ROWS_BEGIN` now: it waits for no deadline, so it leads
    /// the first due batch, or leaves alone ahead of rows on the wheel.
    /// The batch is sized once, here, for the begin, the `first` chunk's
    /// rows and a trailer: a due result is one allocation.
    fn begin(&mut self, query_id: u32, columns: &[String], rows: u32, first: &[(RowId, Row)]) {
        let start = self.bytes.len();
        self.bytes
            .reserve(rows_begin_frame_len(columns) + rows_len(first) + TRAILER_BYTES);
        encode_rows_begin_into(query_id, columns, rows, &mut self.bytes);
        self.settle(start, 0, 0, |_| 0);
    }

    /// Release `frame` (a trailer or a `MUTATED` confirmation) at
    /// `deadline`, after everything pushed before it. A batch already
    /// begun was sized with room for it.
    fn push(&mut self, deadline: u64, frame: &Frame) {
        self.next_tick(deadline);
        if self.bytes.is_empty() {
            self.bytes.reserve(TRAILER_BYTES);
        }
        let start = self.bytes.len();
        // A few fixed-size fields: always far below the frame limit.
        if encode_frame_into(frame, &mut self.bytes).is_ok() {
            self.settle(start, deadline, row_slots(frame), |_| TRAILER_BYTES);
        }
    }

    /// Release each row at its charged offset from `issued_at_nanos`,
    /// numbering them from `seq`. Returns the next sequence number.
    fn rows(
        &mut self,
        query_id: u32,
        mut seq: u32,
        issued_at_nanos: u64,
        rows: &[(RowId, Row)],
        offsets: &[f64],
    ) -> u32 {
        let deadline_of = |offset: f64| issued_at_nanos.saturating_add(secs_to_nanos(offset));
        for (i, ((_rid, row), &offset)) in rows.iter().zip(offsets).enumerate() {
            let deadline = deadline_of(offset);
            self.next_tick(deadline);
            // Size each batch once, when it starts (`begin` sized the
            // first): while the statement is due, for every row of the
            // chunk; once batches follow ticks, for the rows on this
            // one's tick. A trailer fits after them.
            if self.bytes.is_empty() {
                let room = if self.by_tick {
                    self.tick_bytes(deadline, &rows[i..], &offsets[i..], deadline_of)
                } else {
                    rows_len(rows)
                };
                self.bytes.reserve(room + TRAILER_BYTES);
            }
            let start = self.bytes.len();
            encode_row_into(query_id, seq, row, &mut self.bytes);
            self.settle(start, deadline, 1, |releases| {
                let rest = (&rows[i + 1..], &offsets[i + 1..]);
                releases.tick_bytes(deadline, rest.0, rest.1, deadline_of) + TRAILER_BYTES
            });
            seq += 1;
        }
        seq
    }

    /// Once batches follow ticks, a frame released on a later tick than
    /// the batch's releases the batch and starts the next.
    fn next_tick(&mut self, deadline: u64) {
        if self.by_tick && !self.bytes.is_empty() && !self.same_tick(deadline, self.batch_deadline)
        {
            self.flush();
        }
    }

    /// Settle the frame just laid down at `bytes[start..]`, released at
    /// `deadline` and filling `slots` row slots. Until batches follow
    /// ticks, the frame stays in the one due batch if the clock has
    /// reached its deadline (read only now, with the frame encoded). If
    /// it has not, the frames before it go out now, and it starts the
    /// first per-tick batch, with `room` bytes for the frames that will
    /// join it.
    fn settle(
        &mut self,
        start: usize,
        deadline: u64,
        slots: usize,
        room: impl FnOnce(&mut Self) -> usize,
    ) {
        let starts_batch = if !self.by_tick && !self.elapsed(deadline) {
            if start > 0 {
                let mut frame = Vec::with_capacity(self.bytes.len() - start + room(self));
                frame.extend_from_slice(&self.bytes[start..]);
                self.bytes.truncate(start);
                self.flush();
                self.bytes = frame;
            }
            self.by_tick = true;
            true
        } else {
            start == 0
        };
        if starts_batch || deadline > self.batch_deadline {
            self.batch_deadline = deadline;
        }
        self.slots += slots;
    }

    /// Whether deadlines `a` and `b` land on the same scheduler tick.
    fn same_tick(&self, a: u64, b: u64) -> bool {
        let tick_nanos = self.scheduler.tick_nanos();
        a.div_ceil(tick_nanos) == b.div_ceil(tick_nanos)
    }

    /// Encoded bytes of the leading `rows` whose deadlines land on the
    /// tick of `deadline`.
    fn tick_bytes(
        &self,
        deadline: u64,
        rows: &[(RowId, Row)],
        offsets: &[f64],
        deadline_of: impl Fn(f64) -> u64,
    ) -> usize {
        rows.iter()
            .zip(offsets)
            .take_while(|&(_, &offset)| self.same_tick(deadline_of(offset), deadline))
            .map(|((_, row), _)| row_frame_len(row))
            .sum()
    }

    /// Release a control frame at `deadline`, after every frame before it.
    fn control(&mut self, deadline: u64, frame: Frame) {
        self.flush();
        self.release(deadline, move |sink| sink.push_control(frame));
    }

    /// Send what the chunk released: the due batch into the sink, the
    /// rest onto the wheel under one lock. Returns whether every frame of
    /// the statement so far went straight to the sink.
    fn finish(&mut self) -> bool {
        self.flush();
        if !self.jobs.is_empty() {
            self.scheduler.schedule_batch(self.jobs.drain(..));
        }
        !self.on_wheel
    }

    /// Release the batch as one run.
    fn flush(&mut self) {
        if self.bytes.is_empty() {
            return;
        }
        let run = Frame::Encoded {
            rows: std::mem::take(&mut self.slots),
            bytes: std::mem::take(&mut self.bytes),
        };
        self.release(self.batch_deadline, move |sink| push_frame(sink, run));
    }

    /// Run `deliver` against the sink at `deadline`: now, if it has
    /// elapsed and nothing of the statement waits on the wheel, or else
    /// as a wheel job.
    fn release(&mut self, deadline: u64, deliver: impl FnOnce(&S) + Send + 'static) {
        if !self.on_wheel && self.elapsed(deadline) {
            deliver(self.sink);
        } else {
            self.on_wheel = true;
            let sink = Arc::clone(self.sink);
            self.jobs.push((deadline, Box::new(move || deliver(&sink))));
        }
    }

    /// Whether `deadline` is at or before the clock.
    fn elapsed(&mut self, deadline: u64) -> bool {
        if deadline > self.now {
            self.now = self.clock.now_nanos();
        }
        deadline <= self.now
    }
}

/// Map a gatekeeper refusal onto its wire code.
pub(crate) fn wire_reason(reason: RefusalReason) -> RefuseReason {
    match reason {
        RefusalReason::Unregistered => RefuseReason::Unregistered,
        RefusalReason::UserRateExceeded => RefuseReason::UserRate,
        RefusalReason::SubnetRateExceeded => RefuseReason::SubnetRate,
    }
}

/// Decrements `inflight_queries` on every exit path of a statement
/// handler (see [`FrontDoor::begin_statement`]).
struct InflightGuard<'a>(&'a FrontDoor);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.inflight_queries.fetch_sub(1, Ordering::SeqCst);
    }
}
