//! The transport-agnostic front door: admission, delay pricing, and
//! deadline scheduling, shared verbatim by the threaded TCP server
//! ([`crate::server`]) and the deterministic simulation harness
//! (`delayguard-testkit`).
//!
//! A transport owns sockets (or simulated links) and per-connection
//! queues; everything the paper actually specifies — gatekeeper
//! admission, per-tuple delay charging, scheduling rows on the timer
//! wheel, refusal codes and retry hints, drain accounting — lives here,
//! behind two small seams:
//!
//! * [`FrameSink`]: where response frames go. The TCP server's bounded
//!   `SendQueue` implements it; the testkit's in-memory connection does
//!   too. `try_reserve_rows` is the backpressure seam: a `SELECT`
//!   reserves send-queue slots chunk by chunk as the executor produces
//!   rows ([`GateConfig::stream_chunk_rows`]) and is refused
//!   `Overloaded` the moment a chunk does not fit — *before* that
//!   chunk's tuples are charged to the popularity ledger.
//! * [`Clock`][delayguard_core::clock::Clock]: the front door never
//!   reads the wall directly; gatekeeper timestamps and scheduler
//!   deadlines come from the injected clock, so the same admission code
//!   is exact under simulation.
//!
//! Because both transports route every frame through [`FrontDoor`],
//! properties proven in simulation (refusal retry hints are exact, drain
//! delivers every charged tuple, Sybil swarms gain nothing) are
//! properties of the code the real server runs — not of a model of it.

use crate::metrics::ServerMetrics;
use crate::protocol::{Frame, RefuseReason, PROTOCOL_VERSION, ROWS_UNKNOWN};
use crate::scheduler::{DelayScheduler, Job};
use delayguard_core::clock::{secs_to_nanos, Clock};
use delayguard_core::gatekeeper::{
    Admission, Gatekeeper, GatekeeperConfig, Ipv4, RefusalReason, RegistrationOutcome, UserId,
};
use delayguard_core::replica::ReplicaDelta;
use delayguard_core::{ChargedChunk, DeadlineStream, GuardError, GuardedDatabase, StreamedQuery};
use delayguard_query::ast::Statement;
use delayguard_query::engine::StatementOutput;
use delayguard_query::{parse, RowBuf};
use delayguard_sim::Registry;
use delayguard_storage::{Row, RowId};
use parking_lot::Mutex as PMutex;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Where a session's response frames go. Implemented by the TCP server's
/// bounded per-connection send queue and by the testkit's simulated
/// connection.
pub trait FrameSink: Send + Sync + 'static {
    /// Queue a control frame (registration, refusal, begin/done, stats,
    /// error). Control frames bypass the row budget; they are small and
    /// bounded by the client's own request rate.
    fn push_control(&self, frame: Frame);

    /// Queue a row frame into a slot previously reserved with
    /// [`FrameSink::try_reserve_rows`]. Must never block: scheduler jobs
    /// call this on the wheel thread.
    fn push_row(&self, frame: Frame);

    /// Reserve capacity for `n` row frames, all-or-nothing, so a chunk
    /// either streams completely or the query is refused at the chunk
    /// boundary (with nothing from that chunk charged).
    fn try_reserve_rows(&self, n: usize) -> bool;

    /// Queue everything one wheel job releases, in order: row frames
    /// whose deadlines landed on the same scheduler tick (into slots
    /// previously reserved with [`FrameSink::try_reserve_rows`]) and,
    /// when the result ends on that tick, the control frames that close
    /// it. Must never block, like [`FrameSink::push_row`]. The default
    /// forwards one frame at a time; transports with a locked
    /// per-connection queue override it to take the lock (and wake the
    /// writer) once per batch.
    fn push_batch(&self, frames: &mut Vec<Frame>) {
        for frame in frames.drain(..) {
            if holds_row_slot(&frame) {
                self.push_row(frame);
            } else {
                self.push_control(frame);
            }
        }
    }

    /// Return `n` row slots reserved with [`FrameSink::try_reserve_rows`]
    /// without sending anything — the error path of a write that reserved
    /// its `MUTATED` reply slot and then failed to apply. Sinks that
    /// account reservations must override this or the slots leak for the
    /// connection's lifetime.
    fn release_rows(&self, _n: usize) {}
}

/// Whether `frame` occupies a send-queue slot reserved with
/// [`FrameSink::try_reserve_rows`]: result rows, and the `MUTATED`
/// confirmation a write reserves before it applies. Every other frame
/// bypasses the row budget.
pub(crate) fn holds_row_slot(frame: &Frame) -> bool {
    matches!(frame, Frame::Row { .. } | Frame::Mutated { .. })
}

/// Which write verb a mutation frame carried. The opcode is the
/// client's *claim*; [`FrontDoor::handle_mutation`] checks it against
/// the parsed statement so a `DELETE` can never ride in on an `INSERT`
/// frame's semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationVerb {
    Insert,
    Update,
    Delete,
}

impl MutationVerb {
    fn name(self) -> &'static str {
        match self {
            MutationVerb::Insert => "INSERT",
            MutationVerb::Update => "UPDATE",
            MutationVerb::Delete => "DELETE",
        }
    }
}

/// Per-connection protocol state negotiated at `REGISTER`.
///
/// A connection starts at version 1 (legacy count-up-front framing) and
/// is upgraded when its `REGISTER` frame carries a version byte; the
/// effective version is the minimum of the client's and
/// [`PROTOCOL_VERSION`]. The transport owns one of these per connection
/// and passes it to every [`FrontDoor::handle_frame`] call.
#[derive(Debug)]
pub struct SessionState {
    version: AtomicU8,
}

impl SessionState {
    /// A fresh connection: legacy framing until `REGISTER` negotiates up.
    pub fn new() -> SessionState {
        SessionState {
            version: AtomicU8::new(1),
        }
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
    /// Query handlers between the draining check and their last
    /// `schedule` call; shutdown waits for this to reach zero before
    /// draining the wheel, so no delay is scheduled after the drain.
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

    /// This node's cluster origin id (0 on a standalone server).
    pub fn node_origin(&self) -> u16 {
        self.gatekeeper.lock().origin()
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
    pub fn apply_delta(&self, delta: &ReplicaDelta) -> bool {
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
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Handlers that passed the draining check but have not finished
    /// scheduling yet. Shutdown waits for zero before draining the wheel.
    pub fn inflight_queries(&self) -> usize {
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
    pub fn handle_register(&self, claimed_ip: [u8; 4], peer_ip: [u8; 4], sink: &dyn FrameSink) {
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
        let now = self.now_secs();
        let outcome = self.gatekeeper.lock().register(Ipv4(ip), now);
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
    fn admitted<S: FrameSink>(&self, query_id: u32, user: u64, sink: &Arc<S>) -> bool {
        let retry = self.config.retry_after_secs;
        let now = self.now_secs();
        let (reason, hint) = {
            let mut gk = self.gatekeeper.lock();
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

    /// Handle a `QUERY` frame: admission, delay pricing, and scheduling
    /// every row (and the final `DONE`) on the wheel.
    ///
    /// A `QUERY` frame carries a `SELECT` and nothing else: writes have
    /// their own frames (whose handler enforces the session version, the
    /// verb and reserve-before-apply) and DDL has no wire surface, so any
    /// other statement is answered with an `Error` before it executes.
    ///
    /// Results run through the streaming pipeline (`stream_select`):
    /// rows are pulled in [`GateConfig::stream_chunk_rows`]-sized chunks,
    /// each chunk reserves its send-queue slots *before* its tuples are
    /// charged, and charged chunks land on the wheel while the executor
    /// is still producing the next one. Version-≥2 sessions get trailer
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
        let stmt = match parse(sql) {
            Ok(stmt @ Statement::Select { .. }) => stmt,
            Ok(_) => {
                let message = "QUERY frames carry SELECT statements only".to_owned();
                return self.query_error(query_id, message, sink);
            }
            Err(e) => return self.query_error(query_id, GuardError::from(e).to_string(), sink),
        };
        let trailer_framing = session.streaming();
        let result = self.db.execute_stmt_streaming(&stmt, |query| {
            // Only SELECTs reach the guard from here, and they always
            // open a row stream.
            if let StreamedQuery::Rows(mut stream) = query {
                self.metrics.queries_admitted.inc();
                self.stream_select(query_id, &mut stream, trailer_framing, sink);
            }
        });
        if let Err(e) = result {
            self.query_error(query_id, e.to_string(), sink);
        }
    }

    /// Handle a write frame (`INSERT`/`UPDATE`/`DELETE`): admission,
    /// verb check, reserve-before-apply, and a single `MUTATED` reply.
    ///
    /// The order of checks is deliberate:
    ///
    /// 1. v1 sessions are refused with [`RefuseReason::WritesUnsupported`]
    ///    — they never negotiated the mutation surface, and guessing at
    ///    framing an old client cannot parse is worse than an explicit
    ///    code.
    /// 2. The SQL is parsed and checked against the frame's verb *before*
    ///    anything is reserved, so malformed writes have no release path.
    /// 3. One reply slot is reserved in the send queue before the
    ///    statement is applied ([`FrameSink::try_reserve_rows`], the same
    ///    backpressure seam `SELECT` chunks use): a write whose `MUTATED`
    ///    confirmation cannot be delivered is refused `Overloaded` before
    ///    it mutates anything, never applied-but-unconfirmable.
    /// 4. The `MUTATED` reply rides the wheel at the statement's deadline
    ///    and consumes the reservation via [`FrameSink::push_row`]; if
    ///    the engine rejects the statement after the reservation, the
    ///    slot is handed back with [`FrameSink::release_rows`].
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
        let stmt = match parse(sql) {
            Ok(stmt) => stmt,
            Err(e) => return self.query_error(query_id, e.to_string(), sink),
        };
        let table = match (&stmt, verb) {
            (Statement::Insert { table, .. }, MutationVerb::Insert)
            | (Statement::Update { table, .. }, MutationVerb::Update)
            | (Statement::Delete { table, .. }, MutationVerb::Delete) => table.clone(),
            _ => {
                let message = format!("statement does not match {} frame", verb.name());
                return self.query_error(query_id, message, sink);
            }
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
        let result = self.db.execute_stmt_streaming(&stmt, |query| match query {
            StreamedQuery::Finished(resp) => {
                self.metrics.queries_admitted.inc();
                let rows = match &resp.output {
                    StatementOutput::Inserted { rids } => rids.len() as u32,
                    StatementOutput::Updated { rids } => rids.len() as u32,
                    StatementOutput::Deleted { rids } => rids.len() as u32,
                    _ => 0,
                };
                Some((rows, resp.deadline_nanos()))
            }
            // Unreachable after the verb check; tolerated defensively so
            // a planner change cannot panic the wheel thread.
            StreamedQuery::Rows(_) => None,
        });
        match result {
            Ok(Some((rows, deadline))) => {
                // The engine released its table lock when the closure
                // returned; reading the catalog version here cannot
                // deadlock, and it observes this statement's own bump.
                let data_version = self.db.table_data_version(&table).unwrap_or(0);
                let reply_sink = Arc::clone(sink);
                self.scheduler.schedule(
                    deadline,
                    Box::new(move || {
                        reply_sink.push_row(Frame::Mutated {
                            query_id,
                            rows,
                            data_version,
                        })
                    }),
                );
            }
            Ok(None) => {
                sink.release_rows(1);
                let message = format!("{} frame produced a row stream", verb.name());
                self.query_error(query_id, message, sink);
            }
            Err(e) => {
                sink.release_rows(1);
                self.query_error(query_id, e.to_string(), sink);
            }
        }
    }

    /// `SELECT` delivery: pull → reserve → charge → schedule, one bounded
    /// chunk at a time.
    ///
    /// A chunk the executor could not fill is the last one, so its jobs
    /// are filed together with the trailer (`ROWS_END`, `DONE`) at the
    /// final deadline; the trailer joins the last row batch when they
    /// share a tick, which makes a point query one wheel job, one sink
    /// push and one socket write. A result that ends exactly on a chunk
    /// boundary learns so only from the next, empty pull, and its
    /// trailer is then one job of its own.
    ///
    /// Without `trailer_framing` (a version-1 session) the client expects
    /// the exact row count in `ROWS_BEGIN` and no `ROWS_END`, so the whole
    /// result is the one, unbounded chunk: it reserves all-or-nothing and
    /// is only charged if it fits.
    fn stream_select<S: FrameSink>(
        &self,
        query_id: u32,
        stream: &mut DeadlineStream<'_, '_>,
        trailer_framing: bool,
        sink: &Arc<S>,
    ) {
        let retry = self.config.retry_after_secs;
        let chunk_rows = if trailer_framing {
            self.config.stream_chunk_rows.max(1)
        } else {
            usize::MAX
        };
        let mut seq: u32 = 0;
        let mut began = false;
        // Chunk-sized scratch recycled across the whole stream: the
        // executor decodes into `buf` and pricing fills `charged` with
        // no per-chunk allocation.
        let mut buf = RowBuf::new();
        let mut charged = ChargedChunk::default();
        loop {
            let n = match stream.next_chunk_into(chunk_rows, &mut buf) {
                Ok(n) => n,
                // Mid-stream executor failure: already-scheduled rows
                // still deliver at their deadlines; the error frame
                // tells the client the stream is truncated.
                Err(e) => return self.query_error(query_id, e.to_string(), sink),
            };
            if n > 0 {
                if !sink.try_reserve_rows(n) {
                    // Refuse BEFORE charging: the tuples of this chunk are
                    // neither delayed-priced nor recorded in the popularity
                    // ledger, so a shed query costs the requester nothing.
                    self.metrics.refused_backpressure.inc();
                    let refused = Frame::Refused {
                        query_id,
                        reason: RefuseReason::Overloaded,
                        retry_after_secs: retry,
                    };
                    if !began {
                        sink.push_control(refused);
                    } else {
                        // Earlier chunks were charged and are on the wheel;
                        // the drain invariant ("every charged tuple is
                        // delivered") means the refusal must trail them.
                        let refuse_sink = Arc::clone(sink);
                        self.scheduler.schedule(
                            stream.deadline_nanos(),
                            Box::new(move || refuse_sink.push_control(refused)),
                        );
                    }
                    return;
                }
                let before_secs = stream.delay_secs();
                stream.charge_into(buf.rows(), &mut charged);
                self.metrics
                    .delay_micros_charged
                    .add_secs(stream.delay_secs() - before_secs);
                self.metrics.rows_streamed.add(n as u64);
            }
            if !began {
                began = true;
                sink.push_control(Frame::RowsBegin {
                    query_id,
                    columns: stream.columns().to_vec(),
                    rows: if trailer_framing {
                        ROWS_UNKNOWN
                    } else {
                        n as u32
                    },
                });
            }
            let mut releases = Releases::new(sink, self.scheduler.tick_nanos());
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
                        Frame::RowsEnd {
                            query_id,
                            rows: seq,
                        },
                    );
                }
                releases.push(
                    done_at,
                    Frame::Done {
                        query_id,
                        delay_secs: stream.delay_secs(),
                        tuples: seq,
                    },
                );
            }
            self.scheduler.schedule_batch(releases.finish());
            if last {
                return;
            }
        }
    }
}

/// One chunk's wheel jobs under construction. Consecutive frames whose
/// deadlines land on the same scheduler tick are coalesced into a single
/// job that hands the sink the whole batch at once
/// ([`FrameSink::push_batch`] — one queue lock and one writer wakeup per
/// tick per connection instead of one per frame), and the caller files
/// the finished list under one wheel-lock acquisition
/// ([`DelayScheduler::schedule_batch`]). Release times and frame order
/// are exactly those of frame-at-a-time scheduling: a batch fires at the
/// shared tick, and the wheel's same-tick insertion order is preserved.
struct Releases<'a, S: FrameSink> {
    sink: &'a Arc<S>,
    tick_nanos: u64,
    jobs: Vec<(u64, Job)>,
    batch: Vec<Frame>,
    batch_deadline: u64,
}

impl<'a, S: FrameSink> Releases<'a, S> {
    fn new(sink: &'a Arc<S>, tick_nanos: u64) -> Self {
        Releases {
            sink,
            tick_nanos,
            jobs: Vec::new(),
            batch: Vec::new(),
            batch_deadline: 0,
        }
    }

    /// Release `frame` at `deadline`, after everything pushed before it.
    fn push(&mut self, deadline: u64, frame: Frame) {
        let tick = |nanos: u64| nanos.div_ceil(self.tick_nanos);
        if !self.batch.is_empty() && tick(deadline) != tick(self.batch_deadline) {
            self.flush();
        }
        if self.batch.is_empty() {
            self.batch_deadline = deadline;
        }
        self.batch.push(frame);
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
        for ((_rid, row), &offset) in rows.iter().zip(offsets) {
            let deadline = issued_at_nanos.saturating_add(secs_to_nanos(offset));
            let row = row.clone();
            self.push(deadline, Frame::Row { query_id, seq, row });
            seq += 1;
        }
        seq
    }

    fn flush(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let job_sink = Arc::clone(self.sink);
        let mut frames = std::mem::take(&mut self.batch);
        self.jobs.push((
            self.batch_deadline,
            Box::new(move || job_sink.push_batch(&mut frames)),
        ));
    }

    fn finish(mut self) -> Vec<(u64, Job)> {
        self.flush();
        self.jobs
    }
}

/// Map a gatekeeper refusal onto its wire code.
pub fn wire_reason(reason: RefusalReason) -> RefuseReason {
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
