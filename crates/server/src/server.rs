//! The TCP transport for the front door: accept loop, per-connection
//! sessions, bounded send queues, and graceful drain.
//!
//! All protocol *policy* — gatekeeper admission, delay pricing, deadline
//! scheduling, refusal codes — lives in the transport-agnostic
//! [`FrontDoor`]; this module owns the sockets
//! and threads that carry it:
//!
//! * one accept thread; connections beyond `max_sessions` are shed with
//!   an explicit `REFUSED(Overloaded)` carrying a retry hint,
//! * two threads per admitted session. The session thread reads frames,
//!   runs admission and the query engine, and writes its own replies:
//!   before each read that could block (its read buffer holds no whole
//!   frame) it takes everything queued on the connection's bounded
//!   `SendQueue` and sends it in one socket write, so a pipelined
//!   burst of due replies leaves together. The writer thread sleeps
//!   until a frame arrives from another thread — a wheel release while
//!   the session is blocked in `read`, or the drain — or until a long
//!   result leaves a quarter of the row budget waiting mid-statement,
//!   and then writes the queue out the same way. Replies are encoded
//!   where the front door releases them: a release batch is queued as
//!   one [`Frame::Encoded`] run of wire bytes holding `rows` row slots,
//!   and writing it out copies those bytes. One lock covers take, copy
//!   and write, so frames leave in queue order whoever writes.
//! * one [`DelayScheduler`] thread enforcing every tuple deadline in the
//!   process on a single timer wheel. Its jobs only push into queues;
//!   they never touch a socket, so a slow client cannot stall the wheel.
//!
//! Backpressure: a `SELECT` reserves queue slots chunk by chunk as the
//! executor produces rows, and a write reserves its one `MUTATED` slot
//! before it applies; when the connection's outstanding rows would
//! exceed `send_queue_rows`, the statement is refused `Overloaded`
//! instead of letting scheduler jobs block on a slow client. Scheduler
//! jobs therefore never wait: they push into pre-reserved slots and
//! drop frames only for dead connections. The queue counts slots in
//! rows, not frames: a slot comes back when a write-out takes the run
//! (or `MUTATED`) that fills it off the queue.
//!
//! Graceful shutdown ([`ServerHandle::shutdown`]): mark the front door
//! draining (new queries, registrations, and connections are refused
//! with `ShuttingDown`), wait for in-flight handlers to finish
//! scheduling, drain the wheel so every already-charged tuple is
//! delivered at its deadline, flush and close the send queues, then
//! join all threads.
//!
//! Time: the server adopts the guard's [`Clock`] (`db.clock()`), so
//! gatekeeper timestamps, guard deadlines, and wheel ticks share one
//! epoch. Socket-flush timeouts read the same clock.

use crate::gate::{row_slots, FrameSink, FrontDoor, GateConfig, SessionControl, SessionState};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    encode_frame_into, read_frame_buffered, write_frame, Frame, ProtocolError, RefuseReason,
};
use crate::scheduler::DelayScheduler;
use delayguard_core::clock::{secs_to_nanos, Clock};
use delayguard_core::gatekeeper::GatekeeperConfig;
use delayguard_core::GuardedDatabase;
use delayguard_sim::{Counter, GuardStatsPublisher, Registry};
use parking_lot::Mutex as PMutex;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{JoinHandle, Thread, ThreadId};
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Gatekeeper (registration + rate limiting) policy.
    pub gatekeeper: GatekeeperConfig,
    /// Maximum concurrent sessions; further connections are shed.
    pub max_sessions: usize,
    /// Per-connection cap on rows admitted but not yet written. A query
    /// whose result set does not fit the remaining budget is refused.
    pub send_queue_rows: usize,
    /// Timer-wheel granularity. Delays round up to the next tick; the
    /// scheduler thread sleeps from one occupied tick to the next, so a
    /// fine tick costs wake-ups per distinct deadline, not per tick. The
    /// default is the kernel's default timer slack (50 µs): a timed sleep
    /// is no more precise than that, so a finer tick would buy nothing.
    pub tick: Duration,
    /// Honor the `claimed_ip` field of `REGISTER` frames. Off by default
    /// (the peer address is authoritative); enable behind a trusted
    /// proxy, or in tests that need many subnets over loopback.
    pub trust_client_ip: bool,
    /// Retry hint attached to `Overloaded` / `ShuttingDown` refusals.
    pub retry_after_secs: f64,
    /// How many rows a streaming `SELECT` pulls from the executor (and
    /// reserves in the send queue) per chunk; bounds executor-side
    /// buffering per connection independently of result size.
    pub stream_chunk_rows: usize,
    /// How often the background refresher drains the guard's record queue
    /// and publishes a fresh policy snapshot. This is the server's half
    /// of the bounded-staleness contract: query threads also trip
    /// refreshes via `GuardConfig::snapshot`, but the dedicated thread
    /// keeps snapshot age bounded even when query threads are saturated.
    pub snapshot_refresh_interval: Duration,
    /// Append per-table popularity detail (access totals and the full
    /// key → rank order) to `STATS` replies. Off by default — the rank
    /// order is the very secret the delay policy defends, so exposing it
    /// to untrusted peers short-circuits the timing side-channel defense
    /// (see `GateConfig::stats_expose_popularity`).
    pub stats_expose_popularity: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            gatekeeper: GatekeeperConfig::default(),
            max_sessions: 64,
            send_queue_rows: 4096,
            tick: Duration::from_micros(50),
            trust_client_ip: false,
            retry_after_secs: 1.0,
            stream_chunk_rows: 256,
            snapshot_refresh_interval: Duration::from_millis(20),
            stats_expose_popularity: false,
        }
    }
}

impl ServerConfig {
    /// The transport-independent subset handed to the front door.
    fn gate_config(&self) -> GateConfig {
        GateConfig {
            gatekeeper: self.gatekeeper,
            trust_client_ip: self.trust_client_ip,
            retry_after_secs: self.retry_after_secs,
            stream_chunk_rows: self.stream_chunk_rows,
            stats_expose_popularity: self.stats_expose_popularity,
        }
    }
}

// ---- bounded per-connection send queue and write path --------------------

struct QueueInner {
    frames: VecDeque<Frame>,
    /// Rows admitted (reserved or queued) but not yet taken for the
    /// socket. Charged by `try_reserve_rows`, handed back as a write-out
    /// takes the frames that fill the slots.
    outstanding_rows: usize,
    /// The row slots the queued frames fill.
    queued_rows: usize,
    closed: bool,
}

/// A bounded queue of frames between a session's producers (its session
/// thread and scheduler jobs) and whichever thread writes it out.
struct SendQueue {
    inner: PMutex<QueueInner>,
}

impl SendQueue {
    fn new() -> SendQueue {
        SendQueue {
            inner: PMutex::new(QueueInner {
                frames: VecDeque::new(),
                outstanding_rows: 0,
                queued_rows: 0,
                closed: false,
            }),
        }
    }

    /// Reserve capacity for `n` rows against `cap`. All-or-nothing, so a
    /// query either streams completely or is refused up front.
    fn try_reserve_rows(&self, n: usize, cap: usize) -> bool {
        let mut q = self.inner.lock();
        if q.closed || q.outstanding_rows + n > cap {
            return false;
        }
        q.outstanding_rows += n;
        true
    }

    /// Queue `frame` and return how many row slots the queued frames now
    /// fill. Never blocks: a run's rows and a `MUTATED` land in slots
    /// reserved earlier, and any other frame is a control frame, which
    /// bypasses the row cap (small, and bounded by the client's own
    /// request rate). On a closed queue the frame is dropped, the slots
    /// it fills are given back, and `None` is returned.
    fn push(&self, frame: Frame) -> Option<usize> {
        let slots = row_slots(&frame);
        let mut q = self.inner.lock();
        if q.closed {
            q.outstanding_rows = q.outstanding_rows.saturating_sub(slots);
            return None;
        }
        q.queued_rows += slots;
        q.frames.push_back(frame);
        Some(q.queued_rows)
    }

    /// Hand back reserved row slots without queueing frames (the error
    /// path of a write that reserved its reply and failed to apply).
    fn release_rows(&self, n: usize) {
        let mut q = self.inner.lock();
        q.outstanding_rows = q.outstanding_rows.saturating_sub(n);
    }

    /// Swap every queued frame into `out` (empty on entry), handing back
    /// the row slots they hold. Returns whether the queue was closed, in
    /// which case no frame will follow the ones taken.
    fn take_all(&self, out: &mut VecDeque<Frame>) -> bool {
        let mut q = self.inner.lock();
        std::mem::swap(&mut q.frames, out);
        q.outstanding_rows = q.outstanding_rows.saturating_sub(q.queued_rows);
        q.queued_rows = 0;
        q.closed
    }

    /// Stop accepting frames; what is already queued is still written.
    fn close(&self) {
        self.inner.lock().closed = true;
    }

    /// Wait until every queued frame has been taken for the socket, or
    /// `timeout` has passed on `clock`.
    fn wait_drained(&self, clock: &dyn Clock, deadline: u64) {
        while !self.inner.lock().frames.is_empty() && clock.now_nanos() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// How long shutdown waits, on the server's clock, first for every send
/// queue to drain and then for every writer's final flush.
const SHUTDOWN_FLUSH_NANOS: u64 = 10_000_000_000;

/// A write-out sends at most this many bytes per socket write: a larger
/// burst leaves in several, bounding the encode buffer.
const WRITE_COALESCE_BYTES: usize = 64 * 1024;

/// Shed the encode buffer's allocation after a burst leaves it larger
/// than this (a lone oversized `STATS_REPLY` must not pin megabytes for
/// the life of the connection).
const WRITE_BUF_RETAIN_BYTES: usize = 256 * 1024;

/// The connection's one write path. Its lock is held from taking the
/// queue through encoding to the socket write, so frames leave in queue
/// order whichever thread writes them.
struct WriteState {
    /// Reusable write buffer: a burst of runs and control frames is
    /// laid down back to back (no steady-state allocation, one copy per
    /// byte) and leaves in one `write_all`.
    buf: Vec<u8>,
    /// The deque swapped in for the queue's on each take, so neither
    /// side reallocates.
    taken: VecDeque<Frame>,
}

/// Shared per-connection state: the send queue, the write path, and the
/// stream handle both the write path and the shutdown path use.
struct Conn {
    queue: SendQueue,
    write: PMutex<WriteState>,
    stream: TcpStream,
    /// Row budget for this connection ([`ServerConfig::send_queue_rows`]).
    rows_cap: usize,
    /// Protocol version negotiated at `REGISTER`.
    session: SessionState,
    /// The session thread, which writes out its own pushes before it
    /// next blocks in `read`.
    session_thread: OnceLock<ThreadId>,
    /// The writer thread, unparked by pushes it has to write out.
    writer_thread: OnceLock<Thread>,
    /// `server_socket_writes_total`.
    socket_writes: Counter,
    done: AtomicBool,
    /// Set once the writer has flushed its last frame; shutdown waits for
    /// this before severing the stream, so no queued frame is cut off.
    writer_done: AtomicBool,
}

impl Conn {
    /// Queue `frame`. A push from the session thread is left for the
    /// session to write out before its next blocking read, unless it
    /// leaves a quarter of `rows_cap` rows waiting: then the writer takes
    /// over, so a long result starts leaving while the session is still
    /// executing it. Any other push (a wheel job, the drain) wakes the
    /// writer.
    fn push(&self, frame: Frame) {
        let Some(rows_waiting) = self.queue.push(frame) else {
            return;
        };
        let from_session = self.session_thread.get() == Some(&std::thread::current().id());
        if !from_session || rows_waiting >= (self.rows_cap / 4).max(1) {
            self.wake_writer();
        }
    }

    fn wake_writer(&self) {
        if let Some(writer) = self.writer_thread.get() {
            writer.unpark();
        }
    }

    /// Take every queued frame and send it: one socket write per
    /// [`WRITE_COALESCE_BYTES`]. A frame that cannot be encoded, or a
    /// failed write, closes the connection's queue: later frames are
    /// dropped and their slots given back. Returns whether the queue was
    /// already closed, so that nothing is left to write after this.
    fn write_out(&self) -> bool {
        let mut write = self.write.lock();
        let WriteState { buf, taken } = &mut *write;
        let closed = self.queue.take_all(taken);
        let mut healthy = true;
        for frame in taken.drain(..) {
            if encode_frame_into(&frame, buf).is_err()
                || (buf.len() >= WRITE_COALESCE_BYTES && !self.send(buf))
            {
                healthy = false;
                break;
            }
        }
        // What was encoded before a frame that could not be still leaves.
        if !buf.is_empty() && !self.send(buf) {
            healthy = false;
        }
        if !healthy {
            self.close();
        }
        if buf.capacity() > WRITE_BUF_RETAIN_BYTES {
            *buf = Vec::with_capacity(8 * 1024);
        }
        closed
    }

    fn send(&self, buf: &mut Vec<u8>) -> bool {
        self.socket_writes.inc();
        let sent = (&self.stream).write_all(buf).is_ok();
        buf.clear();
        sent
    }

    /// Stop accepting frames and let the writer send what is queued.
    fn close(&self) {
        self.queue.close();
        self.wake_writer();
    }
}

impl FrameSink for Conn {
    fn push_control(&self, frame: Frame) {
        self.push(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.push(frame);
    }

    fn try_reserve_rows(&self, n: usize) -> bool {
        self.queue.try_reserve_rows(n, self.rows_cap)
    }

    fn release_rows(&self, n: usize) {
        self.queue.release_rows(n);
    }
}

// ---- the server itself --------------------------------------------------

struct Shared {
    config: ServerConfig,
    gate: FrontDoor,
    clock: Arc<dyn Clock>,
    metrics: ServerMetrics,
    /// Stops the accept loop.
    stop_accept: AtomicBool,
    /// Stops the snapshot refresher thread.
    stop_refresher: AtomicBool,
    /// Live sessions (the admission "semaphore").
    sessions: AtomicUsize,
    conns: PMutex<Vec<Arc<Conn>>>,
}

/// A running server; dropping the handle does **not** stop it — call
/// [`shutdown`](ServerHandle::shutdown).
pub struct Server;

/// Handle to a running [`Server`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    refresher_thread: Option<JoinHandle<()>>,
    session_threads: Arc<PMutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `db`, publishing metrics into `registry`. The server
    /// adopts the guard's clock, so guard deadlines and wheel ticks share
    /// one epoch.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        db: Arc<GuardedDatabase>,
        registry: Registry,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let metrics = ServerMetrics::new(&registry);
        let clock = db.clock();
        let scheduler =
            DelayScheduler::start_with_clock(config.tick, metrics.clone(), Arc::clone(&clock));
        let gate = FrontDoor::new(
            config.gate_config(),
            Arc::clone(&db),
            scheduler,
            Arc::clone(&clock),
            metrics.clone(),
            registry,
        );
        let shared = Arc::new(Shared {
            config,
            gate,
            clock,
            metrics,
            stop_accept: AtomicBool::new(false),
            stop_refresher: AtomicBool::new(false),
            sessions: AtomicUsize::new(0),
            conns: PMutex::new(Vec::new()),
        });
        // Publish an initial snapshot synchronously so the first query
        // prices against everything learned before the server started
        // (pre-seeded popularity, warm-up traffic through `execute_at`).
        db.refresh();
        let refresher_shared = Arc::clone(&shared);
        let refresher_thread = std::thread::Builder::new()
            .name("delayguard-refresher".into())
            .spawn(move || refresher_loop(refresher_shared))?;
        let session_threads = Arc::new(PMutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_threads = Arc::clone(&session_threads);
        let accept_thread = std::thread::Builder::new()
            .name("delayguard-accept".into())
            .spawn(move || accept_loop(listener, accept_shared, accept_threads))?;
        Ok(ServerHandle {
            addr: local,
            shared,
            accept_thread: Some(accept_thread),
            refresher_thread: Some(refresher_thread),
            session_threads,
        })
    }
}

/// Background snapshot refresher: every `snapshot_refresh_interval`,
/// drain the guard's record queue into the master trackers, publish a
/// fresh policy snapshot, and export the machinery's health gauges.
fn refresher_loop(shared: Arc<Shared>) {
    let publisher = GuardStatsPublisher::new(shared.gate.registry());
    while !shared.stop_refresher.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.snapshot_refresh_interval);
        shared.gate.db().refresh();
        publisher.publish(shared.gate.db());
    }
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry the server publishes into.
    pub fn registry(&self) -> &Registry {
        self.shared.gate.registry()
    }

    /// Gracefully shut down: refuse new work, deliver every in-flight
    /// delayed tuple at its deadline, then stop all threads.
    pub fn shutdown(mut self) {
        let shared = &self.shared;
        // 1. Refuse new queries/registrations/connections.
        shared.gate.begin_drain();
        // 2. Let handlers that already passed the draining check finish
        //    scheduling their result sets.
        while shared.gate.inflight_queries() > 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        // 3. Deliver everything on the wheel at its deadline.
        shared.gate.scheduler().drain();
        // 3b. Stop the refresher and fold the final queued accesses into
        //     the master trackers: no recorded access is ever lost to
        //     shutdown.
        shared.stop_refresher.store(true, Ordering::SeqCst);
        if let Some(t) = self.refresher_thread.take() {
            let _ = t.join();
        }
        shared.gate.db().refresh();
        // 4. Flush and close every send queue, then unblock readers. All
        //    connections share one flush deadline and then one writer
        //    deadline, so any number of clients that stopped reading
        //    delay shutdown by at most twice the flush timeout.
        let conns: Vec<Arc<Conn>> = shared.conns.lock().drain(..).collect();
        let clock = shared.clock.as_ref();
        let deadline = clock.now_nanos().saturating_add(SHUTDOWN_FLUSH_NANOS);
        for conn in &conns {
            if conn.done.load(Ordering::SeqCst) {
                continue;
            }
            conn.queue.wait_drained(clock, deadline);
            conn.close();
        }
        // Wait for the writers' final flushes before severing the
        // streams, so clients receive every drained frame.
        let deadline = clock.now_nanos().saturating_add(SHUTDOWN_FLUSH_NANOS);
        while clock.now_nanos() < deadline
            && conns.iter().any(|c| !c.writer_done.load(Ordering::SeqCst))
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        for conn in &conns {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        // 5. Stop accepting and join everything. The accept thread is
        //    blocked in `accept`; a connection to ourselves gives it the
        //    turn on which it sees the flag. (If the connect fails the
        //    listener is out of backlog or descriptors, and then `accept`
        //    is returning on its own.)
        shared.stop_accept.store(true, Ordering::SeqCst);
        let mut wake_addr = self.addr;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let threads: Vec<JoinHandle<()>> = self.session_threads.lock().drain(..).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    session_threads: Arc<PMutex<Vec<JoinHandle<()>>>>,
) {
    // Blocking accept: a connection is picked up the moment it arrives.
    // Shutdown sets `stop_accept` and then connects to the listener
    // itself, so the loop always gets one more turn to see the flag; by
    // then the front door is draining and whatever was accepted on that
    // turn is refused `ShuttingDown`.
    loop {
        let accepted = listener.accept();
        let stopping = shared.stop_accept.load(Ordering::SeqCst);
        match accepted {
            Ok((stream, peer)) => handle_accept(stream, peer, &shared, &session_threads),
            // Out of descriptors or the like: do not spin on the error.
            Err(_) if !stopping => std::thread::sleep(Duration::from_millis(2)),
            Err(_) => {}
        }
        if stopping {
            return;
        }
    }
}

/// Send a one-off refusal on a connection we are not admitting.
fn refuse_and_drop(stream: TcpStream, reason: RefuseReason, retry_after_secs: f64) {
    let mut w = BufWriter::new(stream);
    let _ = write_frame(
        &mut w,
        &Frame::Refused {
            query_id: 0,
            reason,
            retry_after_secs,
        },
    );
    let _ = w.flush();
}

fn handle_accept(
    stream: TcpStream,
    peer: SocketAddr,
    shared: &Arc<Shared>,
    session_threads: &Arc<PMutex<Vec<JoinHandle<()>>>>,
) {
    let retry = shared.config.retry_after_secs;
    if shared.gate.draining() {
        refuse_and_drop(stream, RefuseReason::ShuttingDown, retry);
        return;
    }
    // Admission "semaphore": claim a session slot or shed the connection.
    let prev = shared.sessions.fetch_add(1, Ordering::SeqCst);
    if prev >= shared.config.max_sessions {
        shared.sessions.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.connections_shed.inc();
        refuse_and_drop(stream, RefuseReason::Overloaded, retry);
        return;
    }
    shared.metrics.connections_accepted.inc();
    shared.metrics.sessions.add(1);
    let _ = stream.set_nodelay(true);

    let conn = Arc::new(Conn {
        queue: SendQueue::new(),
        write: PMutex::new(WriteState {
            buf: Vec::with_capacity(8 * 1024),
            taken: VecDeque::new(),
        }),
        stream: stream.try_clone().expect("clone session stream"),
        rows_cap: shared.config.send_queue_rows,
        session: SessionState::new(),
        session_thread: OnceLock::new(),
        writer_thread: OnceLock::new(),
        socket_writes: shared.metrics.socket_writes.clone(),
        done: AtomicBool::new(false),
        writer_done: AtomicBool::new(false),
    });

    let writer_conn = Arc::clone(&conn);
    let writer = std::thread::Builder::new()
        .name("delayguard-writer".into())
        .spawn(move || writer_loop(&writer_conn))
        .expect("spawn writer thread");
    // Before anything can push or close: a wake-up must find the writer.
    let _ = conn.writer_thread.set(writer.thread().clone());
    {
        let mut conns = shared.conns.lock();
        conns.retain(|c| !c.done.load(Ordering::SeqCst));
        conns.push(Arc::clone(&conn));
    }

    let reader_shared = Arc::clone(shared);
    let reader_conn = Arc::clone(&conn);
    let reader = std::thread::Builder::new()
        .name("delayguard-session".into())
        .spawn(move || {
            let _ = reader_conn.session_thread.set(std::thread::current().id());
            session_loop(stream, peer, &reader_shared, &reader_conn);
            // Reader done: stop the writer once queued frames are out, then
            // sever the socket so the peer sees EOF. Without the shutdown the
            // clone held in `shared.conns` keeps the OS socket open and a
            // client whose session the server terminated (protocol error,
            // unexpected frame) would block forever waiting for a close.
            reader_conn.close();
            let flush_deadline = reader_shared.clock.now_nanos() + secs_to_nanos(10.0);
            while !reader_conn.writer_done.load(Ordering::SeqCst)
                && reader_shared.clock.now_nanos() < flush_deadline
            {
                std::thread::sleep(Duration::from_millis(2));
            }
            let _ = reader_conn.stream.shutdown(Shutdown::Both);
            reader_conn.done.store(true, Ordering::SeqCst);
            reader_shared.sessions.fetch_sub(1, Ordering::SeqCst);
            reader_shared.metrics.sessions.add(-1);
        })
        .expect("spawn session thread");
    let mut threads = session_threads.lock();
    threads.push(writer);
    threads.push(reader);
}

/// The writer thread: write the queue out whenever another thread's push
/// (or a session hand-off) unparks it, until a write-out finds the queue
/// closed.
fn writer_loop(conn: &Conn) {
    while !conn.write_out() {
        std::thread::park();
    }
    conn.writer_done.store(true, Ordering::SeqCst);
}

fn peer_octets(peer: SocketAddr) -> [u8; 4] {
    match peer.ip() {
        IpAddr::V4(v4) => v4.octets(),
        IpAddr::V6(v6) => v6.to_ipv4().map(|v4| v4.octets()).unwrap_or([0, 0, 0, 0]),
    }
}

/// Whether `buffered` starts with a whole length-prefixed frame.
fn holds_whole_frame(buffered: &[u8]) -> bool {
    match buffered.split_first_chunk::<4>() {
        Some((len, body)) => body.len() >= u32::from_le_bytes(*len) as usize,
        None => false,
    }
}

fn session_loop(stream: TcpStream, peer: SocketAddr, shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut reader = BufReader::new(stream);
    let peer_ip = peer_octets(peer);
    // Reused frame-body staging buffer: one allocation per connection,
    // not one per received frame.
    let mut scratch: Vec<u8> = Vec::new();
    loop {
        // The next read can block unless a whole frame is already
        // buffered: first send what this burst of input queued, in one
        // write. A due reply so waits at most for the rest of its burst.
        if !holds_whole_frame(reader.buffer()) {
            conn.write_out();
        }
        let frame = match read_frame_buffered(&mut reader, &mut scratch) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // clean EOF
            Err(ProtocolError::Io(_)) => return,
            Err(e) => {
                conn.push_control(Frame::Error {
                    query_id: 0,
                    message: format!("protocol error: {e}"),
                });
                return;
            }
        };
        match shared
            .gate
            .handle_frame(frame, peer_ip, &conn.session, conn)
        {
            SessionControl::Continue => {}
            SessionControl::Terminate => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, MutateOutcome, QueryOutcome, RegisterOutcome};
    use delayguard_core::access::AccessDelayPolicy;
    use delayguard_core::config::GuardConfig;
    use delayguard_core::gatekeeper::RegistrationPolicy;
    use delayguard_core::policy::{ChargingModel, GuardPolicy};

    /// A graceful drain over a real socket with frames in flight both
    /// ways: a write's confirmation, due and sent by the session, and a
    /// scan whose ten rows wait on the wheel when shutdown begins. The
    /// drain delivers every frame, and afterwards the connection holds no
    /// queued frame and no reserved row slot.
    #[test]
    fn drain_delivers_every_frame_and_gives_back_every_row_slot() {
        let config = GuardConfig::paper_default()
            .with_policy(GuardPolicy::AccessRate(
                AccessDelayPolicy::new(1.5, 1.0).with_cap(0.3),
            ))
            .with_charging(ChargingModel::PerQueryMax);
        let db = GuardedDatabase::new(config);
        db.execute_at("CREATE TABLE directory (id INT NOT NULL)", 0.0)
            .unwrap();
        for id in 0..10 {
            db.execute_at(&format!("INSERT INTO directory VALUES ({id})"), 0.0)
                .unwrap();
        }
        let config = ServerConfig {
            gatekeeper: GatekeeperConfig {
                registration: RegistrationPolicy::interval(0.0),
                ..GatekeeperConfig::default()
            },
            ..ServerConfig::default()
        };
        let handle = Server::start("127.0.0.1:0", config, Arc::new(db), Registry::new()).unwrap();
        let addr = handle.addr();
        let client = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let user = match c.register().unwrap() {
                RegisterOutcome::Registered { user, .. } => user,
                other => panic!("registration refused: {other:?}"),
            };
            let wrote = c
                .update(user, "UPDATE directory SET id = 100 WHERE id = 0")
                .unwrap();
            (wrote, c.query(user, "SELECT * FROM directory").unwrap())
        });
        std::thread::sleep(Duration::from_millis(100));
        let conns = handle.shared.conns.lock().clone();
        handle.shutdown();

        let (wrote, read) = client.join().unwrap();
        assert!(matches!(wrote, MutateOutcome::Mutated { rows: 1, .. }));
        match read {
            QueryOutcome::Rows { rows, .. } => assert_eq!(rows.len(), 10),
            other => panic!("expected every row through the drain, got {other:?}"),
        }
        assert_eq!(conns.len(), 1);
        let q = conns[0].queue.inner.lock();
        assert!(q.frames.is_empty());
        assert_eq!(q.outstanding_rows, 0, "row slots still reserved");
    }
}
