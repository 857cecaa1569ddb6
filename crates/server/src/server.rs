//! The TCP transport for the front door: accept loop, per-connection
//! sessions, bounded send queues, and graceful drain.
//!
//! All protocol *policy* — gatekeeper admission, delay pricing, deadline
//! scheduling, refusal codes — lives in the transport-agnostic
//! [`FrontDoor`](crate::gate::FrontDoor); this module owns the sockets
//! and threads that carry it:
//!
//! * one accept thread; connections beyond `max_sessions` are shed with
//!   an explicit `REFUSED(Overloaded)` carrying a retry hint,
//! * two threads per admitted session — a reader running admission and
//!   the query engine, and a writer draining that connection's bounded
//!   [`SendQueue`],
//! * one [`DelayScheduler`] thread enforcing every tuple deadline in the
//!   process on a single timer wheel.
//!
//! Backpressure: each `SELECT` must reserve queue slots for its entire
//! result set *at admission time*; if the connection's outstanding rows
//! would exceed `send_queue_rows`, the query is refused with
//! `Overloaded` instead of letting scheduler jobs block on a slow
//! client. Scheduler jobs therefore never wait: they push into
//! pre-reserved slots and drop frames only for dead connections.
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

use crate::gate::{holds_row_slot, FrameSink, FrontDoor, GateConfig, SessionControl, SessionState};
use crate::metrics::ServerMetrics;
use crate::protocol::{
    encode_frame_into, read_frame_buffered, write_frame, Frame, ProtocolError, RefuseReason,
};
use crate::scheduler::DelayScheduler;
use delayguard_core::clock::{secs_to_nanos, Clock};
use delayguard_core::gatekeeper::GatekeeperConfig;
use delayguard_core::GuardedDatabase;
use delayguard_sim::{GuardStatsPublisher, Registry};
use parking_lot::Mutex as PMutex;
use std::collections::VecDeque;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
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

// ---- bounded per-connection send queue ----------------------------------

struct QueueInner {
    frames: VecDeque<Frame>,
    /// Rows admitted (reserved or queued) but not yet written to the
    /// socket. Charged by `try_reserve_rows`, released as the writer
    /// pops each row frame.
    outstanding_rows: usize,
    closed: bool,
}

/// A bounded queue of frames between a session's producer side (reader
/// thread + scheduler jobs) and its writer thread.
struct SendQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    /// Signalled when the queue empties (shutdown flush).
    empty: Condvar,
}

impl SendQueue {
    fn new() -> SendQueue {
        SendQueue {
            inner: Mutex::new(QueueInner {
                frames: VecDeque::new(),
                outstanding_rows: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            empty: Condvar::new(),
        }
    }

    /// Reserve capacity for `n` rows against `cap`. All-or-nothing, so a
    /// query either streams completely or is refused up front.
    fn try_reserve_rows(&self, n: usize, cap: usize) -> bool {
        let mut q = self.inner.lock().unwrap();
        if q.closed || q.outstanding_rows + n > cap {
            return false;
        }
        q.outstanding_rows += n;
        true
    }

    /// Queue frames in order under one lock acquisition and one writer
    /// wakeup. Never blocks: `ROW` and `MUTATED` frames land in slots
    /// reserved earlier, everything else is a control frame, which
    /// bypasses the row cap (small, and bounded by the client's own
    /// request rate). On a closed queue the frames are dropped and only
    /// the slot-holding ones give their reservations back.
    fn push(&self, frames: impl Iterator<Item = Frame>) {
        let mut q = self.inner.lock().unwrap();
        if q.closed {
            let slots = frames.filter(holds_row_slot).count();
            q.outstanding_rows = q.outstanding_rows.saturating_sub(slots);
            return;
        }
        q.frames.extend(frames);
        drop(q);
        self.ready.notify_one();
    }

    /// Hand back reserved row slots without queueing frames (the error
    /// path of a write that reserved its reply and failed to apply).
    fn release_rows(&self, n: usize) {
        let mut q = self.inner.lock().unwrap();
        q.outstanding_rows = q.outstanding_rows.saturating_sub(n);
    }

    /// Writer side: wait for the next frame; `None` once closed and empty.
    fn pop_blocking(&self) -> Option<(Frame, bool)> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(frame) = q.frames.pop_front() {
                // MUTATED replies consume a reserved slot like rows do:
                // a write reserves its confirmation before applying.
                if holds_row_slot(&frame) {
                    q.outstanding_rows = q.outstanding_rows.saturating_sub(1);
                }
                let more = !q.frames.is_empty();
                if !more {
                    self.empty.notify_all();
                }
                return Some((frame, more));
            }
            if q.closed {
                self.empty.notify_all();
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    /// Stop accepting frames; the writer drains what is queued and exits.
    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
        self.empty.notify_all();
    }

    /// Wait until every queued frame has been handed to the writer,
    /// measuring the timeout on `clock`.
    fn wait_drained(&self, clock: &dyn Clock, timeout: Duration) -> bool {
        let deadline = clock.now_nanos().saturating_add(timeout.as_nanos() as u64);
        let mut q = self.inner.lock().unwrap();
        while !q.frames.is_empty() {
            let now = clock.now_nanos();
            if now >= deadline {
                return false;
            }
            let wait = Duration::from_nanos(deadline - now);
            let (guard, _) = self.empty.wait_timeout(q, wait).unwrap();
            q = guard;
        }
        true
    }
}

/// Shared per-connection state: the queue plus a stream handle the
/// shutdown path can use to unblock the reader.
struct Conn {
    queue: SendQueue,
    stream: TcpStream,
    /// Row budget for this connection ([`ServerConfig::send_queue_rows`]).
    rows_cap: usize,
    /// Protocol version negotiated at `REGISTER`.
    session: SessionState,
    done: AtomicBool,
    /// Set once the writer has flushed its last frame; shutdown waits for
    /// this before severing the stream, so no queued frame is cut off.
    writer_done: AtomicBool,
}

impl FrameSink for Conn {
    fn push_control(&self, frame: Frame) {
        self.queue.push(std::iter::once(frame));
    }

    fn push_row(&self, frame: Frame) {
        self.queue.push(std::iter::once(frame));
    }

    fn push_batch(&self, frames: &mut Vec<Frame>) {
        self.queue.push(frames.drain(..));
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
        // 4. Flush and close every send queue, then unblock readers.
        let conns: Vec<Arc<Conn>> = shared.conns.lock().drain(..).collect();
        for conn in &conns {
            if conn.done.load(Ordering::SeqCst) {
                continue;
            }
            conn.queue
                .wait_drained(shared.clock.as_ref(), Duration::from_secs(10));
            conn.queue.close();
        }
        for conn in &conns {
            // Wait for the writer's final flush before severing the
            // stream, so clients receive every drained frame.
            let deadline = shared.clock.now_nanos() + secs_to_nanos(10.0);
            while !conn.writer_done.load(Ordering::SeqCst) && shared.clock.now_nanos() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
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
        stream: stream.try_clone().expect("clone session stream"),
        rows_cap: shared.config.send_queue_rows,
        session: SessionState::new(),
        done: AtomicBool::new(false),
        writer_done: AtomicBool::new(false),
    });
    {
        let mut conns = shared.conns.lock();
        conns.retain(|c| !c.done.load(Ordering::SeqCst));
        conns.push(Arc::clone(&conn));
    }

    let writer_conn = Arc::clone(&conn);
    let writer_stream = stream.try_clone().expect("clone session stream");
    let writer = std::thread::Builder::new()
        .name("delayguard-writer".into())
        .spawn(move || writer_loop(writer_stream, writer_conn))
        .expect("spawn writer thread");

    let reader_shared = Arc::clone(shared);
    let reader_conn = Arc::clone(&conn);
    let reader = std::thread::Builder::new()
        .name("delayguard-session".into())
        .spawn(move || {
            session_loop(stream, peer, &reader_shared, &reader_conn);
            // Reader done: stop the writer once queued frames are out, then
            // sever the socket so the peer sees EOF. Without the shutdown the
            // clone held in `shared.conns` keeps the OS socket open and a
            // client whose session the server terminated (protocol error,
            // unexpected frame) would block forever waiting for a close.
            reader_conn.queue.close();
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

/// Keep coalescing frames in the writer's buffer until it reaches this
/// size, then write even mid-burst, bounding writer memory.
const WRITER_COALESCE_BYTES: usize = 64 * 1024;

/// Shed the writer buffer's allocation after a burst leaves it larger
/// than this (a lone oversized `STATS_REPLY` must not pin megabytes for
/// the life of the connection).
const WRITER_BUF_RETAIN_BYTES: usize = 256 * 1024;

fn writer_loop(mut stream: TcpStream, conn: Arc<Conn>) {
    // One reusable encode buffer per connection replaces the old
    // `BufWriter` + per-frame body Vec: a burst of frames is laid down
    // back-to-back (zero steady-state allocations, one copy per byte)
    // and leaves in a single `write_all` at the queue boundary.
    let mut buf: Vec<u8> = Vec::with_capacity(8 * 1024);
    while let Some((frame, more)) = conn.queue.pop_blocking() {
        if encode_frame_into(&frame, &mut buf).is_err() {
            conn.queue.close();
            break;
        }
        // Write at queue boundaries so clients see frames promptly while
        // bursts still coalesce into large writes.
        if !more || buf.len() >= WRITER_COALESCE_BYTES {
            if stream.write_all(&buf).is_err() {
                conn.queue.close();
                break;
            }
            buf.clear();
            if buf.capacity() > WRITER_BUF_RETAIN_BYTES {
                buf = Vec::with_capacity(8 * 1024);
            }
        }
    }
    if !buf.is_empty() {
        let _ = stream.write_all(&buf);
    }
    let _ = stream.flush();
    conn.writer_done.store(true, Ordering::SeqCst);
}

fn peer_octets(peer: SocketAddr) -> [u8; 4] {
    match peer.ip() {
        IpAddr::V4(v4) => v4.octets(),
        IpAddr::V6(v6) => v6.to_ipv4().map(|v4| v4.octets()).unwrap_or([0, 0, 0, 0]),
    }
}

fn session_loop(stream: TcpStream, peer: SocketAddr, shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let mut reader = BufReader::new(stream);
    let peer_ip = peer_octets(peer);
    // Reused frame-body staging buffer: one allocation per connection,
    // not one per received frame.
    let mut scratch: Vec<u8> = Vec::new();
    loop {
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
