//! The transport seam: one client-side interface, two transports.
//!
//! [`NetLink`] is a client's connection to a delayguard server —
//! send a [`Frame`], receive frames with a timeout, read the transport's
//! clock. [`SimNet`] hands out links and can wait. Two implementations:
//!
//! * the in-memory mesh of [`crate::world::SimWorld`], where "waiting"
//!   advances the virtual clock to the next scheduled event and a seeded
//!   [`FaultPlan`] injects latency, drops, reordering, resets and
//!   partitions per link;
//! * [`TcpNet`], real sockets against a real
//!   [`Server`](delayguard_server::server), where waiting is wall-clock
//!   sleeping.
//!
//! Generic helpers ([`register_until_admitted`], [`run_query`]) are
//! written against the traits only, so the transport-parity test can
//! drive the same scenario through both and compare outcomes — what the
//! simulation proves is then a property of the deployed wire protocol,
//! not of a sim-only shim.

use delayguard_core::clock::{Clock, RealClock};
use delayguard_server::gate::MutationVerb;
use delayguard_server::protocol::{read_frame, write_frame, Frame, RefuseReason, PROTOCOL_VERSION};
use delayguard_storage::Row;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Why a link operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// The connection is closed (reset, terminated, or shut down).
    Closed,
    /// The transport failed in some other way (TCP errors).
    Transport(String),
}

impl std::fmt::Display for LinkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkError::Closed => write!(f, "link closed"),
            LinkError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for LinkError {}

/// A frame plus the transport-clock time it arrived at the client.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Seconds on the transport's clock (virtual for the mesh, wall for
    /// TCP) when the frame reached the client.
    pub at_secs: f64,
    /// The decoded frame.
    pub frame: Frame,
}

/// A client's connection to the server, over either transport.
pub trait NetLink {
    /// Send one frame to the server.
    fn send(&mut self, frame: &Frame) -> Result<(), LinkError>;

    /// Receive the next frame, waiting up to `max_wait_secs` of
    /// transport time. `Ok(None)` means the wait elapsed with nothing to
    /// deliver. On the mesh, waiting advances the virtual clock.
    fn recv(&mut self, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError>;

    /// Seconds on the transport's clock.
    fn now_secs(&self) -> f64;

    /// Whether the link is still open.
    fn is_open(&self) -> bool;
}

/// A network that hands out links: the simulated mesh or real TCP.
pub trait SimNet {
    /// Open a connection. `from_ip` is the client's address: the mesh
    /// uses it as the peer address the server sees (any subnet, no
    /// spoofing config needed); TCP ignores it (the kernel assigns
    /// loopback, so multi-subnet TCP tests pair `Register { claimed_ip }`
    /// with `trust_client_ip`).
    fn connect(&mut self, from_ip: [u8; 4]) -> Result<Box<dyn NetLink>, LinkError>;

    /// Let `secs` of transport time pass.
    fn wait(&mut self, secs: f64);

    /// Seconds on the transport's clock.
    fn now_secs(&self) -> f64;
}

// ---- fault model --------------------------------------------------------

/// Seeded per-link fault injection, sampled by the mesh from the world's
/// RNG on every frame send (both directions share the link's plan).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Base one-way latency, seconds.
    pub latency_secs: f64,
    /// Uniform extra latency in `[0, jitter_secs)`, sampled per frame.
    pub jitter_secs: f64,
    /// Probability a frame is silently dropped.
    pub drop_prob: f64,
    /// Probability a frame is delivered late enough for later sends to
    /// overtake it (FIFO is enforced for all other frames).
    pub reorder_prob: f64,
    /// Extra delay added to a reordered frame.
    pub reorder_extra_secs: f64,
    /// Probability a send triggers a connection reset instead of a
    /// delivery; the peer observes the link closing.
    pub reset_prob: f64,
}

impl FaultPlan {
    /// A perfect link: instant, lossless, ordered.
    pub fn ideal() -> FaultPlan {
        FaultPlan {
            latency_secs: 0.0,
            jitter_secs: 0.0,
            drop_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra_secs: 0.0,
            reset_prob: 0.0,
        }
    }

    /// A plausible WAN link: latency and jitter, no loss.
    pub fn wan() -> FaultPlan {
        FaultPlan {
            latency_secs: 0.040,
            jitter_secs: 0.020,
            ..FaultPlan::ideal()
        }
    }

    /// Override the loss probability.
    pub fn with_drops(mut self, p: f64) -> FaultPlan {
        self.drop_prob = p;
        self
    }

    /// Override the reorder probability and the extra delay a reordered
    /// frame suffers.
    pub fn with_reordering(mut self, p: f64, extra_secs: f64) -> FaultPlan {
        self.reorder_prob = p;
        self.reorder_extra_secs = extra_secs;
        self
    }

    /// Override the reset probability.
    pub fn with_resets(mut self, p: f64) -> FaultPlan {
        self.reset_prob = p;
        self
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::ideal()
    }
}

// ---- real TCP -----------------------------------------------------------

/// The TCP implementation of [`SimNet`]: real sockets against a real
/// server. Used by the transport-parity test; campaigns run on the mesh.
pub struct TcpNet {
    addr: String,
    clock: Arc<RealClock>,
}

impl TcpNet {
    /// A network dialing `addr` (e.g. the `local_addr` of a started
    /// server).
    pub fn new(addr: impl Into<String>) -> TcpNet {
        TcpNet {
            addr: addr.into(),
            clock: Arc::new(RealClock::new()),
        }
    }
}

impl SimNet for TcpNet {
    fn connect(&mut self, _from_ip: [u8; 4]) -> Result<Box<dyn NetLink>, LinkError> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| LinkError::Transport(e.to_string()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| LinkError::Transport(e.to_string()))?;
        let clock = Arc::clone(&self.clock);
        let (tx, rx) = mpsc::channel();
        // A blocking reader thread per link: `read_frame` must never see
        // a mid-frame read timeout (it would lose sync), so timeouts live
        // on the channel, not the socket.
        std::thread::Builder::new()
            .name("testkit-tcp-reader".into())
            .spawn(move || {
                let mut reader = reader;
                while let Ok(Some(frame)) = read_frame(&mut reader) {
                    if tx.send((clock.now_secs(), frame)).is_err() {
                        break;
                    }
                }
            })
            .map_err(|e| LinkError::Transport(e.to_string()))?;
        Ok(Box::new(TcpLink {
            stream,
            rx,
            clock: Arc::clone(&self.clock),
            open: true,
        }))
    }

    fn wait(&mut self, secs: f64) {
        if secs > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(secs));
        }
    }

    fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }
}

/// One TCP connection; see [`TcpNet`].
pub struct TcpLink {
    stream: TcpStream,
    rx: mpsc::Receiver<(f64, Frame)>,
    clock: Arc<RealClock>,
    open: bool,
}

impl NetLink for TcpLink {
    fn send(&mut self, frame: &Frame) -> Result<(), LinkError> {
        if !self.open {
            return Err(LinkError::Closed);
        }
        write_frame(&mut self.stream, frame).map_err(|e| LinkError::Transport(e.to_string()))?;
        self.stream
            .flush()
            .map_err(|e| LinkError::Transport(e.to_string()))
    }

    fn recv(&mut self, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError> {
        match self
            .rx
            .recv_timeout(Duration::from_secs_f64(max_wait_secs.max(0.0)))
        {
            Ok((at_secs, frame)) => Ok(Some(Arrival { at_secs, frame })),
            Err(mpsc::RecvTimeoutError::Timeout) => Ok(None),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.open = false;
                Err(LinkError::Closed)
            }
        }
    }

    fn now_secs(&self) -> f64 {
        self.clock.now_secs()
    }

    fn is_open(&self) -> bool {
        self.open
    }
}

impl Drop for TcpLink {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

// ---- generic client drivers ---------------------------------------------

/// The complete outcome of one query as observed on the wire.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The query streamed rows and completed.
    Rows {
        /// Column names from `ROWS_BEGIN`.
        columns: Vec<String>,
        /// Row count from the `ROWS_END` trailer (`ROWS_UNKNOWN`, as
        /// `ROWS_BEGIN` announced it, if no trailer arrived).
        announced: u32,
        /// `(seq, row)` in *arrival* order (reordering faults show here).
        rows: Vec<(u32, Row)>,
        /// Arrival time of each row, parallel to `rows`.
        row_arrivals: Vec<f64>,
        /// Total delay charged, from `DONE`.
        delay_secs: f64,
        /// Tuples charged, from `DONE`.
        tuples: u32,
        /// When the query was sent / when `DONE` arrived.
        sent_at_secs: f64,
        done_at_secs: f64,
    },
    /// The server refused the query.
    Refused {
        reason: RefuseReason,
        retry_after_secs: f64,
    },
    /// The statement failed.
    Error { message: String },
    /// No terminal frame arrived within the timeout.
    TimedOut,
}

/// The complete outcome of one mutation as observed on the wire.
#[derive(Debug, Clone)]
pub enum MutationOutcome {
    /// The write was applied.
    Mutated {
        /// Rows affected, from `MUTATED`.
        rows: u32,
        /// The table's data version after the write, from `MUTATED`.
        data_version: u64,
        /// When the mutation was sent / when `MUTATED` arrived.
        sent_at_secs: f64,
        done_at_secs: f64,
    },
    /// The server refused the mutation (admission or backpressure).
    Refused {
        reason: RefuseReason,
        retry_after_secs: f64,
    },
    /// The statement failed.
    Error { message: String },
    /// No terminal frame arrived within the timeout.
    TimedOut,
}

impl MutationOutcome {
    /// The rows affected, or `None` for any non-applied outcome.
    pub fn rows(&self) -> Option<u32> {
        match self {
            MutationOutcome::Mutated { rows, .. } => Some(*rows),
            _ => None,
        }
    }
}

/// Send one `REGISTER` (at the current protocol version) and wait for
/// the verdict.
pub fn register_once(
    link: &mut dyn NetLink,
    claimed_ip: [u8; 4],
    timeout_secs: f64,
) -> Result<Result<u64, f64>, LinkError> {
    link.send(&Frame::Register {
        claimed_ip,
        version: PROTOCOL_VERSION,
    })?;
    let deadline = link.now_secs() + timeout_secs;
    loop {
        let remaining = deadline - link.now_secs();
        if remaining <= 0.0 {
            return Err(LinkError::Transport("registration timed out".into()));
        }
        match link.recv(remaining)? {
            Some(Arrival {
                frame: Frame::Registered { user, .. },
                ..
            }) => return Ok(Ok(user)),
            Some(Arrival {
                frame: Frame::Refused {
                    retry_after_secs, ..
                },
                ..
            }) => return Ok(Err(retry_after_secs)),
            Some(_) => continue, // stray frame from an earlier query
            None => return Err(LinkError::Transport("registration timed out".into())),
        }
    }
}

/// Register, honoring `RegistrationTooSoon` retry hints until admitted.
/// Returns the user id and the number of refusals absorbed.
pub fn register_until_admitted(
    net: &mut dyn SimNet,
    link: &mut dyn NetLink,
    claimed_ip: [u8; 4],
    timeout_secs: f64,
) -> Result<(u64, u64), LinkError> {
    let mut refusals = 0;
    loop {
        match register_once(link, claimed_ip, timeout_secs)? {
            Ok(user) => return Ok((user, refusals)),
            Err(retry_after) => {
                refusals += 1;
                // A hair past the hint: the hint itself is exact, but the
                // transport clock quantizes to nanoseconds.
                net.wait(retry_after + 1e-6);
            }
        }
    }
}

/// Run one mutation to its terminal frame (`MUTATED`, `REFUSED`,
/// `ERROR`) or the timeout. The verb selects which request frame is
/// sent; the server cross-checks it against the parsed statement.
pub fn run_mutation(
    link: &mut dyn NetLink,
    query_id: u32,
    user: u64,
    verb: MutationVerb,
    sql: &str,
    timeout_secs: f64,
) -> Result<MutationOutcome, LinkError> {
    let sent_at_secs = link.now_secs();
    let sql = sql.to_owned();
    link.send(&match verb {
        MutationVerb::Insert => Frame::Insert {
            query_id,
            user,
            sql,
        },
        MutationVerb::Update => Frame::Update {
            query_id,
            user,
            sql,
        },
        MutationVerb::Delete => Frame::Delete {
            query_id,
            user,
            sql,
        },
    })?;
    let deadline = sent_at_secs + timeout_secs;
    loop {
        let remaining = deadline - link.now_secs();
        if remaining <= 0.0 {
            return Ok(MutationOutcome::TimedOut);
        }
        let Some(arrival) = link.recv(remaining)? else {
            return Ok(MutationOutcome::TimedOut);
        };
        match arrival.frame {
            Frame::Mutated {
                query_id: qid,
                rows,
                data_version,
            } if qid == query_id => {
                return Ok(MutationOutcome::Mutated {
                    rows,
                    data_version,
                    sent_at_secs,
                    done_at_secs: arrival.at_secs,
                });
            }
            Frame::Refused {
                query_id: qid,
                reason,
                retry_after_secs,
            } if qid == query_id || qid == 0 => {
                return Ok(MutationOutcome::Refused {
                    reason,
                    retry_after_secs,
                });
            }
            Frame::Error {
                query_id: qid,
                message,
            } if qid == query_id => return Ok(MutationOutcome::Error { message }),
            _ => continue, // frames for other query ids
        }
    }
}

/// Run one query to its terminal frame (`DONE`, `REFUSED`, `ERROR`) or
/// the timeout, collecting every row with its arrival time.
pub fn run_query(
    link: &mut dyn NetLink,
    query_id: u32,
    user: u64,
    sql: &str,
    timeout_secs: f64,
) -> Result<QueryOutcome, LinkError> {
    let sent_at_secs = link.now_secs();
    link.send(&Frame::Query {
        query_id,
        user,
        sql: sql.to_owned(),
    })?;
    let deadline = sent_at_secs + timeout_secs;
    let mut columns = Vec::new();
    let mut announced = 0;
    let mut rows = Vec::new();
    let mut row_arrivals = Vec::new();
    loop {
        let remaining = deadline - link.now_secs();
        if remaining <= 0.0 {
            return Ok(QueryOutcome::TimedOut);
        }
        let Some(arrival) = link.recv(remaining)? else {
            return Ok(QueryOutcome::TimedOut);
        };
        match arrival.frame {
            Frame::RowsBegin {
                query_id: qid,
                columns: cols,
                rows: n,
            } if qid == query_id => {
                columns = cols;
                announced = n;
            }
            Frame::Row {
                query_id: qid,
                seq,
                row,
            } if qid == query_id => {
                rows.push((seq, row));
                row_arrivals.push(arrival.at_secs);
            }
            // Trailer framing: the real count supersedes the
            // ROWS_UNKNOWN sentinel announced at ROWS_BEGIN.
            Frame::RowsEnd {
                query_id: qid,
                rows: n,
            } if qid == query_id => {
                announced = n;
            }
            Frame::Done {
                query_id: qid,
                delay_secs,
                tuples,
            } if qid == query_id => {
                return Ok(QueryOutcome::Rows {
                    columns,
                    announced,
                    rows,
                    row_arrivals,
                    delay_secs,
                    tuples,
                    sent_at_secs,
                    done_at_secs: arrival.at_secs,
                });
            }
            Frame::Refused {
                query_id: qid,
                reason,
                retry_after_secs,
            } if qid == query_id || qid == 0 => {
                return Ok(QueryOutcome::Refused {
                    reason,
                    retry_after_secs,
                });
            }
            Frame::Error {
                query_id: qid,
                message,
            } if qid == query_id => return Ok(QueryOutcome::Error { message }),
            _ => continue, // frames for other query ids
        }
    }
}
