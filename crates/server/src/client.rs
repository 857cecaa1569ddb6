//! A small blocking client for the delayguard wire protocol.
//!
//! Used by the integration tests, the demo example, and anything else
//! that wants to talk to a [`Server`](crate::server::Server) without
//! hand-rolling frames. One connection, sequential requests; each `ROW`
//! is timestamped on receipt so callers can verify delay enforcement.

use crate::protocol::{
    read_frame_buffered, write_frame_buffered, Frame, ProtocolError, RefuseReason, PROTOCOL_VERSION,
};
use delayguard_core::clock::{Clock, RealClock};
use delayguard_storage::Row;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Client-side failures.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failed.
    Protocol(ProtocolError),
    /// The server sent a frame that does not fit the current exchange.
    Unexpected(Frame),
    /// The server closed the connection mid-exchange.
    Closed,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
            ClientError::Unexpected(frame) => write!(f, "unexpected frame: {frame:?}"),
            ClientError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> ClientError {
        ClientError::Protocol(e)
    }
}

/// Result of [`Client::register`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegisterOutcome {
    /// An identity was issued.
    Registered { user: u64, fee: f64 },
    /// Registration (or the connection itself) was refused.
    Refused {
        reason: RefuseReason,
        retry_after_secs: f64,
    },
}

/// One tuple as received, stamped with its arrival time.
#[derive(Debug, Clone)]
pub struct ReceivedRow {
    /// Sequence number within the result set.
    pub seq: u32,
    /// The tuple.
    pub row: Row,
    /// When the frame arrived, in nanoseconds on the client's clock.
    pub received_at_nanos: u64,
}

/// Result of [`Client::query`].
#[derive(Debug)]
pub enum QueryOutcome {
    /// A `SELECT` streamed to completion.
    Rows {
        columns: Vec<String>,
        rows: Vec<ReceivedRow>,
        /// Total delay the server charged.
        delay_secs: f64,
        /// Wall time from send to `DONE`.
        elapsed: Duration,
    },
    /// A non-`SELECT` statement completed.
    Done {
        delay_secs: f64,
        tuples: u32,
        elapsed: Duration,
    },
    /// The gatekeeper (or load shedding) refused the query.
    Refused {
        reason: RefuseReason,
        retry_after_secs: f64,
    },
    /// The engine rejected the statement.
    Failed { message: String },
}

impl QueryOutcome {
    /// Wall time to completion, if the query ran.
    pub fn elapsed(&self) -> Option<Duration> {
        match self {
            QueryOutcome::Rows { elapsed, .. } | QueryOutcome::Done { elapsed, .. } => {
                Some(*elapsed)
            }
            _ => None,
        }
    }
}

/// Result of [`Client::insert`] / [`Client::update`] / [`Client::delete`].
#[derive(Debug)]
pub enum MutateOutcome {
    /// The write committed: affected row count and the table's data
    /// version after the commit.
    Mutated {
        rows: u32,
        data_version: u64,
        elapsed: Duration,
    },
    /// The gatekeeper (or load shedding) refused it.
    Refused {
        reason: RefuseReason,
        retry_after_secs: f64,
    },
    /// The engine (or the verb check) rejected the statement.
    Failed { message: String },
}

/// A blocking protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_query_id: u32,
    clock: Arc<dyn Clock>,
    /// Reused frame encode buffer (one per connection, like the server).
    wbuf: Vec<u8>,
    /// Reused frame-body staging buffer for the read side.
    rbuf: Vec<u8>,
}

impl Client {
    /// Connect to a server, stamping arrivals with a fresh real clock.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        Client::connect_with_clock(addr, RealClock::shared())
    }

    /// Connect, stamping arrivals and elapsed times on `clock` (lets
    /// tests compare client-observed times against a server sharing the
    /// same clock).
    pub(crate) fn connect_with_clock(
        addr: SocketAddr,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            next_query_id: 1,
            clock,
            wbuf: Vec::with_capacity(256),
            rbuf: Vec::new(),
        })
    }

    fn send(&mut self, frame: &Frame) -> Result<(), ClientError> {
        write_frame_buffered(&mut self.writer, frame, &mut self.wbuf)?;
        self.writer
            .flush()
            .map_err(|e| ClientError::Protocol(ProtocolError::Io(e)))?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Frame, ClientError> {
        match read_frame_buffered(&mut self.reader, &mut self.rbuf)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Closed),
        }
    }

    /// Register using the connection's peer address as identity source.
    pub fn register(&mut self) -> Result<RegisterOutcome, ClientError> {
        self.register_as([0, 0, 0, 0])
    }

    /// Register claiming `ip` (honored only by servers configured with
    /// `trust_client_ip`; `[0;4]` falls back to the peer address).
    /// Registers at the current protocol version.
    pub(crate) fn register_as(&mut self, ip: [u8; 4]) -> Result<RegisterOutcome, ClientError> {
        self.send(&Frame::Register {
            claimed_ip: ip,
            version: PROTOCOL_VERSION,
        })?;
        match self.recv()? {
            Frame::Registered { user, fee } => Ok(RegisterOutcome::Registered { user, fee }),
            Frame::Refused {
                reason,
                retry_after_secs,
                ..
            } => Ok(RegisterOutcome::Refused {
                reason,
                retry_after_secs,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Run one statement as `user`, blocking until the delayed result has
    /// fully streamed (or the request is refused / fails).
    pub fn query(&mut self, user: u64, sql: &str) -> Result<QueryOutcome, ClientError> {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        let started = self.clock.now_nanos();
        let elapsed_since = |clock: &Arc<dyn Clock>| {
            Duration::from_nanos(clock.now_nanos().saturating_sub(started))
        };
        self.send(&Frame::Query {
            query_id,
            user,
            sql: sql.to_string(),
        })?;
        // First frame decides the shape of the exchange.
        let columns = match self.recv()? {
            Frame::Refused {
                query_id: qid,
                reason,
                retry_after_secs,
            } if qid == query_id || qid == 0 => {
                return Ok(QueryOutcome::Refused {
                    reason,
                    retry_after_secs,
                })
            }
            Frame::Error {
                query_id: qid,
                message,
            } if qid == query_id => return Ok(QueryOutcome::Failed { message }),
            Frame::Done {
                query_id: qid,
                delay_secs,
                tuples,
            } if qid == query_id => {
                return Ok(QueryOutcome::Done {
                    delay_secs,
                    tuples,
                    elapsed: elapsed_since(&self.clock),
                })
            }
            Frame::RowsBegin {
                query_id: qid,
                columns,
                ..
            } if qid == query_id => columns,
            other => return Err(ClientError::Unexpected(other)),
        };
        let mut rows = Vec::new();
        loop {
            match self.recv()? {
                Frame::Row {
                    query_id: qid,
                    seq,
                    row,
                } if qid == query_id => rows.push(ReceivedRow {
                    seq,
                    row,
                    received_at_nanos: self.clock.now_nanos(),
                }),
                Frame::RowsEnd { query_id: qid, .. } if qid == query_id => {}
                // Mid-stream shed: the server delivered every charged row
                // and then refused the remainder.
                Frame::Refused {
                    query_id: qid,
                    reason,
                    retry_after_secs,
                } if qid == query_id || qid == 0 => {
                    return Ok(QueryOutcome::Refused {
                        reason,
                        retry_after_secs,
                    })
                }
                Frame::Done {
                    query_id: qid,
                    delay_secs,
                    ..
                } if qid == query_id => {
                    return Ok(QueryOutcome::Rows {
                        columns,
                        rows,
                        delay_secs,
                        elapsed: elapsed_since(&self.clock),
                    })
                }
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    /// Run an `INSERT` as `user` through its write verb, blocking
    /// until the `MUTATED` confirmation (or refusal/error) arrives.
    pub fn insert(&mut self, user: u64, sql: &str) -> Result<MutateOutcome, ClientError> {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        self.mutate_inner(
            query_id,
            Frame::Insert {
                query_id,
                user,
                sql: sql.to_string(),
            },
        )
    }

    /// Run an `UPDATE` as `user` through its write verb.
    pub fn update(&mut self, user: u64, sql: &str) -> Result<MutateOutcome, ClientError> {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        self.mutate_inner(
            query_id,
            Frame::Update {
                query_id,
                user,
                sql: sql.to_string(),
            },
        )
    }

    /// Run a `DELETE` as `user` through its write verb.
    pub fn delete(&mut self, user: u64, sql: &str) -> Result<MutateOutcome, ClientError> {
        let query_id = self.next_query_id;
        self.next_query_id += 1;
        self.mutate_inner(
            query_id,
            Frame::Delete {
                query_id,
                user,
                sql: sql.to_string(),
            },
        )
    }

    fn mutate_inner(&mut self, query_id: u32, frame: Frame) -> Result<MutateOutcome, ClientError> {
        let started = self.clock.now_nanos();
        self.send(&frame)?;
        match self.recv()? {
            Frame::Mutated {
                query_id: qid,
                rows,
                data_version,
            } if qid == query_id => Ok(MutateOutcome::Mutated {
                rows,
                data_version,
                elapsed: Duration::from_nanos(self.clock.now_nanos().saturating_sub(started)),
            }),
            Frame::Refused {
                query_id: qid,
                reason,
                retry_after_secs,
            } if qid == query_id || qid == 0 => Ok(MutateOutcome::Refused {
                reason,
                retry_after_secs,
            }),
            Frame::Error {
                query_id: qid,
                message,
            } if qid == query_id => Ok(MutateOutcome::Failed { message }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Fetch a rendered metrics snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        self.send(&Frame::Stats)?;
        match self.recv()? {
            Frame::StatsReply { rendered } => Ok(rendered),
            other => Err(ClientError::Unexpected(other)),
        }
    }
}
