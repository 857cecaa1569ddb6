//! The wire protocol: length-delimited frames over TCP.
//!
//! Every frame is `len: u32 LE | opcode: u8 | payload`, where `len`
//! counts the opcode byte plus payload. Six request verbs (`REGISTER`,
//! `QUERY`, `STATS`, and the write verbs `INSERT`/`UPDATE`/`DELETE`) and
//! eight response frames; `SELECT` results stream as `ROWS_BEGIN` (with
//! the [`ROWS_UNKNOWN`] sentinel), then one `ROW` per tuple *as its
//! delay deadline expires*, then a `ROWS_END` trailer with the count and
//! `DONE`. A successful write answers with a single `MUTATED` frame
//! carrying the affected row count and the table's new data version.
//! Responses carry the originating `query_id` so a client may pipeline
//! queries on one connection.
//!
//! `REGISTER` carries the client's protocol version; a server refuses
//! any version below [`PROTOCOL_VERSION`] with
//! [`RefuseReason::VersionUnsupported`].
//!
//! Row payloads reuse the storage engine's row codec
//! ([`delayguard_storage::codec`]), so the server adds no second
//! serialization format.

use delayguard_core::gatekeeper::{Charge, GateDelta, SubnetCharges};
use delayguard_core::replica::{ReplicaDelta, TableDelta};
use delayguard_storage::codec::{decode_row, encode_row, encoded_row_len};
use delayguard_storage::Row;
use std::fmt;
use std::io::{self, Read, Write};

/// Largest accepted frame body (opcode + payload).
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Current frame-level protocol version, sent with `REGISTER`: the
/// lowest a server accepts.
pub const PROTOCOL_VERSION: u8 = 2;

/// Sentinel for [`Frame::RowsBegin::rows`]: the result is streaming and
/// the total count arrives in the [`Frame::RowsEnd`] trailer instead.
pub const ROWS_UNKNOWN: u32 = u32::MAX;

/// Why the server refused a request (wire codes are stable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefuseReason {
    /// The user id is not registered.
    Unregistered = 1,
    /// The identity exceeded its own token bucket.
    UserRate = 2,
    /// The identity's /24 subnet exceeded its aggregate bucket.
    SubnetRate = 3,
    /// Registration throttled (one identity per `t` seconds, §2.4).
    RegistrationTooSoon = 4,
    /// The server is at capacity; retry after the embedded hint.
    Overloaded = 5,
    /// The server is draining for shutdown.
    ShuttingDown = 6,
    /// `REGISTER` asked for a protocol version below
    /// [`PROTOCOL_VERSION`]; register again at the current version.
    VersionUnsupported = 7,
}

impl RefuseReason {
    fn from_code(code: u8) -> Option<RefuseReason> {
        Some(match code {
            1 => RefuseReason::Unregistered,
            2 => RefuseReason::UserRate,
            3 => RefuseReason::SubnetRate,
            4 => RefuseReason::RegistrationTooSoon,
            5 => RefuseReason::Overloaded,
            6 => RefuseReason::ShuttingDown,
            7 => RefuseReason::VersionUnsupported,
            _ => return None,
        })
    }
}

/// One protocol frame, request or response.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Request an identity. `claimed_ip` is honored only when the server
    /// is configured to trust it (proxy / test deployments); `[0;4]`
    /// means "use the connection's peer address". `version` is the
    /// highest protocol version the client speaks: decoded as 1 when the
    /// payload carries no version byte (the original 4-byte form), which
    /// the server refuses.
    Register { claimed_ip: [u8; 4], version: u8 },
    /// Execute SQL as `user`; responses echo `query_id`.
    Query {
        query_id: u32,
        user: u64,
        sql: String,
    },
    /// Execute an `INSERT` statement as `user`.
    /// The payload mirrors [`Frame::Query`]; the verb is in the opcode
    /// so the gate can refuse writes before parsing any SQL.
    Insert {
        query_id: u32,
        user: u64,
        sql: String,
    },
    /// Execute an `UPDATE` statement as `user`.
    Update {
        query_id: u32,
        user: u64,
        sql: String,
    },
    /// Execute a `DELETE` statement as `user`.
    Delete {
        query_id: u32,
        user: u64,
        sql: String,
    },
    /// Request a metrics snapshot.
    Stats,
    /// Registration succeeded.
    Registered { user: u64, fee: f64 },
    /// A request was refused. `retry_after_secs` is the server's hint for
    /// when a retry could succeed (`RETRY_AFTER` semantics).
    Refused {
        query_id: u32,
        reason: RefuseReason,
        retry_after_secs: f64,
    },
    /// A `SELECT` started streaming: column names, and `rows` =
    /// [`ROWS_UNKNOWN`]; the count arrives in the [`Frame::RowsEnd`]
    /// trailer.
    RowsBegin {
        query_id: u32,
        columns: Vec<String>,
        rows: u32,
    },
    /// One tuple, released at its delay deadline.
    Row { query_id: u32, seq: u32, row: Row },
    /// Trailer: the executor finished and `rows` is the total row count. Sent after the last `ROW`, before `DONE`.
    RowsEnd { query_id: u32, rows: u32 },
    /// The statement completed; `delay_secs` is the total charged.
    Done {
        query_id: u32,
        delay_secs: f64,
        tuples: u32,
    },
    /// A write committed: `rows` affected, and the table's data version
    /// after the commit so the client can order its view of the data.
    Mutated {
        query_id: u32,
        rows: u32,
        data_version: u64,
    },
    /// Metrics snapshot rendering.
    StatsReply { rendered: String },
    /// The statement failed.
    Error { query_id: u32, message: String },
    /// Inter-node replication (cluster delta-sync): one origin's
    /// cumulative popularity + gatekeeper state. Never sent by clients;
    /// a front door only accepts it on connections marked as peer links.
    Delta { delta: ReplicaDelta },
    /// Acknowledges the highest `seq` folded from `origin`, so the sender
    /// can skip unchanged re-sends.
    DeltaAck { origin: u16, seq: u64 },
    /// A run of reply frames already laid down as wire bytes, back to
    /// back, length prefixes included: one release batch of a statement,
    /// encoded where the front door released it. `rows` counts the
    /// reserved send-queue slots its frames fill (one per `ROW` and
    /// `MUTATED`). Encoding a run copies its bytes; decoding never
    /// produces one, and [`Frame::expand_into`] recovers the frames it
    /// holds.
    Encoded { rows: usize, bytes: Vec<u8> },
}

mod opcode {
    pub(crate) const REGISTER: u8 = 0x01;
    pub(crate) const QUERY: u8 = 0x02;
    pub(crate) const STATS: u8 = 0x03;
    pub const INSERT: u8 = 0x04;
    pub(crate) const UPDATE: u8 = 0x05;
    pub(crate) const DELETE: u8 = 0x06;
    pub(crate) const REGISTERED: u8 = 0x10;
    pub(crate) const REFUSED: u8 = 0x11;
    pub(crate) const ROWS_BEGIN: u8 = 0x12;
    pub(crate) const ROW: u8 = 0x13;
    pub(crate) const DONE: u8 = 0x14;
    pub(crate) const STATS_REPLY: u8 = 0x15;
    pub(crate) const ERROR: u8 = 0x16;
    pub(crate) const ROWS_END: u8 = 0x17;
    pub(crate) const MUTATED: u8 = 0x18;
    pub(crate) const DELTA: u8 = 0x20;
    pub(crate) const DELTA_ACK: u8 = 0x21;
}

/// Protocol-level failures (distinct from transport `io::Error`).
#[derive(Debug)]
pub enum ProtocolError {
    /// The transport failed.
    Io(io::Error),
    /// A frame was malformed.
    Malformed(String),
    /// A frame exceeded [`MAX_FRAME`].
    Oversized(usize),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "io error: {e}"),
            ProtocolError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtocolError::Oversized(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> ProtocolError {
        ProtocolError::Io(e)
    }
}

// ---- payload primitives -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_rows_begin(out: &mut Vec<u8>, query_id: u32, columns: &[String], rows: u32) {
    out.push(opcode::ROWS_BEGIN);
    put_u32(out, query_id);
    out.extend_from_slice(&(columns.len() as u16).to_le_bytes());
    for c in columns {
        put_str(out, c);
    }
    put_u32(out, rows);
}

fn put_row(out: &mut Vec<u8>, query_id: u32, seq: u32, row: &Row) {
    out.push(opcode::ROW);
    put_u32(out, query_id);
    put_u32(out, seq);
    // Serialize the row straight into the frame buffer: no temporary
    // per-row Vec, no second copy.
    encode_row(row, out);
}

fn put_counts(out: &mut Vec<u8>, counts: &[(u64, f64)]) {
    put_u32(out, counts.len() as u32);
    for &(key, units) in counts {
        put_u64(out, key);
        put_f64(out, units);
    }
}

fn put_charges(out: &mut Vec<u8>, log: &[Charge]) {
    put_u32(out, log.len() as u32);
    for c in log {
        put_u64(out, c.seq);
        put_f64(out, c.at_secs);
        put_f64(out, c.amount);
    }
}

fn put_replica_delta(out: &mut Vec<u8>, delta: &ReplicaDelta) {
    out.extend_from_slice(&delta.origin.to_le_bytes());
    put_u64(out, delta.seq);
    put_u32(out, delta.tables.len() as u32);
    for (name, td) in &delta.tables {
        put_str(out, name);
        put_counts(out, &td.accesses);
        put_counts(out, &td.updates);
        put_u64(out, td.rows);
        match td.epoch {
            Some(e) => {
                out.push(1);
                put_f64(out, e);
            }
            None => out.push(0),
        }
    }
    out.extend_from_slice(&delta.gate.origin.to_le_bytes());
    put_u32(out, delta.gate.users.len() as u32);
    for (user, log) in &delta.gate.users {
        put_u64(out, *user);
        put_charges(out, log);
    }
    put_u32(out, delta.gate.subnets.len() as u32);
    for sc in &delta.gate.subnets {
        out.extend_from_slice(&sc.base);
        out.push(sc.prefix);
        put_charges(out, &sc.log);
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtocolError::Malformed(format!(
                "truncated payload: wanted {n} bytes at {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtocolError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        // Validate in place, then copy exactly once into the owned
        // String; `String::from_utf8(bytes.to_vec())` would copy first
        // and validate after, double-buffering every decoded string.
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::Malformed("invalid utf-8 string".into()))
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn finish(self) -> Result<(), ProtocolError> {
        if self.pos != self.buf.len() {
            return Err(ProtocolError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    /// A length-prefixed list, with the count sanity-bounded by the
    /// remaining payload so a hostile length cannot pre-allocate gigabytes.
    fn list_len(&mut self, min_item_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(ProtocolError::Malformed(format!(
                "list of {n} items cannot fit in {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    fn counts(&mut self) -> Result<Vec<(u64, f64)>, ProtocolError> {
        let n = self.list_len(16)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push((self.u64()?, self.f64()?));
        }
        Ok(out)
    }

    fn charges(&mut self) -> Result<Vec<Charge>, ProtocolError> {
        let n = self.list_len(24)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Charge {
                seq: self.u64()?,
                at_secs: self.f64()?,
                amount: self.f64()?,
            });
        }
        Ok(out)
    }

    fn replica_delta(&mut self) -> Result<ReplicaDelta, ProtocolError> {
        let origin = self.u16()?;
        let seq = self.u64()?;
        let ntables = self.list_len(4)?;
        let mut tables = Vec::with_capacity(ntables);
        for _ in 0..ntables {
            let name = self.string()?;
            let accesses = self.counts()?;
            let updates = self.counts()?;
            let rows = self.u64()?;
            let epoch = match self.u8()? {
                0 => None,
                1 => Some(self.f64()?),
                other => return Err(ProtocolError::Malformed(format!("bad epoch flag {other}"))),
            };
            tables.push((
                name,
                TableDelta {
                    accesses,
                    updates,
                    rows,
                    epoch,
                },
            ));
        }
        let gate_origin = self.u16()?;
        let nusers = self.list_len(12)?;
        let mut users = Vec::with_capacity(nusers);
        for _ in 0..nusers {
            let user = self.u64()?;
            users.push((user, self.charges()?));
        }
        let nsubnets = self.list_len(9)?;
        let mut subnets = Vec::with_capacity(nsubnets);
        for _ in 0..nsubnets {
            let base: [u8; 4] = self.take(4)?.try_into().unwrap();
            let prefix = self.u8()?;
            subnets.push(SubnetCharges {
                base,
                prefix,
                log: self.charges()?,
            });
        }
        Ok(ReplicaDelta {
            origin,
            seq,
            tables,
            gate: GateDelta {
                origin: gate_origin,
                users,
                subnets,
            },
        })
    }
}

impl Frame {
    /// Append `opcode | payload` (without the length prefix) onto `out`.
    ///
    /// Appending into a caller-owned buffer is the allocation-free hot
    /// path: a connection reuses one buffer for every frame it writes.
    fn encode_body_into(&self, out: &mut Vec<u8>) {
        match self {
            Frame::Register {
                claimed_ip,
                version,
            } => {
                out.push(opcode::REGISTER);
                out.extend_from_slice(claimed_ip);
                out.push(*version);
            }
            Frame::Query {
                query_id,
                user,
                sql,
            } => {
                out.push(opcode::QUERY);
                put_u32(out, *query_id);
                put_u64(out, *user);
                put_str(out, sql);
            }
            Frame::Insert {
                query_id,
                user,
                sql,
            } => {
                out.push(opcode::INSERT);
                put_u32(out, *query_id);
                put_u64(out, *user);
                put_str(out, sql);
            }
            Frame::Update {
                query_id,
                user,
                sql,
            } => {
                out.push(opcode::UPDATE);
                put_u32(out, *query_id);
                put_u64(out, *user);
                put_str(out, sql);
            }
            Frame::Delete {
                query_id,
                user,
                sql,
            } => {
                out.push(opcode::DELETE);
                put_u32(out, *query_id);
                put_u64(out, *user);
                put_str(out, sql);
            }
            Frame::Stats => out.push(opcode::STATS),
            Frame::Registered { user, fee } => {
                out.push(opcode::REGISTERED);
                put_u64(out, *user);
                put_f64(out, *fee);
            }
            Frame::Refused {
                query_id,
                reason,
                retry_after_secs,
            } => {
                out.push(opcode::REFUSED);
                put_u32(out, *query_id);
                out.push(*reason as u8);
                put_f64(out, *retry_after_secs);
            }
            Frame::RowsBegin {
                query_id,
                columns,
                rows,
            } => put_rows_begin(out, *query_id, columns, *rows),
            Frame::Row { query_id, seq, row } => put_row(out, *query_id, *seq, row),
            Frame::RowsEnd { query_id, rows } => {
                out.push(opcode::ROWS_END);
                put_u32(out, *query_id);
                put_u32(out, *rows);
            }
            Frame::Done {
                query_id,
                delay_secs,
                tuples,
            } => {
                out.push(opcode::DONE);
                put_u32(out, *query_id);
                put_f64(out, *delay_secs);
                put_u32(out, *tuples);
            }
            Frame::Mutated {
                query_id,
                rows,
                data_version,
            } => {
                out.push(opcode::MUTATED);
                put_u32(out, *query_id);
                put_u32(out, *rows);
                put_u64(out, *data_version);
            }
            Frame::StatsReply { rendered } => {
                out.push(opcode::STATS_REPLY);
                put_str(out, rendered);
            }
            Frame::Error { query_id, message } => {
                out.push(opcode::ERROR);
                put_u32(out, *query_id);
                put_str(out, message);
            }
            Frame::Delta { delta } => {
                out.push(opcode::DELTA);
                put_replica_delta(out, delta);
            }
            Frame::DeltaAck { origin, seq } => {
                out.push(opcode::DELTA_ACK);
                out.extend_from_slice(&origin.to_le_bytes());
                put_u64(out, *seq);
            }
            Frame::Encoded { .. } => {
                unreachable!("a run is whole frames, copied by encode_frame_into")
            }
        }
    }

    /// Append the frames `self` stands for onto `out`: the frames a
    /// [`Frame::Encoded`] run holds, decoded in order, or else `self`.
    /// For sinks that inspect what the front door releases (the
    /// simulated link, test recorders): they see one frame per row.
    pub fn expand_into(self, out: &mut Vec<Frame>) {
        let Frame::Encoded { bytes, .. } = self else {
            out.push(self);
            return;
        };
        let mut rest = &bytes[..];
        while let Some((len, tail)) = rest.split_first_chunk::<4>() {
            let (body, next) = tail.split_at(u32::from_le_bytes(*len) as usize);
            out.push(Frame::decode_body(body).expect("a run holds only frames its encoder wrote"));
            rest = next;
        }
    }

    /// Decode from an `opcode | payload` body.
    fn decode_body(body: &[u8]) -> Result<Frame, ProtocolError> {
        let mut c = Cursor::new(body);
        let op = c.u8()?;
        let frame = match op {
            opcode::REGISTER => {
                let claimed_ip: [u8; 4] = c.take(4)?.try_into().unwrap();
                // The original (v1) payload is only the ip; the version
                // byte was appended in v2. It decodes, so it can be refused.
                let version = if c.remaining() > 0 { c.u8()? } else { 1 };
                Frame::Register {
                    claimed_ip,
                    version,
                }
            }
            opcode::QUERY => Frame::Query {
                query_id: c.u32()?,
                user: c.u64()?,
                sql: c.string()?,
            },
            opcode::INSERT => Frame::Insert {
                query_id: c.u32()?,
                user: c.u64()?,
                sql: c.string()?,
            },
            opcode::UPDATE => Frame::Update {
                query_id: c.u32()?,
                user: c.u64()?,
                sql: c.string()?,
            },
            opcode::DELETE => Frame::Delete {
                query_id: c.u32()?,
                user: c.u64()?,
                sql: c.string()?,
            },
            opcode::STATS => Frame::Stats,
            opcode::REGISTERED => Frame::Registered {
                user: c.u64()?,
                fee: c.f64()?,
            },
            opcode::REFUSED => {
                let query_id = c.u32()?;
                let code = c.u8()?;
                let reason = RefuseReason::from_code(code).ok_or_else(|| {
                    ProtocolError::Malformed(format!("unknown refuse reason {code}"))
                })?;
                Frame::Refused {
                    query_id,
                    reason,
                    retry_after_secs: c.f64()?,
                }
            }
            opcode::ROWS_BEGIN => {
                let query_id = c.u32()?;
                let ncols = c.u16()? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(c.string()?);
                }
                Frame::RowsBegin {
                    query_id,
                    columns,
                    rows: c.u32()?,
                }
            }
            opcode::ROW => {
                let query_id = c.u32()?;
                let seq = c.u32()?;
                let row = decode_row(c.rest())
                    .map_err(|e| ProtocolError::Malformed(format!("bad row: {e}")))?;
                Frame::Row { query_id, seq, row }
            }
            opcode::ROWS_END => Frame::RowsEnd {
                query_id: c.u32()?,
                rows: c.u32()?,
            },
            opcode::DONE => Frame::Done {
                query_id: c.u32()?,
                delay_secs: c.f64()?,
                tuples: c.u32()?,
            },
            opcode::MUTATED => Frame::Mutated {
                query_id: c.u32()?,
                rows: c.u32()?,
                data_version: c.u64()?,
            },
            opcode::STATS_REPLY => Frame::StatsReply {
                rendered: c.string()?,
            },
            opcode::ERROR => Frame::Error {
                query_id: c.u32()?,
                message: c.string()?,
            },
            opcode::DELTA => Frame::Delta {
                delta: c.replica_delta()?,
            },
            opcode::DELTA_ACK => Frame::DeltaAck {
                origin: c.u16()?,
                seq: c.u64()?,
            },
            other => {
                return Err(ProtocolError::Malformed(format!(
                    "unknown opcode {other:#x}"
                )))
            }
        };
        c.finish()?;
        Ok(frame)
    }
}

/// Lay one frame down at the end of `out`: a 4-byte length prefix,
/// patched once `body` has appended the opcode and payload, so the frame
/// is written in a single pass with no intermediate body buffer. Returns
/// the body length.
fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; 4]);
    body(out);
    let body_len = out.len() - start - 4;
    out[start..start + 4].copy_from_slice(&(body_len as u32).to_le_bytes());
    body_len
}

/// Append one complete wire frame (`len: u32 LE | opcode | payload`)
/// onto `out`; a [`Frame::Encoded`] run is copied as it stands.
///
/// Appends (rather than clears) so a writer can coalesce a burst of
/// frames into one buffer and one syscall; on an oversized frame `out`
/// is rolled back to its prior length.
pub fn encode_frame_into(frame: &Frame, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
    if let Frame::Encoded { bytes, .. } = frame {
        out.extend_from_slice(bytes);
        return Ok(());
    }
    let start = out.len();
    let body_len = framed(out, |out| frame.encode_body_into(out));
    if body_len > MAX_FRAME {
        out.truncate(start);
        return Err(ProtocolError::Oversized(body_len));
    }
    Ok(())
}

/// Bytes [`encode_row_into`] appends for `row`.
pub fn row_frame_len(row: &Row) -> usize {
    // Length prefix, opcode, query id, seq, then the row codec.
    4 + 1 + 4 + 4 + encoded_row_len(row)
}

/// Append a `ROW` frame for a borrowed row onto `out`: the bytes
/// [`encode_frame_into`] lays down for the same [`Frame::Row`], without
/// building one. A stored row fits a page, far below [`MAX_FRAME`].
pub fn encode_row_into(query_id: u32, seq: u32, row: &Row, out: &mut Vec<u8>) {
    framed(out, |out| put_row(out, query_id, seq, row));
}

/// Exact wire size of a `ROWS_BEGIN` frame for `columns`.
pub(crate) fn rows_begin_frame_len(columns: &[String]) -> usize {
    // Length prefix, opcode, query id, column count, the names, rows.
    let names: usize = columns.iter().map(|c| 4 + c.len()).sum();
    4 + 1 + 4 + 2 + names + 4
}

/// Append a `ROWS_BEGIN` frame for borrowed column names onto `out`
/// (reserving its exact size): the bytes [`encode_frame_into`] lays down
/// for the same [`Frame::RowsBegin`].
pub fn encode_rows_begin_into(query_id: u32, columns: &[String], rows: u32, out: &mut Vec<u8>) {
    out.reserve(rows_begin_frame_len(columns));
    framed(out, |out| put_rows_begin(out, query_id, columns, rows));
}

/// Write one frame to `w` (length prefix + body), without flushing,
/// encoding through the caller's reusable `scratch` buffer. The hot
/// path: steady state performs zero allocations.
pub fn write_frame_buffered(
    w: &mut impl Write,
    frame: &Frame,
    scratch: &mut Vec<u8>,
) -> Result<(), ProtocolError> {
    scratch.clear();
    encode_frame_into(frame, scratch)?;
    w.write_all(scratch)?;
    Ok(())
}

/// Write one frame to `w` (length prefix + body), without flushing.
///
/// Convenience wrapper over [`write_frame_buffered`] with a throwaway
/// buffer; per-connection loops should hold their own scratch instead.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    let mut scratch = Vec::with_capacity(64);
    write_frame_buffered(w, frame, &mut scratch)
}

/// Read one frame from `r`, staging the body in the caller's reusable
/// `scratch` buffer. Returns `Ok(None)` on clean EOF at a frame
/// boundary. Steady state performs no transport-side allocations
/// (decoded frames still own their payload fields).
pub fn read_frame_buffered(
    r: &mut impl Read,
    scratch: &mut Vec<u8>,
) -> Result<Option<Frame>, ProtocolError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 {
        return Err(ProtocolError::Malformed("empty frame".into()));
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized(len));
    }
    scratch.clear();
    scratch.resize(len, 0);
    r.read_exact(scratch)?;
    Frame::decode_body(scratch).map(Some)
}

/// Read one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// Convenience wrapper over [`read_frame_buffered`] with a throwaway
/// buffer; per-connection loops should hold their own scratch instead.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
    let mut scratch = Vec::new();
    read_frame_buffered(r, &mut scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_storage::Value;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        let mut slice = buf.as_slice();
        let back = read_frame(&mut slice).unwrap().unwrap();
        assert_eq!(frame, back);
        assert!(read_frame(&mut slice).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn all_frames_round_trip() {
        round_trip(Frame::Register {
            claimed_ip: [10, 0, 0, 7],
            version: PROTOCOL_VERSION,
        });
        round_trip(Frame::Query {
            query_id: 3,
            user: 42,
            sql: "SELECT * FROM t WHERE id = 1".into(),
        });
        round_trip(Frame::Insert {
            query_id: 4,
            user: 42,
            sql: "INSERT INTO t VALUES (1, 'x')".into(),
        });
        round_trip(Frame::Update {
            query_id: 5,
            user: 42,
            sql: "UPDATE t SET body = 'y' WHERE id = 1".into(),
        });
        round_trip(Frame::Delete {
            query_id: 6,
            user: 42,
            sql: "DELETE FROM t WHERE id = 1".into(),
        });
        round_trip(Frame::Stats);
        round_trip(Frame::Registered { user: 7, fee: 2.5 });
        round_trip(Frame::Refused {
            query_id: 9,
            reason: RefuseReason::SubnetRate,
            retry_after_secs: 1.25,
        });
        round_trip(Frame::RowsBegin {
            query_id: 1,
            columns: vec!["id".into(), "body".into()],
            rows: 100,
        });
        round_trip(Frame::Row {
            query_id: 1,
            seq: 5,
            row: Row::new(vec![Value::Int(9), Value::Text("x".into()), Value::Null]),
        });
        round_trip(Frame::RowsEnd {
            query_id: 1,
            rows: 100,
        });
        round_trip(Frame::Done {
            query_id: 1,
            delay_secs: 10.0,
            tuples: 100,
        });
        round_trip(Frame::Mutated {
            query_id: 6,
            rows: 3,
            data_version: 501,
        });
        round_trip(Frame::Refused {
            query_id: 6,
            reason: RefuseReason::VersionUnsupported,
            retry_after_secs: 0.0,
        });
        round_trip(Frame::StatsReply {
            rendered: "a  1\nb  2\n".into(),
        });
        round_trip(Frame::Error {
            query_id: 2,
            message: "no such table".into(),
        });
        round_trip(Frame::DeltaAck { origin: 3, seq: 17 });
    }

    #[test]
    fn delta_frame_round_trips() {
        let delta = ReplicaDelta {
            origin: 2,
            seq: 9,
            tables: vec![
                (
                    "directory".into(),
                    TableDelta {
                        accesses: vec![(0, 41.5), (1, 0.0), (7, 3.25)],
                        updates: vec![(1, 2.0)],
                        rows: 275,
                        epoch: Some(12.5),
                    },
                ),
                (
                    "empty".into(),
                    TableDelta {
                        rows: 10,
                        ..TableDelta::default()
                    },
                ),
            ],
            gate: GateDelta {
                origin: 2,
                users: vec![
                    (
                        1,
                        vec![
                            Charge {
                                seq: 1,
                                at_secs: 10.0,
                                amount: 1.0,
                            },
                            Charge {
                                seq: 2,
                                at_secs: 10.5,
                                amount: 1.0,
                            },
                        ],
                    ),
                    (4, Vec::new()),
                ],
                subnets: vec![SubnetCharges {
                    base: [10, 0, 1, 0],
                    prefix: 24,
                    log: vec![Charge {
                        seq: 1,
                        at_secs: 10.0,
                        amount: 1.0,
                    }],
                }],
            },
        };
        round_trip(Frame::Delta { delta });
    }

    #[test]
    fn delta_rejects_hostile_list_lengths() {
        // origin + seq, then a table count claiming 2^31 entries with an
        // empty remainder: must fail on the bound check, not allocate.
        let mut body = vec![opcode::DELTA, 2, 0];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0x8000_0000u32.to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Malformed(_))
        ));
    }

    #[test]
    fn stream_of_frames_parses_in_order() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Stats).unwrap();
        write_frame(&mut buf, &Frame::Registered { user: 1, fee: 0.0 }).unwrap();
        let mut slice = buf.as_slice();
        assert_eq!(read_frame(&mut slice).unwrap(), Some(Frame::Stats));
        assert!(matches!(
            read_frame(&mut slice).unwrap(),
            Some(Frame::Registered { user: 1, .. })
        ));
        assert_eq!(read_frame(&mut slice).unwrap(), None);
    }

    #[test]
    fn legacy_register_decodes_as_version_one() {
        // The v1 payload is exactly 4 ip bytes — no version byte.
        let body = vec![opcode::REGISTER, 10, 0, 0, 7];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.extend_from_slice(&body);
        assert_eq!(
            read_frame(&mut buf.as_slice()).unwrap(),
            Some(Frame::Register {
                claimed_ip: [10, 0, 0, 7],
                version: 1,
            })
        );
    }

    #[test]
    fn encode_frame_into_matches_write_frame_bytes() {
        let frames = vec![
            Frame::Stats,
            Frame::Registered { user: 7, fee: 2.5 },
            Frame::Row {
                query_id: 1,
                seq: 5,
                row: Row::new(vec![Value::Int(9), Value::Text("x".into()), Value::Null]),
            },
            Frame::Error {
                query_id: 2,
                message: "no such table".into(),
            },
        ];
        for frame in &frames {
            let mut via_writer = Vec::new();
            write_frame(&mut via_writer, frame).unwrap();
            let mut via_encode = Vec::new();
            encode_frame_into(frame, &mut via_encode).unwrap();
            assert_eq!(via_writer, via_encode, "wire bytes must be identical");
        }
    }

    #[test]
    fn encode_frame_into_appends_and_coalesces() {
        // A burst of frames encoded into one buffer parses back in order
        // — the writer-side coalescing contract.
        let mut buf = Vec::new();
        encode_frame_into(&Frame::Stats, &mut buf).unwrap();
        let after_first = buf.len();
        encode_frame_into(&Frame::Registered { user: 1, fee: 0.5 }, &mut buf).unwrap();
        assert!(
            buf.len() > after_first,
            "second frame appended, not overwritten"
        );
        let mut slice = buf.as_slice();
        assert_eq!(read_frame(&mut slice).unwrap(), Some(Frame::Stats));
        assert!(matches!(
            read_frame(&mut slice).unwrap(),
            Some(Frame::Registered { user: 1, .. })
        ));
        assert_eq!(read_frame(&mut slice).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rolls_back_the_buffer() {
        let mut buf = Vec::new();
        encode_frame_into(&Frame::Stats, &mut buf).unwrap();
        let len_before = buf.len();
        let huge = Frame::StatsReply {
            rendered: "x".repeat(MAX_FRAME),
        };
        assert!(matches!(
            encode_frame_into(&huge, &mut buf),
            Err(ProtocolError::Oversized(_))
        ));
        assert_eq!(
            buf.len(),
            len_before,
            "failed encode must not leave partial bytes"
        );
        // The buffer is still a valid stream.
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), Some(Frame::Stats));
    }

    #[test]
    fn buffered_read_reuses_scratch_across_frames() {
        let mut buf = Vec::new();
        let big = Frame::StatsReply {
            rendered: "y".repeat(4096),
        };
        write_frame(&mut buf, &big).unwrap();
        write_frame(&mut buf, &Frame::Stats).unwrap();
        write_frame(&mut buf, &big).unwrap();
        let mut slice = buf.as_slice();
        let mut scratch = Vec::new();
        assert_eq!(
            read_frame_buffered(&mut slice, &mut scratch).unwrap(),
            Some(big.clone())
        );
        let cap = scratch.capacity();
        assert_eq!(
            read_frame_buffered(&mut slice, &mut scratch).unwrap(),
            Some(Frame::Stats)
        );
        assert_eq!(
            read_frame_buffered(&mut slice, &mut scratch).unwrap(),
            Some(big)
        );
        assert_eq!(
            scratch.capacity(),
            cap,
            "scratch allocation is reused, not reallocated per frame"
        );
        assert_eq!(read_frame_buffered(&mut slice, &mut scratch).unwrap(), None);
    }

    #[test]
    fn rejects_garbage() {
        // Unknown opcode.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0x7f);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Malformed(_))
        ));
        // Oversized length.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Oversized(_))
        ));
        // Trailing bytes after a valid payload.
        let mut body = vec![opcode::STATS, 0xff];
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
        buf.append(&mut body);
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(ProtocolError::Malformed(_))
        ));
        // Truncated body mid-frame is an error, not clean EOF.
        let mut buf = Vec::new();
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.push(opcode::STATS);
        assert!(read_frame(&mut buf.as_slice()).is_err());
    }
}
