//! The load generator: closed-loop windows and the open-loop schedule,
//! with the reply oracle that checks every frame that comes back.
//!
//! Every thread here is a client thread: a closed-loop connection is
//! driven by one thread that both sends and receives; the open-loop
//! connection by a sender and a receiver. No workload uses more than
//! two, the machine's core count.

use crate::harness::{now_ns, Conn, ConnRx, ConnTx};
use crate::workloads::{parse_body, Gen, ReadGen, ReadOp, Verb};
use delayguard_server::protocol::Frame;
use delayguard_storage::Value;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Read,
    Write(Verb),
}

/// One operation, stamped at the client boundary. Times are
/// [`now_ns`] values; 0 means "did not happen".
#[derive(Debug, Clone, Copy)]
pub struct OpRec {
    pub kind: Kind,
    /// When the op was due (open loop) or sent (closed loop): the start
    /// of the wait the user sees.
    pub start_ns: u64,
    pub sent_ns: u64,
    /// `ROWS_BEGIN` arrival; stamped in traced trials only.
    pub rows_begin_ns: u64,
    /// First `ROW` arrival; stamped in traced trials only.
    pub first_row_ns: u64,
    /// `DONE` / `MUTATED` arrival.
    pub done_ns: u64,
    /// The delay the server says it charged.
    pub delay_secs: f64,
    /// First id read, or the id written.
    pub id: u64,
    pub want_rows: u32,
    pub got_rows: u32,
    /// Reads beside a writer: the oldest write version the reply may
    /// show. Writes: this write's version.
    pub version: u32,
}

impl OpRec {
    pub fn lateness_ns(&self) -> i64 {
        crate::stats::lateness_nanos(self.start_ns, self.done_ns, self.delay_secs)
    }
}

/// Why operations failed. Every one counts into `failed`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    pub refused: u64,
    pub errors: u64,
    /// A reply that contradicts the request or the model of the table.
    pub wrong: u64,
    /// `DONE` before `sent + charged delay`.
    pub early: u64,
    /// No final reply before the trial gave up waiting.
    pub unfinished: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.refused + self.errors + self.wrong + self.early + self.unfinished
    }

    pub fn add(&mut self, other: &Failures) {
        self.refused += other.refused;
        self.errors += other.errors;
        self.wrong += other.wrong;
        self.early += other.early;
        self.unfinished += other.unfinished;
    }
}

/// What the reader and the writer of a mixed workload tell each other,
/// so a read can be checked against writes racing with it.
pub struct MixedShared {
    /// Per base row: the newest UPDATE version acknowledged (`MUTATED`
    /// received). A read sent after that must not show an older body.
    acked: Vec<AtomicU32>,
    /// The newest write version handed to the socket. A read cannot
    /// show a newer one.
    sent: AtomicU32,
}

impl MixedShared {
    pub fn new(rows: u64) -> MixedShared {
        MixedShared {
            acked: (0..rows).map(|_| AtomicU32::new(0)).collect(),
            sent: AtomicU32::new(0),
        }
    }
}

/// What one connection saw in one trial.
pub struct ConnTrial {
    pub recs: Vec<OpRec>,
    pub fail: Failures,
    /// The window in which completions count towards throughput: the
    /// trial's span, less an open loop's ramp (until the first replies
    /// charged the full cap can have come back, fewer complete per
    /// second than are sent).
    pub start_ns: u64,
    pub end_ns: u64,
    /// Open loop only: how long after its due time each op was sent.
    pub lag_ns: Vec<u64>,
    /// Bytes received over the whole trial, and how long that was.
    pub bytes_in: u64,
    pub span_ns: u64,
}

/// The reply oracle: records stamps and checks each frame against the
/// op it answers. `query_id` is the op's index plus one (0 is the
/// server's id for connection-level errors).
struct Tally<'a> {
    recs: Vec<OpRec>,
    fail: Failures,
    traced: bool,
    mixed: Option<&'a MixedShared>,
    /// Open loop: when the sender thread handed each op to the socket.
    /// A closed loop stamps `sent_ns` itself as it sends.
    sent: Option<&'a [AtomicU64]>,
}

impl Tally<'_> {
    fn rec(&mut self, query_id: u32) -> Option<&mut OpRec> {
        let idx = (query_id as usize).checked_sub(1)?;
        self.recs.get_mut(idx).filter(|r| r.done_ns == 0)
    }

    /// Check one `ROW` of a read: dense `seq`, the id asked for, and a
    /// body the table could have held while the read was in flight.
    fn row_ok(rec: &OpRec, seq: u32, values: &[Value], mixed: Option<&MixedShared>) -> bool {
        let [Value::Int(id), Value::Text(body)] = values else {
            return false;
        };
        let want_id = rec.id + u64::from(seq);
        if seq != rec.got_rows || *id != want_id as i64 {
            return false;
        }
        match (parse_body(body), mixed) {
            (Some((0, body_id)), None) => body_id == want_id,
            (Some((version, body_id)), Some(m)) => {
                body_id == want_id
                    && version >= rec.version
                    && version <= m.sent.load(Ordering::Acquire)
            }
            _ => false,
        }
    }

    /// Take one frame; returns whether it completed an op.
    fn on_frame(&mut self, frame: Frame, now: u64) -> bool {
        let (traced, mixed, sent) = (self.traced, self.mixed, self.sent);
        let stamp_sent = |rec: &mut OpRec, query_id: u32| {
            if let Some(sent) = sent {
                rec.sent_ns = sent[query_id as usize - 1].load(Ordering::Acquire);
            }
        };
        match frame {
            Frame::RowsBegin { query_id, .. } => {
                match self.rec(query_id) {
                    Some(rec) if traced => rec.rows_begin_ns = now,
                    Some(_) => {}
                    None => self.fail.wrong += 1,
                }
                false
            }
            Frame::Row { query_id, seq, row } => {
                match self.rec(query_id) {
                    Some(rec) if Self::row_ok(rec, seq, row.values(), mixed) => {
                        rec.got_rows += 1;
                        if traced && seq == 0 {
                            rec.first_row_ns = now;
                        }
                    }
                    _ => self.fail.wrong += 1,
                }
                false
            }
            Frame::RowsEnd { query_id, rows } => {
                if self.rec(query_id).is_none_or(|r| rows != r.want_rows) {
                    self.fail.wrong += 1;
                }
                false
            }
            Frame::Done {
                query_id,
                delay_secs,
                tuples,
            } => {
                let Some(rec) = self.rec(query_id) else {
                    self.fail.wrong += 1;
                    return false;
                };
                rec.done_ns = now;
                rec.delay_secs = delay_secs;
                stamp_sent(rec, query_id);
                let complete = rec.kind == Kind::Read
                    && tuples == rec.want_rows
                    && rec.got_rows == rec.want_rows;
                // `sent_ns` was stamped before the bytes left, so the
                // server cannot have started the charged wait earlier.
                let early = now < rec.sent_ns + (delay_secs * 1e9) as u64;
                self.fail.wrong += u64::from(!complete);
                self.fail.early += u64::from(early);
                true
            }
            Frame::Mutated { query_id, rows, .. } => {
                let Some(rec) = self.rec(query_id) else {
                    self.fail.wrong += 1;
                    return false;
                };
                rec.done_ns = now;
                stamp_sent(rec, query_id);
                rec.got_rows = rows;
                let (kind, id, version) = (rec.kind, rec.id, rec.version);
                // Every generated write touches exactly one row.
                self.fail.wrong += u64::from(rows != 1 || kind == Kind::Read);
                if let (Kind::Write(Verb::Update), Some(m)) = (kind, mixed) {
                    m.acked[id as usize].fetch_max(version, Ordering::AcqRel);
                }
                true
            }
            Frame::Refused { query_id, .. } | Frame::Error { query_id, .. } => {
                let refused = matches!(frame, Frame::Refused { .. });
                if refused {
                    self.fail.refused += 1;
                } else {
                    self.fail.errors += 1;
                }
                eprintln!("wirebench: server answered {frame:?}");
                match self.rec(query_id) {
                    Some(rec) => {
                        rec.done_ns = now;
                        true
                    }
                    None => false,
                }
            }
            other => {
                eprintln!("wirebench: unexpected frame {other:?}");
                self.fail.wrong += 1;
                false
            }
        }
    }

    /// Close the books: ops with no final reply are failures.
    fn finish(
        mut self,
        began_ns: u64,
        (start_ns, end_ns): (u64, u64),
        lag_ns: Vec<u64>,
        bytes_in: u64,
    ) -> ConnTrial {
        self.fail.unfinished += self.recs.iter().filter(|r| r.done_ns == 0).count() as u64;
        ConnTrial {
            recs: self.recs,
            fail: self.fail,
            start_ns,
            end_ns,
            lag_ns,
            bytes_in,
            span_ns: now_ns() - began_ns,
        }
    }
}

/// When a connection stops sending: after a time (the trials) or after
/// a count of ops (the warm-up, which must be the same work every run).
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Time(Duration),
    Ops(u64),
}

fn new_rec(kind: Kind, id: u64, want_rows: u32, version: u32) -> OpRec {
    OpRec {
        kind,
        start_ns: 0,
        sent_ns: 0,
        rows_begin_ns: 0,
        first_row_ns: 0,
        done_ns: 0,
        delay_secs: 0.0,
        id,
        want_rows,
        got_rows: 0,
        version,
    }
}

/// Generate, stamp and buffer the connection's next op.
fn send_next(tx: &mut ConnTx, gen: &mut Gen, tally: &mut Tally<'_>) -> std::io::Result<()> {
    let query_id = tally.recs.len() as u32 + 1;
    let user = tx.user;
    let (mut rec, frame) = match gen {
        Gen::Read(g) => {
            let op = g.next_op();
            // Only point reads race with the writer; a scan's rows carry
            // the bodies the table was built with.
            let floor = tally
                .mixed
                .map_or(0, |m| m.acked[op.lo as usize].load(Ordering::Acquire));
            let frame = Frame::Query {
                query_id,
                user,
                sql: op.sql,
            };
            (new_rec(Kind::Read, op.lo, op.rows as u32, floor), frame)
        }
        Gen::Write(g) => {
            let op = g.next_op();
            if let Some(m) = tally.mixed {
                m.sent.store(op.version, Ordering::Release);
            }
            let sql = op.sql;
            let frame = match op.verb {
                Verb::Insert => Frame::Insert {
                    query_id,
                    user,
                    sql,
                },
                Verb::Update => Frame::Update {
                    query_id,
                    user,
                    sql,
                },
                Verb::Delete => Frame::Delete {
                    query_id,
                    user,
                    sql,
                },
            };
            (new_rec(Kind::Write(op.verb), op.id, 1, op.version), frame)
        }
    };
    rec.start_ns = now_ns();
    rec.sent_ns = rec.start_ns;
    tally.recs.push(rec);
    tx.send(&frame)
}

/// One closed-loop trial on one connection: keep `window` ops in flight
/// up to `limit`, then wait out the ones still in flight.
pub fn closed_trial(
    conn: &mut Conn,
    gen: &mut Gen,
    window: usize,
    limit: Limit,
    traced: bool,
    mixed: Option<&MixedShared>,
    start: &Barrier,
) -> ConnTrial {
    let mut tally = Tally {
        recs: Vec::new(),
        fail: Failures::default(),
        traced,
        mixed,
        sent: None,
    };
    let bytes_before = conn.rx.bytes();
    start.wait();
    let start_ns = now_ns();
    let (end_ns, max_ops) = match limit {
        Limit::Time(d) => (start_ns + d.as_nanos() as u64, usize::MAX),
        Limit::Ops(n) => (u64::MAX, n as usize),
    };
    let mut in_flight = 0usize;
    let io = (|| -> std::io::Result<()> {
        for _ in 0..window {
            send_next(&mut conn.tx, gen, &mut tally)?;
            in_flight += 1;
        }
        conn.tx.flush()?;
        while in_flight > 0 {
            let frame = conn.rx.recv()?;
            let now = now_ns();
            if tally.on_frame(frame, now) {
                in_flight -= 1;
                if now < end_ns && tally.recs.len() < max_ops {
                    send_next(&mut conn.tx, gen, &mut tally)?;
                    in_flight += 1;
                }
            }
            // Flush once the replies already here are handled, so a
            // burst of completions leaves as one write.
            if conn.rx.drained() {
                conn.tx.flush()?;
            }
        }
        Ok(())
    })();
    if let Err(e) = io {
        eprintln!("wirebench: closed-loop connection gave up: {e}");
    }
    let bytes_in = conn.rx.bytes() - bytes_before;
    tally.finish(
        start_ns,
        (start_ns, end_ns.min(now_ns())),
        Vec::new(),
        bytes_in,
    )
}

/// The due time of op `i` on a fixed schedule of `per_sec` ops a second
/// starting at `start_ns`. Lateness is measured from here, not from the
/// moment the sender got round to the op.
pub fn due_ns(start_ns: u64, i: u64, per_sec: u64) -> u64 {
    start_ns + (i as u128 * 1_000_000_000 / per_sec as u128) as u64
}

/// One open-loop trial: `per_sec` point reads a second up to `limit`,
/// sent on schedule by one thread while another receives. `ramp` is the
/// longest delay the policy charges.
pub fn open_trial(
    conn: &mut Conn,
    gen: &mut ReadGen,
    per_sec: u64,
    limit: Limit,
    ramp: Duration,
    traced: bool,
) -> ConnTrial {
    let n = match limit {
        Limit::Time(d) => (per_sec as u128 * d.as_nanos() / 1_000_000_000) as u64,
        Limit::Ops(n) => n,
    };
    let ops: Vec<_> = (0..n).map(|_| gen.next_op()).collect();
    let sent: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    // Leave both threads time to start before the first op is due.
    let start_ns = now_ns() + 2_000_000;
    let mut tally = Tally {
        recs: ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let mut rec = new_rec(Kind::Read, op.lo, op.rows as u32, 0);
                rec.start_ns = due_ns(start_ns, i as u64, per_sec);
                rec
            })
            .collect(),
        fail: Failures::default(),
        traced,
        mixed: None,
        sent: Some(&sent),
    };
    let Conn { tx, rx } = conn;
    let bytes_before = rx.bytes();
    let lag_ns = std::thread::scope(|scope| {
        let sender = scope.spawn(|| open_sender(tx, ops, &sent, start_ns, per_sec));
        open_receiver(rx, &mut tally);
        sender.join().expect("open-loop sender panicked")
    });
    let bytes_in = rx.bytes() - bytes_before;
    let end_ns = due_ns(start_ns, n, per_sec);
    let counted_from = start_ns + (ramp.as_nanos() as u64).min((end_ns - start_ns) / 2);
    let window = (counted_from, end_ns);
    tally.finish(start_ns, window, lag_ns, bytes_in)
}

fn open_sender(
    tx: &mut ConnTx,
    ops: Vec<ReadOp>,
    sent: &[AtomicU64],
    start_ns: u64,
    per_sec: u64,
) -> Vec<u64> {
    let user = tx.user;
    let mut lag_ns = Vec::with_capacity(ops.len());
    for (i, op) in ops.into_iter().enumerate() {
        let due = due_ns(start_ns, i as u64, per_sec);
        let now = now_ns();
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let frame = Frame::Query {
            query_id: i as u32 + 1,
            user,
            sql: op.sql,
        };
        let at = now_ns();
        sent[i].store(at, Ordering::Release);
        lag_ns.push(at - due);
        if let Err(e) = tx.send(&frame).and_then(|()| tx.flush()) {
            eprintln!("wirebench: open-loop sender gave up: {e}");
            break;
        }
    }
    lag_ns
}

fn open_receiver(rx: &mut ConnRx, tally: &mut Tally<'_>) {
    let mut done = 0;
    while done < tally.recs.len() {
        match rx.recv() {
            Ok(frame) => {
                let now = now_ns();
                if tally.on_frame(frame, now) {
                    done += 1;
                }
            }
            Err(e) => {
                eprintln!("wirebench: open-loop receiver gave up: {e}");
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_by_start_and_rate_alone() {
        let start = 5_000_000;
        assert_eq!(due_ns(start, 0, 4_000), start);
        assert_eq!(due_ns(start, 1, 4_000), start + 250_000);
        assert_eq!(due_ns(start, 4_000, 4_000), start + 1_000_000_000);
        // No drift over a long schedule.
        assert_eq!(due_ns(0, 3 * 7_000, 7_000), 3_000_000_000);
    }

    fn read_tally(start_ns: u64, sent_ns: u64) -> Tally<'static> {
        let mut rec = new_rec(Kind::Read, 40, 1, 0);
        rec.start_ns = start_ns;
        rec.sent_ns = sent_ns;
        Tally {
            recs: vec![rec],
            fail: Failures::default(),
            traced: true,
            mixed: None,
            sent: None,
        }
    }

    fn row(id: i64, body: &str) -> delayguard_storage::Row {
        delayguard_storage::Row::new(vec![Value::Int(id), Value::Text(body.into())])
    }

    #[test]
    fn open_loop_lateness_counts_from_due_time_not_send_time() {
        // Due at 1 ms, sent 3 ms late, charged 2 ms, done at 7 ms.
        let sent = [AtomicU64::new(4_000_000)];
        let mut t = read_tally(1_000_000, 0);
        t.sent = Some(&sent);
        let first = Frame::Row {
            query_id: 1,
            seq: 0,
            row: row(40, "row-40"),
        };
        t.on_frame(first, 6_900_000);
        let done = Frame::Done {
            query_id: 1,
            delay_secs: 0.002,
            tuples: 1,
        };
        assert!(t.on_frame(done, 7_000_000));
        assert_eq!(t.fail, Failures::default());
        // 7 − 1 − 2 = 4 ms: the generator's stall is the user's wait.
        assert_eq!(t.recs[0].lateness_ns(), 4_000_000);
        assert_eq!(t.recs[0].sent_ns, 4_000_000);
    }

    #[test]
    fn a_reply_before_its_charged_delay_is_an_early_release() {
        let mut t = read_tally(1_000_000, 1_000_000);
        t.recs[0].got_rows = 1;
        let done = Frame::Done {
            query_id: 1,
            delay_secs: 0.010,
            tuples: 1,
        };
        assert!(t.on_frame(done, 5_000_000));
        assert_eq!(t.fail.early, 1);
    }

    #[test]
    fn oracle_rejects_wrong_rows_and_counts() {
        for (seq, id, body) in [(0, 41, "row-41"), (0, 40, "row-41"), (1, 40, "row-40")] {
            let mut t = read_tally(0, 0);
            let frame = Frame::Row {
                query_id: 1,
                seq,
                row: row(id, body),
            };
            t.on_frame(frame, 1);
            assert_eq!(t.fail.wrong, 1, "{seq} {id} {body}");
        }
        // DONE with a row missing.
        let mut t = read_tally(0, 0);
        let done = Frame::Done {
            query_id: 1,
            delay_secs: 0.0,
            tuples: 1,
        };
        t.on_frame(done, 1);
        assert_eq!(t.fail.wrong, 1);
        // A reply to an op that does not exist.
        let mut t = read_tally(0, 0);
        t.on_frame(
            Frame::RowsEnd {
                query_id: 9,
                rows: 1,
            },
            1,
        );
        assert_eq!(t.fail.wrong, 1);
    }

    #[test]
    fn reads_beside_a_writer_accept_only_plausible_versions() {
        let shared = MixedShared::new(64);
        shared.sent.store(9, Ordering::Release);
        let mut rec = new_rec(Kind::Read, 40, 1, 5);
        rec.sent_ns = 1;
        for (body, ok) in [
            ("w5-40", true),
            ("w9-40", true),
            ("w4-40", false),
            ("w10-40", false),
            ("row-40", false),
        ] {
            assert_eq!(
                Tally::row_ok(&rec, 0, row(40, body).values(), Some(&shared)),
                ok,
                "{body}"
            );
        }
        rec.version = 0;
        assert!(Tally::row_ok(
            &rec,
            0,
            row(40, "row-40").values(),
            Some(&shared)
        ));
    }

    #[test]
    fn unfinished_ops_are_failures() {
        let t = read_tally(0, 0).finish(0, (0, 1), Vec::new(), 0);
        assert_eq!(t.fail.unfinished, 1);
    }
}
