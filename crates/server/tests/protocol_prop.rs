//! Property tests for the zero-copy frame codec: random frames of every
//! type must round-trip exactly, the coalesced append-into-one-buffer
//! encode must be byte-identical to the old one-write-per-frame path,
//! legacy (v1) REGISTER framing must keep decoding, the MAX_FRAME
//! boundary must be exact on both the encode and decode side, a run
//! of reply frames encoded from borrowed rows must be byte-identical to
//! encoding the same frames one at a time, and hostile bytes must panic
//! neither the decoder nor the front door they decode into.
//!
//! Deterministic harness (no external property-testing crate in this
//! offline build): a splitmix64 generator drives 128 cases per property
//! from fixed seeds, so failures reproduce exactly.

use delayguard_core::clock::{Clock, ManualClock};
use delayguard_core::gatekeeper::{Charge, GateDelta, RegistrationPolicy, SubnetCharges};
use delayguard_core::replica::{ReplicaDelta, TableDelta};
use delayguard_core::{GatekeeperConfig, GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::{
    encode_frame_into, encode_row_into, encode_rows_begin_into, read_frame, read_frame_buffered,
    row_frame_len, write_frame, write_frame_buffered, Frame, ProtocolError, RefuseReason,
    MAX_FRAME, PROTOCOL_VERSION, ROWS_UNKNOWN,
};
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use delayguard_storage::{Row, Value};
use std::sync::Arc;
use std::time::Duration;

const CASES: u64 = 128;

/// splitmix64: tiny, full-period, good enough to drive test shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        // Finite, varied magnitudes; equality must survive the codec.
        (self.next() as i64 as f64) / ((1 + self.below(1_000_000)) as f64)
    }
}

fn cases(seed: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ case);
        body(&mut rng);
    }
}

fn arb_string(rng: &mut Rng, max_len: u64) -> String {
    let len = rng.below(max_len);
    (0..len)
        .map(|_| match rng.below(8) {
            // Mostly ASCII, some multi-byte to exercise UTF-8 validation.
            0 => 'é',
            1 => '→',
            2 => '本',
            _ => (b'a' + (rng.below(26) as u8)) as char,
        })
        .collect()
}

fn arb_value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 0),
        2 => Value::Int(rng.next() as i64),
        3 => Value::Float(rng.f64()),
        4 => Value::Text(arb_string(rng, 24)),
        _ => Value::Bytes((0..rng.below(24)).map(|_| rng.next() as u8).collect()),
    }
}

fn arb_row(rng: &mut Rng) -> Row {
    Row::new((0..rng.below(6)).map(|_| arb_value(rng)).collect())
}

fn arb_charges(rng: &mut Rng) -> Vec<Charge> {
    (0..rng.below(4))
        .map(|i| Charge {
            seq: i + 1,
            at_secs: rng.f64().abs(),
            amount: 1.0,
        })
        .collect()
}

fn arb_counts(rng: &mut Rng) -> Vec<(u64, f64)> {
    let mut keys: Vec<u64> = (0..rng.below(6)).map(|_| rng.below(10_000)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter().map(|k| (k, rng.f64().abs())).collect()
}

fn arb_delta(rng: &mut Rng) -> ReplicaDelta {
    let origin = rng.below(8) as u16;
    ReplicaDelta {
        origin,
        seq: rng.below(1 << 40),
        tables: (0..rng.below(3))
            .map(|i| {
                (
                    format!("t{i}"),
                    TableDelta {
                        accesses: arb_counts(rng),
                        updates: arb_counts(rng),
                        rows: rng.below(1 << 20),
                        epoch: if rng.below(2) == 0 {
                            Some(rng.f64().abs())
                        } else {
                            None
                        },
                    },
                )
            })
            .collect(),
        gate: GateDelta {
            origin,
            users: (0..rng.below(3))
                .map(|i| (1000 + i, arb_charges(rng)))
                .collect(),
            subnets: (0..rng.below(3))
                .map(|_| SubnetCharges {
                    base: [10, rng.below(256) as u8, rng.below(256) as u8, 0],
                    prefix: 24,
                    log: arb_charges(rng),
                })
                .collect(),
        },
    }
}

/// One random frame, uniformly over every variant the wire carries.
fn arb_frame(rng: &mut Rng) -> Frame {
    match rng.below(17) {
        0 => Frame::Register {
            claimed_ip: [
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
                rng.below(256) as u8,
            ],
            version: if rng.below(2) == 0 {
                1
            } else {
                PROTOCOL_VERSION
            },
        },
        1 => Frame::Query {
            query_id: rng.next() as u32,
            user: rng.next(),
            sql: arb_string(rng, 64),
        },
        2 => Frame::Stats,
        3 => Frame::Registered {
            user: rng.next(),
            fee: rng.f64(),
        },
        4 => Frame::Refused {
            query_id: rng.next() as u32,
            reason: [
                RefuseReason::Unregistered,
                RefuseReason::UserRate,
                RefuseReason::SubnetRate,
                RefuseReason::RegistrationTooSoon,
                RefuseReason::Overloaded,
                RefuseReason::ShuttingDown,
                RefuseReason::VersionUnsupported,
            ][rng.below(7) as usize],
            retry_after_secs: rng.f64().abs(),
        },
        5 => Frame::RowsBegin {
            query_id: rng.next() as u32,
            columns: (0..rng.below(5)).map(|_| arb_string(rng, 12)).collect(),
            rows: rng.next() as u32,
        },
        6 => Frame::Row {
            query_id: rng.next() as u32,
            seq: rng.next() as u32,
            row: arb_row(rng),
        },
        7 => Frame::RowsEnd {
            query_id: rng.next() as u32,
            rows: rng.next() as u32,
        },
        8 => Frame::Done {
            query_id: rng.next() as u32,
            delay_secs: rng.f64().abs(),
            tuples: rng.next() as u32,
        },
        9 => Frame::StatsReply {
            rendered: arb_string(rng, 200),
        },
        10 => Frame::Error {
            query_id: rng.next() as u32,
            message: arb_string(rng, 80),
        },
        11 => Frame::Delta {
            delta: arb_delta(rng),
        },
        12 => Frame::Insert {
            query_id: rng.next() as u32,
            user: rng.next(),
            sql: arb_string(rng, 64),
        },
        13 => Frame::Update {
            query_id: rng.next() as u32,
            user: rng.next(),
            sql: arb_string(rng, 64),
        },
        14 => Frame::Delete {
            query_id: rng.next() as u32,
            user: rng.next(),
            sql: arb_string(rng, 64),
        },
        15 => Frame::Mutated {
            query_id: rng.next() as u32,
            rows: rng.next() as u32,
            data_version: rng.below(1 << 40),
        },
        _ => Frame::DeltaAck {
            origin: rng.below(8) as u16,
            seq: rng.below(1 << 40),
        },
    }
}

#[test]
fn random_frames_round_trip_through_every_encode_path() {
    cases(0xC0DEC, |rng| {
        let frames: Vec<Frame> = (0..1 + rng.below(8)).map(|_| arb_frame(rng)).collect();

        // Old path: one throwaway buffer and one write per frame.
        let mut one_by_one = Vec::new();
        for f in &frames {
            write_frame(&mut one_by_one, f).unwrap();
        }

        // Zero-copy path: every frame appended into one coalesced buffer
        // (what the batched writer hands to a single syscall) …
        let mut coalesced = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut coalesced).unwrap();
        }
        assert_eq!(
            coalesced, one_by_one,
            "coalesced encode must be byte-identical to per-frame writes"
        );

        // … and the buffered writer with one reused scratch buffer.
        let mut buffered = Vec::new();
        let mut scratch = Vec::new();
        for f in &frames {
            write_frame_buffered(&mut buffered, f, &mut scratch).unwrap();
        }
        assert_eq!(buffered, one_by_one);

        // Decode side: the reused-scratch reader must hand back exactly
        // the frames that went in, then a clean EOF.
        let mut slice = coalesced.as_slice();
        let mut read_scratch = Vec::new();
        for f in &frames {
            let back = read_frame_buffered(&mut slice, &mut read_scratch)
                .unwrap()
                .expect("frame present");
            assert_eq!(&back, f);
        }
        assert!(read_frame_buffered(&mut slice, &mut read_scratch)
            .unwrap()
            .is_none());
    });
}

/// A result value: NULL, Int, Float or Text, the text empty, short or
/// several KB long.
fn arb_result_value(rng: &mut Rng) -> Value {
    match rng.below(4) {
        0 => Value::Null,
        1 => Value::Int(rng.next() as i64),
        2 => Value::Float(rng.f64()),
        _ => Value::Text(match rng.below(4) {
            0 => String::new(),
            1 => arb_string(rng, 6000),
            _ => arb_string(rng, 24),
        }),
    }
}

/// What the front door releases, encoded as runs from borrowed rows and
/// column names, must be the bytes of the frames the run stands for,
/// encoded one at a time; the run must expand back to exactly those
/// frames, and encoding the run copies its bytes.
#[test]
fn runs_encode_like_their_frames() {
    cases(0x5EED, |rng| {
        let query_id = rng.next() as u32;
        let columns: Vec<String> = (0..rng.below(5)).map(|_| arb_string(rng, 12)).collect();
        let announced = if rng.below(2) == 0 {
            ROWS_UNKNOWN
        } else {
            rng.next() as u32
        };
        let mut run = Vec::new();
        encode_rows_begin_into(query_id, &columns, announced, &mut run);
        let mut frames = vec![Frame::RowsBegin {
            query_id,
            columns,
            rows: announced,
        }];
        let rows = rng.below(40) as u32;
        for seq in 0..rows {
            let row = Row::new((0..rng.below(6)).map(|_| arb_result_value(rng)).collect());
            let before = run.len();
            encode_row_into(query_id, seq, &row, &mut run);
            assert_eq!(run.len() - before, row_frame_len(&row));
            frames.push(Frame::Row { query_id, seq, row });
        }
        for closing in [
            Frame::RowsEnd { query_id, rows },
            Frame::Done {
                query_id,
                delay_secs: rng.f64(),
                tuples: rows,
            },
            Frame::Mutated {
                query_id,
                rows,
                data_version: rng.next(),
            },
        ] {
            encode_frame_into(&closing, &mut run).unwrap();
            frames.push(closing);
        }

        let mut one_at_a_time = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut one_at_a_time).unwrap();
        }
        assert_eq!(run, one_at_a_time, "a run is its frames, back to back");

        let run = Frame::Encoded {
            rows: rows as usize + 1,
            bytes: run,
        };
        let mut copied = vec![0xAB];
        encode_frame_into(&run, &mut copied).unwrap();
        assert_eq!(copied[1..], one_at_a_time[..], "encoding a run copies it");
        let mut expanded = Vec::new();
        run.expand_into(&mut expanded);
        assert_eq!(expanded, frames);
    });
}

#[test]
fn legacy_v1_register_framing_still_decodes() {
    cases(0x0F1, |rng| {
        let ip = [
            rng.below(256) as u8,
            rng.below(256) as u8,
            rng.below(256) as u8,
            rng.below(256) as u8,
        ];
        // A v1 client's REGISTER: length prefix, opcode, 4 ip bytes — no
        // version byte at all.
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&5u32.to_le_bytes());
        legacy.push(0x01);
        legacy.extend_from_slice(&ip);
        let decoded = read_frame(&mut legacy.as_slice()).unwrap().unwrap();
        assert_eq!(
            decoded,
            Frame::Register {
                claimed_ip: ip,
                version: 1
            }
        );
        // The modern encoder writes an explicit version byte; a v1 value
        // must survive its own round trip too (the two forms are
        // distinct on the wire but decode to the same frame).
        let mut modern = Vec::new();
        write_frame(
            &mut modern,
            &Frame::Register {
                claimed_ip: ip,
                version: 1,
            },
        )
        .unwrap();
        assert_ne!(modern, legacy, "v2 framing carries the version byte");
        assert_eq!(
            read_frame(&mut modern.as_slice()).unwrap().unwrap(),
            decoded
        );
    });
}

#[test]
fn max_frame_boundary_is_exact_on_encode_and_decode() {
    // A StatsReply body is opcode + u32 length + payload: the largest
    // legal payload is MAX_FRAME - 5.
    let fits = Frame::StatsReply {
        rendered: "x".repeat(MAX_FRAME - 5),
    };
    let mut buf = Vec::new();
    encode_frame_into(&fits, &mut buf).unwrap();
    assert_eq!(buf.len(), MAX_FRAME + 4, "body exactly at the limit");
    let back = read_frame(&mut buf.as_slice()).unwrap().unwrap();
    assert_eq!(back, fits);

    // One byte more: the encoder must refuse and roll the buffer back to
    // its prior contents, leaving earlier coalesced frames intact.
    let over = Frame::StatsReply {
        rendered: "x".repeat(MAX_FRAME - 4),
    };
    let mut buf = Vec::new();
    encode_frame_into(&Frame::Stats, &mut buf).unwrap();
    let before = buf.clone();
    match encode_frame_into(&over, &mut buf) {
        Err(ProtocolError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
    assert_eq!(buf, before, "failed encode must not corrupt the buffer");

    // Decode side: a length prefix past the limit is rejected before any
    // body is read.
    let mut wire = Vec::new();
    wire.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
    wire.push(0x03);
    match read_frame(&mut wire.as_slice()) {
        Err(ProtocolError::Oversized(n)) => assert_eq!(n, MAX_FRAME + 1),
        other => panic!("expected Oversized, got {other:?}"),
    }
}

/// Grants every reservation and records every frame.
#[derive(Default)]
struct RecordingSink {
    frames: std::sync::Mutex<Vec<Frame>>,
}

impl FrameSink for RecordingSink {
    fn push_control(&self, frame: Frame) {
        self.frames.lock().unwrap().push(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.frames.lock().unwrap().push(frame);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

/// Wire bytes of one frame whose body is `body`: the length prefix says
/// `len`, true or not.
fn framed_as(len: u32, body: &[u8]) -> Vec<u8> {
    let mut wire = len.to_le_bytes().to_vec();
    wire.extend_from_slice(body);
    wire
}

/// Bodies whose one string field (`sql`, `message`, a column name, a
/// `STATS` reply) holds `bytes`, which are not UTF-8.
fn invalid_utf8_bodies(rng: &mut Rng) -> Vec<Vec<u8>> {
    let bad: &[u8] = [
        &[0xFF][..],
        &[0xC3, 0x28],
        &[b'a', 0xE2, 0x82],
        &[0xF0, 0x9F],
    ][rng.below(4) as usize];
    let string = |body: &mut Vec<u8>| {
        body.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        body.extend_from_slice(bad);
    };
    let mut bodies = Vec::new();
    for op in [0x02, 0x04, 0x05, 0x06] {
        // QUERY, INSERT, UPDATE, DELETE: query id, user, sql.
        let mut body = vec![op];
        body.extend_from_slice(&(rng.next() as u32).to_le_bytes());
        body.extend_from_slice(&rng.next().to_le_bytes());
        string(&mut body);
        bodies.push(body);
    }
    // ERROR: query id, message.
    let mut body = vec![0x16];
    body.extend_from_slice(&(rng.next() as u32).to_le_bytes());
    string(&mut body);
    bodies.push(body);
    // ROWS_BEGIN: query id, one column name, rows.
    let mut body = vec![0x12];
    body.extend_from_slice(&(rng.next() as u32).to_le_bytes());
    body.extend_from_slice(&1u16.to_le_bytes());
    string(&mut body);
    body.extend_from_slice(&ROWS_UNKNOWN.to_le_bytes());
    bodies.push(body);
    // STATS_REPLY: the rendering.
    let mut body = vec![0x15];
    string(&mut body);
    bodies.push(body);
    bodies
}

/// A front door over a one-table database on a manual clock, with an open
/// gatekeeper, and one user registered at the current version.
fn fuzz_gate() -> (FrontDoor, u64) {
    let clock: Arc<dyn Clock> = ManualClock::shared();
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        GuardConfig::paper_default(),
        Arc::clone(&clock),
    ));
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("INSERT INTO t VALUES (1, 'one'), (2, 'two')", 0.0)
        .unwrap();
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&clock),
    );
    let config = GateConfig {
        gatekeeper: GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            per_user_rate: 1e9,
            per_user_burst: 1e9,
            per_subnet_rate: 1e9,
            per_subnet_burst: 1e9,
            ..GatekeeperConfig::default()
        },
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(config, db, scheduler, clock, metrics, registry);
    let sink = Arc::new(RecordingSink::default());
    let register = Frame::Register {
        claimed_ip: [0; 4],
        version: PROTOCOL_VERSION,
    };
    gate.handle_frame(register, [10, 0, 0, 1], &SessionState::new(), &sink);
    let user = match sink.frames.lock().unwrap().pop() {
        Some(Frame::Registered { user, .. }) => user,
        reply => panic!("REGISTER: {reply:?}"),
    };
    (gate, user)
}

/// Hostile bytes: every prefix of every random frame's encoding, each
/// byte flipped, length prefixes that lie (up to [`MAX_FRAME`] and past
/// it), string fields that are not UTF-8, and `REGISTER` payloads of 4
/// and 5 bytes at versions 0, 1, 2 and 255. Decoding never panics, and a
/// truncated frame decodes to an error or to a clean end of stream.
/// Every client frame that does decode then goes through a front door,
/// which never panics either, and answers every `REGISTER` below the
/// current version with `Refused(VersionUnsupported)`.
#[test]
fn hostile_bytes_never_panic_the_decoder_or_the_front_door() {
    let (gate, user) = fuzz_gate();
    let session = SessionState::new();
    let sink = Arc::new(RecordingSink::default());
    let mut registers_refused = 0;
    let mut feed = |frame: Frame| {
        let old_register = match frame {
            Frame::Register { version, .. } => version < PROTOCOL_VERSION,
            Frame::Query { .. }
            | Frame::Insert { .. }
            | Frame::Update { .. }
            | Frame::Delete { .. }
            | Frame::Stats => false,
            _ => return,
        };
        sink.frames.lock().unwrap().clear();
        gate.handle_frame(frame, [10, 0, 0, 2], &session, &sink);
        if old_register {
            let replies = sink.frames.lock().unwrap();
            assert!(
                matches!(
                    replies[..],
                    [Frame::Refused {
                        query_id: 0,
                        reason: RefuseReason::VersionUnsupported,
                        ..
                    }]
                ),
                "pre-v2 REGISTER answered {replies:?}"
            );
            registers_refused += 1;
        }
    };
    let decode = |wire: &[u8]| read_frame(&mut &wire[..]);

    cases(0xF022, |rng| {
        // Statements that run, besides the random ones that do not parse.
        let mut frames = vec![arb_frame(rng), arb_frame(rng)];
        frames.push(match rng.below(3) {
            0 => Frame::Query {
                query_id: rng.next() as u32,
                user,
                sql: format!("SELECT * FROM t WHERE id = {}", rng.below(3)),
            },
            1 => Frame::Insert {
                query_id: rng.next() as u32,
                user,
                sql: format!("INSERT INTO t VALUES ({}, 'x')", rng.below(9)),
            },
            _ => Frame::Update {
                query_id: rng.next() as u32,
                user,
                sql: format!("UPDATE t SET body = 'y' WHERE id = {}", rng.below(3)),
            },
        });
        for frame in frames {
            let mut wire = Vec::new();
            encode_frame_into(&frame, &mut wire).unwrap();
            for end in 0..wire.len() {
                let truncated = decode(&wire[..end]);
                assert!(
                    !matches!(truncated, Ok(Some(_))),
                    "{end} of {} bytes of {frame:?} decoded as {truncated:?}",
                    wire.len()
                );
            }
            // A flip in the length prefix is one of the lies below.
            for at in 4..wire.len() {
                let mut flipped = wire.clone();
                flipped[at] ^= 1 << rng.below(8);
                if let Ok(Some(frame)) = decode(&flipped) {
                    feed(frame);
                }
            }
            let body = &wire[4..];
            let true_len = body.len() as u32;
            let mut lies = vec![0, 1, true_len - 1, true_len + 1];
            lies.push(true_len ^ 1 << rng.below(16));
            // Lies up to MAX_FRAME stage a body that large before they
            // fail: a few cases carry them, so the test stays quick.
            if rng.below(16) == 0 {
                lies.push(rng.below(MAX_FRAME as u64 + 1) as u32);
                lies.extend([MAX_FRAME as u32, MAX_FRAME as u32 + 1, u32::MAX]);
            }
            for lie in lies.into_iter().filter(|&lie| lie != true_len) {
                if let Ok(Some(frame)) = decode(&framed_as(lie, body)) {
                    feed(frame);
                }
            }
            feed(frame);
        }
        for body in invalid_utf8_bodies(rng) {
            let wire = framed_as(body.len() as u32, &body);
            assert!(
                matches!(decode(&wire), Err(ProtocolError::Malformed(_))),
                "non-UTF-8 string in opcode {:#x} decoded",
                body[0]
            );
        }
        let ip = [rng.below(256) as u8, 0, 0, rng.below(256) as u8];
        let mut four_byte = vec![0x01];
        four_byte.extend_from_slice(&ip);
        let register = decode(&framed_as(5, &four_byte)).unwrap().unwrap();
        assert_eq!(
            register,
            Frame::Register {
                claimed_ip: ip,
                version: 1
            }
        );
        feed(register);
        for version in [0, 1, 2, 255] {
            let mut five_byte = four_byte.clone();
            five_byte.push(version);
            let register = decode(&framed_as(6, &five_byte)).unwrap().unwrap();
            assert_eq!(
                register,
                Frame::Register {
                    claimed_ip: ip,
                    version
                }
            );
            feed(register);
        }
    });
    // Three of the five REGISTER forms per case are below v2.
    assert!(registers_refused >= 3 * CASES);
}
