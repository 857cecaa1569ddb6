//! Wire-level parity between a result streamed in many small chunks and
//! the same result taken as one chunk: same rows, same per-row release
//! times, same charged delay, byte-for-byte identical `ROW`/`DONE`
//! frames, and the same trailer framing. Plus the charge-before-shed
//! regression: a query refused by send-queue backpressure must charge
//! nothing and record no access events.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_core::snapshot::SnapshotPolicy;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::{Frame, ROWS_UNKNOWN};
use delayguard_testkit::net::{register_once, run_query, Arrival, LinkError, NetLink};
use delayguard_testkit::{check, seed_directory, QueryOutcome, SimConfig, SimWorld};
use std::time::Duration;

fn open_gatekeeper() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1000.0,
        per_user_burst: 1000.0,
        per_subnet_rate: 1000.0,
        per_subnet_burst: 1000.0,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

fn guard_config(cap_secs: f64) -> GuardConfig {
    // Refresh after every statement so both chunk sizes apply their
    // recorded accesses at the same points: a chunked result records one
    // event per chunk, a one-chunk result one per statement, and an eager
    // refresh collapses that difference before the next query prices
    // anything.
    GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
        ))
        .with_charging(ChargingModel::PerTupleSum)
        .with_snapshot_policy(SnapshotPolicy {
            max_pending_events: 1,
            ..SnapshotPolicy::default()
        })
}

/// Small enough that a 10-row scan spans several chunks.
const SMALL_CHUNK: usize = 3;

fn sim_world(
    seed: u64,
    rows: usize,
    cap_secs: f64,
    send_queue_rows: usize,
    stream_chunk_rows: usize,
) -> SimWorld {
    let world = SimWorld::new(
        seed,
        SimConfig {
            guard: guard_config(cap_secs),
            gate: GateConfig {
                gatekeeper: open_gatekeeper(),
                stream_chunk_rows,
                ..GateConfig::default()
            },
            tick: Duration::from_millis(1),
            send_queue_rows,
            ..SimConfig::default()
        },
    );
    seed_directory(&world, rows as u64);
    world
}

/// Run one query, collecting every frame of the exchange with its arrival
/// time, through the terminal `DONE`/`REFUSED`/`ERROR`.
fn run_raw(
    link: &mut dyn NetLink,
    query_id: u32,
    user: u64,
    sql: &str,
    timeout_secs: f64,
) -> Result<Vec<Arrival>, LinkError> {
    link.send(&Frame::Query {
        query_id,
        user,
        sql: sql.to_owned(),
    })?;
    let deadline = link.now_secs() + timeout_secs;
    let mut frames = Vec::new();
    loop {
        let remaining = deadline - link.now_secs();
        if remaining <= 0.0 {
            return Ok(frames);
        }
        let Some(arrival) = link.recv(remaining)? else {
            return Ok(frames);
        };
        let terminal = matches!(
            arrival.frame,
            Frame::Done { .. } | Frame::Refused { .. } | Frame::Error { .. }
        );
        frames.push(arrival);
        if terminal {
            return Ok(frames);
        }
    }
}

const PARITY_QUERIES: &[&str] = &[
    "SELECT * FROM directory",
    "SELECT entry FROM directory WHERE id < 5",
    "SELECT * FROM directory ORDER BY id DESC LIMIT 3",
    "SELECT * FROM directory",
];

#[test]
fn streaming_and_materialized_framing_agree_on_the_wire() {
    check(
        "streaming_and_materialized_framing_agree_on_the_wire",
        2031,
        |seed| {
            let run = |stream_chunk_rows: usize| {
                let world = sim_world(seed, 10, 0.3, 4096, stream_chunk_rows);
                let mut link = world.connect_link([10, 0, 0, 1]);
                let user = register_once(&mut link, [0; 4], 5.0)
                    .expect("link alive")
                    .expect("admitted");
                let mut exchanges = Vec::new();
                for (i, sql) in PARITY_QUERIES.iter().enumerate() {
                    exchanges.push(run_raw(&mut link, i as u32 + 1, user, sql, 30.0).unwrap());
                }
                exchanges
            };
            // One chunk holds every result of PARITY_QUERIES (10 rows).
            let whole = run(4096);
            let chunked = run(SMALL_CHUNK);
            assert_eq!(whole.len(), chunked.len());
            for (qi, (w, c)) in whole.iter().zip(chunked.iter()).enumerate() {
                // Substance: the ROW and DONE frames — payloads, sequence
                // numbers, charged delay — and their release times must be
                // bit-identical across the two chunk sizes.
                let substance = |frames: &[Arrival]| -> Vec<(u64, Frame)> {
                    frames
                        .iter()
                        .filter(|a| matches!(a.frame, Frame::Row { .. } | Frame::Done { .. }))
                        .map(|a| (a.at_secs.to_bits(), a.frame.clone()))
                        .collect()
                };
                assert_eq!(
                    substance(w),
                    substance(c),
                    "query {qi}: rows/done diverge between chunk sizes"
                );
                // Framing: both announce ROWS_UNKNOWN and trail with the
                // count.
                let n_rows = w
                    .iter()
                    .filter(|a| matches!(a.frame, Frame::Row { .. }))
                    .count() as u32;
                for (name, frames) in [("one-chunk", w), ("chunked", c)] {
                    match &frames[0].frame {
                        Frame::RowsBegin { rows, .. } => assert_eq!(*rows, ROWS_UNKNOWN),
                        other => panic!("query {qi}: {name} exchange began with {other:?}"),
                    }
                    let trailer = frames
                        .iter()
                        .find(|a| matches!(a.frame, Frame::RowsEnd { .. }))
                        .unwrap_or_else(|| panic!("query {qi}: {name} exchange has no trailer"));
                    match trailer.frame {
                        Frame::RowsEnd { rows, .. } => assert_eq!(rows, n_rows),
                        _ => unreachable!(),
                    }
                }
            }
        },
    );
}

#[test]
fn backpressure_refusal_charges_nothing() {
    check("backpressure_refusal_charges_nothing", 4011, |seed| {
        // A 2-row send queue cannot hold even one 3-row chunk: the very
        // first reservation fails, so the refusal must precede any
        // charging.
        let world = sim_world(seed, 10, 0.3, 2, SMALL_CHUNK);
        let mut link = world.connect_link([10, 0, 0, 1]);
        let user = register_once(&mut link, [0; 4], 5.0)
            .expect("link alive")
            .expect("admitted");
        match run_query(&mut link, 1, user, "SELECT * FROM directory", 30.0).unwrap() {
            QueryOutcome::Refused { .. } => {}
            other => panic!("expected backpressure refusal, got {other:?}"),
        }
        let charged = world
            .registry()
            .counter("server_delay_micros_charged")
            .get();
        assert_eq!(charged, 0, "refused query charged delay");
        assert_eq!(
            world.registry().counter("server_rows_streamed").get(),
            0,
            "refused query streamed rows"
        );

        // And no access events leaked: the shed query must not have
        // warmed the popularity counts, so a later scan prices exactly
        // as on a control world that never saw the refusal.
        let control = sim_world(seed, 10, 0.3, 2, SMALL_CHUNK);
        let at = world.now_secs().max(control.now_secs()) + 1.0;
        let after_refusal = world
            .db()
            .execute_at("SELECT * FROM directory", at)
            .unwrap()
            .delay_secs;
        let untouched = control
            .db()
            .execute_at("SELECT * FROM directory", at)
            .unwrap()
            .delay_secs;
        assert_eq!(
            after_refusal.to_bits(),
            untouched.to_bits(),
            "refused query left access events behind"
        );
    });
}
