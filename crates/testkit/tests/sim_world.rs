//! The simulation harness itself: mesh round trips, same-seed
//! reproducibility, transport parity against real TCP, seeded fault
//! injection, and the partition-mid-drain acceptance scenario.

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_core::GuardedDatabase;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::{Frame, RefuseReason};
use delayguard_server::server::{Server, ServerConfig};
use delayguard_sim::Registry;
use delayguard_testkit::net::{register_once, run_query};
use delayguard_testkit::{
    check, seed_directory, seed_directory_shard, FaultPlan, NetLink, QueryOutcome, SimConfig,
    SimNet, SimWorld, TcpNet,
};
use std::sync::Arc;
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
    GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
        ))
        .with_charging(ChargingModel::PerQueryMax)
}

fn sim_world(seed: u64, rows: usize, cap_secs: f64, faults: FaultPlan) -> SimWorld {
    let world = SimWorld::new(
        seed,
        SimConfig {
            guard: guard_config(cap_secs),
            gate: GateConfig {
                gatekeeper: open_gatekeeper(),
                ..GateConfig::default()
            },
            tick: Duration::from_millis(1),
            send_queue_rows: 4096,
            faults,
            ..SimConfig::default()
        },
    );
    seed_directory(&world, rows as u64);
    world
}

#[test]
fn mesh_round_trip_enforces_delay_in_virtual_time() {
    check(
        "mesh_round_trip_enforces_delay_in_virtual_time",
        11,
        |seed| {
            let cap = 0.3;
            let world = sim_world(seed, 10, cap, FaultPlan::ideal());
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once(&mut link, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");
            // Cold table: every tuple of the first scan is charged the cap.
            let sent = world.now_secs();
            match run_query(&mut link, 1, user, "SELECT * FROM directory", 30.0).unwrap() {
                QueryOutcome::Rows {
                    rows,
                    announced,
                    delay_secs,
                    done_at_secs,
                    row_arrivals,
                    ..
                } => {
                    assert_eq!(rows.len(), 10);
                    assert_eq!(announced, 10);
                    assert!(
                        (delay_secs - cap).abs() < 1e-9,
                        "cold scan charged {delay_secs}"
                    );
                    // Virtual time really passed, and never early.
                    assert!(done_at_secs - sent >= cap - 1e-9);
                    for &at in &row_arrivals {
                        assert!(at - sent >= cap - 1e-9, "row released early at {at}");
                    }
                }
                other => panic!("expected rows, got {other:?}"),
            }
        },
    );
}

#[test]
fn same_seed_runs_are_bit_identical() {
    check("same_seed_runs_are_bit_identical", 1207, |seed| {
        let run = |seed: u64| {
            let world = sim_world(
                seed,
                20,
                0.2,
                FaultPlan::wan().with_drops(0.05).with_reordering(0.2, 0.05),
            );
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once(&mut link, [0; 4], 60.0)
                .expect("link alive")
                .expect("admitted");
            let mut summary = Vec::new();
            for q in 0..5u32 {
                let outcome =
                    run_query(&mut link, q + 1, user, "SELECT * FROM directory", 10.0).unwrap();
                summary.push(format!("{outcome:?}"));
            }
            (
                world.digest(),
                world.frames_delivered(),
                world.frames_dropped(),
                summary,
            )
        };
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.0, b.0, "same seed must produce identical digests");
        println!("DIGEST sim_world_wan_drops_reorder {seed} {:016x}", a.0);
        assert_eq!(a, b, "same seed must reproduce the whole execution");
        // A different seed shifts the fault sampling and therefore the
        // execution; the digest sees it.
        let c = run(seed ^ 0x5555_5555);
        assert_ne!(a.0, c.0, "digest must be sensitive to the seed");
    });
}

/// The same scenario through the in-memory mesh and through real TCP
/// against a real `Server`, compared outcome by outcome: refusal
/// reasons, row counts, and the exact charged delays. What campaigns
/// prove on the mesh is a property of the deployed wire protocol.
#[test]
fn transport_parity_mesh_vs_tcp() {
    fn scenario(net: &mut dyn SimNet) -> Vec<String> {
        let mut out = Vec::new();
        let mut link = net.connect([10, 7, 7, 1]).expect("connect");
        // Unregistered queries are refused with the explicit reason.
        match run_query(
            &mut *link,
            1,
            999_999,
            "SELECT * FROM directory WHERE id = 1",
            10.0,
        )
        .unwrap()
        {
            QueryOutcome::Refused { reason, .. } => out.push(format!("refused:{reason:?}")),
            other => out.push(format!("unexpected:{other:?}")),
        }
        let user = register_once(&mut *link, [0; 4], 10.0)
            .expect("link alive")
            .expect("admitted");
        // A cold point lookup, then a cold scan of the rest.
        for sql in [
            "SELECT * FROM directory WHERE id = 3",
            "SELECT * FROM directory",
        ] {
            match run_query(&mut *link, 2, user, sql, 30.0).unwrap() {
                QueryOutcome::Rows {
                    rows,
                    announced,
                    delay_secs,
                    tuples,
                    ..
                } => out.push(format!(
                    "rows:{} announced:{announced} delay:{delay_secs:.6} tuples:{tuples}",
                    rows.len()
                )),
                other => out.push(format!("unexpected:{other:?}")),
            }
        }
        out
    }

    let rows = 6;
    let cap = 0.25;

    let mut mesh = sim_world(4242, rows, cap, FaultPlan::ideal());
    let mesh_out = scenario(&mut mesh);

    let db = Arc::new(GuardedDatabase::new(guard_config(cap)));
    seed_directory_shard(&db, &(0..rows as u64).collect::<Vec<_>>());
    let handle = Server::start(
        "127.0.0.1:0",
        ServerConfig {
            gatekeeper: open_gatekeeper(),
            ..ServerConfig::default()
        },
        db,
        Registry::new(),
    )
    .expect("server starts");
    let mut tcp = TcpNet::new(handle.addr().to_string());
    let tcp_out = scenario(&mut tcp);
    handle.shutdown();

    assert_eq!(
        mesh_out, tcp_out,
        "mesh and TCP must observe the same protocol"
    );
}

#[test]
fn seeded_drops_and_resets_are_injected() {
    check("seeded_drops_and_resets_are_injected", 77, |seed| {
        let world = sim_world(seed, 4, 0.0, FaultPlan::ideal());
        let mut completed = 0u32;
        let mut failed = 0u32;
        for i in 0..40u32 {
            let mut link = world.connect_link([10, 1, (i >> 8) as u8, i as u8]);
            world.set_faults(
                link.id(),
                FaultPlan::ideal().with_drops(0.10).with_resets(0.02),
            );
            let Ok(Ok(user)) = register_once(&mut link, [0; 4], 5.0) else {
                failed += 1;
                continue;
            };
            match run_query(&mut link, 1, user, "SELECT * FROM directory", 5.0) {
                Ok(QueryOutcome::Rows { rows, .. }) if rows.len() == 4 => completed += 1,
                _ => failed += 1,
            }
        }
        assert!(
            world.frames_dropped() > 0,
            "a 10% drop rate over 40 sessions must drop something"
        );
        assert!(completed > 0, "some sessions must still complete");
        assert!(failed > 0, "some sessions must be disturbed by faults");
    });
}

#[test]
fn reordering_faults_preserve_the_logical_result_set() {
    check(
        "reordering_faults_preserve_the_logical_result_set",
        3001,
        |seed| {
            let world = sim_world(seed, 20, 0.0, FaultPlan::ideal());
            let mut link = world.connect_link([10, 0, 0, 9]);
            world.set_faults(link.id(), FaultPlan::wan().with_reordering(0.4, 0.2));
            let user = register_once(&mut link, [0; 4], 10.0)
                .expect("link alive")
                .expect("admitted");
            link.send(&Frame::Query {
                query_id: 1,
                user,
                sql: "SELECT * FROM directory".into(),
            })
            .unwrap();
            // Collect every frame, not stopping at DONE: a reordered row may
            // legitimately overtake it (that's the fault being injected).
            let mut seqs = Vec::new();
            while seqs.len() < 20 {
                match link.recv(5.0).unwrap() {
                    Some(arrival) => {
                        if let Frame::Row { seq, .. } = arrival.frame {
                            seqs.push(seq);
                        }
                    }
                    None => panic!("lost a row: got {seqs:?}"),
                }
            }
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_ne!(
                seqs, sorted,
                "seeded reordering must be observable on the wire"
            );
            // Nothing lost, nothing duplicated: the logical result set is
            // intact once re-assembled by sequence number.
            let unique: std::collections::BTreeSet<u32> = seqs.iter().copied().collect();
            assert_eq!(unique.len(), 20);
        },
    );
}

/// The acceptance scenario: a partition cuts the client off while its
/// delayed tuples are still on the wheel; graceful drain must hold every
/// one of them to its deadline and deliver them all once the partition
/// heals — nothing lost, nothing early.
#[test]
fn partition_mid_drain_delivers_every_tuple_after_heal() {
    check(
        "partition_mid_drain_delivers_every_tuple_after_heal",
        909,
        |seed| {
            let cap = 5.0;
            let world = sim_world(seed, 10, cap, FaultPlan::ideal());
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once(&mut link, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");

            let sent = world.now_secs();
            link.send(&Frame::Query {
                query_id: 7,
                user,
                sql: "SELECT * FROM directory".into(),
            })
            .unwrap();
            // Let the query land on the wheel, then cut the wire.
            world.run_for(0.05);
            world.partition(link.id());

            // Drain with ten tuples pending behind the partition. The wheel
            // must still fire every deadline; the frames pile up at the cut.
            world.shutdown();
            assert!(
                world.now_secs() - sent >= cap,
                "drain must wait out the delays"
            );

            // Nothing but the pre-partition RowsBegin made it through.
            let mut pre_heal = Vec::new();
            while let Ok(Some(arrival)) = link.recv(0.0) {
                pre_heal.push(arrival.frame);
            }
            assert!(
                pre_heal
                    .iter()
                    .all(|f| matches!(f, Frame::RowsBegin { .. })),
                "no delayed tuple may cross a partition: {pre_heal:?}"
            );

            // Heal: every held frame floods through, no earlier than now.
            world.heal(link.id());
            let mut rows = 0;
            let mut done = None;
            while let Ok(Some(arrival)) = link.recv(0.1) {
                match arrival.frame {
                    Frame::Row { .. } => {
                        rows += 1;
                        assert!(
                            arrival.at_secs - sent >= cap - 1e-9,
                            "tuple released before its deadline"
                        );
                    }
                    Frame::Done {
                        delay_secs, tuples, ..
                    } => done = Some((delay_secs, tuples, arrival.at_secs)),
                    Frame::RowsBegin { .. } | Frame::RowsEnd { .. } => {}
                    other => panic!("unexpected frame after heal: {other:?}"),
                }
                if done.is_some() && rows == 10 {
                    break;
                }
            }
            assert_eq!(rows, 10, "drain must deliver every in-flight delayed tuple");
            let (delay_secs, tuples, done_at) = done.expect("DONE after heal");
            assert_eq!(tuples, 10);
            assert!(delay_secs >= cap - 1e-9);
            assert!(done_at - sent >= cap - 1e-9);

            // And a draining front door refuses new work explicitly.
            let mut late = world.connect_link([10, 0, 0, 2]);
            match register_once(&mut late, [0; 4], 1.0).unwrap() {
                Err(_) => {}
                Ok(user) => panic!("registration admitted user {user} during drain"),
            }
            match run_query(&mut late, 1, user, "SELECT * FROM directory", 1.0).unwrap() {
                QueryOutcome::Refused { reason, .. } => {
                    assert_eq!(reason, RefuseReason::ShuttingDown)
                }
                other => panic!("expected shutting-down refusal, got {other:?}"),
            }
        },
    );
}
