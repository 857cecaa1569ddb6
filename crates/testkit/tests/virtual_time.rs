//! Virtual-time ports of the wall-clock server integration scenarios:
//! the same end-to-end properties, no real sleeping. What takes the TCP
//! suite seconds of wall waiting runs here in milliseconds, and the
//! delay arithmetic becomes exact instead of "at least".

use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::config::GuardConfig;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::{ChargingModel, GuardPolicy};
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::{Frame, RefuseReason};
use delayguard_sim::MetricValue;
use delayguard_testkit::net::{register_once, run_query};
use delayguard_testkit::{check, seed_directory, NetLink, QueryOutcome, SimConfig, SimWorld};
use std::time::{Duration, Instant};

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

fn sim_world(seed: u64, rows: usize, cap_secs: f64, send_queue_rows: usize) -> SimWorld {
    let guard = GuardConfig::paper_default()
        .with_policy(GuardPolicy::AccessRate(
            AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
        ))
        .with_charging(ChargingModel::PerQueryMax);
    let world = SimWorld::new(
        seed,
        SimConfig {
            guard,
            gate: GateConfig {
                gatekeeper: open_gatekeeper(),
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

/// Port of `popular_tuple_streams_faster_than_unpopular`: both clients
/// race concurrently in virtual time, and the margin assertions are
/// exact rather than racy.
#[test]
fn popular_tuple_streams_faster_than_unpopular() {
    check("popular_tuple_streams_faster_than_unpopular", 21, |seed| {
        let cap = 0.4;
        let world = sim_world(seed, 50, cap, 4096);
        let db = world.db();
        for t in 0..200 {
            db.execute_at("SELECT entry FROM directory WHERE id = 1", t as f64)
                .unwrap();
        }
        // The snapshot read path refreshes on age or pending-event count;
        // neither advances here without a wall clock, so refresh by hand.
        db.refresh();

        let mut popular = world.connect_link([10, 0, 0, 1]);
        let mut unpopular = world.connect_link([10, 0, 1, 1]);
        let pop_user = register_once(&mut popular, [0; 4], 5.0)
            .expect("link alive")
            .expect("admitted");
        let unpop_user = register_once(&mut unpopular, [0; 4], 5.0)
            .expect("link alive")
            .expect("admitted");

        // Both queries leave at the same virtual instant.
        let sent = world.now_secs();
        popular
            .send(&Frame::Query {
                query_id: 1,
                user: pop_user,
                sql: "SELECT entry FROM directory WHERE id = 1".into(),
            })
            .unwrap();
        unpopular
            .send(&Frame::Query {
                query_id: 2,
                user: unpop_user,
                sql: "SELECT entry FROM directory WHERE id = 37".into(),
            })
            .unwrap();
        world.run_for(cap + 0.1);

        let collect = |link: &mut dyn NetLink| {
            let mut done = None;
            let mut rows = 0;
            while let Ok(Some(arrival)) = link.recv(0.0) {
                match arrival.frame {
                    Frame::Row { .. } => rows += 1,
                    Frame::Done { delay_secs, .. } => done = Some((delay_secs, arrival.at_secs)),
                    _ => {}
                }
            }
            (rows, done.expect("DONE within the cap window"))
        };
        let (pop_rows, (pop_delay, pop_done)) = collect(&mut popular);
        let (unpop_rows, (unpop_delay, unpop_done)) = collect(&mut unpopular);

        assert_eq!(pop_rows, 1);
        assert_eq!(unpop_rows, 1);
        assert!(
            unpop_delay >= cap - 1e-9,
            "unpopular tuple should be charged the cap, got {unpop_delay}"
        );
        assert!(
            pop_delay < cap / 4.0,
            "popular tuple should be charged far below the cap, got {pop_delay}"
        );
        // Enforcement on the virtual wire: never early, and the popular
        // answer beats the unpopular one by the policy margin.
        assert!(unpop_done - sent >= unpop_delay - 1e-9);
        assert!(unpop_done - pop_done >= cap / 2.0 - 1e-9);
    });
}

/// Port of `draining_server_refuses_new_queries` +
/// `graceful_shutdown_delivers_inflight_delayed_tuples`: begin a drain
/// with a slow query on the wheel; new queries are refused as shutting
/// down while every in-flight tuple is still delivered at its deadline.
#[test]
fn draining_refuses_new_queries_but_delivers_inflight() {
    check(
        "draining_refuses_new_queries_but_delivers_inflight",
        22,
        |seed| {
            let cap = 0.8;
            let world = sim_world(seed, 8, cap, 4096);
            let mut first = world.connect_link([10, 0, 0, 1]);
            let mut second = world.connect_link([10, 0, 1, 1]);
            let first_user = register_once(&mut first, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");
            let second_user = register_once(&mut second, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");

            let sent = world.now_secs();
            first
                .send(&Frame::Query {
                    query_id: 1,
                    user: first_user,
                    sql: "SELECT * FROM directory".into(),
                })
                .unwrap();
            world.run_for(0.05);
            world.gate().begin_drain();

            match run_query(&mut second, 2, second_user, "SELECT * FROM directory", 1.0).unwrap() {
                QueryOutcome::Refused { reason, .. } => {
                    assert_eq!(reason, RefuseReason::ShuttingDown)
                }
                other => panic!("expected shutting-down refusal, got {other:?}"),
            }

            world.run_until_idle();
            let mut rows = 0;
            let mut done_at = None;
            while let Ok(Some(arrival)) = first.recv(0.0) {
                match arrival.frame {
                    Frame::Row { .. } => rows += 1,
                    Frame::Done { .. } => done_at = Some(arrival.at_secs),
                    _ => {}
                }
            }
            assert_eq!(rows, 8, "drain must deliver every in-flight tuple");
            let done_at = done_at.expect("DONE delivered by the drain");
            assert!(done_at - sent >= cap - 1e-9, "drain must not release early");
        },
    );
}

/// Port of `ten_thousand_delays_share_one_scheduler_thread`, plus the
/// testkit's own selling point: the half-second that test spends
/// genuinely sleeping is virtual here, so the whole thing is bounded by
/// processing cost, not by the delay being enforced.
#[test]
fn ten_thousand_delays_pend_on_the_wheel_in_virtual_time() {
    check(
        "ten_thousand_delays_pend_on_the_wheel_in_virtual_time",
        23,
        |seed| {
            let cap = 0.5;
            let wall = Instant::now();
            let world = sim_world(seed, 10_000, cap, 20_000);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let user = register_once(&mut link, [0; 4], 5.0)
                .expect("link alive")
                .expect("admitted");
            match run_query(&mut link, 1, user, "SELECT * FROM directory", 30.0).unwrap() {
                QueryOutcome::Rows {
                    rows,
                    sent_at_secs,
                    done_at_secs,
                    ..
                } => {
                    assert_eq!(rows.len(), 10_000);
                    assert!(done_at_secs - sent_at_secs >= cap - 1e-9);
                }
                other => panic!("expected rows, got {other:?}"),
            }
            // Same-deadline rows coalesce into one wheel entry per chunk
            // (10 000 rows / 256-row chunks), so the wheel pends tens of
            // batched sends, never one entry per tuple.
            let chunks = (10_000i64 + 255) / 256;
            match world.registry().value("scheduler_pending") {
                Some(MetricValue::Gauge { high_water, .. }) => {
                    assert!(
                        high_water >= chunks && high_water <= chunks + 4,
                        "pending high water {high_water}, expected ~{chunks} coalesced sends"
                    )
                }
                other => panic!("scheduler_pending missing: {other:?}"),
            }
            match world.registry().value("server_rows_streamed") {
                Some(MetricValue::Counter(n)) => assert_eq!(n, 10_000),
                other => panic!("server_rows_streamed missing: {other:?}"),
            }
            // Seeding 10k rows dominates; the enforced half second costs
            // nothing. Generous bound so debug builds under load still pass.
            assert!(
                wall.elapsed() < Duration::from_secs(30),
                "virtual-time test must not wait out real delays"
            );
        },
    );
}
