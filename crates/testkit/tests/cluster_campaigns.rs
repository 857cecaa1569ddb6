//! End-to-end cluster campaigns: the §2.4 attacks against the sharded,
//! replicated front door, asserted against the closed forms of
//! [`delayguard_core::analysis`].
//!
//! The load-bearing claims:
//!
//! * **Replication restores the paper's economics.** With delta-sync
//!   on, every node prices from the merged global aggregates, so both
//!   the sequential crawl and the shard-grouped crawl pay the
//!   single-node Eq. 3 total, and the median user sees the single-node
//!   Eq. 1 delay — within 10% plus the replication-lag slack. This
//!   holds through a mid-campaign partition and heal.
//! * **Without replication the defense collapses.** Each shard prices
//!   from 1/N-th of the distribution, and the adversary total lands on
//!   `sharded_unreplicated_total` — a small fraction (≈ (N+1)/(2N²))
//!   of the closed form. That negative control is why the delta-sync
//!   protocol exists.
//! * **Determinism.** Same seed, same drive ⇒ bit-identical event
//!   digest, gossip, partitions and heals included.

use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::shaping::DelayShaping;
use delayguard_core::GuardedDatabase;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::Frame;
use delayguard_sim::MetricValue;
use delayguard_testkit::campaign::{seed_directory, Campaign, CampaignParams};
use delayguard_testkit::net::{self, NetLink, QueryOutcome};
use delayguard_testkit::seed::{check, check_seeds};
use delayguard_testkit::world::{MeshLink, SimConfig, SimWorld};

fn rel_err(measured: f64, expected: f64) -> f64 {
    (measured - expected).abs() / expected
}

fn params(n: u64, nodes: usize, sync_interval_secs: f64) -> CampaignParams {
    CampaignParams {
        n,
        nodes,
        sync_interval_secs,
        ..CampaignParams::default()
    }
}

/// The sharded running example: 1100 tuples over 4 nodes, hourly gossip.
fn default_params() -> CampaignParams {
    params(1100, 4, 3600.0)
}

fn wide_open() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1e9,
        per_user_burst: 1e9,
        per_subnet_rate: 1e9,
        per_subnet_burst: 1e9,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

/// The `directory` table's data version on `db`.
fn directory_version(db: &GuardedDatabase) -> u64 {
    let directory = db.engine().catalog().table("directory").unwrap();
    let version = directory.read().data_version();
    version
}

fn counter(world: &SimWorld, node: usize, name: &str) -> u64 {
    match world.node_registry(node).value(name) {
        Some(MetricValue::Counter(v)) => v,
        other => panic!("metric {name} on node {node}: {other:?}"),
    }
}

/// The router speaks the unchanged client protocol: one identity per
/// `REGISTER` (duplicate shard verdicts are swallowed), point queries
/// land on the owning shard, and gossip carries deltas both ways.
#[test]
fn router_hands_out_one_identity_and_routes_point_queries() {
    check(
        "router_hands_out_one_identity_and_routes_point_queries",
        11,
        |seed| {
            let mut world = SimWorld::new(
                seed,
                SimConfig {
                    nodes: 2,
                    gate: GateConfig {
                        gatekeeper: wide_open(),
                        ..GateConfig::default()
                    },
                    sync_interval_secs: 60.0,
                    ..SimConfig::default()
                },
            );
            seed_directory(&world, 8);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                .expect("registration");
            assert_eq!(user, 1, "registrars assign ids deterministically");
            assert!(
                link.recv(0.0).expect("link alive").is_none(),
                "duplicate shard verdicts must be swallowed by the router"
            );
            // One point query per shard; both must come back with the
            // owner's row (start-up transient: each pays the 10 s cap).
            for id in [0u64, 1] {
                let sql = format!("SELECT * FROM directory WHERE id = {id}");
                match net::run_query(&mut link, 1 + id as u32, user, &sql, 3600.0)
                    .expect("link alive")
                {
                    QueryOutcome::Rows { rows, .. } => {
                        assert_eq!(rows.len(), 1, "id {id} is a point lookup");
                    }
                    other => panic!("id {id}: {other:?}"),
                }
            }
            // Each shard admitted exactly its own query.
            assert_eq!(counter(&world, 0, "server_queries_admitted"), 1);
            assert_eq!(counter(&world, 1, "server_queries_admitted"), 1);
            // Gossip: one round folds a delta into every node.
            world.sync_now();
            assert!(counter(&world, 0, "cluster_deltas_applied") >= 1);
            assert!(counter(&world, 1, "cluster_deltas_applied") >= 1);
            assert!(world.peer_frames_delivered() >= 2);
            // A second identity gets the next id, on every node.
            let mut link2 = world.connect_link([10, 0, 1, 1]);
            let (user2, _) = net::register_until_admitted(&mut world, &mut link2, [0; 4], 600.0)
                .expect("registration");
            assert_eq!(user2, 2);
            println!(
                "DIGEST cluster_router_two_nodes {seed} {:016x}",
                world.digest()
            );
        },
    );
}

/// The flagship: the §2.4 sequential crawl against a 4-node replicated
/// cluster pays the single-node Eq. 3 total, and the median user sees
/// the single-node Eq. 1 delay — the delay policy is restored to the
/// paper's economics even though no node owns more than a quarter of
/// the relation.
#[test]
fn replicated_sequential_crawl_matches_single_node_closed_form() {
    check(
        "replicated_sequential_crawl_matches_single_node_closed_form",
        7,
        |seed| {
            let mut campaign = Campaign::new(seed, default_params());
            let ranks = campaign.all_ranks();
            let report = campaign.sequential_crawl([10, 0, 0, 1], &ranks);
            let tolerance = campaign.tolerance();
            let expected = campaign.analytic_total();
            assert_eq!(report.queries, ranks.len() as u64);
            assert_eq!(report.refused, 0, "gatekeeper is wide open");
            assert!(
                rel_err(report.total_delay_secs, expected) <= tolerance,
                "adversary total {} vs closed form {} (rel err {:.4}, tolerance {:.4})",
                report.total_delay_secs,
                expected,
                rel_err(report.total_delay_secs, expected),
                tolerance,
            );
            assert!(
                report.min_margin_secs >= -1e-6,
                "a tuple was released {}s early",
                -report.min_margin_secs
            );
            let median = campaign.median_user_delay([10, 9, 0, 1]);
            let expected_median = campaign.analytic_delay_at_rank(campaign.median_rank());
            assert!(
                rel_err(median, expected_median) <= tolerance,
                "median user delay {} vs closed form {} (tolerance {:.4})",
                median,
                expected_median,
                tolerance,
            );
            println!(
                "DIGEST cluster_replicated_sequential {seed} {:016x}",
                campaign.world().digest()
            );
        },
    );
}

/// The shard-aware crawl (one shard at a time) gains nothing against a
/// replicated cluster — and the result survives a mid-campaign
/// partition and heal: deltas held while a node is cut flood through
/// afterwards, and the totals still land on the closed form.
#[test]
fn shard_grouped_crawl_with_partition_and_heal_matches_closed_form() {
    check(
        "shard_grouped_crawl_with_partition_and_heal_matches_closed_form",
        23,
        |seed| {
            let mut campaign = Campaign::new(seed, default_params());
            let ranks = campaign.shard_grouped_ranks();
            let (head, rest) = ranks.split_at(ranks.len() / 2);
            let (mid, tail) = rest.split_at(rest.len() / 2);
            let mut total = 0.0;
            let mut min_margin = f64::INFINITY;

            let r1 = campaign.sequential_crawl([10, 0, 0, 1], head);
            total += r1.total_delay_secs;
            min_margin = min_margin.min(r1.min_margin_secs);

            campaign.world().cut_node(1);
            let r2 = campaign.sequential_crawl([10, 0, 0, 2], mid);
            total += r2.total_delay_secs;
            min_margin = min_margin.min(r2.min_margin_secs);
            assert!(
                campaign.world().peer_frames_held() > 0,
                "the partition must actually hold gossip frames"
            );

            campaign.world().heal_node(1);
            let r3 = campaign.sequential_crawl([10, 0, 0, 3], tail);
            total += r3.total_delay_secs;
            min_margin = min_margin.min(r3.min_margin_secs);
            campaign.world().sync_now();
            assert_eq!(
                campaign.world().peer_frames_pending(),
                0,
                "heal must flood every held frame through"
            );

            let tolerance = campaign.tolerance();
            let expected = campaign.analytic_total();
            assert!(
                rel_err(total, expected) <= tolerance,
                "shard-aware total {} vs closed form {} (rel err {:.4}, tolerance {:.4})",
                total,
                expected,
                rel_err(total, expected),
                tolerance,
            );
            assert!(min_margin >= -1e-6);
            let median = campaign.median_user_delay([10, 9, 0, 1]);
            let expected_median = campaign.analytic_delay_at_rank(campaign.median_rank());
            assert!(
                rel_err(median, expected_median) <= tolerance,
                "median user delay {median} vs closed form {expected_median}",
            );
            println!(
                "DIGEST cluster_shard_grouped_cut_heal {seed} {:016x}",
                campaign.world().digest()
            );
        },
    );
}

/// The negative control: with replication disabled, each shard prices
/// from its local 1/N-th of the distribution and the shard-aware crawl
/// pays only `sharded_unreplicated_total` — for 4 nodes under α=β=1,
/// about 14% of the single-node total. Eq. 4 is defeated.
#[test]
fn unreplicated_shards_collapse_the_adversary_total() {
    check(
        "unreplicated_shards_collapse_the_adversary_total",
        5,
        |seed| {
            let mut campaign = Campaign::new(seed, params(1100, 4, 0.0));
            let ranks = campaign.shard_grouped_ranks();
            let report = campaign.sequential_crawl([10, 0, 0, 1], &ranks);
            assert_eq!(
                campaign.world().peer_frames_delivered(),
                0,
                "replication is off: no gossip may flow"
            );
            let expected = campaign.analytic_unreplicated_total();
            assert!(
                rel_err(report.total_delay_secs, expected) <= campaign.tolerance(),
                "unreplicated total {} vs sharded closed form {} (rel err {:.4})",
                report.total_delay_secs,
                expected,
                rel_err(report.total_delay_secs, expected),
            );
            // The defeat: a small fraction of the single-node economics.
            let single_node = campaign.analytic_total();
            assert!(
                report.total_delay_secs < 0.2 * single_node,
                "sharding without replication must collapse the total: {} vs {}",
                report.total_delay_secs,
                single_node,
            );
            assert!(report.min_margin_secs >= -1e-6);
            println!(
                "DIGEST cluster_unreplicated_control {seed} {:016x}",
                campaign.world().digest()
            );
        },
    );
}

/// Same seed, same drive ⇒ bit-identical executions — gossip rounds,
/// a partition, a heal, and a Zipf workload included.
#[test]
fn same_seed_drives_bit_identical_executions() {
    check_seeds(
        "same_seed_drives_bit_identical_executions",
        &[3, 17],
        |seed| {
            let run = |seed: u64| {
                let mut campaign = Campaign::new(seed, params(120, 4, 60.0));
                let mut ranks = campaign.zipf_ranks(24);
                ranks.extend_from_slice(&campaign.all_ranks()[..16]);
                let (a, b) = ranks.split_at(ranks.len() / 2);
                campaign.sequential_crawl([10, 0, 0, 1], a);
                campaign.world().cut_node(2);
                campaign.sequential_crawl([10, 0, 0, 2], b);
                campaign.world().heal_node(2);
                campaign.world().sync_now();
                (
                    campaign.world().digest(),
                    campaign.world().frames_delivered(),
                )
            };
            let (d1, f1) = run(seed);
            let (d2, f2) = run(seed);
            assert_eq!(d1, d2, "digests diverged for seed {seed}");
            println!("DIGEST cluster_zipf_cut_heal {seed} {d1:016x}");
            assert_eq!(f1, f2);
        },
    );
}

/// Delay shaping rides `SimConfig::guard` onto every node: a shaped
/// cluster replays bit-identically under the same seed (jitter is a pure
/// function of the folded seed, query nonce, and tuple key — on whichever
/// shard prices it), a *disabled* shaping knob is inert down to the wire
/// digest, and enabling it only raises the charged totals.
#[test]
fn shaped_cluster_replays_bit_identically() {
    check("shaped_cluster_replays_bit_identically", 29, |seed| {
        let run = |shaping: DelayShaping| {
            let mut p = params(120, 4, 60.0);
            p.shaping = shaping;
            let mut campaign = Campaign::new(seed, p);
            let ranks: Vec<u64> = (1..=48).collect();
            let report = campaign.sequential_crawl([10, 0, 0, 1], &ranks);
            assert!(report.min_margin_secs >= -1e-6);
            (campaign.world().digest(), report.total_delay_secs)
        };

        let shaping = DelayShaping::new(3600.0, 8.0, 0.25, 0xFACE);
        let (d1, total1) = run(shaping);
        let (d2, total2) = run(shaping);
        assert_eq!(d1, d2, "shaped cluster diverged for seed {seed}");
        assert_eq!(total1.to_bits(), total2.to_bits());

        let (plain_digest, plain_total) = run(DelayShaping::off());
        let mut loud_but_off = shaping;
        loud_but_off.enabled = false;
        let (off_digest, off_total) = run(loud_but_off);
        assert_eq!(
            plain_digest, off_digest,
            "disabled shaping must not perturb the cluster"
        );
        assert_eq!(plain_total.to_bits(), off_total.to_bits());

        assert_ne!(d1, plain_digest, "shaping must change the wire trace");
        println!("DIGEST cluster_shaped {seed} {d1:016x}");
        println!("DIGEST cluster_unshaped {seed} {plain_digest:016x}");
        assert!(total1 > plain_total, "shaping only raises prices");
    });
}

/// Writes go through the same front door as reads: the router pins each
/// `INSERT`/`UPDATE`/`DELETE` to the shard owning its partition key, the
/// mutation feeds the owner's update-rate tracker, and the aggregate
/// rides the existing `DELTA` gossip — so after one sync round the
/// owner prices `d = c/(N·r)` from the *global* cardinality, exactly
/// like the read-side closed forms.
#[test]
fn writes_route_to_owners_and_ride_delta_sync() {
    check("writes_route_to_owners_and_ride_delta_sync", 37, |seed| {
        use delayguard_core::{GuardConfig, GuardPolicy, UpdateDelayPolicy};
        use delayguard_server::gate::MutationVerb;
        use delayguard_testkit::net::MutationOutcome;

        let mut world = SimWorld::new(
            seed,
            SimConfig {
                nodes: 2,
                guard: GuardConfig {
                    policy: GuardPolicy::UpdateRate(UpdateDelayPolicy::new(0.1).with_cap(10.0)),
                    ..GuardConfig::paper_default()
                },
                gate: GateConfig {
                    gatekeeper: wide_open(),
                    ..GateConfig::default()
                },
                sync_interval_secs: 60.0,
                ..SimConfig::default()
            },
        );
        // Gossip only when the test says so: the before/after contrast
        // below is exactly the replication effect.
        world.set_sync_enabled(false);
        let map = world.partition_map();
        for j in 0..2 {
            let db = world.node_db(j);
            db.execute_at(
                "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
                0.0,
            )
            .expect("create table");
            for id in map.ids_of(j, 8) {
                db.execute_at(
                    &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                    0.0,
                )
                .expect("insert");
            }
        }
        let mut link = world.connect_link([10, 0, 0, 1]);
        let (user, _) =
            net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0).expect("register");

        // INSERT id 8 → node 0 (8 mod 2): its data version moves, the
        // peer's does not.
        let out = net::run_mutation(
            &mut link,
            101,
            user,
            MutationVerb::Insert,
            "INSERT INTO directory VALUES (8, 'entry-8')",
            600.0,
        )
        .expect("link alive");
        let MutationOutcome::Mutated {
            rows, data_version, ..
        } = out
        else {
            panic!("insert: {out:?}");
        };
        assert_eq!(rows, 1);
        assert_eq!(
            data_version,
            directory_version(&world.node_db(0)),
            "MUTATED must report the owner's post-write data version"
        );
        assert_eq!(data_version, 5, "four seed inserts plus this one");
        assert_eq!(directory_version(&world.node_db(1)), 4);

        // UPDATE id 1 and DELETE id 3 → node 1; node 0 stays untouched.
        for (qid, verb, sql) in [
            (
                102,
                MutationVerb::Update,
                "UPDATE directory SET entry = 'u1' WHERE id = 1",
            ),
            (
                103,
                MutationVerb::Delete,
                "DELETE FROM directory WHERE id = 3",
            ),
        ] {
            let out =
                net::run_mutation(&mut link, qid, user, verb, sql, 600.0).expect("link alive");
            assert_eq!(out.rows(), Some(1), "{sql}: {out:?}");
        }
        assert_eq!(directory_version(&world.node_db(0)), 5);
        assert_eq!(directory_version(&world.node_db(1)), 6);

        // The update aggregate that will gossip: the update and the
        // delete each count one update event (inserts only ensure the
        // row is tracked), and the physical row count reflects the
        // delete.
        let delta = world.node_gate(1).export_delta();
        let (_, dir) = delta
            .tables
            .iter()
            .find(|(name, _)| name == "directory")
            .expect("directory delta");
        let total_updates: f64 = dir.updates.iter().map(|(_, c)| c).sum();
        assert!(
            (total_updates - 2.0).abs() < 1e-9,
            "1 update + 1 delete, got {total_updates}"
        );
        assert_eq!(dir.rows, 3, "node 1 holds ids 1, 5, 7 after the delete");

        // Let the update window grow, then price the updated tuple on
        // its owner before and after one gossip round. Before: n is the
        // owner's local slice. After: the peer's delta raises n to the
        // global cardinality, so d = c/(N·r) drops by roughly the
        // local/global row ratio (3/8) — the write fed pricing, and the
        // aggregate rode the sync.
        world.run_for(150.0);
        // The snapshot path prices from the last-built snapshot; the
        // server's background refresher folds pending events in on a
        // cadence. Pin the refreshes here so both reads price from an
        // up-to-date view.
        world.node_db(1).refresh();
        let read = |world: &SimWorld, link: &mut MeshLink, qid| match net::run_query(
            link,
            qid,
            user,
            "SELECT * FROM directory WHERE id = 1",
            3600.0,
        )
        .expect("link alive")
        {
            QueryOutcome::Rows {
                rows, delay_secs, ..
            } => {
                assert_eq!(rows.len(), 1, "point lookup at t={}", world.now_secs());
                delay_secs
            }
            other => panic!("read id 1: {other:?}"),
        };
        let d_before = read(&world, &mut link, 201);
        assert!(
            d_before > 1.0 && d_before < 10.0,
            "pre-sync delay should be computed, not capped: {d_before}"
        );
        world.sync_now();
        world.node_db(1).refresh();
        let d_after = read(&world, &mut link, 202);
        let ratio = d_after / d_before;
        assert!(
            (0.2..0.6).contains(&ratio),
            "global n should cut the delay by ~3/8: before {d_before}, after {d_after}"
        );
        println!(
            "DIGEST cluster_write_routing {seed} {:016x}",
            world.digest()
        );
    });
}

/// The combined access+update policy is inert when the update term is
/// off: a read-only cluster run under `Hybrid(access, update)` with the
/// update term zeroed is bit-identical — digest and totals — to the
/// plain access-rate cluster, while a live update term changes the wire
/// trace and only raises prices (mirrors the shaping inertness proof).
#[test]
fn update_term_off_is_bit_identical_for_cluster_reads() {
    check(
        "update_term_off_is_bit_identical_for_cluster_reads",
        41,
        |seed| {
            use delayguard_core::{AccessDelayPolicy, GuardConfig, GuardPolicy, UpdateDelayPolicy};

            let run = |policy: GuardPolicy| {
                let mut world = SimWorld::new(
                    seed,
                    SimConfig {
                        nodes: 2,
                        guard: GuardConfig {
                            policy,
                            ..GuardConfig::paper_default()
                        },
                        gate: GateConfig {
                            gatekeeper: wide_open(),
                            ..GateConfig::default()
                        },
                        sync_interval_secs: 60.0,
                        ..SimConfig::default()
                    },
                );
                let map = world.partition_map();
                for j in 0..2 {
                    let db = world.node_db(j);
                    db.execute_at(
                        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
                        0.0,
                    )
                    .expect("create table");
                    for id in map.ids_of(j, 8) {
                        db.execute_at(
                            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                            0.0,
                        )
                        .expect("insert");
                    }
                }
                let mut link = world.connect_link([10, 0, 0, 1]);
                let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                    .expect("register");
                // Age the update window (seed inserts count as update
                // events at t = 0) so a live update term has a real
                // price, then read every id across two gossip rounds.
                world.run_for(1000.0);
                let mut total = 0.0;
                for pass in 0..2u32 {
                    for id in 0..8u64 {
                        let sql = format!("SELECT * FROM directory WHERE id = {id}");
                        let qid = 100 * (pass + 1) + id as u32;
                        match net::run_query(&mut link, qid, user, &sql, 3600.0)
                            .expect("link alive")
                        {
                            QueryOutcome::Rows { delay_secs, .. } => total += delay_secs,
                            other => panic!("id {id}: {other:?}"),
                        }
                    }
                    world.run_for(120.0);
                }
                (world.digest(), total)
            };

            let access = AccessDelayPolicy::new(1.5, 1.0);
            let (d_plain, t_plain) = run(GuardPolicy::AccessRate(access));
            let (d_off, t_off) = run(GuardPolicy::Hybrid(
                access,
                UpdateDelayPolicy::new(0.3).with_cap(0.0),
            ));
            assert_eq!(
                d_plain, d_off,
                "a zeroed update term must not perturb the cluster (seed {seed})"
            );
            assert_eq!(t_plain.to_bits(), t_off.to_bits());

            let (d_on, t_on) = run(GuardPolicy::Hybrid(
                access,
                UpdateDelayPolicy::new(0.3).with_cap(30.0),
            ));
            assert_ne!(d_plain, d_on, "a live update term must change the trace");
            println!("DIGEST cluster_hybrid_reads_update_term_off {seed} {d_plain:016x}");
            println!("DIGEST cluster_hybrid_reads_update_term_on {seed} {d_on:016x}");
            assert!(t_on > t_plain, "max-combine only raises prices");
        },
    );
}

/// A 4-node world with an access-rate guard capped at `cap_secs`, a
/// wide-open gatekeeper, minute gossip, and `rows` directory entries.
fn capped_world(seed: u64, rows: u64, cap_secs: f64) -> SimWorld {
    use delayguard_core::{AccessDelayPolicy, GuardConfig, GuardPolicy};

    let world = SimWorld::new(
        seed,
        SimConfig {
            nodes: 4,
            guard: GuardConfig::paper_default().with_policy(GuardPolicy::AccessRate(
                AccessDelayPolicy::new(1.5, 1.0).with_cap(cap_secs),
            )),
            gate: GateConfig {
                gatekeeper: wide_open(),
                ..GateConfig::default()
            },
            sync_interval_secs: 60.0,
            ..SimConfig::default()
        },
    );
    seed_directory(&world, rows);
    world
}

/// Regression: the router found the predicate by substring, so a point
/// query spelled with a newline, a tab or a trailing semicolon fell
/// through to node 0 — which does not own the row — and the client got
/// an empty result priced at zero instead of the tuple and its delay.
#[test]
fn router_routes_the_parsed_statement_whatever_its_whitespace() {
    check(
        "router_routes_the_parsed_statement_whatever_its_whitespace",
        53,
        |seed| {
            let mut world = capped_world(seed, 8, 2.0);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                .expect("registration");
            let spellings = [
                "SELECT * FROM directory\nWHERE id = 5",
                "SELECT * FROM directory\tWHERE\tid = 5",
                "select * from directory where id=5;",
            ];
            for (qid, sql) in (1u32..).zip(spellings) {
                match net::run_query(&mut link, qid, user, sql, 3600.0).expect("link alive") {
                    QueryOutcome::Rows {
                        rows, delay_secs, ..
                    } => {
                        assert_eq!(rows.len(), 1, "{sql:?} must reach the owner of id 5");
                        assert!(delay_secs > 0.0, "{sql:?} must be priced, got {delay_secs}");
                    }
                    other => panic!("{sql:?}: {other:?}"),
                }
            }
            assert_eq!(counter(&world, 1, "server_queries_admitted"), 3);
            assert_eq!(counter(&world, 0, "server_queries_admitted"), 0);
            // A compound predicate is not a point statement: node 0, which
            // does not hold id 5.
            let compound = "SELECT * FROM directory WHERE id = 5 AND entry = 'entry-5'";
            match net::run_query(&mut link, 9, user, compound, 3600.0).expect("link alive") {
                QueryOutcome::Rows { rows, .. } => assert!(rows.is_empty()),
                other => panic!("compound: {other:?}"),
            }
            assert_eq!(counter(&world, 0, "server_queries_admitted"), 1);
        },
    );
}

/// Regression: `run_until_idle` — and so `shutdown` — never returned on
/// a world with the gossip cadence running, because the cadence re-arms
/// forever. Quiescence ignores a pending tick: drain returns, and every
/// delayed tuple in flight on every node arrives at its deadline.
#[test]
fn shutdown_with_gossip_running_returns_and_delivers_every_tuple() {
    check(
        "shutdown_with_gossip_running_returns_and_delivers_every_tuple",
        59,
        |seed| {
            let cap = 5.0;
            let mut world = capped_world(seed, 16, cap);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                .expect("registration");
            // Two cold point queries per node, all in flight at once.
            let sent = world.now_secs();
            for id in 0..8u32 {
                link.send(&Frame::Query {
                    query_id: id + 1,
                    user,
                    sql: format!("SELECT * FROM directory WHERE id = {id}"),
                })
                .expect("link alive");
            }
            world.run_for(0.05);
            let waiting: usize = (0..4).map(|j| world.rows_reserved(link.id(), j)).sum();
            assert_eq!(waiting, 8, "every tuple must be on a wheel");

            world.shutdown();

            let drained_at = world.now_secs();
            assert!(drained_at - sent >= cap, "drain must wait out the delays");
            assert!(
                drained_at - sent <= cap + 2.0 * 60.0,
                "drain must not chase the gossip cadence: took {}s",
                drained_at - sent
            );
            let (mut rows, mut dones) = (0, 0);
            while let Some(arrival) = link.recv(0.0).expect("link alive") {
                match arrival.frame {
                    Frame::Row { .. } => {
                        rows += 1;
                        let waited = arrival.at_secs - sent;
                        assert!(
                            (cap - 1e-9..=cap + 0.01).contains(&waited),
                            "a cold tuple is released at its deadline, not after {waited}s"
                        );
                    }
                    Frame::Done { delay_secs, .. } => {
                        dones += 1;
                        assert!((delay_secs - cap).abs() < 1e-9, "charged {delay_secs}");
                    }
                    _ => {}
                }
            }
            assert_eq!((rows, dones), (8, 8), "every delayed tuple is delivered");
            for j in 0..4 {
                assert_eq!(world.rows_reserved(link.id(), j), 0);
            }
        },
    );
}

/// The Sybil swarm against the sharded deployment: k identities on
/// distinct /24s crawl stripes of the rank space concurrently through
/// the router of a 4-node replicated cluster — and are still charged
/// the single-node closed-form total (§2.4: parallelism buys wall time,
/// not a cheaper extraction; sharding does not change that).
#[test]
fn sybil_swarm_against_replicated_cluster_pays_the_single_node_total() {
    check(
        "sybil_swarm_against_replicated_cluster_pays_the_single_node_total",
        61,
        |seed| {
            let mut campaign = Campaign::new(seed, default_params());
            let ranks = campaign.all_ranks();
            let report = campaign.swarm_crawl(&Campaign::sybil_ips(8), &ranks);
            assert_eq!(report.identities, 8);
            assert_eq!(report.tuples, ranks.len() as u64);
            assert_eq!(report.refused_queries, 0, "gatekeeper is wide open");
            let (expected, tolerance) = (campaign.analytic_total(), campaign.tolerance());
            assert!(
                rel_err(report.total_delay_secs, expected) <= tolerance,
                "swarm total {} vs closed form {} (rel err {:.4}, tolerance {:.4})",
                report.total_delay_secs,
                expected,
                rel_err(report.total_delay_secs, expected),
                tolerance,
            );
            assert!(
                report.min_margin_secs >= -1e-6,
                "a tuple was released {}s early",
                -report.min_margin_secs
            );
            // What the swarm does buy: the stripes run side by side.
            assert!(report.wall_secs() < 0.5 * report.total_delay_secs);
        },
    );
}

/// Client-link faults on the sharded deployment: a lossy WAN link to the
/// router, cut and healed while delayed tuples sit on four wheels. After
/// drain every row reservation is back on every node's sink, and no
/// tuple whose `DONE` made it through arrived before its charged delay.
#[test]
fn lossy_partitioned_client_link_leaks_no_reservation_and_releases_nothing_early() {
    use delayguard_testkit::net::FaultPlan;
    use std::collections::BTreeMap;

    check(
        "lossy_partitioned_client_link_leaks_no_reservation_and_releases_nothing_early",
        67,
        |seed| {
            let mut world = capped_world(seed, 64, 3.0);
            let mut link = world.connect_link([10, 0, 0, 1]);
            let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
                .expect("registration");
            world.set_faults(link.id(), FaultPlan::wan().with_drops(0.15));

            let mut sent_at = BTreeMap::new();
            let mut send = |world: &SimWorld, link: &mut MeshLink, id: u32| {
                sent_at.insert(id, world.now_secs());
                link.send(&Frame::Query {
                    query_id: id,
                    user,
                    sql: format!("SELECT * FROM directory WHERE id = {id}"),
                })
                .expect("link alive");
            };
            for id in 0..32 {
                send(&world, &mut link, id);
            }
            world.run_for(0.5);
            let waiting: usize = (0..4).map(|j| world.rows_reserved(link.id(), j)).sum();
            assert!(waiting > 0, "admitted tuples must hold reservations");
            // Cut the client off with tuples on the wheels and more
            // queries piling up at the cut; heal after the first wave's
            // deadlines have passed.
            world.partition(link.id());
            for id in 32..64 {
                send(&world, &mut link, id);
            }
            world.run_for(5.0);
            world.heal(link.id());
            // Let the held second wave reach the wheels, then drain with
            // it in flight.
            world.run_for(0.5);
            world.shutdown();

            assert!(world.frames_dropped() > 0, "15% loss must drop something");
            for j in 0..4 {
                assert_eq!(
                    world.rows_reserved(link.id(), j),
                    0,
                    "node {j} still holds reservations after drain"
                );
            }
            let mut row_at = BTreeMap::new();
            let mut charged = BTreeMap::new();
            while let Some(arrival) = link.recv(0.0).expect("link alive") {
                match arrival.frame {
                    Frame::Row { query_id, .. } => {
                        row_at.insert(query_id, arrival.at_secs);
                    }
                    Frame::Done {
                        query_id,
                        delay_secs,
                        ..
                    } => {
                        charged.insert(query_id, delay_secs);
                    }
                    _ => {}
                }
            }
            let mut checked = 0;
            for (id, at) in &row_at {
                let Some(delay) = charged.get(id) else {
                    continue; // its DONE was lost
                };
                checked += 1;
                assert!(
                    at - sent_at[id] >= delay - 1e-9,
                    "tuple {id} charged {delay}s arrived after {}s",
                    at - sent_at[id]
                );
            }
            assert!(
                checked >= 16,
                "too few complete answers survived: {checked}"
            );
        },
    );
}
