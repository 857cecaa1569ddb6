//! Write-path bench: mutation throughput through the front door, the
//! read-side price of the combined access+update policy, and the
//! measured §3 stale fraction against the Eq. 11/12 closed form.
//! A full run writes `BENCH_writes.json` at the repo root (schema:
//! [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin writes
//! cargo run -p delayguard-bench --release --bin writes -- --smoke
//! ```
//!
//! Three numbers summarize the write path:
//!
//! * **Mutation qps.** Wall-clock throughput of INSERT/UPDATE/DELETE
//!   frames through the full stack — codec, gatekeeper, reserve-before-
//!   apply admission, engine, index maintenance, `MUTATED` reply.
//!   Mutations are never delayed, so this is pure processing cost.
//! * **Read overhead.** The same Zipf point-read sequence through the
//!   wire under the plain access-rate policy and under the combined
//!   `Hybrid(access, update)` policy, both worlds warmed with the same
//!   access popularity and update history. The access-rate arm prices
//!   from the packed rank table (one binary search per tuple); the
//!   hybrid arm walks both trackers and max-combines. What is timed is
//!   reads and nothing else: the worlds rebuild their snapshot only
//!   between timed windows (on the virtual clock every delayed read
//!   would otherwise age the snapshot past its bound and the "read"
//!   figure would be one rebuild per read), the in-window rebuild count
//!   is recorded and gated at zero, the arms alternate A,B,B,A…, and
//!   the reported overhead is the median of the per-pair ratios. The
//!   full-run gate is [`READ_OVERHEAD_MAX`]; wall ratios on shared CI
//!   runners are noise, so smoke records it without enforcing.
//! * **Stale fraction.** The [`StalenessCampaign`] race — a live UPDATE
//!   stream against a hottest-first extraction crawl in virtual time —
//!   must land within 10% of `stale_fraction_exact`. The race is
//!   virtual-clock deterministic, so this gate holds even in smoke.

use delayguard_bench::report::{Op::*, Report, Scope::*};
use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::policy::GuardPolicy;
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::{GuardConfig, GuardedDatabase, SnapshotPolicy};
use delayguard_server::gate::{GateConfig, MutationVerb};
use delayguard_sim::median_of;
use delayguard_storage::RowId;
use delayguard_testkit::net::{self, MutationOutcome, QueryOutcome};
use delayguard_testkit::world::{MeshLink, SimConfig, SimWorld};
use delayguard_testkit::{seed_directory, StalenessCampaign, StalenessParams};
use delayguard_workload::{Rng, Zipf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pinned seed: the bench is a measurement, not a property sweep; the
/// campaign suites cover random seeds.
const SEED: u64 = 2004;

/// Full-run gate on the median per-pair Hybrid / access-rate wall ratio.
/// The interleaved, rebuild-free comparison reads a median of
/// 0.97–1.05x over 13 full runs on the 2-thread reference host (single
/// pairs 0.69–1.42x), and 1.01–1.03x with the uniform all-at-cap sweep
/// this bench used to time: pricing is a small share of a ~5.5 us wire
/// read. 1.1x therefore holds with margin and fails once the hybrid
/// pricer costs about 5% more of a whole read than it does today.
const READ_OVERHEAD_MAX: f64 = 1.1;
/// Zipf exponent of the read worlds' warm popularity and of the timed
/// read sequence: honest-user-shaped traffic, so most reads land on
/// tuples the access term prices below its cap.
const READ_SKEW: f64 = 1.5;
/// Access units warmed into the hottest tuple.
const WARM_ACCESS_SCALE: f64 = 1000.0;
/// Update rate of the hottest-updated tuple in the read worlds, per
/// virtual second (Zipf(1) below it). Slow enough that the update term
/// outprices the access term on the most popular tuples and loses to it
/// further down, so `max(access, update)` selects both.
const WARM_UPDATE_RMAX: f64 = 0.02;

/// A simulated deployment with `rows` directory entries, a registered
/// client link, and (when `warm_secs > 0`) warmed access and update
/// trackers, so both terms price from learned rates instead of the cap.
struct Bench {
    _world: SimWorld,
    db: Arc<GuardedDatabase>,
    link: MeshLink,
    user: u64,
    next_qid: u32,
}

impl Bench {
    fn new(guard: GuardConfig, rows: u64, warm_secs: f64) -> Bench {
        let world = SimWorld::new(
            SEED,
            SimConfig {
                guard,
                gate: GateConfig {
                    // Wide open: the delay policy is the only brake.
                    gatekeeper: StalenessParams::default().gatekeeper,
                    ..GateConfig::default()
                },
                tick: Duration::from_millis(1),
                send_queue_rows: 4096,
                ..SimConfig::default()
            },
        );
        let db = world.db();
        let rids = seed_directory(&world, rows);
        if warm_secs > 0.0 && !rids.is_empty() {
            // Both read worlds get identical warm counts, so the only
            // difference between them is the pricing policy.
            let zipf = |scale: f64, exponent: f64| -> Vec<(RowId, f64)> {
                rids.iter()
                    .enumerate()
                    .map(|(i, &rid)| (rid, scale * ((i + 1) as f64).powf(-exponent)))
                    .collect()
            };
            db.warm_accesses("directory", &zipf(WARM_ACCESS_SCALE, READ_SKEW), 0.0);
            db.warm_updates("directory", &zipf(WARM_UPDATE_RMAX * warm_secs, 1.0), 0.0);
        }
        world.run_for(warm_secs.max(1.0));
        let mut world = world;
        let mut link = world.connect_link([10, 0, 0, 1]);
        let (user, _) = net::register_until_admitted(&mut world, &mut link, [0; 4], 600.0)
            .expect("registration");
        Bench {
            _world: world,
            db,
            link,
            user,
            next_qid: 1,
        }
    }

    fn qid(&mut self) -> u32 {
        let q = self.next_qid;
        self.next_qid += 1;
        q
    }

    fn mutate(&mut self, verb: MutationVerb, sql: &str) -> u32 {
        let qid = self.qid();
        match net::run_mutation(&mut self.link, qid, self.user, verb, sql, 60.0)
            .expect("link alive")
        {
            MutationOutcome::Mutated { rows, .. } => rows,
            other => panic!("{sql}: {other:?}"),
        }
    }

    fn read(&mut self, id: u64) -> f64 {
        let qid = self.qid();
        let sql = format!("SELECT * FROM directory WHERE id = {id}");
        match net::run_query(&mut self.link, qid, self.user, &sql, 365.0 * 86400.0)
            .expect("link alive")
        {
            QueryOutcome::Rows { delay_secs, .. } => delay_secs,
            other => panic!("id {id}: {other:?}"),
        }
    }
}

/// Wall-clock throughput of the mutation pipeline: `inserts` fresh rows,
/// one UPDATE per row, then DELETE of every even id — all through the
/// wire under the production hybrid policy.
struct MutationRun {
    mutations: u64,
    elapsed_secs: f64,
    qps: f64,
}

fn measure_mutations(inserts: u64) -> MutationRun {
    let policy = GuardPolicy::Hybrid(
        AccessDelayPolicy::new(1.0, 1.0),
        UpdateDelayPolicy::new(0.3).with_cap(10.0),
    );
    // Start empty: the insert leg is part of the measurement.
    let mut bench = Bench::new(GuardConfig::paper_default().with_policy(policy), 0, 0.0);
    let deletes = inserts / 2;
    let wall = Instant::now();
    for id in 0..inserts {
        let rows = bench.mutate(
            MutationVerb::Insert,
            &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
        );
        assert_eq!(rows, 1, "insert {id}");
    }
    for id in 0..inserts {
        let rows = bench.mutate(
            MutationVerb::Update,
            &format!("UPDATE directory SET entry = 'touched' WHERE id = {id}"),
        );
        assert_eq!(rows, 1, "update {id}");
    }
    for id in (0..inserts).filter(|id| id % 2 == 0).take(deletes as usize) {
        let rows = bench.mutate(
            MutationVerb::Delete,
            &format!("DELETE FROM directory WHERE id = {id}"),
        );
        assert_eq!(rows, 1, "delete {id}");
    }
    let elapsed_secs = wall.elapsed().as_secs_f64();
    let mutations = inserts * 2 + deletes;
    MutationRun {
        mutations,
        elapsed_secs,
        qps: mutations as f64 / elapsed_secs,
    }
}

/// One arm of the read comparison: a warmed world that rebuilds its
/// snapshot only when [`ReadArm::window`] says so, plus what its timed
/// windows measured.
struct ReadArm {
    bench: Bench,
    queries: u64,
    best_window_secs: f64,
    virtual_delay_secs: f64,
    /// Timed reads charged exactly the policy's cap.
    at_cap: u64,
    /// Snapshot rebuilds that landed inside a timed window.
    rebuilds: u64,
}

impl ReadArm {
    fn new(policy: GuardPolicy, rows: u64, ids: &[u64]) -> ReadArm {
        // Never stale on its own: on the virtual clock every delayed read
        // outlives the default 50 ms snapshot age, which would put one
        // rebuild inside every timed read.
        let guard = GuardConfig::paper_default()
            .with_policy(policy)
            .with_snapshot_policy(SnapshotPolicy::new(usize::MAX, 1e18));
        let mut bench = Bench::new(guard, rows, 10_000.0);
        // One untimed pass: first-touch costs (allocator, caches, link
        // buffers) belong to neither arm's windows.
        for &id in ids {
            bench.read(id);
        }
        ReadArm {
            bench,
            queries: 0,
            best_window_secs: f64::INFINITY,
            virtual_delay_secs: 0.0,
            at_cap: 0,
            rebuilds: 0,
        }
    }

    /// Fold the previous window's accesses into a fresh snapshot off the
    /// clock, then time one pass over `ids`; returns the window's wall
    /// seconds and leaves each read's charged delay in `delays`.
    fn window(&mut self, ids: &[u64], delays: &mut Vec<f64>) -> f64 {
        self.bench.db.refresh();
        let rebuilds_before = self.bench.db.snapshot_stats().rebuilds;
        delays.clear();
        let wall = Instant::now();
        for &id in ids {
            delays.push(self.bench.read(id));
        }
        let secs = wall.elapsed().as_secs_f64();
        self.rebuilds += self.bench.db.snapshot_stats().rebuilds - rebuilds_before;
        self.queries += ids.len() as u64;
        self.best_window_secs = self.best_window_secs.min(secs);
        self.virtual_delay_secs += delays.iter().sum::<f64>();
        let cap = self.bench.db.config().policy.max_tuple_delay();
        self.at_cap += delays.iter().filter(|&&d| d >= cap).count() as u64;
        secs
    }

    fn at_cap_fraction(&self) -> f64 {
        self.at_cap as f64 / self.queries as f64
    }

    fn record(&self, report: &mut Report, arm: &str, reads_per_window: u64) {
        let qps = reads_per_window as f64 / self.best_window_secs;
        eprintln!(
            "  {arm}: best window {:.4}s ({qps:.0} qps), {:.2} virtual delay-seconds charged, \
             {} of {} reads at the cap, {} in-window rebuilds",
            self.best_window_secs,
            self.virtual_delay_secs,
            self.at_cap,
            self.queries,
            self.rebuilds
        );
        for (name, value, unit) in [
            ("queries", self.queries as f64, "count"),
            ("best_batch_secs", self.best_window_secs, "s"),
            ("qps", qps, "1/s"),
            ("virtual_delay_secs", self.virtual_delay_secs, "virtual s"),
            ("rebuilds", self.rebuilds as f64, "count"),
            ("at_cap_fraction", self.at_cap_fraction(), "fraction"),
        ] {
            report.sample(&format!("reads.{arm}.{name}"), value, unit);
        }
    }
}

fn main() -> ExitCode {
    let mut report = Report::new("writes");
    let wall = Instant::now();

    let (inserts, rows, reads_per_window, pairs) = if report.smoke() {
        (256u64, 64u64, 128u64, 4u32)
    } else {
        (2048, 128, 1024, 20)
    };
    report
        .param("seed", SEED as f64)
        .param("inserts", inserts as f64)
        .param("read_rows", rows as f64)
        .param("reads_per_window", reads_per_window as f64)
        .param("read_pairs", pairs as f64);

    eprintln!("mutation pipeline, hybrid policy ({inserts} inserts + updates + deletes)");
    let mutation = measure_mutations(inserts);
    eprintln!(
        "  {} mutations in {:.3}s wall: {:.0} qps",
        mutation.mutations, mutation.elapsed_secs, mutation.qps
    );
    report
        .sample("mutations.count", mutation.mutations as f64, "count")
        .sample("mutations.elapsed_secs", mutation.elapsed_secs, "s")
        .sample("mutations.qps", mutation.qps, "1/s");

    eprintln!(
        "read path, access-rate vs combined access+update policy \
         ({rows} rows, {pairs} interleaved pairs of {reads_per_window}-read windows)"
    );
    let zipf = Zipf::new(rows, READ_SKEW);
    let mut rng = Rng::new(SEED);
    let ids: Vec<u64> = (0..reads_per_window)
        .map(|_| zipf.sample(&mut rng) - 1)
        .collect();
    let access = AccessDelayPolicy::new(1.5, 1.0);
    let mut plain = ReadArm::new(GuardPolicy::AccessRate(access), rows, &ids);
    let mut hybrid = ReadArm::new(
        GuardPolicy::Hybrid(access, UpdateDelayPolicy::new(0.3).with_cap(10.0)),
        rows,
        &ids,
    );
    let (mut plain_delays, mut hybrid_delays) = (Vec::new(), Vec::new());
    let mut ratios = Vec::new();
    let mut update_term_reads = 0u64;
    for pair in 0..pairs {
        // A,B,B,A…: neither arm always runs on the other's warm caches.
        let (plain_secs, hybrid_secs) = if pair % 2 == 0 {
            let p = plain.window(&ids, &mut plain_delays);
            (p, hybrid.window(&ids, &mut hybrid_delays))
        } else {
            let h = hybrid.window(&ids, &mut hybrid_delays);
            (plain.window(&ids, &mut plain_delays), h)
        };
        ratios.push(hybrid_secs / plain_secs);
        // Same warm state, same reads: wherever the hybrid world charged
        // more than the access-rate world, the update term was selected.
        update_term_reads += hybrid_delays
            .iter()
            .zip(&plain_delays)
            .filter(|(h, p)| h > p)
            .count() as u64;
    }
    plain.record(&mut report, "access_rate", reads_per_window);
    hybrid.record(&mut report, "hybrid", reads_per_window);
    let worst = ratios.iter().copied().fold(f64::NAN, f64::max);
    let best = ratios.iter().copied().fold(f64::NAN, f64::min);
    let overhead = median_of(ratios);
    let update_term_fraction = update_term_reads as f64 / hybrid.queries as f64;
    eprintln!(
        "  combined-policy read overhead: median {overhead:.3}x of {pairs} pairs \
         (best {best:.3}x, worst {worst:.3}x); update term selected on \
         {update_term_fraction:.2} of hybrid reads"
    );
    report
        .sample("reads.overhead", overhead, "x")
        .sample("reads.overhead_best_pair", best, "x")
        .sample("reads.overhead_worst_pair", worst, "x")
        .sample(
            "reads.hybrid.update_term_fraction",
            update_term_fraction,
            "fraction",
        );

    eprintln!("§3 staleness race (n = 512, alpha = 1, c = 0.3)");
    let mut campaign = StalenessCampaign::new(SEED, StalenessParams::default());
    let race = campaign.run();
    eprintln!(
        "  stale {}/{} = {:.4} (exact form {:.4}, S_max {:.4}); {} updates, crawl {:.1}s virtual, mean age {:.1}s",
        race.stale,
        race.n,
        race.stale_fraction,
        race.expected_fraction,
        race.smax,
        race.updates_issued,
        race.crawl_secs,
        race.mean_age_secs
    );
    let stale_err = (race.stale_fraction - race.expected_fraction).abs() / race.expected_fraction;
    let elapsed = wall.elapsed().as_secs_f64();
    eprintln!("{elapsed:.2}s wall total");

    for (name, value, unit) in [
        ("n", race.n as f64, "count"),
        ("stale_fraction", race.stale_fraction, "fraction"),
        ("expected_fraction", race.expected_fraction, "fraction"),
        ("relative_error", stale_err, "fraction"),
        ("smax", race.smax, "fraction"),
        ("updates_issued", race.updates_issued as f64, "count"),
        ("crawl_secs", race.crawl_secs, "virtual s"),
        ("total_delay_secs", race.total_delay_secs, "virtual s"),
        ("mean_age_secs", race.mean_age_secs, "virtual s"),
        ("max_age_secs", race.max_age_secs, "virtual s"),
        ("min_margin_secs", race.min_margin_secs, "virtual s"),
    ] {
        report.sample(&format!("staleness.{name}"), value, unit);
    }
    report.sample("wall_secs", elapsed, "s");

    let in_window_rebuilds = (plain.rebuilds + hybrid.rebuilds) as f64;
    let at_cap_fraction = plain.at_cap_fraction();
    report
        // The staleness race and the read worlds' prices run on the
        // virtual clock: deterministic, so enforced even in smoke.
        .gate("staleness.relative_error", stale_err, Le, 0.10, Always)
        .gate(
            "staleness.min_margin_secs",
            race.min_margin_secs,
            Ge,
            -1e-6,
            Always,
        )
        // Zero on both arms, hence equal: the ratio compares reads.
        .gate(
            "reads.in_window_rebuilds",
            in_window_rebuilds,
            Le,
            0.0,
            Always,
        )
        // The comparison is degenerate if every read pays the cap or
        // the max-combine never picks the update term.
        .gate(
            "reads.access_rate.at_cap_fraction",
            at_cap_fraction,
            Le,
            0.5,
            Always,
        )
        .gate(
            "reads.hybrid.update_term_fraction",
            update_term_fraction,
            Ge,
            0.1,
            Always,
        )
        // Wall-clock ratios are noise on shared runners: full runs only.
        .gate("reads.overhead", overhead, Le, READ_OVERHEAD_MAX, FullRun)
        .finish()
}
