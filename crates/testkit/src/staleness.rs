//! §3 staleness campaigns: a live update stream raced against an
//! extraction crawl, in virtual time.
//!
//! The paper's second defense axis prices tuples by *update* rate
//! (Eq. 9, `d(i) = (c/N)·i^α / r_max`): hot-updated tuples come back
//! fast, cold ones slowly — so by the time a crawler has dragged the
//! whole database out, the head of the update distribution has moved on
//! and the copy is stale. Eq. 11/12 give the closed-form maximum stale
//! fraction `S_max`; this module measures it end to end.
//!
//! A [`StalenessCampaign`] builds the usual simulated deployment with
//! the combined access+update policy (access term zeroed so the update
//! term is the whole price), warms the update tracker so every rank's
//! estimated rate equals its true Zipf(α) rate, then races two clients
//! through the real front door:
//!
//! * a **crawler** extracting every tuple hottest-update-first (the
//!   order that maximizes staleness, and the one §3's crossover math
//!   assumes), and
//! * an **updater** issuing real `UPDATE` statements through the new
//!   mutation frames, each rank on its own deterministic period
//!   `1/r_i` — phase-locked to the crawl start so the measured stale
//!   set matches the closed form instead of a randomized upper bound.
//!
//! Staleness is judged on the *extracted bytes*: a tuple is stale iff
//! the value the crawler walked away with differs from the value the
//! updater had committed by the end of the crawl. The report also
//! carries per-tuple age-of-information (how long before crawl end each
//! stale value was captured), so tests can assert both the fraction and
//! the freshness profile against [`delayguard_core::analysis`].

use crate::campaign::seed_directory;
use crate::net::{self, MutationOutcome, NetLink};
use crate::world::{MeshLink, SimConfig, SimWorld};
use delayguard_core::access::AccessDelayPolicy;
use delayguard_core::analysis;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::GuardPolicy;
use delayguard_core::update::UpdateDelayPolicy;
use delayguard_core::GuardConfig;
use delayguard_server::gate::MutationVerb;
use delayguard_server::protocol::Frame;
use delayguard_storage::{RowId, Value};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Duration;

/// Per-attempt timeout for a registration exchange (virtual seconds).
const REGISTER_TIMEOUT_SECS: f64 = 600.0;

/// Timeout for one mutation round trip: mutations are not delayed, so
/// anything beyond transport jitter means the world wedged.
const MUTATION_TIMEOUT_SECS: f64 = 60.0;

/// The §3 running example, parameterized.
#[derive(Debug, Clone)]
pub struct StalenessParams {
    /// Database size (tuples), ranked 1 (hottest-updated) to `n`.
    pub n: u64,
    /// Zipf exponent of the *update* distribution: rank `i` is updated
    /// at rate `r_i = r_max · i^(−α)`.
    pub alpha: f64,
    /// Eq. 9 delay scale `c` (the fraction of an update period a
    /// tuple's extraction delay represents).
    pub c: f64,
    /// Update rate of the hottest tuple, updates per virtual second.
    pub rmax: f64,
    /// Virtual seconds of update history warmed into the tracker before
    /// the crawl: with counts `r_i · warm_secs` recorded at time zero,
    /// the tracker's estimated rate at crawl start is `r_i` exactly.
    pub warm_secs: f64,
    /// Gatekeeper configuration (wide-open by default so the update-rate
    /// policy is the only brake).
    pub gatekeeper: GatekeeperConfig,
    /// Timer-wheel tick. Eq. 9 delays are milliseconds-to-subsecond at
    /// the default scale, so the tick must be fine or rounding distorts
    /// the measured total.
    pub tick: Duration,
    /// Per-connection send-queue row cap.
    pub send_queue_rows: usize,
}

impl Default for StalenessParams {
    /// `n = 512`, `α = 1`, `c = 0.3`, `r_max = 2/s`: the crawl takes
    /// `d_total = (c/n)·Σi^α / r_max ≈ 38.5` virtual seconds and the
    /// closed form predicts `S ≈ 0.15` — comfortably interior, so both
    /// under- and over-shoot are detectable.
    fn default() -> StalenessParams {
        StalenessParams {
            n: 512,
            alpha: 1.0,
            c: 0.3,
            rmax: 2.0,
            warm_secs: 40_000.0,
            gatekeeper: GatekeeperConfig {
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                registration: RegistrationPolicy::interval(0.0),
                storefront_query_threshold: 0,
            },
            tick: Duration::from_millis(1),
            send_queue_rows: 4096,
        }
    }
}

/// What the race measured.
#[derive(Debug, Clone)]
pub struct StalenessReport {
    /// Tuples extracted (= `n`).
    pub n: u64,
    /// Crawl wall time in virtual seconds (first query sent to last
    /// `DONE`).
    pub crawl_secs: f64,
    /// Sum of server-charged delays across the crawl.
    pub total_delay_secs: f64,
    /// `UPDATE` statements the updater pushed through the front door.
    pub updates_issued: u64,
    /// Extracted tuples whose bytes differ from the committed value at
    /// crawl end.
    pub stale: u64,
    /// `stale / n`.
    pub stale_fraction: f64,
    /// Eq. 11/12 exact closed form
    /// ([`analysis::stale_fraction_exact`]) for these parameters.
    pub expected_fraction: f64,
    /// Eq. 12 asymptotic `S_max` ([`analysis::smax_asymptotic`]).
    pub smax: f64,
    /// Mean age-of-information of the stale tuples: crawl end minus the
    /// virtual time their (already superseded) value was captured.
    pub mean_age_secs: f64,
    /// Maximum age-of-information over the stale tuples.
    pub max_age_secs: f64,
    /// Minimum over all queries of `(done − sent) − charged delay`:
    /// negative means some tuple was released early.
    pub min_margin_secs: f64,
}

/// A simulated deployment seeded as the §3 running example.
pub struct StalenessCampaign {
    world: SimWorld,
    params: StalenessParams,
    rids: Vec<RowId>,
}

impl StalenessCampaign {
    /// Build the world with the combined access+update policy (access
    /// term capped at zero so Eq. 9 is the whole price), create and
    /// populate the directory, and warm the update tracker with
    /// `r_i · warm_secs` events per rank at virtual time zero.
    pub fn new(seed: u64, params: StalenessParams) -> StalenessCampaign {
        // The combined policy exercises the same max-combine path a
        // production hybrid deployment runs; the zero access cap makes
        // the update term the unique maximum for every tuple.
        let access = AccessDelayPolicy::new(1.0, 1.0).with_cap(0.0);
        let update = UpdateDelayPolicy::new(params.c).with_cap(3600.0);
        let guard = GuardConfig::paper_default().with_policy(GuardPolicy::Hybrid(access, update));
        let gate = delayguard_server::gate::GateConfig {
            gatekeeper: params.gatekeeper,
            ..delayguard_server::gate::GateConfig::default()
        };
        let world = SimWorld::new(
            seed,
            SimConfig {
                guard,
                gate,
                tick: params.tick,
                send_queue_rows: params.send_queue_rows,
                ..SimConfig::default()
            },
        );
        let rids = seed_directory(&world, params.n);
        let counts: Vec<(RowId, f64)> = rids
            .iter()
            .enumerate()
            .map(|(i, &rid)| {
                let rank = (i + 1) as f64;
                let rate = params.rmax * rank.powf(-params.alpha);
                (rid, rate * params.warm_secs)
            })
            .collect();
        world.db().warm_updates("directory", &counts, 0.0);
        StalenessCampaign {
            world,
            params,
            rids,
        }
    }

    /// The underlying world (digest, metrics, fault control).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The campaign parameters.
    pub fn params(&self) -> &StalenessParams {
        &self.params
    }

    /// The `RowId` of rank `i` (1-based).
    pub fn rid_of_rank(&self, rank: u64) -> RowId {
        self.rids[(rank - 1) as usize]
    }

    /// Eq. 9 price of rank `i` under the warmed tracker.
    pub fn analytic_delay_at_rank(&self, rank: u64) -> f64 {
        let p = &self.params;
        let rate = p.rmax * (rank as f64).powf(-p.alpha);
        p.c / (p.n as f64 * rate)
    }

    /// The closed-form total a full hottest-first crawl pays.
    pub fn analytic_total(&self) -> f64 {
        (1..=self.params.n)
            .map(|i| self.analytic_delay_at_rank(i))
            .sum()
    }

    /// Race the extraction crawl against the live update stream and
    /// measure what fraction of the extracted copy is stale at the end.
    pub fn run(&mut self) -> StalenessReport {
        let p = self.params.clone();
        // Age the warm counts so estimated rate = true rate at start.
        self.world.run_for(p.warm_secs);

        let mut crawl_link = self.world.connect_link([10, 0, 0, 1]);
        let (crawl_user, _) = net::register_until_admitted(
            &mut self.world,
            &mut crawl_link,
            [0; 4],
            REGISTER_TIMEOUT_SECS,
        )
        .expect("crawler registration");
        let mut upd_link = self.world.connect_link([10, 0, 1, 1]);
        let (upd_user, _) = net::register_until_admitted(
            &mut self.world,
            &mut upd_link,
            [0; 4],
            REGISTER_TIMEOUT_SECS,
        )
        .expect("updater registration");

        let crawl_start = crawl_link.now_secs();
        // The update schedule: rank i fires at crawl_start + k/r_i for
        // k = 1, 2, … — deterministic phase zero. (A random phase per
        // tuple is the *average-case* adversary; §3's crossover bound
        // is the phase-aligned schedule measured here.)
        let period = |rank: u64| (rank as f64).powf(p.alpha) / p.rmax;
        let due_nanos =
            |rank: u64, k: u64| ((crawl_start + k as f64 * period(rank)) * 1e9).round() as u64;
        let mut schedule: BinaryHeap<Reverse<(u64, u64)>> = (1..=p.n)
            .map(|rank| Reverse((due_nanos(rank, 1), rank)))
            .collect();
        let mut fired = vec![0u64; p.n as usize];
        let mut extracted: Vec<Option<(f64, String)>> = vec![None; p.n as usize];

        let mut updates_issued = 0u64;
        let mut next_qid: u32 = 1;
        let mut total_delay_secs = 0.0;
        let mut min_margin_secs = f64::INFINITY;
        let mut next_rank = 1u64;
        let mut in_flight: Option<(u64, u32, f64)> = None; // (rank, qid, sent_at)
        let mut idle_passes = 0u32;

        let issue_update = |world: &SimWorld, link: &mut MeshLink, rank: u64, k: u64, qid: u32| {
            let sql = format!(
                "UPDATE directory SET entry = 'u{k}' WHERE id = {}",
                rank - 1
            );
            match net::run_mutation(
                link,
                qid,
                upd_user,
                MutationVerb::Update,
                &sql,
                MUTATION_TIMEOUT_SECS,
            )
            .expect("updater link alive")
            {
                MutationOutcome::Mutated { rows: 1, .. } => {}
                other => panic!(
                    "update rank {rank} k {k} at t={}: {other:?}",
                    world.now_secs()
                ),
            }
        };

        loop {
            // Fire every update that has come due. Clock advances only
            // inside recv below, and those waits are bounded by the next
            // due time, so no update ever fires late by more than the
            // mutation round trip (one tick).
            while let Some(&Reverse((due, rank))) = schedule.peek() {
                if due as f64 / 1e9 > self.world.now_secs() + 1e-9 {
                    break;
                }
                schedule.pop();
                let k = fired[(rank - 1) as usize] + 1;
                fired[(rank - 1) as usize] = k;
                let qid = next_qid;
                next_qid += 1;
                issue_update(&self.world, &mut upd_link, rank, k, qid);
                updates_issued += 1;
                schedule.push(Reverse((due_nanos(rank, k + 1), rank)));
                idle_passes = 0;
            }
            if in_flight.is_none() {
                if next_rank > p.n {
                    break;
                }
                let qid = next_qid;
                next_qid += 1;
                let sql = format!("SELECT * FROM directory WHERE id = {}", next_rank - 1);
                crawl_link
                    .send(&Frame::Query {
                        query_id: qid,
                        user: crawl_user,
                        sql,
                    })
                    .expect("crawler link alive");
                in_flight = Some((next_rank, qid, crawl_link.now_secs()));
                next_rank += 1;
            }
            // Wait for crawler frames, but never past the next due
            // update (the rank-n period bounds the wait regardless).
            let wait = match schedule.peek() {
                Some(&Reverse((due, _))) => (due as f64 / 1e9 - self.world.now_secs()).max(0.0),
                None => 1.0,
            };
            let (rank, qid, sent_at) = in_flight.expect("query in flight");
            match crawl_link.recv(wait).expect("crawler link alive") {
                Some(arrival) => {
                    idle_passes = 0;
                    match arrival.frame {
                        Frame::Row { query_id, row, .. } if query_id == qid => {
                            let entry = match row.get(1) {
                                Some(Value::Text(s)) => s.clone(),
                                other => panic!("rank {rank}: bad entry column {other:?}"),
                            };
                            extracted[(rank - 1) as usize] = Some((arrival.at_secs, entry));
                        }
                        Frame::Done {
                            query_id,
                            delay_secs,
                            ..
                        } if query_id == qid => {
                            assert!(
                                extracted[(rank - 1) as usize].is_some(),
                                "rank {rank} finished without a row"
                            );
                            total_delay_secs += delay_secs;
                            let margin = (arrival.at_secs - sent_at) - delay_secs;
                            min_margin_secs = min_margin_secs.min(margin);
                            in_flight = None;
                        }
                        Frame::Refused { reason, .. } => {
                            panic!("rank {rank} refused: {reason:?}")
                        }
                        Frame::Error { message, .. } => {
                            panic!("rank {rank} failed: {message}")
                        }
                        _ => {}
                    }
                }
                None => {
                    idle_passes += 1;
                    assert!(
                        idle_passes < 10_000,
                        "staleness campaign wedged at t={} rank {rank}:\n{}",
                        self.world.now_secs(),
                        self.world.debug_snapshot()
                    );
                }
            }
        }
        let t_end = self.world.now_secs();

        // Catch-up: an update due in the same tick the last row was
        // released may still be queued — it belongs to the ≤ t_end
        // window, so fold it into the final state before judging.
        while let Some(&Reverse((due, rank))) = schedule.peek() {
            if due as f64 / 1e9 > t_end + 1e-9 {
                break;
            }
            schedule.pop();
            let k = fired[(rank - 1) as usize] + 1;
            fired[(rank - 1) as usize] = k;
            let qid = next_qid;
            next_qid += 1;
            issue_update(&self.world, &mut upd_link, rank, k, qid);
            updates_issued += 1;
            schedule.push(Reverse((due_nanos(rank, k + 1), rank)));
        }

        // Judge staleness on the bytes: extracted value vs the value the
        // updater had committed by crawl end.
        let mut stale = 0u64;
        let mut ages = Vec::new();
        for rank in 1..=p.n {
            let idx = (rank - 1) as usize;
            let (at_secs, entry) = extracted[idx].as_ref().expect("every rank extracted");
            let k = fired[idx];
            let current = if k == 0 {
                format!("entry-{}", rank - 1)
            } else {
                format!("u{k}")
            };
            if *entry != current {
                stale += 1;
                ages.push(t_end - at_secs);
            }
        }
        let mean_age_secs = if ages.is_empty() {
            0.0
        } else {
            ages.iter().sum::<f64>() / ages.len() as f64
        };
        let max_age_secs = ages.iter().copied().fold(0.0, f64::max);

        StalenessReport {
            n: p.n,
            crawl_secs: t_end - crawl_start,
            total_delay_secs,
            updates_issued,
            stale,
            stale_fraction: stale as f64 / p.n as f64,
            expected_fraction: analysis::stale_fraction_exact(p.n, p.alpha, p.c),
            smax: analysis::smax_asymptotic(p.alpha, p.c),
            mean_age_secs,
            max_age_secs,
            min_margin_secs,
        }
    }
}
