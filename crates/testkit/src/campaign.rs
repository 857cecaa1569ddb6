//! §2.4 adversary campaigns in virtual time.
//!
//! A [`Campaign`] is a simulated deployment seeded as the paper's
//! running example: a directory of `n` tuples whose popularity follows a
//! Zipf distribution with exponent α, warmed into the tracker in bulk
//! (so `fmax` and the rank order are known in closed form), guarded by
//! the access-rate delay policy `d(i) = i^(α+β) / (n·fmax)`.
//!
//! With [`CampaignParams::nodes`] `> 1` the same directory is sharded
//! round-robin by key over that many nodes behind a router, each shard
//! warmed with its slice of the Zipf counts, and — when replication is
//! on — one gossip round converges every node to the global distribution
//! before any client connects:
//!
//! * **Replicated** (`sync_interval_secs > 0`): every node prices from
//!   the merged global aggregates, so every crawl pays the single-node
//!   Eq. 3 total and the median user sees the single-node Eq. 1 delay —
//!   up to the replication-lag slack ([`Campaign::tolerance`]).
//! * **Un-replicated** (`sync_interval_secs == 0`): each node prices
//!   from its local shard only, and the adversary total collapses to
//!   [`Campaign::analytic_unreplicated_total`] ≈ 1/N of the closed form
//!   — the negative control that motivates the delta-sync protocol.
//!
//! Charged totals are a function of the warmed popularity state (the
//! crawl's own accesses are a `1/seed_scale` perturbation), so they are
//! invariant to crawl order; the drivers still offer both the paper's
//! sequential order and the shard-grouped order a partition-aware
//! adversary would use.
//!
//! The drivers replay the paper's attacks end to end over the wire —
//! registration, refusal hints, per-tuple delay enforcement — and return
//! reports whose numbers can be asserted against
//! [`delayguard_core::analysis`] (Eq. 4 and the Sybil economics):
//!
//! * [`Campaign::sequential_crawl`] — one identity walks a rank list;
//!   months of simulated delay, seconds of wall clock.
//! * [`Campaign::swarm_crawl`] — k identities crawl stripes of the rank
//!   space concurrently (work-conserving, virtual-time parallel); with
//!   [`Campaign::sybil_ips`] this is the Sybil attack racing the
//!   registration interval, with [`Campaign::clustered_ips`] it is the
//!   same swarm collapsed onto one /24 for the subnet aggregation
//!   defense.
//! * [`Campaign::zipf_ranks`] — a popularity-aware workload (the
//!   *user*'s side of Eq. 4, or a smart crawler that goes for the
//!   popular head first).
//! * [`Campaign::rank_inference_crawl`] / [`Campaign::adaptive_probe_attack`]
//!   — the timing side-channel adversaries: one sorts tuples by observed
//!   response time to recover the popularity rank order (scored by
//!   Kendall tau and tail recall), the other probes a small sample to
//!   fit the delay-vs-rank curve and then aims its budget at the
//!   slow-looking (actually high-value) tail. Run them against a
//!   [`CampaignParams::sidechannel`] world with shaping off (control)
//!   and on (defended) to measure the crossover.

use crate::net::{self, NetLink, QueryOutcome};
use crate::world::{MeshLink, SimConfig, SimWorld};
use delayguard_core::access::{AccessDelayPolicy, FmaxMode};
use delayguard_core::analysis;
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::policy::GuardPolicy;
use delayguard_core::shaping::DelayShaping;
use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::StatementOutput;
use delayguard_server::gate::GateConfig;
use delayguard_server::protocol::Frame;
use delayguard_storage::RowId;
use delayguard_workload::{generalized_harmonic, Rng, Zipf};
use std::time::Duration;

/// Per-attempt timeout for a registration exchange (virtual seconds).
const REGISTER_TIMEOUT_SECS: f64 = 600.0;

/// Timeout for a single query: must exceed the largest per-tuple delay a
/// campaign can be charged (rank n at n²-ish seconds).
const QUERY_TIMEOUT_SECS: f64 = 50.0 * 86_400.0;

/// The paper's running example, parameterized.
#[derive(Debug, Clone)]
pub struct CampaignParams {
    /// Database size (tuples), ranked 1 (most popular) to `n`.
    pub n: u64,
    /// Zipf exponent of the seeded popularity distribution.
    pub alpha: f64,
    /// Delay-policy exponent: `d(i) ∝ i^(α+β)`.
    pub beta: f64,
    /// Per-tuple delay cap; `f64::INFINITY` is the uncapped §2.1 policy.
    pub cap_secs: f64,
    /// Access count of the rank-1 tuple when the campaign starts
    /// (`c_i = seed_scale · i^(−α)`). Large values make the crawl's own
    /// accesses a negligible perturbation of `fmax`.
    pub seed_scale: f64,
    /// Gatekeeper configuration (defaults to wide-open so the delay
    /// policy is the only brake; override for Sybil / subnet scenarios).
    pub gatekeeper: GatekeeperConfig,
    /// Timer-wheel tick. Campaign delays are seconds-to-hours, so a
    /// coarse tick keeps the event count proportional to queries.
    pub tick: Duration,
    /// Per-connection send-queue row cap.
    pub send_queue_rows: usize,
    /// Timing side-channel defense. Off by default so every pre-existing
    /// campaign reproduces bit-for-bit; [`Campaign::new`] folds the world
    /// seed into the jitter seed when enabled, so `TESTKIT_REPLAY`
    /// replays the exact shaped schedule too.
    pub shaping: DelayShaping,
    /// Nodes the directory is sharded over (1 = a single server).
    pub nodes: usize,
    /// Gossip cadence between nodes in virtual seconds; `0.0` disables
    /// replication (the negative control). Unused with one node.
    pub sync_interval_secs: f64,
}

impl CampaignParams {
    /// The timing side-channel world: a full-database timing sweep per
    /// test (`n = 1024` — large enough that within-bucket Kendall-τ
    /// noise, ~2/(3√n), stays well under the collapse bound), α = β = 1,
    /// a finite cap *above* the rank-`n` delay (so the unshaped control
    /// leaks every rank — no cap ties), a 200 ms wheel tick (observed
    /// times resolve individual ranks), and — when `shaped` — a geometry
    /// with edges at 8 ms / 8 s / 8000 s (γ = 1000): the ~33 hottest
    /// ranks land in the fast buckets (the median rank, ≈ 24, among
    /// them, so honest Eq. 3 costs stay bounded) and the other ~991
    /// share the slow bucket, with 10% multiplicative jitter on top.
    pub fn sidechannel(shaped: bool) -> CampaignParams {
        CampaignParams {
            n: 1024,
            alpha: 1.0,
            beta: 1.0,
            cap_secs: 8000.0,
            tick: Duration::from_millis(200),
            shaping: if shaped {
                DelayShaping::new(8000.0, 1000.0, 0.1, 0x51DE_C4A7)
            } else {
                DelayShaping::off()
            },
            // Deep-tail seeded counts must differ by ≫ 1 (the gap is
            // `seed_scale/i²` ≈ 950 at rank 1024) or the campaign's own
            // unit accesses reorder adjacent ranks mid-sweep and blur
            // the very channel under test.
            seed_scale: 1e9,
            ..CampaignParams::default()
        }
    }
}

impl Default for CampaignParams {
    fn default() -> CampaignParams {
        CampaignParams {
            n: 1100,
            alpha: 1.0,
            beta: 1.0,
            cap_secs: f64::INFINITY,
            seed_scale: 1e6,
            gatekeeper: GatekeeperConfig {
                per_user_rate: 1e9,
                per_user_burst: 1e9,
                per_subnet_rate: 1e9,
                per_subnet_burst: 1e9,
                registration: RegistrationPolicy::interval(0.0),
                storefront_query_threshold: 0,
            },
            tick: Duration::from_secs(1),
            send_queue_rows: 4096,
            shaping: DelayShaping::off(),
            nodes: 1,
            // One virtual hour: sparse enough that a 35-day campaign
            // costs hundreds of gossip rounds, tight enough that the
            // lag slack is far below the closed-form tolerance.
            sync_interval_secs: 3600.0,
        }
    }
}

/// What one crawling identity observed.
#[derive(Debug, Clone)]
pub struct CrawlReport {
    /// Queries answered with rows.
    pub queries: u64,
    /// Refusals absorbed (each followed by honoring the retry hint).
    pub refused: u64,
    /// Tuples charged across all answered queries.
    pub tuples: u64,
    /// Sum of charged delays (the server's `DONE` accounting).
    pub total_delay_secs: f64,
    /// Virtual time when the crawl started (before registration).
    pub started_secs: f64,
    /// Virtual time when the last `DONE` arrived.
    pub finished_secs: f64,
    /// Minimum over all queries of `(done − sent) − charged delay`:
    /// negative means some tuple was released early.
    pub min_margin_secs: f64,
}

impl CrawlReport {
    /// End-to-end campaign wall time in virtual seconds.
    pub fn wall_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }
}

/// What a k-identity swarm observed.
#[derive(Debug, Clone)]
pub struct SybilReport {
    /// Identities that completed registration.
    pub identities: u64,
    /// `RegistrationTooSoon` refusals absorbed while registering.
    pub registration_refusals: u64,
    /// Virtual time when the swarm started registering.
    pub started_secs: f64,
    /// Virtual time when the last identity was admitted.
    pub registration_done_secs: f64,
    /// Virtual time when the last stripe finished.
    pub finished_secs: f64,
    /// Sum of charged delays across the whole swarm.
    pub total_delay_secs: f64,
    /// Tuples charged across the whole swarm.
    pub tuples: u64,
    /// Query refusals absorbed during the crawl.
    pub refused_queries: u64,
    /// Minimum never-early margin across every query (see
    /// [`CrawlReport::min_margin_secs`]).
    pub min_margin_secs: f64,
}

impl SybilReport {
    /// End-to-end campaign wall time (registration + crawl).
    pub fn wall_secs(&self) -> f64 {
        self.finished_secs - self.started_secs
    }

    /// Time spent serially registering the swarm.
    pub fn registration_wall_secs(&self) -> f64 {
        self.registration_done_secs - self.started_secs
    }
}

/// One timed query: the true popularity rank it touched, what the server
/// *charged* (its own `DONE` accounting) and what the client *observed*
/// (`DONE` arrival minus send — the only signal a timing adversary has).
#[derive(Debug, Clone, Copy)]
pub struct Observation {
    /// True popularity rank of the queried tuple (1 = most popular).
    pub rank: u64,
    /// Server-accounted delay, in seconds (the economics signal).
    pub charged_secs: f64,
    /// Client-observed response time, in seconds (the attack signal).
    pub observed_secs: f64,
}

/// A crawl that kept per-query timing observations.
#[derive(Debug, Clone)]
pub struct ObservationReport {
    /// One entry per answered query, in issue order.
    pub observations: Vec<Observation>,
    /// Refusals absorbed (each followed by honoring the retry hint).
    pub refused: u64,
    /// Sum of charged delays across all answered queries.
    pub total_charged_secs: f64,
    /// Minimum over all queries of `observed − charged`: negative means
    /// some tuple was released early.
    pub min_margin_secs: f64,
}

impl ObservationReport {
    /// Median of the charged per-query delays (the honest-user cost
    /// statistic Eq. 3 speaks about).
    pub fn median_charged_secs(&self) -> f64 {
        assert!(!self.observations.is_empty());
        let mut d: Vec<f64> = self.observations.iter().map(|o| o.charged_secs).collect();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        d[d.len() / 2]
    }
}

/// What the rank-inference crawler recovered.
#[derive(Debug, Clone)]
pub struct RankInferenceReport {
    /// The timing sweep, one observation per rank (shuffled issue order).
    pub sweep: ObservationReport,
    /// Kendall tau-a between true rank order and observed response time:
    /// 1.0 = the timing channel leaks the full rank order, ~0 = chance.
    pub tau: f64,
    /// Fraction of the true `k` least-popular (highest-value) tuples the
    /// attacker finds among its `k` slowest-observed — its ability to aim
    /// extraction at the tail.
    pub tail_recall: f64,
    /// The `k` used for [`RankInferenceReport::tail_recall`].
    pub tail_k: usize,
}

/// What the adaptive (probe-then-target) attacker achieved.
#[derive(Debug, Clone)]
pub struct AdaptiveReport {
    /// Least-squares slope of `ln(observed)` vs `ln(assumed rank)` over
    /// the probe set: against the unshaped policy this recovers `α + β`.
    pub fitted_exponent: f64,
    /// Ranks probed in the fitting phase.
    pub probe_count: usize,
    /// Of the `k` tuples the attacker targets (slowest-observed in its
    /// full sweep), the fraction that truly belong to the value tail.
    pub tail_capture: f64,
    /// The targeting sweep (for economics accounting).
    pub sweep: ObservationReport,
}

/// Kendall tau-a between true rank and observed time over all pairs:
/// `Σ sign(Δrank)·sign(Δobserved) / C(n,2)`. Ties in either coordinate
/// contribute 0 — deterministically, with no tie-breaking heuristics to
/// smuggle rank information back in. O(n²), fine at campaign sizes.
pub fn kendall_tau(obs: &[Observation]) -> f64 {
    let n = obs.len();
    assert!(n >= 2, "tau needs at least two observations");
    let mut s: i64 = 0;
    for i in 0..n {
        for j in (i + 1)..n {
            let dr = (obs[j].rank as i64 - obs[i].rank as i64).signum();
            let dt = match obs[j]
                .observed_secs
                .partial_cmp(&obs[i].observed_secs)
                .expect("finite observations")
            {
                std::cmp::Ordering::Greater => 1,
                std::cmp::Ordering::Less => -1,
                std::cmp::Ordering::Equal => 0,
            };
            s += dr * dt;
        }
    }
    s as f64 / (n as f64 * (n - 1) as f64 / 2.0)
}

/// Tail recall: sort observations by observed time (stable, so ties keep
/// the — shuffled — issue order and cannot leak rank), take the `k`
/// slowest as the attacker's predicted value-tail, and score the overlap
/// with the true `k` largest ranks present in the sweep.
pub fn tail_recall(obs: &[Observation], k: usize) -> f64 {
    assert!(k >= 1 && k <= obs.len());
    let mut by_time: Vec<&Observation> = obs.iter().collect();
    by_time.sort_by(|a, b| {
        b.observed_secs
            .partial_cmp(&a.observed_secs)
            .expect("finite observations")
    });
    let mut ranks: Vec<u64> = obs.iter().map(|o| o.rank).collect();
    ranks.sort_unstable();
    let cutoff = ranks[ranks.len() - k];
    let hit = by_time[..k].iter().filter(|o| o.rank >= cutoff).count();
    hit as f64 / k as f64
}

/// Theil–Sen slope through `(x, y)` points — the adaptive attacker's
/// estimate of the policy exponent from a log-log fit. The median of all
/// pairwise slopes shrugs off the heavy log-scale noise in the smallest
/// rank order statistics that wrecks an ordinary least-squares fit.
pub fn theil_sen_slope(pts: &[(f64, f64)]) -> f64 {
    assert!(pts.len() >= 2, "slope needs at least two points");
    let mut slopes = Vec::with_capacity(pts.len() * (pts.len() - 1) / 2);
    for i in 0..pts.len() {
        for j in (i + 1)..pts.len() {
            let (dx, dy) = (pts[j].0 - pts[i].0, pts[j].1 - pts[i].1);
            if dx != 0.0 {
                slopes.push(dy / dx);
            }
        }
    }
    slopes.sort_by(|a, b| a.partial_cmp(b).expect("finite slopes"));
    slopes[slopes.len() / 2]
}

/// Create `directory (id INT, entry TEXT)` with its unique key index on
/// `db` and insert `(id, 'entry-<id>')` for each of `ids`, at time zero —
/// the relation every campaign, bench and wire test runs against.
/// Returns the inserted rows' ids, in `ids` order.
pub fn seed_directory_shard(db: &GuardedDatabase, ids: &[u64]) -> Vec<RowId> {
    db.execute_at(
        "CREATE TABLE directory (id INT NOT NULL, entry TEXT NOT NULL)",
        0.0,
    )
    .expect("create table");
    db.execute_at("CREATE UNIQUE INDEX directory_pk ON directory (id)", 0.0)
        .expect("create index");
    ids.iter()
        .map(|id| {
            let resp = db
                .execute_at(
                    &format!("INSERT INTO directory VALUES ({id}, 'entry-{id}')"),
                    0.0,
                )
                .expect("insert row");
            match resp.output {
                StatementOutput::Inserted { mut rids } => rids.pop().expect("one rid per insert"),
                other => panic!("unexpected insert output: {other:?}"),
            }
        })
        .collect()
}

/// Seed the paper's `directory` relation with rows `0..n` across
/// `world`, each node its shard ([`seed_directory_shard`]) — all at
/// virtual time zero. Returns each row's id on its owner, indexed by
/// `id`.
pub fn seed_directory(world: &SimWorld, n: u64) -> Vec<RowId> {
    let map = world.partition_map();
    let mut rids = vec![None; n as usize];
    for j in 0..map.nodes() {
        let ids = map.ids_of(j, n);
        let shard = seed_directory_shard(&world.node_db(j), &ids);
        for (id, rid) in ids.into_iter().zip(shard) {
            rids[id as usize] = Some(rid);
        }
    }
    rids.into_iter()
        .map(|rid| rid.expect("every id has an owner"))
        .collect()
}

/// A simulated deployment seeded as the paper's running example.
pub struct Campaign {
    world: SimWorld,
    params: CampaignParams,
    /// Row id of the rank-`i` tuple (index `i − 1`), on its owning node.
    rids: Vec<RowId>,
    rng: Rng,
    next_query_id: u32,
}

impl Campaign {
    /// Build the world, create and populate the directory table (each
    /// node its shard), and warm the popularity trackers with
    /// `c_i = seed_scale · i^(−α)` accesses per rank — all at virtual
    /// time zero — then, when replication is on, run one gossip round so
    /// the warm state converges before any client connects. Rank `i` is
    /// the row with `id = i − 1`.
    pub fn new(seed: u64, params: CampaignParams) -> Campaign {
        let policy = AccessDelayPolicy::new(params.alpha, params.beta)
            .with_cap(params.cap_secs)
            .with_fmax_mode(FmaxMode::DecayedTotal);
        // Fold the world seed into the jitter seed so different campaign
        // seeds exercise different jitter draws while one seed replays
        // bit-identically. Every node shares the folded seed — a query
        // must price identically wherever its shard lives.
        let mut shaping = params.shaping;
        if shaping.enabled {
            shaping.seed ^= seed;
        }
        let guard = GuardConfig::paper_default()
            .with_policy(GuardPolicy::AccessRate(policy))
            .with_shaping(shaping);
        let gate = GateConfig {
            gatekeeper: params.gatekeeper,
            ..GateConfig::default()
        };
        let world = SimWorld::new(
            seed,
            SimConfig {
                nodes: params.nodes,
                guard,
                gate,
                tick: params.tick,
                send_queue_rows: params.send_queue_rows,
                sync_interval_secs: params.sync_interval_secs,
                ..SimConfig::default()
            },
        );
        let rids = seed_directory(&world, params.n);
        let map = world.partition_map();
        for j in 0..params.nodes {
            let counts: Vec<(RowId, f64)> = map
                .ids_of(j, params.n)
                .into_iter()
                .map(|id| {
                    let rank = (id + 1) as f64;
                    (
                        rids[id as usize],
                        params.seed_scale * rank.powf(-params.alpha),
                    )
                })
                .collect();
            world.node_db(j).warm_accesses("directory", &counts, 0.0);
        }
        if params.nodes > 1 && params.sync_interval_secs > 0.0 {
            world.sync_now();
        }
        Campaign {
            world,
            // Independent stream from the world's fault RNG.
            rng: Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            params,
            rids,
            next_query_id: 1,
        }
    }

    /// The underlying world (digest, metrics, fault and partition
    /// control).
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// The campaign parameters.
    pub fn params(&self) -> &CampaignParams {
        &self.params
    }

    /// The `RowId` of rank `i` (1-based).
    pub fn rid_of_rank(&self, rank: u64) -> RowId {
        self.rids[(rank - 1) as usize]
    }

    // ---- closed-form expectations (Eq. 4 inputs) --------------------------

    /// The warmed tracker's max relative access frequency:
    /// `fmax = c_1 / Σ c_i = 1 / H(n, α)` exactly.
    pub fn fmax(&self) -> f64 {
        1.0 / generalized_harmonic(self.params.n, self.params.alpha)
    }

    /// The policy's delay for rank `i` (with the cap applied).
    pub fn analytic_delay_at_rank(&self, rank: u64) -> f64 {
        analysis::delay_at_rank(
            self.params.n,
            self.params.alpha,
            self.params.beta,
            self.fmax(),
            rank,
        )
        .min(self.params.cap_secs)
    }

    /// Total delay a full-crawl adversary pays (Eq. 3 / capped variant)
    /// against a single server — and against a *replicated* cluster,
    /// which prices from the same global aggregates.
    pub fn analytic_total(&self) -> f64 {
        let p = &self.params;
        if p.cap_secs.is_finite() {
            analysis::adversary_total_capped(p.n, p.alpha, p.beta, self.fmax(), p.cap_secs)
        } else {
            analysis::adversary_total(p.n, p.alpha, p.beta, self.fmax())
        }
    }

    /// The total the same crawl pays against the *un-replicated*
    /// cluster: each shard prices from its local slice only.
    pub fn analytic_unreplicated_total(&self) -> f64 {
        let p = &self.params;
        analysis::sharded_unreplicated_total(p.n, p.nodes as u64, p.alpha, p.beta)
    }

    /// Relative tolerance for closed-form assertions: the paper's 10%
    /// plus, on a replicated cluster, the replication-lag slack — between
    /// gossip rounds, up to `rate · sync_interval` crawl accesses are
    /// priced before they replicate, a perturbation relative to the
    /// weakest warm count.
    pub fn tolerance(&self) -> f64 {
        let p = &self.params;
        if p.nodes == 1 || p.sync_interval_secs <= 0.0 {
            return 0.10;
        }
        let weakest_warm = p.seed_scale * (p.n as f64).powf(-p.alpha);
        let crawl_rate = p.n as f64 / self.analytic_total();
        0.10 + analysis::replication_lag_slack(weakest_warm, crawl_rate, p.sync_interval_secs)
    }

    /// Eq. 4: adversary total over the median user's delay.
    pub fn analytic_ratio(&self) -> f64 {
        let p = &self.params;
        let dmax = p.cap_secs.is_finite().then_some(p.cap_secs);
        analysis::delay_ratio(p.n, p.alpha, p.beta, self.fmax(), dmax)
    }

    /// The rank the median user query lands on.
    pub fn median_rank(&self) -> u64 {
        analysis::median_rank_exact(self.params.n, self.params.alpha)
    }

    /// The shaping policy the world actually prices under (the params'
    /// policy with the world seed folded into the jitter seed).
    pub fn effective_shaping(&self) -> DelayShaping {
        self.world.db().config().shaping
    }

    /// Expected shaped delay for rank `i` (the raw capped Eq. 1 price
    /// through the quantization/noise term; raw when shaping is off).
    pub fn analytic_shaped_delay_at_rank(&self, rank: u64) -> f64 {
        let p = &self.params;
        analysis::shaped_delay_at_rank(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
            rank,
        )
    }

    /// Eq. 4's numerator under shaping: expected total a full-sweep
    /// adversary is charged (equals [`Campaign::analytic_total`] when
    /// shaping is off).
    pub fn analytic_shaped_total(&self) -> f64 {
        let p = &self.params;
        analysis::shaped_adversary_total(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// Eq. 3's median-user delay under shaping: expected charge of the
    /// median Zipf request.
    pub fn analytic_shaped_median_user_delay(&self) -> f64 {
        let p = &self.params;
        analysis::shaped_median_user_delay(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// The information-theoretic tau ceiling under this world's shaping:
    /// the fraction of tuple pairs whose bucket still orders them.
    pub fn analytic_tau_ceiling(&self) -> f64 {
        let p = &self.params;
        analysis::shaping_tau_ceiling(
            p.n,
            p.alpha,
            p.beta,
            self.fmax(),
            p.cap_secs,
            &self.effective_shaping(),
        )
    }

    /// The point query that touches exactly the rank-`i` tuple.
    pub fn sql_for_rank(&self, rank: u64) -> String {
        format!("SELECT * FROM directory WHERE id = {}", rank - 1)
    }

    /// Every rank, in the paper's sequential crawl order `1..=n` — which
    /// already round-robins across shards (rank `i` lives on node
    /// `(i−1) mod N`).
    pub fn all_ranks(&self) -> Vec<u64> {
        (1..=self.params.n).collect()
    }

    /// Every rank grouped by owning shard (node 0's ranks ascending,
    /// then node 1's, ...): the order a partition-aware adversary uses
    /// to drain one shard at a time.
    pub fn shard_grouped_ranks(&self) -> Vec<u64> {
        let map = self.world.partition_map();
        (0..map.nodes())
            .flat_map(|j| map.ids_of(j, self.params.n))
            .map(|id| id + 1)
            .collect()
    }

    /// `count` ranks sampled from the user's Zipf(α) popularity
    /// distribution — the workload honest users (or a popularity-aware
    /// crawler) generate. Deterministic per campaign seed.
    pub fn zipf_ranks(&mut self, count: u64) -> Vec<u64> {
        let zipf = Zipf::new(self.params.n, self.params.alpha);
        (0..count).map(|_| zipf.sample(&mut self.rng)).collect()
    }

    /// Distinct-/24 source addresses for a Sybil swarm of `k`.
    pub fn sybil_ips(k: u64) -> Vec<[u8; 4]> {
        (0..k).map(|j| [10, (j >> 8) as u8, j as u8, 1]).collect()
    }

    /// `k` addresses on one /24 (the subnet-aggregation worst case).
    pub fn clustered_ips(k: u64) -> Vec<[u8; 4]> {
        (0..k).map(|j| [10, 0, 0, (j + 1) as u8]).collect()
    }

    // ---- drivers ----------------------------------------------------------

    /// Register over `link`, honoring registration-interval hints.
    /// Returns the link, the identity, and the refusals absorbed.
    fn register(&mut self, mut link: MeshLink) -> (MeshLink, u64, u64) {
        let (user, refusals) =
            net::register_until_admitted(&mut self.world, &mut link, [0; 4], REGISTER_TIMEOUT_SECS)
                .expect("registration");
        (link, user, refusals)
    }

    fn register_link(&mut self, ip: [u8; 4]) -> (MeshLink, u64, u64) {
        let link = self.world.connect_link(ip);
        self.register(link)
    }

    /// One point query for `rank`, retried through refusals (honoring
    /// each retry hint, counting it in `refused`) until it is answered.
    fn query_rank(
        &mut self,
        link: &mut MeshLink,
        user: u64,
        rank: u64,
        refused: &mut u64,
    ) -> Answer {
        let sql = self.sql_for_rank(rank);
        loop {
            let qid = self.next_query_id;
            self.next_query_id += 1;
            match net::run_query(link, qid, user, &sql, QUERY_TIMEOUT_SECS).expect("link alive") {
                QueryOutcome::Rows {
                    rows,
                    delay_secs,
                    tuples,
                    sent_at_secs,
                    done_at_secs,
                    ..
                } => {
                    assert_eq!(rows.len(), 1, "rank {rank} must be a point lookup");
                    return Answer {
                        tuples: tuples as u64,
                        delay_secs,
                        observed_secs: done_at_secs - sent_at_secs,
                    };
                }
                QueryOutcome::Refused {
                    retry_after_secs, ..
                } => {
                    *refused += 1;
                    self.world.run_for(retry_after_secs + 1e-6);
                }
                QueryOutcome::Error { message } => panic!("rank {rank}: {message}"),
                QueryOutcome::TimedOut => panic!("rank {rank}: query timed out"),
            }
        }
    }

    /// One identity from `ip` crawls `ranks` in order (through the
    /// router, if there is one), honoring refusal hints, accumulating
    /// the serving node's own delay accounting.
    pub fn sequential_crawl(&mut self, ip: [u8; 4], ranks: &[u64]) -> CrawlReport {
        let link = self.world.connect_link(ip);
        self.crawl(link, ranks)
    }

    /// [`Campaign::sequential_crawl`] over a connection pinned straight
    /// to `node`, bypassing the router — the direct-node baseline the
    /// router hop is benchmarked against. Every rank in `ranks` must be
    /// owned by `node` (the pinned node refuses nothing, but only its
    /// own shard's rows exist there).
    pub fn direct_crawl(&mut self, node: usize, ip: [u8; 4], ranks: &[u64]) -> CrawlReport {
        let link = self.world.connect_node_link(node, ip);
        self.crawl(link, ranks)
    }

    fn crawl(&mut self, link: MeshLink, ranks: &[u64]) -> CrawlReport {
        let started_secs = self.world.now_secs();
        let (mut link, user, _) = self.register(link);
        let mut report = CrawlReport {
            queries: 0,
            refused: 0,
            tuples: 0,
            total_delay_secs: 0.0,
            started_secs,
            finished_secs: started_secs,
            min_margin_secs: f64::INFINITY,
        };
        for &rank in ranks {
            let a = self.query_rank(&mut link, user, rank, &mut report.refused);
            report.queries += 1;
            report.tuples += a.tuples;
            report.total_delay_secs += a.delay_secs;
            report.min_margin_secs = report.min_margin_secs.min(a.observed_secs - a.delay_secs);
        }
        report.finished_secs = self.world.now_secs();
        report
    }

    /// One fresh identity queries the median rank once and returns the
    /// charged delay (the median legitimate user's experience).
    pub fn median_user_delay(&mut self, ip: [u8; 4]) -> f64 {
        self.probe_delay(ip, self.median_rank())
    }

    /// One fresh identity queries `rank` once and returns the charged
    /// delay — the pricing currently in force on the owning node.
    pub fn probe_delay(&mut self, ip: [u8; 4], rank: u64) -> f64 {
        let (mut link, user, _) = self.register_link(ip);
        self.query_rank(&mut link, user, rank, &mut 0).delay_secs
    }

    /// Add `extra` decayed accesses to the rank-`rank` tuple on its
    /// owning node at the current virtual time — a traffic shift whose
    /// effect reaches every other node only through delta-sync.
    pub fn shift_traffic(&self, rank: u64, extra: f64) {
        let node = self.world.partition_map().node_for_rank(rank);
        self.world.node_db(node).warm_accesses(
            "directory",
            &[(self.rid_of_rank(rank), extra)],
            self.world.now_secs(),
        );
    }

    /// One identity from `ip` queries `ranks` in the given order, keeping
    /// a per-query [`Observation`] (true rank, server-charged delay,
    /// client-observed response time). The timing-adversary primitive:
    /// everything the attacker learns is in `observed_secs`.
    pub fn crawl_observations(&mut self, ip: [u8; 4], ranks: &[u64]) -> ObservationReport {
        let (mut link, user, _) = self.register_link(ip);
        let mut report = ObservationReport {
            observations: Vec::with_capacity(ranks.len()),
            refused: 0,
            total_charged_secs: 0.0,
            min_margin_secs: f64::INFINITY,
        };
        for &rank in ranks {
            let a = self.query_rank(&mut link, user, rank, &mut report.refused);
            report.observations.push(Observation {
                rank,
                charged_secs: a.delay_secs,
                observed_secs: a.observed_secs,
            });
            report.total_charged_secs += a.delay_secs;
            report.min_margin_secs = report.min_margin_secs.min(a.observed_secs - a.delay_secs);
        }
        report
    }

    /// The rank-inference crawler: time every tuple once (in a shuffled
    /// order, so nothing but the timing channel carries rank), then sort
    /// by observed response time and score the recovered order against
    /// the true popularity ranks with Kendall tau and tail recall
    /// (`tail_k` = the least-popular eighth of the table).
    pub fn rank_inference_crawl(&mut self, ip: [u8; 4]) -> RankInferenceReport {
        let mut order = self.all_ranks();
        self.rng.shuffle(&mut order);
        let sweep = self.crawl_observations(ip, &order);
        let tau = kendall_tau(&sweep.observations);
        let tail_k = (self.params.n as usize / 8).max(1);
        let recall = tail_recall(&sweep.observations, tail_k);
        RankInferenceReport {
            sweep,
            tau,
            tail_recall: recall,
            tail_k,
        }
    }

    /// The adaptive attacker: probe `probes` random tuples to fit the
    /// delay-vs-rank power law (log-log least squares, probes' sorted
    /// delays matched to their expected order statistics), then sweep and
    /// spend the budget on the `tail_k` slowest-looking tuples. Against
    /// the unshaped policy the fit recovers `α + β` and the targeted set
    /// is the true value tail; under shaping both collapse.
    pub fn adaptive_probe_attack(
        &mut self,
        ip: [u8; 4],
        probes: usize,
        tail_k: usize,
    ) -> AdaptiveReport {
        assert!(probes >= 2 && (probes as u64) <= self.params.n);
        let mut pool = self.all_ranks();
        self.rng.shuffle(&mut pool);
        let probe_ranks: Vec<u64> = pool[..probes].to_vec();
        let probe_obs = self.crawl_observations(ip, &probe_ranks);
        let mut sorted: Vec<f64> = probe_obs
            .observations
            .iter()
            .map(|o| o.observed_secs)
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite observations"));
        // The j-th smallest probed delay estimates the j-th order
        // statistic of a uniform rank sample: rank ≈ j·(n+1)/(s+1).
        let n = self.params.n as f64;
        let pts: Vec<(f64, f64)> = sorted
            .iter()
            .enumerate()
            .map(|(j, &d)| {
                let assumed_rank = (j as f64 + 1.0) * (n + 1.0) / (probes as f64 + 1.0);
                (assumed_rank.ln(), d.max(1e-9).ln())
            })
            .collect();
        let fitted_exponent = theil_sen_slope(&pts);
        // Targeting phase: full timing sweep, aim at the slowest-looking.
        let mut order = self.all_ranks();
        self.rng.shuffle(&mut order);
        let sweep = self.crawl_observations(ip, &order);
        let tail_capture = tail_recall(&sweep.observations, tail_k);
        AdaptiveReport {
            fitted_exponent,
            probe_count: probes,
            tail_capture,
            sweep,
        }
    }

    /// An honest user session: `count` queries sampled from the Zipf(α)
    /// popularity distribution, with per-query charge observations (for
    /// the Eq. 3 median-user economics under shaping).
    pub fn honest_zipf_session(&mut self, ip: [u8; 4], count: u64) -> ObservationReport {
        let ranks = self.zipf_ranks(count);
        self.crawl_observations(ip, &ranks)
    }

    /// `ips.len()` identities register serially (honoring the
    /// registration-interval hints — the Sybil cost), then crawl `ranks`
    /// striped round-robin: identity `j` takes `ranks[j]`,
    /// `ranks[j + k]`, ... All stripes run concurrently in virtual time;
    /// the driver is work-conserving (an identity issues its next query
    /// the instant its previous `DONE` arrives).
    pub fn swarm_crawl(&mut self, ips: &[[u8; 4]], ranks: &[u64]) -> SybilReport {
        let k = ips.len();
        assert!(k > 0, "swarm needs at least one identity");
        let started_secs = self.world.now_secs();
        let mut links = Vec::with_capacity(k);
        let mut registration_refusals = 0;
        for &ip in ips {
            let (link, user, refusals) = self.register_link(ip);
            registration_refusals += refusals;
            links.push((link, user));
        }
        let registration_done_secs = self.world.now_secs();

        let mut report = SybilReport {
            identities: k as u64,
            registration_refusals,
            started_secs,
            registration_done_secs,
            finished_secs: registration_done_secs,
            total_delay_secs: 0.0,
            tuples: 0,
            refused_queries: 0,
            min_margin_secs: f64::INFINITY,
        };
        let mut states: Vec<StripeState> = (0..k)
            .map(|j| StripeState {
                next: j,
                inflight: None,
                resume_at: 0.0,
            })
            .collect();
        // Iterations since something last happened. A healthy pass either
        // sends, consumes an arrival, or advances virtual time; if none of
        // those occur for this long, the driver is livelocked — panic with
        // the full stripe/world state instead of spinning silently.
        let mut stalled: u32 = 0;
        loop {
            if stalled > 10_000 {
                let now = self.world.now_secs();
                let snapshot: Vec<String> = states
                    .iter()
                    .enumerate()
                    .map(|(j, s)| {
                        format!(
                            "id{j}: next={} inflight={} resume_at={:.9}",
                            s.next,
                            s.inflight.is_some(),
                            s.resume_at
                        )
                    })
                    .collect();
                panic!(
                    "swarm driver livelocked at virtual t={now:.9}s:\n{}\nworld: {}",
                    snapshot.join("\n"),
                    self.world.debug_snapshot()
                );
            }
            let mut active = false;
            let mut progressed = false;
            for (j, state) in states.iter_mut().enumerate() {
                let (link, user) = &mut links[j];
                // Issue the next query if this identity is idle.
                if state.inflight.is_none()
                    && state.next < ranks.len()
                    && self.world.now_secs() >= state.resume_at
                {
                    let rank = ranks[state.next];
                    let qid = self.next_query_id;
                    self.next_query_id += 1;
                    link.send(&Frame::Query {
                        query_id: qid,
                        user: *user,
                        sql: format!("SELECT * FROM directory WHERE id = {}", rank - 1),
                    })
                    .expect("link alive");
                    state.inflight = Some(Pending {
                        qid,
                        rank,
                        sent_at_secs: self.world.now_secs(),
                    });
                    progressed = true;
                }
                if state.inflight.is_some() || state.next < ranks.len() {
                    active = true;
                }
                // Drain whatever has already arrived, without waiting.
                while let Some(arrival) = link.recv(0.0).expect("link alive") {
                    let Some(pending) = state.inflight.as_ref() else {
                        continue;
                    };
                    match arrival.frame {
                        Frame::Done {
                            query_id,
                            delay_secs,
                            tuples,
                        } if query_id == pending.qid => {
                            report.total_delay_secs += delay_secs;
                            report.tuples += tuples as u64;
                            let margin = (arrival.at_secs - pending.sent_at_secs) - delay_secs;
                            report.min_margin_secs = report.min_margin_secs.min(margin);
                            state.next += k;
                            state.inflight = None;
                            progressed = true;
                        }
                        Frame::Refused {
                            query_id,
                            retry_after_secs,
                            ..
                        } if query_id == pending.qid || query_id == 0 => {
                            report.refused_queries += 1;
                            state.resume_at = self.world.now_secs() + retry_after_secs + 1e-6;
                            state.inflight = None;
                            progressed = true;
                        }
                        Frame::Error { message, .. } => {
                            panic!("rank {}: {message}", pending.rank)
                        }
                        _ => {} // RowsBegin / Row frames
                    }
                }
            }
            if !active {
                break;
            }
            stalled = if progressed { 0 } else { stalled + 1 };
            if !progressed {
                // Nothing arrived and nobody could send: advance virtual
                // time to the next scheduled instant, or to the earliest
                // retry if the whole swarm is backing off.
                if !self.world.step_once() {
                    let now = self.world.now_secs();
                    let resume = states
                        .iter()
                        .filter(|s| s.inflight.is_none() && s.next < ranks.len())
                        .map(|s| s.resume_at)
                        .fold(f64::INFINITY, f64::min);
                    assert!(
                        resume.is_finite() && resume > now,
                        "swarm deadlocked: queries in flight but world idle"
                    );
                    self.world.run_for(resume - now);
                }
            }
        }
        report.finished_secs = self.world.now_secs();
        report
    }
}

/// What one answered point query cost.
struct Answer {
    tuples: u64,
    /// Server-accounted delay (the `DONE` frame's figure).
    delay_secs: f64,
    /// `DONE` arrival minus send.
    observed_secs: f64,
}

struct Pending {
    qid: u32,
    rank: u64,
    sent_at_secs: f64,
}

struct StripeState {
    /// Index into the shared rank list of this identity's next query.
    next: usize,
    inflight: Option<Pending>,
    /// Earliest virtual time this identity may send (refusal backoff).
    resume_at: f64,
}
