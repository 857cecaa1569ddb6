//! Cluster bench: router hop overhead and delta-sync convergence.
//! A full run writes `BENCH_cluster.json` at the repo root (schema:
//! [`delayguard_bench::report`]).
//!
//! ```text
//! cargo run -p delayguard-bench --release --bin cluster
//! cargo run -p delayguard-bench --release --bin cluster -- --smoke
//! ```
//!
//! Two questions about the sharded front door:
//!
//! * **What does the router hop cost?** The same warmed point query is
//!   crawled through a 4-node [`Campaign`] twice: through the
//!   router (client → router → owning shard) and over a connection
//!   pinned straight to the owning node (client → node). Same world,
//!   same pricing stack, same codec on every hop — the ratio isolates
//!   exactly the routing layer: registration broadcast, per-query SQL
//!   routing, per-node sink fan-out. Gate: the routed point query stays
//!   within 2x of the direct one (enforced on the full run). The same
//!   world at `nodes: 1` is also measured, as context, and every row
//!   carries the serving node's snapshot-rebuild count over the timed
//!   crawl: a direct-node figure above the single-node one with more
//!   rebuilds beside it is the *replication tax* (merged-snapshot
//!   rebuilds over all N shards' aggregates); with equal rebuild counts
//!   there is no such tax to report.
//! * **How fast does a traffic shift propagate?** After the cluster
//!   converges on the Zipf warm state, one tuple's owner absorbs a
//!   burst that doubles `fmax`. Every other node keeps charging the
//!   stale price until a gossip round folds the delta in; the bench
//!   probes a remote shard until its charged delay matches the
//!   post-shift closed form, and reports the virtual seconds the shift
//!   took to converge — which must stay within one sync interval plus
//!   the probing granularity.

use delayguard_bench::report::{Op::*, Report, Scope::*};
use delayguard_core::analysis;
use delayguard_testkit::campaign::{Campaign, CampaignParams, CrawlReport};
use delayguard_workload::generalized_harmonic;
use std::process::ExitCode;
use std::time::Instant;

/// Timing repetitions; the minimum per-query time is reported.
const REPS: usize = 3;
/// Nodes in the sharded world.
const NODES: usize = 4;
/// Gossip cadence for the convergence measurement (virtual seconds).
const SYNC_INTERVAL_SECS: f64 = 60.0;
/// Burst size for the traffic shift, in units of `seed_scale` (1.0
/// doubles the top count, so `fmax` moves from `1/H` to `2/(H+1)`).
const BOOST_SCALE: f64 = 1.0;
/// A probe counts as converged when the charged delay is within this
/// relative error of the post-shift closed form.
const CONVERGED_REL_ERR: f64 = 0.01;

#[derive(Debug, Clone, Copy)]
struct Timing {
    queries: u64,
    /// Wall-clock seconds for the whole crawl (best of [`REPS`]).
    wall_secs: f64,
    /// Snapshot rebuilds on the serving node during that crawl.
    rebuilds: u64,
}

impl Timing {
    fn per_query_secs(self) -> f64 {
        self.wall_secs / self.queries as f64
    }
}

fn main() -> ExitCode {
    let mut report = Report::new("cluster");
    let (n, queries) = if report.smoke() {
        (300, 150u64)
    } else {
        (1100, 1500u64)
    };
    eprintln!("cluster bench: n={n}, {NODES} nodes, {queries} point queries");

    // ---- router hop overhead ------------------------------------------
    // The same rank-1 point query, repeated, against the same warmed
    // cluster: routed vs pinned-to-owner. Fresh identity per rep; the
    // query's virtual delay costs no wall clock. Gossip is paused for
    // the timing — the crawl spans hours of virtual time, and
    // background delta folds would otherwise swamp the hop being
    // measured (replication cost is the second metric's job).
    let ranks = vec![1u64; queries as usize];

    let mut cluster = Campaign::new(1, params(n, NODES));
    cluster.world().set_sync_enabled(false);
    // Interleave the reps: every crawl leaves its connection open (as a
    // real client might), so alternating keeps the per-step sink-scan
    // load balanced between the two sides.
    let mut routed = None;
    let mut direct = None;
    for rep in 1..=REPS as u8 {
        let t = timed_crawl(&mut cluster, queries, |c| {
            c.sequential_crawl([10, 0, 0, rep], &ranks)
        });
        routed = Some(min_timing(routed, t));
        let t = timed_crawl(&mut cluster, queries, |c| {
            c.direct_crawl(0, [10, 1, 0, rep], &ranks)
        });
        direct = Some(min_timing(direct, t));
    }
    let (routed, direct) = (routed.unwrap(), direct.unwrap());

    // Context: the same crawl against the same world with one node
    // owning the whole relation (no router, no replicas).
    let mut single = Campaign::new(1, params(n, 1));
    let mut single_node = None;
    for rep in 1..=REPS as u8 {
        let t = timed_crawl(&mut single, queries, |c| {
            c.sequential_crawl([10, 2, 0, rep], &ranks)
        });
        single_node = Some(min_timing(single_node, t));
    }
    let single_node = single_node.unwrap();

    let ratio = routed.per_query_secs() / direct.per_query_secs().max(1e-12);
    eprintln!(
        "  point query: {:.1}us routed / {:.1}us direct node = {ratio:.2}x; \
         {:.1}us single-node world; snapshot rebuilds \
         {} routed / {} direct / {} single",
        routed.per_query_secs() * 1e6,
        direct.per_query_secs() * 1e6,
        single_node.per_query_secs() * 1e6,
        routed.rebuilds,
        direct.rebuilds,
        single_node.rebuilds,
    );

    // ---- delta-sync convergence after a traffic shift -----------------
    // Rank 1 lives on node 0; rank 2 lives on node 1. Burst rank 1,
    // then probe rank 2 (priced by node 1) until node 1's charged delay
    // reflects the doubled fmax it can only have learned via gossip.
    let mut campaign = Campaign::new(2, params(n, NODES));
    let base = campaign.params().clone();
    let harmonic = generalized_harmonic(base.n, base.alpha);
    let fmax_post = (1.0 + BOOST_SCALE) / (harmonic + BOOST_SCALE);
    let expected_pre = campaign.analytic_delay_at_rank(2);
    let expected_post = analysis::delay_at_rank(base.n, base.alpha, base.beta, fmax_post, 2);
    let boost = BOOST_SCALE * base.seed_scale;

    let pre = campaign.probe_delay([10, 3, 0, 1], 2);
    assert!(
        rel_err(pre, expected_pre) <= CONVERGED_REL_ERR,
        "pre-shift probe {pre} vs closed form {expected_pre}"
    );

    let shifted_at = campaign.world().now_secs();
    campaign.shift_traffic(1, boost);
    let probe_step = SYNC_INTERVAL_SECS / 8.0;
    let deadline = shifted_at + 4.0 * SYNC_INTERVAL_SECS;
    let mut probes = 0u64;
    // A shift that never converges runs into the deadline and fails
    // the gate below with the time it was given.
    let converged_secs = loop {
        campaign.world().run_for(probe_step);
        probes += 1;
        let d = campaign.probe_delay([10, 3, (probes >> 8) as u8, probes as u8], 2);
        let now = campaign.world().now_secs();
        if rel_err(d, expected_post) <= CONVERGED_REL_ERR || now >= deadline {
            break now - shifted_at;
        }
    };
    eprintln!(
        "  traffic shift converged in {converged_secs:.1} virtual secs \
         ({probes} probes, sync interval {SYNC_INTERVAL_SECS:.0}s)"
    );

    report
        .param("nodes", NODES as f64)
        .param("rows", n as f64)
        .param("point_queries", queries as f64)
        .param("sync_interval_secs", SYNC_INTERVAL_SECS);
    let rebuilds = |t: Timing| t.rebuilds as f64;
    for (name, value, unit) in [
        ("routed_per_query_secs", routed.per_query_secs(), "s"),
        ("direct_node_per_query_secs", direct.per_query_secs(), "s"),
        (
            "single_node_world_per_query_secs",
            single_node.per_query_secs(),
            "s",
        ),
        ("routed_over_direct_node", ratio, "x"),
        ("routed_snapshot_rebuilds", rebuilds(routed), "count"),
        ("direct_node_snapshot_rebuilds", rebuilds(direct), "count"),
        (
            "single_node_world_snapshot_rebuilds",
            rebuilds(single_node),
            "count",
        ),
        (
            "shift_convergence_virtual_secs",
            converged_secs,
            "virtual s",
        ),
        ("shift_convergence_probes", probes as f64, "count"),
    ] {
        report.sample(name, value, unit);
    }
    // Convergence is bounded by the next gossip tick plus the probing
    // granularity — structural, so always enforced.
    let converge_max = SYNC_INTERVAL_SECS + 2.0 * probe_step;
    report
        .gate(
            "shift_convergence_virtual_secs",
            converged_secs,
            Le,
            converge_max,
            Always,
        )
        .gate("routed_over_direct_node", ratio, Le, 2.0, FullRun)
        .finish()
}

fn params(n: u64, nodes: usize) -> CampaignParams {
    CampaignParams {
        n,
        nodes,
        sync_interval_secs: SYNC_INTERVAL_SECS,
        ..CampaignParams::default()
    }
}

/// Time one crawl of `queries` point queries for rank 1 — served by
/// node 0 in every world — and count that node's snapshot rebuilds.
fn timed_crawl(
    campaign: &mut Campaign,
    queries: u64,
    crawl: impl FnOnce(&mut Campaign) -> CrawlReport,
) -> Timing {
    let rebuilds = |c: &Campaign| c.world().db().snapshot_stats().rebuilds;
    let before = rebuilds(campaign);
    let started = Instant::now();
    let report = crawl(campaign);
    let wall_secs = started.elapsed().as_secs_f64();
    assert_eq!(report.queries, queries);
    assert_eq!(report.refused, 0, "gatekeeper is wide open");
    Timing {
        queries,
        wall_secs,
        rebuilds: rebuilds(campaign) - before,
    }
}

fn rel_err(measured: f64, expected: f64) -> f64 {
    (measured - expected).abs() / expected
}

fn min_timing(best: Option<Timing>, t: Timing) -> Timing {
    match best {
        Some(b) if b.wall_secs <= t.wall_secs => b,
        _ => t,
    }
}
