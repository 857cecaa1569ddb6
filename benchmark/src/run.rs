//! One process invocation: set up, warm up, run the trials of one
//! workload with tracing off or on, and fold what the connections saw
//! into the named metrics.

use crate::harness::{self, Bed, Conn};
use crate::loadgen::{
    closed_trial, open_trial, ConnTrial, Failures, Kind, Limit, MixedShared, OpRec,
};
use crate::metrics::PER_LAYER;
use crate::probes;
use crate::report::{Json, Metric, RunResult};
use crate::stats::highest_supported_tail;
use crate::workloads::{
    select_sql, stream_seed, Gen, Primary, Role, Spec, WriteGen, STREAM_TRIAL0,
};
use delayguard_server::protocol::Frame;
use delayguard_sim::{MetricValue, Quantiles};
use delayguard_storage::Value;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How much of everything one invocation does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Seconds of measured traffic, split evenly over the trials, each
    /// of which sets up a server of its own.
    pub seconds: f64,
    pub trials: usize,
}

impl Plan {
    /// The shape the driver's `--seconds` asks for.
    pub fn full(seconds: f64, spec: &Spec) -> Plan {
        Plan {
            seconds,
            trials: spec.trials,
        }
    }

    /// `--smoke`: everything once, one trial of one second.
    pub fn smoke() -> Plan {
        Plan {
            seconds: 1.0,
            trials: 1,
        }
    }
}

/// Where result files go: `out/` inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A generator open loop's lag p99 above this marks the trial stalled:
/// the machine, not the server, set its tail.
const STALL_LAG_US: f64 = 5_000.0;

/// At most this many spans per connection go to the trace file.
const TRACE_SPANS_PER_CONN: usize = 20_000;

/// Run every connection of the workload for one trial, each on its own
/// client thread, all released together.
fn run_trial(
    spec: &Spec,
    conns: &mut [Conn],
    gens: &mut [Gen],
    mixed: Option<&MixedShared>,
    limit: Option<Duration>,
    traced: bool,
) -> Vec<ConnTrial> {
    let start = Barrier::new(conns.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(gens.iter_mut())
            .zip(spec.roles)
            .map(|((conn, gen), role)| {
                let start = &start;
                // No duration means the warm-up: a fixed count of ops.
                let limit = limit.map_or(Limit::Ops(role.warmup_ops()), Limit::Time);
                scope.spawn(move || match (*role, gen) {
                    (Role::OpenReads { per_sec }, Gen::Read(gen)) => {
                        let ramp = Duration::from_secs_f64(spec.policy.cap_secs());
                        open_trial(conn, gen, per_sec, limit, ramp, traced)
                    }
                    (Role::Reads { window, .. } | Role::Writes { window }, gen) => {
                        closed_trial(conn, gen, window, limit, traced, mixed, start)
                    }
                    (Role::OpenReads { .. }, Gen::Write(_)) => {
                        unreachable!("open loops only read")
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// What one trial measured, from both sides of the traffic.
#[derive(Debug, Default, Clone)]
struct TrialSummary {
    reads_per_s: f64,
    read_rows_per_s: f64,
    writes_per_s: f64,
    write_rows_per_s: f64,
    /// Lateness of every completed read / write, in µs.
    read_late_us: Vec<f64>,
    write_late_us: Vec<f64>,
    lag_us: Vec<f64>,
    bytes_per_s: f64,
    attempted: u64,
    fail: Failures,
}

/// Throughput is read off the time each twentieth of a trial's ops took
/// to complete, and reported as the median of those rates: on a small
/// shared machine a stall of tens of milliseconds moves a mean by several
/// percent and a median not at all.
const BLOCKS: usize = 20;

/// `(ops, rows)` per second of the reads (or the writes) completed inside
/// the counting window on every connection of a trial.
fn rates(trials: &[ConnTrial], reads: bool) -> (f64, f64) {
    let mut done: Vec<(u64, u32)> = trials
        .iter()
        .flat_map(|t| {
            t.recs
                .iter()
                .filter(move |r| (r.kind == Kind::Read) == reads)
                .filter(move |r| (t.start_ns..t.end_ns).contains(&r.done_ns))
                .map(|r| (r.done_ns, r.got_rows))
        })
        .collect();
    done.sort_unstable();
    let block = (done.len() / BLOCKS).max(1);
    let (mut ops, mut rows) = (Vec::new(), Vec::new());
    for ends in done.chunks_exact(block).collect::<Vec<_>>().windows(2) {
        let secs = (ends[1][block - 1].0 - ends[0][block - 1].0) as f64 / 1e9;
        if secs > 0.0 {
            ops.push(block as f64 / secs);
            rows.push(ends[1].iter().map(|d| f64::from(d.1)).sum::<f64>() / secs);
        }
    }
    (p50(ops.into_iter()), p50(rows.into_iter()))
}

fn summarize(trials: &[ConnTrial]) -> TrialSummary {
    let mut s = TrialSummary::default();
    for t in trials {
        s.attempted += t.recs.len() as u64;
        s.fail.add(&t.fail);
        s.bytes_per_s += t.bytes_in as f64 / (t.span_ns as f64 / 1e9);
        s.lag_us.extend(t.lag_ns.iter().map(|&l| l as f64 / 1e3));
        for r in t.recs.iter().filter(|r| r.done_ns != 0) {
            let late_us = r.lateness_ns() as f64 / 1e3;
            match r.kind {
                Kind::Read => s.read_late_us.push(late_us),
                Kind::Write(_) => s.write_late_us.push(late_us),
            }
        }
    }
    (s.reads_per_s, s.read_rows_per_s) = rates(trials, true);
    (s.writes_per_s, s.write_rows_per_s) = rates(trials, false);
    s
}

impl TrialSummary {
    fn primary(&self, spec: &Spec) -> (f64, f64, &[f64]) {
        match spec.primary {
            Primary::Reads => (self.reads_per_s, self.read_rows_per_s, &self.read_late_us),
            Primary::Writes => (
                self.writes_per_s,
                self.write_rows_per_s,
                &self.write_late_us,
            ),
        }
    }
}

fn p50(samples: impl Iterator<Item = f64>) -> f64 {
    Quantiles::of(samples.collect()).median()
}

/// After a mixed workload: read the whole table back and compare it
/// with the writer's model. Returns `(queries sent, failures)`.
fn sweep(conn: &mut Conn, model: &WriteGen) -> io::Result<(u64, Failures)> {
    const CHUNK: u64 = 2_048;
    let mut fail = Failures::default();
    let mut queries = 0;
    for lo in (0..model.id_limit()).step_by(CHUNK as usize) {
        queries += 1;
        conn.tx.send(&Frame::Query {
            query_id: queries as u32,
            user: conn.tx.user,
            sql: select_sql(lo, CHUNK),
        })?;
        conn.tx.flush()?;
        let mut got = Vec::new();
        loop {
            match conn.rx.recv()? {
                Frame::Row { row, .. } => match row.values() {
                    [Value::Int(id), Value::Text(body)] => got.push((*id as u64, body.clone())),
                    _ => fail.wrong += 1,
                },
                Frame::Done { .. } => break,
                Frame::RowsBegin { .. } | Frame::RowsEnd { .. } => {}
                other => {
                    eprintln!("wirebench: sweep answered {other:?}");
                    fail.errors += 1;
                    break;
                }
            }
        }
        let want: Vec<(u64, String)> = (lo..lo + CHUNK)
            .filter_map(|id| model.expected_body(id).map(|b| (id, b)))
            .collect();
        if got != want {
            eprintln!(
                "wirebench: table differs from the model in ids {lo}..{}",
                lo + CHUNK
            );
            fail.wrong += 1;
        }
    }
    Ok((queries, fail))
}

fn read_rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One trial's server, connections and generators. Every trial gets a
/// server of its own, freshly set up and warmed with a fixed count of
/// ops: state a server accumulates with the queries it has answered
/// (see `core.admit_interleaved_ns_100k`) cannot leak from one trial
/// into the next, so trials are independent samples.
struct Trial {
    spec: &'static Spec,
    bed: Bed,
    gens: Vec<Gen>,
    mixed: Option<MixedShared>,
    setup_secs: f64,
    attempted: u64,
    fail: Failures,
}

impl Trial {
    /// Set up (timed) and warm up. `index` picks the trial's own
    /// generator streams under the run's seed.
    fn start(spec: &'static Spec, seed: u64, index: u64) -> io::Result<Trial> {
        let t = Instant::now();
        let bed = harness::setup(spec, seed)?;
        let setup_secs = t.elapsed().as_secs_f64();
        let has_writer = spec.roles.iter().any(|r| matches!(r, Role::Writes { .. }));
        let mut trial = Trial {
            spec,
            gens: spec.generators(stream_seed(seed, STREAM_TRIAL0 + index), &bed.zipf),
            mixed: has_writer.then(|| MixedShared::new(spec.rows)),
            bed,
            setup_secs,
            attempted: 0,
            fail: Failures::default(),
        };
        trial.run(None, false);
        Ok(trial)
    }

    /// Traffic for `duration`, or the fixed-count warm-up if `None`.
    fn run(&mut self, duration: Option<Duration>, traced: bool) -> (TrialSummary, Vec<ConnTrial>) {
        let raw = run_trial(
            self.spec,
            &mut self.bed.conns,
            &mut self.gens,
            self.mixed.as_ref(),
            duration,
            traced,
        );
        let summary = summarize(&raw);
        self.attempted += summary.attempted;
        self.fail.add(&summary.fail);
        (summary, raw)
    }

    /// Final table check (mixed workloads), then stop the server.
    /// Returns `(attempted, failures)`.
    fn finish(mut self) -> io::Result<(u64, Failures)> {
        for gen in &self.gens {
            if let Gen::Write(model) = gen {
                let (queries, fail) = sweep(&mut self.bed.conns[0], model)?;
                self.attempted += queries;
                self.fail.add(&fail);
            }
        }
        self.bed.shutdown();
        Ok((self.attempted, self.fail))
    }
}

fn result(
    spec: &Spec,
    seed: u64,
    traced: bool,
    attempted: u64,
    fail: Failures,
    metrics: Vec<Metric>,
) -> RunResult {
    if fail.total() > 0 {
        eprintln!("wirebench: {} failed operations: {fail:?}", spec.name);
    }
    RunResult {
        workload: spec.name.to_owned(),
        why: spec.why.to_owned(),
        seed,
        traced,
        attempted: attempted.max(1),
        failed: fail.total(),
        metrics,
    }
}

/// Tracing off: the end-to-end metrics, each the median of the trials.
pub fn run_untraced(spec: &'static Spec, seed: u64, plan: Plan) -> io::Result<RunResult> {
    let per_trial = Some(Duration::from_secs_f64(plan.seconds / plan.trials as f64));
    let (mut setup, mut ops, mut rows, mut late) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut samples, mut attempted, mut fail) = (0, 0, Failures::default());
    let (mut rss_peak_mb, mut tail) = (0.0, None);
    for index in 0..plan.trials {
        let mut trial = Trial::start(spec, seed, index as u64)?;
        if index == 0 {
            // Peak memory is read here, after a fixed amount of work, and
            // not at exit: the trials run for a fixed time, so a faster
            // server would answer more queries in them and look as if it
            // needed more memory.
            rss_peak_mb = read_rss_peak_mb();
        }
        let (summary, _) = trial.run(per_trial, false);
        let (ops_per_s, rows_per_s, late_us) = summary.primary(spec);
        let sorted = Quantiles::of(late_us.to_vec());
        setup.push(trial.setup_secs);
        ops.push(ops_per_s);
        rows.push(rows_per_s);
        late.push(sorted.median());
        samples += sorted.len() as u64;
        if let Some(q) = highest_supported_tail(sorted.len()) {
            tail = Some((q, sorted.quantile(q), sorted.len()));
        }
        let (trial_attempted, trial_fail) = trial.finish()?;
        attempted += trial_attempted;
        fail.add(&trial_fail);
    }
    if let Some((q, value, n)) = tail {
        println!(
            "{}: last trial's highest supported tail: lateness p{} = {value:.1} us (n = {n})",
            spec.name,
            q * 100.0
        );
    }
    // Set-up is one thread doing the same work every time, so whatever
    // else the host runs only ever adds to it, in spells of seconds to
    // minutes that take a set-up from 0.10 s to 0.16 s. A median follows
    // the spells; the fastest set-up of the run is the one they left alone.
    let setup_s = setup.iter().copied().fold(f64::INFINITY, f64::min);
    let metrics = vec![
        Metric::summarized("setup_s", setup_s, setup, plan.trials as u64),
        Metric::of_trials("ops_per_s", ops, samples),
        Metric::of_trials("rows_per_s", rows, samples),
        Metric::of_trials("lateness_p50_us", late, samples),
        Metric::single("rss_peak_mb", rss_peak_mb),
    ];
    Ok(result(spec, seed, false, attempted, fail, metrics))
}

fn counter(bed: &Bed, name: &str) -> f64 {
    match bed.registry().value(name) {
        Some(MetricValue::Counter(v)) => v as f64,
        Some(MetricValue::Gauge { high_water, .. }) => high_water as f64,
        None => 0.0,
    }
}

fn span_line(conn: usize, op: usize, r: &OpRec) -> String {
    let since_sent = |t: u64| {
        Json::Num(if t == 0 {
            -1.0
        } else {
            t as f64 - r.sent_ns as f64
        })
    };
    Json::obj([
        ("conn", Json::Num(conn as f64)),
        ("op", Json::Num(op as f64)),
        (
            "kind",
            Json::str(match r.kind {
                Kind::Read => "read",
                Kind::Write(_) => "write",
            }),
        ),
        ("start_ns", Json::Num(r.start_ns as f64)),
        ("send_ns", Json::Num(r.sent_ns as f64 - r.start_ns as f64)),
        ("to_rows_begin_ns", since_sent(r.rows_begin_ns)),
        ("to_first_row_ns", since_sent(r.first_row_ns)),
        ("to_done_ns", since_sent(r.done_ns)),
        ("charged_ns", Json::Num(r.delay_secs * 1e9)),
    ])
    .to_line()
}

fn write_spans(spec: &Spec, raw: &[ConnTrial]) -> io::Result<()> {
    std::fs::create_dir_all(out_dir())?;
    let path = out_dir().join(format!("trace-{}.jsonl", spec.name));
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    for (c, t) in raw.iter().enumerate() {
        for (i, r) in t.recs.iter().take(TRACE_SPANS_PER_CONN).enumerate() {
            writeln!(file, "{}", span_line(c, i, r))?;
        }
    }
    file.flush()
}

/// Tracing on: an untraced and a traced trial of the same length (their
/// difference is the tracing overhead), spans written out, then the
/// layer probes.
pub fn run_traced(spec: &'static Spec, seed: u64, plan: Plan) -> io::Result<RunResult> {
    let clock = Instant::now();
    let per_trial = Some(Duration::from_secs_f64(plan.seconds / 4.0));
    let mut session = Trial::start(spec, seed, 0)?;
    let (plain, _) = session.run(per_trial, false);
    let (plain_attempted, plain_fail) = session.finish()?;

    // The same trial again (same seed, same streams) with tracing on.
    let mut session = Trial::start(spec, seed, 0)?;
    let before = [
        counter(&session.bed, "scheduler_scheduled_total"),
        counter(&session.bed, "server_queries_admitted"),
    ];
    let guard_before = session.bed.db.snapshot_stats();
    let (traced, raw) = session.run(per_trial, true);
    let guard_after = session.bed.db.snapshot_stats();
    let scheduled = counter(&session.bed, "scheduler_scheduled_total") - before[0];
    let admitted = counter(&session.bed, "server_queries_admitted") - before[1];
    let refused_backpressure = counter(&session.bed, "server_refused_backpressure");
    let query_errors = counter(&session.bed, "server_query_errors");
    let pending_high_water = counter(&session.bed, "scheduler_pending");
    write_spans(spec, &raw)?;

    let (plain_ops, ..) = plain.primary(spec);
    let (traced_ops, _, late_us) = traced.primary(spec);
    let late = Quantiles::of(late_us.to_vec());
    // Spans exist for reads only: a write has one reply frame, so the
    // client cannot split it.
    let reads: Vec<&OpRec> = raw
        .iter()
        .flat_map(|t| &t.recs)
        .filter(|r| r.kind == Kind::Read && r.done_ns != 0 && r.rows_begin_ns != 0)
        .collect();
    let pre_wheel = p50(reads
        .iter()
        .map(|r| (r.rows_begin_ns - r.sent_ns) as f64 / 1e3));
    let post_deadline = p50(reads
        .iter()
        .map(|r| (r.done_ns as f64 - r.rows_begin_ns as f64 - r.delay_secs * 1e9) / 1e3));
    let read_late_p50 = p50(traced.read_late_us.iter().copied());
    let lag_p99 = |s: &TrialSummary| Quantiles::of(s.lag_us.clone()).p99();
    let stalled = [&plain, &traced]
        .iter()
        .filter(|s| lag_p99(s) > STALL_LAG_US)
        .count();
    let addr = session.bed.handle.addr();
    let stats_rtt = probes::stats_rtt_p50_us(&mut session.bed.conns[0], plan.seconds)?;
    let connect_us = probes::connect_register_us(addr)?;
    let (mut attempted, mut fail) = session.finish()?;
    attempted += plain_attempted;
    fail.add(&plain_fail);
    let early = fail.early;

    let mut metrics: Vec<Metric> = [
        ("client.lateness_p90_us", late.quantile(0.90)),
        ("client.lateness_p99_us", late.p99()),
        ("client.lateness_p999_us", late.quantile(0.999)),
        ("client.lateness_max_us", late.quantile(1.0)),
        ("client.generator_lag_p99_us", lag_p99(&traced)),
        ("client.trials_stalled", stalled as f64),
        ("client.early_releases", early as f64),
        ("client.samples", late.len() as f64),
        ("client.reads_per_s", traced.reads_per_s),
        ("client.writes_per_s", traced.writes_per_s),
        (
            "client.write_latency_p50_us",
            p50(traced.write_late_us.iter().copied()),
        ),
        ("trace.pre_wheel_p50_us", pre_wheel),
        ("trace.post_deadline_p50_us", post_deadline),
        (
            "trace.unattributed_us",
            read_late_p50 - pre_wheel - post_deadline,
        ),
        (
            "trace.overhead_pct",
            (plain_ops - traced_ops) / plain_ops * 100.0,
        ),
        (
            "core.snapshot_rebuilds",
            (guard_after.rebuilds - guard_before.rebuilds) as f64,
        ),
        (
            "core.events_applied",
            (guard_after.events_applied - guard_before.events_applied) as f64,
        ),
        ("gate.jobs_per_query", scheduled / admitted.max(1.0)),
        ("gate.refused_backpressure", refused_backpressure),
        ("gate.query_errors", query_errors),
        ("scheduler.pending_high_water", pending_high_water),
        ("transport.stats_rtt_p50_us", stats_rtt),
        ("transport.connect_register_us", connect_us),
        ("transport.bytes_per_s", traced.bytes_per_s),
    ]
    .into_iter()
    .map(|(name, value)| Metric::single(name, value))
    .collect();

    // What is left of the invocation goes to the probes.
    let probe_budget = (plan.seconds * 1.5 - clock.elapsed().as_secs_f64()).max(plan.seconds / 4.0);
    metrics.extend(probes::run_all(spec, seed, probe_budget));
    // Report in the table's order, whatever order they were measured in.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|l| l.name == m.name));

    // The identity a reviewer can watch fail: on zipf_open the parts
    // should add up to the whole; elsewhere queueing in the window does.
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let parts = [
        value("transport.stats_rtt_p50_us"),
        value("gate.handle_query_ns") / 1e3,
        value("scheduler.fire_lateness_loaded_p50_us"),
    ];
    println!(
        "{}: read lateness p50 in the traced trial {read_late_p50:.1} us; stats_rtt {:.1} + \
         handle_query {:.1} + loaded fire lateness {:.1} = {:.1} us; trace.unattributed_us {:.1}",
        spec.name,
        parts[0],
        parts[1],
        parts[2],
        parts.iter().sum::<f64>(),
        value("trace.unattributed_us"),
    );
    Ok(result(spec, seed, true, attempted, fail, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conn_trial(done_ns: impl Iterator<Item = u64>, end_ns: u64) -> ConnTrial {
        ConnTrial {
            recs: done_ns
                .map(|done_ns| OpRec {
                    kind: Kind::Read,
                    start_ns: 0,
                    sent_ns: 0,
                    rows_begin_ns: 0,
                    first_row_ns: 0,
                    done_ns,
                    delay_secs: 0.0,
                    id: 0,
                    want_rows: 3,
                    got_rows: 3,
                    version: 0,
                })
                .collect(),
            fail: Failures::default(),
            start_ns: 0,
            end_ns,
            lag_ns: Vec::new(),
            bytes_in: 0,
            span_ns: end_ns,
        }
    }

    #[test]
    fn throughput_is_the_median_block_rate_and_ignores_a_stall() {
        // One op every 250 us for a second: 4000 ops/s, 3 rows each.
        let steady = conn_trial((1..4_000).map(|i| i * 250_000), 1_000_000_000);
        let (ops, rows) = rates(std::slice::from_ref(&steady), true);
        assert!((ops - 4_000.0).abs() < 1e-6, "{ops}");
        assert!((rows - 12_000.0).abs() < 1e-6, "{rows}");
        assert_eq!(rates(&[steady], false), (0.0, 0.0));
        // The same with 100 ms of nothing in the middle: the mean drops
        // by a tenth, the median block does not notice.
        let stalled = conn_trial(
            (1..3_600).map(|i| i * 250_000 + if i > 1_800 { 100_000_000 } else { 0 }),
            1_000_000_000,
        );
        let (ops, _) = rates(&[stalled], true);
        assert!((ops - 4_000.0).abs() < 1e-6, "{ops}");
    }

    #[test]
    fn completions_outside_the_counting_window_do_not_count() {
        let mut t = conn_trial((1..=2_000).map(|i| i * 500_000), 1_000_000_000);
        t.start_ns = 500_000_000;
        t.end_ns = 750_000_000;
        let (ops, _) = rates(&[t], true);
        assert!((ops - 2_000.0).abs() < 1e-6, "{ops}");
    }
}
