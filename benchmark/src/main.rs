//! `wirebench`: release lateness and capacity of the delayguard server,
//! measured through a loopback socket, with per-layer probes.
//!
//! ```text
//! wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! wirebench --all [--seed <n>] [--seconds <s>] [--smoke] [--repeat <k>]
//! wirebench compare <a.json> <b.json>
//! ```
//!
//! The first form is one invocation: one workload, tracing off (the
//! end-to-end metrics) or on (the per-layer metrics); its last line of
//! output is the result as one JSON object. `--all` runs every workload
//! both ways, each in a process of its own so that set-up time and peak
//! memory are per workload, and writes the full report.

mod harness;
mod loadgen;
mod metrics;
mod probes;
mod report;
mod run;
mod stats;
mod workloads;

use report::{Json, RunResult};
use run::Plan;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
  wirebench --all [--seed <n>] [--seconds <s>] [--smoke] [--repeat <k>]
  wirebench compare <a.json> <b.json>";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    all: bool,
    smoke: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        seed: 2004,
        seconds: 10.0,
        repeat: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value()?.to_owned()),
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --all and --workload".into());
    }
    if args.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(args)
}

fn print_metrics(result: &RunResult) {
    for m in &result.metrics {
        let end_to_end = metrics::END_TO_END.iter().find(|e| e.name == m.name);
        let layer = metrics::PER_LAYER.iter().find(|l| l.name == m.name);
        let better = end_to_end
            .map(|e| e.better)
            .or(layer.map(|l| l.better))
            .map_or("", metrics::Better::as_str);
        let mut line = format!(
            "{:<16} {:<38} {:>16.4} {:<5} ({better} is better)",
            result.workload, m.name, m.value, m.unit
        );
        if let Some(e) = end_to_end {
            write!(line, " bound {:.0}%", e.bound * 100.0).expect("write to String");
        }
        if !m.trials.is_empty() {
            write!(
                line,
                "; over {} trials (spread {:.1}%), n = {}",
                m.trials.len(),
                stats::relative_range(&m.trials) * 100.0,
                m.samples
            )
            .expect("write to String");
        }
        if let Some(l) = layer {
            write!(line, " -> {}", l.moves).expect("write to String");
        }
        println!("{line}");
    }
    println!(
        "{:<16} {:<38} {:>16.6}       ({} failed of {} attempted)",
        result.workload,
        "failed_share",
        result.failed as f64 / result.attempted as f64,
        result.failed,
        result.attempted
    );
}

fn run_file(workload: &str, traced: bool) -> PathBuf {
    run::out_dir().join(format!("run-{workload}-trace{}.json", u8::from(traced)))
}

/// One invocation: the form the driver runs.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {names:?}")
    })?;
    let plan = if args.smoke {
        Plan::smoke()
    } else {
        Plan::full(args.seconds, spec)
    };
    println!(
        "wirebench: {} seed {} tracing {}: {} s of traffic in {} trial(s); server and at most 2 \
         client threads/connections in this one process, all traffic over loopback TCP",
        spec.name,
        args.seed,
        if args.trace { "on" } else { "off" },
        plan.seconds,
        if args.trace { 2 } else { plan.trials },
    );
    let result = if args.trace {
        run::run_traced(spec, args.seed, plan)
    } else {
        run::run_untraced(spec, args.seed, plan)
    }
    .map_err(|e| format!("{}: {e}", spec.name))?;
    print_metrics(&result);
    std::fs::create_dir_all(run::out_dir())
        .and_then(|()| {
            std::fs::write(
                run_file(spec.name, args.trace),
                result.to_json().to_pretty(),
            )
        })
        .map_err(|e| format!("cannot write the result file: {e}"))?;
    println!("{}", result.contract_line());
    Ok(())
}

/// `--all`: every workload, untraced then traced, each in its own
/// process, `args.repeat` sets of them. The sets are interleaved (every
/// set's run of one workload before anyone's run of the next), so a
/// slow spell of the host falls on all sets alike. Returns each set's
/// report path and whether all of its runs were correct.
fn run_sets(args: &Args) -> Result<Vec<(PathBuf, bool)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut sets = vec![(Vec::new(), true); args.repeat];
    for spec in workloads::ALL {
        for traced in [false, true] {
            for (sections, correct) in &mut sets {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", spec.name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if args.smoke {
                    child.arg("--smoke");
                }
                let status = child.status().map_err(|e| e.to_string())?;
                if !status.success() {
                    return Err(format!(
                        "{} (trace {traced}) ended with {status}",
                        spec.name
                    ));
                }
                let text = std::fs::read_to_string(run_file(spec.name, traced))
                    .map_err(|e| format!("{}: no result file: {e}", spec.name))?;
                let section = Json::parse(&text)?;
                *correct &= section.get("correct") == Some(&Json::Bool(true));
                sections.push(section);
            }
        }
    }
    let seconds = if args.smoke { 1.0 } else { args.seconds };
    let mut reports = Vec::new();
    for (i, (sections, correct)) in sets.into_iter().enumerate() {
        let name = if args.repeat > 1 {
            format!("wirebench-{}.json", i + 1)
        } else {
            "wirebench.json".to_owned()
        };
        let path = run::out_dir().join(name);
        let doc = report::full_report(args.seed, seconds, sections);
        std::fs::write(&path, doc.to_pretty()).map_err(|e| e.to_string())?;
        println!("wirebench: report written to {}", path.display());
        reports.push((path, correct));
    }
    Ok(reports)
}

/// Print the comparison of two reports; `Ok(true)` if they agree.
fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t))
    };
    let rows = report::compare(&load(a)?, &load(b)?)?;
    print!("{}", report::render_comparison(&rows));
    Ok(rows.iter().all(|r| r.within))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [cmd, a, b] = argv.as_slice() {
        if cmd == "compare" {
            return compare_files(Path::new(a), Path::new(b));
        }
    }
    let args = parse_args(&argv)?;
    if let Some(name) = &args.workload {
        // A run that finished reports its own failures in the result
        // line; the exit code says only that there is a result.
        return run_one(&args, name).map(|()| true);
    }
    let reports = run_sets(&args)?;
    let mut ok = true;
    for (path, correct) in &reports {
        if !correct {
            eprintln!(
                "wirebench: {} has failed operations (failed_share > 0)",
                path.display()
            );
        }
        ok &= correct;
    }
    for pair in reports.windows(2) {
        let (a, b) = (&pair[0].0, &pair[1].0);
        println!("wirebench: comparing {} with {}", a.display(), b.display());
        ok &= compare_files(a, b)?;
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("wirebench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv(
            "--workload zipf_open --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("zipf_open"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(parse_args(&argv("--all --workload x")).is_err());
        assert!(parse_args(&argv("--workload x --trace 2")).is_err());
        assert!(parse_args(&argv("--all --seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// Every workload end to end through the socket, at smoke size, with
    /// tracing off and on: nothing may fail and every metric must be named.
    #[test]
    fn smoke_every_workload_finishes_clean() {
        for spec in workloads::ALL {
            let plain = run::run_untraced(spec, 2004, Plan::smoke()).unwrap();
            assert_eq!(plain.failed, 0, "{}", spec.name);
            let names: Vec<&str> = plain.metrics.iter().map(|m| m.name.as_str()).collect();
            let want: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
            assert_eq!(names, want, "{}", spec.name);
            assert!(plain.metrics.iter().all(|m| m.value > 0.0), "{plain:?}");
        }
        let spec = workloads::by_name("mixed_rw_reads").unwrap();
        let traced = run::run_traced(spec, 2004, Plan::smoke()).unwrap();
        assert_eq!(traced.failed, 0);
        let names: Vec<&str> = traced.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, want);
    }
}
