//! The one bench report: every `BENCH_<name>.json` is rendered here.
//!
//! A bench bin measures, hands its numbers to a [`Report`] and returns
//! [`Report::finish`] from `main`. This module is the only place that
//! parses `--smoke`, knows where the file lives, renders JSON, evaluates
//! gates and chooses the exit code.
//!
//! Schema, identical for all five files, keys in this order:
//!
//! ```text
//! bench             the bin's name: the file is BENCH_<bench>.json
//! git_rev           `git describe --always --dirty` of the measured tree
//! smoke             true for `--smoke` (small shapes, written under target/)
//! hardware_threads  available_parallelism of the measuring host
//! params            name -> number: the workload shape and fixed constants
//! samples           name -> {"value", "unit"}, or name -> [row, ...] for a
//!                   per-size / per-thread table (a row is column -> number)
//! gates             name -> {"value", "op", "bound", "enforced", "pass"}
//! pass              every enforced gate passed
//! ```
//!
//! Numbers carry nine significant digits; a non-finite value renders as
//! `null` and fails any gate on it. A [`Scope::FullRun`] gate in a smoke
//! run is recorded with `"enforced": false` and its true `pass`, so a
//! skipped gate is visible in the file rather than absent from it.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Comparison a gate applies: `value <= bound` or `value >= bound`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Le,
    Ge,
}

/// When a gate can fail the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Structural (exact counts, virtual-clock results): smoke and full.
    Always,
    /// Wall-clock or full-shape figures: recorded in smoke, not enforced.
    FullRun,
}

/// One bench run's parameters, measurements and gates; the three lists
/// hold rendered `"name": json` entries.
pub struct Report {
    bench: &'static str,
    smoke: bool,
    params: Vec<String>,
    samples: Vec<String>,
    gates: Vec<String>,
    pass: bool,
}

impl Report {
    /// A report for `BENCH_<bench>.json`; smoke iff `--smoke` was passed.
    pub fn new(bench: &'static str) -> Report {
        Report::with_mode(bench, std::env::args().any(|a| a == "--smoke"))
    }

    fn with_mode(bench: &'static str, smoke: bool) -> Report {
        Report {
            bench,
            smoke,
            params: Vec::new(),
            samples: Vec::new(),
            gates: Vec::new(),
            pass: true,
        }
    }

    /// Whether this is a `--smoke` run (bins pick their small shapes by it).
    pub fn smoke(&self) -> bool {
        self.smoke
    }

    /// Record a workload parameter or fixed constant.
    pub fn param(&mut self, name: &str, value: f64) -> &mut Report {
        self.params.push(format!("\"{name}\": {}", num(value)));
        self
    }

    /// Record one measured number.
    pub fn sample(&mut self, name: &str, value: f64, unit: &str) -> &mut Report {
        let value = num(value);
        self.samples.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        self
    }

    /// Record a table: one row per size or thread count, `columns` naming
    /// each row's numbers.
    pub fn rows<const N: usize>(
        &mut self,
        series: &str,
        columns: [&str; N],
        rows: impl IntoIterator<Item = [f64; N]>,
    ) -> &mut Report {
        let rows: Vec<String> = rows
            .into_iter()
            .map(|row| {
                let cells: Vec<String> = columns
                    .iter()
                    .zip(row)
                    .map(|(c, v)| format!("\"{c}\": {}", num(v)))
                    .collect();
                format!("\n      {{{}}}", cells.join(", "))
            })
            .collect();
        self.samples
            .push(format!("\"{series}\": [{}\n    ]", rows.join(",")));
        self
    }

    /// Evaluate a gate on `value`, print its verdict and record it; a
    /// failure fails the run when `scope` says it is enforced.
    pub fn gate(
        &mut self,
        name: &str,
        value: f64,
        op: Op,
        bound: f64,
        scope: Scope,
    ) -> &mut Report {
        let (symbol, holds) = match op {
            Op::Le => ("<=", value <= bound),
            Op::Ge => (">=", value >= bound),
        };
        let pass = holds && value.is_finite();
        let enforced = scope == Scope::Always || !self.smoke;
        self.pass &= pass || !enforced;
        let verdict = match (pass, enforced) {
            (true, _) => "pass",
            (false, true) => "FAIL",
            (false, false) => "fail (not enforced in smoke)",
        };
        let (value, bound) = (num(value), num(bound));
        eprintln!("{verdict}: {name} = {value} (gate {symbol} {bound})");
        self.gates.push(format!(
            "\"{name}\": {{\"value\": {value}, \"op\": \"{symbol}\", \"bound\": {bound}, \
             \"enforced\": {enforced}, \"pass\": {pass}}}"
        ));
        self
    }

    /// A full run owns the committed root file; a smoke run writes under
    /// `target/` so it can never overwrite committed numbers.
    fn path(&self) -> PathBuf {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        if self.smoke {
            root.join(format!("target/BENCH_{}.smoke.json", self.bench))
        } else {
            root.join(format!("BENCH_{}.json", self.bench))
        }
    }

    fn render(&self, git_rev: &str, hardware_threads: usize) -> String {
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"git_rev\": \"{git_rev}\",\n  \"smoke\": {},\n  \
             \"hardware_threads\": {hardware_threads},\n  \"params\": {},\n  \"samples\": {},\n  \
             \"gates\": {},\n  \"pass\": {}\n}}\n",
            self.bench,
            self.smoke,
            object(&self.params),
            object(&self.samples),
            object(&self.gates),
            self.pass
        )
    }

    /// Write the file and turn the gate verdicts into the exit code.
    pub fn finish(&self) -> ExitCode {
        let path = self.path();
        let json = self.render(&git_rev(), hardware_threads());
        std::fs::create_dir_all(path.parent().expect("file has a parent"))
            .and_then(|()| std::fs::write(&path, json))
            .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("wrote {}", path.display());
        if self.pass {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Hardware threads of the measuring host.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn git_rev() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=12"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A JSON number at nine significant digits, in plain decimal; `null`
/// for NaN and the infinities, which JSON cannot carry.
fn num(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    let rounded: f64 = format!("{v:.8e}").parse().expect("float round-trips");
    format!("{rounded}")
}

/// A second-level JSON object, one `"name": value` entry per line.
fn object(entries: &[String]) -> String {
    if entries.is_empty() {
        return "{}".to_owned();
    }
    format!("{{\n    {}\n  }}", entries.join(",\n    "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(smoke: bool) -> Report {
        let mut r = Report::with_mode("demo", smoke);
        r.param("rows", 1024.0).param("sync_interval_secs", 60.0);
        r.sample("per_query_secs", 0.000173635123456, "s")
            .sample("qps", 16423610.0749, "1/s")
            .rows(
                "sweep",
                ["threads", "qps"],
                [[1.0, 513237.81], [2.0, 790316.72]],
            );
        r.gate("allocs_per_query", 2.0, Op::Le, 2.0, Scope::Always)
            .gate("speedup", 9.9084, Op::Ge, 3.0, Scope::FullRun);
        r
    }

    #[test]
    fn golden_render_fixes_key_order_and_number_format() {
        let expected = r#"{
  "bench": "demo",
  "git_rev": "abc123",
  "smoke": false,
  "hardware_threads": 2,
  "params": {
    "rows": 1024,
    "sync_interval_secs": 60
  },
  "samples": {
    "per_query_secs": {"value": 0.000173635123, "unit": "s"},
    "qps": {"value": 16423610.1, "unit": "1/s"},
    "sweep": [
      {"threads": 1, "qps": 513237.81},
      {"threads": 2, "qps": 790316.72}
    ]
  },
  "gates": {
    "allocs_per_query": {"value": 2, "op": "<=", "bound": 2, "enforced": true, "pass": true},
    "speedup": {"value": 9.9084, "op": ">=", "bound": 3, "enforced": true, "pass": true}
  },
  "pass": true
}
"#;
        assert_eq!(small(false).render("abc123", 2), expected);
    }

    #[test]
    fn empty_sections_render_as_empty_objects() {
        let json = Report::with_mode("demo", true).render("abc123", 1);
        assert!(json.contains("\"params\": {},\n  \"samples\": {},\n  \"gates\": {},"));
    }

    #[test]
    fn failing_always_gate_fails_smoke_and_full() {
        for smoke in [true, false] {
            let mut r = small(smoke);
            r.gate("peak_buffered_rows", 257.0, Op::Le, 256.0, Scope::Always);
            assert!(!r.pass, "smoke = {smoke}");
            assert!(r.render("abc123", 2).ends_with("\"pass\": false\n}\n"));
        }
    }

    #[test]
    fn failing_full_run_gate_fails_only_the_full_run() {
        let gate = |smoke| {
            let mut r = small(smoke);
            r.gate("ratio", 2.5, Op::Le, 2.0, Scope::FullRun);
            r
        };
        assert!(!gate(false).pass);
        let smoke = gate(true);
        assert!(smoke.pass);
        assert!(smoke.render("abc123", 2).contains(
            "\"ratio\": {\"value\": 2.5, \"op\": \"<=\", \"bound\": 2, \
             \"enforced\": false, \"pass\": false}"
        ));
    }

    #[test]
    fn non_finite_value_fails_its_gate() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for op in [Op::Le, Op::Ge] {
                let mut r = Report::with_mode("demo", false);
                r.gate("ratio", bad, op, 1.0, Scope::Always);
                assert!(!r.pass, "{bad} {op:?}");
                assert!(r.render("abc123", 2).contains("\"value\": null"));
            }
        }
    }

    #[test]
    fn smoke_and_full_write_to_different_paths() {
        let (smoke, full) = (small(true).path(), small(false).path());
        assert!(smoke.ends_with("target/BENCH_demo.smoke.json"), "{smoke:?}");
        assert!(full.ends_with("BENCH_demo.json"), "{full:?}");
        assert_eq!(full.parent(), smoke.parent().and_then(Path::parent));
    }

    /// The committed files are full runs in the schema above, all green.
    #[test]
    fn committed_reports_are_passing_full_runs_in_the_one_schema() {
        for bench in [
            "throughput",
            "streaming",
            "cluster",
            "sidechannel",
            "writes",
        ] {
            let path = Report::with_mode(bench, false).path();
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            // Top-level keys are the ones indented by exactly two spaces.
            let keys: Vec<&str> = json
                .lines()
                .filter_map(|l| l.strip_prefix("  \"")?.split_once("\":").map(|(k, _)| k))
                .collect();
            assert_eq!(
                keys,
                [
                    "bench",
                    "git_rev",
                    "smoke",
                    "hardware_threads",
                    "params",
                    "samples",
                    "gates",
                    "pass"
                ],
                "{bench}"
            );
            assert!(
                json.contains(&format!("\n  \"bench\": \"{bench}\",\n")),
                "{bench}"
            );
            assert!(json.contains("\n  \"smoke\": false,\n"), "{bench}");
            assert!(json.ends_with("\n  \"pass\": true\n}\n"), "{bench}");
        }
    }
}
