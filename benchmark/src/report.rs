//! The one result writer: a small JSON value with stable key order, the
//! report schema built from it, and the comparison of two reports.
//!
//! No JSON crate resolves offline, so the value type, its printer and
//! its parser live here; every file and line the benchmark emits goes
//! through them.

use crate::metrics;
use crate::stats::relative_range;
use delayguard_sim::median_of;
use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so two runs diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// One line, no spaces after separators except `": "` and `", "`
    /// (the form of the contract's result line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level, with a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        let sep = if indent.is_some() { "," } else { ", " };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust prints the shortest digits that read back to the same
            // f64, so a measured value keeps all of its digits.
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            // Trial values stay on one line; a list of sections breaks.
            Json::Arr(items) if items.iter().all(|i| !matches!(i, Json::Obj(_))) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, None, depth);
                }
                out.push(']');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(sep);
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, indent, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos).copied() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.expect(b':')?;
                    pairs.push((key, self.value()?));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(pairs));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(_) => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at offset {start}"))
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(format!("expected string at offset {}", self.pos));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| "unterminated string".to_owned())?;
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| "unterminated escape".to_owned())?;
                    self.pos += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| "bad \\u escape".to_owned())?;
                            self.pos += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

// ---- the report schema ----------------------------------------------------

/// One measured metric: the reported value (a median over `trials` when
/// there are several), the trial values it came from, and how many
/// samples stand behind each trial value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub trials: Vec<f64>,
    pub samples: u64,
}

impl Metric {
    /// A metric measured once.
    pub fn single(name: &str, value: f64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: metrics::unit_of(name),
            value,
            trials: Vec::new(),
            samples: 0,
        }
    }

    /// A metric reported as the median of per-trial values.
    pub fn of_trials(name: &str, trials: Vec<f64>, samples: u64) -> Metric {
        let value = median_of(trials.clone());
        Metric::summarized(name, value, trials, samples)
    }

    /// A metric whose reported `value` is some other summary of `trials`.
    pub fn summarized(name: &str, value: f64, trials: Vec<f64>, samples: u64) -> Metric {
        Metric {
            name: name.to_owned(),
            unit: metrics::unit_of(name),
            value,
            trials,
            samples,
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("value".to_owned(), Json::Num(self.value)),
            ("unit".to_owned(), Json::str(self.unit)),
        ];
        if !self.trials.is_empty() {
            pairs.push((
                "trials".to_owned(),
                Json::Arr(self.trials.iter().map(|&t| Json::Num(t)).collect()),
            ));
            pairs.push(("spread".to_owned(), Json::Num(relative_range(&self.trials))));
        }
        if self.samples > 0 {
            pairs.push(("samples".to_owned(), Json::Num(self.samples as f64)));
        }
        Json::Obj(pairs)
    }
}

/// What one process invocation (one workload, tracing on or off)
/// measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub workload: String,
    pub why: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The last line of standard output the driver reads.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_line()
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("why", Json::str(&self.why)),
            ("seed", Json::Num(self.seed as f64)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failed_share",
                Json::Num(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.name.clone(), m.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where and on what the numbers were taken.
fn stamp(seed: u64, seconds: f64) -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    vec![
        ("bench".to_owned(), Json::str("wirebench")),
        ("git_rev".to_owned(), Json::str(git_rev())),
        ("seed".to_owned(), Json::Num(seed as f64)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("nproc".to_owned(), Json::Num(nproc as f64)),
        ("cpu_model".to_owned(), Json::str(cpu_model)),
        (
            "load".to_owned(),
            Json::str(
                "one process hosts server and generator; at most 2 client \
                 threads/connections; all traffic over loopback TCP",
            ),
        ),
    ]
}

/// The checked-out commit, read from `.git` beside the benchmark
/// directory; "unknown" in a checkout that is not a repository.
fn git_rev() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head.to_owned(),
    };
    match rev.trim() {
        "" => "unknown".to_owned(),
        rev => rev.to_owned(),
    }
}

/// The full report of an `--all` run: the stamp plus one section per
/// invocation ([`RunResult::to_json`]), untraced before traced for each
/// workload.
pub fn full_report(seed: u64, seconds: f64, runs: Vec<Json>) -> Json {
    let mut pairs = stamp(seed, seconds);
    pairs.push(("runs".to_owned(), Json::Arr(runs)));
    Json::Obj(pairs)
}

// ---- comparing two reports ------------------------------------------------

/// One row of the comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// `|b − a| / a`.
    pub change: f64,
    pub bound: f64,
    pub within: bool,
}

/// Compare every end-to-end metric of every untraced run present in both
/// reports. Two runs of one build should agree within each metric's
/// bound in either direction; `better` only labels the table.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Comparison>, String> {
    let runs = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("report has no \"runs\" array")?
            .iter()
            .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
            .cloned()
            .collect())
    };
    let (runs_a, runs_b) = (runs(a)?, runs(b)?);
    let mut rows = Vec::new();
    for ra in &runs_a {
        let name = ra.get("workload").and_then(Json::as_str).unwrap_or("");
        let Some(rb) = runs_b
            .iter()
            .find(|r| r.get("workload").and_then(Json::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second report"));
        };
        for spec in metrics::END_TO_END {
            let value = |run: &Json| {
                run.get("metrics")
                    .and_then(|m| m.get(spec.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{name}: metric {} missing", spec.name))
            };
            let (va, vb) = (value(ra)?, value(rb)?);
            let change = if va == 0.0 {
                f64::INFINITY
            } else {
                (vb - va).abs() / va.abs()
            };
            rows.push(Comparison {
                workload: name.to_owned(),
                metric: spec.name.to_owned(),
                a: va,
                b: vb,
                change,
                bound: spec.bound,
                within: change <= spec.bound,
            });
        }
        let failed = |run: &Json| run.get("failed").and_then(Json::as_f64).unwrap_or(1.0);
        if failed(ra) != 0.0 || failed(rb) != 0.0 {
            return Err(format!("{name}: a run reported failed operations"));
        }
    }
    Ok(rows)
}

pub fn render_comparison(rows: &[Comparison]) -> String {
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>7}  {}\n",
        "workload", "metric", "first", "second", "change", "bound", "verdict"
    );
    for r in rows {
        let better = metrics::END_TO_END
            .iter()
            .find(|m| m.name == r.metric)
            .map_or("", |m| m.better.as_str());
        writeln!(
            out,
            "{:<18} {:<16} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%  {} ({better} is better)",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.change * 100.0,
            r.bound * 100.0,
            if r.within { "ok" } else { "DIFFERS" },
        )
        .expect("write to String");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(ops: f64) -> RunResult {
        RunResult {
            workload: "point_window".into(),
            why: "a \"quoted\" reason\nwith a newline".into(),
            seed: 7,
            traced: false,
            attempted: 1234,
            failed: 0,
            metrics: metrics::END_TO_END
                .iter()
                .map(|m| Metric::of_trials(m.name, vec![ops, ops * 1.01, ops * 0.99], 10))
                .collect(),
        }
    }

    fn keys_of(doc: &Json) -> Vec<&str> {
        let Json::Obj(pairs) = doc else {
            panic!("not an object: {doc:?}");
        };
        pairs.iter().map(|(k, _)| k.as_str()).collect()
    }

    #[test]
    fn report_round_trips_through_text() {
        let doc = full_report(7, 1.0, vec![sample_run(1000.5).to_json()]);
        for text in [doc.to_pretty(), doc.to_line()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
        // Key order is the insertion order, so reports diff cleanly.
        let keys = keys_of(&doc);
        assert_eq!(keys[0], "bench");
        assert_eq!(*keys.last().unwrap(), "runs");
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = Json::Num(1.203_456_789_012_345);
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
        assert_eq!(Json::Num(1000.0).to_line(), "1000");
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample_run(10.0).contract_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            keys_of(&parsed),
            ["correct", "attempted", "failed", "metrics"]
        );
        let m = parsed.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(m.get("unit").unwrap().as_str(), Some("1/s"));
    }

    #[test]
    fn compare_flags_a_metric_outside_its_bound() {
        let doc = |ops| full_report(7, 1.0, vec![sample_run(ops).to_json()]);
        let same = compare(&doc(1000.0), &doc(1020.0)).unwrap();
        assert!(same.iter().all(|r| r.within));
        let off = compare(&doc(1000.0), &doc(2000.0)).unwrap();
        assert!(off.iter().any(|r| !r.within));
        assert!(render_comparison(&off).contains("DIFFERS"));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("{} x").is_err());
    }
}
