//! The repo-invariant lint rules. Each rule works on the scanner's
//! code/comment views of a file, so string literals and commented-out
//! code never trigger findings.
//!
//! * **R1 `unsafe` needs `// SAFETY:`** — every `unsafe` token (block,
//!   fn, impl) must carry a `SAFETY:` comment on the same line or in the
//!   contiguous comment block immediately above. Applies to every file.
//! * **R2 no wall-clock in pure logic** — `Instant::now()` /
//!   `SystemTime::now()` are banned in the delay-policy and snapshot
//!   layers (`crates/core/src/policy.rs`, `crates/core/src/snapshot.rs`,
//!   all of `crates/popularity`) and on the whole deterministic serving
//!   path (`crates/server/src`, `crates/core/src/guarded.rs`,
//!   `crates/core/src/clock.rs`, and the simulated world with its
//!   drivers, `crates/testkit/src/{world,partition,campaign,staleness}.rs`
//!   — the world runs entirely under the shared `ManualClock`, and a
//!   single wall read would make its event loop unreplayable; not
//!   `net.rs`, whose `TcpNet` reads the wall on purpose): those
//!   layers take time as a parameter or read it through the `Clock`
//!   facade, so the same code runs under the simulated clock and stays
//!   deterministic and model-checkable. The only vetted exceptions (in
//!   `crates/xtask/lint-allow.txt`) are inside the real-clock
//!   implementation itself. Unit-test modules are exempt.
//! * **R3 no `unwrap`/`expect` on server paths** — the long-running
//!   server loops (`server.rs`, `scheduler.rs`, `wheel.rs`), the
//!   statement cache every `QUERY` and every guarded SQL statement goes
//!   through (`crates/query/src/stmt_cache.rs`) and the
//!   cluster front door's router/delta-sync path
//!   (`crates/testkit/src/world.rs`, `crates/testkit/src/partition.rs`)
//!   must not panic on recoverable conditions; vetted exceptions live in
//!   `crates/xtask/lint-allow.txt`. Unit-test modules are exempt.
//! * **R4 no `Relaxed` pointer publishes** — a store/swap (or the
//!   success ordering of a compare-exchange) on an `AtomicPtr`-typed
//!   value must not be `Ordering::Relaxed`: readers on the other side
//!   would not be guaranteed to see the pointee's initialization. The
//!   rule tracks identifiers declared as `AtomicPtr` in the same file
//!   (field and `let` declarations), plus any store whose operand is
//!   visibly a raw pointer (`Box::into_raw`, `null_mut`, `as *mut`).
//! * **R5 no result-set materialization on the server hot path** —
//!   `.collect` is banned in the non-test code of the front door's query
//!   path (`crates/server/src/gate.rs`, `crates/server/src/server.rs`):
//!   the streaming executor exists so a result set is never buffered
//!   whole, and one stray `collect::<Vec<_>>()` silently reintroduces
//!   O(result) memory. Bounded, vetted collections (column-name lists,
//!   config tables) go through `crates/xtask/lint-allow.txt`. Unit-test
//!   modules are exempt.
//! * **R6 no per-row allocation on the wire path** — `Vec::new`,
//!   `format!` and `.to_vec()` are banned inside loop bodies in the
//!   files that touch every released tuple (`crates/server/src/gate.rs`,
//!   `crates/server/src/scheduler.rs`, `crates/server/src/protocol.rs`)
//!   and in the statement cache's literal scanner, which walks every
//!   byte of every query (`crates/query/src/stmt_cache.rs`):
//!   the zero-copy pipeline's allocation budget (two allocations per
//!   query, measured by the bench counting allocator) only holds if the
//!   per-row loops reuse caller-owned buffers, and one `format!` in a
//!   row loop turns a budget into a hope. Allocations that run once per
//!   *chunk* or per *connection* (outside any loop) are fine; vetted
//!   per-iteration sites go through `crates/xtask/lint-allow.txt`.
//!   Unit-test modules are exempt.

use std::collections::HashSet;
use std::path::Path;

use crate::scan::{scan, test_mod_lines, Scanned};

pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based.
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// Vetted `unwrap`/`expect` sites: `path: trimmed-source-line` entries.
pub struct Allowlist {
    entries: HashSet<(String, String)>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = HashSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, code)) = line.split_once(':') {
                entries.insert((path.trim().to_string(), code.trim().to_string()));
            }
        }
        Allowlist { entries }
    }

    pub fn empty() -> Allowlist {
        Allowlist {
            entries: HashSet::new(),
        }
    }

    fn permits(&self, file: &str, source_line: &str) -> bool {
        self.entries
            .contains(&(file.to_string(), source_line.trim().to_string()))
    }
}

/// Run every rule over one file. `rel` is the repo-relative path with
/// forward slashes.
pub fn lint_file(rel: &str, src: &str, allow: &Allowlist) -> Vec<Finding> {
    let scanned = scan(src);
    let source_lines: Vec<&str> = src.lines().collect();
    let mut findings = Vec::new();
    rule_unsafe_needs_safety(rel, &scanned, &mut findings);
    rule_no_wall_clock(rel, &scanned, &source_lines, allow, &mut findings);
    rule_no_unwrap_on_server_paths(rel, &scanned, &source_lines, allow, &mut findings);
    rule_no_relaxed_pointer_publish(rel, &scanned, &mut findings);
    rule_no_collect_on_server_hot_path(rel, &scanned, &source_lines, allow, &mut findings);
    rule_no_alloc_in_row_loops(rel, &scanned, &source_lines, allow, &mut findings);
    findings
}

/// Word-boundary occurrences of `needle` in `haystack`.
fn has_token(haystack: &str, needle: &str) -> bool {
    let bytes = haystack.as_bytes();
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = at + needle.len();
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn rule_unsafe_needs_safety(rel: &str, s: &Scanned, findings: &mut Vec<Finding>) {
    for (i, code) in s.code.iter().enumerate() {
        if !has_token(code, "unsafe") {
            continue;
        }
        // Same-line comment, or the contiguous pure-comment block
        // directly above (long SAFETY comments span many lines).
        let mut justified = s.comments[i].contains("SAFETY:");
        let mut j = i;
        while !justified && j > 0 {
            j -= 1;
            let above_is_pure_comment =
                s.code[j].trim().is_empty() && !s.comments[j].trim().is_empty();
            if !above_is_pure_comment {
                break;
            }
            justified = s.comments[j].contains("SAFETY:");
        }
        if !justified {
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                message: "`unsafe` without an adjacent `// SAFETY:` comment \
                          (document the invariant that makes this sound)"
                    .to_string(),
            });
        }
    }
}

/// Files where wall-clock reads are banned: the pure policy/snapshot
/// layers (time is a parameter), the whole serving path (time comes
/// from the injected `Clock`, so the deterministic simulation harness
/// controls it), and the cluster front door (router, delta sync and
/// campaign drivers all run on the shared `ManualClock`; one wall read
/// would break seeded replay of a multi-node run).
fn wall_clock_banned(rel: &str) -> bool {
    rel == "crates/core/src/policy.rs"
        || rel == "crates/core/src/snapshot.rs"
        || rel == "crates/core/src/guarded.rs"
        || rel == "crates/core/src/clock.rs"
        || rel.starts_with("crates/popularity/")
        || rel.starts_with("crates/server/src/")
        || matches!(
            rel,
            "crates/testkit/src/world.rs"
                | "crates/testkit/src/partition.rs"
                | "crates/testkit/src/campaign.rs"
                | "crates/testkit/src/staleness.rs"
        )
}

fn rule_no_wall_clock(
    rel: &str,
    s: &Scanned,
    source_lines: &[&str],
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    if !wall_clock_banned(rel) {
        return;
    }
    let in_test = test_mod_lines(&s.code);
    for (i, code) in s.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for call in ["Instant::now", "SystemTime::now"] {
            if !code.contains(call) {
                continue;
            }
            let source = source_lines.get(i).copied().unwrap_or("");
            if allow.permits(rel, source) {
                continue;
            }
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                message: format!(
                    "`{call}()` in a deterministic layer — take the \
                     timestamp as a parameter or read the injected `Clock` \
                     instead"
                ),
            });
        }
    }
}

/// Server-loop files where panicking calls are banned: the real server's
/// long-running loops, the statement cache every query's text goes
/// through, plus the cluster router/delta-sync path — one malformed
/// frame or sync message must not take the whole front door down with
/// it.
fn panic_free_path(rel: &str) -> bool {
    matches!(
        rel,
        "crates/server/src/server.rs"
            | "crates/server/src/gate.rs"
            | "crates/server/src/scheduler.rs"
            | "crates/server/src/wheel.rs"
            | "crates/query/src/stmt_cache.rs"
            | "crates/testkit/src/world.rs"
            | "crates/testkit/src/partition.rs"
    )
}

fn rule_no_unwrap_on_server_paths(
    rel: &str,
    s: &Scanned,
    source_lines: &[&str],
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    if !panic_free_path(rel) {
        return;
    }
    let in_test = test_mod_lines(&s.code);
    for (i, code) in s.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if !code.contains(".unwrap()") && !code.contains(".expect(") {
            continue;
        }
        let source = source_lines.get(i).copied().unwrap_or("");
        if allow.permits(rel, source) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: i + 1,
            message: "`unwrap`/`expect` on a server path — handle the error \
                      or add a vetted entry to crates/xtask/lint-allow.txt"
                .to_string(),
        });
    }
}

/// Files on the server's per-query hot path, where buffering a whole
/// result set would defeat the streaming pipeline's memory bound.
fn streaming_hot_path(rel: &str) -> bool {
    matches!(
        rel,
        "crates/server/src/gate.rs" | "crates/server/src/server.rs"
    )
}

fn rule_no_collect_on_server_hot_path(
    rel: &str,
    s: &Scanned,
    source_lines: &[&str],
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    if !streaming_hot_path(rel) {
        return;
    }
    let in_test = test_mod_lines(&s.code);
    for (i, code) in s.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        if !code.contains(".collect") {
            continue;
        }
        let source = source_lines.get(i).copied().unwrap_or("");
        if allow.permits(rel, source) {
            continue;
        }
        findings.push(Finding {
            file: rel.to_string(),
            line: i + 1,
            message: "`.collect` on the server hot path — results must stream \
                      in bounded chunks, never materialize whole; for a \
                      provably bounded collection add a vetted entry to \
                      crates/xtask/lint-allow.txt"
                .to_string(),
        });
    }
}

/// Files whose loops run once per released tuple, where a stray
/// allocation multiplies by the row count and blows the measured
/// two-allocations-per-query budget. `gate.rs` covers the mutation path
/// too (`handle_mutation` and its reply scheduling); the cluster router
/// is included because reads *and* writes now flow through its
/// per-frame routing and sink-drain loops; the statement cache because
/// its scanner loops over every byte of every query on a cache hit.
fn row_loop_alloc_path(rel: &str) -> bool {
    matches!(
        rel,
        "crates/server/src/gate.rs"
            | "crates/server/src/scheduler.rs"
            | "crates/server/src/protocol.rs"
            | "crates/query/src/stmt_cache.rs"
            | "crates/testkit/src/world.rs"
    )
}

/// Per-byte map of "inside a loop body": a brace frame is a loop frame
/// when the code between the previous `{`/`}`/`;` and its opening brace
/// contains a `for`, `while` or `loop` token. Works on the scanner's
/// code view, so braces in strings and comments never confuse the
/// nesting.
fn loop_mask(code: &[String]) -> Vec<Vec<bool>> {
    let mut stack: Vec<bool> = Vec::new();
    let mut pending = String::new();
    let mut masks = Vec::with_capacity(code.len());
    for line in code {
        let mut mask = vec![false; line.len()];
        for (at, c) in line.char_indices() {
            match c {
                '{' => {
                    let is_loop = has_token(&pending, "for")
                        || has_token(&pending, "while")
                        || has_token(&pending, "loop");
                    stack.push(is_loop);
                    pending.clear();
                }
                '}' => {
                    stack.pop();
                    pending.clear();
                }
                ';' => pending.clear(),
                _ => pending.push(c),
            }
            let in_loop = stack.iter().any(|&l| l);
            for m in mask.iter_mut().skip(at).take(c.len_utf8()) {
                *m = in_loop;
            }
        }
        masks.push(mask);
    }
    masks
}

fn rule_no_alloc_in_row_loops(
    rel: &str,
    s: &Scanned,
    source_lines: &[&str],
    allow: &Allowlist,
    findings: &mut Vec<Finding>,
) {
    if !row_loop_alloc_path(rel) {
        return;
    }
    let in_test = test_mod_lines(&s.code);
    let masks = loop_mask(&s.code);
    for (i, code) in s.code.iter().enumerate() {
        if in_test[i] {
            continue;
        }
        for needle in ["Vec::new", "format!", ".to_vec()"] {
            let mut start = 0;
            while let Some(pos) = code[start..].find(needle) {
                let at = start + pos;
                start = at + needle.len();
                if !masks[i].get(at).copied().unwrap_or(false) {
                    continue;
                }
                let source = source_lines.get(i).copied().unwrap_or("");
                if allow.permits(rel, source) {
                    continue;
                }
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    message: format!(
                        "`{needle}` inside a loop on the wire path — this \
                         runs once per row and breaks the allocation \
                         budget; reuse a caller-owned buffer, hoist the \
                         allocation out of the loop, or add a vetted entry \
                         to crates/xtask/lint-allow.txt"
                    ),
                });
                break;
            }
        }
    }
}

/// Identifiers declared as `AtomicPtr` in this file: `name: AtomicPtr<…>`
/// fields/params and `let name = AtomicPtr::new(…)` bindings.
fn atomic_ptr_idents(s: &Scanned) -> HashSet<String> {
    let mut names = HashSet::new();
    for code in &s.code {
        let mut start = 0;
        while let Some(pos) = code[start..].find("AtomicPtr") {
            let at = start + pos;
            let before = code[..at].trim_end();
            // `name: AtomicPtr<…>` fields or `let name = AtomicPtr::new(…)`.
            let lead = before
                .strip_suffix(':')
                .or_else(|| before.strip_suffix('='));
            if let Some(lead) = lead {
                if let Some(name) = lead
                    .trim_end()
                    .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                {
                    if !name.is_empty() {
                        names.insert(name.to_string());
                    }
                }
            }
            start = at + "AtomicPtr".len();
        }
    }
    names
}

/// Split the text of a call's arguments (starting just past the opening
/// parenthesis) on top-level commas, stopping at the matching close.
fn call_args(text: &str) -> Vec<String> {
    let mut args = Vec::new();
    let mut depth = 0i32;
    let mut current = String::new();
    for c in text.chars() {
        match c {
            '(' | '[' | '{' => {
                depth += 1;
                current.push(c);
            }
            ')' | ']' | '}' => {
                if depth == 0 {
                    break;
                }
                depth -= 1;
                current.push(c);
            }
            ',' if depth == 0 => {
                args.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        args.push(current);
    }
    args
}

fn rule_no_relaxed_pointer_publish(rel: &str, s: &Scanned, findings: &mut Vec<Finding>) {
    let ptr_idents = atomic_ptr_idents(s);
    for (i, code) in s.code.iter().enumerate() {
        for (method, success_arg_from_end) in
            [(".store(", 1), (".swap(", 1), (".compare_exchange", 2)]
        {
            let Some(pos) = code.find(method) else {
                continue;
            };
            // Whose method is it? Raw-pointer operands make any receiver
            // suspect; otherwise require a known AtomicPtr identifier.
            let receiver = code[..pos]
                .rsplit(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or("");
            // The call may wrap; give the argument splitter this line and
            // the next few.
            let open = code[pos..]
                .find('(')
                .map(|o| pos + o + 1)
                .unwrap_or(code.len());
            let mut text = code[open..].to_string();
            for extra in s.code.iter().skip(i + 1).take(4) {
                text.push(' ');
                text.push_str(extra);
            }
            let args = call_args(&text);
            let publishes_ptr = ptr_idents.contains(receiver)
                || args.iter().any(|a| {
                    a.contains("Box::into_raw") || a.contains("null_mut") || a.contains("as *mut")
                });
            if !publishes_ptr || args.len() < success_arg_from_end {
                continue;
            }
            // For store/swap the ordering is the last argument; for
            // compare_exchange it is the *success* ordering (second from
            // last) — a Relaxed *failure* ordering is fine.
            let ordering = &args[args.len() - success_arg_from_end];
            if ordering.contains("Relaxed") {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    message: "`Ordering::Relaxed` on a pointer-publishing \
                              store — readers may see uninitialized pointee; \
                              use `Release` (or stronger)"
                        .to_string(),
                });
            }
        }
    }
}

/// Convenience for `main` and tests: lint one on-disk file.
pub fn lint_path(root: &Path, abs: &Path, allow: &Allowlist) -> Vec<Finding> {
    let rel = abs
        .strip_prefix(root)
        .unwrap_or(abs)
        .to_string_lossy()
        .replace('\\', "/");
    match std::fs::read_to_string(abs) {
        Ok(src) => lint_file(&rel, &src, allow),
        Err(e) => vec![Finding {
            file: rel,
            line: 0,
            message: format!("unreadable: {e}"),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        lint_file(rel, src, &Allowlist::empty())
    }

    #[test]
    fn unsafe_without_safety_fires() {
        let f = lint(
            "crates/x/src/lib.rs",
            "fn f(p: *mut u8) { unsafe { *p = 0 }; }\n",
        );
        assert_eq!(
            f.len(),
            1,
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert!(f[0].message.contains("SAFETY"));
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn unsafe_with_adjacent_safety_passes() {
        let src = "// SAFETY: p is valid for writes, caller contract.\n\
                   fn f(p: *mut u8) { unsafe { *p = 0 } }\n";
        assert!(lint("a.rs", src).is_empty());
        // A long comment block still counts — SAFETY: may be several
        // lines above as long as the comment is contiguous.
        let long = "// SAFETY: this pointer came from Box::into_raw and\n\
                    // ownership is transferred here, so dereferencing\n\
                    // is sound for the lifetime of the call.\n\
                    fn f(p: *mut u8) { unsafe { *p = 0 } }\n";
        assert!(lint("a.rs", long).is_empty());
    }

    #[test]
    fn unsafe_in_string_or_comment_is_ignored() {
        let src = "let s = \"unsafe { }\"; // unsafe is discussed here\n";
        assert!(lint("a.rs", src).is_empty());
        // `unsafe_code` (the lint name) is not the `unsafe` token.
        assert!(lint("a.rs", "#![deny(unsafe_code)]\n").is_empty());
    }

    #[test]
    fn wall_clock_banned_in_popularity_and_policy() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(lint("crates/popularity/src/decay.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/policy.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/snapshot.rs", src).len(), 1);
        // …but fine elsewhere.
        assert!(lint("crates/bench/src/throughput.rs", src).is_empty());
        let sys = "fn f() { let t = SystemTime::now(); }\n";
        assert_eq!(lint("crates/popularity/src/lib.rs", sys).len(), 1);
    }

    #[test]
    fn wall_clock_banned_on_the_whole_serving_path() {
        let src = "fn f() { let t = Instant::now(); }\n";
        for rel in [
            "crates/server/src/client.rs",
            "crates/server/src/server.rs",
            "crates/server/src/gate.rs",
            "crates/server/src/scheduler.rs",
            "crates/core/src/guarded.rs",
            "crates/core/src/clock.rs",
        ] {
            assert_eq!(lint(rel, src).len(), 1, "{rel} must be in R2 scope");
        }
    }

    #[test]
    fn wall_clock_banned_across_the_simulated_world() {
        let src = "fn f() { let t = Instant::now(); }\n";
        for rel in [
            "crates/testkit/src/world.rs",
            "crates/testkit/src/partition.rs",
            "crates/testkit/src/campaign.rs",
            "crates/testkit/src/staleness.rs",
        ] {
            assert_eq!(lint(rel, src).len(), 1, "{rel} must be in R2 scope");
        }
        // `TcpNet` is the real-socket transport: it reads the wall on
        // purpose. Integration tests may time things for real.
        assert!(lint("crates/testkit/src/net.rs", src).is_empty());
        assert!(lint("crates/testkit/tests/cluster_campaigns.rs", src).is_empty());
    }

    #[test]
    fn unwrap_on_cluster_router_path_fires() {
        let src = "fn f() { x.lock().unwrap(); }\n";
        for rel in [
            "crates/testkit/src/world.rs",
            "crates/testkit/src/partition.rs",
        ] {
            assert_eq!(lint(rel, src).len(), 1, "{rel} must be in R3 scope");
        }
        // The campaign driver is a test harness, not the router loop.
        assert!(lint("crates/testkit/src/campaign.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_allowlist_and_test_modules_exempt() {
        // The vetted real-clock impl reads the wall via an allow entry
        // (entries match the exact trimmed source line).
        let src = "fn new() -> RealClock {\n\
                       RealClock {\n\
                           epoch: Instant::now(),\n\
                       }\n\
                   }\n";
        let allow = Allowlist::parse("crates/core/src/clock.rs: epoch: Instant::now(),\n");
        assert!(lint_file("crates/core/src/clock.rs", src, &allow).is_empty());
        assert_eq!(lint("crates/core/src/clock.rs", src).len(), 1);
        // Unit tests may time things for real.
        let test_src = "fn f() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            #[test]\n\
                            fn t() { let t = Instant::now(); }\n\
                        }\n";
        assert!(lint("crates/server/src/scheduler.rs", test_src).is_empty());
    }

    #[test]
    fn unwrap_on_server_path_fires_and_allowlist_clears_it() {
        let src = "fn f() { x.lock().unwrap(); }\n";
        let f = lint("crates/server/src/server.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 1);
        let allow =
            Allowlist::parse("crates/server/src/server.rs: fn f() { x.lock().unwrap(); }\n");
        assert!(lint_file("crates/server/src/server.rs", src, &allow).is_empty());
        // Not a watched file → no finding.
        assert!(lint("crates/server/src/client.rs", src).is_empty());
    }

    #[test]
    fn unwrap_in_test_module_is_exempt() {
        let src = "fn f() {}\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       #[test]\n\
                       fn t() { x.unwrap(); }\n\
                   }\n";
        assert!(lint("crates/server/src/scheduler.rs", src).is_empty());
    }

    #[test]
    fn relaxed_pointer_store_fires() {
        let src = "struct S { head: AtomicPtr<u8> }\n\
                   fn f(s: &S, p: *mut u8) { s.head.store(p, Ordering::Relaxed); }\n";
        let f = lint("a.rs", src);
        assert_eq!(
            f.len(),
            1,
            "{:?}",
            f.iter().map(|x| x.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(f[0].line, 2);
        // Release is fine.
        let ok = "struct S { head: AtomicPtr<u8> }\n\
                  fn f(s: &S, p: *mut u8) { s.head.store(p, Ordering::Release); }\n";
        assert!(lint("a.rs", ok).is_empty());
    }

    #[test]
    fn relaxed_failure_ordering_on_cas_is_fine() {
        let src = "struct S { head: AtomicPtr<u8> }\n\
                   fn f(s: &S, n: *mut u8, c: *mut u8) {\n\
                       s.head.compare_exchange(c, n, Ordering::Release, Ordering::Relaxed);\n\
                   }\n";
        assert!(
            lint("a.rs", src).is_empty(),
            "Relaxed failure ordering is idiomatic"
        );
        let bad = "struct S { head: AtomicPtr<u8> }\n\
                   fn f(s: &S, n: *mut u8, c: *mut u8) {\n\
                       s.head.compare_exchange(c, n, Ordering::Relaxed, Ordering::Relaxed);\n\
                   }\n";
        assert_eq!(
            lint("a.rs", bad).len(),
            1,
            "Relaxed success ordering must fire"
        );
    }

    #[test]
    fn relaxed_raw_pointer_store_without_decl_fires() {
        let src = "fn f(a: &SomeAtomic) { a.store(Box::into_raw(b), Ordering::Relaxed); }\n";
        assert_eq!(lint("a.rs", src).len(), 1);
    }

    #[test]
    fn relaxed_integer_store_is_fine() {
        let src = "struct S { n: AtomicU64 }\n\
                   fn f(s: &S) { s.n.store(1, Ordering::Relaxed); }\n";
        assert!(lint("a.rs", src).is_empty());
    }

    #[test]
    fn collect_on_server_hot_path_fires() {
        let src = "fn f(rows: Vec<Row>) { let v = rows.iter().collect::<Vec<_>>(); }\n";
        for rel in ["crates/server/src/gate.rs", "crates/server/src/server.rs"] {
            let f = lint(rel, src);
            assert_eq!(f.len(), 1, "{rel} must be in R5 scope");
            assert!(f[0].message.contains("stream"));
        }
        // Fine off the hot path (clients and tests materialize freely).
        assert!(lint("crates/server/src/client.rs", src).is_empty());
        assert!(lint("crates/core/src/guarded.rs", src).is_empty());
    }

    #[test]
    fn collect_allowlist_and_test_modules_exempt() {
        let src = "fn f(c: &[String]) { let v = c.iter().cloned().collect::<Vec<_>>(); }\n";
        let allow = Allowlist::parse(
            "crates/server/src/gate.rs: fn f(c: &[String]) { let v = c.iter().cloned().collect::<Vec<_>>(); }\n",
        );
        assert!(lint_file("crates/server/src/gate.rs", src, &allow).is_empty());
        assert_eq!(lint("crates/server/src/gate.rs", src).len(), 1);
        let test_src = "fn f() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            #[test]\n\
                            fn t() { let v: Vec<u8> = (0..9).collect(); }\n\
                        }\n";
        assert!(lint("crates/server/src/gate.rs", test_src).is_empty());
    }

    #[test]
    fn collect_in_string_or_comment_is_ignored() {
        let src = "// results .collect() whole is discussed here\n\
                   fn f() { let s = \"never .collect()\"; }\n";
        assert!(lint("crates/server/src/gate.rs", src).is_empty());
    }

    #[test]
    fn per_row_alloc_in_loop_fires_on_every_wire_file() {
        for bad in [
            "fn f(rows: &[Row]) { for r in rows { let v = Vec::new(); } }\n",
            "fn f(rows: &[Row]) { for r in rows { let s = format!(\"{r:?}\"); } }\n",
            "fn f(rows: &[Row]) { for r in rows { let b = r.bytes.to_vec(); } }\n",
            "fn f(n: u64) { while n > 0 { let v = Vec::new(); } }\n",
            "fn f() { loop { let v = Vec::new(); } }\n",
        ] {
            for rel in [
                "crates/server/src/gate.rs",
                "crates/server/src/scheduler.rs",
                "crates/server/src/protocol.rs",
                "crates/testkit/src/world.rs",
            ] {
                let f = lint(rel, bad);
                assert_eq!(f.len(), 1, "{rel} must flag {bad:?}");
                assert!(f[0].message.contains("once per row"));
            }
        }
    }

    #[test]
    fn statement_cache_is_in_r3_and_r6_scope() {
        let rel = "crates/query/src/stmt_cache.rs";
        let unwrap = "fn f() { x.lock().unwrap(); }\n";
        assert_eq!(lint(rel, unwrap).len(), 1, "{rel} must be in R3 scope");
        let per_byte = "fn f(sql: &str) { for b in sql.bytes() { let v = Vec::new(); } }\n";
        let f = lint(rel, per_byte);
        assert_eq!(f.len(), 1, "{rel} must be in R6 scope");
        assert!(f[0].message.contains("once per row"));
    }

    #[test]
    fn mutation_path_allocs_only_outside_loops() {
        // The write path's once-per-statement allocations (error-message
        // `format!`, the owned table name) sit outside any loop, so the
        // rule stays quiet; the same tokens inside the reply-drain loop
        // fire. This pins R6 coverage of `handle_mutation` in gate.rs.
        let once_per_stmt = "fn handle_mutation(&self, sql: &str) {\n\
                                 let table = t.clone();\n\
                                 let msg = format!(\"statement does not match {v} frame\");\n\
                                 for job in jobs.drain(..) {\n\
                                     sink.push_row(job);\n\
                                 }\n\
                             }\n";
        assert!(lint("crates/server/src/gate.rs", once_per_stmt).is_empty());
        let per_row = "fn handle_mutation(&self) {\n\
                           for job in jobs.drain(..) {\n\
                               let msg = format!(\"row {job:?}\");\n\
                           }\n\
                       }\n";
        let f = lint("crates/server/src/gate.rs", per_row);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn alloc_outside_loops_is_fine() {
        // Per-chunk and per-connection allocations sit outside any loop.
        let src = "fn f(rows: &[Row]) {\n\
                       let mut jobs = Vec::new();\n\
                       for r in rows {\n\
                           jobs.push(r.id);\n\
                       }\n\
                       let tail = Vec::new();\n\
                   }\n";
        assert!(lint("crates/server/src/gate.rs", src).is_empty());
        // Same tokens in an unwatched file never fire.
        let loopy = "fn f(rows: &[Row]) { for r in rows { let v = Vec::new(); } }\n";
        assert!(lint("crates/server/src/server.rs", loopy).is_empty());
        assert!(lint("crates/core/src/guarded.rs", loopy).is_empty());
    }

    #[test]
    fn alloc_in_nested_block_of_loop_still_fires() {
        let src = "fn f(rows: &[Row]) {\n\
                       for r in rows {\n\
                           if r.big() {\n\
                               let v = Vec::new();\n\
                           }\n\
                       }\n\
                   }\n";
        assert_eq!(lint("crates/server/src/protocol.rs", src).len(), 1);
    }

    #[test]
    fn loop_keyword_in_identifier_or_format_is_not_a_loop() {
        // `format!` must not read as a `for` loop header, and a call
        // after a closed loop body is back outside it.
        let src = "fn f(rows: &[Row]) {\n\
                       for r in rows { touch(r); }\n\
                       let label = format!(\"n={}\", rows.len());\n\
                   }\n";
        assert!(lint("crates/server/src/gate.rs", src).is_empty());
    }

    #[test]
    fn row_loop_alloc_allowlist_and_test_modules_exempt() {
        let src = "fn f(rows: &[Row]) { for r in rows { let v = r.b.to_vec(); } }\n";
        let allow = Allowlist::parse(
            "crates/server/src/gate.rs: fn f(rows: &[Row]) { for r in rows { let v = r.b.to_vec(); } }\n",
        );
        assert!(lint_file("crates/server/src/gate.rs", src, &allow).is_empty());
        assert_eq!(lint("crates/server/src/gate.rs", src).len(), 1);
        let test_src = "fn f() {}\n\
                        #[cfg(test)]\n\
                        mod tests {\n\
                            #[test]\n\
                            fn t() { for i in 0..4 { let v = Vec::new(); } }\n\
                        }\n";
        assert!(lint("crates/server/src/scheduler.rs", test_src).is_empty());
    }
}
