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
//! * **R7 a `pub` item needs a non-test caller** — every `pub
//!   fn|struct|enum|trait|type|const|static` in the non-test code of the
//!   library and bench crates (`crates/{storage,query,popularity,core,
//!   workload,sim,server,bench}/src`) must be named, as a whole
//!   identifier, somewhere in non-test code other than its own
//!   declaration line. Non-test code is every `crates/*/src` file
//!   (testkit and the bench bins included), `src/`, `examples/` and
//!   `benchmark/src/`, minus `#[cfg(test)]` modules and items; `tests/`
//!   directories, doc tests, comments, literals and `use`/`mod` lines
//!   never count. Uses in the declaring file count, so a type named only
//!   in its own file's signatures passes. rustc's `dead_code` cannot see
//!   an unused `pub` item of a library; this rule finds the code only
//!   tests reach, which is a liability, not an asset. `pub(crate)` items,
//!   trait-impl items, fields and variants are not checked, nor are the
//!   testkit (whose API exists for tests), xtask and `vendor/`. The rule
//!   is word-level: an item sharing its name with a live one passes.
//!   Vetted exceptions in `crates/xtask/lint-allow.txt` carry one of
//!   four reasons: (a) pending ROADMAP item 2 (durable state), (b) a
//!   reference model a test compares the product against, (c) the test
//!   clock, or (d) at most three others, each naming the test that
//!   cannot move onto a surviving API.
//!
//! The allow-list is checked too: an entry whose line no longer exists
//! in its file is reported as stale, so deleted code takes its vetting
//! with it.

use std::collections::{HashMap, HashSet};

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

/// Where the vetted exceptions live, repo-relative.
pub const ALLOWLIST_PATH: &str = "crates/xtask/lint-allow.txt";

/// Vetted sites: `path: trimmed-source-line` entries.
pub struct Allowlist {
    /// `(line in the allow file, path, trimmed source line)`, in file
    /// order, so a stale entry can be reported where it sits.
    entries: Vec<(usize, String, String)>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Allowlist {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some((path, code)) = line.split_once(':') {
                entries.push((i + 1, path.trim().to_string(), code.trim().to_string()));
            }
        }
        Allowlist { entries }
    }

    pub fn empty() -> Allowlist {
        Allowlist::parse("")
    }

    fn permits(&self, file: &str, source_line: &str) -> bool {
        let line = source_line.trim();
        self.entries
            .iter()
            .any(|(_, path, code)| path == file && code == line)
    }
}

/// Allow-list entries that vet nothing: the named file is not among
/// `files` (repo-relative path, source), or none of its lines is the
/// entry's line once trimmed. An entry outlives the code it vetted
/// whenever that code is deleted or edited, and a stale entry would
/// silently vet the line if it ever came back.
pub fn stale_allow_entries(allow: &Allowlist, files: &[(String, String)]) -> Vec<Finding> {
    let sources: HashMap<&str, &str> = files
        .iter()
        .map(|(rel, src)| (rel.as_str(), src.as_str()))
        .collect();
    allow
        .entries
        .iter()
        .filter(|(_, path, code)| {
            !sources
                .get(path.as_str())
                .is_some_and(|src| src.lines().any(|l| l.trim() == code))
        })
        .map(|(line, path, code)| Finding {
            file: ALLOWLIST_PATH.to_string(),
            line: *line,
            message: format!("stale entry: no line of {path} reads `{code}` — delete the entry"),
        })
        .collect()
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

/// Crates whose `pub` items R7 checks: the library and bench crates.
/// The testkit's API exists to be called by tests, xtask is a binary,
/// and `vendor/` shims external APIs.
const R7_CRATES: [&str; 8] = [
    "storage",
    "query",
    "popularity",
    "core",
    "workload",
    "sim",
    "server",
    "bench",
];

fn r7_declares(rel: &str) -> bool {
    R7_CRATES.iter().any(|c| {
        rel.strip_prefix("crates/")
            .and_then(|r| r.strip_prefix(c))
            .is_some_and(|r| r.starts_with("/src/"))
    })
}

/// Files whose non-test code can be a caller: every crate's `src/`
/// (testkit and the bench bins included), the facade, the examples and
/// wirebench. `tests/` directories never count.
fn is_program_file(rel: &str) -> bool {
    rel.starts_with("src/")
        || rel.starts_with("examples/")
        || rel.starts_with("benchmark/src/")
        || (rel.starts_with("crates/") && rel.split('/').nth(2) == Some("src"))
}

/// Per-line flag: test-only code. That is the unit-test modules, plus any
/// other item under `#[cfg(test)]`, up to its closing brace or `;`.
fn test_only_lines(code: &[String]) -> Vec<bool> {
    let mut test = test_mod_lines(code);
    let mut i = 0;
    while i < code.len() {
        if test[i] || !code[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // The attribute holds no brace or `;`, so the item ends at the
        // first `;` outside braces or at its closing brace.
        let mut depth = 0i32;
        let mut k = i;
        'item: while k < code.len() {
            test[k] = true;
            for c in code[k].chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break 'item;
                        }
                    }
                    ';' if depth == 0 => break 'item,
                    _ => {}
                }
            }
            k += 1;
        }
        i = k + 1;
    }
    test
}

/// Per-line flag: part of a `use`, `pub use` or `mod` item, which names
/// an item without calling it. A `use` may wrap onto later lines.
fn import_lines(code: &[String]) -> Vec<bool> {
    let mut import = vec![false; code.len()];
    let mut open = false;
    for (i, line) in code.iter().enumerate() {
        let t = line.trim_start();
        let t = t
            .strip_prefix("pub(crate) ")
            .or_else(|| t.strip_prefix("pub "))
            .unwrap_or(t);
        let is_mod = t.starts_with("mod ");
        if open || is_mod || t.starts_with("use ") {
            import[i] = true;
            // An inline `mod name {` body is code; a `use` runs to its `;`.
            open = !(line.contains(';') || is_mod && line.contains('{'));
        }
    }
    import
}

/// The name a `pub fn|struct|enum|trait|type|const|static` line declares.
/// `pub(crate)` and other restricted items, fields and `pub mod`/`pub use`
/// are not declarations R7 checks.
fn pub_decl(code: &str) -> Option<&str> {
    let mut words = code.trim_start().strip_prefix("pub ")?.split_whitespace();
    loop {
        match words.next()? {
            "fn" | "struct" | "enum" | "trait" | "type" => break,
            "unsafe" | "async" => continue,
            "static" => {
                if words.clone().next() == Some("mut") {
                    words.next();
                }
                break;
            }
            // `pub const fn` is a function; `pub const NAME` a constant.
            "const" if matches!(words.clone().next(), Some("fn" | "unsafe" | "async")) => {}
            "const" => break,
            _ => return None,
        }
    }
    let word = words.next()?;
    let name = &word[..word.bytes().take_while(|&b| is_ident_byte(b)).count()];
    (!name.is_empty()).then_some(name)
}

/// Whole identifiers in a code line.
fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// R7: a `pub` item in a checked crate needs a caller in non-test code.
/// A caller is the item's name as a whole identifier on any line of a
/// program file (same file included) other than the declaration itself,
/// outside test-only code and outside `use`/`mod` lines. Comments and
/// literals are already blanked by the scanner, so doc tests never count.
/// `files` holds (repo-relative path, source) for the whole workspace.
pub fn rule_pub_needs_caller(files: &[(String, String)], allow: &Allowlist) -> Vec<Finding> {
    struct Decl<'a> {
        file: usize,
        line: usize,
        name: &'a str,
    }
    let scanned: Vec<Option<Scanned>> = files
        .iter()
        .map(|(rel, src)| is_program_file(rel).then(|| scan(src)))
        .collect();
    let mut counted = Vec::with_capacity(files.len());
    let mut decls = Vec::new();
    for (f, s) in scanned.iter().enumerate() {
        let Some(s) = s else {
            counted.push(Vec::new());
            continue;
        };
        let test = test_only_lines(&s.code);
        let import = import_lines(&s.code);
        if r7_declares(&files[f].0) {
            for (line, code) in s.code.iter().enumerate() {
                if let Some(name) = pub_decl(code).filter(|_| !test[line]) {
                    decls.push(Decl {
                        file: f,
                        line,
                        name,
                    });
                }
            }
        }
        counted.push((0..s.code.len()).map(|i| !test[i] && !import[i]).collect());
    }
    // name -> the (file, line) sites that mention it.
    let mut sites: HashMap<&str, Vec<(usize, usize)>> =
        decls.iter().map(|d| (d.name, Vec::new())).collect();
    for (f, s) in scanned.iter().enumerate() {
        let Some(s) = s else { continue };
        for (line, code) in s.code.iter().enumerate() {
            if !counted[f][line] {
                continue;
            }
            for word in idents(code) {
                if let Some(v) = sites.get_mut(word) {
                    if v.last() != Some(&(f, line)) {
                        v.push((f, line));
                    }
                }
            }
        }
    }
    let mut findings = Vec::new();
    for d in &decls {
        if sites[d.name].iter().any(|&at| at != (d.file, d.line)) {
            continue;
        }
        let (rel, src) = &files[d.file];
        if allow.permits(rel, src.lines().nth(d.line).unwrap_or("")) {
            continue;
        }
        findings.push(Finding {
            file: rel.clone(),
            line: d.line + 1,
            message: format!(
                "`pub` item `{}` has no caller outside tests — delete it, or \
                 vet it with a reason in crates/xtask/lint-allow.txt",
                d.name
            ),
        });
    }
    findings
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

    /// R7 over a workspace given as (repo-relative path, source) pairs.
    fn r7(files: &[(&str, &str)], allow: &Allowlist) -> Vec<String> {
        let files: Vec<(String, String)> = files
            .iter()
            .map(|(rel, src)| (rel.to_string(), src.to_string()))
            .collect();
        rule_pub_needs_caller(&files, allow)
            .iter()
            .map(|f| f.to_string())
            .collect()
    }

    const DECL: &str = "pub fn orphan() -> u32 {\n    7\n}\n";

    #[test]
    fn pub_fn_reached_only_from_tests_fires() {
        let lib = format!(
            "{DECL}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{ super::orphan(); }}\n}}\n"
        );
        let f = r7(
            &[
                ("crates/core/src/lib.rs", &lib),
                (
                    "crates/core/tests/it.rs",
                    "fn t() { delayguard_core::orphan(); }\n",
                ),
                ("tests/e2e.rs", "fn t() { orphan(); }\n"),
            ],
            &Allowlist::empty(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].starts_with("crates/core/src/lib.rs:1:"), "{f:?}");
        assert!(f[0].contains("`orphan`"));
        // A `#[cfg(test)]` item outside a test module does not count either.
        let item = format!("{DECL}#[cfg(test)]\nfn helper() -> u32 {{\n    orphan()\n}}\n");
        assert_eq!(
            r7(&[("crates/core/src/lib.rs", &item)], &Allowlist::empty()).len(),
            1
        );
    }

    #[test]
    fn caller_in_program_code_passes() {
        for caller in [
            "crates/server/src/gate.rs",
            "crates/testkit/src/world.rs",
            "crates/bench/src/bin/writes.rs",
            "src/lib.rs",
            "examples/demo.rs",
            "benchmark/src/probes.rs",
        ] {
            let f = r7(
                &[
                    ("crates/core/src/lib.rs", DECL),
                    (
                        caller,
                        "fn go() -> u32 {\n    delayguard_core::orphan()\n}\n",
                    ),
                ],
                &Allowlist::empty(),
            );
            assert!(f.is_empty(), "{caller}: {f:?}");
        }
        // A use later in the declaring file counts too.
        let same_file =
            format!("{DECL}pub struct S;\nimpl S {{\n    fn f() -> u32 {{ orphan() }}\n}}\n");
        let f = r7(
            &[("crates/core/src/lib.rs", &same_file)],
            &Allowlist::empty(),
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn comments_literals_and_imports_are_not_callers() {
        let f = r7(
            &[
                ("crates/core/src/lib.rs", DECL),
                (
                    "crates/server/src/gate.rs",
                    "use delayguard_core::orphan;\n\
                     pub use delayguard_core::{\n    orphan,\n};\n\
                     // orphan() is mentioned here\n\
                     /// Doc test:\n/// ```\n/// orphan();\n/// ```\n\
                     fn f() -> &'static str { \"orphan()\" }\n",
                ),
            ],
            &Allowlist::empty(),
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn allowlist_silences_r7() {
        let allow = Allowlist::parse("crates/core/src/lib.rs: pub fn orphan() -> u32 {\n");
        assert!(r7(&[("crates/core/src/lib.rs", DECL)], &allow).is_empty());
    }

    #[test]
    fn r7_checks_only_the_library_and_bench_crates() {
        for rel in [
            "crates/testkit/src/world.rs",
            "crates/xtask/src/main.rs",
            "vendor/parking_lot/src/lib.rs",
            "crates/core/tests/it.rs",
            "examples/demo.rs",
        ] {
            assert!(r7(&[(rel, DECL)], &Allowlist::empty()).is_empty(), "{rel}");
        }
        for rel in [
            "crates/storage/src/heap.rs",
            "crates/popularity/src/tracker.rs",
            "crates/bench/src/report.rs",
        ] {
            assert_eq!(r7(&[(rel, DECL)], &Allowlist::empty()).len(), 1, "{rel}");
        }
    }

    #[test]
    fn r7_declarations_of_every_kind() {
        let src = "pub struct Orphan;\n\
                   pub const fn orphan_fn() {}\n\
                   pub(crate) fn narrowed() {}\n\
                   pub struct Holder {\n    pub field: u32,\n}\n\
                   pub static mut ORPHAN_STATIC: u32 = 0;\n\
                   pub mod module;\n";
        let f = r7(&[("crates/sim/src/lib.rs", src)], &Allowlist::empty());
        let names: Vec<&str> = f.iter().map(|m| m.split('`').nth(3).unwrap()).collect();
        assert_eq!(names, ["Orphan", "orphan_fn", "Holder", "ORPHAN_STATIC"]);
    }

    #[test]
    fn stale_allow_entries_are_reported() {
        let allow = Allowlist::parse(
            "# a comment\n\
             crates/a.rs: let live = 1;\n\
             \n\
             crates/a.rs: let gone = 2;\n\
             crates/missing.rs: let live = 1;\n",
        );
        let files = vec![(
            "crates/a.rs".to_string(),
            "fn f() {\n    let live = 1;\n}\n".to_string(),
        )];
        let f: Vec<String> = stale_allow_entries(&allow, &files)
            .iter()
            .map(|f| f.to_string())
            .collect();
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].starts_with("crates/xtask/lint-allow.txt:4:"), "{f:?}");
        assert!(f[0].contains("let gone = 2;"));
        assert!(f[1].starts_with("crates/xtask/lint-allow.txt:5:"), "{f:?}");
        assert!(f[1].contains("crates/missing.rs"));
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
