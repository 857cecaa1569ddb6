//! Repo-invariant lints for delayguard: `cargo run -p xtask -- lint`.
//!
//! Walks every `.rs` file in the repository (skipping `target/` and
//! `.git/`), runs the per-file token-level rules in [`rules`] (R1–R6),
//! then one workspace pass (R7: every `pub` item of a library crate has a
//! caller outside tests, and another crate names it) and a check that
//! every allow-list entry still matches a line. Findings print as `file:line: message`, and any
//! finding exits non-zero. CI runs this as the `lint-invariants` job; it
//! is also fast enough (< 1 s) for a pre-commit hook.

mod rules;
mod scan;

use std::path::{Path, PathBuf};

use rules::{Allowlist, Finding};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let root = repo_root();
            let (findings, scanned) = lint_repo(&root);
            if findings.is_empty() {
                println!("xtask lint: OK ({scanned} files scanned)");
            } else {
                for f in &findings {
                    println!("{f}");
                }
                eprintln!(
                    "xtask lint: {} finding(s) in {scanned} files",
                    findings.len()
                );
                std::process::exit(1);
            }
        }
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint");
            std::process::exit(2);
        }
    }
}

/// The repository root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

/// Lint every Rust file under `root`; returns (findings, files scanned).
/// The per-file rules run first, then the workspace pass (R7, which needs
/// every file's callers), then the check for stale allow-list entries.
fn lint_repo(root: &Path) -> (Vec<Finding>, usize) {
    let allow = load_allowlist(root);
    let mut paths = Vec::new();
    collect_rs_files(root, &mut paths);
    paths.sort();
    let mut findings = Vec::new();
    let mut files = Vec::with_capacity(paths.len());
    for abs in &paths {
        let rel = abs
            .strip_prefix(root)
            .unwrap_or(abs)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(abs) {
            Ok(src) => {
                findings.extend(rules::lint_file(&rel, &src, &allow));
                files.push((rel, src));
            }
            Err(e) => findings.push(Finding {
                file: rel,
                line: 0,
                message: format!("unreadable: {e}"),
            }),
        }
    }
    findings.extend(rules::rule_pub_needs_caller(&files, &allow));
    findings.extend(rules::stale_allow_entries(&allow, &files));
    (findings, paths.len())
}

fn load_allowlist(root: &Path) -> Allowlist {
    match std::fs::read_to_string(root.join(rules::ALLOWLIST_PATH)) {
        Ok(text) => Allowlist::parse(&text),
        Err(_) => Allowlist::empty(),
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lint passes on the repository itself: every `unsafe` carries a
    /// SAFETY comment, deterministic layers take time as a parameter, the
    /// server paths' panics are vetted, no pointer publish is Relaxed,
    /// every library `pub` item has a non-test caller, and no allow-list
    /// entry is stale. If this fails, fix the code (or vet the site in
    /// lint-allow.txt) rather than weakening the rule.
    #[test]
    fn workspace_is_clean() {
        let root = repo_root();
        let (findings, scanned) = lint_repo(&root);
        assert!(
            scanned > 50,
            "walker found only {scanned} files — is the root ({}) right?",
            root.display()
        );
        let rendered: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            rendered.join("\n")
        );
    }

    /// End-to-end negative check: an unsafe block without SAFETY in a
    /// scratch file is reported with its path and line.
    #[test]
    fn dirty_file_is_reported() {
        let dir = std::env::temp_dir().join("xtask-lint-fixture");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("dirty.rs");
        std::fs::write(&file, "fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n").unwrap();
        let (findings, scanned) = lint_repo(&dir);
        assert_eq!(scanned, 1);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].to_string().starts_with("dirty.rs:2:"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
