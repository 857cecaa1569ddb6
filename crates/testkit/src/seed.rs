//! Seed plumbing: every failure prints the seed that reproduces it.
//!
//! Tests run their body under [`check`] (one seed) or [`check_seeds`]
//! (several). On a panic the harness prints the exact command that
//! replays the failing execution — `TESTKIT_REPLAY=<seed> cargo test ...`
//! — and then resumes the panic so the test still fails. Setting
//! `TESTKIT_REPLAY` overrides every default seed in the process, which is
//! how CI failure output becomes a local single-seed rerun.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The environment variable that overrides every default seed.
pub const REPLAY_ENV: &str = "TESTKIT_REPLAY";

/// The seed to use: `TESTKIT_REPLAY` if set (and parseable as `u64`),
/// otherwise `default_seed`.
pub fn replay_seed(default_seed: u64) -> u64 {
    match std::env::var(REPLAY_ENV) {
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("{REPLAY_ENV}={v:?} is not a u64 seed")),
        Err(_) => default_seed,
    }
}

/// Run `body` with the (possibly replay-overridden) seed; on panic,
/// print the replay command before failing.
pub fn check<F: FnOnce(u64)>(name: &str, default_seed: u64, body: F) {
    run_with_seed(name, replay_seed(default_seed), body);
}

/// Run `body` once per seed. With `TESTKIT_REPLAY` set, runs only that
/// seed — the failing execution, nothing else.
pub fn check_seeds<F: FnMut(u64)>(name: &str, default_seeds: &[u64], mut body: F) {
    if std::env::var_os(REPLAY_ENV).is_some() {
        run_with_seed(name, replay_seed(0), &mut body);
        return;
    }
    for &seed in default_seeds {
        run_with_seed(name, seed, &mut body);
    }
}

fn run_with_seed<F: FnOnce(u64)>(name: &str, seed: u64, body: F) {
    // The body only sees the seed by value, so unwind safety is trivially
    // fine: nothing shared survives the panic.
    let result = catch_unwind(AssertUnwindSafe(|| body(seed)));
    if let Err(panic) = result {
        eprintln!("\n=== testkit failure in `{name}` (seed {seed}) ===");
        eprintln!("replay the exact execution with:");
        eprintln!("    {REPLAY_ENV}={seed} cargo test -p delayguard-testkit {name}\n");
        resume_unwind(panic);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_used_without_env() {
        // The replay env var applies process-wide; tests that set it
        // would race. This only checks the default path (CI never sets
        // TESTKIT_REPLAY for the plain test job).
        if std::env::var(REPLAY_ENV).is_err() {
            assert_eq!(replay_seed(42), 42);
        }
    }

    #[test]
    fn panics_propagate_through_check() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            check("inner", 7, |_seed| panic!("boom"));
        }));
        assert!(caught.is_err(), "check must not swallow failures");
    }

    #[test]
    fn check_seeds_runs_every_seed() {
        if std::env::var(REPLAY_ENV).is_ok() {
            return; // replay mode pins a single seed by design
        }
        let mut seen = Vec::new();
        check_seeds("multi", &[1, 2, 3], |s| seen.push(s));
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
