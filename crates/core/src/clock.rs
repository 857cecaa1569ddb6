//! The clock facade: one time source for the whole enforcement path.
//!
//! The paper's delays are *durations*; nothing on the deterministic path
//! needs to know what absolute instant it is, only how many nanoseconds
//! have elapsed since some epoch. Every component that enforces delay —
//! [`crate::GuardedDatabase`]'s deadline arithmetic, the server's timer
//! wheel and scheduler, the gatekeeper's registration clock — reads time
//! through a [`Clock`] so the same code runs against the wall
//! ([`RealClock`]) in deployments and against a test-controlled
//! [`ManualClock`] in the deterministic simulation harness
//! (`delayguard-testkit`). The repo lint (`cargo run -p xtask -- lint`)
//! bans raw `Instant::now()` on the deterministic path; the two vetted
//! exceptions live in this file, inside [`RealClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nanoseconds per second, as f64 (for second↔nano conversions).
const NANOS_PER_SEC: f64 = 1e9;

/// Convert clock nanoseconds to seconds.
pub fn nanos_to_secs(nanos: u64) -> f64 {
    nanos as f64 / NANOS_PER_SEC
}

/// Convert non-negative seconds to clock nanoseconds (saturating).
pub fn secs_to_nanos(secs: f64) -> u64 {
    if secs <= 0.0 {
        return 0;
    }
    let n = secs * NANOS_PER_SEC;
    if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        n as u64
    }
}

/// A monotone time source measured in nanoseconds since the clock's own
/// epoch (its moment of construction, for the real clock; tick zero, for
/// a manual clock).
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since the clock's epoch.
    fn now_nanos(&self) -> u64;

    /// Block the calling thread until `deadline` nanos have elapsed.
    ///
    /// The real clock sleeps; a [`ManualClock`] jumps forward instead
    /// (there is no other thread to advance it while this one blocks).
    fn sleep_until_nanos(&self, deadline: u64);

    /// Convenience: seconds elapsed since the clock's epoch.
    fn now_secs(&self) -> f64 {
        nanos_to_secs(self.now_nanos())
    }
}

/// The wall clock: nanoseconds since construction, backed by
/// [`std::time::Instant`].
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// A real clock whose epoch is "now".
    pub fn new() -> RealClock {
        RealClock {
            epoch: Instant::now(),
        }
    }

    /// A shared handle to a fresh real clock.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(RealClock::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl Clock for RealClock {
    fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until_nanos(&self, deadline: u64) {
        let now = self.now_nanos();
        if deadline > now {
            std::thread::sleep(Duration::from_nanos(deadline - now));
        }
    }
}

/// A test-controlled clock: time moves only when the owner advances it.
///
/// Shared by handle (`Arc<ManualClock>`): the simulation driver advances
/// it, and every component threaded with the [`Clock`] trait observes the
/// jump at its next read. Every advance is a single atomic `fetch_max`
/// or `fetch_add`, so concurrent advances can never move time backwards.
#[derive(Debug, Default)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A manual clock at time zero.
    pub fn new() -> ManualClock {
        ManualClock {
            nanos: AtomicU64::new(0),
        }
    }

    /// A shared handle to a fresh manual clock.
    pub fn shared() -> Arc<ManualClock> {
        Arc::new(ManualClock::new())
    }

    /// Jump to an absolute time. Earlier times are ignored (time never
    /// moves backwards).
    pub fn advance_to_nanos(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::SeqCst);
    }

    /// Advance by a relative number of nanoseconds.
    pub fn advance_nanos(&self, dt: u64) {
        self.nanos.fetch_add(dt, Ordering::SeqCst);
    }

    /// Jump to an absolute time given in seconds.
    pub fn advance_to_secs(&self, secs: f64) {
        self.advance_to_nanos(secs_to_nanos(secs));
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::SeqCst)
    }

    fn sleep_until_nanos(&self, deadline: u64) {
        // No one else will move time while this thread blocks: jump.
        self.advance_to_nanos(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(secs_to_nanos(1.5), 1_500_000_000);
        assert_eq!(secs_to_nanos(-3.0), 0);
        assert_eq!(secs_to_nanos(f64::MAX), u64::MAX);
        assert!((nanos_to_secs(2_500_000_000) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
        let before = c.now_nanos();
        c.sleep_until_nanos(before + 2_000_000); // 2 ms
        assert!(c.now_nanos() >= before + 2_000_000);
    }

    #[test]
    fn manual_clock_only_moves_when_advanced() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance_to_nanos(500);
        assert_eq!(c.now_nanos(), 500);
        c.advance_to_nanos(100); // backwards: ignored
        assert_eq!(c.now_nanos(), 500);
        c.advance_nanos(250);
        assert_eq!(c.now_nanos(), 750);
        c.sleep_until_nanos(10_000);
        assert_eq!(c.now_nanos(), 10_000);
        assert!((c.now_secs() - 1e-5).abs() < 1e-18);
    }
}
