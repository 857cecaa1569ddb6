//! A lightweight metrics registry shared by the simulator and the server.
//!
//! [`Registry`] hands out cheap clonable handles — monotonically
//! increasing [`Counter`]s and settable [`Gauge`]s — backed by atomics,
//! so hot paths record without locking; the registry itself only locks to
//! create or enumerate metrics. The server's `STATS` verb and the
//! simulator's reports both render [`Registry::snapshot`].
//!
//! Durations are recorded as integer microseconds (`Counter::add_secs`)
//! so counters stay lock-free `u64`s.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add a duration in seconds, recorded as whole microseconds.
    pub fn add_secs(&self, secs: f64) {
        debug_assert!(secs >= 0.0);
        self.add((secs * 1e6).round() as u64);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways, with a recorded
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
    high_water: Arc<AtomicI64>,
}

impl Gauge {
    /// Set to an absolute value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjust by a signed delta, returning the new value.
    pub fn add(&self, delta: i64) -> i64 {
        let new = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(new, Ordering::Relaxed);
        new
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value ever set or reached.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
}

/// One metric's value in a [`Registry::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter's current count.
    Counter(u64),
    /// A gauge's current value and high-water mark.
    Gauge { value: i64, high_water: i64 },
}

/// A named collection of counters and gauges.
///
/// Cloning the registry clones a handle to the same underlying metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a gauge.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Counter(Counter::default()));
        match metric {
            Metric::Counter(c) => c.clone(),
            Metric::Gauge(_) => panic!("metric {name:?} is a gauge, not a counter"),
        }
    }

    /// The gauge named `name`, created at zero on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a counter.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        let metric = metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::default()));
        match metric {
            Metric::Gauge(g) => g.clone(),
            Metric::Counter(_) => panic!("metric {name:?} is a counter, not a gauge"),
        }
    }

    /// The current value of a metric, if registered.
    pub fn value(&self, name: &str) -> Option<MetricValue> {
        let metrics = self.metrics.lock().unwrap();
        metrics.get(name).map(|m| match m {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge {
                value: g.get(),
                high_water: g.high_water(),
            },
        })
    }

    /// All metrics and their current values, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let metrics = self.metrics.lock().unwrap();
        metrics
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge {
                        value: g.get(),
                        high_water: g.high_water(),
                    },
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Render the snapshot as aligned `name value` lines.
    pub fn render(&self) -> String {
        let snap = self.snapshot();
        let width = snap.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
        let mut out = String::new();
        for (name, value) in snap {
            match value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{name:<width$}  {v}\n"));
                }
                MetricValue::Gauge { value, high_water } => {
                    out.push_str(&format!("{name:<width$}  {value} (high {high_water})\n"));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let r = Registry::new();
        let a = r.counter("queries");
        let b = r.counter("queries");
        a.inc();
        b.add(4);
        assert_eq!(r.value("queries"), Some(MetricValue::Counter(5)));
    }

    #[test]
    fn seconds_recorded_as_micros() {
        let r = Registry::new();
        let c = r.counter("delay_micros");
        c.add_secs(1.5);
        c.add_secs(0.000_25);
        assert_eq!(c.get(), 1_500_250);
    }

    #[test]
    fn gauge_tracks_high_water() {
        let r = Registry::new();
        let g = r.gauge("queue_depth");
        g.add(3);
        g.add(5);
        g.add(-6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8);
        g.set(1);
        assert_eq!(g.high_water(), 8);
    }

    #[test]
    fn snapshot_sorted_and_typed() {
        let r = Registry::new();
        r.counter("b_counter").inc();
        r.gauge("a_gauge").set(-2);
        let snap = r.snapshot();
        assert_eq!(snap[0].0, "a_gauge");
        assert_eq!(
            snap[0].1,
            MetricValue::Gauge {
                value: -2,
                high_water: 0
            }
        );
        assert_eq!(snap[1].1, MetricValue::Counter(1));
        assert!(r.render().contains("b_counter"));
    }

    #[test]
    fn concurrent_updates_do_not_lose_increments() {
        let r = Registry::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = r.counter("n");
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 80_000);
    }

    #[test]
    #[should_panic]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
