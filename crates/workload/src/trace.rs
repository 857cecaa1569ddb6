//! Access traces: timestamped request streams over object keys.

/// One request in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Virtual time of the request (seconds).
    pub time: f64,
    /// Object key requested.
    pub key: u64,
}

/// A request stream plus the object universe it draws from.
#[derive(Debug, Clone)]
pub struct Trace {
    /// All requests in time order.
    pub requests: Vec<Request>,
    /// Number of distinct objects in the universe (keys are `0..objects`).
    pub objects: u64,
}

impl Trace {
    /// Build a trace, asserting time-ordering in debug builds.
    pub fn new(requests: Vec<Request>, objects: u64) -> Trace {
        debug_assert!(
            requests.windows(2).all(|w| w[0].time <= w[1].time),
            "requests must be time-ordered"
        );
        Trace { requests, objects }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Per-key request counts (index = key).
    pub fn counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.objects as usize];
        for r in &self.requests {
            counts[r.key as usize] += 1;
        }
        counts
    }

    /// Empirical rank/frequency table sorted descending: `(key, count)`.
    pub fn rank_table(&self) -> Vec<(u64, u64)> {
        let counts = self.counts();
        let mut table: Vec<(u64, u64)> = counts
            .into_iter()
            .enumerate()
            .filter(|&(_, c)| c > 0)
            .map(|(k, c)| (k as u64, c))
            .collect();
        table.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Trace {
        Trace::new(
            vec![
                Request { time: 0.0, key: 1 },
                Request { time: 1.0, key: 1 },
                Request { time: 2.0, key: 0 },
                Request { time: 3.0, key: 1 },
            ],
            4,
        )
    }

    #[test]
    fn counts_and_distinct() {
        let t = demo();
        assert_eq!(t.len(), 4);
        assert_eq!(t.rank_table().len(), 2);
        assert_eq!(t.counts(), vec![1, 3, 0, 0]);
    }

    #[test]
    fn rank_table_sorted() {
        let t = demo();
        assert_eq!(t.rank_table(), vec![(1, 3), (0, 1)]);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new(vec![], 10);
        assert!(t.is_empty());
        assert_eq!(t.rank_table().len(), 0);
        assert!(t.rank_table().is_empty());
    }
}
