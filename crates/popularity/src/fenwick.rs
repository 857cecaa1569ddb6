//! Fenwick tree (binary indexed tree) over bucket counts.
//!
//! Supports point adds, moves between buckets and prefix/suffix sums in
//! `O(log n)`; backs the approximate order-statistics structure in
//! [`crate::rank`].

/// A Fenwick tree holding non-negative integer counts per bucket. Nodes
/// are `u32`, so the counts may total at most `u32::MAX`.
#[derive(Debug, Clone)]
pub(crate) struct Fenwick {
    tree: Vec<u32>,
    len: usize,
    total: u64,
}

impl Fenwick {
    /// A tree with `len` buckets, all zero.
    pub fn new(len: usize) -> Fenwick {
        Fenwick {
            tree: vec![0; len + 1],
            len,
            total: 0,
        }
    }

    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Sum of all buckets.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `delta` to bucket `i` (0-based).
    pub fn add(&mut self, i: usize, delta: u32) {
        assert!(i < self.len, "bucket {i} out of range {}", self.len);
        let mut idx = i + 1;
        while idx <= self.len {
            self.tree[idx] += delta;
            idx += idx & idx.wrapping_neg();
        }
        self.total += delta as u64;
    }

    /// Move `delta` from bucket `from` to bucket `to` (callers must only
    /// move what the bucket holds). The two update
    /// paths climb toward the root; from the first node they share, the
    /// add and the subtract cancel, so the walk stops there.
    pub(crate) fn shift(&mut self, from: usize, to: usize, delta: u32) {
        assert!(
            from < self.len && to < self.len,
            "bucket {from} or {to} out of range {}",
            self.len
        );
        let (mut i, mut j) = (from + 1, to + 1);
        while i != j {
            if i < j {
                if i > self.len {
                    break;
                }
                self.tree[i] -= delta;
                i += i & i.wrapping_neg();
            } else {
                if j > self.len {
                    break;
                }
                self.tree[j] += delta;
                j += j & j.wrapping_neg();
            }
        }
    }

    /// Sum of buckets `0..=i`.
    pub fn prefix(&self, i: usize) -> u64 {
        let mut idx = (i + 1).min(self.len);
        let mut sum = 0;
        while idx > 0 {
            sum += self.tree[idx] as u64;
            idx -= idx & idx.wrapping_neg();
        }
        sum
    }

    /// Sum of buckets strictly greater than `i`.
    pub(crate) fn suffix_above(&self, i: usize) -> u64 {
        self.total - self.prefix(i)
    }

    /// Set every bucket to `counts[i]` in `O(n)`: the tree `add` would
    /// build one count at a time, node for node.
    ///
    /// # Panics
    /// If `counts` does not hold one count per bucket.
    pub(crate) fn rebuild(&mut self, counts: &[u32]) {
        assert_eq!(counts.len(), self.len, "one count per bucket");
        self.tree[1..].copy_from_slice(counts);
        for i in 1..=self.len {
            let parent = i + (i & i.wrapping_neg());
            if parent <= self.len {
                self.tree[parent] += self.tree[i];
            }
        }
        self.total = counts.iter().map(|&c| u64::from(c)).sum();
    }

    /// Reset all buckets to zero, keeping capacity.
    pub fn clear(&mut self) {
        self.tree.iter_mut().for_each(|v| *v = 0);
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Value of a single bucket, from two prefix sums.
    fn bucket(f: &Fenwick, i: usize) -> u64 {
        let lo = if i == 0 { 0 } else { f.prefix(i - 1) };
        f.prefix(i) - lo
    }

    #[test]
    fn add_and_prefix() {
        let mut f = Fenwick::new(10);
        f.add(0, 1);
        f.add(3, 2);
        f.add(9, 5);
        assert_eq!(f.prefix(0), 1);
        assert_eq!(f.prefix(2), 1);
        assert_eq!(f.prefix(3), 3);
        assert_eq!(f.prefix(9), 8);
        assert_eq!(f.total(), 8);
    }

    #[test]
    fn suffix_above() {
        let mut f = Fenwick::new(8);
        for i in 0..8 {
            f.add(i, 1);
        }
        assert_eq!(f.suffix_above(3), 4);
        assert_eq!(f.suffix_above(7), 0);
        assert_eq!(f.suffix_above(0), 7);
    }

    #[test]
    fn shift_and_bucket() {
        let mut f = Fenwick::new(4);
        f.add(2, 3);
        f.shift(2, 0, 1);
        assert_eq!(bucket(&f, 2), 2);
        assert_eq!(bucket(&f, 1), 0);
        assert_eq!(bucket(&f, 0), 1);
        assert_eq!(f.total(), 3);
    }

    #[test]
    fn clear_resets() {
        let mut f = Fenwick::new(4);
        f.add(1, 7);
        f.clear();
        assert_eq!(f.total(), 0);
        assert_eq!(f.prefix(3), 0);
    }

    #[test]
    fn shift_matches_a_plain_vector() {
        let mut x: u64 = 0x2545f4914f6cdd1d;
        for len in [1usize, 2, 7, 64, 100, 8192] {
            let mut f = Fenwick::new(len);
            let mut model = vec![3u64; len];
            for i in 0..len {
                f.add(i, 3);
            }
            for _ in 0..500 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = (x % len as u64) as usize;
                let to = ((x >> 20) % len as u64) as usize;
                if model[from] == 0 {
                    continue;
                }
                f.shift(from, to, 1);
                model[from] -= 1;
                model[to] += 1;
            }
            for i in 0..len {
                let want: u64 = model[..=i].iter().sum();
                assert_eq!(f.prefix(i), want, "len {len} prefix({i})");
            }
            assert_eq!(f.total(), 3 * len as u64);
        }
    }

    #[test]
    fn rebuild_builds_the_tree_adds_build() {
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for len in [1usize, 2, 5, 64, 100, 8192] {
            let mut added = Fenwick::new(len);
            let mut counts = vec![0u32; len];
            for _ in 0..3 * len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let i = (x % len as u64) as usize;
                added.add(i, 1);
                counts[i] += 1;
            }
            let mut rebuilt = Fenwick::new(len);
            rebuilt.add(len - 1, 9);
            rebuilt.rebuild(&counts);
            assert_eq!(rebuilt.tree, added.tree, "len {len}");
            assert_eq!(rebuilt.total(), added.total());
        }
    }

    #[test]
    #[should_panic]
    fn out_of_range_panics() {
        let mut f = Fenwick::new(4);
        f.add(4, 1);
    }

    #[test]
    fn matches_naive_model() {
        // Deterministic pseudo-random sequence of adds and shifts,
        // cross-checked against a plain vector.
        let mut f = Fenwick::new(64);
        let mut model = vec![0u64; 64];
        let mut x: u64 = 0x9E3779B97F4A7C15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x % 64) as usize;
            if x & 1 == 0 || model[i] == 0 {
                f.add(i, 1);
                model[i] += 1;
            } else {
                let to = ((x >> 32) % 64) as usize;
                f.shift(i, to, 1);
                model[i] -= 1;
                model[to] += 1;
            }
        }
        for i in 0..64 {
            let want: u64 = model[..=i].iter().sum();
            assert_eq!(f.prefix(i), want, "prefix({i})");
            assert_eq!(bucket(&f, i), model[i], "bucket({i})");
        }
        assert_eq!(f.total(), model.iter().sum::<u64>());
    }
}
