//! A hierarchical timer wheel: thousands of pending delays at O(1)
//! amortized cost per tick, with no task or thread per delay.
//!
//! The wheel is pure and tick-indexed: time is a `u64` tick counter and
//! the caller decides what a tick means in wall-clock terms (the
//! [`scheduler`](crate::scheduler) drives one wheel from a single thread).
//! Four levels of 64 slots cover a horizon of `64^4` ≈ 16.7 M ticks
//! (≈ 14 minutes at the server's default 50 µs tick, ≈ 4.6 hours at the
//! 1 ms tick the simulations use); rarer, farther deadlines sit in an
//! overflow list that is reconsidered when the top level turns over —
//! correct at any distance, just not O(1).
//!
//! One occupancy bitmap per level (bit `s` set ⇔ slot `s` is non-empty)
//! lets [`TimerWheel::next_wake`] name the next tick at which `advance`
//! has anything to do — a level-0 slot to fire or a coarser slot to
//! cascade — in O(levels) bit operations. `advance` jumps from one such
//! tick to the next, so its cost follows the number of occupied slots it
//! crosses, not the number of ticks, and the scheduler thread sleeps
//! until exactly that tick instead of polling every one.
//!
//! Guarantees, relied on by the delivery path and checked by the property
//! test in `tests/wheel_prop.rs`:
//!
//! * an entry never fires **early** (before `advance` has reached its
//!   deadline tick), and
//! * one `advance` call yields entries in **non-decreasing deadline
//!   order**, with insertion order preserved among equal deadlines (so a
//!   query's `DONE` frame, scheduled after its rows at the same deadline,
//!   fires after them).

/// Slots per level.
const SLOTS: usize = 64;
/// Number of hierarchical levels.
const LEVELS: usize = 4;
/// Ticks covered by one slot of each level: 64^0, 64^1, 64^2, 64^3.
const fn level_span(level: usize) -> u64 {
    (SLOTS as u64).pow(level as u32)
}
/// Ticks covered by the whole wheel.
const HORIZON: u64 = (SLOTS as u64).pow(LEVELS as u32);

#[derive(Debug)]
struct Entry<T> {
    deadline: u64,
    /// Monotone insertion sequence, used to keep equal-deadline entries
    /// in insertion order across cascades.
    seq: u64,
    item: T,
}

/// A hierarchical timer wheel over an abstract `u64` tick clock.
#[derive(Debug)]
pub struct TimerWheel<T> {
    /// `levels[k][slot]` holds entries expiring within that slot's span.
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Entries beyond the wheel horizon.
    overflow: Vec<Entry<T>>,
    /// Entries whose deadline had already passed at insertion; they fire
    /// on the next `advance`.
    due: Vec<Entry<T>>,
    /// Per-level slot occupancy: bit `s` of `occupied[k]` is set exactly
    /// when `levels[k][s]` is non-empty.
    occupied: [u64; LEVELS],
    now: u64,
    next_seq: u64,
    pending: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel positioned at tick 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            due: Vec::new(),
            occupied: [0; LEVELS],
            now: 0,
            next_seq: 0,
            pending: 0,
        }
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of scheduled entries that have not fired yet.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The earliest deadline of any pending entry, or `None` if the wheel
    /// is empty. Entries inserted with an already-passed deadline report
    /// their original (past) deadline. O(pending + slots) scan with an
    /// O(1) empty fast path — simulation drivers (the testkit and the
    /// cluster router) call this once per node per event-loop step, and
    /// most nodes' wheels are empty most of the time.
    pub fn next_deadline(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        let all = self
            .due
            .iter()
            .chain(self.levels.iter().flatten().flatten())
            .chain(self.overflow.iter());
        all.map(|e| e.deadline).min()
    }

    /// Schedule `item` to fire once `advance` reaches `deadline`.
    /// Deadlines at or before the current tick fire on the next `advance`.
    pub fn insert(&mut self, deadline: u64, item: T) {
        let entry = Entry {
            deadline,
            seq: self.next_seq,
            item,
        };
        self.next_seq += 1;
        self.pending += 1;
        self.place(entry);
    }

    /// File an entry into the right level/slot for the current tick.
    fn place(&mut self, entry: Entry<T>) {
        let delta = entry.deadline.saturating_sub(self.now);
        if entry.deadline <= self.now {
            self.due.push(entry);
            return;
        }
        if delta >= HORIZON {
            self.overflow.push(entry);
            return;
        }
        // Smallest level whose span covers the remaining delta.
        for level in 0..LEVELS {
            if delta < level_span(level + 1) {
                let slot = (entry.deadline / level_span(level)) as usize % SLOTS;
                self.levels[level][slot].push(entry);
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        unreachable!("delta {delta} below horizon must fit a level");
    }

    /// The next tick at which [`TimerWheel::advance`] has anything to
    /// do, or `None` if the wheel is empty: the current tick if entries
    /// are already due, else the earliest of the first occupied level-0
    /// slot (that slot's entries fire there), the slot boundary of the
    /// first occupied slot of each coarser level (its entries cascade
    /// there), and the next top-level turnover if `overflow` holds
    /// anything. Never later than the earliest pending deadline — a slot
    /// only holds deadlines at or after its boundary — so a driver that
    /// sleeps until this tick, advances, and asks again fires every entry
    /// at exactly its deadline tick. O(levels), unlike the O(pending)
    /// [`TimerWheel::next_deadline`].
    pub fn next_wake(&self) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        if !self.due.is_empty() {
            return Some(self.now);
        }
        let mut wake = if self.overflow.is_empty() {
            u64::MAX
        } else {
            (self.now / HORIZON + 1) * HORIZON
        };
        for (level, &occupied) in self.occupied.iter().enumerate() {
            if occupied == 0 {
                continue;
            }
            // A level-k entry sits 1..=64 slot boundaries ahead of the
            // cursor, so the circular scan from the slot after the
            // cursor's finds the next boundary that has work.
            let span = level_span(level);
            let next_slot = self.now / span + 1;
            let ahead = occupied
                .rotate_right((next_slot % SLOTS as u64) as u32)
                .trailing_zeros() as u64;
            wake = wake.min((next_slot + ahead) * span);
        }
        Some(wake)
    }

    /// Advance the wheel to tick `to`, returning every entry whose
    /// deadline has been reached as `(deadline, item)` pairs in
    /// non-decreasing deadline order.
    pub fn advance(&mut self, to: u64) -> Vec<(u64, T)> {
        let mut fired: Vec<Entry<T>> = std::mem::take(&mut self.due);

        // `due` is empty from here on (cascades fire what is due instead
        // of re-filing it), so `next_wake` names the next slot with work;
        // every tick before it touches only empty slots.
        while let Some(wake) = self.next_wake().filter(|&wake| wake <= to) {
            self.now = wake;
            // Cascade each level whose slot boundary we just reached:
            // entries move down to finer-grained levels (or fire).
            for level in 1..LEVELS {
                if !self.now.is_multiple_of(level_span(level)) {
                    break;
                }
                let slot = (self.now / level_span(level)) as usize % SLOTS;
                self.occupied[level] &= !(1 << slot);
                for e in std::mem::take(&mut self.levels[level][slot]) {
                    if e.deadline <= self.now {
                        fired.push(e);
                    } else {
                        self.place(e);
                    }
                }
            }
            // Top level turned over: overflow entries may now fit. An
            // entry due exactly at the turnover tick must fire in this
            // batch — `place` would park it in `due` for the *next*
            // advance, one tick late.
            if self.now.is_multiple_of(HORIZON) {
                for e in std::mem::take(&mut self.overflow) {
                    if e.deadline <= self.now {
                        fired.push(e);
                    } else {
                        self.place(e);
                    }
                }
            }
            // Fire this tick's level-0 slot.
            let slot = self.now as usize % SLOTS;
            self.occupied[0] &= !(1 << slot);
            fired.append(&mut self.levels[0][slot]);
        }
        self.now = self.now.max(to);

        self.pending -= fired.len();
        // Per-tick batches are already time-ordered; a stable sort fixes
        // interleavings introduced by cascading while preserving insertion
        // order among equal deadlines.
        fired.sort_by_key(|e| (e.deadline, e.seq));
        fired.into_iter().map(|e| (e.deadline, e.item)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_exact_tick_not_before() {
        let mut w = TimerWheel::new();
        w.insert(10, "a");
        assert!(w.advance(9).is_empty());
        assert_eq!(w.pending(), 1);
        assert_eq!(w.advance(10), vec![(10, "a")]);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut w = TimerWheel::new();
        w.advance(100);
        w.insert(50, "late");
        w.insert(100, "now");
        let fired = w.advance(100);
        assert_eq!(fired, vec![(50, "late"), (100, "now")]);
    }

    #[test]
    fn batch_is_deadline_ordered() {
        let mut w = TimerWheel::new();
        for &d in &[500u64, 3, 70, 4096, 70, 12] {
            w.insert(d, d);
        }
        let fired = w.advance(10_000);
        let deadlines: Vec<u64> = fired.iter().map(|&(d, _)| d).collect();
        assert_eq!(deadlines, vec![3, 12, 70, 70, 500, 4096]);
    }

    #[test]
    fn equal_deadlines_keep_insertion_order() {
        let mut w = TimerWheel::new();
        w.insert(5000, "row0");
        w.insert(5000, "row1");
        w.insert(5000, "done");
        let fired = w.advance(6000);
        let items: Vec<&str> = fired.into_iter().map(|(_, i)| i).collect();
        assert_eq!(items, vec!["row0", "row1", "done"]);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = TimerWheel::new();
        // One entry per level plus overflow.
        let deadlines = [
            7u64,
            SLOTS as u64 + 1,
            level_span(2) + 5,
            level_span(3) + 9,
            HORIZON + 17,
        ];
        for &d in &deadlines {
            w.insert(d, d);
        }
        assert_eq!(w.pending(), 5);
        for &d in &deadlines {
            assert!(w.advance(d - 1).iter().all(|&(fd, _)| fd < d));
            let fired = w.advance(d);
            assert_eq!(fired, vec![(d, d)], "deadline {d}");
        }
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn next_deadline_tracks_minimum() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.insert(HORIZON + 17, "overflow");
        assert_eq!(w.next_deadline(), Some(HORIZON + 17));
        w.insert(500, "mid");
        w.insert(3, "soon");
        assert_eq!(w.next_deadline(), Some(3));
        w.advance(3);
        assert_eq!(w.next_deadline(), Some(500));
        // A deadline already in the past still reports itself.
        w.insert(1, "late");
        assert_eq!(w.next_deadline(), Some(1));
    }

    #[test]
    fn next_wake_names_the_next_slot_with_work() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_wake(), None);
        // Overflow only: nothing to do until the top level turns over.
        w.insert(HORIZON + 17, "overflow");
        assert_eq!(w.next_wake(), Some(HORIZON));
        // A level-2 entry cascades at its slot boundary, not its deadline.
        w.insert(level_span(2) + 5, "far");
        assert_eq!(w.next_wake(), Some(level_span(2)));
        // A level-0 entry fires at its own tick.
        w.insert(9, "near");
        assert_eq!(w.next_wake(), Some(9));
        assert_eq!(w.advance(9), vec![(9, "near")]);
        assert_eq!(w.next_wake(), Some(level_span(2)));
        // An already-passed deadline is work for right now.
        w.insert(3, "late");
        assert_eq!(w.next_wake(), Some(9));
        assert_eq!(w.advance(9), vec![(3, "late")]);
        // After the cascade the entry sits in level 0, five ticks out.
        assert!(w.advance(level_span(2)).is_empty());
        assert_eq!(w.next_wake(), Some(level_span(2) + 5));
    }

    #[test]
    fn next_wake_sees_a_coarse_entry_due_before_a_fine_one() {
        // Filed 70 ticks out, the first entry lives in level 1; by tick
        // 60 it is only 10 ticks away but has not cascaded yet, while a
        // fresh 40-tick delay goes straight to level 0. The wake must be
        // the level-1 boundary (64), not the level-0 slot (100).
        let mut w = TimerWheel::new();
        w.insert(70, "coarse");
        assert!(w.advance(60).is_empty());
        w.insert(100, "fine");
        assert_eq!(w.next_wake(), Some(64));
        assert!(w.advance(64).is_empty());
        assert_eq!(w.next_wake(), Some(70));
        assert_eq!(w.advance(70), vec![(70, "coarse")]);
        assert_eq!(w.next_wake(), Some(100));
    }

    #[test]
    fn next_wake_wraps_around_the_slot_ring() {
        // Cursor deep in the ring, entry in a lower-numbered slot of the
        // next lap — and one exactly 64 slots ahead, which shares the
        // cursor's own slot index.
        let mut w = TimerWheel::new();
        w.advance(60);
        w.insert(60 + 10, "wrapped"); // level 0, slot 6
        assert_eq!(w.next_wake(), Some(70));
        assert_eq!(w.advance(70), vec![(70, "wrapped")]);
        let base = 5 * level_span(1) + 63; // cursor in level-1 slot 5
        w.advance(base);
        let d = base + 64 * level_span(1) - 1; // level-1 slot 5 again, one lap on
        w.insert(d, "lap");
        assert_eq!(w.next_wake(), Some(d / level_span(1) * level_span(1)));
        assert!(w.advance(d - 1).is_empty());
        assert_eq!(w.advance(d), vec![(d, "lap")]);
    }

    #[test]
    fn level_boundary_deadline_fires_once_and_on_time() {
        // Regression: a deadline landing exactly on a level-boundary tick
        // (a multiple of 64, 64^2, 64^3, or the horizon) is cascaded and
        // fired in the same `advance` step — exactly once, never early,
        // never a tick late.
        let boundaries = [
            level_span(1),                     // 64
            level_span(2),                     // 4 096
            level_span(3),                     // 262 144
            HORIZON,                           // 16 777 216: top level turns over
            3 * level_span(1),                 // boundary later than one slot
            2 * level_span(2) + level_span(1), // mixed-level boundary
        ];
        for &d in &boundaries {
            let mut w = TimerWheel::new();
            w.insert(d, "x");
            assert!(
                w.advance(d - 1).is_empty(),
                "deadline {d} fired early (at {})",
                d - 1
            );
            assert_eq!(w.advance(d), vec![(d, "x")], "deadline {d} missed its tick");
            assert!(w.advance(d + 1).is_empty(), "deadline {d} fired twice");
            assert_eq!(w.pending(), 0);
        }
        // Same, crossing the boundary one tick at a time (the cascade path
        // the scheduler thread actually exercises).
        let mut w = TimerWheel::new();
        let d = level_span(2); // 4 096
        w.insert(d, "y");
        let mut fired = Vec::new();
        for t in 1..=d + 2 {
            fired.extend(w.advance(t));
            if t < d {
                assert!(fired.is_empty(), "fired at {t}, before {d}");
            }
        }
        assert_eq!(fired, vec![(d, "y")]);
    }

    #[test]
    fn ten_thousand_entries_one_wheel() {
        let mut w = TimerWheel::new();
        for i in 0..10_000u64 {
            w.insert(1 + (i * 37) % 5000, i);
        }
        assert_eq!(w.pending(), 10_000);
        let mut seen = 0;
        let mut last = 0;
        let mut t = 0;
        while t < 5000 {
            t += 13;
            for (d, _) in w.advance(t) {
                assert!(d >= last, "deadline order violated");
                assert!(d <= t, "fired early: {d} at tick {t}");
                last = d;
                seen += 1;
            }
        }
        assert_eq!(seen, 10_000);
        assert_eq!(w.pending(), 0);
    }

    /// Pins the `pending == 0` fast path: an emptied wheel answers
    /// `next_deadline` without scanning its slots, no matter how deep the
    /// cursor sits or how scattered the previous entries were. The
    /// simulation drivers lean on this — the testkit world and the
    /// cluster router ask every node for its `next_deadline` on every
    /// event-loop step, and most wheels are empty most of the time. (The
    /// scheduler thread never calls it: it sleeps toward `next_wake`.)
    #[test]
    fn next_deadline_is_cheap_on_drained_sparse_wheel() {
        let mut w = TimerWheel::new();
        // One entry per level plus overflow, maximally spread out.
        for d in [
            5,
            SLOTS as u64 * 3,
            (SLOTS as u64).pow(2) * 7,
            HORIZON - 1,
            HORIZON * 2,
        ] {
            w.insert(d, d);
        }
        // Drain past each deadline in turn; between drains the wheel is
        // sparse and the minimum must still be exact.
        let mut remaining = [
            5,
            SLOTS as u64 * 3,
            (SLOTS as u64).pow(2) * 7,
            HORIZON - 1,
            HORIZON * 2,
        ]
        .to_vec();
        while let Some(&next) = remaining.first() {
            assert_eq!(w.next_deadline(), Some(next));
            let fired = w.advance(next);
            assert_eq!(fired.len(), 1);
            remaining.remove(0);
        }
        // Cursor is now deep past HORIZON with every slot empty: the
        // fast path must answer None, repeatedly, from the counter alone.
        assert_eq!(w.pending(), 0);
        for _ in 0..1_000_000 {
            assert_eq!(w.next_deadline(), None);
        }
        // And the wheel is still live: a fresh far insert is tracked.
        let base = HORIZON * 2;
        w.insert(base + 40, base + 40);
        assert_eq!(w.next_deadline(), Some(base + 40));
    }
}
