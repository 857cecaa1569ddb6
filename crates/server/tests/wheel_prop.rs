//! Property test for the hierarchical timer wheel: under random
//! insertions and random advance steps, entries pop in non-decreasing
//! deadline order within a batch, never fire early, preserve insertion
//! order among equal deadlines, and are never lost.
//!
//! Deterministic harness (no external property-testing crate in this
//! offline build): a splitmix64 generator drives 128 cases per property
//! from fixed seeds, so failures reproduce exactly.

use delayguard_server::wheel::TimerWheel;

const CASES: u64 = 128;

/// splitmix64: tiny, full-period, good enough to drive test shapes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn cases(seed: u64, mut body: impl FnMut(&mut Rng)) {
    for case in 0..CASES {
        let mut rng = Rng(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ case);
        body(&mut rng);
    }
}

#[test]
fn random_insertions_fire_ordered_never_early_never_lost() {
    cases(0x77EE1, |rng| {
        let mut wheel = TimerWheel::new();
        // Mix of near, mid, far, and cross-level deadlines; some batches
        // interleave with advances, and inserts may land in the past.
        let inserts = 1 + rng.below(300) as usize;
        let rounds = 1 + rng.below(12);
        let horizon = [64u64, 4_096, 262_144, 20_000_000][rng.below(4) as usize];

        let mut seq = 0u64;
        let mut inserted = 0usize;
        let mut fired_total = 0usize;
        let mut now = 0u64;
        for _ in 0..rounds {
            for _ in 0..inserts / rounds as usize + 1 {
                // Occasionally schedule in the past relative to `now`.
                let deadline = if rng.below(8) == 0 && now > 0 {
                    rng.below(now)
                } else {
                    now + rng.below(horizon)
                };
                wheel.insert(deadline, seq);
                seq += 1;
                inserted += 1;
            }
            now += rng.below(horizon / 2 + 2);
            let batch = wheel.advance(now);
            // Within a batch: non-decreasing deadlines, insertion order
            // among equals, and nothing released after `now` (early).
            let mut last: Option<(u64, u64)> = None;
            for &(deadline, item_seq) in &batch {
                assert!(deadline <= now, "fired early: {deadline} > now {now}");
                if let Some((prev_d, prev_s)) = last {
                    assert!(
                        deadline > prev_d || (deadline == prev_d && item_seq > prev_s),
                        "order violated: ({prev_d},{prev_s}) before ({deadline},{item_seq})"
                    );
                }
                last = Some((deadline, item_seq));
            }
            fired_total += batch.len();
            assert_eq!(wheel.pending(), inserted - fired_total);
        }
        // Drain: everything inserted must eventually fire, exactly once.
        now += 30_000_000;
        fired_total += wheel.advance(now).len();
        assert_eq!(fired_total, inserted, "entries lost or duplicated");
        assert_eq!(wheel.pending(), 0);
    });
}

#[test]
fn entries_never_fire_before_their_deadline_tick() {
    cases(0xEA221, |rng| {
        let mut wheel = TimerWheel::new();
        let deadline = 1 + rng.below(2_000_000);
        wheel.insert(deadline, ());
        // Approach the deadline in random increments, checking just below.
        let mut now = 0;
        while now + 1 < deadline {
            now += 1 + rng.below((deadline - now).max(2) / 2 + 1);
            now = now.min(deadline - 1);
            assert!(
                wheel.advance(now).is_empty(),
                "deadline {deadline} fired at {now}"
            );
        }
        assert_eq!(wheel.advance(deadline).len(), 1);
    });
}

#[test]
fn equal_deadline_batches_preserve_insertion_order() {
    cases(0x0DE4, |rng| {
        let mut wheel = TimerWheel::new();
        let deadline = 1 + rng.below(500_000);
        let n = 2 + rng.below(40);
        for i in 0..n {
            wheel.insert(deadline, i);
        }
        let fired = wheel.advance(deadline + rng.below(1_000));
        let items: Vec<u64> = fired.into_iter().map(|(_, i)| i).collect();
        assert_eq!(items, (0..n).collect::<Vec<u64>>());
    });
}

/// One random round for the `next_wake` properties: deadlines to insert
/// at every distance from `now` (including past and beyond the horizon),
/// and the tick to advance to afterwards.
fn random_round(rng: &mut Rng, now: u64) -> (Vec<u64>, u64) {
    let horizon = [64u64, 4_096, 262_144, 20_000_000][rng.below(4) as usize];
    let deadlines = (0..rng.below(12))
        .map(|_| {
            if rng.below(8) == 0 && now > 0 {
                rng.below(now)
            } else {
                now + rng.below(horizon)
            }
        })
        .collect();
    (deadlines, now + rng.below(horizon / 4 + 2))
}

#[test]
fn next_wake_is_never_later_than_the_earliest_deadline() {
    cases(0x3A4E, |rng| {
        let mut wheel = TimerWheel::new();
        for _ in 0..40 {
            let (deadlines, to) = random_round(rng, wheel.now());
            for deadline in deadlines {
                wheel.insert(deadline, ());
            }
            match (wheel.next_wake(), wheel.next_deadline()) {
                (None, None) => {}
                (Some(wake), Some(min)) => {
                    assert!(
                        wake <= min.max(wheel.now()),
                        "wake {wake} after earliest deadline {min} (now {})",
                        wheel.now()
                    );
                    assert!(wake >= wheel.now(), "wake {wake} in the past");
                }
                other => panic!("next_wake and next_deadline disagree on emptiness: {other:?}"),
            }
            wheel.advance(to);
        }
    });
}

#[test]
fn advancing_wake_to_wake_fires_what_tick_by_tick_fires() {
    cases(0x51EE9, |rng| {
        // Two wheels fed identically: one visits every tick, the other
        // only the ticks `next_wake` names (capped at the round's end,
        // the way the scheduler thread caps its sleep at the clock).
        let mut by_tick = TimerWheel::new();
        let mut by_wake = TimerWheel::new();
        let mut seq = 0u64;
        for _ in 0..12 {
            let start = by_tick.now();
            let (deadlines, to) = random_round(rng, start);
            for deadline in deadlines {
                by_tick.insert(deadline, seq);
                by_wake.insert(deadline, seq);
                seq += 1;
            }
            // Keep the tick-by-tick walk affordable.
            let to = to.min(start + 20_000);

            let mut fired_by_tick = Vec::new();
            for tick in start..=to {
                for (deadline, item) in by_tick.advance(tick) {
                    // The reference itself is on time: only an entry
                    // filed already late fires after its deadline tick.
                    assert!(deadline == tick || (tick == start && deadline < start));
                    fired_by_tick.push((tick, deadline, item));
                }
            }
            let mut fired_by_wake = Vec::new();
            while let Some(wake) = by_wake.next_wake().filter(|&wake| wake <= to) {
                for (deadline, item) in by_wake.advance(wake) {
                    fired_by_wake.push((wake, deadline, item));
                }
            }
            by_wake.advance(to);
            assert_eq!(fired_by_wake, fired_by_tick);
            assert_eq!(by_wake.pending(), by_tick.pending());
        }
    });
}
