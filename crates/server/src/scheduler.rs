//! The delay scheduler: one thread (or none), one timer wheel, any
//! number of pending delays.
//!
//! `GuardedDatabase::execute_with_deadline` turns the paper's policy into
//! per-tuple nanosecond deadlines on a [`Clock`]; this module enforces
//! them at scale. In the default **threaded** mode a single
//! [`DelayScheduler`] thread owns a [`TimerWheel`](crate::wheel) and maps
//! clock time onto wheel ticks, so 10 000 concurrent delays cost 10 000
//! wheel entries — not 10 000 sleeping threads or tasks. In **manual**
//! mode there is no thread at all: a deterministic test harness advances
//! a simulated clock itself and calls [`DelayScheduler::poll`], making
//! every firing a pure function of (schedule calls, clock advances).
//!
//! Jobs (closures that push a batch of frames into a connection's
//! bounded send queue) must be quick and non-blocking: they run on the
//! scheduler thread (or the polling thread, in manual mode).
//!
//! Firing is never early: a deadline maps to the tick *ceiling*, and the
//! wheel releases a tick only once clock time has passed it.
//!
//! The thread is **deadline-driven**, not tick-polled. After firing what
//! is due it asks the wheel for the next tick that has work
//! ([`TimerWheel::next_wake`](crate::wheel::TimerWheel::next_wake), an
//! O(levels) bitmap probe) and sleeps until exactly that tick's clock
//! time — indefinitely when the wheel is empty. [`DelayScheduler::schedule`]
//! wakes it only when the new tick is earlier than the one it is sleeping
//! toward; a later one will be found when it next looks. Wake-ups
//! therefore scale with distinct deadlines, not with elapsed ticks or
//! with `schedule` calls, which is what makes a fine tick affordable:
//! the server's default is 50 µs, the kernel's default timer slack —
//! a sleep is not more precise than that, so a finer tick would buy
//! nothing. What remains between a deadline and its frames reaching the
//! send queue is the tick rounding (≤ one tick) plus one timed-sleep
//! wake-up (`scheduler_fire_lateness_micros` records the worst seen).
//! Replies pay that cost only for deadlines still ahead when they are
//! charged: the gate pushes frames whose deadline has already passed
//! straight into the send queue on the session thread, with no tick
//! term and no wake-up, and files nothing here for them. Every write
//! confirmation goes that way, and so do the `SELECT` results that
//! `server_released_at_charge_total` counts. The session sends them
//! itself before its next blocking read; a connection's writer thread
//! is woken only for what fires here.
//! The threaded mode needs a clock that runs at wall rate, since it
//! sleeps on a condition variable for the clock-time difference.

use crate::metrics::ServerMetrics;
use crate::wheel::TimerWheel;
use delayguard_core::clock::{Clock, RealClock};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Work fired when a deadline expires.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    wheel: TimerWheel<Job>,
    running: bool,
    /// The tick the scheduler thread is sleeping toward: `u64::MAX` while
    /// it is parked on an empty wheel, 0 while it is awake (it will look
    /// at the wheel again before it sleeps) and in manual mode (nobody to
    /// wake). `schedule` notifies only for a tick below this.
    sleeping_toward: u64,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the scheduler thread (new work, shutdown).
    work_cv: Condvar,
    /// Wakes drainers when the wheel runs dry.
    idle_cv: Condvar,
    clock: Arc<dyn Clock>,
    tick_nanos: u64,
    metrics: ServerMetrics,
}

impl Shared {
    fn now_tick(&self) -> u64 {
        self.clock.now_nanos() / self.tick_nanos
    }

    fn deadline_tick(&self, deadline_nanos: u64) -> u64 {
        deadline_nanos.div_ceil(self.tick_nanos)
    }
}

/// A single-threaded timer-wheel scheduler for delay enforcement.
pub struct DelayScheduler {
    shared: Arc<Shared>,
    thread: Mutex<Option<JoinHandle<()>>>,
    /// Manual mode: no thread; the owner drives [`Self::poll`].
    manual: bool,
}

impl DelayScheduler {
    /// Start the scheduler thread with the given tick granularity,
    /// reading the real clock.
    ///
    /// # Panics
    /// If `tick` is zero.
    pub fn start(tick: Duration, metrics: ServerMetrics) -> Arc<DelayScheduler> {
        DelayScheduler::start_with_clock(tick, metrics, RealClock::shared())
    }

    /// Start the scheduler thread against an explicit clock. Deadlines
    /// passed to [`Self::schedule`] are nanoseconds on that clock.
    pub fn start_with_clock(
        tick: Duration,
        metrics: ServerMetrics,
        clock: Arc<dyn Clock>,
    ) -> Arc<DelayScheduler> {
        let shared = DelayScheduler::shared(tick, metrics, clock);
        shared.metrics.scheduler_threads.set(1);
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("delayguard-wheel".into())
            .spawn(move || run(thread_shared))
            .expect("spawn scheduler thread");
        Arc::new(DelayScheduler {
            shared,
            thread: Mutex::new(Some(handle)),
            manual: false,
        })
    }

    /// A scheduler with **no thread**: deadlines fire only when the owner
    /// calls [`Self::poll`] after advancing `clock`. This is the
    /// deterministic-simulation mode — with a manual clock, the complete
    /// firing schedule is a pure function of the calls made.
    pub fn manual(
        tick: Duration,
        metrics: ServerMetrics,
        clock: Arc<dyn Clock>,
    ) -> Arc<DelayScheduler> {
        let shared = DelayScheduler::shared(tick, metrics, clock);
        Arc::new(DelayScheduler {
            shared,
            thread: Mutex::new(None),
            manual: true,
        })
    }

    fn shared(tick: Duration, metrics: ServerMetrics, clock: Arc<dyn Clock>) -> Arc<Shared> {
        assert!(tick > Duration::ZERO, "tick must be positive");
        Arc::new(Shared {
            state: Mutex::new(State {
                wheel: TimerWheel::new(),
                running: true,
                sleeping_toward: 0,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            clock,
            tick_nanos: tick.as_nanos() as u64,
            metrics,
        })
    }

    /// Schedule `job` to run once clock time reaches `deadline_nanos`
    /// (nanoseconds on the scheduler's clock).
    pub fn schedule(&self, deadline_nanos: u64, job: Job) {
        self.schedule_batch([(deadline_nanos, job)]);
    }

    /// Schedule a batch of `(deadline_nanos, job)` pairs under **one**
    /// lock acquisition and at most one scheduler wakeup, preserving the
    /// batch's order among equal deadlines. The streaming gate files a
    /// whole chunk's releases this way instead of taking the wheel lock
    /// per row.
    pub(crate) fn schedule_batch(&self, jobs: impl IntoIterator<Item = (u64, Job)>) {
        let mut st = self.shared.state.lock().unwrap();
        let mut n = 0u64;
        let mut earliest = u64::MAX;
        for (deadline_nanos, job) in jobs {
            let tick = self.shared.deadline_tick(deadline_nanos);
            st.wheel.insert(tick, job);
            earliest = earliest.min(tick);
            n += 1;
        }
        if n == 0 {
            return;
        }
        self.shared.metrics.scheduler_scheduled.add(n);
        self.shared
            .metrics
            .scheduler_pending
            .set(st.wheel.pending() as i64);
        // Wake the thread only if it would otherwise sleep past this
        // batch; lowering the mark spares the next caller a redundant
        // notify while the thread is still on its way up.
        let wake = earliest < st.sleeping_toward;
        if wake {
            st.sleeping_toward = earliest;
        }
        drop(st);
        if wake {
            self.shared.work_cv.notify_one();
        }
    }

    /// Nanoseconds per wheel tick. Deadlines within the same tick fire in
    /// one batch; the gate uses this to coalesce same-tick row releases
    /// into a single job.
    pub(crate) fn tick_nanos(&self) -> u64 {
        self.shared.tick_nanos
    }

    /// Delays currently pending on the wheel.
    pub fn pending(&self) -> usize {
        self.shared.state.lock().unwrap().wheel.pending()
    }

    /// The earliest pending deadline, in nanoseconds on the scheduler's
    /// clock (the tick a simulated clock must reach for the next firing),
    /// or `None` if the wheel is empty.
    pub fn next_deadline_nanos(&self) -> Option<u64> {
        let st = self.shared.state.lock().unwrap();
        st.wheel
            .next_deadline()
            .map(|tick| tick.saturating_mul(self.shared.tick_nanos))
    }

    /// Fire everything whose deadline has been reached at the clock's
    /// current time, running the jobs on the calling thread. Returns the
    /// number of jobs fired. This is the manual-mode drive; it is also
    /// safe (if pointless) alongside the scheduler thread.
    pub fn poll(&self) -> usize {
        let mut st = self.shared.state.lock().unwrap();
        let now = self.shared.now_tick();
        let fired = st.wheel.advance(now);
        self.shared
            .metrics
            .scheduler_pending
            .set(st.wheel.pending() as i64);
        let wheel_dry = st.wheel.pending() == 0;
        drop(st);
        let n = fired.len();
        if n > 0 {
            self.shared.metrics.scheduler_fired.add(n as u64);
            for (_, job) in fired {
                job();
            }
        }
        if wheel_dry {
            self.shared.idle_cv.notify_all();
        }
        n
    }

    /// Wait until every scheduled delay has fired, then stop.
    ///
    /// The caller must ensure no new work is scheduled concurrently (the
    /// server refuses queries before draining), or this never returns.
    /// In manual mode this advances the scheduler's clock through every
    /// remaining deadline (a manual clock jumps; the firings still happen
    /// in deadline order, one poll per pending tick).
    pub fn drain(&self) {
        if self.manual {
            loop {
                self.poll();
                let Some(next) = self.next_deadline_nanos() else {
                    break;
                };
                self.shared.clock.sleep_until_nanos(next);
            }
            self.shared.state.lock().unwrap().running = false;
            return;
        }
        let mut st = self.shared.state.lock().unwrap();
        while st.wheel.pending() > 0 {
            st = self.shared.idle_cv.wait(st).unwrap();
        }
        st.running = false;
        drop(st);
        self.shared.work_cv.notify_all();
        self.join();
    }

    fn join(&self) {
        if let Some(handle) = self.thread.lock().unwrap().take() {
            handle.join().expect("scheduler thread panicked");
        }
    }
}

fn run(shared: Arc<Shared>) {
    let mut st = shared.state.lock().unwrap();
    while st.running {
        // One clock read per pass: it releases what is due, dates the
        // lateness of that release, and sizes the sleep if nothing is.
        let now = shared.clock.now_nanos();
        let fired = st.wheel.advance(now / shared.tick_nanos);
        shared
            .metrics
            .scheduler_pending
            .set(st.wheel.pending() as i64);
        if let Some(&(tick, _)) = fired.first() {
            let wheel_dry = st.wheel.pending() == 0;
            drop(st);
            shared.metrics.scheduler_fired.add(fired.len() as u64);
            let due_nanos = tick.saturating_mul(shared.tick_nanos);
            shared
                .metrics
                .scheduler_fire_lateness_micros
                .set((now.saturating_sub(due_nanos) / 1_000) as i64);
            // Run jobs off-lock: they push into per-connection queues.
            for (_, job) in fired {
                job();
            }
            if wheel_dry {
                shared.idle_cv.notify_all();
            }
            st = shared.state.lock().unwrap();
            continue;
        }
        match st.wheel.next_wake() {
            None => {
                st.sleeping_toward = u64::MAX;
                shared.idle_cv.notify_all();
                st = shared.work_cv.wait(st).unwrap();
            }
            Some(tick) => {
                // Sleep until the tick's clock time, not for a period:
                // the tick is the ceiling of its deadlines and fires only
                // once the clock has passed it, so this is never early.
                st.sleeping_toward = tick;
                let wake_nanos = tick.saturating_mul(shared.tick_nanos);
                let sleep = Duration::from_nanos(wake_nanos.saturating_sub(now));
                st = shared.work_cv.wait_timeout(st, sleep).unwrap().0;
            }
        }
        st.sleeping_toward = 0;
        shared.metrics.scheduler_wakeups.inc();
    }
    shared.metrics.scheduler_threads.set(0);
    shared.idle_cv.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_core::clock::{secs_to_nanos, ManualClock};
    use delayguard_sim::Registry;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Instant;

    fn metrics() -> (Registry, ServerMetrics) {
        let r = Registry::new();
        let m = ServerMetrics::new(&r);
        (r, m)
    }

    #[test]
    fn fires_in_order_and_never_early() {
        let (_r, m) = metrics();
        let clock = RealClock::shared();
        let sched =
            DelayScheduler::start_with_clock(Duration::from_millis(1), m, Arc::clone(&clock));
        let (tx, rx) = mpsc::channel();
        let start_nanos = clock.now_nanos();
        let start = Instant::now();
        for &ms in &[30u64, 10, 20] {
            let tx = tx.clone();
            sched.schedule(
                start_nanos + ms * 1_000_000,
                Box::new(move || tx.send((ms, Instant::now())).unwrap()),
            );
        }
        let mut got = Vec::new();
        for _ in 0..3 {
            got.push(rx.recv_timeout(Duration::from_secs(2)).unwrap());
        }
        assert_eq!(
            got.iter().map(|&(ms, _)| ms).collect::<Vec<_>>(),
            vec![10, 20, 30]
        );
        for (ms, at) in got {
            assert!(
                at.duration_since(start) >= Duration::from_millis(ms),
                "{ms}ms job fired early"
            );
        }
        stop_now(&sched);
    }

    #[test]
    fn drain_waits_for_all_jobs() {
        let (_r, m) = metrics();
        let clock = RealClock::shared();
        let sched =
            DelayScheduler::start_with_clock(Duration::from_millis(1), m, Arc::clone(&clock));
        let count = Arc::new(AtomicUsize::new(0));
        let start = clock.now_nanos();
        for i in 0..50u64 {
            let count = Arc::clone(&count);
            sched.schedule(
                start + (5 + i % 40) * 1_000_000,
                Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        sched.drain();
        assert_eq!(count.load(Ordering::SeqCst), 50);
        assert_eq!(sched.pending(), 0);
    }

    #[test]
    fn one_thread_many_delays() {
        let (r, m) = metrics();
        let clock = RealClock::shared();
        let sched =
            DelayScheduler::start_with_clock(Duration::from_millis(1), m, Arc::clone(&clock));
        let start = clock.now_nanos();
        for _ in 0..10_000 {
            sched.schedule(start + 40_000_000, Box::new(|| {}));
        }
        assert!(sched.pending() >= 9_000);
        sched.drain();
        let pending_high = match r.value("scheduler_pending") {
            Some(delayguard_sim::MetricValue::Gauge { high_water, .. }) => high_water,
            other => panic!("{other:?}"),
        };
        assert!(pending_high >= 10_000, "high water {pending_high}");
        let threads_high = match r.value("scheduler_threads") {
            Some(delayguard_sim::MetricValue::Gauge { high_water, .. }) => high_water,
            other => panic!("{other:?}"),
        };
        assert_eq!(threads_high, 1, "one scheduler thread, not one per delay");
    }

    /// Stop immediately, discarding pending delays.
    fn stop_now(sched: &DelayScheduler) {
        sched.shared.state.lock().unwrap().running = false;
        sched.shared.work_cv.notify_all();
        sched.join();
    }

    /// Block until the scheduler thread is parked: it has looked at the
    /// wheel and is sleeping toward a tick (or indefinitely).
    fn wait_until_parked(sched: &DelayScheduler) {
        while sched.shared.state.lock().unwrap().sleeping_toward == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn wakeups_scale_with_deadlines_not_ticks_or_schedule_calls() {
        let (_r, m) = metrics();
        let clock = RealClock::shared();
        let sched = DelayScheduler::start_with_clock(
            Duration::from_millis(1),
            m.clone(),
            Arc::clone(&clock),
        );
        wait_until_parked(&sched);
        let before = m.scheduler_wakeups.get();
        let deadline = clock.now_nanos() + 200_000_000;
        for _ in 0..1_000 {
            sched.schedule(deadline, Box::new(|| {}));
        }
        sched.drain();
        assert_eq!(m.scheduler_fired.get(), 1_000);
        // One notify for the first insert (the thread was parked on an
        // empty wheel), one timed wake per cascade boundary on the way
        // (at most one per wheel level), one at the deadline tick, one
        // for shutdown — not 200 ticks' worth, not 1 000 notifies.
        let wakeups = m.scheduler_wakeups.get() - before;
        assert!(wakeups <= 8, "{wakeups} wake-ups for one deadline");
        assert!(clock.now_nanos() >= deadline, "drain returned early");
    }

    #[test]
    fn earlier_deadline_filed_mid_sleep_fires_on_time() {
        let (_r, m) = metrics();
        let clock = RealClock::shared();
        let sched =
            DelayScheduler::start_with_clock(Duration::from_millis(1), m, Arc::clone(&clock));
        let (tx, rx) = mpsc::channel();
        let start = clock.now_nanos();
        let file = |name: &'static str, deadline: u64| {
            let (tx, clock) = (tx.clone(), Arc::clone(&clock));
            sched.schedule(
                deadline,
                Box::new(move || tx.send((name, clock.now_nanos())).unwrap()),
            );
        };
        let late = start + 2_000_000_000;
        file("late", late);
        wait_until_parked(&sched);
        // The thread now sleeps toward `late`; an earlier deadline must
        // cut that sleep short rather than wait for it.
        let early = clock.now_nanos() + 20_000_000;
        file("early", early);
        let (name, at) = rx.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(name, "early");
        assert!(at >= early, "fired early");
        stop_now(&sched);
    }

    #[test]
    fn drain_and_stop_return_from_an_indefinite_park() {
        for stop in [DelayScheduler::drain, stop_now] {
            let (_r, m) = metrics();
            let sched = DelayScheduler::start(Duration::from_millis(1), m.clone());
            wait_until_parked(&sched);
            assert_eq!(
                sched.shared.state.lock().unwrap().sleeping_toward,
                u64::MAX,
                "an empty wheel parks without a timeout"
            );
            stop(&sched);
            assert_eq!(m.scheduler_threads.get(), 0);
        }
    }

    #[test]
    fn manual_mode_fires_only_when_polled() {
        let (_r, m) = metrics();
        let clock = ManualClock::shared();
        let sched = DelayScheduler::manual(
            Duration::from_millis(1),
            m,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let count = Arc::new(AtomicUsize::new(0));
        for secs in [3.0f64, 1.0, 2.0] {
            let count = Arc::clone(&count);
            sched.schedule(
                secs_to_nanos(secs),
                Box::new(move || {
                    count.fetch_add(1, Ordering::SeqCst);
                }),
            );
        }
        assert_eq!(sched.pending(), 3);
        assert_eq!(sched.next_deadline_nanos(), Some(secs_to_nanos(1.0)));
        // Time passes but nobody polls: nothing fires.
        clock.advance_to_secs(1.5);
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(sched.poll(), 1);
        assert_eq!(count.load(Ordering::SeqCst), 1);
        assert_eq!(sched.next_deadline_nanos(), Some(secs_to_nanos(2.0)));
        // Polling without advancing fires nothing.
        assert_eq!(sched.poll(), 0);
        clock.advance_to_secs(10.0);
        assert_eq!(sched.poll(), 2);
        assert_eq!(sched.pending(), 0);
        assert_eq!(sched.next_deadline_nanos(), None);
    }

    #[test]
    fn manual_drain_jumps_through_deadlines() {
        let (_r, m) = metrics();
        let clock = ManualClock::shared();
        let sched = DelayScheduler::manual(
            Duration::from_millis(1),
            m,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let order = Arc::new(Mutex::new(Vec::new()));
        for secs in [5.0f64, 1.0, 3.0] {
            let order = Arc::clone(&order);
            sched.schedule(
                secs_to_nanos(secs),
                Box::new(move || order.lock().unwrap().push(secs as u64)),
            );
        }
        sched.drain();
        assert_eq!(*order.lock().unwrap(), vec![1, 3, 5]);
        assert!(clock.now_secs() >= 5.0);
    }
}
