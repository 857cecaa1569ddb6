//! Peak-heap regression test for a `SELECT` streamed through the front
//! door.
//!
//! A `SELECT *` is pulled, reserved, charged and released one bounded
//! chunk at a time ([`GateConfig::stream_chunk_rows`]), so the heap one
//! query needs is set by the chunk and the send queue, not by the table.
//! This test runs the same scan over 25,000 and over 100,000 rows of
//! 200-byte bodies, through [`FrontDoor::handle_frame`], into a sink that
//! grants 4,096 row slots in total, under a global allocator that tracks
//! live bytes and their peak. The session first sends the original
//! 4-byte `REGISTER` (no version byte) and then queries as a user
//! registered on another session. The extra peak heap the query takes
//! must be flat in table size within 1.2×: a path that decodes the
//! whole result before it reserves a slot grows with the table.
#![allow(unsafe_code)]

use delayguard_core::clock::{Clock, ManualClock};
use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::{GatekeeperConfig, GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::{read_frame, Frame, RefuseReason};
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use parking_lot::Mutex;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Live heap bytes, and the most they have been since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

struct PeakAllocator;

// SAFETY: a transparent wrapper over `System` — every allocator
// contract is forwarded unchanged; the bookkeeping touches only two
// static atomics, which cannot allocate or re-enter the allocator.
unsafe impl GlobalAlloc for PeakAllocator {
    // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, delegated to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: caller upholds `GlobalAlloc::dealloc`'s contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract, delegated to `System`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // SAFETY: caller upholds `GlobalAlloc::realloc`'s contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` describe a live `System` allocation and
        // `new_size` is the caller's requested size, passed through.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Row slots the sink grants over its whole life.
const SLOTS: usize = 4096;

/// Grants [`SLOTS`] row slots in total, then refuses; keeps the control
/// frames and drops the rows.
#[derive(Default)]
struct BudgetSink {
    granted: AtomicUsize,
    control: Mutex<Vec<Frame>>,
}

impl FrameSink for BudgetSink {
    fn push_control(&self, frame: Frame) {
        if !matches!(frame, Frame::Encoded { .. }) {
            self.control.lock().push(frame);
        }
    }

    fn push_row(&self, _frame: Frame) {}

    fn try_reserve_rows(&self, n: usize) -> bool {
        self.granted
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |granted| {
                (granted + n <= SLOTS).then_some(granted + n)
            })
            .is_ok()
    }
}

/// What one scan over `rows` rows showed: the extra peak heap it took,
/// the row slots it was granted, and the control frames the 4-byte
/// `REGISTER` session and the query received.
struct Scan {
    extra_peak: usize,
    granted: usize,
    control: Vec<Frame>,
}

fn scan(rows: usize) -> Scan {
    let clock = ManualClock::shared();
    let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        GuardConfig::paper_default(),
        Arc::clone(&dyn_clock),
    ));
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT NOT NULL)", 0.0)
        .unwrap();
    let body = "b".repeat(200);
    for start in (0..rows).step_by(500) {
        let values: Vec<String> = (start..(start + 500).min(rows))
            .map(|id| format!("({id}, '{body}')"))
            .collect();
        db.execute_at(&format!("INSERT INTO t VALUES {}", values.join(",")), 0.0)
            .unwrap();
    }
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&dyn_clock),
    );
    let config = GateConfig {
        gatekeeper: GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            ..GatekeeperConfig::default()
        },
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(config, db, scheduler, dyn_clock, metrics, registry);
    let peer = [10, 0, 0, 1];

    // A user registered on another session.
    let other = Arc::new(BudgetSink::default());
    let register = Frame::Register {
        claimed_ip: [0; 4],
        version: 2,
    };
    gate.handle_frame(register, peer, &SessionState::new(), &other);
    let user = match other.control.lock().pop() {
        Some(Frame::Registered { user, .. }) => user,
        reply => panic!("v2 REGISTER: {reply:?}"),
    };

    // This session sends the original 4-byte REGISTER, then the scan.
    let session = SessionState::new();
    let sink = Arc::new(BudgetSink::default());
    let four_byte = read_frame(&mut &[5, 0, 0, 0, 0x01, 0, 0, 0, 0][..])
        .unwrap()
        .unwrap();
    gate.handle_frame(four_byte, peer, &session, &sink);
    gate.db().refresh();
    let query = Frame::Query {
        query_id: 1,
        user,
        sql: "SELECT * FROM t".into(),
    };
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    gate.handle_frame(query, peer, &session, &sink);
    let extra_peak = PEAK.load(Ordering::Relaxed) - before;
    // Deliver what the scan filed on the wheel, the shed refusal last.
    while let Some(at) = gate.scheduler().next_deadline_nanos() {
        clock.advance_to_nanos(at);
        gate.scheduler().poll();
    }
    let granted = sink.granted.load(Ordering::Relaxed);
    let control = std::mem::take(&mut *sink.control.lock());
    Scan {
        extra_peak,
        granted,
        control,
    }
}

#[test]
fn a_scans_peak_heap_is_flat_in_table_size() {
    let small = scan(25_000);
    let large = scan(100_000);
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;
    eprintln!(
        "extra peak heap of one SELECT *: {:.2} MiB at 25k rows, {:.2} MiB at 100k rows",
        mib(small.extra_peak),
        mib(large.extra_peak)
    );
    assert!(
        large.extra_peak as f64 <= 1.2 * small.extra_peak as f64,
        "peak heap grows with the table: {:.2} MiB at 25k rows, {:.2} MiB at 100k",
        mib(small.extra_peak),
        mib(large.extra_peak)
    );
    for scan in [small, large] {
        // The 4-byte REGISTER was refused, and the scan streamed every
        // slot the sink had before it was shed.
        assert!(
            matches!(
                scan.control[0],
                Frame::Refused {
                    query_id: 0,
                    reason: RefuseReason::VersionUnsupported,
                    ..
                }
            ),
            "4-byte REGISTER: {:?}",
            scan.control[0]
        );
        assert_eq!(scan.granted, SLOTS);
        assert!(
            matches!(
                scan.control[1..],
                [Frame::Refused {
                    query_id: 1,
                    reason: RefuseReason::Overloaded,
                    ..
                }]
            ),
            "query: {:?}",
            &scan.control[1..]
        );
    }
}
