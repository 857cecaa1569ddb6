//! A `MUTATED` reply reports the table's data version as the write's own
//! commit left it, so a client can order its view of the data: writers
//! racing on one table each see their own commit's version, never a
//! later one.

use delayguard_core::clock::{Clock, ManualClock};
use delayguard_core::gatekeeper::RegistrationPolicy;
use delayguard_core::{GatekeeperConfig, GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::Frame;
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const ROWS: usize = 64;
const WRITES_PER_SESSION: u64 = 5_000;

/// Keeps every `MUTATED` version and the identity `REGISTER` handed out.
#[derive(Default)]
struct VersionSink {
    versions: Mutex<Vec<u64>>,
    other: Mutex<Vec<Frame>>,
    user: AtomicU64,
}

impl VersionSink {
    fn take(&self, frame: Frame) {
        match frame {
            Frame::Registered { user, .. } => self.user.store(user, Ordering::Relaxed),
            Frame::Encoded { .. } => {
                let mut frames = Vec::new();
                frame.expand_into(&mut frames);
                frames.into_iter().for_each(|f| self.take(f));
            }
            Frame::Mutated { data_version, .. } => self.versions.lock().push(data_version),
            other => self.other.lock().push(other),
        }
    }
}

impl FrameSink for VersionSink {
    fn push_control(&self, frame: Frame) {
        self.take(frame);
    }

    fn push_row(&self, frame: Frame) {
        self.take(frame);
    }

    fn try_reserve_rows(&self, _n: usize) -> bool {
        true
    }
}

#[test]
fn racing_writers_each_see_their_own_commits_version() {
    let clock: Arc<dyn Clock> = ManualClock::shared();
    let db = Arc::new(GuardedDatabase::with_engine_and_clock(
        Engine::new(),
        GuardConfig::paper_default(),
        Arc::clone(&clock),
    ));
    db.execute_at("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0)
        .unwrap();
    db.execute_at("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0)
        .unwrap();
    for id in 0..ROWS {
        db.execute_at(&format!("INSERT INTO t VALUES ({id}, 'body')"), 0.0)
            .unwrap();
    }
    let v0 = db
        .engine()
        .catalog()
        .table("t")
        .unwrap()
        .read()
        .data_version();
    let registry = Registry::new();
    let metrics = ServerMetrics::new(&registry);
    let scheduler = DelayScheduler::manual(
        Duration::from_millis(1),
        metrics.clone(),
        Arc::clone(&clock),
    );
    let config = GateConfig {
        gatekeeper: GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            per_user_rate: 1e9,
            per_user_burst: 1e9,
            per_subnet_rate: 1e9,
            per_subnet_burst: 1e9,
            ..GatekeeperConfig::default()
        },
        ..GateConfig::default()
    };
    let gate = FrontDoor::new(config, db, scheduler, clock, metrics, registry);
    let sessions: Vec<(SessionState, Arc<VersionSink>)> = (0..2)
        .map(|_| {
            let (session, sink) = (SessionState::new(), Arc::new(VersionSink::default()));
            let register = Frame::Register {
                claimed_ip: [0; 4],
                version: 2,
            };
            gate.handle_frame(register, [10, 0, 0, 1], &session, &sink);
            (session, sink)
        })
        .collect();
    thread::scope(|s| {
        for (n, (session, sink)) in sessions.iter().enumerate() {
            let gate = &gate;
            s.spawn(move || {
                let user = sink.user.load(Ordering::Relaxed);
                for i in 0..WRITES_PER_SESSION {
                    let update = Frame::Update {
                        query_id: i as u32,
                        user,
                        sql: format!(
                            "UPDATE t SET body = 's{n}-{i}' WHERE id = {}",
                            i as usize % ROWS
                        ),
                    };
                    gate.handle_frame(update, [10, 0, 0, 1], session, sink);
                }
            });
        }
    });
    let mut versions = Vec::new();
    for (_, sink) in &sessions {
        assert!(sink.other.lock().is_empty(), "{:?}", sink.other.lock());
        let mine = sink.versions.lock();
        assert_eq!(mine.len() as u64, WRITES_PER_SESSION);
        assert!(
            mine.windows(2).all(|w| w[0] < w[1]),
            "one session's writes commit in the order it sent them"
        );
        versions.extend_from_slice(&mine);
    }
    versions.sort_unstable();
    let want: Vec<u64> = (v0 + 1..=v0 + 2 * WRITES_PER_SESSION).collect();
    assert!(
        versions == want,
        "versions are not exactly v0+1 ..= v0+{}: {} duplicates",
        2 * WRITES_PER_SESSION,
        versions.windows(2).filter(|w| w[0] == w[1]).count()
    );
}
