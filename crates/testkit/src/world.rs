//! The simulated deployment: the real server stack on a virtual clock.
//!
//! A [`SimWorld`] owns `N` complete nodes, each exactly the objects the
//! TCP server owns — a [`GuardedDatabase`] (snapshot read path and all),
//! a manual-mode [`DelayScheduler`] with the real timer wheel, and the
//! [`FrontDoor`] — all sharing one [`ManualClock`]. Clients connect over
//! an in-memory mesh; every frame crosses the real wire codec in both
//! directions, so what travels is bytes, not objects.
//!
//! With one node (the default) the mesh is a client's connection to a
//! single server. With more, clients connect to a *router* that speaks
//! the unchanged client protocol:
//!
//! * `REGISTER` is broadcast to every node in node order. Registrars
//!   assign identities deterministically, so all nodes hand out the
//!   same user id; the router forwards node 0's verdict only.
//! * Reads and writes are routed by the [`PartitionMap`]: a statement
//!   keyed by `id = k` goes to the owner node `k mod N`; anything else
//!   lands on node 0.
//!
//! Nodes gossip their popularity and gatekeeper aggregates on a sync
//! cadence: every `sync_interval_secs` each node exports a cumulative
//! [`Frame::Delta`] and sends it to every peer over the real wire codec.
//! Receivers fold it through [`FrontDoor::apply_delta`], answer with
//! `DELTA_ACK`, and republish their policy snapshots — so `d(i)`
//! converges to the global closed form on every node. An unchanged delta
//! (quiet node) is not re-sent. [`SimWorld::cut_node`] /
//! [`SimWorld::heal_node`] partition a node away from gossip (held
//! frames flood through on heal), leaving client routing intact.
//!
//! Time is event-driven: the world advances the clock straight to the
//! next scheduled thing (a wheel deadline or a frame arrival) and
//! processes everything due there. A 30-day adversary campaign is a few
//! thousand events — the wheel fast-forwards across empty spans, so the
//! cost is proportional to traffic, never to simulated time.
//!
//! Determinism: the world is single-threaded, every component reads the
//! injected clock, connections iterate in id order, and all fault
//! sampling draws from one seeded RNG. Two worlds built from the same
//! seed and driven by the same calls produce bit-identical executions —
//! checkable via [`SimWorld::digest`], which folds every delivered
//! frame's bytes and delivery time — client- and peer-side — into an
//! order-sensitive hash.

use crate::net::{Arrival, FaultPlan, LinkError, NetLink, SimNet};
use crate::partition::PartitionMap;
use delayguard_core::clock::{nanos_to_secs, secs_to_nanos, Clock, ManualClock};
use delayguard_core::replica::ReplicaDelta;
use delayguard_core::{GuardConfig, GuardedDatabase};
use delayguard_query::Engine;
use delayguard_server::gate::{FrameSink, FrontDoor, GateConfig, SessionControl, SessionState};
use delayguard_server::metrics::ServerMetrics;
use delayguard_server::protocol::{read_frame, write_frame, Frame};
use delayguard_server::scheduler::DelayScheduler;
use delayguard_sim::Registry;
use delayguard_workload::Rng;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

/// Identifies one simulated connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(pub u64);

/// Configuration of a simulated deployment (the subset of the TCP
/// server's knobs that exist without sockets).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of nodes (shards). One is a single server; more put a
    /// router in front of a hash-partitioned, gossiping cluster.
    pub nodes: usize,
    /// Guard (delay policy) configuration, applied to every node.
    pub guard: GuardConfig,
    /// Front-door (gatekeeper, refusal hints) configuration, applied to
    /// every node.
    pub gate: GateConfig,
    /// Timer-wheel granularity; delays round up to the next tick.
    pub tick: Duration,
    /// Per-connection cap on rows admitted but not yet delivered to the
    /// mesh — mirrors the TCP server's bounded send queue, so the
    /// `Overloaded` backpressure path is reachable in simulation.
    pub send_queue_rows: usize,
    /// Fault plan applied to newly created client links (override per
    /// link with [`SimWorld::set_faults`]).
    pub faults: FaultPlan,
    /// Gossip cadence in virtual seconds; `0.0` disables replication
    /// (the un-replicated negative control). Unused with one node.
    pub sync_interval_secs: f64,
    /// One-way node-to-node latency for delta frames.
    pub peer_latency_secs: f64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            nodes: 1,
            guard: GuardConfig::paper_default(),
            gate: GateConfig::default(),
            tick: Duration::from_millis(1),
            send_queue_rows: 4096,
            faults: FaultPlan::ideal(),
            sync_interval_secs: 60.0,
            peer_latency_secs: 0.0,
        }
    }
}

// ---- the per-link frame sink ----------------------------------------------

/// The mesh's [`FrameSink`]: the front door pushes response frames here
/// (scheduler jobs included); the world drains them onto the simulated
/// wire. A run of encoded frames is expanded as it arrives, so the wire
/// carries, and faults, one frame per row. Row accounting mirrors the
/// TCP server's bounded send queue: reservations are all-or-nothing and
/// released as rows leave.
struct SimSink {
    inner: Mutex<SinkInner>,
}

struct SinkInner {
    queue: Vec<Frame>,
    rows_cap: usize,
    rows_outstanding: usize,
}

impl SimSink {
    fn new(rows_cap: usize) -> SimSink {
        SimSink {
            inner: Mutex::new(SinkInner {
                queue: Vec::new(),
                rows_cap,
                rows_outstanding: 0,
            }),
        }
    }

    /// Take everything queued, releasing row reservations as they leave.
    fn drain(&self) -> Vec<Frame> {
        let mut g = self.inner.lock();
        let out = std::mem::take(&mut g.queue);
        let rows = out
            .iter()
            .filter(|f| matches!(f, Frame::Row { .. } | Frame::Mutated { .. }))
            .count();
        g.rows_outstanding = g.rows_outstanding.saturating_sub(rows);
        out
    }
}

impl FrameSink for SimSink {
    fn push_control(&self, frame: Frame) {
        frame.expand_into(&mut self.inner.lock().queue);
    }

    fn push_row(&self, frame: Frame) {
        frame.expand_into(&mut self.inner.lock().queue);
    }

    fn try_reserve_rows(&self, n: usize) -> bool {
        let mut g = self.inner.lock();
        if g.rows_outstanding + n > g.rows_cap {
            return false;
        }
        g.rows_outstanding += n;
        true
    }

    fn release_rows(&self, n: usize) {
        let mut g = self.inner.lock();
        g.rows_outstanding = g.rows_outstanding.saturating_sub(n);
    }
}

// ---- events -------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    ToServer,
    ToClient,
}

struct Ev {
    at: u64,
    seq: u64,
    kind: EvKind,
}

enum EvKind {
    /// A frame on a client link.
    Deliver {
        conn: u64,
        dir: Dir,
        bytes: Vec<u8>,
    },
    Reset {
        conn: u64,
    },
    /// A frame on a node↔node peer link.
    PeerDeliver {
        from: usize,
        to: usize,
        bytes: Vec<u8>,
    },
    /// The gossip cadence fired.
    SyncTick,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Ev) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Ev) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Ev) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Node {
    gate: Arc<FrontDoor>,
    scheduler: Arc<DelayScheduler>,
    registry: Registry,
    /// Inbound peer-link sink: `DELTA_ACK`s accumulate here.
    peer_sink: Arc<SimSink>,
    /// Last exported delta (tables + gate, seq ignored): an unchanged
    /// state is not re-gossiped.
    last_export: Option<ReplicaDelta>,
    /// Cut off from gossip (client routing still works).
    cut: bool,
}

impl Node {
    /// Whether this node holds popularity or gatekeeper state its peers
    /// have not been sent.
    fn has_unexported_change(&self) -> bool {
        let Some(last) = &self.last_export else {
            return true;
        };
        last.tables != self.gate.db().export_table_deltas()
            || last.gate != self.gate.gatekeeper().lock().export_gate_delta()
    }
}

struct Conn {
    peer_ip: [u8; 4],
    open: bool,
    partitioned: bool,
    /// A reset is in flight: new sends are discarded.
    pending_reset: bool,
    faults: FaultPlan,
    /// `Some(j)`: a direct connection to node `j` that bypasses the
    /// router (registration is not broadcast, statements are not
    /// routed). The baseline a routed query's overhead is measured
    /// against.
    pinned: Option<usize>,
    /// One sink per node: the router fans a client out to whichever
    /// nodes its frames land on, and each node's scheduler pushes
    /// delayed rows into its own sink.
    sinks: Vec<Arc<SimSink>>,
    /// The connection's statement cache (same state the TCP server
    /// keeps per connection).
    session: Arc<SessionState>,
    inbox: VecDeque<Arrival>,
    /// FIFO floors per direction: a new frame never arrives before one
    /// sent earlier (unless a reorder fault explicitly lets it overtake).
    fifo_to_server: u64,
    fifo_to_client: u64,
    /// Frames held while partitioned, with their would-be arrival times.
    held: Vec<(Dir, u64, Vec<u8>)>,
}

// ---- the world ----------------------------------------------------------

struct Core {
    seed: u64,
    clock: Arc<ManualClock>,
    rng: Rng,
    partition: PartitionMap,
    nodes: Vec<Node>,
    heap: BinaryHeap<Reverse<Ev>>,
    next_seq: u64,
    conns: BTreeMap<u64, Conn>,
    next_conn: u64,
    default_faults: FaultPlan,
    send_queue_rows: usize,
    sync_interval_nanos: u64,
    sync_enabled: bool,
    /// A `SyncTick` is sitting in the heap.
    sync_armed: bool,
    peer_latency_nanos: u64,
    /// Peer frames held by a partition: `(from, to, would-be arrival)`.
    held_peer: Vec<(usize, usize, u64, Vec<u8>)>,
    peer_frames_held: u64,
    peer_frames_delivered: u64,
    frames_dropped: u64,
    frames_delivered: u64,
    digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame).expect("frame encodes");
    bytes
}

fn decode(mut bytes: &[u8]) -> Frame {
    read_frame(&mut bytes)
        .expect("frame decodes")
        .expect("non-empty frame")
}

impl Core {
    fn new(seed: u64, config: SimConfig) -> Core {
        let clock = ManualClock::shared();
        let nodes: Vec<Node> = (0..config.nodes)
            .map(|j| {
                let dyn_clock: Arc<dyn Clock> = Arc::clone(&clock) as Arc<dyn Clock>;
                let db = Arc::new(GuardedDatabase::with_engine_and_clock(
                    Engine::new(),
                    config.guard,
                    Arc::clone(&dyn_clock),
                ));
                let registry = Registry::new();
                let metrics = ServerMetrics::new(&registry);
                let scheduler =
                    DelayScheduler::manual(config.tick, metrics.clone(), Arc::clone(&dyn_clock));
                let gate = Arc::new(FrontDoor::new(
                    config.gate.clone(),
                    db,
                    Arc::clone(&scheduler),
                    dyn_clock,
                    metrics,
                    registry.clone(),
                ));
                // Cluster origins are 1-based: 0 is the single-server
                // default and must not collide with a real peer in the
                // CRDT logs.
                if config.nodes > 1 {
                    gate.set_node_origin(j as u16 + 1);
                }
                Node {
                    gate,
                    scheduler,
                    registry,
                    peer_sink: Arc::new(SimSink::new(usize::MAX)),
                    last_export: None,
                    cut: false,
                }
            })
            .collect();
        let mut core = Core {
            seed,
            clock,
            rng: Rng::new(seed),
            partition: PartitionMap::new(config.nodes),
            nodes,
            heap: BinaryHeap::new(),
            next_seq: 0,
            conns: BTreeMap::new(),
            next_conn: 1,
            default_faults: config.faults,
            send_queue_rows: config.send_queue_rows,
            sync_interval_nanos: secs_to_nanos(config.sync_interval_secs),
            // A lone server has no peer to gossip with.
            sync_enabled: config.nodes > 1 && config.sync_interval_secs > 0.0,
            sync_armed: false,
            peer_latency_nanos: secs_to_nanos(config.peer_latency_secs),
            held_peer: Vec::new(),
            peer_frames_held: 0,
            peer_frames_delivered: 0,
            frames_dropped: 0,
            frames_delivered: 0,
            digest: FNV_OFFSET,
        };
        core.arm_sync();
        core
    }

    fn now_nanos(&self) -> u64 {
        self.clock.now_nanos()
    }

    fn arm_sync(&mut self) {
        if !self.sync_enabled || self.sync_armed || self.sync_interval_nanos == 0 {
            return;
        }
        let at = self.now_nanos().saturating_add(self.sync_interval_nanos);
        self.push_ev(at, EvKind::SyncTick);
        self.sync_armed = true;
    }

    fn connect(&mut self, peer_ip: [u8; 4], pinned: Option<usize>) -> u64 {
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.insert(
            id,
            Conn {
                peer_ip,
                open: true,
                partitioned: false,
                pending_reset: false,
                faults: self.default_faults,
                pinned,
                sinks: (0..self.nodes.len())
                    .map(|_| Arc::new(SimSink::new(self.send_queue_rows)))
                    .collect(),
                session: Arc::new(SessionState::new()),
                inbox: VecDeque::new(),
                fifo_to_server: 0,
                fifo_to_client: 0,
                held: Vec::new(),
            },
        );
        id
    }

    fn push_ev(&mut self, at: u64, kind: EvKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Ev { at, seq, kind }));
    }

    /// Put one frame on a client link in direction `dir`, applying the
    /// link's fault plan. Returns `Err` only for client sends on a dead link.
    fn transmit(&mut self, conn_id: u64, dir: Dir, frame: &Frame) -> Result<(), LinkError> {
        let now = self.now_nanos();
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return Err(LinkError::Closed);
        };
        if !conn.open || conn.pending_reset {
            return match dir {
                Dir::ToServer => Err(LinkError::Closed),
                // Server frames to a dead connection vanish, as on TCP.
                Dir::ToClient => Ok(()),
            };
        }
        let bytes = encode(frame);
        let f = conn.faults;
        if f.reset_prob > 0.0 && self.rng.chance(f.reset_prob) {
            conn.pending_reset = true;
            let at = now.saturating_add(secs_to_nanos(f.latency_secs));
            self.push_ev(at, EvKind::Reset { conn: conn_id });
            return Ok(());
        }
        if f.drop_prob > 0.0 && self.rng.chance(f.drop_prob) {
            self.frames_dropped += 1;
            return Ok(());
        }
        let mut latency = f.latency_secs;
        if f.jitter_secs > 0.0 {
            latency += self.rng.f64_range(0.0, f.jitter_secs);
        }
        let overtakable = f.reorder_prob > 0.0 && self.rng.chance(f.reorder_prob);
        if overtakable {
            latency += f.reorder_extra_secs;
        }
        let mut at = now.saturating_add(secs_to_nanos(latency));
        if !overtakable {
            let fifo = match dir {
                Dir::ToServer => &mut conn.fifo_to_server,
                Dir::ToClient => &mut conn.fifo_to_client,
            };
            at = at.max(*fifo);
            *fifo = at;
        }
        if conn.partitioned {
            conn.held.push((dir, at, bytes));
        } else {
            self.push_ev(
                at,
                EvKind::Deliver {
                    conn: conn_id,
                    dir,
                    bytes,
                },
            );
        }
        Ok(())
    }

    /// Send one peer frame `from → to`, holding it if either end is cut.
    fn peer_send(&mut self, from: usize, to: usize, bytes: Vec<u8>) {
        let at = self.now_nanos().saturating_add(self.peer_latency_nanos);
        if self.nodes[from].cut || self.nodes[to].cut {
            self.held_peer.push((from, to, at, bytes));
            self.peer_frames_held += 1;
        } else {
            self.push_ev(at, EvKind::PeerDeliver { from, to, bytes });
        }
    }

    /// One gossip round: every node exports its cumulative delta and
    /// sends it to every peer, skipping states unchanged since the last
    /// export (the `DELTA_ACK`-driven quiescence of the real wire,
    /// collapsed to its observable effect).
    fn gossip_round(&mut self) {
        for j in 0..self.nodes.len() {
            let delta = self.nodes[j].gate.export_delta();
            if let Some(last) = &self.nodes[j].last_export {
                if last.tables == delta.tables && last.gate == delta.gate {
                    continue;
                }
            }
            let bytes = encode(&Frame::Delta {
                delta: delta.clone(),
            });
            self.nodes[j].last_export = Some(delta);
            for k in 0..self.nodes.len() {
                if k != j {
                    self.peer_send(j, k, bytes.clone());
                }
            }
        }
    }

    /// Drain every sink onto the wire (deterministic): per-connection
    /// node sinks in `(conn, node)` order, then node peer sinks in node
    /// order.
    fn route_outboxes(&mut self) {
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            for node in 0..self.nodes.len() {
                let frames = match self.conns.get(&id) {
                    Some(conn) => conn.sinks[node].drain(),
                    None => continue,
                };
                for frame in frames {
                    let _ = self.transmit(id, Dir::ToClient, &frame);
                }
            }
        }
        for j in 0..self.nodes.len() {
            for frame in self.nodes[j].peer_sink.drain() {
                // Replies on a peer link go back to the delta's origin.
                if let Frame::DeltaAck { origin, .. } = frame {
                    let to = (origin as usize).wrapping_sub(1);
                    if to < self.nodes.len() && to != j {
                        self.peer_send(j, to, encode(&frame));
                    }
                }
            }
        }
    }

    /// Hand one client frame to the node(s) it targets: a pinned link's
    /// node, every node for a routed `REGISTER`, otherwise the partition
    /// owner of the statement's key (node 0 when it has none).
    fn deliver_to_nodes(&mut self, conn_id: u64, frame: Frame) {
        let Some(c) = self.conns.get(&conn_id) else {
            return;
        };
        let (ip, pinned, session) = (c.peer_ip, c.pinned, Arc::clone(&c.session));
        let target = pinned.unwrap_or_else(|| match &frame {
            Frame::Query { sql, .. }
            | Frame::Insert { sql, .. }
            | Frame::Update { sql, .. }
            | Frame::Delete { sql, .. } => self.partition.route(sql),
            _ => 0,
        });
        let sink = Arc::clone(&c.sinks[target]);
        if pinned.is_none() && self.nodes.len() > 1 && matches!(frame, Frame::Register { .. }) {
            // The router treats REGISTER as a barrier: everything the
            // nodes queued before it reaches the wire before the
            // broadcast does.
            self.route_outboxes();
            // Registrars are deterministic: every node hands out the
            // same id, so the client hears node 0's verdict (below) and
            // the other nodes' copies go nowhere.
            let unheard = Arc::new(SimSink::new(0));
            for node in &self.nodes[1..] {
                node.gate
                    .handle_frame(frame.clone(), ip, &session, &unheard);
            }
        }
        let control = self.nodes[target]
            .gate
            .handle_frame(frame, ip, &session, &sink);
        if control == SessionControl::Terminate {
            if let Some(c) = self.conns.get_mut(&conn_id) {
                c.open = false;
            }
        }
    }

    fn dispatch(&mut self, ev: Ev) {
        match ev.kind {
            EvKind::Deliver { conn, dir, bytes } => {
                if !self.conns.get(&conn).is_some_and(|c| c.open) {
                    return;
                }
                let frame = decode(&bytes);
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, &[dir as u8]);
                self.digest = fnv(self.digest, &conn.to_le_bytes());
                self.digest = fnv(self.digest, &bytes);
                self.frames_delivered += 1;
                match dir {
                    Dir::ToServer => self.deliver_to_nodes(conn, frame),
                    Dir::ToClient => {
                        if let Some(c) = self.conns.get_mut(&conn) {
                            c.inbox.push_back(Arrival {
                                at_secs: nanos_to_secs(ev.at),
                                frame,
                            });
                        }
                    }
                }
            }
            EvKind::Reset { conn } => {
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, b"reset");
                self.digest = fnv(self.digest, &conn.to_le_bytes());
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.open = false;
                }
            }
            EvKind::PeerDeliver { from, to, bytes } => {
                let frame = decode(&bytes);
                self.digest = fnv(self.digest, &ev.at.to_le_bytes());
                self.digest = fnv(self.digest, b"peer");
                self.digest = fnv(self.digest, &(from as u64).to_le_bytes());
                self.digest = fnv(self.digest, &(to as u64).to_le_bytes());
                self.digest = fnv(self.digest, &bytes);
                self.frames_delivered += 1;
                self.peer_frames_delivered += 1;
                let sink = Arc::clone(&self.nodes[to].peer_sink);
                let _ = self.nodes[to].gate.handle_peer_frame(frame, &sink);
            }
            EvKind::SyncTick => {
                self.sync_armed = false;
                if self.sync_enabled {
                    self.gossip_round();
                    self.arm_sync();
                }
            }
        }
    }

    /// The earliest deadline on any node's wheel.
    fn next_deadline(&self) -> Option<u64> {
        self.nodes
            .iter()
            .filter_map(|n| n.scheduler.next_deadline_nanos())
            .min()
    }

    fn poll_schedulers(&self) {
        for node in &self.nodes {
            node.scheduler.poll();
        }
    }

    fn next_wake(&self) -> Option<u64> {
        let ev = self.heap.peek().map(|Reverse(e)| e.at);
        let dl = self.next_deadline();
        match (ev, dl) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Deliver every transport event due at or before now.
    fn deliver_due(&mut self) {
        loop {
            let due = matches!(self.heap.peek(), Some(Reverse(e)) if e.at <= self.now_nanos());
            if !due {
                break;
            }
            let Reverse(ev) = self.heap.pop().expect("peeked");
            self.dispatch(ev);
        }
    }

    /// Advance to the next scheduled thing and process everything due
    /// there. Returns false when nothing is scheduled anywhere.
    fn step(&mut self) -> bool {
        let Some(next) = self.next_wake() else {
            return false;
        };
        self.clock.advance_to_nanos(next);
        // Wheel first: jobs fired now produce frames that enter the wire
        // at this instant.
        self.poll_schedulers();
        self.route_outboxes();
        self.deliver_due();
        self.route_outboxes();
        true
    }

    fn run_for(&mut self, secs: f64) {
        // A positive wait must move time: seconds-to-nanos truncation on
        // a sub-nanosecond wait would otherwise leave the clock exactly
        // where it was, livelocking any caller that retries "just after"
        // an instant the clock cannot quite reach.
        let nanos = match secs_to_nanos(secs) {
            0 if secs > 0.0 => 1,
            n => n,
        };
        self.run_until(self.now_nanos().saturating_add(nanos));
    }

    fn run_until(&mut self, deadline: u64) {
        while matches!(self.next_wake(), Some(at) if at <= deadline) {
            self.step();
        }
        self.settle_at(deadline);
    }

    /// Move the clock to `deadline` (nothing is scheduled before it) and
    /// process everything due there.
    fn settle_at(&mut self, deadline: u64) {
        self.clock.advance_to_nanos(deadline);
        self.poll_schedulers();
        self.route_outboxes();
        self.deliver_due();
        // Handlers invoked just now may have queued zero-latency replies
        // due at this exact instant; flush them so a bounded wait
        // observes everything that happened strictly within it.
        self.route_outboxes();
        self.deliver_due();
    }

    /// Nothing left to do: no client or peer frame in flight, every
    /// wheel empty, and no node holding a change the running gossip
    /// cadence has yet to export. The cadence's own pending tick is not
    /// work — it re-arms forever.
    fn quiescent(&self) -> bool {
        let in_flight = self.heap.len() - usize::from(self.sync_armed);
        in_flight == 0
            && self.next_deadline().is_none()
            && !(self.sync_enabled && self.nodes.iter().any(Node::has_unexported_change))
    }

    fn run_until_idle(&mut self) {
        while !self.quiescent() {
            self.step();
        }
    }

    // ---- link operations -------------------------------------------------

    fn link_recv(&mut self, conn: u64, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError> {
        let deadline = self
            .now_nanos()
            .saturating_add(secs_to_nanos(max_wait_secs));
        loop {
            if let Some(c) = self.conns.get_mut(&conn) {
                if let Some(arrival) = c.inbox.pop_front() {
                    return Ok(Some(arrival));
                }
                if !c.open {
                    return Err(LinkError::Closed);
                }
            } else {
                return Err(LinkError::Closed);
            }
            match self.next_wake() {
                Some(at) if at <= deadline => {
                    self.step();
                }
                _ => {
                    self.settle_at(deadline);
                    let late = self.conns.get_mut(&conn).and_then(|c| c.inbox.pop_front());
                    return Ok(late);
                }
            }
        }
    }
}

/// The simulated deployment. See the module docs.
pub struct SimWorld {
    core: Rc<RefCell<Core>>,
}

impl SimWorld {
    /// A fresh world from a seed: `config.nodes` complete server stacks
    /// (database, scheduler, front door) on one clock (at zero) and one
    /// RNG, gossip armed if there are peers and `sync_interval_secs > 0`.
    pub fn new(seed: u64, config: SimConfig) -> SimWorld {
        SimWorld {
            core: Rc::new(RefCell::new(Core::new(seed, config))),
        }
    }

    /// The seed this world was built from.
    pub fn seed(&self) -> u64 {
        self.core.borrow().seed
    }

    /// Virtual seconds since the world's epoch.
    pub fn now_secs(&self) -> f64 {
        self.core.borrow().clock.now_secs()
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.core.borrow().nodes.len()
    }

    /// The partition map (shared with the router).
    pub fn partition_map(&self) -> PartitionMap {
        self.core.borrow().partition
    }

    /// Node 0's guarded database — *the* database of a single-node world
    /// (for DDL/seeding around the wire protocol).
    pub fn db(&self) -> Arc<GuardedDatabase> {
        self.node_db(0)
    }

    /// Node 0's front door (drain control, gatekeeper inspection).
    pub fn gate(&self) -> Arc<FrontDoor> {
        self.node_gate(0)
    }

    /// The metrics registry node 0's front door publishes into.
    pub fn registry(&self) -> Registry {
        self.node_registry(0)
    }

    /// Node `j`'s guarded database (for DDL/seeding its shard).
    pub fn node_db(&self, j: usize) -> Arc<GuardedDatabase> {
        Arc::clone(self.core.borrow().nodes[j].gate.db())
    }

    /// Node `j`'s front door.
    pub fn node_gate(&self, j: usize) -> Arc<FrontDoor> {
        Arc::clone(&self.core.borrow().nodes[j].gate)
    }

    /// Node `j`'s metrics registry.
    pub fn node_registry(&self, j: usize) -> Registry {
        self.core.borrow().nodes[j].registry.clone()
    }

    /// Rows reserved on node `j`'s sink for `conn` and not yet handed to
    /// the wire or released — zero once everything admitted was either
    /// delivered or refused.
    pub fn rows_reserved(&self, conn: ConnId, j: usize) -> usize {
        let core = self.core.borrow();
        let reserved = core.conns[&conn.0].sinks[j].inner.lock().rows_outstanding;
        reserved
    }

    /// Open a mesh connection whose peer address (as every node sees it)
    /// is `peer_ip` — any subnet, no spoofing configuration needed. In a
    /// multi-node world this is a connection to the router.
    pub fn connect_link(&self, peer_ip: [u8; 4]) -> MeshLink {
        self.link(peer_ip, None)
    }

    /// Open a connection wired straight to node `node`, bypassing the
    /// router entirely: registration is not broadcast and statements are
    /// not routed. The baseline the router hop is benchmarked against
    /// (identities registered this way exist only on `node`).
    pub fn connect_node_link(&self, node: usize, peer_ip: [u8; 4]) -> MeshLink {
        assert!(node < self.nodes(), "node {node} out of range");
        self.link(peer_ip, Some(node))
    }

    fn link(&self, peer_ip: [u8; 4], pinned: Option<usize>) -> MeshLink {
        let conn = self.core.borrow_mut().connect(peer_ip, pinned);
        MeshLink {
            core: Rc::clone(&self.core),
            conn,
        }
    }

    /// Enable or disable the gossip cadence. Enabling arms the next
    /// tick one interval from now.
    pub fn set_sync_enabled(&self, enabled: bool) {
        let mut core = self.core.borrow_mut();
        core.sync_enabled = enabled;
        core.arm_sync();
    }

    /// Run one gossip round right now and deliver it (one round fully
    /// converges the cluster: deltas are cumulative).
    pub fn sync_now(&self) {
        let mut core = self.core.borrow_mut();
        core.gossip_round();
        let arrived = core.now_nanos().saturating_add(core.peer_latency_nanos);
        core.run_until(arrived);
    }

    /// Cut node `j` off from gossip: peer frames to and from it are
    /// held. Client routing is unaffected.
    pub fn cut_node(&self, j: usize) {
        self.core.borrow_mut().nodes[j].cut = true;
    }

    /// Heal node `j`: held peer frames whose both endpoints are now
    /// reachable flood through, in order, no earlier than now.
    pub fn heal_node(&self, j: usize) {
        let mut core = self.core.borrow_mut();
        core.nodes[j].cut = false;
        let now = core.now_nanos();
        let held = std::mem::take(&mut core.held_peer);
        for (from, to, at, bytes) in held {
            if core.nodes[from].cut || core.nodes[to].cut {
                core.held_peer.push((from, to, at, bytes));
            } else {
                core.push_ev(at.max(now), EvKind::PeerDeliver { from, to, bytes });
            }
        }
    }

    /// Override the fault plan of one link.
    pub fn set_faults(&self, conn: ConnId, faults: FaultPlan) {
        if let Some(c) = self.core.borrow_mut().conns.get_mut(&conn.0) {
            c.faults = faults;
        }
    }

    /// Partition a client link: frames sent in either direction are held.
    pub fn partition(&self, conn: ConnId) {
        if let Some(c) = self.core.borrow_mut().conns.get_mut(&conn.0) {
            c.partitioned = true;
        }
    }

    /// Heal a partition: held frames flood through, in order, no earlier
    /// than now.
    pub fn heal(&self, conn: ConnId) {
        let mut core = self.core.borrow_mut();
        let now = core.now_nanos();
        let held = match core.conns.get_mut(&conn.0) {
            Some(c) => {
                c.partitioned = false;
                std::mem::take(&mut c.held)
            }
            None => return,
        };
        for (dir, at, bytes) in held {
            let at = at.max(now);
            core.push_ev(
                at,
                EvKind::Deliver {
                    conn: conn.0,
                    dir,
                    bytes,
                },
            );
        }
    }

    /// Let `secs` of virtual time pass, processing everything due.
    pub fn run_for(&self, secs: f64) {
        self.core.borrow_mut().run_for(secs);
    }

    /// Run until the world is quiescent: no client or peer frame in
    /// flight, every wheel empty, and no node holding a change it has
    /// not gossiped. A live gossip cadence by itself does not keep the
    /// world busy.
    pub fn run_until_idle(&self) {
        self.core.borrow_mut().run_until_idle();
    }

    /// Process exactly one scheduled instant (the earliest wheel deadline
    /// or frame arrival). Returns false if nothing is scheduled — used by
    /// work-conserving drivers that multiplex many links.
    pub fn step_once(&self) -> bool {
        self.core.borrow_mut().step()
    }

    /// Graceful shutdown, like the TCP server's: every node refuses new
    /// work, then every in-flight delayed tuple is delivered at its
    /// deadline.
    pub fn shutdown(&self) {
        for j in 0..self.nodes() {
            self.node_gate(j).begin_drain();
        }
        self.run_until_idle();
    }

    /// Order-sensitive FNV-1a hash of every event processed so far —
    /// client and peer frames (delivery time, direction, endpoints, frame
    /// bytes) and resets: equal digests mean bit-identical executions.
    pub fn digest(&self) -> u64 {
        self.core.borrow().digest
    }

    /// Frames dropped by fault injection so far.
    pub fn frames_dropped(&self) -> u64 {
        self.core.borrow().frames_dropped
    }

    /// One-line view of everything that could wake the world — for
    /// diagnosing a driver that spins without making progress.
    pub fn debug_snapshot(&self) -> String {
        let core = self.core.borrow();
        let inboxes: Vec<usize> = core.conns.values().map(|c| c.inbox.len()).collect();
        format!(
            "now={}ns heap={} peek={:?} wheel_pending={} wheel_next={:?} inboxes={:?}",
            core.clock.now_nanos(),
            core.heap.len(),
            core.heap.peek().map(|std::cmp::Reverse(e)| e.at),
            core.nodes
                .iter()
                .map(|n| n.scheduler.pending())
                .sum::<usize>(),
            core.next_deadline(),
            inboxes
        )
    }

    /// Frames delivered so far, in either direction, client- and
    /// peer-side.
    pub fn frames_delivered(&self) -> u64 {
        self.core.borrow().frames_delivered
    }

    /// Peer frames delivered so far.
    pub fn peer_frames_delivered(&self) -> u64 {
        self.core.borrow().peer_frames_delivered
    }

    /// Peer frames ever held by a partition.
    pub fn peer_frames_held(&self) -> u64 {
        self.core.borrow().peer_frames_held
    }

    /// Peer frames currently held (0 when fully healed and drained).
    pub fn peer_frames_pending(&self) -> usize {
        self.core.borrow().held_peer.len()
    }
}

impl SimNet for SimWorld {
    fn connect(&mut self, from_ip: [u8; 4]) -> Result<Box<dyn NetLink>, LinkError> {
        Ok(Box::new(self.connect_link(from_ip)))
    }

    fn wait(&mut self, secs: f64) {
        self.run_for(secs);
    }

    fn now_secs(&self) -> f64 {
        SimWorld::now_secs(self)
    }
}

/// A client's end of a mesh connection.
pub struct MeshLink {
    core: Rc<RefCell<Core>>,
    conn: u64,
}

impl MeshLink {
    /// This link's connection id (for [`SimWorld::set_faults`],
    /// [`SimWorld::partition`], ...).
    pub fn id(&self) -> ConnId {
        ConnId(self.conn)
    }
}

impl NetLink for MeshLink {
    fn send(&mut self, frame: &Frame) -> Result<(), LinkError> {
        self.core
            .borrow_mut()
            .transmit(self.conn, Dir::ToServer, frame)
    }

    fn recv(&mut self, max_wait_secs: f64) -> Result<Option<Arrival>, LinkError> {
        self.core.borrow_mut().link_recv(self.conn, max_wait_secs)
    }

    fn now_secs(&self) -> f64 {
        self.core.borrow().clock.now_secs()
    }

    fn is_open(&self) -> bool {
        self.core
            .borrow()
            .conns
            .get(&self.conn)
            .is_some_and(|c| c.open)
    }
}
