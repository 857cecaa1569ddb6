//! The gatekeeper: identity admission and rate limiting (paper §2.4).
//!
//! Delay protects against a *single* patient adversary; the gatekeeper
//! closes the parallelism loopholes the paper analyzes:
//!
//! * **Sybil attacks** — registration of new identities is rate-limited
//!   (or fee-gated) by [`Registrar`], bounding how fast an adversary can
//!   amass the `k` identities a parallel extraction needs.
//! * **Subnet farms** — per-/24 aggregate token buckets mean many
//!   identities behind one subnet share one budget.
//! * **Storefronts** — per-identity query budgets plus a volume anomaly
//!   detector flag identities whose traffic dwarfs a normal user's.

pub mod crdt;
pub mod identity;
pub mod registration;
#[cfg(test)]
mod token_bucket;

pub use crdt::{Charge, GateDelta, SubnetCharges};
pub use identity::{Ipv4, UserId};
pub use registration::{Registrar, RegistrationOutcome, RegistrationPolicy};

use std::collections::HashMap;

use crdt::MergeableBucket;
use identity::Subnet;

/// Gatekeeper configuration.
#[derive(Debug, Clone, Copy)]
pub struct GatekeeperConfig {
    /// Per-identity sustained query rate (queries/sec).
    pub per_user_rate: f64,
    /// Per-identity burst size.
    pub per_user_burst: f64,
    /// Per-/24-subnet sustained rate (aggregate over all identities).
    pub per_subnet_rate: f64,
    /// Per-subnet burst size.
    pub per_subnet_burst: f64,
    /// Registration policy for new identities.
    pub registration: RegistrationPolicy,
    /// Queries per identity above which it is flagged as a possible
    /// storefront (0 disables flagging).
    pub storefront_query_threshold: u64,
}

impl Default for GatekeeperConfig {
    fn default() -> Self {
        GatekeeperConfig {
            per_user_rate: 1.0,
            per_user_burst: 10.0,
            per_subnet_rate: 5.0,
            per_subnet_burst: 50.0,
            registration: RegistrationPolicy::interval(60.0),
            storefront_query_threshold: 100_000,
        }
    }
}

/// Why a query was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The identity is not registered.
    Unregistered,
    /// The identity exceeded its own rate budget.
    UserRateExceeded,
    /// The identity's subnet exceeded its aggregate budget.
    SubnetRateExceeded,
}

/// Decision on one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The query may proceed.
    Granted,
    /// The query is refused.
    Refused(RefusalReason),
}

/// Per-identity accounting.
#[derive(Debug)]
struct UserState {
    bucket: MergeableBucket,
    queries: u64,
    /// The /24 the identity registered from here; `None` for an identity
    /// known only from a peer's charges, which this node refuses as
    /// unregistered.
    subnet: Option<Subnet>,
}

/// The gatekeeper itself.
///
/// Budgets are `MergeableBucket` charge-log CRDTs: a standalone
/// deployment never notices (single-origin replay is the plain token
/// bucket), while cluster nodes exchange [`GateDelta`]s so per-identity
/// and per-/24 throttling holds against the *global* traffic an identity
/// spreads across shards.
#[derive(Debug)]
pub struct Gatekeeper {
    config: GatekeeperConfig,
    registrar: Registrar,
    users: HashMap<UserId, UserState>,
    subnets: HashMap<Subnet, MergeableBucket>,
    /// This node's origin id for charge logs (0 for standalone).
    origin: u16,
}

impl Gatekeeper {
    /// A gatekeeper with the given configuration.
    pub fn new(config: GatekeeperConfig) -> Gatekeeper {
        Gatekeeper {
            config,
            registrar: Registrar::new(config.registration),
            users: HashMap::new(),
            subnets: HashMap::new(),
            origin: 0,
        }
    }

    /// Set this node's origin id for charge logs. Call before any
    /// traffic: buckets tag their own charges with the origin current at
    /// creation time.
    pub fn set_origin(&mut self, origin: u16) {
        self.origin = origin;
    }

    /// Register a new identity from `ip` at `now`.
    pub fn register(&mut self, ip: Ipv4, now: f64) -> RegistrationOutcome {
        let outcome = self.registrar.register(ip, now);
        if let RegistrationOutcome::Admitted { user, .. } = outcome {
            let bucket = MergeableBucket::new(
                self.config.per_user_rate,
                self.config.per_user_burst,
                self.origin,
            );
            self.users.insert(
                user,
                UserState {
                    bucket,
                    queries: 0,
                    subnet: Some(ip.subnet24()),
                },
            );
        }
        outcome
    }

    /// Decide whether `user`'s query at `now` may proceed, charging the
    /// relevant budgets on success. One lookup per bucket: the identity's
    /// own entry says whether it registered here and from which /24.
    pub fn admit(&mut self, user: UserId, now: f64) -> Admission {
        let Some((state, subnet_bucket)) = self.registered(user) else {
            return Admission::Refused(RefusalReason::Unregistered);
        };
        // Check both budgets before charging either, so a refusal leaves
        // no residue.
        let user_ok = state.bucket.available(now) >= 1.0 - 1e-9;
        if !user_ok {
            return Admission::Refused(RefusalReason::UserRateExceeded);
        }
        if subnet_bucket.available(now) < 1.0 - 1e-9 {
            return Admission::Refused(RefusalReason::SubnetRateExceeded);
        }
        subnet_bucket.charge(now, 1.0);
        state.bucket.charge(now, 1.0);
        state.queries += 1;
        Admission::Granted
    }

    /// A locally registered identity's state and its /24's bucket
    /// (created on first use), or `None` if `user` did not register here.
    fn registered(&mut self, user: UserId) -> Option<(&mut UserState, &mut MergeableBucket)> {
        let state = self.users.get_mut(&user)?;
        let subnet = state.subnet?;
        // The entry's /24 is the registrar's, read without its lookup.
        debug_assert_eq!(self.registrar.ip_of(user).map(Ipv4::subnet24), Some(subnet));
        let (config, origin) = (&self.config, self.origin);
        let bucket = self.subnets.entry(subnet).or_insert_with(|| {
            MergeableBucket::new(config.per_subnet_rate, config.per_subnet_burst, origin)
        });
        Some((state, bucket))
    }

    /// Earliest time at which a query from `user` could be admitted —
    /// the exact retry hint for a [`RefusalReason::UserRateExceeded`] or
    /// [`RefusalReason::SubnetRateExceeded`] refusal. Returns `None` for
    /// unregistered identities (no amount of waiting helps).
    ///
    /// Both the per-user and per-subnet buckets refill monotonically, so
    /// the earliest instant both hold a token is the max of their
    /// individual refill times; a client that retries at exactly this
    /// time is admitted (absent interleaved traffic draining the subnet
    /// budget), and one that retries any earlier is refused again.
    pub fn retry_at(&mut self, user: UserId, now: f64) -> Option<f64> {
        let (state, subnet_bucket) = self.registered(user)?;
        let user_at = state.bucket.next_available(now, 1.0);
        let subnet_at = subnet_bucket.next_available(now, 1.0);
        Some(user_at.max(subnet_at))
    }

    /// Number of queries an identity has issued.
    pub fn query_count(&self, user: UserId) -> u64 {
        self.users.get(&user).map(|s| s.queries).unwrap_or(0)
    }

    /// Identities whose query volume exceeds the storefront threshold —
    /// candidates for the §2.4 storefront defense (manual review, per-user
    /// limits, or termination).
    pub fn storefront_suspects(&self) -> Vec<UserId> {
        let threshold = self.config.storefront_query_threshold;
        if threshold == 0 {
            return Vec::new();
        }
        let mut v: Vec<UserId> = self
            .users
            .iter()
            .filter(|(_, s)| s.queries > threshold)
            .map(|(&u, _)| u)
            .collect();
        v.sort();
        v
    }

    /// The registrar (for attack-economics queries).
    pub fn registrar(&self) -> &Registrar {
        &self.registrar
    }

    /// Export this node's locally-originated charges — the full
    /// own-origin log of every bucket — for replication to peers.
    /// Cumulative and deterministic (sorted), so a lost delta is subsumed
    /// by the next one.
    pub fn export_gate_delta(&self) -> GateDelta {
        let mut users: Vec<(u64, Vec<Charge>)> = self
            .users
            .iter()
            .filter(|(_, s)| !s.bucket.own_log().is_empty())
            .map(|(u, s)| (u.0, s.bucket.own_log().to_vec()))
            .collect();
        users.sort_by_key(|(u, _)| *u);
        let mut subnets: Vec<SubnetCharges> = self
            .subnets
            .iter()
            .filter(|(_, b)| !b.own_log().is_empty())
            .map(|(s, b)| SubnetCharges {
                base: s.base(),
                prefix: s.prefix(),
                log: b.own_log().to_vec(),
            })
            .collect();
        subnets.sort_by_key(|s| (s.base, s.prefix));
        GateDelta {
            origin: self.origin,
            users,
            subnets,
        }
    }

    /// Fold a peer's charges into the local buckets. Idempotent and
    /// order-insensitive (CRDT merge per bucket). Buckets for identities
    /// or subnets this node has not seen locally are created on the spot:
    /// the budget must bind even before any local traffic.
    pub fn merge_gate_delta(&mut self, delta: &GateDelta) {
        if delta.origin == self.origin {
            return; // own charges echoed back: already in the logs
        }
        for (user, log) in &delta.users {
            let origin = self.origin;
            let state = self
                .users
                .entry(UserId(*user))
                .or_insert_with(|| UserState {
                    bucket: MergeableBucket::new(
                        self.config.per_user_rate,
                        self.config.per_user_burst,
                        origin,
                    ),
                    queries: 0,
                    subnet: None,
                });
            state.bucket.merge(delta.origin, log);
        }
        for sc in &delta.subnets {
            let subnet = Ipv4(sc.base).subnet(sc.prefix);
            let origin = self.origin;
            let bucket = self.subnets.entry(subnet).or_insert_with(|| {
                MergeableBucket::new(
                    self.config.per_subnet_rate,
                    self.config.per_subnet_burst,
                    origin,
                )
            });
            bucket.merge(delta.origin, &sc.log);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keeper() -> Gatekeeper {
        Gatekeeper::new(GatekeeperConfig {
            per_user_rate: 1.0,
            per_user_burst: 2.0,
            per_subnet_rate: 2.0,
            per_subnet_burst: 3.0,
            registration: RegistrationPolicy::interval(10.0),
            storefront_query_threshold: 5,
        })
    }

    fn register(k: &mut Gatekeeper, ip: &str, now: f64) -> UserId {
        match k.register(Ipv4::parse(ip).unwrap(), now) {
            RegistrationOutcome::Admitted { user, .. } => user,
            other => panic!("registration failed: {other:?}"),
        }
    }

    #[test]
    fn unregistered_refused() {
        let mut k = keeper();
        assert_eq!(
            k.admit(UserId(42), 0.0),
            Admission::Refused(RefusalReason::Unregistered)
        );
    }

    #[test]
    fn per_user_budget_enforced() {
        let mut k = keeper();
        let u = register(&mut k, "10.0.0.1", 0.0);
        assert_eq!(k.admit(u, 0.0), Admission::Granted);
        assert_eq!(k.admit(u, 0.0), Admission::Granted);
        assert_eq!(
            k.admit(u, 0.0),
            Admission::Refused(RefusalReason::UserRateExceeded)
        );
        // Refills over time.
        assert_eq!(k.admit(u, 1.0), Admission::Granted);
        assert_eq!(k.query_count(u), 3);
    }

    #[test]
    fn subnet_budget_shared_across_sybils() {
        let mut k = keeper();
        // Three identities in the same /24 (registered 10s apart).
        let a = register(&mut k, "10.0.0.1", 0.0);
        let b = register(&mut k, "10.0.0.2", 10.0);
        let c = register(&mut k, "10.0.0.3", 20.0);
        // At t=100 everyone is full, but the subnet bucket holds only 3.
        assert_eq!(k.admit(a, 100.0), Admission::Granted);
        assert_eq!(k.admit(b, 100.0), Admission::Granted);
        assert_eq!(k.admit(c, 100.0), Admission::Granted);
        let d = k.admit(a, 100.0);
        assert_eq!(d, Admission::Refused(RefusalReason::SubnetRateExceeded));
        // A user in a different subnet is unaffected.
        let z = register(&mut k, "10.9.0.1", 30.0);
        assert_eq!(k.admit(z, 100.0), Admission::Granted);
    }

    #[test]
    fn refusal_charges_no_budget() {
        let mut k = keeper();
        let a = register(&mut k, "10.0.0.1", 0.0);
        let b = register(&mut k, "10.0.0.2", 10.0);
        // Exhaust a's personal budget.
        assert_eq!(k.admit(a, 20.0), Admission::Granted);
        assert_eq!(k.admit(a, 20.0), Admission::Granted);
        assert_eq!(
            k.admit(a, 20.0),
            Admission::Refused(RefusalReason::UserRateExceeded)
        );
        // b still has subnet tokens available: a's refusals cost nothing.
        assert_eq!(k.admit(b, 20.0), Admission::Granted);
    }

    #[test]
    fn retry_hint_is_exact() {
        let mut k = keeper();
        let u = register(&mut k, "10.0.0.1", 0.0);
        // Drain the personal burst (2 tokens at rate 1/s).
        assert_eq!(k.admit(u, 0.0), Admission::Granted);
        assert_eq!(k.admit(u, 0.0), Admission::Granted);
        assert_eq!(
            k.admit(u, 0.0),
            Admission::Refused(RefusalReason::UserRateExceeded)
        );
        let hint = k.retry_at(u, 0.0).unwrap();
        assert!((hint - 1.0).abs() < 1e-9, "hint {hint}");
        // Slightly early: refused. Exactly on the hint: admitted.
        assert_eq!(
            k.admit(u, hint - 1e-3),
            Admission::Refused(RefusalReason::UserRateExceeded)
        );
        assert_eq!(k.admit(u, hint), Admission::Granted);
    }

    #[test]
    fn retry_hint_covers_subnet_budget() {
        let mut k = keeper();
        let a = register(&mut k, "10.0.0.1", 0.0);
        let b = register(&mut k, "10.0.0.2", 10.0);
        let c = register(&mut k, "10.0.0.3", 20.0);
        // Drain the subnet burst (3 tokens at rate 2/s) at t=100.
        assert_eq!(k.admit(a, 100.0), Admission::Granted);
        assert_eq!(k.admit(b, 100.0), Admission::Granted);
        assert_eq!(k.admit(c, 100.0), Admission::Granted);
        assert_eq!(
            k.admit(b, 100.0),
            Admission::Refused(RefusalReason::SubnetRateExceeded)
        );
        // b still has personal tokens; the binding constraint is the
        // subnet bucket's 0.5 s refill.
        let hint = k.retry_at(b, 100.0).unwrap();
        assert!((hint - 100.5).abs() < 1e-9, "hint {hint}");
        assert_eq!(k.admit(b, hint), Admission::Granted);
        // Unregistered identities get no hint.
        assert_eq!(k.retry_at(UserId(999), 0.0), None);
    }

    #[test]
    fn registration_throttled() {
        let mut k = keeper();
        register(&mut k, "10.0.0.1", 0.0);
        assert!(matches!(
            k.register(Ipv4::parse("10.0.0.2").unwrap(), 5.0),
            RegistrationOutcome::TooSoon { .. }
        ));
    }

    /// Replicated throttling: two nodes each see part of a subnet's
    /// traffic; after exchanging gate deltas, each node's admission state
    /// must equal a single gatekeeper that saw the union stream.
    #[test]
    fn merged_subnet_throttling_equals_single_node_on_union_stream() {
        let config = GatekeeperConfig {
            per_user_rate: 100.0, // user budget never binds here
            per_user_burst: 100.0,
            per_subnet_rate: 1.0,
            per_subnet_burst: 4.0,
            registration: RegistrationPolicy::interval(0.0),
            storefront_query_threshold: 0,
        };
        let mut node_a = Gatekeeper::new(config);
        node_a.set_origin(1);
        let mut node_b = Gatekeeper::new(config);
        node_b.set_origin(2);
        let mut single = Gatekeeper::new(config);
        // Same registration stream everywhere (the router broadcasts
        // registrations), so user ids agree.
        let sybils: Vec<UserId> = (1..=4)
            .map(|i| {
                let ip = Ipv4::parse(&format!("10.0.0.{i}")).unwrap();
                let u = match node_a.register(ip, 0.0) {
                    RegistrationOutcome::Admitted { user, .. } => user,
                    other => panic!("{other:?}"),
                };
                assert!(matches!(
                    node_b.register(ip, 0.0),
                    RegistrationOutcome::Admitted { .. }
                ));
                assert!(matches!(
                    single.register(ip, 0.0),
                    RegistrationOutcome::Admitted { .. }
                ));
                u
            })
            .collect();
        // The swarm splits across the two nodes: sybil i queries node
        // (i % 2) at time i. Every query also goes to the single-node
        // reference. Nodes sync after each admission.
        let mut granted_split = 0;
        let mut granted_single = 0;
        for q in 0..12usize {
            let u = sybils[q % sybils.len()];
            let t = 10.0 + q as f64 * 0.01; // bursty: budget must bind
            let node = if q % 2 == 0 { &mut node_a } else { &mut node_b };
            let split = node.admit(u, t);
            let unified = single.admit(u, t);
            assert_eq!(split, unified, "query {q} at t={t}");
            if split == Admission::Granted {
                granted_split += 1;
            }
            if unified == Admission::Granted {
                granted_single += 1;
            }
            // Delta sync both ways after every query (tightest lag).
            let da = node_a.export_gate_delta();
            let db = node_b.export_gate_delta();
            node_b.merge_gate_delta(&da);
            node_a.merge_gate_delta(&db);
        }
        assert_eq!(granted_split, granted_single);
        // The subnet burst (4) bounds the grants; without replication the
        // split swarm would have gotten ~2x.
        assert!(
            granted_split <= 5,
            "subnet budget leaked: {granted_split} grants"
        );
        // Retry hints agree with the union view too.
        let ha = node_a.retry_at(sybils[0], 11.0).unwrap();
        let hs = single.retry_at(sybils[0], 11.0).unwrap();
        assert!((ha - hs).abs() < 1e-9, "{ha} vs {hs}");
    }

    /// Merging the same delta repeatedly, or in either order, leaves the
    /// gatekeeper in the same observable state.
    #[test]
    fn gate_delta_merge_idempotent_and_commutative() {
        let config = GatekeeperConfig {
            registration: RegistrationPolicy::interval(0.0),
            ..GatekeeperConfig::default()
        };
        let mut src_a = Gatekeeper::new(config);
        src_a.set_origin(1);
        let mut src_b = Gatekeeper::new(config);
        src_b.set_origin(2);
        let ua = register(&mut src_a, "10.0.0.1", 0.0);
        assert_eq!(register(&mut src_b, "10.0.0.1", 0.0), ua);
        for t in 0..5 {
            src_a.admit(ua, t as f64);
            src_b.admit(ua, 0.5 + t as f64);
        }
        let da = src_a.export_gate_delta();
        let db = src_b.export_gate_delta();
        let probe = |k: &mut Gatekeeper| {
            let r = k.retry_at(ua, 10.0).unwrap();
            let q = k.query_count(ua);
            (r, q)
        };
        let mut ab = Gatekeeper::new(config);
        ab.set_origin(9);
        assert_eq!(register(&mut ab, "10.0.0.1", 0.0), ua);
        ab.merge_gate_delta(&da);
        ab.merge_gate_delta(&db);
        let mut ba = Gatekeeper::new(config);
        ba.set_origin(9);
        assert_eq!(register(&mut ba, "10.0.0.1", 0.0), ua);
        ba.merge_gate_delta(&db);
        ba.merge_gate_delta(&da);
        ba.merge_gate_delta(&da); // idempotent re-merge
        ba.merge_gate_delta(&db);
        assert_eq!(probe(&mut ab), probe(&mut ba));
    }

    /// `export_gate_delta` ships exactly the charges this node levied —
    /// one per admitted query, against the identity and against its /24,
    /// at the admission time, numbered from 1 — and none of the charges
    /// merged in from a peer or refused.
    #[test]
    fn export_gate_delta_holds_exactly_the_charges_levied() {
        let config = GatekeeperConfig {
            per_user_rate: 2.0,
            per_user_burst: 3.0,
            per_subnet_rate: 3.0,
            per_subnet_burst: 4.0,
            registration: RegistrationPolicy::interval(0.0),
            storefront_query_threshold: 0,
        };
        let mut local = Gatekeeper::new(config);
        local.set_origin(3);
        let mut peer = Gatekeeper::new(config);
        peer.set_origin(5);
        let ips = ["10.0.0.1", "10.0.0.2", "10.0.1.1"];
        let users: Vec<UserId> = ips
            .iter()
            .map(|ip| {
                let u = register(&mut local, ip, 0.0);
                assert_eq!(register(&mut peer, ip, 0.0), u);
                u
            })
            .collect();
        let mut user_logs: HashMap<u64, Vec<Charge>> = HashMap::new();
        let mut subnet_logs: HashMap<[u8; 4], Vec<Charge>> = HashMap::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut t = 1.0;
        for q in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += (x % 4) as f64 * 0.125;
            let i = (x >> 8) as usize % users.len();
            if x & (1 << 20) != 0 {
                peer.admit(users[i], t);
                local.merge_gate_delta(&peer.export_gate_delta());
                peer.merge_gate_delta(&local.export_gate_delta());
            }
            if local.admit(users[i], t) == Admission::Granted {
                let base = Ipv4::parse(ips[i]).unwrap().subnet24().base();
                for log in [
                    user_logs.entry(users[i].0).or_default(),
                    subnet_logs.entry(base).or_default(),
                ] {
                    log.push(Charge {
                        seq: log.len() as u64 + 1,
                        at_secs: t,
                        amount: 1.0,
                    });
                }
            }
            let delta = local.export_gate_delta();
            assert_eq!(delta.origin, 3);
            let mut want_users: Vec<(u64, Vec<Charge>)> =
                user_logs.iter().map(|(&u, l)| (u, l.clone())).collect();
            want_users.sort_by_key(|(u, _)| *u);
            assert_eq!(delta.users, want_users, "query {q}");
            let mut want_subnets: Vec<([u8; 4], Vec<Charge>)> =
                subnet_logs.iter().map(|(&b, l)| (b, l.clone())).collect();
            want_subnets.sort_by_key(|(b, _)| *b);
            let got: Vec<([u8; 4], Vec<Charge>)> = delta
                .subnets
                .iter()
                .map(|s| {
                    assert_eq!(s.prefix, 24);
                    (s.base, s.log.clone())
                })
                .collect();
            assert_eq!(got, want_subnets, "query {q}");
        }
        assert!(user_logs.values().map(Vec::len).sum::<usize>() > 50);
    }

    #[test]
    fn merge_creates_buckets_for_unseen_identities() {
        // A node that never saw a user locally still enforces the global
        // budget once a peer's charges arrive.
        let config = GatekeeperConfig {
            per_user_rate: 1.0,
            per_user_burst: 2.0,
            per_subnet_rate: 100.0,
            per_subnet_burst: 100.0,
            registration: RegistrationPolicy::interval(0.0),
            storefront_query_threshold: 0,
        };
        let mut remote = Gatekeeper::new(config);
        remote.set_origin(1);
        let u = register(&mut remote, "10.0.0.1", 0.0);
        assert_eq!(remote.admit(u, 100.0), Admission::Granted);
        assert_eq!(remote.admit(u, 100.0), Admission::Granted);
        let mut local = Gatekeeper::new(config);
        local.set_origin(2);
        assert_eq!(register(&mut local, "10.0.0.1", 0.0), u);
        local.merge_gate_delta(&remote.export_gate_delta());
        // The user's burst is spent cluster-wide.
        assert_eq!(
            local.admit(u, 100.0),
            Admission::Refused(RefusalReason::UserRateExceeded)
        );
        assert_eq!(local.admit(u, 101.0), Admission::Granted);
    }

    #[test]
    fn storefront_suspects_flagged() {
        let mut k = keeper();
        let u = register(&mut k, "10.0.0.1", 0.0);
        let mut t = 0.0;
        for _ in 0..10 {
            assert_eq!(k.admit(u, t), Admission::Granted);
            t += 2.0; // slow enough to never hit rate limits
        }
        assert_eq!(k.storefront_suspects(), vec![u]);
        let quiet = register(&mut k, "10.1.0.1", 10.0);
        k.admit(quiet, 1000.0);
        assert_eq!(k.storefront_suspects(), vec![u]);
    }
}
