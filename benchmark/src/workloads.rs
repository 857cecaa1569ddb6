//! The workloads and the seeded generators behind them. The server sees
//! only the SQL these produce.

use delayguard_workload::{Rng, Zipf};
use std::sync::Arc;

/// Zipf parameter of honest traffic; also the policy's assumed `α`.
pub const ZIPF_ALPHA: f64 = 1.5;

/// How a connection chooses the keys it reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Keys {
    Uniform,
    Zipf,
}

/// What one client connection does for the length of a trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Role {
    /// Open loop: point reads sent on a fixed schedule whatever the
    /// replies do (one sender thread, one receiver thread).
    OpenReads { per_sec: u64 },
    /// Closed loop: `window` reads in flight, a new one sent as each
    /// completes. `scan_rows` = 1 is a point read.
    Reads {
        window: usize,
        keys: Keys,
        scan_rows: u64,
    },
    /// Closed loop of writes: 80 % UPDATE on Zipf keys, 10 % INSERT of
    /// fresh ids, 10 % DELETE of ids this run inserted.
    Writes { window: usize },
}

impl Role {
    /// How many ops this connection sends in the warm-up: about half a
    /// second's worth, fixed so that every run has done the same work
    /// when peak memory is read.
    pub fn warmup_ops(&self) -> u64 {
        match *self {
            Role::OpenReads { per_sec } => per_sec / 2,
            Role::Reads { scan_rows: 1, .. } => 15_000,
            Role::Reads { .. } => 150,
            Role::Writes { .. } => 4_000,
        }
    }
}

/// The delay policy a workload's server prices with. The cap changes
/// the deadline, not the work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Policy {
    AccessRate { cap_secs: f64 },
    Hybrid { cap_secs: f64 },
}

impl Policy {
    /// The most any one tuple is charged.
    pub fn cap_secs(self) -> f64 {
        match self {
            Policy::AccessRate { cap_secs } | Policy::Hybrid { cap_secs } => cap_secs,
        }
    }
}

/// Which side of the traffic the end-to-end metrics describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Primary {
    Reads,
    Writes,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    /// Table size `N`: rows `0..N` with `body = 'row-{id}'`.
    pub rows: u64,
    pub policy: Policy,
    pub roles: &'static [Role],
    pub primary: Primary,
    /// How many trials share the measured seconds. A trial costs a
    /// set-up, so the large tables get five; the small ones can afford
    /// ten, and need them: two sessions on one table settle into a fast
    /// or a slow rhythm per server, and the median has to average that.
    pub trials: usize,
}

const MIXED_ROLES: &[Role] = &[
    Role::Reads {
        window: 64,
        keys: Keys::Zipf,
        scan_rows: 1,
    },
    Role::Writes { window: 16 },
];

pub const ALL: &[Spec] = &[
    Spec {
        name: "zipf_open",
        why: "honest users: open loop of 4000 Zipf point reads/s with a 250 ms cap, so the \
              wheel, scheduler thread, writer wake-up and socket set lateness",
        rows: 65_536,
        policy: Policy::AccessRate { cap_secs: 0.25 },
        roles: &[Role::OpenReads { per_sec: 4_000 }],
        primary: Primary::Reads,
        trials: 5,
    },
    Spec {
        name: "point_window",
        why: "capacity: 2 connections x 128 uniform point reads in flight with a 1 us cap, so \
              CPU per query (decode, admit, parse, plan, price, encode) sets ops_per_s",
        rows: 8_192,
        policy: Policy::AccessRate { cap_secs: 1e-6 },
        roles: &[Role::Reads {
            window: 128,
            keys: Keys::Uniform,
            scan_rows: 1,
        }; 2],
        primary: Primary::Reads,
        trials: 10,
    },
    Spec {
        name: "scan_stream",
        why: "crawler-shaped: 2 connections x depth 1 of 2048-row range scans, so executor, \
              per-tuple pricing, row encode, writer coalescing and socket bytes set rows_per_s",
        rows: 65_536,
        policy: Policy::AccessRate { cap_secs: 0.4e-6 },
        roles: &[Role::Reads {
            window: 1,
            keys: Keys::Uniform,
            scan_rows: 2_048,
        }; 2],
        primary: Primary::Reads,
        trials: 5,
    },
    Spec {
        name: "mixed_rw_reads",
        why: "reader's view of mixed traffic: 64 Zipf point reads in flight beside a writer \
              connection under the Hybrid policy, so a write gain that costs reads shows",
        rows: 8_192,
        policy: Policy::Hybrid { cap_secs: 1e-6 },
        roles: MIXED_ROLES,
        primary: Primary::Reads,
        trials: 10,
    },
    Spec {
        name: "mixed_rw_writes",
        why: "writer's view of the same traffic: 16 writes in flight (80% UPDATE, 10% INSERT, \
              10% DELETE) beside the reader, so a read gain that costs writes shows",
        rows: 8_192,
        policy: Policy::Hybrid { cap_secs: 1e-6 },
        roles: MIXED_ROLES,
        primary: Primary::Writes,
        trials: 10,
    },
];

/// What a connection sends: a stream of reads or a stream of writes.
pub enum Gen {
    Read(ReadGen),
    Write(WriteGen),
}

impl Spec {
    /// One generator per connection of the workload, each on its own
    /// stream under `seed`.
    pub fn generators(&self, seed: u64, zipf: &Arc<Zipf>) -> Vec<Gen> {
        self.roles
            .iter()
            .enumerate()
            .map(|(i, role)| {
                let s = stream_seed(seed, STREAM_CONN0 + i as u64);
                match *role {
                    Role::OpenReads { .. } => {
                        Gen::Read(ReadGen::new(s, Keys::Zipf, self.rows, 1, zipf))
                    }
                    Role::Reads {
                        keys, scan_rows, ..
                    } => Gen::Read(ReadGen::new(s, keys, self.rows, scan_rows, zipf)),
                    Role::Writes { .. } => Gen::Write(WriteGen::new(s, self.rows, zipf)),
                }
            })
            .collect()
    }
}

pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// Popularity rank (1 = hottest) to row id: a fixed bijection on
/// `0..rows` (`rows` is a power of two), so hot rows are scattered over
/// the table instead of sitting at its front.
pub fn key_of_rank(rank: u64, rows: u64) -> u64 {
    debug_assert!(rows.is_power_of_two());
    (rank - 1).wrapping_mul(0x9E37_79B1) & (rows - 1)
}

/// A distinct generator seed for each use of the workload seed.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Stream numbers under one workload seed.
pub const STREAM_WARMUP: u64 = 1;
pub const STREAM_CONN0: u64 = 16;
/// Trial `i` draws its connections' streams under
/// `stream_seed(seed, STREAM_TRIAL0 + i)`.
pub const STREAM_TRIAL0: u64 = 1_024;

pub fn zipf_for(rows: u64) -> Arc<Zipf> {
    Arc::new(Zipf::new(rows, ZIPF_ALPHA))
}

/// One generated read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadOp {
    /// First id requested.
    pub lo: u64,
    /// Rows the reply must carry: ids `lo..lo + rows`.
    pub rows: u64,
    pub sql: String,
}

pub fn select_sql(lo: u64, rows: u64) -> String {
    if rows == 1 {
        format!("SELECT id, body FROM t WHERE id = {lo}")
    } else {
        format!(
            "SELECT id, body FROM t WHERE id >= {lo} AND id < {}",
            lo + rows
        )
    }
}

pub struct ReadGen {
    rng: Rng,
    zipf: Option<Arc<Zipf>>,
    rows: u64,
    scan_rows: u64,
}

impl ReadGen {
    pub fn new(seed: u64, keys: Keys, rows: u64, scan_rows: u64, zipf: &Arc<Zipf>) -> ReadGen {
        ReadGen {
            rng: Rng::new(seed),
            zipf: (keys == Keys::Zipf).then(|| Arc::clone(zipf)),
            rows,
            scan_rows,
        }
    }

    pub fn next_key(&mut self) -> u64 {
        match &self.zipf {
            Some(z) => key_of_rank(z.sample(&mut self.rng), self.rows),
            // A scan starts where its whole range is inside the table.
            None => self.rng.below(self.rows - self.scan_rows + 1),
        }
    }

    pub fn next_op(&mut self) -> ReadOp {
        let lo = self.next_key();
        ReadOp {
            lo,
            rows: self.scan_rows,
            sql: select_sql(lo, self.scan_rows),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Insert,
    Update,
    Delete,
}

/// One generated write. `version` numbers this run's writes from 1; an
/// UPDATE writes it into the body so a later read can be dated.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOp {
    pub verb: Verb,
    pub id: u64,
    pub version: u32,
    pub sql: String,
}

/// The body a read of `id` returns after write `version` (0 = the body
/// the table was built with).
pub fn body_of(id: u64, version: u32) -> String {
    if version == 0 {
        format!("row-{id}")
    } else {
        format!("w{version}-{id}")
    }
}

/// Parse a body back into `(version, id)`.
pub fn parse_body(body: &str) -> Option<(u32, u64)> {
    if let Some(id) = body.strip_prefix("row-") {
        return id.parse().ok().map(|id| (0, id));
    }
    let (version, id) = body.strip_prefix('w')?.split_once('-')?;
    Some((version.parse().ok()?, id.parse().ok()?))
}

/// The writer's generator, which is also the model of what the table
/// must hold once every generated write has been applied in order.
pub struct WriteGen {
    rng: Rng,
    zipf: Arc<Zipf>,
    rows: u64,
    /// Version of the last UPDATE generated per base row (0 = none).
    last_update: Vec<u32>,
    /// Ids inserted by this run and not deleted since.
    live: Vec<u64>,
    next_fresh: u64,
    version: u32,
}

impl WriteGen {
    pub fn new(seed: u64, rows: u64, zipf: &Arc<Zipf>) -> WriteGen {
        WriteGen {
            rng: Rng::new(seed),
            zipf: Arc::clone(zipf),
            rows,
            last_update: vec![0; rows as usize],
            live: Vec::new(),
            next_fresh: rows,
            version: 0,
        }
    }

    pub fn next_op(&mut self) -> WriteOp {
        self.version += 1;
        let version = self.version;
        let roll = self.rng.below(10);
        if roll == 0 && !self.live.is_empty() {
            let at = self.rng.below(self.live.len() as u64) as usize;
            let id = self.live.swap_remove(at);
            return WriteOp {
                verb: Verb::Delete,
                id,
                version,
                sql: format!("DELETE FROM t WHERE id = {id}"),
            };
        }
        if roll <= 1 {
            let id = self.next_fresh;
            self.next_fresh += 1;
            self.live.push(id);
            return WriteOp {
                verb: Verb::Insert,
                id,
                version,
                sql: format!("INSERT INTO t VALUES ({id}, '{}')", body_of(id, 0)),
            };
        }
        let id = key_of_rank(self.zipf.sample(&mut self.rng), self.rows);
        self.last_update[id as usize] = version;
        WriteOp {
            verb: Verb::Update,
            id,
            version,
            sql: format!(
                "UPDATE t SET body = '{}' WHERE id = {id}",
                body_of(id, version)
            ),
        }
    }

    /// One past the largest id this run has inserted.
    pub fn id_limit(&self) -> u64 {
        self.next_fresh
    }

    /// What the table must hold at `id`: `None` if the row must be absent.
    pub fn expected_body(&self, id: u64) -> Option<String> {
        if id < self.rows {
            Some(body_of(id, self.last_update[id as usize]))
        } else {
            self.live.contains(&id).then(|| body_of(id, 0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first SQL statements every connection of `spec` would send.
    fn sql_of(spec: &Spec, seed: u64, n: usize) -> Vec<String> {
        let mut out = Vec::new();
        for mut gen in spec.generators(seed, &zipf_for(spec.rows)) {
            out.extend((0..n).map(|_| match &mut gen {
                Gen::Read(g) => g.next_op().sql,
                Gen::Write(g) => g.next_op().sql,
            }));
        }
        out
    }

    #[test]
    fn same_seed_same_sql_and_another_seed_differs() {
        for spec in ALL {
            let a = sql_of(spec, 2004, 500);
            assert_eq!(a, sql_of(spec, 2004, 500), "{}", spec.name);
            assert_ne!(a, sql_of(spec, 2005, 500), "{}", spec.name);
            assert!(a.iter().all(|s| !s.is_empty()));
        }
    }

    #[test]
    fn connections_of_one_workload_draw_different_streams() {
        let sql = sql_of(by_name("point_window").unwrap(), 9, 200);
        assert_ne!(sql[..200], sql[200..]);
    }

    #[test]
    fn rank_to_key_is_a_bijection() {
        let rows = 8_192;
        let mut seen = vec![false; rows as usize];
        for rank in 1..=rows {
            let k = key_of_rank(rank, rows) as usize;
            assert!(!seen[k]);
            seen[k] = true;
        }
    }

    #[test]
    fn scans_stay_inside_the_table() {
        let zipf = zipf_for(65_536);
        let mut g = ReadGen::new(3, Keys::Uniform, 65_536, 2_048, &zipf);
        for _ in 0..10_000 {
            let op = g.next_op();
            assert!(op.lo + op.rows <= 65_536);
        }
    }

    #[test]
    fn write_mix_and_model_agree() {
        let zipf = zipf_for(8_192);
        let mut g = WriteGen::new(11, 8_192, &zipf);
        let mut counts = [0usize; 3];
        let mut deleted = Vec::new();
        let mut last = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let op = g.next_op();
            match op.verb {
                Verb::Insert => {
                    counts[0] += 1;
                    assert!(op.id >= 8_192);
                }
                Verb::Update => {
                    counts[1] += 1;
                    last.insert(op.id, op.version);
                }
                Verb::Delete => {
                    counts[2] += 1;
                    deleted.push(op.id);
                }
            }
        }
        assert!((1_700..2_300).contains(&counts[0]), "{counts:?}");
        assert!((15_500..16_500).contains(&counts[1]), "{counts:?}");
        assert!((1_700..2_300).contains(&counts[2]), "{counts:?}");
        for id in deleted {
            assert_eq!(g.expected_body(id), None);
        }
        for (id, version) in last {
            assert_eq!(g.expected_body(id), Some(body_of(id, version)));
        }
        assert_eq!(
            g.expected_body(8_191 - 7)
                .map(|b| parse_body(&b).unwrap().1),
            Some(8_184)
        );
    }

    #[test]
    fn bodies_round_trip() {
        assert_eq!(parse_body(&body_of(42, 0)), Some((0, 42)));
        assert_eq!(parse_body(&body_of(42, 977)), Some((977, 42)));
        assert_eq!(parse_body("garbage"), None);
    }
}
