//! Set-up: build the table, warm popularity, start the server on an
//! ephemeral loopback port, and connect and register the clients.

use crate::workloads::{
    key_of_rank, select_sql, stream_seed, zipf_for, Policy, Role, Spec, STREAM_WARMUP, ZIPF_ALPHA,
};
use delayguard_core::gatekeeper::{GatekeeperConfig, RegistrationPolicy};
use delayguard_core::{
    AccessDelayPolicy, GuardConfig, GuardPolicy, GuardedDatabase, UpdateDelayPolicy,
};
use delayguard_server::protocol::{read_frame_buffered, write_frame_buffered, Frame};
use delayguard_server::{Server, ServerConfig, ServerHandle, PROTOCOL_VERSION};
use delayguard_sim::Registry;
use delayguard_workload::{Rng, Zipf};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Nanoseconds since the first call in this process: the one time base
/// of every client-side stamp.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A reply that has not come this long after the last one is counted as
/// unfinished instead of hanging the benchmark.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

pub fn guard_config(policy: Policy) -> GuardConfig {
    let access = |cap| AccessDelayPolicy::new(ZIPF_ALPHA, 1.0).with_cap(cap);
    GuardConfig::paper_default().with_policy(match policy {
        Policy::AccessRate { cap_secs } => GuardPolicy::AccessRate(access(cap_secs)),
        Policy::Hybrid { cap_secs } => GuardPolicy::Hybrid(
            access(cap_secs),
            UpdateDelayPolicy::new(1.0).with_cap(cap_secs),
        ),
    })
}

/// Admission runs on every query and never refuses: the buckets hold
/// more than a run can spend and registration is not throttled.
pub fn open_gatekeeper() -> GatekeeperConfig {
    GatekeeperConfig {
        per_user_rate: 1e9,
        per_user_burst: 1e9,
        per_subnet_rate: 1e9,
        per_subnet_burst: 1e9,
        registration: RegistrationPolicy::interval(0.0),
        storefront_query_threshold: 0,
    }
}

/// Table `t (id INT NOT NULL, body TEXT)` with a unique index on `id`,
/// rows `0..rows`, popularity warmed with `4 * rows` Zipf point reads.
pub fn build_db(config: GuardConfig, rows: u64, seed: u64, zipf: &Zipf) -> GuardedDatabase {
    let db = GuardedDatabase::new(config);
    let run = |sql: &str, at: f64| {
        db.execute_at(sql, at)
            .unwrap_or_else(|e| panic!("set-up statement failed: {e}: {sql}"))
    };
    run("CREATE TABLE t (id INT NOT NULL, body TEXT)", 0.0);
    run("CREATE UNIQUE INDEX t_pk ON t (id)", 0.0);
    for lo in (0..rows).step_by(256) {
        let values: Vec<String> = (lo..(lo + 256).min(rows))
            .map(|k| format!("({k}, 'row-{k}')"))
            .collect();
        run(&format!("INSERT INTO t VALUES {}", values.join(", ")), 0.0);
    }
    let mut rng = Rng::new(stream_seed(seed, STREAM_WARMUP));
    for q in 0..4 * rows {
        let key = key_of_rank(zipf.sample(&mut rng), rows);
        run(&select_sql(key, 1), 1.0 + q as f64 * 1e-3);
    }
    db.refresh();
    db
}

/// A reader that counts the bytes it hands on.
pub struct CountingStream {
    stream: TcpStream,
    pub bytes: u64,
}

impl Read for CountingStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// The sending half of a registered client connection.
pub struct ConnTx {
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    pub user: u64,
}

impl ConnTx {
    /// Encode `frame` into the write buffer; nothing leaves until
    /// [`ConnTx::flush`], so queries can be pipelined.
    pub fn send(&mut self, frame: &Frame) -> io::Result<()> {
        write_frame_buffered(&mut self.writer, frame, &mut self.scratch)
            .map_err(|e| io::Error::other(e.to_string()))
    }

    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// The receiving half of a registered client connection.
pub struct ConnRx {
    reader: BufReader<CountingStream>,
    scratch: Vec<u8>,
}

impl ConnRx {
    /// The next frame; an error on EOF, a malformed frame, or silence
    /// longer than the read timeout.
    pub fn recv(&mut self) -> io::Result<Frame> {
        match read_frame_buffered(&mut self.reader, &mut self.scratch) {
            Ok(Some(frame)) => Ok(frame),
            Ok(None) => Err(io::ErrorKind::UnexpectedEof.into()),
            Err(e) => Err(io::Error::other(e.to_string())),
        }
    }

    /// Whether a complete `recv` may need the socket (nothing buffered).
    pub fn drained(&self) -> bool {
        self.reader.buffer().is_empty()
    }

    pub fn bytes(&self) -> u64 {
        self.reader.get_ref().bytes
    }
}

pub struct Conn {
    pub tx: ConnTx,
    pub rx: ConnRx,
}

/// Connect over loopback TCP and `REGISTER` at the current protocol
/// version.
pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let mut tx = ConnTx {
        writer: BufWriter::new(stream.try_clone()?),
        scratch: Vec::with_capacity(256),
        user: 0,
    };
    let mut rx = ConnRx {
        reader: BufReader::with_capacity(64 * 1024, CountingStream { stream, bytes: 0 }),
        scratch: Vec::new(),
    };
    tx.send(&Frame::Register {
        claimed_ip: [0; 4],
        version: PROTOCOL_VERSION,
    })?;
    tx.flush()?;
    match rx.recv()? {
        Frame::Registered { user, .. } => tx.user = user,
        other => return Err(io::Error::other(format!("REGISTER answered {other:?}"))),
    }
    Ok(Conn { tx, rx })
}

/// A running server with its registered client connections, one per
/// role of the workload.
pub struct Bed {
    pub handle: ServerHandle,
    pub db: Arc<GuardedDatabase>,
    pub conns: Vec<Conn>,
    pub zipf: Arc<Zipf>,
}

impl Bed {
    pub fn registry(&self) -> &Registry {
        self.handle.registry()
    }

    /// Close the client sockets, then drain and stop the server.
    pub fn shutdown(self) {
        drop(self.conns);
        self.handle.shutdown();
    }
}

pub fn start_server(db: Arc<GuardedDatabase>) -> io::Result<ServerHandle> {
    let config = ServerConfig {
        gatekeeper: open_gatekeeper(),
        ..ServerConfig::default()
    };
    Server::start("127.0.0.1:0", config, db, Registry::new())
}

/// Everything `setup_s` times.
pub fn setup(spec: &Spec, seed: u64) -> io::Result<Bed> {
    let zipf = zipf_for(spec.rows);
    let db = Arc::new(build_db(guard_config(spec.policy), spec.rows, seed, &zipf));
    let handle = start_server(Arc::clone(&db))?;
    let conns = spec
        .roles
        .iter()
        .map(|_: &Role| connect(handle.addr()))
        .collect::<io::Result<Vec<Conn>>>()?;
    Ok(Bed {
        handle,
        db,
        conns,
        zipf,
    })
}
