//! The thread-pooled TCP server (DESIGN.md §16.2, §16.4).
//!
//! Threading model: one acceptor thread pushes authenticated-to-be
//! connections onto a **bounded** queue; a fixed pool of worker threads
//! pops connections and owns each one to completion (handshake, request
//! loop, teardown). Admission control has two layers, both bounded:
//!
//! 1. **Connection admission** — when the pending-connection queue is
//!    full, the acceptor replies [`Message::Busy`] and closes instead of
//!    queueing unboundedly.
//! 2. **Query admission** — a global in-flight ceiling plus a per-tenant
//!    ceiling; a request over either limit gets [`Message::Busy`] with a
//!    `retry_after_ms` hint rather than a server-side queue slot.
//!
//! Workers read with a short timeout (`poll_interval_ms`) so a blocking
//! socket still observes the shutdown flag. [`NetServerHandle::shutdown`]
//! stops accepting, lets every worker finish the request it is serving,
//! then drains background compaction before handing the [`Session`]
//! back — so a durable session's WAL is never torn by the network layer.

use super::tenant::{namespaced, qualify_statement, strip_namespace, validate_tenant_name};
use super::wire::{
    net_io, FrameCodec, Message, Recv, ERR_AUTH, ERR_PROTOCOL, ERR_QUERY, ERR_QUOTA,
};
use crate::error::DbError;
use crate::obs::{now_ns, Counter, Hist, Obs, SpanId};
use crate::server::lock;
use crate::session::{ReaderSession, Session};
use crate::sql::{parse, Statement};
use encdbdb_crypto::ct::ct_eq;
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Provisioning record for one tenant admitted to a [`NetServer`].
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name; becomes the table-namespace prefix. Must be
    /// non-empty and contain neither `__` nor `.`.
    pub name: String,
    /// Shared secret presented in the `HELLO` frame.
    pub token: String,
    /// Maximum number of tables this tenant may create.
    pub max_tables: usize,
    /// Maximum queries this tenant may have in flight at once.
    pub max_inflight: usize,
}

impl TenantSpec {
    /// A spec with generous defaults, for tests and examples.
    pub fn new(name: impl Into<String>, token: impl Into<String>) -> Self {
        TenantSpec {
            name: name.into(),
            token: token.into(),
            max_tables: 16,
            max_inflight: 8,
        }
    }
}

/// Tuning knobs for [`NetServer::start`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Bound on connections accepted but not yet claimed by a worker;
    /// overflow is shed with a `BUSY` frame.
    pub max_pending_conns: usize,
    /// Global bound on queries executing at once.
    pub max_inflight_queries: usize,
    /// Backoff hint carried in `BUSY` replies.
    pub retry_after_ms: u32,
    /// Worker read-timeout used as the shutdown poll tick.
    pub poll_interval_ms: u64,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 8,
            max_pending_conns: 64,
            max_inflight_queries: 32,
            retry_after_ms: 10,
            poll_interval_ms: 25,
        }
    }
}

struct TenantState {
    spec: TenantSpec,
    tables: Mutex<usize>,
    inflight: AtomicUsize,
}

struct Shared {
    session: Mutex<Session>,
    tenants: HashMap<String, TenantState>,
    inflight: AtomicUsize,
    stop: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    conn_seed: AtomicU64,
    obs: Obs,
    config: NetServerConfig,
}

/// The networked multi-tenant front end; see the module docs for the
/// threading and admission model.
#[derive(Debug)]
pub struct NetServer;

impl NetServer {
    /// Binds a listener, spawns the acceptor and worker pool, and serves
    /// `session` to the provisioned `tenants` until
    /// [`NetServerHandle::shutdown`].
    ///
    /// # Errors
    ///
    /// Fails on an invalid tenant roster (bad name, duplicate) or if the
    /// listener cannot bind.
    pub fn start(
        session: Session,
        tenants: Vec<TenantSpec>,
        config: NetServerConfig,
    ) -> Result<NetServerHandle, DbError> {
        let mut roster = HashMap::new();
        let existing = session.server().table_names();
        for spec in tenants {
            validate_tenant_name(&spec.name).map_err(DbError::Net)?;
            let prefix = format!("{}__", spec.name);
            let tables = existing.iter().filter(|n| n.starts_with(&prefix)).count();
            let state = TenantState {
                tables: Mutex::new(tables),
                inflight: AtomicUsize::new(0),
                spec,
            };
            if roster.insert(state.spec.name.clone(), state).is_some() {
                return Err(DbError::Net("duplicate tenant name in roster".into()));
            }
        }
        let obs = session.server().obs().clone();
        let listener = TcpListener::bind(&config.addr).map_err(net_io)?;
        let addr = listener.local_addr().map_err(net_io)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            session: Mutex::new(session),
            tenants: roster,
            inflight: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            conn_seed: AtomicU64::new(0x5EED_0001),
            obs,
            config,
        });
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("net-acceptor".into())
                .spawn(move || acceptor_loop(&shared, &listener))
                .map_err(net_io)?
        };
        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("net-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(net_io)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NetServerHandle {
            addr,
            shared,
            acceptor,
            workers: worker_handles,
        })
    }
}

/// A running server: the bound address plus the thread handles needed to
/// stop it. Dropping the handle without calling
/// [`NetServerHandle::shutdown`] leaks the server threads.
#[derive(Debug)]
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("tenants", &self.tenants.len())
            .field("stop", &self.stop.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl NetServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let each worker finish the
    /// request it is serving, join every thread, then drain background
    /// compaction so no write is torn mid-flight. Returns the
    /// [`Session`], whose metrics/ledger now include all served traffic.
    ///
    /// # Errors
    ///
    /// Propagates a compaction-drain failure; thread-join panics
    /// surface as [`DbError::Net`].
    pub fn shutdown(self) -> Result<Session, DbError> {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The acceptor sits in a blocking accept(); poke it awake.
        let _ = TcpStream::connect(self.addr);
        self.acceptor
            .join()
            .map_err(|_| DbError::Net("acceptor thread panicked".into()))?;
        // Connections still queued were never claimed; close them now so
        // their clients see EOF rather than a hang, then wake the pool.
        lock(&self.shared.queue).clear();
        self.shared.queue_cv.notify_all();
        for w in self.workers {
            w.join()
                .map_err(|_| DbError::Net("worker thread panicked".into()))?;
        }
        let shared = Arc::try_unwrap(self.shared)
            .map_err(|_| DbError::Net("server state still referenced after join".into()))?;
        let session = shared
            .session
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        session.server().drain_background_work()?;
        Ok(session)
    }
}

fn acceptor_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut queue = lock(&shared.queue);
        if queue.len() >= shared.config.max_pending_conns {
            drop(queue);
            shared.obs.add(Counter::NetConnectionsShedTotal, 1);
            let mut stream = stream;
            let _ = FrameCodec::new().send(
                &mut stream,
                0,
                &Message::Busy {
                    retry_after_ms: shared.config.retry_after_ms,
                },
            );
        } else {
            queue.push_back(stream);
            let depth = queue.len() as u64;
            drop(queue);
            shared.obs.add(Counter::NetConnectionsAcceptedTotal, 1);
            shared.obs.record(Hist::NetQueueDepth, depth);
            shared.queue_cv.notify_one();
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    let tick = Duration::from_millis(shared.config.poll_interval_ms.max(1));
    loop {
        let stream = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(s) = queue.pop_front() {
                    break Some(s);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, tick)
                    .unwrap_or_else(|e| e.into_inner());
                queue = guard;
            }
        };
        match stream {
            Some(stream) => handle_connection(shared, stream),
            None => return,
        }
    }
}

/// Receives the next frame, accounting bytes-in and receive latency.
fn recv_frame(shared: &Shared, codec: &mut FrameCodec, stream: &mut TcpStream) -> RecvStep {
    loop {
        match codec.poll_recv(stream) {
            Ok(Recv::Frame {
                request_id,
                msg,
                frame_bytes,
                first_byte_ns,
            }) => {
                shared.obs.add(Counter::NetBytesInTotal, frame_bytes);
                let received = (first_byte_ns, now_ns());
                let recv_ns =
                    shared
                        .obs
                        .interval("net.recv", "net", &SpanId::NONE, received, frame_bytes);
                shared.obs.record(Hist::NetRecvNs, recv_ns);
                return RecvStep::Frame { request_id, msg };
            }
            Ok(Recv::Idle) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return RecvStep::Closed;
                }
            }
            Ok(Recv::Eof) => return RecvStep::Closed,
            Err(_) => return RecvStep::Broken,
        }
    }
}

enum RecvStep {
    Frame {
        request_id: u64,
        msg: Message,
    },
    /// Orderly end: EOF at a frame boundary, or shutdown requested.
    Closed,
    /// Protocol or I/O failure; the caller should tell the peer if the
    /// socket still works, then close.
    Broken,
}

fn send_reply(
    shared: &Shared,
    codec: &mut FrameCodec,
    stream: &mut TcpStream,
    request_id: u64,
    msg: &Message,
) -> bool {
    let span = shared.obs.span("net.send", "net", &SpanId::NONE);
    let sent = codec.send(stream, request_id, msg);
    span.finish_into(Hist::NetSendNs);
    match sent {
        Ok(bytes) => {
            shared.obs.add(Counter::NetBytesOutTotal, bytes);
            true
        }
        Err(_) => false,
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(
        shared.config.poll_interval_ms.max(1),
    )));
    let mut codec = FrameCodec::new();
    codec.pre_auth = true;

    // Handshake: the first frame must be a HELLO naming a provisioned
    // tenant with the right token.
    let tenant = match recv_frame(shared, &mut codec, &mut stream) {
        RecvStep::Frame {
            request_id,
            msg: Message::Hello { tenant, token },
        } => {
            if token_admits(&shared.tenants, &tenant, &token) {
                if !send_reply(
                    shared,
                    &mut codec,
                    &mut stream,
                    request_id,
                    &Message::HelloOk,
                ) {
                    return;
                }
                codec.pre_auth = false;
                tenant
            } else {
                shared.obs.add(Counter::NetAuthFailuresTotal, 1);
                send_reply(
                    shared,
                    &mut codec,
                    &mut stream,
                    request_id,
                    &Message::Error {
                        code: ERR_AUTH,
                        message: "unknown tenant or bad token".into(),
                    },
                );
                return;
            }
        }
        RecvStep::Frame { request_id, .. } => {
            send_reply(
                shared,
                &mut codec,
                &mut stream,
                request_id,
                &Message::Error {
                    code: ERR_PROTOCOL,
                    message: "expected HELLO as the first frame".into(),
                },
            );
            return;
        }
        RecvStep::Closed => return,
        RecvStep::Broken => {
            send_reply(
                shared,
                &mut codec,
                &mut stream,
                0,
                &Message::Error {
                    code: ERR_PROTOCOL,
                    message: "malformed frame".into(),
                },
            );
            return;
        }
    };
    let state = &shared.tenants[&tenant];

    // Each connection gets its own ReaderSession (own proxy RNG), which
    // feeds the shared ECALL scheduler — so concurrent connections batch
    // their enclave transitions exactly like in-process readers.
    let seed = shared.conn_seed.fetch_add(1, Ordering::SeqCst);
    let mut reader = lock(&shared.session).reader(seed);

    loop {
        // Graceful shutdown drains the request *in flight*, not the
        // whole pipeline: once stop is set, the connection closes at the
        // next request boundary even if more frames are already queued.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match recv_frame(shared, &mut codec, &mut stream) {
            RecvStep::Frame {
                request_id,
                msg: Message::Query { sql },
            } => {
                shared.obs.add(Counter::NetRequestsTotal, 1);
                let reply = match AdmissionGuard::acquire(shared, state) {
                    Some(_guard) => execute_query(state, &tenant, &mut reader, &sql),
                    None => {
                        shared.obs.add(Counter::NetBusyRepliesTotal, 1);
                        Message::Busy {
                            retry_after_ms: shared.config.retry_after_ms,
                        }
                    }
                };
                if !send_reply(shared, &mut codec, &mut stream, request_id, &reply) {
                    return;
                }
            }
            RecvStep::Frame {
                msg: Message::Goodbye,
                ..
            }
            | RecvStep::Closed => return,
            RecvStep::Frame { request_id, .. } => {
                send_reply(
                    shared,
                    &mut codec,
                    &mut stream,
                    request_id,
                    &Message::Error {
                        code: ERR_PROTOCOL,
                        message: "expected QUERY or GOODBYE".into(),
                    },
                );
                return;
            }
            RecvStep::Broken => {
                send_reply(
                    shared,
                    &mut codec,
                    &mut stream,
                    0,
                    &Message::Error {
                        code: ERR_PROTOCOL,
                        message: "malformed frame".into(),
                    },
                );
                return;
            }
        }
    }
}

/// Whether `token` is the bearer token of the provisioned tenant `tenant`.
/// The comparison is constant-time in the token's content, and a tenant
/// that does not exist costs what a wrong token of the offered length
/// costs: it is compared against the offer itself and then refused, so
/// the reply's timing tells tenant names apart no better than tokens.
fn token_admits(tenants: &HashMap<String, TenantState>, tenant: &str, token: &str) -> bool {
    let state = tenants.get(tenant);
    let expected = state.map_or(token, |s| s.spec.token.as_str());
    ct_eq(expected.as_bytes(), token.as_bytes()) & state.is_some()
}

fn execute_query(
    state: &TenantState,
    tenant: &str,
    reader: &mut ReaderSession,
    sql: &str,
) -> Message {
    let mut stmt = match parse(sql) {
        Ok(stmt) => stmt,
        Err(e) => {
            return Message::Error {
                code: ERR_QUERY,
                message: e.to_string(),
            }
        }
    };
    if let Statement::CreateTable { .. } = &stmt {
        let tables = lock(&state.tables);
        if *tables >= state.spec.max_tables {
            return Message::Error {
                code: ERR_QUOTA,
                message: format!(
                    "tenant {tenant} is at its table quota ({})",
                    state.spec.max_tables
                ),
            };
        }
    }
    qualify_statement(&mut stmt, tenant);
    let created = matches!(stmt, Statement::CreateTable { .. });
    match reader.execute_statement(stmt) {
        Ok(result) => {
            if created {
                *lock(&state.tables) += 1;
            }
            Message::Result {
                columns: result
                    .columns
                    .iter()
                    .map(|c| strip_namespace(c, tenant))
                    .collect(),
                rows: result.rows,
            }
        }
        Err(e) => Message::Error {
            code: ERR_QUERY,
            message: e.to_string(),
        },
    }
}

/// Holds one slot of both the global and the per-tenant in-flight
/// budget; both are released on drop.
struct AdmissionGuard<'a> {
    global: &'a AtomicUsize,
    tenant: &'a AtomicUsize,
}

fn try_acquire(counter: &AtomicUsize, max: usize) -> bool {
    let prev = counter.fetch_add(1, Ordering::SeqCst);
    if prev >= max {
        counter.fetch_sub(1, Ordering::SeqCst);
        return false;
    }
    true
}

impl<'a> AdmissionGuard<'a> {
    fn acquire(shared: &'a Shared, state: &'a TenantState) -> Option<Self> {
        if !try_acquire(&shared.inflight, shared.config.max_inflight_queries) {
            return None;
        }
        if !try_acquire(&state.inflight, state.spec.max_inflight) {
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(AdmissionGuard {
            global: &shared.inflight,
            tenant: &state.inflight,
        })
    }
}

impl Drop for AdmissionGuard<'_> {
    fn drop(&mut self) {
        self.tenant.fetch_sub(1, Ordering::SeqCst);
        self.global.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The shared-namespace name the server stores `table` under for
/// `tenant` — exposed so operators (and benchmarks) can pre-load a
/// tenant's tables in-process before serving them.
pub fn tenant_table_name(tenant: &str, table: &str) -> String {
    namespaced(tenant, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_exact_token_of_a_known_tenant_is_admitted() {
        let roster = |specs: &[(&str, &str)]| -> HashMap<String, TenantState> {
            specs
                .iter()
                .map(|&(name, token)| {
                    let state = TenantState {
                        spec: TenantSpec::new(name, token),
                        tables: Mutex::new(0),
                        inflight: AtomicUsize::new(0),
                    };
                    (name.to_string(), state)
                })
                .collect()
        };
        let tenants = roster(&[("acme", "s3cret-token"), ("open", "")]);
        assert!(token_admits(&tenants, "acme", "s3cret-token"));
        for offered in [
            "",
            "s",
            "s3cret-toke",
            "s3cret-token ",
            "s3cret-tokem",
            "S3cret-token",
            "s3cret-token\0",
        ] {
            assert!(!token_admits(&tenants, "acme", offered), "{offered:?}");
        }
        // An unknown tenant is refused whatever it offers — its own name,
        // another tenant's token, nothing.
        for offered in ["", "nobody", "s3cret-token"] {
            assert!(!token_admits(&tenants, "nobody", offered), "{offered:?}");
            assert!(!token_admits(&tenants, "", offered), "{offered:?}");
        }
        // An empty token is a token like any other: it admits exactly the
        // tenant provisioned with it.
        assert!(token_admits(&tenants, "open", ""));
        assert!(!token_admits(&tenants, "open", "s3cret-token"));
        assert!(!token_admits(&tenants, "acme", ""));
    }

    /// A length prefix declaring 256 MiB before HELLO gets the protocol
    /// error and a closed socket, not a 256 MiB buffer, and the server goes
    /// on serving the next connection.
    #[test]
    fn an_oversized_frame_before_hello_is_refused() {
        use std::io::Write;
        let session = Session::with_seed(0x150_0005).expect("session");
        let tenants = vec![TenantSpec::new("acme", "tok")];
        let handle =
            NetServer::start(session, tenants, NetServerConfig::default()).expect("server start");
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        stream
            .write_all(&(256u32 << 20).to_le_bytes())
            .expect("prefix");
        let mut codec = FrameCodec::new();
        match codec.poll_recv(&mut stream).expect("reply") {
            Recv::Frame {
                msg: Message::Error { code, message },
                ..
            } => assert_eq!((code, message.as_str()), (ERR_PROTOCOL, "malformed frame")),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(matches!(codec.poll_recv(&mut stream), Ok(Recv::Eof)));

        let mut client = super::super::NetClient::connect(handle.addr(), "acme", "tok")
            .expect("second connection");
        client.execute("CREATE TABLE t (v ED2(8))").expect("create");
        client.close();
        handle.shutdown().expect("shutdown");
    }
}
