//! Drives one workload against the program: fresh set-up (timed), the
//! closed single-client op loop (timed per op, each result checked against
//! the oracle), and the end-to-end metrics.
//!
//! The program runs on its defaults — `Parallelism::Serial`, ECALL
//! batching on, default `CompactionPolicy` — and is observed only through
//! public functions and counters.

use crate::oracle::digest;
use crate::stats::{summarize, Summary};
use crate::workloads::{Front, Op, Plan, Spec, TableData, TENANT, TOKEN};
use encdbdb::{
    DbError, DbaasServer, DurabilityPolicy, EcallKind, LedgerReport, MetricsReport, NetClient,
    NetServer, NetServerConfig, NetServerHandle, QueryResult, ReaderSession, Session, TenantSpec,
};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The stated flush policy of `ingest_durable`: one WAL `fsync` per 64
/// appended records, two snapshot epochs kept (the default).
pub const WAL_FSYNC_BATCH: usize = 64;

/// The query-path ledger kinds (everything but `Merge`, which runs off the
/// query path on the second enclave).
pub const QUERY_PATH_KINDS: [EcallKind; 5] = [
    EcallKind::Search,
    EcallKind::Reencrypt,
    EcallKind::Aggregate,
    EcallKind::JoinBridge,
    EcallKind::Batch,
];

enum FrontEnd {
    Session(Box<Session>),
    Net {
        handle: NetServerHandle,
        client: NetClient,
    },
}

/// A deployed program instance with its single client attached.
pub struct Deployment {
    /// Shared server handle — counters, storage accounting, compaction.
    pub server: DbaasServer,
    /// In-process fork of the session: pre-parsed execution in the traced
    /// pass, twin statements, the in-process leg of `net.overhead`.
    pub reader: ReaderSession,
    front: FrontEnd,
    dir: Option<PathBuf>,
    master_key: encdbdb_crypto::Key128,
    seed: u64,
    /// Seconds of the set-up spent in `Session::load_table`.
    pub load_s: f64,
}

fn load(db: &mut Session, tables: &[TableData]) -> Result<f64, DbError> {
    let t0 = Instant::now();
    for t in tables {
        db.load_table(&t.table, t.schema.clone())?;
    }
    Ok(t0.elapsed().as_secs_f64())
}

impl Deployment {
    /// One fresh set-up: session, attestation and provisioning, durable
    /// storage where used, `load_table` of every table, server start and
    /// client connect where used. `scratch` is a directory of this run's
    /// own inside the checkout.
    pub fn setup(spec: &Spec, plan: &Plan, seed: u64, scratch: &Path) -> Result<Self, DbError> {
        let mut db = Session::with_seed(seed)?;
        let dir = (spec.front == Front::Durable).then(|| scratch.join("durable"));
        if let Some(dir) = &dir {
            let _ = std::fs::remove_dir_all(dir);
            std::fs::create_dir_all(dir).map_err(|e| DbError::Durability(e.to_string()))?;
            let policy = DurabilityPolicy {
                wal_fsync_batch: WAL_FSYNC_BATCH,
                ..DurabilityPolicy::default()
            };
            db.server().attach_durability(dir, policy)?;
        }
        let load_s = load(&mut db, &plan.tables)?;
        let server = db.server().clone();
        let reader = db.reader(seed ^ 0x5EED);
        let master_key = db.master_key();
        let front = if spec.front == Front::Tcp {
            let config = NetServerConfig {
                workers: 2,
                ..NetServerConfig::default()
            };
            let handle = NetServer::start(db, vec![TenantSpec::new(TENANT, TOKEN)], config)?;
            let client = NetClient::connect(handle.addr(), TENANT, TOKEN)?;
            FrontEnd::Net { handle, client }
        } else {
            FrontEnd::Session(Box::new(db))
        };
        Ok(Deployment {
            server,
            reader,
            front,
            dir,
            master_key,
            seed,
            load_s,
        })
    }

    /// The client's one call: send a statement, wait for its result.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        match &mut self.front {
            FrontEnd::Session(db) => db.execute(sql),
            FrontEnd::Net { client, .. } => client.execute(sql),
        }
    }

    /// Whether the client is on the far side of a socket.
    pub fn over_tcp(&self) -> bool {
        matches!(self.front, FrontEnd::Net { .. })
    }

    /// Deploys the traced pass's twin tables beside the real ones.
    pub fn load_twins(&mut self, twins: &[TableData]) -> Result<(), DbError> {
        match &mut self.front {
            FrontEnd::Session(db) => load(db, twins).map(drop),
            FrontEnd::Net { .. } if twins.is_empty() => Ok(()),
            FrontEnd::Net { .. } => Err(DbError::Net("no twin tables behind the server".into())),
        }
    }

    /// Σ `column_storage_size` over every column of `tables`.
    pub fn stored_bytes(&self, tables: &[TableData]) -> Result<u64, DbError> {
        let mut total = 0u64;
        for t in tables {
            for c in &t.schema.columns {
                total += self.server.column_storage_size(&t.schema.name, &c.name)? as u64;
            }
        }
        Ok(total)
    }

    /// The durable directory, where there is one.
    pub fn durable_dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Stops the instance: client goodbye, server shutdown (joins every
    /// thread it started), background work drained.
    pub fn stop(self) -> Result<Stopped, DbError> {
        let session = match self.front {
            FrontEnd::Session(db) => {
                db.server().drain_background_work()?;
                *db
            }
            FrontEnd::Net { handle, client } => {
                client.close();
                handle.shutdown()?
            }
        };
        drop(session);
        Ok(Stopped {
            dir: self.dir,
            master_key: self.master_key,
            seed: self.seed,
        })
    }
}

/// What is left of a stopped instance: its files and the owner's key.
pub struct Stopped {
    dir: Option<PathBuf>,
    master_key: encdbdb_crypto::Key128,
    seed: u64,
}

impl Stopped {
    /// Restarts from disk (`Session::open`) and runs the plan's
    /// whole-table statement: every acknowledged write must be there.
    /// Returns `(verified, seconds spent in recovery)`; instances without
    /// durable storage verify trivially.
    pub fn reopen_and_verify(&self, plan: &Plan) -> Result<(bool, f64), DbError> {
        let (Some(dir), Some((sql, expect))) = (&self.dir, &plan.final_check) else {
            return Ok((true, 0.0));
        };
        let t0 = Instant::now();
        let mut db = Session::open(dir, self.master_key.clone(), self.seed.wrapping_add(1))?;
        let recover_s = t0.elapsed().as_secs_f64();
        let ok = digest(&db.execute(sql)?.rows) == *expect;
        db.server().drain_background_work()?;
        Ok((ok, recover_s))
    }

    /// Removes the instance's files.
    pub fn discard(self) {
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Whether the program's reply is the oracle's.
pub fn correct(reply: &Result<QueryResult, DbError>, op: &Op) -> bool {
    matches!(reply, Ok(r) if digest(&r.rows) == op.expect)
}

/// Raw outcome of one pass over a plan's op stream.
#[derive(Debug, Default)]
pub struct Pass {
    /// Latency of each measured op, ns, in stream order.
    pub lat_ns: Vec<u64>,
    /// Class of each measured op.
    pub classes: Vec<usize>,
    /// Ops attempted, warm-up included (every op is checked).
    pub attempted: u64,
    /// Ops whose reply was an error, `BUSY` or not the oracle's.
    pub failed: u64,
}

/// Counter snapshots bracketing the measured part of a pass.
pub struct Counters {
    /// ECALL ledger totals.
    pub ledger: LedgerReport,
    /// Metrics registry.
    pub metrics: MetricsReport,
}

impl Counters {
    /// Reads the program's public counters now.
    pub fn read(server: &DbaasServer) -> Self {
        Counters {
            ledger: server.obs().ledger_report(),
            metrics: server.obs().metrics_report(),
        }
    }
}

/// Runs `ops` through `call` in a closed loop: the next statement is sent
/// only when the previous reply has been checked. The first `warmup` ops
/// are executed and checked but not timed; `at_warm` fires once between
/// warm-up and the measured stream (counter snapshots).
pub fn run_pass(
    ops: &[Op],
    warmup: usize,
    mut call: impl FnMut(usize, &Op) -> (Result<QueryResult, DbError>, u64),
    mut at_warm: impl FnMut(),
) -> Pass {
    let mut pass = Pass::default();
    pass.lat_ns.reserve(ops.len().saturating_sub(warmup));
    pass.classes.reserve(ops.len().saturating_sub(warmup));
    for (i, op) in ops.iter().enumerate() {
        if i == warmup {
            at_warm();
        }
        let (reply, ns) = call(i, op);
        pass.attempted += 1;
        pass.failed += u64::from(!correct(&reply, op));
        if i >= warmup {
            pass.lat_ns.push(ns);
            pass.classes.push(op.class);
        }
    }
    pass
}

/// The untraced call: one timer around the client's `execute`.
pub fn timed_execute(dep: &mut Deployment, op: &Op) -> (Result<QueryResult, DbError>, u64) {
    let t0 = Instant::now();
    let reply = dep.execute(std::hint::black_box(&op.sql));
    let ns = t0.elapsed().as_nanos() as u64;
    (std::hint::black_box(reply), ns)
}

/// Query-path enclave transitions between two snapshots: one per ledger
/// record of a query-path kind, a coalesced `Batch` round counting once.
pub fn query_path_transitions(before: &Counters, after: &Counters) -> u64 {
    let delta = after.ledger.since(&before.ledger);
    QUERY_PATH_KINDS.iter().map(|&k| delta.kind(k).calls).sum()
}

/// Query-path enclave *calls* between two snapshots: every transition,
/// plus the calls that rode along in a coalesced round. With one client
/// only a partitioned table's shard scans (scoped threads) ever coalesce,
/// and how often they do depends on thread timing — sizing saw 3.89 and
/// 4.23 transitions per op on the same `analytic_ed5` stream minutes
/// apart — so the gated `ecalls_per_op` counts calls, which repeat
/// exactly, and the transitions are the per-layer
/// `scheduler.transitions_per_op` (a batching gain or loss shows there and
/// in `scheduler.batch_occupancy_mean`).
///
/// The two registry counters are bumped only by the scheduler's coalesced
/// rounds (`Obs::ecall_batched` with more than one sub-call), and the
/// scheduler carries read-path calls only — Search, Aggregate, JoinBridge;
/// `Merge` and `Reencrypt` go through `Obs::ecall` with a batch of one —
/// so nothing off the query path is counted.
pub fn query_path_calls(before: &Counters, after: &Counters) -> u64 {
    let count = |name: &str| after.metrics.counter(name) - before.metrics.counter(name);
    query_path_transitions(before, after) + count("batched_calls_total")
        - count("ecall_batches_total")
}

/// The end-to-end numbers of one run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median of the set-ups made.
    pub setup_s: f64,
    /// Segment-median op timings.
    pub ops: Summary,
    /// Query-path enclave calls ÷ measured ops.
    pub ecalls_per_op: f64,
    /// Stored bytes ÷ plaintext value bytes of live rows.
    pub stored_bytes_per_user_byte: f64,
}

/// Fresh set-ups made per run. `setup_s` is their median and the last one
/// is measured on. Five, not three: a single set-up strays by 10–45 % about
/// one time in five, and a median of five shrugs off two strays for at
/// most 1.3 s a run (README, "How the bounds were chosen").
pub const SETUPS: usize = 5;

/// The whole untraced run of one workload: repeated fresh set-ups, the
/// measured pass, storage accounting, and (durable front) the restart
/// check. Returns the metrics and the pass.
pub fn run_untraced(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    scratch: &Path,
) -> Result<(EndToEnd, Pass), DbError> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut dep = loop {
        let t0 = Instant::now();
        let dep = Deployment::setup(spec, plan, seed, scratch)?;
        setups.push(t0.elapsed().as_secs_f64());
        if setups.len() == SETUPS {
            break dep;
        }
        dep.stop()?.discard();
    };

    let mut before = None;
    let server = dep.server.clone();
    let mut pass = run_pass(
        &plan.ops,
        plan.warmup,
        |_, op| timed_execute(&mut dep, op),
        || before = Some(Counters::read(&server)),
    );
    let after = Counters::read(&server);
    let ecalls = query_path_calls(&before.expect("stream longer than warm-up"), &after);

    server.drain_background_work()?;
    let stored = dep.stored_bytes(&plan.tables)?;
    let stopped = dep.stop()?;
    let (verified, _) = stopped.reopen_and_verify(plan)?;
    stopped.discard();
    if !verified {
        // An acknowledged write is missing after restart: nothing this run
        // reported can be trusted.
        pass.failed = pass.attempted;
    }
    let measured = pass.lat_ns.len() as f64;
    Ok((
        EndToEnd {
            setup_s: crate::stats::median(&setups),
            ops: summarize(&pass.lat_ns),
            ecalls_per_op: ecalls as f64 / measured,
            stored_bytes_per_user_byte: stored as f64 / plan.user_bytes as f64,
        },
        pass,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "encdbdb-benchmark-test-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every workload but the 2M-row one, at a few hundred ops, end to end
    /// against the real program: no op may fail, the counters must move.
    #[test]
    fn small_runs_are_correct_on_every_front() {
        for (name, ops) in [
            ("range_ed9", 40),
            ("analytic_ed5", 80),
            ("tcp_point", 400),
            ("ingest_durable", 2_000),
        ] {
            let spec = by_name(name).unwrap();
            let plan = spec.generate(11, ops, false);
            let dir = scratch(name);
            let (e2e, pass) = run_untraced(spec, &plan, 11, &dir).unwrap();
            assert_eq!(pass.failed, 0, "{name}");
            assert_eq!(pass.attempted as usize, plan.ops.len(), "{name}");
            assert_eq!(pass.lat_ns.len(), ops, "{name}");
            assert!(e2e.ecalls_per_op > 0.0 && e2e.ops.ops_per_s > 0.0, "{name}");
            assert!(e2e.stored_bytes_per_user_byte > 0.1, "{name}");
            assert!(e2e.setup_s > 0.0, "{name}");
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A wrong digest, an error and a short result are all failed ops; a
    /// lost durable write fails the whole run.
    #[test]
    fn oracle_mismatches_and_lost_writes_are_failures() {
        let spec = by_name("ingest_durable").unwrap();
        let mut plan = spec.generate(5, 200, false);
        // Op 3 is an INSERT whose reply is judged wrong (the row still goes
        // in); op 6 is a point SELECT turned into a statement that errors.
        plan.ops[3].expect.checksum ^= 1;
        plan.ops[6].sql = "SELECT nope FROM ev".into();
        let dir = scratch("mismatch");
        let (_, pass) = run_untraced(spec, &plan, 5, &dir).unwrap();
        assert_eq!(pass.failed, 2);

        // The restart check expects one row more than was ever written.
        let mut plan = spec.generate(5, 200, false);
        plan.final_check.as_mut().unwrap().1.rows += 1;
        let (_, pass) = run_untraced(spec, &plan, 5, &dir).unwrap();
        assert_eq!(pass.failed, pass.attempted);
        let _ = std::fs::remove_dir_all(dir);
    }
}
