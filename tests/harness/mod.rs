//! One differential harness over the full execution-mode matrix: a single
//! op stream, drawn by `workload::ScheduleGen` from a proptest seed, runs
//! through every cell of
//!
//! {in-process, TCP} × {batched, bypass} × {volatile, durable} ×
//! {1, 4 shards} × {ED1 … ED9, PLAIN}
//!
//! and every read in every cell is checked against a plaintext model read
//! through the MonetDB baseline (`MonetColumn`'s linear range scan; joins
//! as a nested loop).
//!
//! The ten kinds of one {front} × {exec} × {storage} × {shards} mode share
//! a deployment: each kind has its own two tables, `t_<kind>` and
//! `u_<kind>` (column `v`), and every op runs on every kind before the
//! next op starts. The TCP front serves a tenant, so both fronts address
//! the same namespaced physical tables. Op `i` goes to the `t` tables when
//! `i` is even and to the `u` tables when it is odd.
//!
//! * `Insert` / `Delete` write, then quiesce with `wait_for_compaction`, so
//!   a threshold merge of the default policy lands at the same op index in
//!   every cell. A delete's count is checked.
//! * `RangeRead` takes one of four shapes by `(i / 2) % 4`: `BETWEEN`, a
//!   point `=`, an `IN` list, and `DISTINCT … WHERE v >= … ORDER BY 1
//!   LIMIT 5`.
//! * `AggRead` checks `COUNT(*), SUM(v)` over its range, then the
//!   unfiltered equi-join `t ⋈ u`: its rows, exactly one `JoinBridge`
//!   ECALL (none for PLAIN keys or an empty side), and decrypts bounded by
//!   the rows joined.
//! * `Compact` merges every table; in a durable mode every other one (the
//!   first, third, …) instead drops the whole deployment — enclaves, keys,
//!   every in-memory table — and recovers it with `Session::open`.
//!
//! Reads also check their span tree: the layers it folds into sum to the
//! query's duration, and `QueryStats`' times are those layers — at each op
//! for one kind in turn, and for every kind's final join. Every table's
//! row count is checked after every op. A durable mode restarts
//! once more at the end; then every table's contents and every join are
//! checked a last time.
//!
//! Ledger equality holds where the design promises it: a serial client
//! never shares a transition, and the wire adds none. Each statement's
//! ECALLs (and the merges its write triggered) are charged to its kind, a
//! restart's to recovery; within each (storage, shards) the four {front} ×
//! {exec} modes must record identical per-kind ledgers, summed over
//! restarts, equal `ecalls_total` and no `Batch` call.
//!
//! [`check_modes`] is the one runner; each (storage, shards) quadrant's
//! generated streams are split over the proptests that call it, and every
//! one of them runs its quadrant's whole {front} × {exec} × kind block:
//!
//! * volatile, 1 shard — ten streams:
//!   `dynamic_differential::interleavings_match_the_plaintext_model` (4),
//!   `batching_differential::interleavings_batched_equals_bypass` (2),
//!   `join_exec::interleaved_join_schedules_match_the_baseline` (2),
//!   `net_differential::tcp_and_in_process_agree_for_every_kind` (2);
//! * volatile, 4 shards — ten streams:
//!   `dynamic_differential::partitioned_interleavings_match_the_plaintext_model`
//!   (5), `join_exec::interleaved_sharded_join_schedules_match_the_baseline`
//!   (5);
//! * durable, 1 and 4 shards — two streams each:
//!   `differential::{durable_single_shard_cells_survive_restarts,
//!   durable_four_shard_cells_survive_restarts}`.
//!
//! The proptest shim seeds each property from its name, so the streams of
//! one quadrant differ from test to test.

use colstore::column::Column;
use colstore::monetdb::MonetColumn;
use encdbdb::net::tenant_table_name;
use encdbdb::obs::{Layer, LayerTimes};
use encdbdb::{
    DbaasServer, LedgerReport, NetClient, NetServer, NetServerConfig, NetServerHandle, QueryResult,
    Session, TenantSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use workload::{Op, ScheduleGen, ScheduleSpec, KINDS};

const TENANT: &str = "acme";
const TOKEN: &str = "tok-acme";

/// Split points inside the 0..60 value domain: rows land on them exactly
/// and ranges straddle them.
const SPLITS: &str = "'0015', '0030', '0045'";

fn stream(seed: u64) -> Vec<Op> {
    let spec = ScheduleSpec {
        ops: 20,
        domain: 60,
        ..ScheduleSpec::default()
    };
    ScheduleGen::new(spec).generate(&mut StdRng::seed_from_u64(seed))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    InProcess,
    Tcp,
}

/// The kind-independent axes of a cell.
#[derive(Debug, Clone, Copy)]
struct Mode {
    front: Front,
    batched: bool,
    durable: bool,
    sharded: bool,
}

/// `calls`, `bytes_in`, `bytes_out`, `values_decrypted`, `untrusted_loads`
/// and `untrusted_bytes` per (kind or `"recovery"`, ECALL kind), summed
/// over every incarnation of a deployment, plus its `ecalls_total`.
#[derive(Debug, Default)]
struct Ledger {
    fields: BTreeMap<(&'static str, &'static str), [u64; 6]>,
    ecalls_total: u64,
}

impl Ledger {
    fn charge(&mut self, owner: &'static str, delta: &LedgerReport) {
        for k in &delta.kinds {
            let fields = [
                k.calls,
                k.bytes_in,
                k.bytes_out,
                k.values_decrypted,
                k.untrusted_loads,
                k.untrusted_bytes,
            ];
            if fields != [0; 6] {
                let acc = self.fields.entry((owner, k.kind.name())).or_default();
                for (a, f) in acc.iter_mut().zip(fields) {
                    *a += f;
                }
            }
        }
    }

    fn of(&self, owner: &str) -> Vec<(&'static str, [u64; 6])> {
        let rows = self.fields.iter().filter(|((o, _), _)| *o == owner);
        rows.map(|((_, ecall), f)| (*ecall, *f)).collect()
    }
}

/// A deployment's front: the session reached in-process, or served over
/// loopback TCP to one tenant connection.
enum Conn {
    InProcess(Session),
    Tcp {
        handle: NetServerHandle,
        client: NetClient,
        requests: u64,
    },
}

struct Deployment {
    mode: Mode,
    seed: u64,
    dir: PathBuf,
    conn: Option<Conn>,
    /// The server behind either front: quiescing, merges, row counts,
    /// stats, the trace ring and the ledger.
    server: DbaasServer,
    restarts: u64,
    ledger: Ledger,
}

/// A fresh per-deployment storage directory.
fn storage_dir() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "encdbdb-differential-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tenant-relative name of `kind`'s `t` (side 0) or `u` (side 1) table.
fn bare(kind: &str, side: usize) -> String {
    format!("{}_{}", ["t", "u"][side], kind.to_lowercase())
}

/// The server-side name of the same table.
fn physical(kind: &str, side: usize) -> String {
    tenant_table_name(TENANT, &bare(kind, side))
}

impl Deployment {
    fn create(mode: Mode, seed: u64) -> Self {
        let dir = storage_dir();
        let session = if mode.durable {
            Session::with_seed_durable(seed, &dir).expect("durable session")
        } else {
            Session::with_seed(seed).expect("session")
        };
        let (conn, server) = Self::boot(mode, session);
        let mut dep = Deployment {
            mode,
            seed,
            dir,
            conn: Some(conn),
            server,
            restarts: 0,
            ledger: Ledger::default(),
        };
        let partitioning = if mode.sharded {
            format!(" PARTITION BY RANGE (v) SPLIT ({SPLITS})")
        } else {
            String::new()
        };
        for kind in KINDS {
            for side in 0..2 {
                let name = dep.table(kind, side);
                dep.execute(
                    kind,
                    &format!("CREATE TABLE {name} (v {kind}(8)){partitioning}"),
                );
            }
        }
        dep
    }

    fn boot(mode: Mode, session: Session) -> (Conn, DbaasServer) {
        let server = session.server().clone();
        assert!(server.ecall_batching(), "batching is the default");
        server.set_ecall_batching(mode.batched);
        let conn = match mode.front {
            Front::InProcess => Conn::InProcess(session),
            Front::Tcp => {
                let mut tenant = TenantSpec::new(TENANT, TOKEN);
                tenant.max_tables = 2 * KINDS.len();
                let config = NetServerConfig {
                    workers: 1,
                    poll_interval_ms: 5,
                    ..NetServerConfig::default()
                };
                let handle = NetServer::start(session, vec![tenant], config).expect("server start");
                let client = NetClient::connect(handle.addr(), TENANT, TOKEN).expect("connect");
                Conn::Tcp {
                    handle,
                    client,
                    requests: 0,
                }
            }
        };
        (conn, server)
    }

    /// The SQL name of a table: bare over TCP (the server namespaces it),
    /// already namespaced in-process.
    fn table(&self, kind: &str, side: usize) -> String {
        match self.mode.front {
            Front::InProcess => physical(kind, side),
            Front::Tcp => bare(kind, side),
        }
    }

    /// Runs one statement on `kind`'s tables and charges its ECALLs to
    /// `kind` — after a write, with those of any threshold merge it
    /// triggered, waited out so the merge lands at this op in every cell.
    fn execute(&mut self, kind: &'static str, sql: &str) -> QueryResult {
        let before = self.server.obs().ledger_report();
        let result = match self.conn.as_mut().expect("a live deployment") {
            Conn::InProcess(session) => session.execute(sql),
            Conn::Tcp {
                client, requests, ..
            } => {
                *requests += 1;
                client.execute(sql)
            }
        };
        let result = result.unwrap_or_else(|e| panic!("{:?}: {sql:?} failed: {e}", self.mode));
        if sql.starts_with("INSERT") || sql.starts_with("DELETE") {
            for side in 0..2 {
                let table = physical(kind, side);
                self.server.wait_for_compaction(&table).expect("quiesce");
            }
        }
        let delta = self.server.obs().ledger_report().since(&before);
        self.ledger.charge(kind, &delta);
        result
    }

    fn merge(&mut self, kind: &'static str) {
        let before = self.server.obs().ledger_report();
        for side in 0..2 {
            self.server
                .merge_table(&physical(kind, side))
                .expect("merge");
        }
        let delta = self.server.obs().ledger_report().since(&before);
        self.ledger.charge(kind, &delta);
    }

    /// Stops the current incarnation; over TCP, checks its network
    /// counters saw exactly this client.
    fn retire(&mut self) -> Result<Session, TestCaseError> {
        let session = match self.conn.take().expect("a live deployment") {
            Conn::InProcess(session) => session,
            Conn::Tcp {
                handle,
                client,
                requests,
            } => {
                client.close();
                let session = handle.shutdown().expect("shutdown");
                let m = session.metrics_report();
                let at = format!("{:?} seed {:#x}", self.mode, self.seed);
                prop_assert_eq!(m.counter("net_requests_total"), requests, "{}", at);
                prop_assert_eq!(m.counter("net_connections_accepted_total"), 1, "{}", at);
                prop_assert_eq!(m.counter("net_auth_failures_total"), 0, "{}", at);
                prop_assert_eq!(m.counter("net_busy_replies_total"), 0, "{}", at);
                prop_assert!(m.counter("net_bytes_in_total") > 0, "{}", at);
                prop_assert!(m.counter("net_bytes_out_total") > 0, "{}", at);
                session
            }
        };
        self.ledger.ecalls_total += session.metrics_report().counter("ecalls_total");
        Ok(session)
    }

    /// Drops the whole deployment and recovers it from disk.
    fn restart(&mut self) -> Result<(), TestCaseError> {
        let session = self.retire()?;
        let key = session.master_key();
        drop(session);
        self.restarts += 1;
        let seed = self.seed.wrapping_add(1000 * self.restarts);
        let session = Session::open(&self.dir, key, seed).expect("recover from disk");
        self.ledger.charge("recovery", &session.leakage_ledger());
        let (conn, server) = Self::boot(self.mode, session);
        (self.conn, self.server) = (Some(conn), server);
        Ok(())
    }

    fn finish(mut self) -> Result<Ledger, TestCaseError> {
        drop(self.retire()?);
        let _ = std::fs::remove_dir_all(&self.dir);
        Ok(self.ledger)
    }

    /// Checks the newest query's span tree: its layers sum to the root's
    /// duration, `last_stats`' times are those layers, and the layers a
    /// single-table read crosses are non-zero (over TCP the net worker
    /// parses, outside the query's tree).
    fn check_layers(&self, at: &str, single_table: bool) -> Result<(), TestCaseError> {
        let events = self.server.obs().trace_events();
        let root = events
            .iter()
            .filter(|e| e.name == "query" && e.parent == 0)
            .max_by_key(|e| e.id)
            .expect("a query root in the ring");
        let t = LayerTimes::of_tree(&events, root.id).expect("the root's tree");
        prop_assert_eq!(t.total(), root.dur_ns, "{}: layers sum to the query", at);
        let s = self.server.last_stats();
        for (layer, ns) in [
            (Layer::SchedWait, s.ecall_wait_ns),
            (Layer::DictSearch, s.dict_search_ns),
            (Layer::AvScan, s.av_search_ns),
            (Layer::Aggregate, s.aggregate_ns),
            (Layer::Bridge, s.bridge_ns),
            (Layer::Render, s.render_ns),
        ] {
            prop_assert_eq!(t.get(layer), ns, "{}: {:?} vs QueryStats", at, layer);
        }
        if single_table {
            let parse = (self.mode.front == Front::InProcess).then_some(Layer::Parse);
            for layer in [Layer::Plan, Layer::Snapshot, Layer::Fanout]
                .into_iter()
                .chain(parse)
            {
                prop_assert!(t.get(layer) > 0, "{}: {:?} untimed", at, layer);
            }
        }
        Ok(())
    }

    /// `kind`'s unfiltered equi-join `t ⋈ u` against the nested-loop
    /// baseline.
    fn check_join(
        &mut self,
        kind: &'static str,
        model: &[Vec<String>; 2],
        at: &str,
    ) -> Result<(), TestCaseError> {
        let (t, u) = (self.table(kind, 0), self.table(kind, 1));
        let r = self.execute(
            kind,
            &format!("SELECT {t}.v, {u}.v FROM {t} JOIN {u} ON {t}.v = {u}.v"),
        );
        let columns: Vec<String> = r
            .columns
            .iter()
            .map(|c| c.replace(&format!("{TENANT}__"), ""))
            .collect();
        let want = [0, 1].map(|side| format!("{}.v", bare(kind, side)));
        prop_assert_eq!(columns, want, "{}: join columns", at);
        let mut want = Vec::new();
        for l in &model[0] {
            for r in &model[1] {
                if l == r {
                    want.push(vec![l.clone(), r.clone()]);
                }
            }
        }
        want.sort();
        prop_assert_eq!(sorted_rows(&r), want, "{}: join vs baseline", at);
        let stats = self.server.last_stats();
        // Unfiltered, so no search ECALL fires: the count is the bridge
        // alone, or zero for PLAIN keys and an empty side.
        let bridged = !model[0].is_empty() && !model[1].is_empty() && kind != "PLAIN";
        prop_assert_eq!(
            stats.enclave_calls,
            usize::from(bridged),
            "{}: one JoinBridge ECALL",
            at
        );
        prop_assert!(
            stats.values_decrypted <= model[0].len() + model[1].len(),
            "{}: decrypts bounded by the rows joined",
            at
        );
        Ok(())
    }
}

/// The values of `rows` in `[lo, hi]`, via the MonetDB baseline's linear
/// range scan, sorted.
fn baseline(rows: &[String], lo: &str, hi: &str) -> Vec<String> {
    if rows.is_empty() {
        return Vec::new();
    }
    let column = Column::from_strs("v", 8, rows.iter()).expect("model values fit");
    let monet = MonetColumn::ingest(&column);
    let mut out: Vec<String> = monet
        .range_search_inclusive(lo.as_bytes(), hi.as_bytes())
        .into_iter()
        .map(|rid| String::from_utf8_lossy(monet.value(rid)).into_owned())
        .collect();
    out.sort();
    out
}

fn sorted_rows(r: &QueryResult) -> Vec<Vec<String>> {
    let mut rows = r.rows_as_strings();
    rows.sort();
    rows
}

/// One range read's SQL and the baseline's answer, in the shape `shape`
/// picks; whether the answer's order is part of it.
fn read_shape(
    shape: usize,
    table: &str,
    rows: &[String],
    lo: &str,
    hi: &str,
) -> (String, Vec<String>, bool) {
    let select = format!("SELECT v FROM {table} WHERE v");
    match shape {
        0 => (
            format!("{select} BETWEEN '{lo}' AND '{hi}'"),
            baseline(rows, lo, hi),
            false,
        ),
        1 => (format!("{select} = '{lo}'"), baseline(rows, lo, lo), false),
        2 => {
            let mut want = baseline(rows, lo, lo);
            if hi != lo {
                want.extend(baseline(rows, hi, hi));
            }
            want.sort();
            (format!("{select} IN ('{lo}', '{hi}')"), want, false)
        }
        _ => {
            let mut want = baseline(rows, lo, "9999");
            want.dedup();
            want.truncate(5);
            let sql =
                format!("SELECT DISTINCT v FROM {table} WHERE v >= '{lo}' ORDER BY 1 LIMIT 5");
            (sql, want, true)
        }
    }
}

/// Runs the stream through one mode's ten cells, checking every read
/// against the baseline; returns the deployment's ledger.
fn run_mode(mode: Mode, seed: u64, ops: &[Op]) -> Result<Ledger, TestCaseError> {
    let mut dep = Deployment::create(mode, seed);
    let mut model: [Vec<String>; 2] = Default::default();
    let mut compacts = 0;
    for (i, op) in ops.iter().enumerate() {
        let side = i % 2;
        if let Op::Compact = op {
            compacts += 1;
            if mode.durable && compacts % 2 == 1 {
                dep.restart()?;
            } else {
                KINDS.iter().for_each(|kind| dep.merge(kind));
            }
        }
        for kind in KINDS {
            let (name, rows) = (dep.table(kind, side), &model[side]);
            let at = format!("{kind} {mode:?} seed {seed:#x} step {i} {op:?}");
            // Copying the trace ring is the dearest check: one kind per op,
            // in turn, has its span trees checked.
            let probe = kind == KINDS[i % KINDS.len()];
            match op {
                Op::Insert { value } => {
                    dep.execute(kind, &format!("INSERT INTO {name} VALUES ('{value}')"));
                }
                Op::Delete { lo, hi } => {
                    let r = dep.execute(
                        kind,
                        &format!("DELETE FROM {name} WHERE v BETWEEN '{lo}' AND '{hi}'"),
                    );
                    let count = baseline(rows, lo, hi).len().to_string();
                    let got = r.rows_as_strings();
                    prop_assert_eq!(got, vec![vec![count]], "{}: delete count", at);
                }
                Op::RangeRead { lo, hi } => {
                    let (sql, want, ordered) = read_shape((i / 2) % 4, &name, rows, lo, hi);
                    let r = dep.execute(kind, &sql);
                    prop_assert_eq!(&r.columns, &["v"], "{}: columns", at);
                    let rows = r.rows_as_strings().into_iter();
                    let mut got: Vec<String> = rows.map(|mut row| row.remove(0)).collect();
                    if !ordered {
                        got.sort();
                    }
                    prop_assert_eq!(got, want, "{}: {}", at, sql);
                    if probe {
                        dep.check_layers(&at, true)?;
                    }
                }
                Op::AggRead { lo, hi } => {
                    let r = dep.execute(
                        kind,
                        &format!(
                            "SELECT COUNT(*), SUM(v) FROM {name} WHERE v BETWEEN '{lo}' AND '{hi}'"
                        ),
                    );
                    let hit = baseline(rows, lo, hi);
                    let sum = if hit.is_empty() {
                        String::new()
                    } else {
                        let values = hit.iter().map(|v| v.parse::<u64>().expect("numeric"));
                        values.sum::<u64>().to_string()
                    };
                    let want = vec![vec![hit.len().to_string(), sum]];
                    prop_assert_eq!(&r.columns, &["count", "sum(v)"], "{}: columns", at);
                    prop_assert_eq!(r.rows_as_strings(), want, "{}: COUNT/SUM", at);
                    if probe {
                        dep.check_layers(&at, true)?;
                    }
                    dep.check_join(kind, &model, &at)?;
                    if probe {
                        dep.check_layers(&at, false)?;
                    }
                }
                Op::Compact => {}
            }
        }
        match op {
            Op::Insert { value } => model[side].push(value.clone()),
            Op::Delete { lo, hi } => model[side].retain(|v| v < lo || v > hi),
            _ => {}
        }
        for kind in KINDS {
            for (side, rows) in model.iter().enumerate() {
                let table = physical(kind, side);
                let count = dep.server.row_count(&table).expect("row count");
                let at = format!("{kind} {mode:?} seed {seed:#x} step {i} {op:?}");
                prop_assert_eq!(count, rows.len(), "{}: {} row count", at, table);
            }
        }
    }

    // A durable mode ends with one more restart, so the recovered server —
    // not just the original one — holds the final answer.
    if mode.durable {
        dep.restart()?;
    }
    for kind in KINDS {
        let at = format!("{kind} {mode:?} seed {seed:#x} final");
        for (side, rows) in model.iter().enumerate() {
            let name = dep.table(kind, side);
            let got = sorted_rows(&dep.execute(kind, &format!("SELECT v FROM {name}")));
            let mut want: Vec<Vec<String>> = rows.iter().map(|v| vec![v.clone()]).collect();
            want.sort();
            prop_assert_eq!(got, want, "{}: {} contents", at, name);
        }
        dep.check_join(kind, &model, &at)?;
        dep.check_layers(&at, false)?;
    }
    dep.finish()
}

/// Runs one stream through the four {front} × {exec} modes at the given
/// storage and shard count, and checks their ledgers against the
/// in-process bypass, kind by kind.
///
/// A serial client never shares a round and the wire adds none, so every
/// ledger equals the reference exactly and none has a `Batch` call —
/// except a batched mode over four shards: a partition-parallel fan-out
/// may coalesce its own partitions' calls (DESIGN.md §15.3). Its payload
/// bytes stay exact; its calls, decrypts and loads only narrow.
pub fn check_modes(durable: bool, sharded: bool, seed: u64) -> Result<(), TestCaseError> {
    let ops = stream(seed);
    let mut reference: Option<Ledger> = None;
    for front in [Front::InProcess, Front::Tcp] {
        for batched in [false, true] {
            let mode = Mode {
                front,
                batched,
                durable,
                sharded,
            };
            let at = format!("{mode:?} seed {seed:#x}");
            let ledger = run_mode(mode, seed, &ops)?;
            let calls: u64 = ledger.fields.values().map(|f| f[0]).sum();
            prop_assert_eq!(ledger.ecalls_total, calls, "{}: registry vs ledger", at);
            // DESIGN.md §13.3: a PLAIN column never enters the enclave —
            // not to insert, delete, merge, aggregate or join.
            let plain = ledger.of("PLAIN");
            prop_assert!(plain.is_empty(), "{}: PLAIN made ECALLs: {:?}", at, plain);
            let Some(want) = &reference else {
                let shared = ledger.fields.keys().find(|(_, ecall)| *ecall == "batch");
                prop_assert!(shared.is_none(), "{}: a round was shared: {:?}", at, shared);
                reference = Some(ledger);
                continue;
            };
            for owner in KINDS.into_iter().chain(["recovery"]) {
                let (got, want) = (ledger.of(owner), want.of(owner));
                if !(sharded && batched) {
                    prop_assert_eq!(got, want, "{}: {} ledger", at, owner);
                    continue;
                }
                let sum = |rows: Vec<(&str, [u64; 6])>| {
                    rows.iter()
                        .fold([0; 6], |acc, (_, f)| std::array::from_fn(|i| acc[i] + f[i]))
                };
                let (got, want) = (sum(got), sum(want));
                prop_assert_eq!(&got[1..3], &want[1..3], "{}: {} payload bytes", at, owner);
                prop_assert!(
                    got.iter().zip(want).all(|(g, w)| *g <= w),
                    "{}: {} ledger {:?} widens {:?}",
                    at,
                    owner,
                    got,
                    want
                );
            }
        }
    }
    Ok(())
}
