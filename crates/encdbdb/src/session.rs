//! An in-process EncDBDB deployment: owner + proxy + server + enclave.
//!
//! [`Session`] wires the paper's architecture (Fig. 2) into a single handle
//! for examples, tests and benchmarks: the data owner generates `SK_DB`,
//! attests and provisions the server's enclaves, hands the key to the
//! trusted proxy, and applications issue SQL through the session.
//!
//! The server behind a session is shared state (DESIGN.md §9):
//! [`Session::reader`] forks any number of [`ReaderSession`]s that execute
//! queries concurrently — each against a consistent main-store snapshot —
//! while inserts land in the delta stores and background compactions
//! publish rebuilt epochs.

use crate::error::DbError;
use crate::owner::DataOwner;
use crate::proxy::{Proxy, QueryResult};
use crate::schema::TableSchema;
use crate::server::{CompactionPolicy, DbaasServer, DurabilityPolicy};
use colstore::table::Table;
use encdbdb_crypto::keys::Key128;
use encdict::enclave_ops::DictLogic;
use encdict::DictEnclave;
use enclave_sim::attestation::Measurement;
use enclave_sim::attestation::SigningPlatform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// A complete in-process EncDBDB deployment.
#[derive(Debug)]
pub struct Session {
    owner: DataOwner,
    proxy: Proxy,
    server: DbaasServer,
    rng: StdRng,
}

impl Session {
    /// Builds a deployment with a seeded RNG: key generation, enclave
    /// attestation (against the default development platform) and key
    /// provisioning happen here, mirroring Fig. 5 steps 1–2. Both enclave
    /// instances — the query-path one and the compaction one — are
    /// attested and provisioned.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Enclave`] if attestation or provisioning fails.
    pub fn with_seed(seed: u64) -> Result<Self, DbError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let owner = DataOwner::generate(&mut rng);
        let server = DbaasServer::with_enclaves(
            DictEnclave::with_seed(seed.wrapping_add(1)),
            DictEnclave::with_seed(seed.wrapping_add(0x9E37_79B9)),
        );
        let service = SigningPlatform::default().verification_service();
        let expected = Measurement::of(Self::enclave_code_identity());
        owner.provision(&server, &service, expected, &mut rng)?;
        let proxy = Proxy::new(owner.master_key());
        Ok(Session {
            owner,
            proxy,
            server,
            rng,
        })
    }

    /// [`Session::with_seed`] plus durable storage under `dir` (DESIGN.md
    /// §12): every deploy, insert, delete and epoch publish from here on
    /// is persisted, and the deployment can be reopened after a crash with
    /// [`Session::open`].
    ///
    /// # Errors
    ///
    /// As [`Session::with_seed`], plus [`DbError::Durability`] if the
    /// storage directory cannot be initialized.
    pub fn with_seed_durable(seed: u64, dir: impl AsRef<Path>) -> Result<Self, DbError> {
        let db = Self::with_seed(seed)?;
        db.server
            .attach_durability(dir, DurabilityPolicy::default())?;
        Ok(db)
    }

    /// Reopens a durable deployment from its storage directory after a
    /// restart or crash: fresh enclaves are attested and re-provisioned by
    /// the data owner (restored from `master_key` — zero re-deployment of
    /// data), then the server recovers every table from its sealed
    /// snapshots and WAL.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::Enclave`] if re-attestation fails and
    /// [`DbError::Durability`] if the on-disk state is unusable.
    pub fn open(dir: impl AsRef<Path>, master_key: Key128, seed: u64) -> Result<Self, DbError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let owner = DataOwner::from_key(master_key);
        let server = DbaasServer::with_enclaves(
            DictEnclave::with_seed(seed.wrapping_add(1)),
            DictEnclave::with_seed(seed.wrapping_add(0x9E37_79B9)),
        );
        let service = SigningPlatform::default().verification_service();
        let expected = Measurement::of(Self::enclave_code_identity());
        // Provision before recovery: unsealing needs no key, but replaying
        // a logged merge rebuilds dictionaries inside the merge enclave.
        owner.reattach(&server, &service, expected, &mut rng)?;
        server.recover(dir, DurabilityPolicy::default())?;
        let proxy = Proxy::new(owner.master_key());
        Ok(Session {
            owner,
            proxy,
            server,
            rng,
        })
    }

    /// The deployment's master key `SK_DB` — what the owner must retain to
    /// [`Session::open`] the deployment again after a restart.
    pub fn master_key(&self) -> Key128 {
        self.owner.master_key()
    }

    /// The code identity the data owner expects the enclave to measure to.
    pub fn enclave_code_identity() -> &'static [u8] {
        use enclave_sim::EnclaveLogic;
        DictLogic::with_seed(0).code_identity()
    }

    /// Executes one SQL statement through the proxy.
    ///
    /// # Errors
    ///
    /// Propagates parse, lookup and crypto failures.
    ///
    /// # Example
    ///
    /// ```
    /// use encdbdb::Session;
    ///
    /// let mut db = Session::with_seed(1)?;
    /// db.execute("CREATE TABLE t1 (FName ED5(12))")?;
    /// db.execute("INSERT INTO t1 VALUES ('Jessica'), ('Archie'), ('Hans')")?;
    /// let result = db.execute("SELECT FName FROM t1 WHERE FName < 'Ella'")?;
    /// assert_eq!(result.rows_as_strings(), vec![vec!["Archie".to_string()]]);
    /// # Ok::<(), encdbdb::DbError>(())
    /// ```
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.proxy.execute(&self.server, sql, &mut self.rng)
    }

    /// Forks a concurrent reader/writer session sharing this deployment's
    /// server state. The fork holds its own proxy handle and RNG, so it is
    /// `Send` and can run on another thread; queries from any number of
    /// forks execute against consistent snapshots and never block on
    /// compactions.
    pub fn reader(&self, seed: u64) -> ReaderSession {
        ReaderSession {
            proxy: self.proxy.clone(),
            server: self.server.clone(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Bulk-loads a plaintext table: the data owner encrypts it per
    /// `schema` and deploys it as the main store (Fig. 5 steps 3–4).
    ///
    /// # Errors
    ///
    /// Propagates build and deployment failures.
    pub fn load_table(&mut self, table: &Table, schema: TableSchema) -> Result<(), DbError> {
        self.owner
            .deploy(&self.server, table, schema, &mut self.rng)
    }

    /// Synchronously merges a table's delta stores into rebuilt main
    /// stores and publishes the next epoch (§4.3).
    ///
    /// # Errors
    ///
    /// Propagates enclave failures.
    pub fn merge(&mut self, table: &str) -> Result<(), DbError> {
        self.server.merge_table(table)
    }

    /// Installs (or removes) the threshold-driven background compaction
    /// policy — see [`CompactionPolicy`].
    pub fn set_compaction_policy(&mut self, policy: Option<CompactionPolicy>) {
        self.server.set_compaction_policy(policy);
    }

    /// Direct access to the server (benchmarks, storage accounting,
    /// compaction control).
    pub fn server(&self) -> &DbaasServer {
        &self.server
    }

    /// Snapshot of every metric counter and latency histogram of this
    /// deployment (shared across all forks of the session).
    pub fn metrics_report(&self) -> crate::MetricsReport {
        self.server.obs().metrics_report()
    }

    /// Per-kind totals of every enclave transition observed so far — the
    /// measured counterpart of the DESIGN.md §10 leakage analysis.
    pub fn leakage_ledger(&self) -> crate::LedgerReport {
        self.server.obs().ledger_report()
    }

    /// Exports the retained trace spans as Chrome-trace JSON (load the
    /// string into `chrome://tracing` / Perfetto).
    pub fn export_trace(&self) -> String {
        self.server.obs().export_trace()
    }
}

/// A concurrent session over a shared [`Session`]'s deployment: a cloned
/// server handle plus a proxy with its own RNG. Create with
/// [`Session::reader`]; despite the name, the fork can also issue writes
/// (inserts/deletes land in the shared delta stores).
#[derive(Debug)]
pub struct ReaderSession {
    proxy: Proxy,
    server: DbaasServer,
    rng: StdRng,
}

impl ReaderSession {
    /// Executes one SQL statement through this fork's proxy.
    ///
    /// # Errors
    ///
    /// Propagates parse, lookup and crypto failures.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, DbError> {
        self.proxy.execute(&self.server, sql, &mut self.rng)
    }

    /// Forks this fork, exactly as [`Session::reader`] forks the session:
    /// the new session starts from a copy of this one's proxy.
    pub fn reader(&self, seed: u64) -> ReaderSession {
        ReaderSession {
            proxy: self.proxy.clone(),
            server: self.server.clone(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Executes an already-parsed [`Statement`](crate::sql::Statement)
    /// through this fork's proxy — the net server's entry point: it
    /// parses once, rewrites table references into the tenant's
    /// namespace, and runs the rewritten AST directly.
    ///
    /// # Errors
    ///
    /// Propagates lookup and crypto failures.
    pub fn execute_statement(
        &mut self,
        stmt: crate::sql::Statement,
    ) -> Result<QueryResult, DbError> {
        self.proxy
            .execute_statement(&self.server, stmt, &mut self.rng)
    }

    /// The shared server handle (epoch and compaction inspection).
    pub fn server(&self) -> &DbaasServer {
        &self.server
    }

    /// Snapshot of the shared deployment's metrics (see
    /// [`Session::metrics_report`]).
    pub fn metrics_report(&self) -> crate::MetricsReport {
        self.server.obs().metrics_report()
    }

    /// The shared deployment's ECALL leakage ledger (see
    /// [`Session::leakage_ledger`]).
    pub fn leakage_ledger(&self) -> crate::LedgerReport {
        self.server.obs().ledger_report()
    }

    /// Exports the shared trace ring as Chrome-trace JSON (see
    /// [`Session::export_trace`]).
    pub fn export_trace(&self) -> String {
        self.server.obs().export_trace()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnSpec, DictChoice};
    use colstore::column::Column;
    use encdict::EdKind;

    fn session() -> Session {
        Session::with_seed(42).expect("session setup")
    }

    #[test]
    fn create_insert_select_roundtrip_all_kinds() {
        // One column per ED kind plus PLAIN, all in one table.
        // (The paper: "EncDBDB is able to process all dictionary types
        // together, even if they are mixed in one table.")
        let mut db = session();
        db.execute(
            "CREATE TABLE mix (c1 ED1(8), c2 ED2(8), c3 ED3(8), c4 ED4(8), c5 ED5(8), \
             c6 ED6(8), c7 ED7(8), c8 ED8(8), c9 ED9(8), cp PLAIN(8))",
        )
        .unwrap();
        for v in ["delta", "alpha", "echo", "bravo", "charlie"] {
            let vals = std::iter::repeat_n(format!("'{v}'"), 10)
                .collect::<Vec<_>>()
                .join(", ");
            db.execute(&format!("INSERT INTO mix VALUES ({vals})"))
                .unwrap();
        }
        for col in ["c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "c9", "cp"] {
            let r = db
                .execute(&format!(
                    "SELECT {col} FROM mix WHERE {col} BETWEEN 'b' AND 'd'"
                ))
                .unwrap();
            let mut got: Vec<String> = r
                .rows_as_strings()
                .into_iter()
                .map(|mut r| r.remove(0))
                .collect();
            got.sort();
            assert_eq!(got, vec!["bravo", "charlie"], "column {col}");
        }
    }

    #[test]
    fn paper_example_query() {
        let mut db = session();
        db.execute("CREATE TABLE t1 (FName ED7(12))").unwrap();
        db.execute("INSERT INTO t1 VALUES ('Hans'), ('Jessica'), ('Archie'), ('Ella')")
            .unwrap();
        // SELECT FName FROM t1 WHERE FName < 'Ella' — converted by the
        // proxy to a range [-∞, 'Ella').
        let r = db
            .execute("SELECT FName FROM t1 WHERE FName < 'Ella'")
            .unwrap();
        assert_eq!(r.rows_as_strings(), vec![vec!["Archie".to_string()]]);
    }

    #[test]
    fn bulk_load_then_query() {
        let mut db = session();
        let mut table = Table::new("bw");
        table
            .add_column(
                Column::from_strs("region", 8, ["emea", "apj", "amer", "emea", "apj"]).unwrap(),
            )
            .unwrap();
        table
            .add_column(
                Column::from_strs("amount", 8, ["100", "250", "075", "300", "150"]).unwrap(),
            )
            .unwrap();
        let schema = TableSchema::new(
            "bw",
            vec![
                ColumnSpec::new("region", DictChoice::Encrypted(EdKind::Ed5), 8),
                ColumnSpec::new("amount", DictChoice::Encrypted(EdKind::Ed1), 8),
            ],
        );
        db.load_table(&table, schema).unwrap();
        let r = db
            .execute("SELECT region, amount FROM bw WHERE amount >= '150'")
            .unwrap();
        let mut rows = r.rows_as_strings();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec!["apj".to_string(), "150".to_string()],
                vec!["apj".to_string(), "250".to_string()],
                vec!["emea".to_string(), "300".to_string()],
            ]
        );
    }

    #[test]
    fn select_star_and_unfiltered() {
        let mut db = session();
        db.execute("CREATE TABLE t (a ED1(4), b PLAIN(4))").unwrap();
        db.execute("INSERT INTO t VALUES ('x', '1'), ('y', '2')")
            .unwrap();
        let r = db.execute("SELECT * FROM t").unwrap();
        assert_eq!(r.columns, vec!["a", "b"]);
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn delete_and_merge_lifecycle() {
        let mut db = session();
        db.execute("CREATE TABLE t (v ED2(8))").unwrap();
        db.execute("INSERT INTO t VALUES ('a'), ('b'), ('c'), ('d')")
            .unwrap();
        let r = db.execute("DELETE FROM t WHERE v = 'b'").unwrap();
        assert_eq!(r.rows_as_strings()[0][0], "1");
        let r = db.execute("SELECT v FROM t").unwrap();
        assert_eq!(r.row_count(), 3);

        // Merge folds the delta into a rebuilt ED2 main store and
        // publishes the next epoch.
        assert_eq!(db.server().epoch("t").unwrap(), 0);
        db.merge("t").unwrap();
        assert_eq!(db.server().epoch("t").unwrap(), 1);
        let r = db.execute("SELECT v FROM t WHERE v >= 'c'").unwrap();
        let mut got = r.rows_as_strings();
        got.sort();
        assert_eq!(got, vec![vec!["c".to_string()], vec!["d".to_string()]]);
        // Inserts keep working after a merge.
        db.execute("INSERT INTO t VALUES ('e')").unwrap();
        let r = db.execute("SELECT v FROM t").unwrap();
        assert_eq!(r.row_count(), 4);
        // A second merge with a non-empty delta publishes epoch 2.
        db.merge("t").unwrap();
        assert_eq!(db.server().epoch("t").unwrap(), 2);
        // Merging with nothing to do is a no-op that keeps the epoch.
        db.merge("t").unwrap();
        assert_eq!(db.server().epoch("t").unwrap(), 2);
    }

    #[test]
    fn filter_on_one_column_projects_another() {
        let mut db = session();
        db.execute("CREATE TABLE t (k ED1(4), v ED9(8))").unwrap();
        db.execute("INSERT INTO t VALUES ('a', 'one'), ('b', 'two'), ('c', 'three')")
            .unwrap();
        let r = db.execute("SELECT v FROM t WHERE k >= 'b'").unwrap();
        let mut got = r.rows_as_strings();
        got.sort();
        assert_eq!(
            got,
            vec![vec!["three".to_string()], vec!["two".to_string()]]
        );
    }

    #[test]
    fn errors_are_reported() {
        let mut db = session();
        assert!(matches!(
            db.execute("SELECT * FROM nope"),
            Err(DbError::TableNotFound(_))
        ));
        db.execute("CREATE TABLE t (a ED1(4))").unwrap();
        assert!(matches!(
            db.execute("SELECT nope FROM t"),
            Err(DbError::ColumnNotFound(_))
        ));
        assert!(matches!(
            db.execute("INSERT INTO t VALUES ('a', 'b')"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.execute("INSERT INTO t VALUES ('waytoolong')"),
            Err(DbError::ValueTooLong { .. })
        ));
        assert!(matches!(
            db.execute("SELECT * FROM t WHERE a = 'x' AND b = 'y'"),
            Err(DbError::UnsupportedFilter(_) | DbError::ColumnNotFound(_))
        ));
    }

    #[test]
    fn equality_and_range_queries_look_identical_to_server() {
        // Covered cryptographically in encdict::range tests; here we check
        // the proxy path produces working queries for every operator.
        let mut db = session();
        db.execute("CREATE TABLE t (v ED8(8))").unwrap();
        db.execute("INSERT INTO t VALUES ('a'), ('b'), ('b'), ('c')")
            .unwrap();
        for (q, expected) in [
            ("SELECT v FROM t WHERE v = 'b'", 2usize),
            ("SELECT v FROM t WHERE v < 'b'", 1),
            ("SELECT v FROM t WHERE v <= 'b'", 3),
            ("SELECT v FROM t WHERE v > 'b'", 1),
            ("SELECT v FROM t WHERE v >= 'b'", 3),
            ("SELECT v FROM t WHERE v BETWEEN 'a' AND 'b'", 3),
            ("SELECT v FROM t WHERE v >= 'a' AND v < 'c'", 3),
        ] {
            let r = db.execute(q).unwrap();
            assert_eq!(r.row_count(), expected, "query: {q}");
        }
    }

    #[test]
    fn joins_execute_through_sessions_and_reader_forks() {
        // Multi-table statements flow through the same Session/fork path
        // as single-table ones: both tables are snapshotted in one tight
        // acquisition pass, so a fork's join sees a consistent pair.
        let mut db = session();
        db.execute("CREATE TABLE a (k ED5(8), x ED1(8))").unwrap();
        db.execute("CREATE TABLE b (k ED5(8), y ED9(8))").unwrap();
        db.execute("INSERT INTO a VALUES ('k1', 'x1'), ('k2', 'x2')")
            .unwrap();
        db.execute("INSERT INTO b VALUES ('k2', 'y2'), ('k3', 'y3')")
            .unwrap();
        let mut reader = db.reader(9);
        let r = reader
            .execute("SELECT a.x, b.y FROM a JOIN b ON a.k = b.k")
            .unwrap();
        assert_eq!(
            r.rows_as_strings(),
            vec![vec!["x2".to_string(), "y2".to_string()]]
        );
        // One JoinBridge ECALL, visible through the shared server handle.
        assert_eq!(reader.server().last_stats().enclave_calls, 1);
        // A write through the parent is visible to the fork's next join.
        db.execute("INSERT INTO a VALUES ('k3', 'x3')").unwrap();
        let r = reader
            .execute("SELECT a.x, b.y FROM a JOIN b ON a.k = b.k ORDER BY 1")
            .unwrap();
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    fn forks_of_forks_answer_like_the_session() {
        // A fork starts from the ciphers its parent had built and builds
        // the rest itself; whichever did the building, every handle must
        // encrypt bounds and inserts, and decrypt results, identically.
        let mut db = session();
        db.execute("CREATE TABLE t (k ED1(8), v ED9(8), p PLAIN(8))")
            .unwrap();
        db.execute("CREATE TABLE u (k ED5(8), w ED2(8))").unwrap();
        // The session has used `t` only; `u` is new to every fork.
        db.execute("INSERT INTO t VALUES ('k1', 'v1', 'p1'), ('k2', 'v2', 'p2')")
            .unwrap();
        let mut fork = db.reader(21);
        fork.execute("INSERT INTO u VALUES ('k2', 'w2'), ('k3', 'w3')")
            .unwrap();
        let mut fork_of_fork = fork.reader(22);
        fork_of_fork
            .execute("INSERT INTO t VALUES ('k3', 'v3', 'p3')")
            .unwrap();
        fork_of_fork
            .execute("INSERT INTO u VALUES ('k1', 'w1')")
            .unwrap();
        db.execute("INSERT INTO u VALUES ('k4', 'w4')").unwrap();

        let statements = [
            "SELECT k, v, p FROM t WHERE k >= 'k2' ORDER BY 1",
            "SELECT v FROM t WHERE v = 'v3'",
            "SELECT w FROM u WHERE k BETWEEN 'k1' AND 'k3' ORDER BY 1",
            "SELECT k, COUNT(*) FROM u GROUP BY k ORDER BY 1",
            "SELECT t.v, u.w FROM t JOIN u ON t.k = u.k ORDER BY 1",
        ];
        let expected = [
            vec![vec!["k2", "v2", "p2"], vec!["k3", "v3", "p3"]],
            vec![vec!["v3"]],
            vec![vec!["w1"], vec!["w2"], vec!["w3"]],
            vec![
                vec!["k1", "1"],
                vec!["k2", "1"],
                vec!["k3", "1"],
                vec!["k4", "1"],
            ],
            vec![vec!["v1", "w1"], vec!["v2", "w2"], vec!["v3", "w3"]],
        ];
        for (sql, want) in statements.iter().zip(&expected) {
            let from_session = db.execute(sql).unwrap();
            assert_eq!(&from_session.rows_as_strings(), want, "{sql}");
            assert_eq!(fork.execute(sql).unwrap(), from_session, "fork: {sql}");
            assert_eq!(
                fork_of_fork.execute(sql).unwrap(),
                from_session,
                "fork of the fork: {sql}"
            );
        }
    }

    #[test]
    fn reader_sessions_share_state() {
        let mut db = session();
        db.execute("CREATE TABLE t (v ED5(8))").unwrap();
        db.execute("INSERT INTO t VALUES ('a'), ('b')").unwrap();
        let mut reader = db.reader(7);
        let r = reader.execute("SELECT v FROM t WHERE v >= 'b'").unwrap();
        assert_eq!(r.row_count(), 1);
        // A write through the fork is visible to the parent, and vice
        // versa.
        reader.execute("INSERT INTO t VALUES ('c')").unwrap();
        let r = db.execute("SELECT v FROM t").unwrap();
        assert_eq!(r.row_count(), 3);
        db.merge("t").unwrap();
        let r = reader.execute("SELECT v FROM t WHERE v >= 'b'").unwrap();
        assert_eq!(r.row_count(), 2);
        assert_eq!(reader.server().epoch("t").unwrap(), 1);
    }
}

#[cfg(test)]
mod count_tests {
    use super::*;

    #[test]
    fn count_star_with_and_without_filter() {
        let mut db = Session::with_seed(88).unwrap();
        db.execute("CREATE TABLE t (v ED5(8))").unwrap();
        db.execute("INSERT INTO t VALUES ('a'), ('b'), ('b'), ('c'), ('d')")
            .unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows_as_strings(), vec![vec!["5".to_string()]]);
        let r = db
            .execute("SELECT COUNT(*) FROM t WHERE v BETWEEN 'b' AND 'c'")
            .unwrap();
        assert_eq!(r.rows_as_strings(), vec![vec!["3".to_string()]]);
        // Counts respect deletions.
        db.execute("DELETE FROM t WHERE v = 'b'").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows_as_strings(), vec![vec!["3".to_string()]]);
    }

    #[test]
    fn count_parse_errors() {
        let mut db = Session::with_seed(89).unwrap();
        db.execute("CREATE TABLE t (v ED1(8))").unwrap();
        assert!(db.execute("SELECT COUNT(v) FROM t").is_err());
        assert!(db.execute("SELECT COUNT(* FROM t").is_err());
    }
}
