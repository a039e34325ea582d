//! The untrusted DBaaS server: storage plus the query evaluation engine
//! (paper Fig. 5, steps 6–13).
//!
//! The server holds encrypted dictionaries, plaintext attribute vectors and
//! delta stores, hosts the dictionary enclaves, and evaluates decomposed
//! queries: it passes the encrypted range filter to the enclave (step 8),
//! scans the attribute vector for the returned ValueIDs (step 11), applies
//! validity, and renders result columns by *undoing the split*:
//! `eC = (eD_j | j = AV_i ∧ i ∈ rid)` (step 12). The server never sees a
//! plaintext of an encrypted column — values enter and leave as PAE
//! ciphertexts.
//!
//! # Partition layer (DESIGN.md §10)
//!
//! Every table is an ordered set of **range partitions** over a chosen
//! partition column's plaintext domain (the `partition` submodule):
//! owner-provisioned split points; the default of no split points is one
//! partition — the pre-partitioning behavior. Each partition carries its
//! own epoch-tagged main state, delta stores, validity vectors and
//! compaction trigger, so
//!
//! * scans and aggregates fan out across partitions on scoped threads
//!   (the `snapshot` submodule), one histogram and at most one
//!   search/`Aggregate` ECALL contribution per *non-empty* partition;
//! * partition pruning skips shards whose key range provably misses the
//!   filter (the proxy supplies the scope for encrypted partition
//!   columns; plaintext ones prune server-side);
//! * a background merge captures/rebuilds/publishes one partition at a
//!   time (the `compaction` submodule) while queries keep running against
//!   every other partition's live snapshot.
//!
//! # Concurrency model (DESIGN.md §9)
//!
//! [`DbaasServer`] is a cheaply clonable *handle*: every clone shares the
//! same storage, so any number of reader sessions can execute queries
//! concurrently. Each partition's main store is an immutable, epoch-tagged
//! [`MainSnapshot`](encdict::dynamic::MainSnapshot) published behind an
//! `Arc`; queries acquire an owned partition snapshot (`Arc` clones of the
//! main state and of every delta store) under one short mutex and then run
//! entirely lock-free. Writes append to the owning partition's delta store
//! under the same short mutex, copying it first only if a snapshot still
//! shares it.

mod compaction;
mod format;
mod join;
mod partition;
mod scheduler;
mod snapshot;
mod stats;
mod storage;
mod table;

pub use compaction::CompactionPolicy;
pub use stats::{CompactionStats, DurabilityStats, QueryStats};
pub use storage::{DurabilityPolicy, FailPoint};

pub(crate) use scheduler::EcallScheduler;
pub(crate) use table::ServerTable;

use crate::error::DbError;
use crate::obs::{Counter, Hist, Obs, SpanId};
use crate::schema::{DictChoice, TableSchema};
use colstore::dictionary::AttributeVector;
use encdict::{DictEnclave, Dictionary, EncryptedRange, RangeQuery};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Locks a mutex, recovering the inner data if a panicking thread poisoned
/// it (a reader assertion failure must not cascade into every other
/// session).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// How often a merge or delete retries when compaction publishes race it.
pub(crate) const MERGE_RETRIES: usize = 8;

/// One value cell crossing the server boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellValue {
    /// A PAE ciphertext (encrypted column).
    Encrypted(Vec<u8>),
    /// A plaintext value (PLAIN column).
    Plain(Vec<u8>),
}

impl CellValue {
    /// A stored entry as a cell of a column of protection `choice`.
    pub(crate) fn new(choice: &DictChoice, bytes: &[u8]) -> Self {
        match choice {
            DictChoice::Encrypted(_) => CellValue::Encrypted(bytes.to_vec()),
            DictChoice::Plain => CellValue::Plain(bytes.to_vec()),
        }
    }

    /// The cell's bytes: the ciphertext or the plaintext value.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            CellValue::Encrypted(bytes) | CellValue::Plain(bytes) => bytes,
        }
    }
}

/// A filter as seen by the server: the filtered column plus one or more
/// ranges in the form matching the column's protection. A single range is
/// the ordinary comparison/BETWEEN case; multiple ranges are a
/// *disjunction* on that one column (the `IN (...)` lowering — one
/// equality range per listed value, RecordID results unioned), while
/// separate [`ServerFilter`]s still intersect.
#[derive(Debug, Clone)]
pub enum ServerFilter {
    /// Encrypted range(s) for an encrypted column.
    Encrypted {
        /// Filtered column name.
        column: String,
        /// Encrypted ranges τ (disjunction; empty = the conjunction was
        /// provably contradictory, matching nothing without any search).
        ranges: Vec<EncryptedRange>,
    },
    /// Plaintext range(s) for a PLAIN column.
    Plain {
        /// Filtered column name.
        column: String,
        /// Plaintext ranges (disjunction; empty = provably matches
        /// nothing).
        ranges: Vec<RangeQuery>,
    },
}

impl ServerFilter {
    /// A single-range encrypted filter.
    pub fn encrypted(column: impl Into<String>, range: EncryptedRange) -> Self {
        ServerFilter::Encrypted {
            column: column.into(),
            ranges: vec![range],
        }
    }

    /// A single-range plaintext filter.
    pub fn plain(column: impl Into<String>, range: RangeQuery) -> Self {
        ServerFilter::Plain {
            column: column.into(),
            ranges: vec![range],
        }
    }

    pub(crate) fn column(&self) -> &str {
        match self {
            ServerFilter::Encrypted { column, .. } | ServerFilter::Plain { column, .. } => column,
        }
    }

    /// Whether the disjunction is empty: the filter provably matches
    /// nothing.
    pub(crate) fn matches_nothing(&self) -> bool {
        match self {
            ServerFilter::Encrypted { ranges, .. } => ranges.is_empty(),
            ServerFilter::Plain { ranges, .. } => ranges.is_empty(),
        }
    }
}

/// A decomposed query as produced by the proxy.
///
/// `scope` / `partition_ids` carry the proxy's partition routing: the
/// proxy sees plaintext filter ranges and insert values, so *it* computes
/// which range partitions a query can touch and which shard each inserted
/// row belongs to. `None` means "no hint" — the server then scans every
/// partition (pruning plaintext partition columns itself) or routes by
/// plaintext value. Revealing the scope is the documented pruning leakage
/// (DESIGN.md §10).
#[derive(Debug, Clone)]
pub enum ServerQuery {
    /// Range select over one table with a conjunction of filters.
    Select {
        /// Source table.
        table: String,
        /// Projected columns; empty means all.
        columns: Vec<String>,
        /// Per-column filters (conjunction; empty selects everything).
        filters: Vec<ServerFilter>,
        /// Proxy-computed partition scope (`None` = all partitions).
        scope: Option<Vec<usize>>,
    },
    /// Grouped aggregation (the `exec` engine).
    Aggregate {
        /// Source table.
        table: String,
        /// The compiled aggregate plan.
        plan: crate::exec::plan::AggregatePlan,
        /// Per-column filters (conjunction; empty aggregates everything).
        filters: Vec<ServerFilter>,
        /// Proxy-computed partition scope (`None` = all partitions).
        scope: Option<Vec<usize>>,
    },
    /// Append rows (delta store).
    Insert {
        /// Target table.
        table: String,
        /// Rows of cells, one cell per column in schema order.
        rows: Vec<Vec<CellValue>>,
        /// Proxy-computed target partition per row (`None` = server
        /// routes; required when the partition column is encrypted).
        partition_ids: Option<Vec<usize>>,
    },
    /// Invalidate matching rows.
    Delete {
        /// Target table.
        table: String,
        /// Per-column filters (conjunction; empty deletes everything).
        filters: Vec<ServerFilter>,
        /// Proxy-computed partition scope (`None` = all partitions).
        scope: Option<Vec<usize>>,
    },
    /// Two-table equi-join (the `exec` engine's join pipeline).
    Join {
        /// The build side.
        left: JoinSideQuery,
        /// The probe side.
        right: JoinSideQuery,
    },
}

/// One side of a decomposed equi-join: which table to scan, how to filter
/// it, which column is the join key and which columns to render per
/// joined row. The proxy computes `scope` per side exactly like for
/// single-table selects.
#[derive(Debug, Clone)]
pub struct JoinSideQuery {
    /// The side's table.
    pub table: String,
    /// The join-key column.
    pub key: String,
    /// Columns rendered per joined row (bare names; the response
    /// qualifies them as `table.column`).
    pub columns: Vec<String>,
    /// Per-column filters (conjunction; empty scans everything).
    pub filters: Vec<ServerFilter>,
    /// Proxy-computed partition scope (`None` = all partitions).
    pub scope: Option<Vec<usize>>,
}

/// The server's reply to a [`ServerQuery`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryOutcome {
    /// Result rows of a select or aggregate.
    Rows(SelectResponse),
    /// Number of rows inserted or deleted.
    Affected(usize),
}

/// The server's reply to a select.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelectResponse {
    /// Projected column names.
    pub columns: Vec<String>,
    /// One entry per result row; cells in `columns` order.
    pub rows: Vec<Vec<CellValue>>,
}

/// A deployed column as prepared by the data owner (step 3/4 of Fig. 5):
/// its dictionary and attribute vector — from `build_encrypted` for an
/// encrypted column, from `build_plain` for a PLAIN one.
#[derive(Debug)]
pub struct DeployedColumn {
    /// The main dictionary.
    pub dict: Dictionary,
    /// The attribute vector over `dict`.
    pub av: AttributeVector,
}

/// Shared, copy-on-read server configuration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Config {
    pub(crate) policy: Option<CompactionPolicy>,
    pub(crate) merge_throttle: Option<Duration>,
}

/// The DBaaS server — a cheaply clonable handle over shared state; see the
/// module docs for the concurrency model.
#[derive(Debug, Clone)]
pub struct DbaasServer {
    /// The enclave serving query-path ECALLs (search, re-encrypt,
    /// aggregate). Locked per ECALL.
    enclave: Arc<Mutex<DictEnclave>>,
    /// A second enclave instance (same measured code) dedicated to merges,
    /// so a long compaction ECALL never blocks the query path.
    merge_enclave: Arc<Mutex<DictEnclave>>,
    /// The cross-session ECALL batching scheduler fronting `enclave`
    /// (DESIGN.md §15): concurrent read-path calls coalesce into one
    /// transition per dispatch round.
    sched: Arc<EcallScheduler>,
    tables: Arc<RwLock<HashMap<String, Arc<ServerTable>>>>,
    config: Arc<Mutex<Config>>,
    last_stats: Arc<Mutex<QueryStats>>,
    /// Durable storage (DESIGN.md §12), attached via
    /// [`DbaasServer::attach_durability`] or [`DbaasServer::recover`];
    /// `None` runs the server purely in memory (the pre-§12 behavior).
    storage: Arc<Mutex<Option<Arc<storage::Storage>>>>,
    /// The observability domain (DESIGN.md §13): metrics registry, trace
    /// ring and ECALL leakage ledger, shared by every clone.
    obs: Obs,
}

impl DbaasServer {
    /// Creates a server with fresh enclaves.
    pub fn new() -> Self {
        Self::with_enclaves(DictEnclave::new(), DictEnclave::new())
    }

    /// Creates a server around an existing query enclave (e.g.
    /// deterministic); the merge enclave is OS-seeded.
    pub fn with_enclave(enclave: DictEnclave) -> Self {
        Self::with_enclaves(enclave, DictEnclave::new())
    }

    /// Creates a server around explicit query and merge enclaves.
    pub fn with_enclaves(query: DictEnclave, merge: DictEnclave) -> Self {
        let obs = Obs::new();
        let enclave = Arc::new(Mutex::new(query));
        DbaasServer {
            sched: Arc::new(EcallScheduler::new(Arc::clone(&enclave), obs.clone())),
            enclave,
            merge_enclave: Arc::new(Mutex::new(merge)),
            tables: Arc::new(RwLock::new(HashMap::new())),
            config: Arc::new(Mutex::new(Config {
                // A bounded delta by default: every filtered read scans it
                // linearly, so it must not grow without limit.
                policy: Some(CompactionPolicy::default()),
                merge_throttle: None,
            })),
            last_stats: Arc::new(Mutex::new(QueryStats::default())),
            storage: Arc::new(Mutex::new(None)),
            obs,
        }
    }

    /// Turns cross-session ECALL batching on or off (on by default).
    /// When off, every read-path call runs as its own round of one
    /// without joining the scheduler's queue — one enclave lock
    /// acquisition and one transition per call, the reference leg of
    /// differential tests and benchmarks.
    pub fn set_ecall_batching(&self, on: bool) {
        self.sched.set_enabled(on);
    }

    /// Whether cross-session ECALL batching is currently on.
    pub fn ecall_batching(&self) -> bool {
        self.sched.enabled()
    }

    /// The shared ECALL scheduler fronting the query enclave.
    pub(crate) fn scheduler(&self) -> &EcallScheduler {
        &self.sched
    }

    /// This server's observability domain: metrics registry snapshots,
    /// trace-span export and the ECALL leakage ledger (DESIGN.md §13).
    /// Shared by all clones (and thus all reader sessions) of this
    /// server.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Installs (or removes) the threshold-driven compaction policy. The
    /// default is [`CompactionPolicy::default`] — reads scan the delta
    /// side linearly, so each partition's delta must stay bounded. `None`
    /// disables automatic merges entirely (deterministic single-threaded
    /// deployments; the caller then owns keeping the deltas small via
    /// [`DbaasServer::merge_table`]).
    pub fn set_compaction_policy(&self, policy: Option<CompactionPolicy>) {
        lock(&self.config).policy = policy;
    }

    /// Paces compaction: sleep this long after each column merge, bounding
    /// the rebuild's resource share (and, in tests, pinning a merge
    /// in-flight long enough to observe reader overlap).
    pub fn set_merge_throttle(&self, throttle: Option<Duration>) {
        lock(&self.config).merge_throttle = throttle;
    }

    /// Locks and returns the query enclave (attestation/provisioning and
    /// counter inspection pass-through).
    pub fn enclave(&self) -> MutexGuard<'_, DictEnclave> {
        lock(&self.enclave)
    }

    /// Locks and returns the merge enclave.
    pub fn merge_enclave(&self) -> MutexGuard<'_, DictEnclave> {
        lock(&self.merge_enclave)
    }

    /// Both enclave instances, for provisioning loops.
    pub(crate) fn enclave_handles(&self) -> [&Arc<Mutex<DictEnclave>>; 2] {
        [&self.enclave, &self.merge_enclave]
    }

    /// Installs `SK_DB` directly into both enclaves (trusted-setup
    /// variant, §4.2).
    pub fn provision_direct(&self, skdb: encdbdb_crypto::Key128) {
        self.enclave().provision_direct(skdb.clone());
        self.merge_enclave().provision_direct(skdb);
    }

    /// Latency breakdown of the most recent select on this handle's shared
    /// state. With concurrent readers, prefer per-query inspection through
    /// a single session at a time.
    pub fn last_stats(&self) -> QueryStats {
        *lock(&self.last_stats)
    }

    /// Deploys an unpartitioned encrypted table (Fig. 5 step 4).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] on duplicates,
    /// [`DbError::ArityMismatch`] if columns don't match the schema, or
    /// [`DbError::Partition`] if the schema declares more than one
    /// partition (use [`DbaasServer::deploy_table_partitioned`]).
    pub fn deploy_table(
        &self,
        schema: TableSchema,
        columns: Vec<DeployedColumn>,
    ) -> Result<(), DbError> {
        if schema.partition_count() > 1 {
            return Err(DbError::Partition(format!(
                "table {} declares {} partitions; deploy one column set per partition",
                schema.name,
                schema.partition_count()
            )));
        }
        self.deploy_table_partitioned(schema, vec![columns])
    }

    /// Deploys a range-partitioned table: one deployed column set per
    /// partition, in partition order. The data owner splits the plaintext
    /// rows by the partition column and encrypts every shard separately
    /// (each shard gets its own dictionaries), so the server never learns
    /// more than shard residency — which the schema's split points make
    /// public by design.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] on duplicates,
    /// [`DbError::ArityMismatch`] / [`DbError::Partition`] on malformed
    /// column sets.
    pub fn deploy_table_partitioned(
        &self,
        schema: TableSchema,
        parts: Vec<Vec<DeployedColumn>>,
    ) -> Result<(), DbError> {
        let name = schema.name.clone();
        let table = Arc::new(ServerTable::build(schema, parts)?);
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        if tables.contains_key(&name) {
            return Err(DbError::TableExists(name));
        }
        // With durable storage attached, a table must be recoverable from
        // the moment it accepts writes: persist the manifest, the epoch-0
        // snapshots and the WAL header under the tables write lock, and
        // fail the deploy if that fails.
        if let Some(storage) = lock(&self.storage).clone() {
            storage.persist_new_table(&table)?;
        }
        tables.insert(name, table);
        Ok(())
    }

    /// Registers an empty table (SQL `CREATE TABLE` path; all data arrives
    /// through inserts into the delta stores). A partitioned schema gets
    /// one empty partition per split range.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableExists`] on duplicates or
    /// [`DbError::Partition`] / [`DbError::ColumnNotFound`] for invalid
    /// partitioning specs.
    pub fn create_table(&self, schema: TableSchema) -> Result<(), DbError> {
        let empty_columns = || {
            schema
                .columns
                .iter()
                .map(|spec| DeployedColumn {
                    dict: table::empty_dict(&schema.name, spec),
                    av: AttributeVector::new(),
                })
                .collect::<Vec<_>>()
        };
        let parts = (0..schema.partition_count())
            .map(|_| empty_columns())
            .collect();
        self.deploy_table_partitioned(schema, parts)
    }

    /// The schema of a deployed table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn schema(&self, table: &str) -> Result<TableSchema, DbError> {
        Ok(self.table_handle(table)?.schema.clone())
    }

    /// Total number of valid rows in a table, across all partitions.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn row_count(&self, table: &str) -> Result<usize, DbError> {
        let t = self.table_handle(table)?;
        Ok(t.partitions
            .iter()
            .map(|p| lock(&p.state).valid_rows())
            .sum())
    }

    /// Storage size in bytes of one column — main dictionary, its packed
    /// attribute vector and the delta store (Table 6) — summed over
    /// partitions.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`]/[`DbError::ColumnNotFound`].
    pub fn column_storage_size(&self, table: &str, column: &str) -> Result<usize, DbError> {
        let t = self.table_handle(table)?;
        let (idx, _) = t
            .schema
            .column(column)
            .ok_or_else(|| DbError::ColumnNotFound(column.to_string()))?;
        let mut total = 0usize;
        for partition in &t.partitions {
            let snap = partition.snapshot();
            let main = &snap.main.columns[idx];
            total += main.dict().storage_size()
                + main.av().packed_size(main.dict().len())
                + snap.deltas[idx].storage_size();
        }
        Ok(total)
    }

    /// The highest merge generation among a table's partitions (each
    /// partition publishes epochs independently; see
    /// [`DbaasServer::compaction_stats`] for the per-partition view).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn epoch(&self, table: &str) -> Result<u64, DbError> {
        let t = self.table_handle(table)?;
        Ok(t.partitions.iter().map(|p| p.epoch()).max().unwrap_or(0))
    }

    /// Whether a compaction is currently rebuilding any partition of this
    /// table.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn merge_in_flight(&self, table: &str) -> Result<bool, DbError> {
        let t = self.table_handle(table)?;
        Ok(t.partitions.iter().any(|p| p.merge_in_flight()))
    }

    /// Compaction counters and live state of one table, including the
    /// per-partition epochs.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn compaction_stats(&self, table: &str) -> Result<CompactionStats, DbError> {
        let t = self.table_handle(table)?;
        let mut partition_epochs = Vec::with_capacity(t.partitions.len());
        let mut delta_rows = 0usize;
        let mut merge_in_flight = false;
        for p in &t.partitions {
            let state = lock(&p.state);
            partition_epochs.push(state.main().epoch);
            delta_rows += state.delta_rows();
            merge_in_flight |= state.merge_in_flight();
        }
        let last_error = lock(&t.last_error).clone();
        Ok(CompactionStats {
            epoch: partition_epochs.iter().copied().max().unwrap_or(0),
            partition_epochs,
            merges_completed: t.merges_completed.load(Ordering::SeqCst),
            merges_aborted: t.merges_aborted.load(Ordering::SeqCst),
            merges_failed: t.merges_failed.load(Ordering::SeqCst),
            rows_compacted: t.rows_compacted.load(Ordering::SeqCst),
            errors_total: t.errors_total.load(Ordering::SeqCst),
            delta_rows,
            merge_in_flight,
            last_error,
        })
    }

    /// Names of every deployed table, in unspecified order. The net
    /// layer uses this to seed per-tenant quota counters (tables are
    /// namespaced by tenant prefix) and to drain compaction on shutdown.
    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .keys()
            .cloned()
            .collect()
    }

    /// Blocks until no compaction merge is running on any table — the
    /// storage half of graceful shutdown (DESIGN.md §16). The net server
    /// first joins its connection workers (draining in-flight queries),
    /// then calls this so no background rebuild is mid-publish when the
    /// process exits while WAL/snapshot files are being written.
    pub fn drain_background_work(&self) -> Result<(), DbError> {
        for name in self.table_names() {
            self.wait_for_compaction(&name)?;
        }
        Ok(())
    }

    /// Arms the ECALL scheduler's injected-leader-panic hook: the next
    /// batched dispatch round panics mid-transition. Test-only surface
    /// for the poisoned-round regression suite.
    #[doc(hidden)]
    pub fn arm_scheduler_panic(&self) {
        self.sched.arm_leader_panic();
    }

    pub(crate) fn table_handle(&self, name: &str) -> Result<Arc<ServerTable>, DbError> {
        self.tables
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
            .ok_or_else(|| DbError::TableNotFound(name.to_string()))
    }

    pub(crate) fn config(&self) -> Config {
        *lock(&self.config)
    }

    /// Publishes a completed query's [`QueryStats`] — the single
    /// query-path hook into the metrics registry. Its timing fields are
    /// read from the closed spans of `span`'s request. ECALL-level
    /// counters (`ecalls_total`, `values_decrypted_total`, …) are *not*
    /// derived from `stats` here: each enclave transition already
    /// recorded itself through [`Obs::ecall`], and double counting would
    /// break the ledger/registry agreement.
    pub(crate) fn store_stats(&self, mut stats: QueryStats, span: &SpanId) {
        stats.set_times(&span.closed_layers());
        self.obs
            .add(Counter::RowsReturnedTotal, stats.result_rows as u64);
        self.obs.add(
            Counter::PartitionsScannedTotal,
            stats.partitions_scanned as u64,
        );
        self.obs.add(
            Counter::PartitionsPrunedTotal,
            stats.partitions_pruned as u64,
        );
        // Latency components are recorded only when the query exercised
        // them, so each histogram's count stays the number of queries of
        // the matching shape (e.g. `aggregate_ns` counts aggregates).
        for (hist, ns) in [
            (Hist::DictSearchNs, stats.dict_search_ns),
            (Hist::AvScanNs, stats.av_search_ns),
            (Hist::AggregateNs, stats.aggregate_ns),
            (Hist::RenderNs, stats.render_ns),
            (Hist::BridgeNs, stats.bridge_ns),
        ] {
            if ns > 0 {
                self.obs.record(hist, ns);
            }
        }
        *lock(&self.last_stats) = stats;
    }

    /// Executes a decomposed [`ServerQuery`] — the single entry point the
    /// proxy routes all data-path queries through, including aggregate
    /// plans and the proxy's partition routing hints.
    ///
    /// # Errors
    ///
    /// Propagates lookup, arity and enclave failures.
    pub fn execute_query(&self, query: ServerQuery) -> Result<QueryOutcome, DbError> {
        let root = self.obs.span("query", "query", &SpanId::NONE);
        self.execute_query_traced(query, root.id())
    }

    /// [`DbaasServer::execute_query`] with an explicit trace parent —
    /// the proxy passes its per-query root span so server-side spans
    /// (snapshot acquire, per-partition scans, ECALLs, render) nest
    /// under it.
    pub(crate) fn execute_query_traced(
        &self,
        query: ServerQuery,
        parent: &SpanId,
    ) -> Result<QueryOutcome, DbError> {
        match query {
            ServerQuery::Select {
                table,
                columns,
                filters,
                scope,
            } => Ok(QueryOutcome::Rows(self.select(
                &table,
                &columns,
                &filters,
                scope.as_deref(),
                parent,
            )?)),
            ServerQuery::Aggregate {
                table,
                plan,
                filters,
                scope,
            } => Ok(QueryOutcome::Rows(self.aggregate(
                &table,
                &plan,
                &filters,
                scope.as_deref(),
                parent,
            )?)),
            ServerQuery::Insert {
                table,
                rows,
                partition_ids,
            } => Ok(QueryOutcome::Affected(self.insert(
                &table,
                &rows,
                partition_ids.as_deref(),
                parent,
            )?)),
            ServerQuery::Delete {
                table,
                filters,
                scope,
            } => Ok(QueryOutcome::Affected(self.delete(
                &table,
                &filters,
                scope.as_deref(),
                parent,
            )?)),
            ServerQuery::Join { left, right } => {
                Ok(QueryOutcome::Rows(self.join(&left, &right, parent)?))
            }
        }
    }
}

impl Default for DbaasServer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests;
