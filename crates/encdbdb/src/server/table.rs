//! The per-table layer: an ordered set of range partitions plus
//! table-wide compaction counters, partition routing for writes and
//! range pruning for reads.

use super::format::{DeleteRecord, InsertGroup, WalRecord};
use super::partition::{Partition, PartitionSnapshot};
use super::scheduler::direct_ecall;
use super::snapshot::TableSnapshot;
use super::{
    lock, CellValue, DbaasServer, DeployedColumn, QueryStats, ServerFilter, MERGE_RETRIES,
};
use crate::error::DbError;
use crate::obs::{Counter, EcallIo, EcallKind, SpanId};
use crate::schema::{DictChoice, TableSchema};
use colstore::dictionary::RecordId;
use encdict::dynamic::MainSnapshot;
use encdict::Dictionary;
use std::borrow::Cow;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// A deployed table: schema, ordered range partitions, and table-wide
/// merge counters (partitions merge independently but report together).
#[derive(Debug)]
pub(crate) struct ServerTable {
    pub(crate) schema: TableSchema,
    pub(crate) partitions: Vec<Arc<Partition>>,
    pub(crate) merges_completed: AtomicU64,
    pub(crate) merges_aborted: AtomicU64,
    pub(crate) merges_failed: AtomicU64,
    pub(crate) rows_compacted: AtomicU64,
    /// Monotone count of background-merge errors (enclave merge failures
    /// plus failed snapshot persists of published epochs); unlike
    /// [`ServerTable::last_error`] it never loses intermittent failures.
    pub(crate) errors_total: AtomicU64,
    pub(crate) last_error: Mutex<Option<String>>,
}

impl ServerTable {
    /// Builds a table from per-partition deployed columns.
    pub(crate) fn build(
        schema: TableSchema,
        parts: Vec<Vec<DeployedColumn>>,
    ) -> Result<Self, DbError> {
        if let Some(p) = &schema.partitioning {
            p.validate().map_err(DbError::Partition)?;
            if schema.column(&p.column).is_none() {
                return Err(DbError::ColumnNotFound(p.column.clone()));
            }
        }
        if parts.len() != schema.partition_count() {
            return Err(DbError::Partition(format!(
                "schema declares {} partitions, got {} column sets",
                schema.partition_count(),
                parts.len()
            )));
        }
        let partitions = parts
            .into_iter()
            .enumerate()
            .map(|(i, columns)| Ok(Arc::new(build_partition(&schema, i, columns)?)))
            .collect::<Result<Vec<_>, DbError>>()?;
        Ok(ServerTable {
            schema,
            partitions,
            merges_completed: AtomicU64::new(0),
            merges_aborted: AtomicU64::new(0),
            merges_failed: AtomicU64::new(0),
            rows_compacted: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            last_error: Mutex::new(None),
        })
    }

    /// Wraps partitions reloaded from sealed snapshots (crash recovery).
    /// The table-wide merge counters restart at zero — they are process
    /// statistics, not durable state.
    pub(crate) fn from_parts(schema: TableSchema, partitions: Vec<Arc<Partition>>) -> Self {
        ServerTable {
            schema,
            partitions,
            merges_completed: AtomicU64::new(0),
            merges_aborted: AtomicU64::new(0),
            merges_failed: AtomicU64::new(0),
            rows_compacted: AtomicU64::new(0),
            errors_total: AtomicU64::new(0),
            last_error: Mutex::new(None),
        }
    }

    /// Resolves the partition scope of a query: a proxy-provided scope
    /// wins (the proxy knows the plaintext ranges of *encrypted* filters);
    /// otherwise plaintext filters on the partition column prune
    /// server-side; otherwise every partition is in scope.
    ///
    /// The result is an ordered, deduplicated list of partition indices.
    /// What this reveals to the server — which shards a query can touch —
    /// is the pruning leakage analyzed in DESIGN.md §10.
    pub(crate) fn resolve_scope(
        &self,
        filters: &[ServerFilter],
        provided: Option<&[usize]>,
    ) -> Vec<usize> {
        let total = self.partitions.len();
        if let Some(ids) = provided {
            let mut scope: Vec<usize> = ids.iter().copied().filter(|&i| i < total).collect();
            scope.sort_unstable();
            scope.dedup();
            return scope;
        }
        if let Some(part) = &self.schema.partitioning {
            // Per filter, the scope is the exact *union* of its range
            // disjunction's shards (an `IN` on the partition column skips
            // the shards between its values); across filters, scopes
            // intersect — matching the proxy-side computation.
            let mut scope: Option<std::collections::BTreeSet<usize>> = None;
            for f in filters {
                if let ServerFilter::Plain { column, ranges } = f {
                    if column == &part.column {
                        let mut ids = std::collections::BTreeSet::new();
                        for range in ranges {
                            ids.extend(part.overlapping(range));
                        }
                        scope = Some(match scope {
                            None => ids,
                            Some(acc) => acc.intersection(&ids).copied().collect(),
                        });
                    }
                }
            }
            return match scope {
                Some(ids) => ids.into_iter().collect(),
                None => (0..total).collect(),
            };
        }
        (0..total).collect()
    }

    /// Snapshots every in-scope partition (one short lock each; snapshots
    /// of different partitions are *not* mutually atomic — each is
    /// internally consistent, which is the guarantee readers rely on).
    pub(crate) fn snapshot_scope(&self, scope: &[usize]) -> Vec<(usize, PartitionSnapshot)> {
        scope
            .iter()
            .map(|&pid| (pid, self.partitions[pid].snapshot()))
            .collect()
    }

    /// The partition a plaintext value of the partition column routes to.
    pub(crate) fn route_value(&self, value: &[u8]) -> usize {
        self.schema
            .partitioning
            .as_ref()
            .map_or(0, |p| p.partition_of(value))
    }
}

fn build_partition(
    schema: &TableSchema,
    index: usize,
    columns: Vec<DeployedColumn>,
) -> Result<Partition, DbError> {
    if columns.len() != schema.columns.len() {
        return Err(DbError::ArityMismatch {
            expected: schema.columns.len(),
            got: columns.len(),
        });
    }
    let mut rows = None;
    let mut main_columns = Vec::with_capacity(columns.len());
    for DeployedColumn { dict, av } in columns {
        let column = MainSnapshot::new(0, dict, av);
        let got = column.av().len();
        match rows {
            None => rows = Some(got),
            Some(r) if r == got => {}
            Some(r) => return Err(DbError::ArityMismatch { expected: r, got }),
        }
        main_columns.push(column);
    }
    Ok(Partition::new(
        index,
        schema,
        main_columns,
        rows.unwrap_or(0),
        0,
        0,
    ))
}

/// Builds an empty dictionary placeholder for `CREATE TABLE`: the
/// column's kind for an encrypted column, ED1 for a PLAIN one — what the
/// data owner would deploy for a column of no rows.
pub(crate) fn empty_dict(table: &str, spec: &crate::schema::ColumnSpec) -> Dictionary {
    let column = colstore::column::Column::new(&spec.name, spec.max_len);
    let params = encdict::build::BuildParams {
        table_name: table.to_string(),
        col_name: spec.name.clone(),
        bs_max: spec.bs_max.max(1),
    };
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    let built = match spec.choice {
        // An empty column encrypts to an empty dictionary; no key material
        // is needed since there are zero ciphertexts.
        DictChoice::Encrypted(kind) => {
            let throwaway = encdbdb_crypto::Key128::from_bytes([0u8; 16]);
            encdict::build::build_encrypted(&column, kind, &params, &throwaway, &mut rng)
        }
        DictChoice::Plain => {
            encdict::build::build_plain(&column, encdict::EdKind::Ed1, &params, &mut rng)
        }
    };
    built.expect("empty column always builds").0
}

impl DbaasServer {
    /// Appends rows to a table's delta stores (§4.3). Encrypted cells are
    /// re-encrypted by the enclave *before* any storage lock is taken, so
    /// the append itself is atomic per partition with respect to
    /// concurrent snapshots.
    ///
    /// For range-partitioned tables the rows must be routable: either the
    /// partition column is PLAIN (the server routes by value), or the
    /// caller supplies per-row partition ids through
    /// [`ServerQuery::Insert`](super::ServerQuery::Insert) — the trusted
    /// proxy does the latter, since only it sees the plaintext of an
    /// encrypted partition column.
    ///
    /// # Errors
    ///
    /// Propagates lookup, arity, routing and enclave failures.
    pub(crate) fn insert(
        &self,
        table: &str,
        rows: &[Vec<CellValue>],
        partition_ids: Option<&[usize]>,
        parent: &SpanId,
    ) -> Result<usize, DbError> {
        let obs = self.obs().clone();
        let span = obs.span_arg("insert", "query", parent, rows.len() as u64);
        let cfg = self.config();
        let t = self.table_handle(table)?;
        // Route every row before touching any lock (the plaintext of the
        // partition column is only visible here for PLAIN columns).
        let pids = route_rows(&t, rows, partition_ids)?;
        // Step 1 (no storage lock): validate and re-encrypt every cell.
        let mut prepared: Vec<Vec<CellValue>> = Vec::with_capacity(rows.len());
        for row in rows {
            if row.len() != t.schema.columns.len() {
                return Err(DbError::ArityMismatch {
                    expected: t.schema.columns.len(),
                    got: row.len(),
                });
            }
            let mut out = Vec::with_capacity(row.len());
            for (spec, cell) in t.schema.columns.iter().zip(row) {
                match (&spec.choice, cell) {
                    (DictChoice::Encrypted(_), CellValue::Encrypted(ct)) => {
                        // One ECALL per encrypted cell: the enclave
                        // decrypts the owner ciphertext and re-encrypts
                        // it under the delta-entry regime.
                        let (fresh, _) = direct_ecall(
                            &self.enclave,
                            &obs,
                            EcallKind::Reencrypt,
                            span.id(),
                            |e| e.reencrypt(&t.schema.name, &spec.name, ct),
                            |fresh, traffic| EcallIo {
                                bytes_in: ct.len() as u64,
                                bytes_out: fresh.as_bytes().len() as u64,
                                values_decrypted: 1,
                                ..traffic
                            },
                        )?;
                        out.push(CellValue::Encrypted(fresh.into_bytes()));
                    }
                    (DictChoice::Plain, CellValue::Plain(v)) => {
                        if v.len() > spec.max_len {
                            return Err(DbError::ValueTooLong {
                                got: v.len(),
                                max: spec.max_len,
                            });
                        }
                        out.push(CellValue::Plain(v.clone()));
                    }
                    _ => {
                        return Err(DbError::UnsupportedFilter(
                            "cell form does not match column protection".to_string(),
                        ))
                    }
                }
            }
            prepared.push(out);
        }
        // Step 2: group rows per partition, then one short lock per
        // touched partition. A write to shard A never takes shard B's
        // lock.
        let mut per_partition: Vec<Vec<Vec<CellValue>>> = vec![Vec::new(); t.partitions.len()];
        for (pid, row) in pids.iter().zip(prepared) {
            per_partition[*pid].push(row);
        }
        // Log-then-apply (DESIGN.md §12): with durable storage attached,
        // the whole insert is appended to the table's WAL as *one* record
        // before any partition state changes. Every writer (inserts,
        // deletes, epoch publishes) serializes on the WAL mutex, so the
        // absolute delta positions read here stay valid until the groups
        // are applied below, and a failed append leaves memory and log
        // identically untouched.
        let storage = self.storage();
        let wal = match &storage {
            Some(s) => Some(s.wal_handle(table)?),
            None => None,
        };
        let mut wal_guard = wal.as_ref().map(|w| lock(w));
        if let (Some(s), Some(guard)) = (&storage, wal_guard.as_mut()) {
            let mut groups = Vec::new();
            for (pid, rows) in per_partition.iter().enumerate() {
                if rows.is_empty() {
                    continue;
                }
                let state = lock(&t.partitions[pid].state);
                groups.push(InsertGroup {
                    pid,
                    base_abs: state.drained_total() + state.delta_rows() as u64,
                    rows: Cow::Borrowed(rows.as_slice()),
                });
            }
            s.append_record(guard, &WalRecord::Insert(groups))?;
        }
        let mut touched = Vec::new();
        for (pid, rows) in per_partition.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            lock(&t.partitions[pid].state)
                .append_rows(rows.iter().map(|row| row.iter().map(CellValue::bytes)));
            touched.push(pid);
        }
        drop(wal_guard);
        for pid in touched {
            self.maybe_compact(&t, &t.partitions[pid], &cfg);
        }
        obs.add(Counter::RowsInsertedTotal, rows.len() as u64);
        span.finish();
        Ok(rows.len())
    }

    /// Deletes rows matching a conjunction of filters (§4.3: "deletions
    /// are realizable by an update on the validity bit").
    ///
    /// Per partition, the matching RecordIDs are computed against a
    /// snapshot; if a compaction publishes a new epoch in between
    /// (renumbering rows), the delete retries against the fresh state of
    /// that partition only.
    ///
    /// # Errors
    ///
    /// Propagates lookup and enclave failures; returns
    /// [`DbError::MergeConflict`] if compactions keep racing the delete.
    pub(crate) fn delete(
        &self,
        table: &str,
        filters: &[ServerFilter],
        scope: Option<&[usize]>,
        parent: &SpanId,
    ) -> Result<usize, DbError> {
        let obs = self.obs().clone();
        let span = obs.span("delete", "query", parent);
        let cfg = self.config();
        let t = self.table_handle(table)?;
        let storage = self.storage();
        let wal = match &storage {
            Some(s) => Some(s.wal_handle(table)?),
            None => None,
        };
        let scope = t.resolve_scope(filters, scope);
        let mut deleted = 0usize;
        'partitions: for pid in scope {
            let partition = &t.partitions[pid];
            for _attempt in 0..MERGE_RETRIES {
                let snap = partition.snapshot();
                if snap.is_empty() {
                    continue 'partitions;
                }
                let epoch = snap.epoch();
                let ts = TableSnapshot {
                    table: Arc::clone(&t),
                    scope_len: 1,
                    active: vec![(pid, snap)],
                };
                let (main_rids, delta_rids) = self
                    .scan_partitions(
                        &ts,
                        filters,
                        span.id(),
                        &mut QueryStats::default(),
                        |_, _, main_rids, delta_rids, _, _| Ok((main_rids, delta_rids)),
                    )?
                    .pop()
                    .expect("one partition scanned");
                {
                    // Lock order: WAL → partition state, as everywhere.
                    let mut wal_guard = wal.as_ref().map(|w| lock(w));
                    let mut state = lock(&partition.state);
                    if state.main().epoch != epoch {
                        continue; // A merge published mid-delete; recompute.
                    }
                    // The epoch check passed under both locks, so the
                    // RecordIDs are valid for the state the record's epoch
                    // names — log before flipping (some candidates may be
                    // already-invalid; replay re-checks validity bits).
                    if let (Some(s), Some(guard)) = (&storage, wal_guard.as_mut()) {
                        if !main_rids.is_empty() || !delta_rids.is_empty() {
                            let base = state.drained_total();
                            let record = WalRecord::Delete(DeleteRecord {
                                pid,
                                epoch,
                                main_rids: main_rids.clone(),
                                delta_abs: delta_rids.iter().map(|r| base + r.0 as u64).collect(),
                            });
                            s.append_record(guard, &record)?;
                        }
                    }
                    deleted += state.invalidate(&main_rids, &delta_rids);
                }
                self.maybe_compact(&t, partition, &cfg);
                continue 'partitions;
            }
            return Err(DbError::MergeConflict(format!(
                "delete on {table} kept racing compaction publishes"
            )));
        }
        obs.add(Counter::RowsDeletedTotal, deleted as u64);
        span.finish();
        Ok(deleted)
    }
}

/// Resolves the target partition of every row: caller-provided ids win
/// (the proxy routes rows whose partition column is encrypted); otherwise
/// a PLAIN partition column routes by value; an unpartitioned table takes
/// partition 0.
fn route_rows(
    t: &ServerTable,
    rows: &[Vec<CellValue>],
    provided: Option<&[usize]>,
) -> Result<Vec<usize>, DbError> {
    let total = t.partitions.len();
    if let Some(ids) = provided {
        if ids.len() != rows.len() {
            return Err(DbError::Partition(format!(
                "{} partition ids for {} rows",
                ids.len(),
                rows.len()
            )));
        }
        for &pid in ids {
            if pid >= total {
                return Err(DbError::Partition(format!(
                    "partition id {pid} outside {total} partitions"
                )));
            }
        }
        return Ok(ids.to_vec());
    }
    let Some(part) = &t.schema.partitioning else {
        return Ok(vec![0; rows.len()]);
    };
    let (idx, spec) = t
        .schema
        .column(&part.column)
        .ok_or_else(|| DbError::ColumnNotFound(part.column.clone()))?;
    match spec.choice {
        DictChoice::Plain => rows
            .iter()
            .map(|row| match row.get(idx) {
                Some(CellValue::Plain(v)) => Ok(t.route_value(v)),
                _ => Err(DbError::UnsupportedFilter(
                    "cell form does not match column protection".to_string(),
                )),
            })
            .collect(),
        DictChoice::Encrypted(_) => Err(DbError::Partition(format!(
            "table {} is partitioned on encrypted column {}; inserts must carry \
             proxy-computed partition ids",
            t.schema.name, part.column
        ))),
    }
}

/// Linear-merge intersection of two ascending RecordID lists.
pub(crate) fn intersect_sorted(a: &[RecordId], b: &[RecordId]) -> Vec<RecordId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}
