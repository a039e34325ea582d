//! Per-partition compaction: threshold-driven background merges that
//! capture, rebuild and publish exactly one partition at a time.
//!
//! The three-phase protocol of DESIGN.md §9 — capture at a delta watermark
//! under the partition lock, rebuild off the lock on the dedicated merge
//! enclave, atomically publish the next epoch — is written once, as the
//! job runner [`DbaasServer::run_merge`]: a synchronous merge runs it
//! inline, a background merge on its own thread. A merge on shard A holds
//! only A's mutex (briefly, in phases 1 and 3); reads and writes on every
//! other shard proceed untouched, and the rebuild cost is proportional to
//! one shard, not the table.

use super::format::{MergeRecord, WalRecord};
use super::partition::{CompactionJob, Partition};
use super::scheduler::direct_ecall;
use super::table::ServerTable;
use super::{lock, Config, DbaasServer, MERGE_RETRIES};
use crate::error::DbError;
use crate::obs::{Counter, EcallIo, EcallKind, Hist, Obs, SpanId};
use crate::schema::{DictChoice, TableSchema};
use colstore::dictionary::AttributeVector;
use encdict::dynamic::MainSnapshot;
use encdict::enclave_ops::MergeRequest;
use encdict::{DictEnclave, Dictionary};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// When the compaction scheduler rebuilds a partition's main store (§4.3's
/// "periodic merge", made threshold-driven and per-partition).
///
/// Either condition triggers a background merge of the touched partition
/// after an insert or delete. The trade-off is classic LSM-style: a small
/// `max_delta_rows` keeps the linearly scanned ED9 delta short (fast
/// reads) at the cost of frequent rebuilds; `max_invalid_fraction` bounds
/// the space and scan time wasted on deleted rows. Partitioning shrinks
/// the blast radius: each shard trips the thresholds on its own growth,
/// and a hot shard compacts without freezing cold ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Merge once a partition's delta store holds at least this many rows.
    pub max_delta_rows: usize,
    /// Merge once this fraction of a partition's main rows is invalidated.
    pub max_invalid_fraction: f64,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_delta_rows: 4096,
            max_invalid_fraction: 0.3,
        }
    }
}

impl CompactionPolicy {
    /// Whether the observed partition state warrants a merge.
    pub fn triggered(&self, delta_rows: usize, main_rows: usize, main_valid: usize) -> bool {
        if delta_rows >= self.max_delta_rows.max(1) {
            return true;
        }
        if main_rows > 0 {
            let invalid = (main_rows - main_valid) as f64 / main_rows as f64;
            if invalid >= self.max_invalid_fraction {
                return true;
            }
        }
        false
    }
}

impl DbaasServer {
    /// Synchronously merges every partition's delta store into a freshly
    /// rebuilt main store and publishes the next epoch per partition
    /// (§4.3). Encrypted columns are rebuilt inside the merge enclave with
    /// fresh randomness; PLAIN columns are rebuilt locally. A no-op
    /// partition (empty delta, no deleted rows) is skipped without
    /// entering the enclave or bumping its epoch.
    ///
    /// # Errors
    ///
    /// Propagates enclave and build failures; returns
    /// [`DbError::MergeConflict`] if concurrent deletes keep aborting a
    /// publish.
    pub fn merge_table(&self, table: &str) -> Result<(), DbError> {
        let t = self.table_handle(table)?;
        for partition in &t.partitions {
            self.merge_partition_inner(&t, partition)?;
        }
        Ok(())
    }

    fn merge_partition_inner(
        &self,
        t: &Arc<ServerTable>,
        partition: &Arc<Partition>,
    ) -> Result<(), DbError> {
        for _attempt in 0..MERGE_RETRIES {
            self.wait_for_partition(partition);
            let done = match self.begin_compaction(partition) {
                Some(job) => self.run_merge(t, partition, job)?,
                // Nothing to fold — unless a background merge slipped in
                // between the wait and the capture; then wait again.
                None => !partition.merge_in_flight(),
            };
            if done {
                return Ok(());
            }
        }
        Err(merge_conflict(t, partition))
    }

    /// Starts a background compaction on every partition of `table` that
    /// has work and no merge in flight. Returns whether any merge was
    /// started.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn spawn_compaction(&self, table: &str) -> Result<bool, DbError> {
        let t = self.table_handle(table)?;
        let mut any = false;
        for partition in &t.partitions {
            any |= self.spawn_compaction_inner(&t, partition);
        }
        Ok(any)
    }

    /// Starts a background compaction of one partition if it has work and
    /// none is running there. Returns whether a merge was started.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] / [`DbError::Partition`].
    pub fn spawn_partition_compaction(
        &self,
        table: &str,
        partition: usize,
    ) -> Result<bool, DbError> {
        let t = self.table_handle(table)?;
        let p = partition_handle(&t, partition)?;
        Ok(self.spawn_compaction_inner(&t, &p))
    }

    /// Blocks until no compaction is running on any partition of `table`
    /// (joining background workers).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] if absent.
    pub fn wait_for_compaction(&self, table: &str) -> Result<(), DbError> {
        let t = self.table_handle(table)?;
        for partition in &t.partitions {
            self.wait_for_partition(partition);
        }
        Ok(())
    }

    fn wait_for_partition(&self, partition: &Partition) {
        if let Some(handle) = lock(&partition.worker).take() {
            let _ = handle.join();
        }
        while partition.merge_in_flight() {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Fires a background merge of one partition when the policy's
    /// thresholds are crossed.
    pub(crate) fn maybe_compact(
        &self,
        t: &Arc<ServerTable>,
        partition: &Arc<Partition>,
        cfg: &Config,
    ) {
        let Some(policy) = cfg.policy else {
            return;
        };
        let due = {
            let state = lock(&partition.state);
            let rows = state.main().rows;
            !state.merge_in_flight()
                && policy.triggered(state.delta_rows(), rows, rows - state.main_invalid())
        };
        if due {
            self.spawn_compaction_inner(t, partition);
        }
    }

    fn spawn_compaction_inner(&self, t: &Arc<ServerTable>, partition: &Arc<Partition>) -> bool {
        // Hold the worker slot across begin + spawn + store: a concurrent
        // spawner serializes here, so the slot can never hand us the
        // handle of a *live* merge (which a reap-join would then block on
        // for the whole rebuild).
        let mut worker = lock(&partition.worker);
        let Some(job) = self.begin_compaction(partition) else {
            return false;
        };
        if let Some(old) = worker.take() {
            // The capture succeeded, so no merge was in flight on this
            // partition: the stored worker has already cleared the flag
            // and is (at most) tearing down. Reap it.
            let _ = old.join();
        }
        let (server, table, partition_arc) = (self.clone(), Arc::clone(t), Arc::clone(partition));
        *worker = Some(std::thread::spawn(move || {
            // Failures are already in the table's stats and `last_error`;
            // the flag is cleared, so the policy re-triggers on later
            // writes.
            let _ = server.run_merge(&table, &partition_arc, job);
        }));
        true
    }

    /// Phase 1 of a compaction: under one short lock, capture the merge
    /// input at the current watermark and mark the merge in flight.
    /// `None` when a merge is already running on this partition or there
    /// is nothing to compact.
    fn begin_compaction(&self, partition: &Partition) -> Option<CompactionJob> {
        let span = self.obs().span("capture", "compaction", &SpanId::NONE);
        let job = lock(&partition.state).begin();
        span.finish();
        job
    }

    /// The one compaction job runner: rebuild `job` off the lock, publish
    /// it, and — when a delete raced the rebuild and the publish was
    /// discarded — capture afresh and try again, a bounded number of
    /// times. `Ok(true)` once an epoch is published; `Ok(false)` when the
    /// retry found the partition taken by another merge or with nothing
    /// left to fold.
    ///
    /// # Errors
    ///
    /// A failed rebuild (recorded in the table's stats and `last_error`,
    /// old store and delta untouched), or [`DbError::MergeConflict`] when
    /// deletes kept winning.
    fn run_merge(
        &self,
        t: &ServerTable,
        partition: &Partition,
        mut job: CompactionJob,
    ) -> Result<bool, DbError> {
        for attempt in 1..=MERGE_RETRIES {
            let throttle = self.config().merge_throttle;
            let built =
                execute_compaction(&self.merge_enclave, &t.schema, &job, throttle, self.obs())
                    .inspect_err(|e| fail_compaction(self.obs(), t, partition, e))?;
            if publish_compaction(self, t, partition, &job, built) {
                return Ok(true);
            }
            if attempt < MERGE_RETRIES {
                match self.begin_compaction(partition) {
                    Some(next) => job = next,
                    None => return Ok(false),
                }
            }
        }
        Err(merge_conflict(t, partition))
    }
}

fn merge_conflict(t: &ServerTable, partition: &Partition) -> DbError {
    DbError::MergeConflict(format!(
        "merge of {} partition {} kept racing concurrent deletes",
        t.schema.name, partition.index
    ))
}

fn partition_handle(t: &Arc<ServerTable>, partition: usize) -> Result<Arc<Partition>, DbError> {
    t.partitions.get(partition).cloned().ok_or_else(|| {
        DbError::Partition(format!(
            "partition {partition} outside {} partitions of {}",
            t.partitions.len(),
            t.schema.name
        ))
    })
}

/// Phase 2: rebuild every column of the partition off the query path (no
/// storage lock held; the merge enclave is locked per column ECALL).
/// `throttle` sleeps that long after each column. Called by the job runner
/// and by WAL replay of a logged publish — nowhere else.
pub(crate) fn execute_compaction(
    merge_enclave: &Mutex<DictEnclave>,
    schema: &TableSchema,
    job: &CompactionJob,
    throttle: Option<Duration>,
    obs: &Obs,
) -> Result<(Vec<MainSnapshot>, usize), DbError> {
    let rebuild_span = obs.span_arg("rebuild", "compaction", &SpanId::NONE, job.main.epoch);
    let mut new_columns = Vec::with_capacity(job.main.columns.len());
    let mut new_rows = None;
    for ((spec, main_col), delta_col) in schema
        .columns
        .iter()
        .zip(&job.main.columns)
        .zip(&job.delta_prefixes)
    {
        let dict = main_col.dict();
        let (new_dict, new_av) = match spec.choice {
            DictChoice::Encrypted(kind) => {
                let req = MergeRequest {
                    table_name: dict.table_name(),
                    col_name: dict.col_name(),
                    max_len: dict.max_len(),
                    kind,
                    bs_max: spec.bs_max,
                    main: dict.segment().view(),
                    main_av: main_col.av(),
                    main_valid: &job.main_validity,
                    delta: delta_col.segment().view(),
                    delta_valid: &job.delta_validity,
                };
                // Merge traffic is dominated by the streamed dictionary
                // reads; bytes_out approximates the published AV payload.
                let (merged, dur_ns) = direct_ecall(
                    merge_enclave,
                    obs,
                    EcallKind::Merge,
                    rebuild_span.id(),
                    |e| e.merge(req),
                    |(_, av), traffic| EcallIo {
                        bytes_in: traffic.untrusted_bytes,
                        bytes_out: 4 * av.len() as u64,
                        values_decrypted: traffic.untrusted_loads / 2,
                        ..traffic
                    },
                )?;
                obs.record(Hist::CompactionMergeNs, dur_ns);
                merged
            }
            DictChoice::Plain => rebuild_plain(spec, main_col, delta_col, job)?,
        };
        let rows = new_av.len();
        let column = main_col.next_generation(new_dict, new_av);
        debug_assert!(
            new_rows.is_none_or(|r| r == rows),
            "columns must stay row-aligned"
        );
        new_rows = Some(rows);
        new_columns.push(column);
        if let Some(throttle) = throttle {
            std::thread::sleep(throttle);
        }
    }
    rebuild_span.finish();
    Ok((new_columns, new_rows.unwrap_or(0)))
}

/// Phase 3: atomically publish the rebuilt partition epoch, unless a
/// delete raced the rebuild (then the result is discarded and the attempt
/// counts as aborted). Returns whether the publish happened.
///
/// With durable storage attached the publish is logged **before** it is
/// applied: the WAL mutex is taken first (lock order: WAL → partition
/// state, same as the write path), a merge record is appended, and only
/// then is the new epoch swapped in. An append failure discards the
/// rebuilt epoch like an abort, so memory never runs ahead of the log.
/// The sealed snapshot file of the new epoch is persisted after both
/// locks are released; a persist failure is reported (stats +
/// `last_error`) but never unpublishes — recovery re-derives the epoch
/// from the previous snapshot plus the merge record.
fn publish_compaction(
    server: &DbaasServer,
    t: &ServerTable,
    partition: &Partition,
    job: &CompactionJob,
    (columns, rows): (Vec<MainSnapshot>, usize),
) -> bool {
    let obs = server.obs();
    let span = obs.span_arg(
        "publish",
        "compaction",
        &SpanId::NONE,
        partition.index as u64,
    );
    let storage = server.storage();
    let wal = match storage.as_ref().map(|s| s.wal_handle(&t.schema.name)) {
        Some(Err(e)) => {
            fail_compaction(obs, t, partition, &e);
            return false;
        }
        Some(Ok(wal)) => Some(wal),
        None => None,
    };
    let mut wal_guard = wal.as_ref().map(|w| lock(w));
    let mut state = lock(&partition.state);
    if state.end_merge() {
        // A delete invalidated rows this merge already folded in as valid;
        // publishing would resurrect them. Discard and let the runner (or
        // the next policy trigger) retry against the fresh state.
        drop(state);
        drop(wal_guard);
        t.merges_aborted.fetch_add(1, Ordering::SeqCst);
        obs.add(Counter::CompactionsAbortedTotal, 1);
        obs.span("abort", "compaction", span.id()).finish();
        return false;
    }
    if let (Some(s), Some(guard)) = (&storage, wal_guard.as_mut()) {
        let watermark_abs = state.drained_total() + job.watermark as u64;
        let record = WalRecord::Merge(MergeRecord {
            pid: partition.index,
            old_epoch: job.main.epoch,
            watermark_abs,
        });
        if let Err(e) = s.append_record(guard, &record) {
            // The merge has ended above; only the failure is left to count.
            drop(state);
            t.merges_failed.fetch_add(1, Ordering::SeqCst);
            note_error(obs, t, &e);
            return false;
        }
    }
    state.publish(job, columns, rows);
    let persist = storage
        .as_ref()
        .map(|s| (s, Arc::clone(state.main()), state.drained_total()));
    drop(state);
    drop(wal_guard);
    t.merges_completed.fetch_add(1, Ordering::SeqCst);
    t.rows_compacted
        .fetch_add(job.watermark as u64, Ordering::SeqCst);
    obs.add(Counter::CompactionsCompletedTotal, 1);
    if let Some((s, main, drained)) = persist {
        if let Err(e) = s.persist_snapshot(&t.schema, partition.index, &main, drained) {
            s.note_snapshot_persist_failure();
            note_error(obs, t, &e);
        }
    }
    span.finish();
    true
}

/// Error path of a merge that will not publish: end it, leaving the old
/// store and the delta untouched and queryable, and count the failure.
fn fail_compaction(obs: &Obs, t: &ServerTable, partition: &Partition, e: &DbError) {
    let abort_span = obs.span("abort", "compaction", &SpanId::NONE);
    lock(&partition.state).end_merge();
    t.merges_failed.fetch_add(1, Ordering::SeqCst);
    note_error(obs, t, e);
    abort_span.finish();
}

fn note_error(obs: &Obs, t: &ServerTable, e: &DbError) {
    t.errors_total.fetch_add(1, Ordering::SeqCst);
    obs.add(Counter::CompactionErrorsTotal, 1);
    *lock(&t.last_error) = Some(e.to_string());
}

/// Rebuilds a PLAIN column locally: the valid main and delta rows, in
/// that order, as a fresh sorted (ED1) dictionary.
fn rebuild_plain(
    spec: &crate::schema::ColumnSpec,
    main: &MainSnapshot,
    delta: &Dictionary,
    job: &CompactionJob,
) -> Result<(Dictionary, AttributeVector), DbError> {
    let mut column = colstore::column::Column::new(&spec.name, spec.max_len);
    for (j, vid) in main.av().iter().enumerate() {
        if job.main_validity.is_valid(j) {
            column.push(main.dict().value(vid as usize))?;
        }
    }
    for j in (0..delta.len()).filter(|&j| job.delta_validity.is_valid(j)) {
        column.push(delta.value(j))?;
    }
    let mut rng = rand::rngs::mock::StepRng::new(0, 1);
    Ok(encdict::build::build_plain(
        &column,
        encdict::EdKind::Ed1,
        &Default::default(),
        &mut rng,
    )?)
}
