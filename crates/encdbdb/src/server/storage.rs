//! Durable storage: sealed epoch snapshots, a delta write-ahead log and
//! crash recovery (DESIGN.md §12).
//!
//! The paper's in-memory DBMS "stores all data on disk for persistency and
//! additionally loads it into main memory" (Fig. 5 step 4). This module
//! wires that through the epoch machinery of §9/§10:
//!
//! * Every published [`MainState`] is persisted as one **sealed, CRC-framed
//!   snapshot file per partition**, the epoch in the filename
//!   (`<table>/p<pid>-e<epoch>.snap`), written tmp-file + atomic rename.
//!   The payload embeds the table name, partition index and epoch so a
//!   file swapped between partitions or tables is rejected at load even
//!   though all snapshots share one sealing key.
//! * Every delta insert/delete (and every epoch publish) appends one
//!   record to a per-table **write-ahead log** (`<table>/wal.log`):
//!   length-prefixed CRC frames around sealed payloads, fsync'd per append
//!   or in batches per [`DurabilityPolicy`].
//! * **Recovery** loads the newest valid snapshot per partition (falling
//!   back to an older epoch when a file is damaged), replays the WAL
//!   suffix past the loaded epochs — re-executing logged merges so the
//!   epoch timeline matches the crashed process — and truncates torn
//!   tails. Everything detected lands in [`DurabilityStats`].
//!
//! This module keeps files, sealing and recovery; what the sealed payloads
//! look like inside is written down once, in `format.rs`.
//!
//! # Commit protocol
//!
//! Writes are **log-then-apply** under the per-table WAL mutex (lock
//! order: WAL → partition state → enclave). A record that fails to append
//! is *not* applied in memory, so the log never lags the applied state:
//! replaying a prefix of the WAL always reproduces a state the crashed
//! process actually exposed. Delta rows are addressed by their *absolute
//! position* (`PartitionState::drained_total` + local index), which stays
//! stable across merges because publishes fold exactly a delta prefix.
//!
//! # Crash injection
//!
//! [`FailPoint`]s model a crash at the vulnerable spots: the storage
//! writes exactly what a killed process would have left behind (a half
//! frame, an un-fsynced record, an orphaned tmp file), then poisons
//! itself — every later operation fails like the process is gone — and
//! the test recovers from disk.

use super::compaction::execute_compaction;
use super::format::{self, corrupt, DeleteRecord, Floor, MergeRecord, WalRecord};
use super::partition::{MainState, Partition};
use super::table::ServerTable;
use super::{lock, CellValue, DbaasServer, MERGE_RETRIES};
use crate::error::DbError;
use crate::obs::{Counter, Hist, Obs, SpanId};
use crate::schema::TableSchema;
use crate::server::stats::DurabilityStats;
use colstore::dictionary::RecordId;
use colstore::persist::{frame, read_frames, FrameTail};
use encdict::DictEnclave;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// How eagerly the durable layer trades write latency for persistence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityPolicy {
    /// `fsync` the WAL after every batch of this many appended records.
    /// `1` (the default) syncs every append — a committed write survives
    /// an OS crash. Larger batches amortize the sync cost and bound the
    /// loss window to the unsynced tail (process crashes lose nothing
    /// either way: the bytes are in the page cache).
    pub wal_fsync_batch: usize,
    /// Sealed snapshot epochs kept per partition (at least 1). Keeping 2
    /// lets recovery fall back one epoch when the newest file is damaged,
    /// re-deriving the lost epoch from the WAL's merge record.
    pub snapshot_history: usize,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            wal_fsync_batch: 1,
            snapshot_history: 2,
        }
    }
}

/// An injectable crash point: the storage performs the partial work a
/// crash at that spot would leave on disk, then fails the operation and
/// poisons itself (every later durable operation errors) so tests can
/// only continue by recovering from disk, exactly like a killed process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailPoint {
    /// Crash mid-append: half a WAL frame reaches the file, no fsync.
    WalTornAppend,
    /// Crash between a complete WAL append and its fsync: the frame is in
    /// the page cache (visible after an in-process restart) but the
    /// caller never saw the operation commit.
    WalAppendNoFsync,
    /// Crash mid-write of a snapshot tmp file: a torn `.tmp` orphan.
    SnapshotTornWrite,
    /// Crash between a complete snapshot tmp write and its rename: the
    /// published epoch has no snapshot file; recovery falls back to the
    /// previous epoch and replays the merge record.
    SnapshotNoRename,
    /// Crash between a checkpoint's snapshot verification and its WAL
    /// truncation: the full WAL survives and replays over the snapshots.
    CheckpointNoTruncate,
}

/// One open per-table WAL file plus its fsync-batching counter.
#[derive(Debug)]
pub(crate) struct WalFile {
    file: File,
    path: PathBuf,
    pending_syncs: usize,
}

/// The durable half of a [`DbaasServer`]: directory layout, WAL handles,
/// sealing (through the query enclave's identity), crash injection and
/// counters. Shared behind an `Arc` by every server clone.
#[derive(Debug)]
pub(crate) struct Storage {
    dir: PathBuf,
    policy: DurabilityPolicy,
    /// The sealing identity: both server enclaves run the same measured
    /// code on the same platform, so sealing through the query enclave
    /// produces blobs any same-identity enclave (including a freshly
    /// started one after a restart) can unseal.
    enclave: Arc<Mutex<DictEnclave>>,
    rng: Mutex<StdRng>,
    wals: Mutex<HashMap<String, Arc<Mutex<WalFile>>>>,
    stats: Mutex<DurabilityStats>,
    armed: Mutex<Option<FailPoint>>,
    /// Set once a fail point fires: the simulated process is dead.
    crashed: AtomicBool,
    /// The owning server's observability sink (WAL/snapshot counters,
    /// latency histograms and durability spans).
    obs: Obs,
}

impl Storage {
    pub(crate) fn new(
        dir: &Path,
        policy: DurabilityPolicy,
        enclave: Arc<Mutex<DictEnclave>>,
        obs: Obs,
    ) -> Result<Self, DbError> {
        std::fs::create_dir_all(dir).map_err(io_err("creating storage dir", dir))?;
        Ok(Storage {
            dir: dir.to_path_buf(),
            policy: DurabilityPolicy {
                wal_fsync_batch: policy.wal_fsync_batch.max(1),
                snapshot_history: policy.snapshot_history.max(1),
            },
            enclave,
            rng: Mutex::new(StdRng::from_entropy()),
            wals: Mutex::new(HashMap::new()),
            stats: Mutex::new(DurabilityStats::default()),
            armed: Mutex::new(None),
            crashed: AtomicBool::new(false),
            obs,
        })
    }

    pub(crate) fn stats(&self) -> DurabilityStats {
        *lock(&self.stats)
    }

    pub(crate) fn arm(&self, point: FailPoint) {
        *lock(&self.armed) = Some(point);
    }

    fn with_stats(&self, f: impl FnOnce(&mut DurabilityStats)) {
        f(&mut lock(&self.stats));
    }

    /// Counts a failed snapshot persist (the publish itself stands; see
    /// [`DurabilityStats::snapshot_persist_failures`]).
    pub(crate) fn note_snapshot_persist_failure(&self) {
        self.with_stats(|s| s.snapshot_persist_failures += 1);
    }

    /// Counts one replayed WAL record: `applied` if it changed state,
    /// skipped if the loaded snapshots already contained its effect.
    fn note_replay(&self, applied: bool) {
        self.with_stats(|s| {
            if applied {
                s.wal_records_replayed += 1;
            } else {
                s.wal_records_skipped += 1;
            }
        });
    }

    /// Fails if the simulated process already crashed, or fires `point` if
    /// it is the armed one (leaving whatever partial on-disk state the
    /// caller produced before asking).
    fn fire(&self, point: FailPoint) -> Result<(), DbError> {
        self.check_alive()?;
        if *lock(&self.armed) == Some(point) {
            *lock(&self.armed) = None;
            self.crashed.store(true, Ordering::SeqCst);
            self.with_stats(|s| s.injected_crashes += 1);
            return Err(DbError::Durability(format!(
                "injected crash at {point:?}; recover from disk to continue"
            )));
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), DbError> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(DbError::Durability(
                "storage crashed at an injected fail point; recover from disk".to_string(),
            ));
        }
        Ok(())
    }

    fn table_dir(&self, table: &str) -> Result<PathBuf, DbError> {
        if table.is_empty()
            || !table
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
        {
            return Err(DbError::Durability(format!(
                "table name {table:?} is not a safe directory name"
            )));
        }
        Ok(self.dir.join(table))
    }

    fn seal(&self, payload: &[u8]) -> Vec<u8> {
        let mut enclave = lock(&self.enclave);
        let mut rng = lock(&self.rng);
        enclave.enclave_mut().seal_data(&mut *rng, payload)
    }

    fn unseal(&self, blob: &[u8], context: &str) -> Result<Vec<u8>, DbError> {
        lock(&self.enclave)
            .enclave_mut()
            .unseal_data(blob)
            .map_err(|source| DbError::Unseal {
                context: context.to_string(),
                source,
            })
    }

    /// The payload of a file that is one sealed frame; `what` names it.
    fn read_sealed(&self, path: &Path, what: &str) -> Result<Vec<u8>, DbError> {
        let bytes = std::fs::read(path).map_err(io_err("reading", path))?;
        let (frames, tail) = read_frames(&bytes);
        if frames.len() != 1 || tail != FrameTail::Clean {
            return Err(DbError::Durability(format!(
                "{what} {} is not one clean frame",
                path.display()
            )));
        }
        self.unseal(frames[0], &format!("{what} {}", path.display()))
    }

    // -- WAL ---------------------------------------------------------------

    /// The WAL handle of a table, opening (and header-stamping) the file
    /// on first use. Lookup and creation happen atomically under the map
    /// lock: two racing callers must share one handle, because two
    /// mutexes over one file would break the writer serialization that
    /// absolute delta positions rely on — and both would stamp a header
    /// into an empty file, which replay rejects as a duplicate.
    pub(crate) fn wal_handle(&self, table: &str) -> Result<Arc<Mutex<WalFile>>, DbError> {
        self.check_alive()?;
        let mut wals = lock(&self.wals);
        if let Some(w) = wals.get(table) {
            return Ok(Arc::clone(w));
        }
        let dir = self.table_dir(table)?;
        std::fs::create_dir_all(&dir).map_err(io_err("creating", &dir))?;
        let path = dir.join("wal.log");
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err("opening", &path))?;
        let is_empty = file.metadata().map_err(io_err("stat", &path))?.len() == 0;
        let mut wal = WalFile {
            file,
            path,
            pending_syncs: 0,
        };
        if is_empty {
            self.append_record(&mut wal, &WalRecord::Header(table))?;
        }
        let handle = Arc::new(Mutex::new(wal));
        wals.insert(table.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Seals, frames and appends one record; fsync per the policy batch.
    /// Log-then-apply: callers append **before** mutating memory, so an
    /// error here (including an injected crash) means the operation simply
    /// did not happen.
    pub(crate) fn append_record(
        &self,
        wal: &mut WalFile,
        record: &WalRecord<'_>,
    ) -> Result<(), DbError> {
        self.check_alive()?;
        let span = self.obs.span("wal.append", "durability", &SpanId::NONE);
        let framed = frame(&self.seal(&record.encode()));
        if *lock(&self.armed) == Some(FailPoint::WalTornAppend) {
            // A crash mid-write: half the frame reaches the file.
            let _ = wal.file.write_all(&framed[..framed.len() / 2]);
            return self.fire(FailPoint::WalTornAppend);
        }
        wal.file
            .write_all(&framed)
            .map_err(io_err("appending to", &wal.path))?;
        self.fire(FailPoint::WalAppendNoFsync)?;
        wal.pending_syncs += 1;
        if wal.pending_syncs >= self.policy.wal_fsync_batch {
            let fsync_span = self.obs.span("wal.fsync", "durability", span.id());
            wal.file
                .sync_data()
                .map_err(io_err("fsync of", &wal.path))?;
            fsync_span.finish_into(Hist::WalFsyncNs);
            wal.pending_syncs = 0;
            self.obs.add(Counter::WalFsyncsTotal, 1);
            self.with_stats(|s| s.wal_fsyncs += 1);
        }
        self.with_stats(|s| {
            s.wal_records_appended += 1;
            s.wal_bytes_appended += framed.len() as u64;
        });
        self.obs.add(Counter::WalRecordsTotal, 1);
        span.finish_into(Hist::WalAppendNs);
        Ok(())
    }

    /// Checkpoint epilogue: drops every logged record (their effects are
    /// in the verified snapshots), restamps the header and logs the
    /// checkpoint floor so recovery can detect a snapshot regressing
    /// behind the truncated log.
    fn truncate_wal(
        &self,
        table: &str,
        wal: &mut WalFile,
        floors: &[Floor],
    ) -> Result<(), DbError> {
        self.check_alive()?;
        wal.file
            .set_len(0)
            .map_err(io_err("truncating", &wal.path))?;
        wal.pending_syncs = 0;
        self.with_stats(|s| s.wal_truncations += 1);
        self.append_record(wal, &WalRecord::Header(table))?;
        self.append_record(wal, &WalRecord::Checkpoint(floors.to_vec()))?;
        wal.file
            .sync_data()
            .map_err(io_err("fsync of", &wal.path))?;
        Ok(())
    }

    // -- Sealed snapshots --------------------------------------------------

    fn snapshot_path(&self, table: &str, pid: usize, epoch: u64) -> Result<PathBuf, DbError> {
        Ok(self.table_dir(table)?.join(format!("p{pid}-e{epoch}.snap")))
    }

    /// Persists one partition's published main state as a sealed snapshot
    /// file (tmp write + atomic rename), then prunes history.
    pub(crate) fn persist_snapshot(
        &self,
        schema: &TableSchema,
        pid: usize,
        main: &MainState,
        drained_total: u64,
    ) -> Result<(), DbError> {
        self.check_alive()?;
        let span = self
            .obs
            .span_arg("snapshot.persist", "durability", &SpanId::NONE, pid as u64);
        let payload = format::encode_snapshot(schema, pid, main, drained_total);
        let framed = frame(&self.seal(&payload));
        let dir = self.table_dir(&schema.name)?;
        std::fs::create_dir_all(&dir).map_err(io_err("creating", &dir))?;
        let path = self.snapshot_path(&schema.name, pid, main.epoch)?;
        let tmp = dir.join(format!("p{pid}-e{}.snap.tmp", main.epoch));
        if *lock(&self.armed) == Some(FailPoint::SnapshotTornWrite) {
            let _ = write_synced(&tmp, &framed[..framed.len() / 2]);
            return self.fire(FailPoint::SnapshotTornWrite);
        }
        write_synced(&tmp, &framed)?;
        self.fire(FailPoint::SnapshotNoRename)?;
        std::fs::rename(&tmp, &path).map_err(io_err("publishing snapshot", &path))?;
        self.with_stats(|s| s.snapshots_persisted += 1);
        self.obs.add(Counter::SnapshotsPersistedTotal, 1);
        self.prune_snapshots(&schema.name, pid, main.epoch, self.policy.snapshot_history)?;
        span.finish_into(Hist::SnapshotPersistNs);
        Ok(())
    }

    /// Persists the snapshot only if its file is not already on disk —
    /// heals an earlier persist failure before a checkpoint truncates the
    /// WAL records that could otherwise re-derive the epoch.
    fn ensure_snapshot(
        &self,
        schema: &TableSchema,
        pid: usize,
        main: &MainState,
        drained_total: u64,
    ) -> Result<(), DbError> {
        if self.snapshot_path(&schema.name, pid, main.epoch)?.exists() {
            return Ok(());
        }
        self.persist_snapshot(schema, pid, main, drained_total)
    }

    /// Removes snapshot files of `pid` older than `keep` epochs behind
    /// `newest` (and stale tmp orphans of pruned epochs).
    fn prune_snapshots(
        &self,
        table: &str,
        pid: usize,
        newest: u64,
        keep: usize,
    ) -> Result<(), DbError> {
        let floor = newest.saturating_sub(keep.max(1) as u64 - 1);
        for (epoch, path) in self.list_snapshots(table, pid)? {
            if epoch < floor && std::fs::remove_file(&path).is_ok() {
                self.with_stats(|s| s.snapshots_pruned += 1);
            }
        }
        Ok(())
    }

    /// Snapshot files of one partition, newest epoch first.
    fn list_snapshots(&self, table: &str, pid: usize) -> Result<Vec<(u64, PathBuf)>, DbError> {
        let dir = self.table_dir(table)?;
        let prefix = format!("p{pid}-e");
        let mut out = Vec::new();
        let entries = match std::fs::read_dir(&dir) {
            Ok(entries) => entries,
            Err(_) => return Ok(out),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(epoch_str) = rest.strip_suffix(".snap") else {
                continue;
            };
            if let Ok(epoch) = epoch_str.parse::<u64>() {
                out.push((epoch, entry.path()));
            }
        }
        out.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
        Ok(out)
    }

    /// Loads the newest valid snapshot of one partition, walking back
    /// through history when files are damaged (framing, unseal or embedded
    /// identity failures), and reporting everything in the stats.
    fn load_partition_snapshot(
        &self,
        schema: &TableSchema,
        pid: usize,
    ) -> Result<Partition, DbError> {
        let candidates = self.list_snapshots(&schema.name, pid)?;
        let mut rejected = 0usize;
        for (epoch, path) in &candidates {
            let loaded = self
                .read_sealed(path, "snapshot")
                .and_then(|payload| format::decode_snapshot(schema, pid, *epoch, &payload));
            match loaded {
                Ok(loaded) => {
                    self.with_stats(|s| {
                        s.snapshots_loaded += 1;
                        if rejected > 0 {
                            s.snapshot_fallbacks += 1;
                        }
                    });
                    return Ok(loaded);
                }
                Err(_) => {
                    rejected += 1;
                    self.with_stats(|s| s.snapshots_rejected += 1);
                }
            }
        }
        Err(DbError::Durability(format!(
            "partition {pid} of {}: no valid sealed snapshot among {} candidate file(s)",
            schema.name,
            candidates.len()
        )))
    }

    // -- Manifest ----------------------------------------------------------

    /// Writes the sealed table manifest (schema + partitioning); failure
    /// here fails the deploy — a table the server cannot recover must not
    /// silently accept writes.
    fn persist_manifest(&self, schema: &TableSchema) -> Result<(), DbError> {
        self.check_alive()?;
        let dir = self.table_dir(&schema.name)?;
        std::fs::create_dir_all(&dir).map_err(io_err("creating", &dir))?;
        let framed = frame(&self.seal(&format::encode_manifest(schema)));
        let path = dir.join("table.manifest");
        let tmp = dir.join("table.manifest.tmp");
        write_synced(&tmp, &framed)?;
        std::fs::rename(&tmp, &path).map_err(io_err("publishing", &path))?;
        Ok(())
    }

    fn load_manifest(&self, table: &str) -> Result<TableSchema, DbError> {
        let path = self.table_dir(table)?.join("table.manifest");
        let payload = self.read_sealed(&path, "manifest")?;
        let schema = format::decode_manifest(&payload)?;
        if schema.name != table {
            return Err(DbError::Durability(format!(
                "manifest in {table}/ describes table {}",
                schema.name
            )));
        }
        Ok(schema)
    }

    /// Makes a freshly deployed (or durably attached) table recoverable:
    /// manifest, one sealed snapshot per partition at its current epoch,
    /// and a header-stamped WAL.
    pub(crate) fn persist_new_table(&self, t: &ServerTable) -> Result<(), DbError> {
        self.persist_manifest(&t.schema)?;
        for p in &t.partitions {
            let (main, drained) = {
                let state = lock(&p.state);
                (Arc::clone(state.main()), state.drained_total())
            };
            self.ensure_snapshot(&t.schema, p.index, &main, drained)?;
        }
        self.wal_handle(&t.schema.name)?;
        Ok(())
    }

    /// Errors when the directory already holds a previous incarnation's
    /// durable state (a table manifest or WAL). Attaching a *fresh*
    /// deployment over it would append to the old WAL (whose header is
    /// only stamped into an empty file) and mix snapshot generations,
    /// leaving a directory recovery can only partially replay — such a
    /// directory must be reopened with [`DbaasServer::recover`] /
    /// `Session::open` instead.
    fn refuse_existing_state(&self) -> Result<(), DbError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(_) => return Ok(()),
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            for marker in ["table.manifest", "wal.log"] {
                if path.join(marker).exists() {
                    return Err(DbError::Durability(format!(
                        "{} already holds durable state ({}); reopen it with \
                         recover()/Session::open instead of attaching a fresh deployment",
                        self.dir.display(),
                        path.join(marker).display()
                    )));
                }
            }
        }
        Ok(())
    }

    /// Table names found in the storage directory (dirs with a manifest).
    fn stored_tables(&self) -> Result<Vec<String>, DbError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(&self.dir).map_err(io_err("reading", &self.dir))?;
        for entry in entries.flatten() {
            if !entry.path().is_dir() || !entry.path().join("table.manifest").exists() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                out.push(name.to_string());
            }
        }
        out.sort();
        Ok(out)
    }
}

fn already_attached() -> DbError {
    DbError::Durability("durable storage is already attached".to_string())
}

/// The text of an I/O failure on a storage file.
fn io_err<'a>(verb: &'a str, path: &'a Path) -> impl FnOnce(std::io::Error) -> DbError + 'a {
    move |e| DbError::Durability(format!("{verb} {}: {e}", path.display()))
}

/// Writes `bytes` as the file `tmp` and syncs its data, so that the rename
/// publishing it can never expose a file whose contents a crash may lose.
fn write_synced(tmp: &Path, bytes: &[u8]) -> Result<(), DbError> {
    let mut f = File::create(tmp).map_err(io_err("creating", tmp))?;
    f.write_all(bytes).map_err(io_err("writing", tmp))?;
    f.sync_data().map_err(io_err("fsync of", tmp))
}

/// Why replay stopped at a record.
enum ReplayStop {
    /// The record does not unseal, decode or meet the replayed state: the
    /// log is cut here and the prefix stands.
    Rejected,
    /// The directory as a whole cannot be served — another table's log, a
    /// checkpoint floor above the loaded snapshots: recovery refuses.
    Unrecoverable(DbError),
}

impl From<DbError> for ReplayStop {
    fn from(_: DbError) -> Self {
        ReplayStop::Rejected
    }
}

/// Flips at an older epoch are already folded into the loaded (or
/// merge-replayed) main store; at the current epoch they re-apply
/// idempotently.
fn replay_delete(storage: &Storage, p: &Partition, mut d: DeleteRecord) -> Result<(), DbError> {
    let mut state = lock(&p.state);
    if d.epoch > state.main().epoch {
        return Err(corrupt("delete epoch ahead of the replayed timeline"));
    }
    if d.epoch < state.main().epoch {
        d.main_rids.clear();
    } else if d
        .main_rids
        .iter()
        .any(|rid| rid.0 as usize >= state.main().rows)
    {
        return Err(corrupt("delete main rid out of range"));
    }
    let mut delta_rids = Vec::with_capacity(d.delta_abs.len());
    for abs in d.delta_abs {
        // Below the base: folded by a merge the timeline already passed.
        if let Some(local) = abs.checked_sub(state.drained_total()) {
            if local >= state.delta_rows() as u64 {
                return Err(corrupt("delete delta position out of range"));
            }
            delta_rids.push(RecordId(local as u32));
        }
    }
    let flipped = state.invalidate(&d.main_rids, &delta_rids);
    storage.note_replay(flipped > 0);
    Ok(())
}

// ---------------------------------------------------------------------------
// DbaasServer durability surface
// ---------------------------------------------------------------------------

impl DbaasServer {
    /// The attached durable storage, if any.
    pub(crate) fn storage(&self) -> Option<Arc<Storage>> {
        lock(&self.storage).clone()
    }

    fn attached_storage(&self) -> Result<Arc<Storage>, DbError> {
        self.storage()
            .ok_or_else(|| DbError::Durability("no durable storage attached".to_string()))
    }

    /// Attaches durable storage under `dir` to a running server: every
    /// already-deployed table is first folded to quiescence (deltas
    /// merged, deletions compacted away — the sealed snapshot format
    /// captures exactly a published epoch, so persisting a partition with
    /// live delta rows or invalidated main rows would lose the former and
    /// resurrect the latter on recovery), then persisted (manifest +
    /// sealed snapshots at the current epochs + WAL). From here on every
    /// insert, delete and epoch publish is logged/persisted.
    ///
    /// `dir` must not hold a previous deployment's durable state — reopen
    /// such a directory with [`DbaasServer::recover`] instead. Writes
    /// racing the attach are not guaranteed a spot in the initial
    /// snapshots; quiesce writers around this call.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] if storage is already attached, `dir`
    /// already holds durable state, the initial persistence fails, or
    /// concurrent writes keep the tables from reaching quiescence; merge
    /// errors propagate.
    pub fn attach_durability(
        &self,
        dir: impl AsRef<Path>,
        policy: DurabilityPolicy,
    ) -> Result<(), DbError> {
        if lock(&self.storage).is_some() {
            return Err(already_attached());
        }
        for _attempt in 0..MERGE_RETRIES {
            // Fold outside the storage lock: the publish path of these
            // merges takes it to look for a WAL.
            let names: Vec<String> = {
                let tables = self.tables.read().unwrap_or_else(|e| e.into_inner());
                tables.keys().cloned().collect()
            };
            for name in &names {
                self.merge_table(name)?;
            }
            let mut slot = lock(&self.storage);
            if slot.is_some() {
                return Err(already_attached());
            }
            // Hold the tables write lock across the quiescence check and
            // the initial persistence so no deploy or new write slips
            // between "snapshotted" and "logged".
            let tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
            let quiescent = tables
                .values()
                .all(|t| t.partitions.iter().all(|p| lock(&p.state).is_quiescent()));
            if !quiescent {
                continue; // A write raced the fold above; merge again.
            }
            let storage = Arc::new(Storage::new(
                dir.as_ref(),
                policy,
                Arc::clone(&self.enclave),
                self.obs().clone(),
            )?);
            storage.refuse_existing_state()?;
            for t in tables.values() {
                storage.persist_new_table(t)?;
            }
            *slot = Some(storage);
            return Ok(());
        }
        Err(DbError::Durability(
            "attach_durability kept racing concurrent writes; quiesce writers and retry"
                .to_string(),
        ))
    }

    /// Rebuilds this (empty, provisioned) server from a storage directory:
    /// loads the newest valid sealed snapshot of every partition, replays
    /// the WAL suffix past the loaded epochs (re-executing logged merges),
    /// truncates torn WAL tails and attaches the storage for further
    /// writes. Damaged files trigger fallback to older epochs and are
    /// reported in [`DbaasServer::durability_stats`]; only a partition
    /// with **no** valid snapshot at all fails the recovery.
    ///
    /// Both enclaves must already be provisioned (the data owner
    /// re-attests and re-provisions `SK_DB`; see `Session::open`) —
    /// unsealing needs no key, but replaying a logged merge rebuilds
    /// dictionaries inside the merge enclave.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] on unusable on-disk state (or a non-empty
    /// server), [`DbError::Unseal`] never escapes — unseal failures are
    /// per-file fallbacks.
    pub fn recover(&self, dir: impl AsRef<Path>, policy: DurabilityPolicy) -> Result<(), DbError> {
        let mut slot = lock(&self.storage);
        if slot.is_some() {
            return Err(already_attached());
        }
        let storage = Arc::new(Storage::new(
            dir.as_ref(),
            policy,
            Arc::clone(&self.enclave),
            self.obs().clone(),
        )?);
        let mut tables = self.tables.write().unwrap_or_else(|e| e.into_inner());
        if !tables.is_empty() {
            return Err(DbError::Durability(
                "recover requires a server with no deployed tables".to_string(),
            ));
        }
        let obs = self.obs().clone();
        let span = obs.span("recover", "durability", &SpanId::NONE);
        for name in storage.stored_tables()? {
            let table = self.recover_table(&storage, &name, span.id())?;
            tables.insert(name, table);
        }
        *slot = Some(storage);
        obs.add(Counter::RecoveriesTotal, 1);
        span.finish_into(Hist::RecoveryNs);
        Ok(())
    }

    fn recover_table(
        &self,
        storage: &Storage,
        name: &str,
        parent: &SpanId,
    ) -> Result<Arc<ServerTable>, DbError> {
        let schema = storage.load_manifest(name)?;
        let load_span = self.obs().span("recovery.load", "durability", parent);
        let mut partitions = Vec::with_capacity(schema.partition_count());
        for pid in 0..schema.partition_count() {
            partitions.push(Arc::new(storage.load_partition_snapshot(&schema, pid)?));
        }
        load_span.finish();
        let table = Arc::new(ServerTable::from_parts(schema, partitions));
        let replay_span = self.obs().span("recovery.replay", "durability", parent);
        self.replay_wal(storage, &table)?;
        replay_span.finish();
        Ok(table)
    }

    /// Replays a table's WAL over its loaded snapshots, in append order.
    /// Stops at (and truncates) a torn or corrupt tail; a record whose
    /// sealed payload fails to unseal or decode past a valid CRC frame is
    /// targeted corruption — replay also stops there, keeping the applied
    /// state a consistent prefix of the log.
    fn replay_wal(&self, storage: &Storage, t: &ServerTable) -> Result<(), DbError> {
        let path = storage.table_dir(&t.schema.name)?.join("wal.log");
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return Ok(()), // No WAL yet: snapshots are the state.
        };
        let (frames, tail) = read_frames(&bytes);
        let mut valid_prefix = tail.valid_prefix(bytes.len());
        let mut consumed = 0usize;
        for (i, sealed) in frames.iter().enumerate() {
            let replayed = storage
                .unseal(sealed, &format!("WAL record {i} of {}", t.schema.name))
                .map_err(ReplayStop::from)
                .and_then(|payload| self.replay_record(storage, t, i, &payload));
            match replayed {
                Ok(()) => consumed += sealed.len() + colstore::persist::FRAME_HEADER_BYTES,
                Err(ReplayStop::Unrecoverable(e)) => return Err(e),
                Err(ReplayStop::Rejected) => {
                    storage.with_stats(|s| s.wal_records_rejected += 1);
                    valid_prefix = valid_prefix.min(consumed);
                    break;
                }
            }
        }
        if valid_prefix < bytes.len() {
            let file = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(io_err("truncating", &path))?;
            file.set_len(valid_prefix as u64)
                .map_err(io_err("truncating", &path))?;
            storage.with_stats(|s| {
                s.wal_torn_tails += 1;
                s.wal_torn_tail_bytes += (bytes.len() - valid_prefix) as u64;
            });
        }
        Ok(())
    }

    /// Decodes one record whole, checks it against the partitions it names
    /// and only then applies it, by the transition the live path called:
    /// rejecting a record must leave none of it applied, or the recovered
    /// memory state would run ahead of the log it is supposed to equal.
    fn replay_record(
        &self,
        storage: &Storage,
        t: &ServerTable,
        index: usize,
        payload: &[u8],
    ) -> Result<(), ReplayStop> {
        let partition = |pid: usize| {
            t.partitions
                .get(pid)
                .ok_or_else(|| corrupt("pid out of range"))
        };
        match WalRecord::decode(payload, &t.schema)? {
            WalRecord::Header(table) if table != t.schema.name => {
                Err(ReplayStop::Unrecoverable(DbError::Durability(format!(
                    "unrecoverable: WAL of {table} found in {}/ (file swap?)",
                    t.schema.name
                ))))
            }
            WalRecord::Header(_) if index != 0 => {
                Err(corrupt("header record past the start").into())
            }
            WalRecord::Header(_) => Ok(()),
            WalRecord::Insert(groups) => {
                // The live path logs one group per touched partition, in
                // partition order, each starting at that partition's tail.
                let mut apply = Vec::with_capacity(groups.len());
                for (i, g) in groups.iter().enumerate() {
                    if i > 0 && groups[i - 1].pid >= g.pid {
                        return Err(corrupt("insert groups out of partition order").into());
                    }
                    let state = lock(&partition(g.pid)?.state);
                    let tail = state.drained_total() + state.delta_rows() as u64;
                    if g.base_abs == tail {
                        apply.push(g);
                    } else if g.base_abs.saturating_add(g.rows.len() as u64) > state.drained_total()
                    {
                        return Err(corrupt("insert group does not meet the delta tail").into());
                    } // Else fully folded into the loaded snapshot.
                }
                for g in &apply {
                    lock(&t.partitions[g.pid].state)
                        .append_rows(g.rows.iter().map(|row| row.iter().map(CellValue::bytes)));
                }
                storage.note_replay(!apply.is_empty());
                Ok(())
            }
            WalRecord::Delete(d) => Ok(replay_delete(storage, partition(d.pid)?, d)?),
            WalRecord::Merge(m) => Ok(self.replay_merge(storage, t, partition(m.pid)?, m)?),
            WalRecord::Checkpoint(floors) => {
                for f in floors {
                    let state = lock(&partition(f.pid)?.state);
                    // The checkpoint truncated every record that could
                    // advance an older snapshot to this floor; a loaded
                    // snapshot below it cannot be caught up.
                    if state.main().epoch != f.epoch || state.drained_total() != f.drained_total {
                        return Err(ReplayStop::Unrecoverable(DbError::Durability(format!(
                            "unrecoverable: partition {} of {} recovered at epoch {} \
                             but the WAL was truncated at checkpoint epoch {}",
                            f.pid,
                            t.schema.name,
                            state.main().epoch,
                            f.epoch
                        ))));
                    }
                }
                storage.note_replay(true);
                Ok(())
            }
        }
    }

    /// Re-executes a logged epoch publish. The merge enclave reassembles
    /// rows deterministically (valid main rows in row order, then valid
    /// delta rows in order), so the rebuilt store is row-for-row identical
    /// to the one the crashed process published — only the ciphertext
    /// randomness differs, which nothing downstream depends on.
    fn replay_merge(
        &self,
        storage: &Storage,
        t: &ServerTable,
        p: &Partition,
        m: MergeRecord,
    ) -> Result<(), DbError> {
        let job = {
            let mut state = lock(&p.state);
            if m.old_epoch < state.main().epoch {
                // The loaded snapshot already contains this publish.
                storage.note_replay(false);
                return Ok(());
            }
            if m.old_epoch > state.main().epoch || m.watermark_abs < state.drained_total() {
                return Err(corrupt("merge epoch ahead of the replayed timeline"));
            }
            let watermark = m.watermark_abs - state.drained_total();
            if watermark > state.delta_rows() as u64 {
                return Err(corrupt("merge watermark past the replayed delta"));
            }
            state.capture(watermark as usize)
        };
        // The transitions the live merge called, around the same rebuild
        // (at full speed: no throttle).
        let built = execute_compaction(&self.merge_enclave, &t.schema, &job, None, self.obs());
        let mut state = lock(&p.state);
        state.end_merge();
        let (columns, rows) = built?;
        state.publish(&job, columns, rows);
        drop(state);
        storage.note_replay(true);
        storage.with_stats(|s| s.merges_replayed += 1);
        Ok(())
    }

    /// Folds every delta into the main stores, verifies each partition's
    /// current epoch has a sealed snapshot on disk (persisting any missing
    /// one), then truncates the table's WAL and prunes older snapshots.
    /// Returns `false` (leaving the WAL alone) when the table is not
    /// quiescent — concurrent writes landed after the merge.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] without attached storage, on I/O failure or
    /// at an injected crash point; merge errors propagate.
    pub fn checkpoint(&self, table: &str) -> Result<bool, DbError> {
        let storage = self.attached_storage()?;
        self.merge_table(table)?;
        let t = self.table_handle(table)?;
        let wal = storage.wal_handle(table)?;
        let mut wal_guard = lock(&wal);
        let mut floors = Vec::with_capacity(t.partitions.len());
        for p in &t.partitions {
            let (main, drained) = {
                let state = lock(&p.state);
                if !state.is_quiescent() {
                    storage.with_stats(|s| s.checkpoints_skipped += 1);
                    return Ok(false);
                }
                (Arc::clone(state.main()), state.drained_total())
            };
            // Writers are blocked on the WAL mutex we hold, so the
            // quiescence verified above cannot be invalidated here.
            storage.ensure_snapshot(&t.schema, p.index, &main, drained)?;
            floors.push(Floor {
                pid: p.index,
                epoch: main.epoch,
                drained_total: drained,
            });
        }
        storage.fire(FailPoint::CheckpointNoTruncate)?;
        storage.truncate_wal(table, &mut wal_guard, &floors)?;
        drop(wal_guard);
        for f in &floors {
            storage.prune_snapshots(table, f.pid, f.epoch, 1)?;
        }
        Ok(true)
    }

    /// Counters of the durable layer, or `None` when storage is not
    /// attached.
    pub fn durability_stats(&self) -> Option<super::stats::DurabilityStats> {
        self.storage().map(|s| s.stats())
    }

    /// Arms a one-shot crash injection (see [`FailPoint`]): the next
    /// operation reaching that point leaves the partial on-disk state a
    /// real crash would, fails, and poisons the storage.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] without attached storage.
    pub fn arm_fail_point(&self, point: FailPoint) -> Result<(), DbError> {
        self.attached_storage()?.arm(point);
        Ok(())
    }
}
