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
use super::partition::{MainColumn, MainState, Partition};
use super::table::ServerTable;
use super::{lock, CellValue, DbaasServer, MERGE_RETRIES};
use crate::error::DbError;
use crate::obs::{Counter, Hist, Obs, SpanId};
use crate::schema::{ColumnSpec, DictChoice, TablePartitioning, TableSchema};
use crate::server::stats::DurabilityStats;
use colstore::dictionary::RecordId;
use colstore::persist::{frame, read_frames, FrameTail};
use encdict::dynamic::MainSnapshot;
use encdict::{DictEnclave, EdKind};
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

const WAL_VERSION: u8 = 1;
const REC_HEADER: u8 = 0;
const REC_INSERT: u8 = 1;
const REC_DELETE: u8 = 2;
const REC_MERGE: u8 = 3;
const REC_CHECKPOINT: u8 = 4;

const SNAPSHOT_MAGIC: &[u8; 8] = b"ENCDBSN1";
const MANIFEST_MAGIC: &[u8; 8] = b"ENCDBMF1";

const CELL_ENCRYPTED: u8 = 0;
const CELL_PLAIN: u8 = 1;

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
        std::fs::create_dir_all(dir).map_err(|e| {
            DbError::Durability(format!("creating storage dir {}: {e}", dir.display()))
        })?;
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
        std::fs::create_dir_all(&dir)
            .map_err(|e| DbError::Durability(format!("creating {}: {e}", dir.display())))?;
        let path = dir.join("wal.log");
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DbError::Durability(format!("opening {}: {e}", path.display())))?;
        let is_empty = file
            .metadata()
            .map_err(|e| DbError::Durability(format!("stat {}: {e}", path.display())))?
            .len()
            == 0;
        let mut wal = WalFile {
            file,
            path,
            pending_syncs: 0,
        };
        if is_empty {
            let mut header = vec![WAL_VERSION, REC_HEADER];
            put_bytes(&mut header, table.as_bytes());
            self.append_record(&mut wal, &header)?;
        }
        let handle = Arc::new(Mutex::new(wal));
        wals.insert(table.to_string(), Arc::clone(&handle));
        Ok(handle)
    }

    /// Seals, frames and appends one record; fsync per the policy batch.
    /// Log-then-apply: callers append **before** mutating memory, so an
    /// error here (including an injected crash) means the operation simply
    /// did not happen.
    pub(crate) fn append_record(&self, wal: &mut WalFile, payload: &[u8]) -> Result<(), DbError> {
        self.check_alive()?;
        let span = self.obs.span("wal.append", "durability", SpanId::NONE);
        let t0 = std::time::Instant::now();
        let framed = frame(&self.seal(payload));
        if *lock(&self.armed) == Some(FailPoint::WalTornAppend) {
            // A crash mid-write: half the frame reaches the file.
            let _ = wal.file.write_all(&framed[..framed.len() / 2]);
            return self.fire(FailPoint::WalTornAppend);
        }
        wal.file.write_all(&framed).map_err(|e| {
            DbError::Durability(format!("appending to {}: {e}", wal.path.display()))
        })?;
        self.fire(FailPoint::WalAppendNoFsync)?;
        wal.pending_syncs += 1;
        if wal.pending_syncs >= self.policy.wal_fsync_batch {
            let fsync_span = self.obs.span("wal.fsync", "durability", span.id());
            let f0 = std::time::Instant::now();
            wal.file.sync_data().map_err(|e| {
                DbError::Durability(format!("fsync of {}: {e}", wal.path.display()))
            })?;
            self.obs
                .record(Hist::WalFsyncNs, f0.elapsed().as_nanos() as u64);
            fsync_span.finish();
            wal.pending_syncs = 0;
            self.obs.add(Counter::WalFsyncsTotal, 1);
            self.with_stats(|s| s.wal_fsyncs += 1);
        }
        self.with_stats(|s| {
            s.wal_records_appended += 1;
            s.wal_bytes_appended += framed.len() as u64;
        });
        self.obs.add(Counter::WalRecordsTotal, 1);
        self.obs
            .record(Hist::WalAppendNs, t0.elapsed().as_nanos() as u64);
        span.finish();
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
        floors: &[(u32, u64, u64)],
    ) -> Result<(), DbError> {
        self.check_alive()?;
        wal.file
            .set_len(0)
            .map_err(|e| DbError::Durability(format!("truncating {}: {e}", wal.path.display())))?;
        wal.pending_syncs = 0;
        self.with_stats(|s| s.wal_truncations += 1);
        let mut header = vec![WAL_VERSION, REC_HEADER];
        put_bytes(&mut header, table.as_bytes());
        self.append_record(wal, &header)?;
        let mut ckpt = vec![WAL_VERSION, REC_CHECKPOINT];
        put_u32(&mut ckpt, floors.len() as u32);
        for &(pid, epoch, drained) in floors {
            put_u32(&mut ckpt, pid);
            put_u64(&mut ckpt, epoch);
            put_u64(&mut ckpt, drained);
        }
        self.append_record(wal, &ckpt)?;
        wal.file
            .sync_data()
            .map_err(|e| DbError::Durability(format!("fsync of {}: {e}", wal.path.display())))?;
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
            .span_arg("snapshot.persist", "durability", SpanId::NONE, pid as u64);
        let t0 = std::time::Instant::now();
        let payload = encode_snapshot(schema, pid, main, drained_total)?;
        let framed = frame(&self.seal(&payload));
        let dir = self.table_dir(&schema.name)?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| DbError::Durability(format!("creating {}: {e}", dir.display())))?;
        let path = self.snapshot_path(&schema.name, pid, main.epoch)?;
        let tmp = dir.join(format!("p{pid}-e{}.snap.tmp", main.epoch));
        let write_tmp = |bytes: &[u8]| -> Result<(), DbError> {
            let mut f = File::create(&tmp)
                .map_err(|e| DbError::Durability(format!("creating {}: {e}", tmp.display())))?;
            f.write_all(bytes)
                .map_err(|e| DbError::Durability(format!("writing {}: {e}", tmp.display())))?;
            f.sync_data()
                .map_err(|e| DbError::Durability(format!("fsync of {}: {e}", tmp.display())))?;
            Ok(())
        };
        if *lock(&self.armed) == Some(FailPoint::SnapshotTornWrite) {
            let _ = write_tmp(&framed[..framed.len() / 2]);
            return self.fire(FailPoint::SnapshotTornWrite);
        }
        write_tmp(&framed)?;
        self.fire(FailPoint::SnapshotNoRename)?;
        std::fs::rename(&tmp, &path).map_err(|e| {
            DbError::Durability(format!("publishing snapshot {}: {e}", path.display()))
        })?;
        self.with_stats(|s| s.snapshots_persisted += 1);
        self.obs.add(Counter::SnapshotsPersistedTotal, 1);
        self.obs
            .record(Hist::SnapshotPersistNs, t0.elapsed().as_nanos() as u64);
        self.prune_snapshots(&schema.name, pid, main.epoch, self.policy.snapshot_history)?;
        span.finish();
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
    ) -> Result<LoadedPartition, DbError> {
        let candidates = self.list_snapshots(&schema.name, pid)?;
        let mut rejected = 0usize;
        for (epoch, path) in &candidates {
            match self.try_load_snapshot(schema, pid, *epoch, path) {
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

    fn try_load_snapshot(
        &self,
        schema: &TableSchema,
        pid: usize,
        epoch: u64,
        path: &Path,
    ) -> Result<LoadedPartition, DbError> {
        let bytes = std::fs::read(path)
            .map_err(|e| DbError::Durability(format!("reading {}: {e}", path.display())))?;
        let (frames, tail) = read_frames(&bytes);
        if frames.len() != 1 || tail != FrameTail::Clean {
            return Err(DbError::Durability(format!(
                "snapshot {} is not one clean frame",
                path.display()
            )));
        }
        let payload = self.unseal(frames[0], &format!("snapshot {}", path.display()))?;
        decode_snapshot(schema, pid, epoch, &payload)
    }

    // -- Manifest ----------------------------------------------------------

    /// Writes the sealed table manifest (schema + partitioning); failure
    /// here fails the deploy — a table the server cannot recover must not
    /// silently accept writes.
    fn persist_manifest(&self, schema: &TableSchema) -> Result<(), DbError> {
        self.check_alive()?;
        let dir = self.table_dir(&schema.name)?;
        std::fs::create_dir_all(&dir)
            .map_err(|e| DbError::Durability(format!("creating {}: {e}", dir.display())))?;
        let framed = frame(&self.seal(&encode_manifest(schema)));
        let path = dir.join("table.manifest");
        let tmp = dir.join("table.manifest.tmp");
        std::fs::write(&tmp, &framed)
            .map_err(|e| DbError::Durability(format!("writing {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| DbError::Durability(format!("publishing {}: {e}", path.display())))?;
        Ok(())
    }

    fn load_manifest(&self, table: &str) -> Result<TableSchema, DbError> {
        let path = self.table_dir(table)?.join("table.manifest");
        let bytes = std::fs::read(&path)
            .map_err(|e| DbError::Durability(format!("reading {}: {e}", path.display())))?;
        let (frames, tail) = read_frames(&bytes);
        if frames.len() != 1 || tail != FrameTail::Clean {
            return Err(DbError::Durability(format!(
                "manifest {} is not one clean frame",
                path.display()
            )));
        }
        let payload = self.unseal(frames[0], &format!("manifest {}", path.display()))?;
        let schema = decode_manifest(&payload)?;
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
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| DbError::Durability(format!("reading {}: {e}", self.dir.display())))?;
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

/// A partition reloaded from its sealed snapshot.
struct LoadedPartition {
    epoch: u64,
    drained_total: u64,
    rows: usize,
    columns: Vec<MainColumn>,
}

// ---------------------------------------------------------------------------
// Record / snapshot / manifest encodings (inside the sealed payloads)
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Bounds-checked little-endian reader over a decoded payload.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DbError> {
        if self.bytes.len() - self.pos < n {
            return Err(DbError::Durability("truncated durable payload".to_string()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DbError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, DbError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DbError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], DbError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn str_field(&mut self) -> Result<String, DbError> {
        String::from_utf8(self.bytes_field()?.to_vec())
            .map_err(|_| DbError::Durability("durable payload string not utf-8".to_string()))
    }

    fn finish(&self) -> Result<(), DbError> {
        if self.pos != self.bytes.len() {
            return Err(DbError::Durability(
                "trailing bytes in durable payload".to_string(),
            ));
        }
        Ok(())
    }
}

/// One per-partition group of an insert record.
pub(crate) struct InsertGroup<'a> {
    pub(crate) pid: usize,
    /// Absolute delta position of the group's first row.
    pub(crate) base_abs: u64,
    pub(crate) rows: &'a [Vec<CellValue>],
}

pub(crate) fn encode_insert(groups: &[InsertGroup<'_>]) -> Vec<u8> {
    let mut out = vec![WAL_VERSION, REC_INSERT];
    put_u32(&mut out, groups.len() as u32);
    for g in groups {
        put_u32(&mut out, g.pid as u32);
        put_u64(&mut out, g.base_abs);
        put_u32(&mut out, g.rows.len() as u32);
        for row in g.rows {
            put_u32(&mut out, row.len() as u32);
            for cell in row {
                match cell {
                    CellValue::Encrypted(ct) => {
                        out.push(CELL_ENCRYPTED);
                        put_bytes(&mut out, ct);
                    }
                    CellValue::Plain(v) => {
                        out.push(CELL_PLAIN);
                        put_bytes(&mut out, v);
                    }
                }
            }
        }
    }
    out
}

pub(crate) fn encode_delete(
    pid: usize,
    epoch: u64,
    main_rids: &[colstore::dictionary::RecordId],
    drained_total: u64,
    delta_rids: &[colstore::dictionary::RecordId],
) -> Vec<u8> {
    let mut out = vec![WAL_VERSION, REC_DELETE];
    put_u32(&mut out, pid as u32);
    put_u64(&mut out, epoch);
    put_u32(&mut out, main_rids.len() as u32);
    for rid in main_rids {
        put_u32(&mut out, rid.0);
    }
    put_u32(&mut out, delta_rids.len() as u32);
    for rid in delta_rids {
        put_u64(&mut out, drained_total + rid.0 as u64);
    }
    out
}

pub(crate) fn encode_merge(pid: usize, old_epoch: u64, watermark_abs: u64) -> Vec<u8> {
    let mut out = vec![WAL_VERSION, REC_MERGE];
    put_u32(&mut out, pid as u32);
    put_u64(&mut out, old_epoch);
    put_u64(&mut out, watermark_abs);
    out
}

fn encode_snapshot(
    schema: &TableSchema,
    pid: usize,
    main: &MainState,
    drained_total: u64,
) -> Result<Vec<u8>, DbError> {
    let mut out = Vec::new();
    out.extend_from_slice(SNAPSHOT_MAGIC);
    put_bytes(&mut out, schema.name.as_bytes());
    put_u32(&mut out, pid as u32);
    put_u64(&mut out, main.epoch);
    put_u64(&mut out, drained_total);
    put_u64(&mut out, main.rows as u64);
    put_u32(&mut out, main.columns.len() as u32);
    for column in &main.columns {
        match column {
            MainColumn::Encrypted(snap) => {
                out.push(CELL_ENCRYPTED);
                let body = encdict::persist::to_bytes(snap.dict(), snap.av());
                put_u64(&mut out, body.len() as u64);
                out.extend_from_slice(&body);
            }
            MainColumn::Plain { dict, av } => {
                out.push(CELL_PLAIN);
                let body = encdict::persist::plain_to_bytes(dict, av);
                put_u64(&mut out, body.len() as u64);
                out.extend_from_slice(&body);
            }
        }
    }
    Ok(out)
}

fn decode_snapshot(
    schema: &TableSchema,
    expect_pid: usize,
    expect_epoch: u64,
    payload: &[u8],
) -> Result<LoadedPartition, DbError> {
    let corrupt = |msg: &str| DbError::Durability(format!("snapshot payload: {msg}"));
    let mut d = Dec::new(payload);
    if d.take(8)? != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let table = d.str_field()?;
    let pid = d.u32()? as usize;
    let epoch = d.u64()?;
    // The embedded identity must match both the schema and the filename:
    // with one shared sealing key, this is what rejects a snapshot file
    // swapped between partitions, epochs or tables.
    if table != schema.name || pid != expect_pid || epoch != expect_epoch {
        return Err(corrupt("embedded identity does not match the file"));
    }
    let drained_total = d.u64()?;
    let rows = d.u64()? as usize;
    let ncols = d.u32()? as usize;
    if ncols != schema.columns.len() {
        return Err(corrupt("column count does not match the schema"));
    }
    let mut columns = Vec::with_capacity(ncols);
    for spec in &schema.columns {
        let tag = d.u8()?;
        let body_len = d.u64()? as usize;
        let body = d.take(body_len)?;
        match (tag, &spec.choice) {
            (CELL_ENCRYPTED, DictChoice::Encrypted(_)) => {
                let (dict, av) = encdict::persist::from_bytes(body)?;
                if av.len() != rows {
                    return Err(corrupt("column is not row-aligned"));
                }
                columns.push(MainColumn::Encrypted(MainSnapshot::new(epoch, dict, av)));
            }
            (CELL_PLAIN, DictChoice::Plain) => {
                let (dict, av) = encdict::persist::plain_from_bytes(body)?;
                if av.len() != rows {
                    return Err(corrupt("column is not row-aligned"));
                }
                columns.push(MainColumn::Plain {
                    dict: Arc::new(dict),
                    av: Arc::new(av),
                });
            }
            _ => return Err(corrupt("column protection does not match the schema")),
        }
    }
    d.finish()?;
    Ok(LoadedPartition {
        epoch,
        drained_total,
        rows,
        columns,
    })
}

fn encode_manifest(schema: &TableSchema) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MANIFEST_MAGIC);
    put_bytes(&mut out, schema.name.as_bytes());
    put_u32(&mut out, schema.columns.len() as u32);
    for spec in &schema.columns {
        put_bytes(&mut out, spec.name.as_bytes());
        out.push(match spec.choice {
            DictChoice::Plain => 0,
            DictChoice::Encrypted(kind) => kind.number(),
        });
        put_u64(&mut out, spec.max_len as u64);
        put_u64(&mut out, spec.bs_max as u64);
    }
    match &schema.partitioning {
        None => out.push(0),
        Some(p) => {
            out.push(1);
            put_bytes(&mut out, p.column.as_bytes());
            put_u32(&mut out, p.split_points.len() as u32);
            for split in &p.split_points {
                put_bytes(&mut out, split);
            }
        }
    }
    out
}

fn decode_manifest(payload: &[u8]) -> Result<TableSchema, DbError> {
    let corrupt = |msg: &str| DbError::Durability(format!("manifest payload: {msg}"));
    let mut d = Dec::new(payload);
    if d.take(8)? != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let name = d.str_field()?;
    let ncols = d.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        let col_name = d.str_field()?;
        let choice = match d.u8()? {
            0 => DictChoice::Plain,
            n => DictChoice::Encrypted(EdKind::from_number(n).ok_or_else(|| corrupt("bad kind"))?),
        };
        let max_len = d.u64()? as usize;
        let bs_max = d.u64()? as usize;
        columns.push(ColumnSpec {
            name: col_name,
            choice,
            max_len,
            bs_max,
        });
    }
    let mut schema = TableSchema::new(name, columns);
    match d.u8()? {
        0 => {}
        1 => {
            let column = d.str_field()?;
            let nsplits = d.u32()? as usize;
            let mut split_points = Vec::with_capacity(nsplits);
            for _ in 0..nsplits {
                split_points.push(d.bytes_field()?.to_vec());
            }
            schema = schema.with_partitioning(TablePartitioning {
                column,
                split_points,
            });
        }
        _ => return Err(corrupt("bad partitioning flag")),
    }
    d.finish()?;
    Ok(schema)
}

// ---------------------------------------------------------------------------
// DbaasServer durability surface
// ---------------------------------------------------------------------------

impl DbaasServer {
    /// The attached durable storage, if any.
    pub(crate) fn storage(&self) -> Option<Arc<Storage>> {
        lock(&self.storage).clone()
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
            return Err(DbError::Durability(
                "durable storage is already attached".to_string(),
            ));
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
                return Err(DbError::Durability(
                    "durable storage is already attached".to_string(),
                ));
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
            return Err(DbError::Durability(
                "durable storage is already attached".to_string(),
            ));
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
        let span = obs.span("recover", "durability", SpanId::NONE);
        let t0 = std::time::Instant::now();
        for name in storage.stored_tables()? {
            let table = self.recover_table(&storage, &name, span.id())?;
            tables.insert(name, table);
        }
        *slot = Some(storage);
        obs.add(Counter::RecoveriesTotal, 1);
        obs.record(Hist::RecoveryNs, t0.elapsed().as_nanos() as u64);
        span.finish();
        Ok(())
    }

    fn recover_table(
        &self,
        storage: &Storage,
        name: &str,
        parent: SpanId,
    ) -> Result<Arc<ServerTable>, DbError> {
        let schema = storage.load_manifest(name)?;
        let load_span = self.obs().span("recovery.load", "durability", parent);
        let mut partitions = Vec::with_capacity(schema.partition_count());
        for pid in 0..schema.partition_count() {
            let loaded = storage.load_partition_snapshot(&schema, pid)?;
            partitions.push(Arc::new(Partition::new(
                pid,
                &schema,
                loaded.columns,
                loaded.rows,
                loaded.epoch,
                loaded.drained_total,
            )));
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
            let framed_len = sealed.len() + colstore::persist::FRAME_HEADER_BYTES;
            let record = match storage
                .unseal(sealed, &format!("WAL record {i} of {}", t.schema.name))
                .and_then(|payload| self.replay_record(storage, t, i, &payload))
            {
                Ok(()) => {
                    consumed += framed_len;
                    continue;
                }
                Err(e) => e,
            };
            match record {
                // Unusable on-disk state detected *by* replay (checkpoint
                // floor above the loaded snapshots) is unrecoverable.
                DbError::Durability(msg) if msg.starts_with("unrecoverable") => {
                    return Err(DbError::Durability(msg));
                }
                _ => {
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
                .map_err(|e| DbError::Durability(format!("truncating {}: {e}", path.display())))?;
            file.set_len(valid_prefix as u64)
                .map_err(|e| DbError::Durability(format!("truncating {}: {e}", path.display())))?;
            storage.with_stats(|s| {
                s.wal_torn_tails += 1;
                s.wal_torn_tail_bytes += (bytes.len() - valid_prefix) as u64;
            });
        }
        Ok(())
    }

    fn replay_record(
        &self,
        storage: &Storage,
        t: &ServerTable,
        index: usize,
        payload: &[u8],
    ) -> Result<(), DbError> {
        let corrupt = |msg: &str| DbError::Durability(format!("WAL record: {msg}"));
        let mut d = Dec::new(payload);
        if d.u8()? != WAL_VERSION {
            return Err(corrupt("unknown version"));
        }
        match d.u8()? {
            REC_HEADER => {
                let table = d.str_field()?;
                d.finish()?;
                if table != t.schema.name {
                    return Err(DbError::Durability(format!(
                        "unrecoverable: WAL of {} found in {}/ (file swap?)",
                        table, t.schema.name
                    )));
                }
                if index != 0 {
                    return Err(corrupt("header record past the start"));
                }
                Ok(())
            }
            REC_INSERT => self.replay_insert(storage, t, &mut d),
            REC_DELETE => self.replay_delete(storage, t, &mut d),
            REC_MERGE => self.replay_merge(storage, t, &mut d),
            REC_CHECKPOINT => {
                let nparts = d.u32()? as usize;
                for _ in 0..nparts {
                    let pid = d.u32()? as usize;
                    let epoch = d.u64()?;
                    let drained = d.u64()?;
                    let p = t
                        .partitions
                        .get(pid)
                        .ok_or_else(|| corrupt("checkpoint pid out of range"))?;
                    let state = lock(&p.state);
                    // The checkpoint truncated every record that could
                    // advance an older snapshot to this floor; a loaded
                    // snapshot below it cannot be caught up.
                    if state.main().epoch != epoch || state.drained_total() != drained {
                        return Err(DbError::Durability(format!(
                            "unrecoverable: partition {pid} of {} recovered at epoch {} \
                             but the WAL was truncated at checkpoint epoch {epoch}",
                            t.schema.name,
                            state.main().epoch
                        )));
                    }
                }
                d.finish()?;
                storage.note_replay(true);
                Ok(())
            }
            _ => Err(corrupt("unknown record type")),
        }
    }

    fn replay_insert(
        &self,
        storage: &Storage,
        t: &ServerTable,
        d: &mut Dec<'_>,
    ) -> Result<(), DbError> {
        let corrupt = |msg: &str| DbError::Durability(format!("WAL insert record: {msg}"));
        // Decode and validate the *whole* record before touching any
        // partition: rejecting a record must leave zero of its rows
        // applied, or the recovered memory state would run ahead of the
        // durable log it is supposed to equal.
        struct Group<'a> {
            pid: usize,
            apply: bool,
            rows: Vec<Vec<&'a [u8]>>,
        }
        let ngroups = d.u32()? as usize;
        let mut groups: Vec<Group<'_>> = Vec::new();
        // Per-partition delta tails as the apply phase would advance them.
        let mut tails: HashMap<usize, u64> = HashMap::new();
        for _ in 0..ngroups {
            let pid = d.u32()? as usize;
            let base_abs = d.u64()?;
            let nrows = d.u32()? as usize;
            let p = t
                .partitions
                .get(pid)
                .ok_or_else(|| corrupt("pid out of range"))?;
            let (drained_total, live_pos) = {
                let state = lock(&p.state);
                (
                    state.drained_total(),
                    state.drained_total() + state.delta_rows() as u64,
                )
            };
            let pos = *tails.entry(pid).or_insert(live_pos);
            let apply = if base_abs == pos {
                tails.insert(pid, pos + nrows as u64);
                true
            } else if base_abs + nrows as u64 <= drained_total {
                false // Fully folded into the loaded snapshot.
            } else {
                return Err(corrupt("group position does not meet the delta tail"));
            };
            let mut rows = Vec::new();
            for _ in 0..nrows {
                let ncells = d.u32()? as usize;
                if ncells != t.schema.columns.len() {
                    return Err(corrupt("cell arity does not match the schema"));
                }
                let mut cells = Vec::with_capacity(ncells);
                for spec in &t.schema.columns {
                    let tag = d.u8()?;
                    let bytes = d.bytes_field()?;
                    match (tag, &spec.choice) {
                        (CELL_ENCRYPTED, DictChoice::Encrypted(_)) => {}
                        (CELL_PLAIN, DictChoice::Plain) => {
                            if bytes.len() > spec.max_len {
                                return Err(corrupt("cell longer than the column maximum"));
                            }
                        }
                        _ => return Err(corrupt("cell form does not match the column")),
                    }
                    cells.push(bytes);
                }
                rows.push(cells);
            }
            groups.push(Group { pid, apply, rows });
        }
        d.finish()?;
        // Apply phase — the transition the live insert called. Everything
        // was validated above, and recovery is single-threaded, so the
        // tails the validation simulated still hold.
        let mut replayed = false;
        for g in groups.iter().filter(|g| g.apply) {
            lock(&t.partitions[g.pid].state)
                .append_rows(g.rows.iter().map(|row| row.iter().copied()));
            replayed = true;
        }
        storage.note_replay(replayed);
        Ok(())
    }

    fn replay_delete(
        &self,
        storage: &Storage,
        t: &ServerTable,
        d: &mut Dec<'_>,
    ) -> Result<(), DbError> {
        let corrupt = |msg: &str| DbError::Durability(format!("WAL delete record: {msg}"));
        let pid = d.u32()? as usize;
        let epoch = d.u64()?;
        let p = t
            .partitions
            .get(pid)
            .ok_or_else(|| corrupt("pid out of range"))?;
        let mut state = lock(&p.state);
        if epoch > state.main().epoch {
            return Err(corrupt("record epoch ahead of the replayed timeline"));
        }
        // Decode and validate the whole record before flipping any bit, as
        // for inserts. Flips at an older epoch are already folded into the
        // loaded (or merge-replayed) main store; at the current epoch they
        // re-apply idempotently.
        let mut main_rids = Vec::new();
        for _ in 0..d.u32()? {
            let rid = d.u32()?;
            if epoch == state.main().epoch {
                if rid as usize >= state.main().rows {
                    return Err(corrupt("main rid out of range"));
                }
                main_rids.push(RecordId(rid));
            }
        }
        let mut delta_rids = Vec::new();
        for _ in 0..d.u32()? {
            let abs = d.u64()?;
            // Below the base: folded by a merge the timeline already passed.
            if let Some(local) = abs.checked_sub(state.drained_total()) {
                if local >= state.delta_rows() as u64 {
                    return Err(corrupt("delta position out of range"));
                }
                delta_rids.push(RecordId(local as u32));
            }
        }
        d.finish()?;
        // The transition the live delete called.
        let flipped = state.invalidate(&main_rids, &delta_rids);
        storage.note_replay(flipped > 0);
        Ok(())
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
        d: &mut Dec<'_>,
    ) -> Result<(), DbError> {
        let corrupt = |msg: &str| DbError::Durability(format!("WAL merge record: {msg}"));
        let pid = d.u32()? as usize;
        let old_epoch = d.u64()?;
        let watermark_abs = d.u64()?;
        d.finish()?;
        let p = t
            .partitions
            .get(pid)
            .ok_or_else(|| corrupt("pid out of range"))?;
        let job = {
            let mut state = lock(&p.state);
            if old_epoch < state.main().epoch {
                // The loaded snapshot already contains this publish.
                storage.note_replay(false);
                return Ok(());
            }
            if old_epoch > state.main().epoch || watermark_abs < state.drained_total() {
                return Err(corrupt("record epoch ahead of the replayed timeline"));
            }
            let watermark = watermark_abs - state.drained_total();
            if watermark > state.delta_rows() as u64 {
                return Err(corrupt("watermark past the replayed delta"));
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
        let Some(storage) = self.storage() else {
            return Err(DbError::Durability(
                "no durable storage attached".to_string(),
            ));
        };
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
            floors.push((p.index as u32, main.epoch, drained));
        }
        storage.fire(FailPoint::CheckpointNoTruncate)?;
        storage.truncate_wal(table, &mut wal_guard, &floors)?;
        drop(wal_guard);
        for &(pid, epoch, _) in &floors {
            storage.prune_snapshots(table, pid as usize, epoch, 1)?;
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
        let Some(storage) = self.storage() else {
            return Err(DbError::Durability(
                "no durable storage attached".to_string(),
            ));
        };
        storage.arm(point);
        Ok(())
    }
}
