//! One range partition of a table: its own epoch-tagged main state, delta
//! stores, validity vectors and merge bookkeeping.
//!
//! A partition is the unit of both query fan-out and compaction: readers
//! snapshot partitions independently (one short lock each, under which
//! only `Arc`s are cloned — stores are shared, never copied), and a
//! background merge captures/rebuilds/publishes exactly one partition
//! while every other partition keeps serving reads and writes from its
//! own state.
//!
//! [`PartitionState`] is the only owner of dynamic state (paper §4.3,
//! DESIGN.md §9): its fields change through four transitions and nowhere
//! else — [`append_rows`](PartitionState::append_rows),
//! [`invalidate`](PartitionState::invalidate),
//! [`capture`](PartitionState::capture) and
//! [`publish`](PartitionState::publish). The live write path, foreground
//! and background compaction, and WAL replay all call these same four, so
//! a recovered partition equals the live one by construction.

use super::lock;
use crate::schema::TableSchema;
use colstore::delta::ValidityVector;
use colstore::dictionary::RecordId;
use encdict::dynamic::MainSnapshot;
use encdict::Dictionary;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The immutable main state of one partition: one generation, swapped
/// wholesale when a compaction publishes. One dictionary + attribute
/// vector per column, encrypted or PLAIN alike.
#[derive(Debug)]
pub(crate) struct MainState {
    pub(crate) epoch: u64,
    pub(crate) columns: Vec<MainSnapshot>,
    pub(crate) rows: usize,
}

/// An owned, consistent view of one partition: `Arc` clones of the main
/// generation, of every column's delta store and of both validity
/// vectors. Everything a read query touches lives here, so queries never
/// hold a lock while searching, scanning or rendering.
#[derive(Debug)]
pub(crate) struct PartitionSnapshot {
    pub(crate) main: Arc<MainState>,
    pub(crate) main_validity: Arc<ValidityVector>,
    /// Valid main rows, captured O(1) under the snapshot lock — lets the
    /// executor skip search ECALLs on empty or fully-invalid partitions
    /// without a popcount.
    pub(crate) main_valid_rows: usize,
    pub(crate) deltas: Vec<Arc<Dictionary>>,
    /// One bit per delta row, shared by every column.
    pub(crate) delta_validity: Arc<ValidityVector>,
    /// Valid delta rows, captured O(1) like `main_valid_rows`.
    pub(crate) delta_valid_rows: usize,
}

impl PartitionSnapshot {
    /// The merge generation this snapshot was taken at.
    pub(crate) fn epoch(&self) -> u64 {
        self.main.epoch
    }

    /// Whether the partition holds no valid row at all — such a shard is
    /// skipped entirely: no search ECALL, no scan, no aggregate part.
    pub(crate) fn is_empty(&self) -> bool {
        self.main_valid_rows == 0 && self.delta_valid_rows == 0
    }
}

/// Everything a merge needs, captured at a delta watermark under one lock
/// ([`PartitionState::capture`]).
pub(crate) struct CompactionJob {
    pub(crate) main: Arc<MainState>,
    pub(crate) main_validity: Arc<ValidityVector>,
    pub(crate) delta_prefixes: Vec<Dictionary>,
    pub(crate) delta_validity: ValidityVector,
    /// Delta rows `0..watermark` are folded by this job.
    pub(crate) watermark: usize,
}

/// Mutable state of one partition, guarded by a short-held mutex. Fields
/// are private: every change is one of the transitions below.
#[derive(Debug)]
pub(crate) struct PartitionState {
    main: Arc<MainState>,
    /// Copy-on-write, like the deltas and `delta_validity` below:
    /// snapshots clone the `Arc`; a write goes through `Arc::make_mut`
    /// and pays a copy only if a snapshot taken since the previous write
    /// is still alive.
    main_validity: Arc<ValidityVector>,
    /// Invalidated main rows — keeps the compaction-policy check O(1)
    /// instead of a popcount scan per write.
    main_invalid: usize,
    /// One ED9 store per column, all `delta_validity.len()` rows long
    /// (paper §4.3). Shared copy-on-write: a snapshot clones the `Arc`,
    /// freezing the store as it saw it, and the partition writes through
    /// [`Arc::make_mut`], which copies the store only while such a clone
    /// is alive.
    deltas: Vec<Arc<Dictionary>>,
    /// The one validity vector of the delta side.
    delta_validity: Arc<ValidityVector>,
    /// Invalidated delta rows, so that a snapshot counts nothing.
    delta_invalid: usize,
    merge_in_flight: bool,
    /// Delta rows below this watermark are being folded by the in-flight
    /// merge.
    merge_watermark: usize,
    /// Set when a delete touched rows the in-flight merge already read;
    /// the publish is then aborted and retried.
    deletes_during_merge: bool,
    /// Total delta rows ever folded into the main store by publishes —
    /// the base of the partition's *absolute* delta position space. A
    /// delta row at local index `i` has the stable absolute position
    /// `drained_total + i`, which is what WAL records address so replay
    /// can tell folded rows from live ones.
    drained_total: u64,
}

impl PartitionState {
    /// The published main generation.
    pub(crate) fn main(&self) -> &Arc<MainState> {
        &self.main
    }

    /// Rows in the delta stores, valid or not.
    pub(crate) fn delta_rows(&self) -> usize {
        self.delta_validity.len()
    }

    /// Invalidated rows of the main store.
    pub(crate) fn main_invalid(&self) -> usize {
        self.main_invalid
    }

    /// The absolute position of delta row 0.
    pub(crate) fn drained_total(&self) -> u64 {
        self.drained_total
    }

    /// Whether a merge is rebuilding this partition right now.
    pub(crate) fn merge_in_flight(&self) -> bool {
        self.merge_in_flight
    }

    /// Rows a query can still see.
    pub(crate) fn valid_rows(&self) -> usize {
        self.main.rows - self.main_invalid + self.delta_rows() - self.delta_invalid
    }

    /// Whether a merge would change anything: delta rows to fold or
    /// deleted main rows to purge.
    fn has_work(&self) -> bool {
        self.delta_rows() > 0 || self.main_invalid > 0
    }

    /// Nothing to fold and nothing folding: the published main store *is*
    /// the partition (what a sealed snapshot can capture).
    pub(crate) fn is_quiescent(&self) -> bool {
        !self.has_work() && !self.merge_in_flight
    }

    /// **Transition 1 — insert.** Appends rows to the delta stores, all
    /// valid: one item per row, one cell (the stored bytes) per column in
    /// schema order. Callers have validated arity and lengths,
    /// re-encrypted encrypted cells and, with durable storage, logged the
    /// rows first.
    pub(crate) fn append_rows<'a, R>(&mut self, rows: impl IntoIterator<Item = R>)
    where
        R: IntoIterator<Item = &'a [u8]>,
    {
        for row in rows {
            let mut cells = row.into_iter();
            for delta in &mut self.deltas {
                let cell = cells.next().expect("callers validated the row arity");
                Arc::make_mut(delta).push(cell);
            }
            Arc::make_mut(&mut self.delta_validity).push(true);
        }
    }

    /// **Transition 2 — delete.** Clears the validity bits of the given
    /// main and (local) delta rows and returns how many actually flipped —
    /// a racing delete of the same rows must not double-report. A flip of
    /// a row the in-flight merge already read marks that merge's publish
    /// for abort.
    ///
    /// # Panics
    ///
    /// Panics on a RecordID outside the store it names.
    pub(crate) fn invalidate(&mut self, main_rids: &[RecordId], delta_rids: &[RecordId]) -> usize {
        let mut flipped_main = 0usize;
        if !main_rids.is_empty() {
            let validity = Arc::make_mut(&mut self.main_validity);
            for rid in main_rids {
                if validity.is_valid(rid.0 as usize) {
                    validity.invalidate(rid.0 as usize);
                    flipped_main += 1;
                }
            }
            self.main_invalid += flipped_main;
        }
        let mut flipped_delta = 0usize;
        let mut flipped_merged_delta = false;
        if !delta_rids.is_empty() {
            let validity = Arc::make_mut(&mut self.delta_validity);
            for rid in delta_rids {
                if validity.is_valid(rid.0 as usize) {
                    validity.invalidate(rid.0 as usize);
                    flipped_delta += 1;
                    flipped_merged_delta |= (rid.0 as usize) < self.merge_watermark;
                }
            }
            self.delta_invalid += flipped_delta;
        }
        if self.merge_in_flight && (flipped_main > 0 || flipped_merged_delta) {
            self.deletes_during_merge = true;
        }
        flipped_main + flipped_delta
    }

    /// [`capture`](Self::capture) of the whole delta, unless a merge is
    /// already in flight or there is nothing to compact (empty delta over
    /// a fully valid main store).
    pub(crate) fn begin(&mut self) -> Option<CompactionJob> {
        (!self.merge_in_flight && self.has_work()).then(|| self.capture(self.delta_rows()))
    }

    /// **Transition 3 — capture.** The merge input at `watermark`: the
    /// main generation with its validity, plus frozen copies of the first
    /// `watermark` delta rows. Marks the merge in flight, so that deletes
    /// of captured rows are noticed; ended by [`end_merge`](Self::end_merge).
    ///
    /// # Panics
    ///
    /// Panics if `watermark > delta_rows()`.
    pub(crate) fn capture(&mut self, watermark: usize) -> CompactionJob {
        self.merge_in_flight = true;
        self.merge_watermark = watermark;
        self.deletes_during_merge = false;
        CompactionJob {
            main: Arc::clone(&self.main),
            main_validity: Arc::clone(&self.main_validity),
            delta_prefixes: self.deltas.iter().map(|d| d.prefix(watermark)).collect(),
            delta_validity: self.delta_validity.prefix(watermark),
            watermark,
        }
    }

    /// Ends the in-flight merge and reports whether a delete raced it —
    /// its result would then resurrect deleted rows and must be discarded
    /// instead of published.
    pub(crate) fn end_merge(&mut self) -> bool {
        self.merge_in_flight = false;
        std::mem::take(&mut self.deletes_during_merge)
    }

    /// **Transition 4 — publish.** Swaps in the main generation rebuilt
    /// from `job` (all rows valid, next epoch), drops the folded delta
    /// prefix and rebases delta validity and the absolute position base.
    pub(crate) fn publish(&mut self, job: &CompactionJob, columns: Vec<MainSnapshot>, rows: usize) {
        debug_assert_eq!(
            self.main.epoch, job.main.epoch,
            "merges are serialized per partition"
        );
        self.main = Arc::new(MainState {
            epoch: job.main.epoch + 1,
            columns,
            rows,
        });
        self.main_validity = Arc::new(ValidityVector::all_valid(rows));
        self.main_invalid = 0;
        for delta in &mut self.deltas {
            Arc::make_mut(delta).drain_prefix(job.watermark);
        }
        self.delta_validity = Arc::new(self.delta_validity.suffix(job.watermark));
        self.delta_invalid = self.delta_rows() - self.delta_validity.count_valid();
        self.drained_total += job.watermark as u64;
    }
}

/// One range partition: state plus its own background-merge worker slot.
#[derive(Debug)]
pub(crate) struct Partition {
    /// Position within the table's partition order (shard id).
    pub(crate) index: usize,
    pub(crate) state: Mutex<PartitionState>,
    pub(crate) worker: Mutex<Option<JoinHandle<()>>>,
}

impl Partition {
    /// Wraps per-column main stores — freshly deployed (`epoch` and
    /// `drained_total` 0) or reloaded from a sealed snapshot, which resumes
    /// at the snapshot's published epoch and absolute delta base exactly
    /// as if the publishes had happened in this process — with empty
    /// delta stores.
    pub(crate) fn new(
        index: usize,
        schema: &TableSchema,
        columns: Vec<MainSnapshot>,
        rows: usize,
        epoch: u64,
        drained_total: u64,
    ) -> Self {
        let deltas = schema
            .columns
            .iter()
            .map(|spec| Arc::new(Dictionary::delta(&schema.name, &spec.name, spec.max_len)))
            .collect();
        Partition {
            index,
            state: Mutex::new(PartitionState {
                main: Arc::new(MainState {
                    epoch,
                    columns,
                    rows,
                }),
                main_validity: Arc::new(ValidityVector::all_valid(rows)),
                main_invalid: 0,
                deltas,
                delta_validity: Arc::default(),
                delta_invalid: 0,
                merge_in_flight: false,
                merge_watermark: 0,
                deletes_during_merge: false,
                drained_total,
            }),
            worker: Mutex::new(None),
        }
    }

    /// Acquires a consistent read snapshot of this partition: one short
    /// lock, under which only `Arc`s are cloned — O(columns), whatever the
    /// delta holds.
    pub(crate) fn snapshot(&self) -> PartitionSnapshot {
        let state = lock(&self.state);
        PartitionSnapshot {
            main: Arc::clone(&state.main),
            main_validity: Arc::clone(&state.main_validity),
            main_valid_rows: state.main.rows - state.main_invalid,
            deltas: state.deltas.clone(),
            delta_validity: Arc::clone(&state.delta_validity),
            delta_valid_rows: state.delta_rows() - state.delta_invalid,
        }
    }

    /// This partition's published epoch.
    pub(crate) fn epoch(&self) -> u64 {
        lock(&self.state).main.epoch
    }

    /// Whether a merge is rebuilding this partition right now.
    pub(crate) fn merge_in_flight(&self) -> bool {
        lock(&self.state).merge_in_flight
    }
}
