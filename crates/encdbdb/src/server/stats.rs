//! Observable execution and compaction statistics.

use crate::obs::{Layer, LayerTimes};

/// Execution statistics for one query (latency breakdowns for the
/// Figure 8 harness, plus the `exec` engine's boundary accounting and the
/// partition layer's pruning accounting).
///
/// # Fold-additive vs. set-once fields
///
/// A query's stats are assembled in two ways, and every field belongs to
/// exactly one class:
///
/// * **Fold-additive** — summed by `QueryStats::absorb` when
///   per-partition (or per-join-side) contributions fold into the query
///   total: the boundary counters (`chunks_scanned`, `enclave_calls`,
///   `values_decrypted`), the join counters (`join_build_rows`,
///   `join_probe_rows`, `bridge_entries`), and `snapshot_epoch` (which
///   folds by *maximum*, not sum).
/// * **Set-once** — assigned exactly once at the top level of the query
///   and deliberately **not** folded, because per-side values would
///   double-count or are meaningless to add: `result_rows` (joined rows
///   ≠ left rows + right rows), `partitions_total` /
///   `partitions_scanned` / `partitions_pruned` (the join path reports
///   the *sum over both sides*, set after both scans complete), and the
///   times (`dict_search_ns`, `av_search_ns`, `aggregate_ns`,
///   `render_ns`, `bridge_ns`, `ecall_wait_ns`), read from the query's
///   span tree when it completes. Parallel partitions share the wall
///   clock there, so the times of one query never sum to more than its
///   duration.
///
/// When adding a field, extend `QueryStats::absorb`: its exhaustive
/// destructuring makes the compiler flag the new field, forcing an
/// explicit fold-additive-or-set-once decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Nanoseconds spent in dictionary search ([`Layer::DictSearch`]):
    /// search ECALLs, or the plaintext search of PLAIN columns.
    pub dict_search_ns: u64,
    /// Nanoseconds spent scanning the attribute vector, including the
    /// histogram scan of aggregate queries ([`Layer::AvScan`]).
    pub av_search_ns: u64,
    /// Nanoseconds spent aggregating: the `Aggregate` ECALL, or the local
    /// aggregation of all-PLAIN queries ([`Layer::Aggregate`]).
    pub aggregate_ns: u64,
    /// Nanoseconds spent rendering the result columns ([`Layer::Render`]).
    pub render_ns: u64,
    /// Number of result rows (groups for aggregate queries).
    pub result_rows: usize,
    /// Number of [`CHUNK_ROWS`](crate::exec::aggregate::CHUNK_ROWS)-row
    /// chunks scanned by the vectorized histogram executor.
    pub chunks_scanned: usize,
    /// Number of enclave ECALLs issued while evaluating the query.
    pub enclave_calls: usize,
    /// Number of dictionary values decrypted inside the enclave — bounded
    /// by the distinct touched ValueIDs, never by the row count.
    pub values_decrypted: usize,
    /// Entries served from the in-enclave decrypted-value cache while
    /// evaluating the query (each hit replaced one decrypt and two
    /// untrusted loads; see DESIGN.md §14 for the leakage semantics).
    pub cache_hits: usize,
    /// The highest merge generation (epoch) among the partition snapshots
    /// the query executed against. Monotone per table: compactions only
    /// ever increment partition epochs.
    pub snapshot_epoch: u64,
    /// Number of range partitions the table has.
    pub partitions_total: usize,
    /// Partitions actually searched: in scope and non-empty.
    pub partitions_scanned: usize,
    /// Partitions skipped because their key range provably misses the
    /// filter (the pruning leakage documented in DESIGN.md §10).
    pub partitions_pruned: usize,
    /// Matching rows on the build (left) side of an equi-join.
    pub join_build_rows: usize,
    /// Matching rows on the probe (right) side of an equi-join.
    pub join_probe_rows: usize,
    /// Distinct join keys present on both sides (the size of the
    /// ValueID↔ValueID bridge the `JoinBridge` ECALL returned).
    pub bridge_entries: usize,
    /// Nanoseconds spent building the join-key bridge: the `JoinBridge`
    /// ECALL, or the local match for all-PLAIN keys ([`Layer::Bridge`]).
    pub bridge_ns: u64,
    /// Nanoseconds this query's enclave calls spent queued in the
    /// cross-session ECALL scheduler before their transition started
    /// (DESIGN.md §15; [`Layer::SchedWait`]). With batching off a call
    /// never queues, so this is only the time to reach the executor.
    pub ecall_wait_ns: u64,
    /// Total number of *other* sessions' requests that shared enclave
    /// transitions with this query's calls: the sum over this query's
    /// calls of (batch occupancy − 1). Zero means every call ran alone.
    pub batch_peers: usize,
}

impl QueryStats {
    /// Sets the timing fields from the layer times of the query's spans.
    pub(crate) fn set_times(&mut self, t: &LayerTimes) {
        self.dict_search_ns = t.get(Layer::DictSearch);
        self.av_search_ns = t.get(Layer::AvScan);
        self.aggregate_ns = t.get(Layer::Aggregate);
        self.render_ns = t.get(Layer::Render);
        self.bridge_ns = t.get(Layer::Bridge);
        self.ecall_wait_ns = t.get(Layer::SchedWait);
    }

    /// Folds another partition's (or join side's) stats into this one —
    /// fold-additive fields sum, `snapshot_epoch` takes the maximum, and
    /// the set-once fields (`result_rows`, `partitions_*`, the times) are
    /// *deliberately discarded*: the caller assigns them once at the top
    /// level (see the struct docs for the field classification).
    ///
    /// `other` is destructured exhaustively so that adding a field to
    /// [`QueryStats`] fails to compile here until the new field is
    /// classified.
    pub(crate) fn absorb(&mut self, other: &QueryStats) {
        let QueryStats {
            chunks_scanned,
            enclave_calls,
            values_decrypted,
            cache_hits,
            snapshot_epoch,
            join_build_rows,
            join_probe_rows,
            bridge_entries,
            batch_peers,
            // Set-once fields: assigned by the top-level query path,
            // never folded (see struct docs).
            result_rows: _,
            partitions_total: _,
            partitions_scanned: _,
            partitions_pruned: _,
            dict_search_ns: _,
            av_search_ns: _,
            aggregate_ns: _,
            render_ns: _,
            bridge_ns: _,
            ecall_wait_ns: _,
        } = *other;
        self.chunks_scanned += chunks_scanned;
        self.enclave_calls += enclave_calls;
        self.values_decrypted += values_decrypted;
        self.cache_hits += cache_hits;
        self.snapshot_epoch = self.snapshot_epoch.max(snapshot_epoch);
        self.join_build_rows += join_build_rows;
        self.join_probe_rows += join_probe_rows;
        self.bridge_entries += bridge_entries;
        self.batch_peers += batch_peers;
    }
}

/// Observable counters of the durable-storage layer (DESIGN.md §12):
/// WAL traffic, snapshot persistence, and everything recovery detected —
/// torn tails, rejected files, fallbacks to older epochs.
///
/// Corruption is *reported* here, never panicked on: a recovery that had
/// to discard a snapshot or truncate a WAL tail completes (on the older
/// epoch + longer replay) and leaves the evidence in these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (insert, delete, merge and checkpoint frames).
    pub wal_records_appended: u64,
    /// Bytes appended to WALs, framing included.
    pub wal_bytes_appended: u64,
    /// `fsync` calls issued on WAL files.
    pub wal_fsyncs: u64,
    /// WAL truncations performed by successful checkpoints.
    pub wal_truncations: u64,
    /// Sealed snapshot files written (tmp-write + rename publishes).
    pub snapshots_persisted: u64,
    /// Snapshot persists that failed (I/O error or injected crash). The
    /// in-memory publish stands; recovery falls back to the previous
    /// epoch's file plus a longer WAL replay.
    pub snapshot_persist_failures: u64,
    /// Obsolete snapshot files pruned past the configured history.
    pub snapshots_pruned: u64,
    /// Checkpoints that skipped WAL truncation because the table was not
    /// quiescent (live delta rows, main deletes, or a missing snapshot).
    pub checkpoints_skipped: u64,
    /// Snapshot files loaded successfully during recovery.
    pub snapshots_loaded: u64,
    /// Snapshot files rejected during recovery: framing/checksum damage,
    /// unseal failure, or embedded identity not matching the filename.
    pub snapshots_rejected: u64,
    /// Partitions recovered from an older epoch because a newer snapshot
    /// file was rejected.
    pub snapshot_fallbacks: u64,
    /// WAL records replayed into partition state during recovery.
    pub wal_records_replayed: u64,
    /// WAL records skipped during recovery because the loaded snapshot
    /// already contains their effect.
    pub wal_records_skipped: u64,
    /// WAL records dropped as undecodable (unseal or decode failure past
    /// a valid frame — corruption within a sealed payload).
    pub wal_records_rejected: u64,
    /// Torn or corrupt WAL tails truncated during recovery.
    pub wal_torn_tails: u64,
    /// Bytes removed by WAL tail truncations.
    pub wal_torn_tail_bytes: u64,
    /// Compactions re-executed during replay (merge records whose epoch
    /// publish had not reached a persisted snapshot).
    pub merges_replayed: u64,
    /// Injected [`FailPoint`](crate::FailPoint) crashes that fired.
    pub injected_crashes: u64,
}

/// Observable compaction state of one table, across all its partitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionStats {
    /// Highest merge generation among the table's partitions.
    pub epoch: u64,
    /// Per-partition merge generations, in partition order — each
    /// partition merges (and bumps its epoch) independently.
    pub partition_epochs: Vec<u64>,
    /// Completed merges (partition epoch publishes), table-wide.
    pub merges_completed: u64,
    /// Merges discarded because a delete raced the rebuild.
    pub merges_aborted: u64,
    /// Merges that failed inside the enclave.
    pub merges_failed: u64,
    /// Delta rows folded into main stores so far.
    pub rows_compacted: u64,
    /// Monotone count of background-merge errors, table-wide: every
    /// enclave-side merge failure and every failed snapshot persist of a
    /// published epoch bumps this, so intermittent failures are
    /// *countable* even though [`CompactionStats::last_error`] only
    /// keeps the most recent message (and is racily overwritten under
    /// concurrency). Mirrored into the metrics registry as
    /// `compaction_errors_total`.
    pub errors_total: u64,
    /// Rows currently waiting in delta stores, summed over partitions.
    pub delta_rows: usize,
    /// Whether a background merge is running on any partition right now.
    pub merge_in_flight: bool,
    /// The error message of the most recent failed background merge.
    pub last_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stats value with every field set to a distinct non-zero value,
    /// so a dropped or double-counted field shows up in assertions.
    fn dense(seed: u64) -> QueryStats {
        QueryStats {
            dict_search_ns: seed,
            av_search_ns: seed + 1,
            aggregate_ns: seed + 2,
            render_ns: seed + 3,
            result_rows: (seed + 4) as usize,
            chunks_scanned: (seed + 5) as usize,
            enclave_calls: (seed + 6) as usize,
            values_decrypted: (seed + 7) as usize,
            snapshot_epoch: seed + 8,
            partitions_total: (seed + 9) as usize,
            partitions_scanned: (seed + 10) as usize,
            partitions_pruned: (seed + 11) as usize,
            join_build_rows: (seed + 12) as usize,
            join_probe_rows: (seed + 13) as usize,
            bridge_entries: (seed + 14) as usize,
            bridge_ns: seed + 15,
            cache_hits: (seed + 16) as usize,
            ecall_wait_ns: seed + 17,
            batch_peers: (seed + 18) as usize,
        }
    }

    /// Pins the join-path merge contract: folding one side's stats into
    /// the query total sums exactly the fold-additive fields, maxes the
    /// epoch, and leaves every set-once field untouched for the
    /// top-level assignment. If `absorb` gains or loses a field, this
    /// test (or the exhaustive destructuring inside `absorb` itself)
    /// fails.
    #[test]
    fn absorb_folds_additive_fields_and_preserves_set_once() {
        let mut total = dense(100);
        let side = dense(1000);
        let before = total;
        total.absorb(&side);

        // Fold-additive: sums.
        assert_eq!(
            total.chunks_scanned,
            before.chunks_scanned + side.chunks_scanned
        );
        assert_eq!(
            total.enclave_calls,
            before.enclave_calls + side.enclave_calls
        );
        assert_eq!(
            total.values_decrypted,
            before.values_decrypted + side.values_decrypted
        );
        assert_eq!(total.cache_hits, before.cache_hits + side.cache_hits);
        assert_eq!(
            total.join_build_rows,
            before.join_build_rows + side.join_build_rows
        );
        assert_eq!(
            total.join_probe_rows,
            before.join_probe_rows + side.join_probe_rows
        );
        assert_eq!(
            total.bridge_entries,
            before.bridge_entries + side.bridge_entries
        );
        assert_eq!(total.batch_peers, before.batch_peers + side.batch_peers);

        // Fold-by-max.
        assert_eq!(
            total.snapshot_epoch,
            before.snapshot_epoch.max(side.snapshot_epoch)
        );

        // Set-once: untouched by the fold (the join path assigns these
        // after both sides are absorbed).
        assert_eq!(total.result_rows, before.result_rows);
        assert_eq!(total.partitions_total, before.partitions_total);
        assert_eq!(total.partitions_scanned, before.partitions_scanned);
        assert_eq!(total.partitions_pruned, before.partitions_pruned);
        assert_eq!(total.dict_search_ns, before.dict_search_ns);
        assert_eq!(total.av_search_ns, before.av_search_ns);
        assert_eq!(total.aggregate_ns, before.aggregate_ns);
        assert_eq!(total.render_ns, before.render_ns);
        assert_eq!(total.bridge_ns, before.bridge_ns);
        assert_eq!(total.ecall_wait_ns, before.ecall_wait_ns);
    }

    #[test]
    fn absorb_into_default_reproduces_additive_fields() {
        let mut total = QueryStats::default();
        let side = dense(5);
        total.absorb(&side);
        assert_eq!(total.enclave_calls, side.enclave_calls);
        assert_eq!(total.snapshot_epoch, side.snapshot_epoch);
        assert_eq!(total.result_rows, 0, "set-once field must not fold");
        assert_eq!(total.partitions_scanned, 0, "set-once field must not fold");
    }
}
