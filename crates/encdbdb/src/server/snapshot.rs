//! The lock-free read path: per-partition filter evaluation against
//! consistent snapshots, fanned out across partitions on scoped threads.
//!
//! Every query first resolves its partition *scope* (pruning — see
//! DESIGN.md §10), snapshots each in-scope partition under one short lock,
//! and then evaluates entirely lock-free. Empty or fully-invalid
//! partitions are skipped without a single ECALL, mirroring the
//! empty-delta no-op: a search over a shard that provably holds no valid
//! row never enters the enclave.

use super::partition::PartitionSnapshot;
use super::scheduler::EcallScheduler;
use super::table::intersect_sorted;
use super::{CellValue, DbaasServer, QueryStats, SelectResponse, ServerFilter};
use crate::error::DbError;
use crate::obs::{Obs, SpanId};
use crate::schema::{DictChoice, TableSchema};
use colstore::dictionary::RecordId;
use encdict::avsearch;
use encdict::batch::SearchCall;
use encdict::dynamic::MainSnapshot;
use encdict::plain::search_plain;
use encdict::search::DictSearchResult;
use encdict::{CacheTag, Dictionary, EncdictError, EncryptedRange};
use std::sync::Arc;

/// The scheduler handle a partition scan issues its search ECALLs
/// through, with the span they and the scan's other phases are recorded
/// under (the per-partition span).
struct EnclaveCtx<'a> {
    sched: &'a EcallScheduler,
    obs: &'a Obs,
    parent: &'a SpanId,
    /// Partition discriminator for the in-enclave decrypted-value cache
    /// (the partition index of the scanned snapshot). Paired with the
    /// snapshot epoch it forms the [`encdict::CacheTag`]; see DESIGN.md
    /// §14.
    part: u64,
}

/// Searches one store of partition snapshot `snap` (`delta` = its delta
/// store, else its main store) for the whole disjunction in `ranges` —
/// one scheduled ECALL, folded into `stats`.
fn sched_search(
    ctx: &EnclaveCtx<'_>,
    snap: &PartitionSnapshot,
    dict: Arc<Dictionary>,
    delta: bool,
    ranges: &[EncryptedRange],
    stats: &mut QueryStats,
) -> Result<Vec<DictSearchResult>, DbError> {
    let call = SearchCall {
        dict,
        ranges: ranges.to_vec(),
        cache: Some(CacheTag {
            part: ctx.part,
            epoch: snap.epoch(),
            delta,
        }),
    };
    let (results, cost) = ctx.sched.search(call, snap.epoch(), ctx.parent)?;
    cost.absorb_into(stats);
    Ok(results)
}

/// An owned, consistent view of one table for one query: the resolved
/// partition scope plus every in-scope partition's snapshot, empties
/// already filtered out (they are skipped without a single ECALL).
#[derive(Debug)]
pub(crate) struct TableSnapshot {
    pub(crate) table: std::sync::Arc<super::table::ServerTable>,
    /// The resolved scope (pruning already applied).
    pub(crate) scope_len: usize,
    /// In-scope non-empty partitions, in partition order.
    pub(crate) active: Vec<(usize, PartitionSnapshot)>,
}

impl TableSnapshot {
    /// Seeds the pruning/partition accounting of a query over this
    /// snapshot.
    pub(crate) fn seed_stats(&self, stats: &mut QueryStats) {
        stats.partitions_total += self.table.partitions.len();
        stats.partitions_scanned += self.active.len();
        stats.partitions_pruned += self.table.partitions.len() - self.scope_len;
    }
}

/// One table's snapshot request: name, filters (for server-side scope
/// resolution) and the proxy-provided scope hint.
pub(crate) type SnapshotWant<'a> = (&'a str, &'a [ServerFilter], Option<&'a [usize]>);

impl DbaasServer {
    /// Acquires snapshots of N tables in one tight pass: scope resolution
    /// first, then every in-scope partition's short lock back to back with
    /// no query work in between. Multi-table plans (equi-joins) go through
    /// here so both sides are captured at one point in time; per-partition
    /// snapshots remain the consistency unit (exactly as within one
    /// table — see the module docs of [`super`]).
    ///
    /// # Errors
    ///
    /// Returns [`DbError::TableNotFound`] for an unknown table.
    pub(crate) fn snapshot_tables(
        &self,
        wants: &[SnapshotWant<'_>],
    ) -> Result<Vec<TableSnapshot>, DbError> {
        let handles = wants
            .iter()
            .map(|(name, _, _)| self.table_handle(name))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(handles
            .into_iter()
            .zip(wants)
            .map(|(table, (_, filters, scope))| {
                let scope = table.resolve_scope(filters, *scope);
                let active = table
                    .snapshot_scope(&scope)
                    .into_iter()
                    .filter(|(_, snap)| !snap.is_empty())
                    .collect();
                TableSnapshot {
                    table,
                    scope_len: scope.len(),
                    active,
                }
            })
            .collect())
    }

    /// The scan-then-combine skeleton of every read: per in-scope
    /// partition of `ts` — on the calling thread for one, on scoped
    /// threads for more — open a `partition` span under `parent`, evaluate
    /// the filter conjunction into valid main and delta RecordIDs, and
    /// hand them to `work` with the partition's stats and span. Outputs
    /// come back in partition order; the per-partition stats (search cost,
    /// snapshot epoch, whatever `work` added) are folded into `stats`.
    ///
    /// # Errors
    ///
    /// The first partition's error in partition order; a panicking scan
    /// worker fails the query with [`EncdictError::Poisoned`] instead of
    /// taking the query thread down with it.
    pub(crate) fn scan_partitions<T, F>(
        &self,
        ts: &TableSnapshot,
        filters: &[ServerFilter],
        parent: &SpanId,
        stats: &mut QueryStats,
        work: F,
    ) -> Result<Vec<T>, DbError>
    where
        T: Send,
        F: Fn(
                usize,
                &PartitionSnapshot,
                Vec<RecordId>,
                Vec<RecordId>,
                &mut QueryStats,
                &SpanId,
            ) -> Result<T, DbError>
            + Sync,
    {
        let scan = |pid: usize, snap: &PartitionSnapshot| {
            let span = self
                .obs()
                .span_arg("partition", "query", parent, pid as u64);
            let ctx = EnclaveCtx {
                sched: self.scheduler(),
                obs: self.obs(),
                parent: span.id(),
                part: pid as u64,
            };
            let (main_rids, delta_rids, mut part_stats) =
                matching_rids_multi(snap, &ts.table.schema, &ctx, filters)?;
            part_stats.snapshot_epoch = snap.epoch();
            let out = work(pid, snap, main_rids, delta_rids, &mut part_stats, span.id())?;
            Ok::<_, DbError>((out, part_stats))
        };
        let scanned: Vec<Result<(T, QueryStats), DbError>> = if ts.active.len() <= 1 {
            ts.active
                .iter()
                .map(|(pid, snap)| scan(*pid, snap))
                .collect()
        } else {
            let scan = &scan;
            std::thread::scope(|scope| {
                let workers: Vec<_> = ts
                    .active
                    .iter()
                    .map(|(pid, snap)| scope.spawn(move || scan(*pid, snap)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| {
                        w.join().unwrap_or_else(|_| {
                            Err(EncdictError::Poisoned("a partition scan worker panicked").into())
                        })
                    })
                    .collect()
            })
        };
        scanned
            .into_iter()
            .map(|part| {
                part.map(|(out, part_stats)| {
                    stats.absorb(&part_stats);
                    out
                })
            })
            .collect()
    }
}

/// Conjunction of filters against one partition snapshot: intersects the
/// per-filter RecordID lists (all are ascending, so the intersection is a
/// linear merge).
fn matching_rids_multi(
    snap: &PartitionSnapshot,
    schema: &TableSchema,
    ctx: &EnclaveCtx<'_>,
    filters: &[ServerFilter],
) -> Result<(Vec<RecordId>, Vec<RecordId>, QueryStats), DbError> {
    if filters.len() <= 1 {
        return matching_rids(snap, schema, ctx, filters.first());
    }
    let mut acc: Option<(Vec<RecordId>, Vec<RecordId>)> = None;
    let mut stats = QueryStats::default();
    for f in filters {
        let (main, delta, s) = matching_rids(snap, schema, ctx, Some(f))?;
        stats.absorb(&s);
        acc = Some(match acc {
            None => (main, delta),
            Some((am, ad)) => (intersect_sorted(&am, &main), intersect_sorted(&ad, &delta)),
        });
    }
    let (main, delta) = acc.unwrap_or_default();
    Ok((main, delta, stats))
}

/// Computes the valid matching RecordIDs in main and delta stores of one
/// partition snapshot. Empty dictionaries and fully-invalid stores are
/// answered without entering the enclave.
fn matching_rids(
    snap: &PartitionSnapshot,
    schema: &TableSchema,
    ctx: &EnclaveCtx<'_>,
    filter: Option<&ServerFilter>,
) -> Result<(Vec<RecordId>, Vec<RecordId>, QueryStats), DbError> {
    let mut stats = QueryStats::default();
    let Some(filter) = filter else {
        // Unfiltered: all valid rows.
        let main = (0..snap.main.rows as u32)
            .map(RecordId)
            .filter(|r| snap.main_validity.is_valid(r.0 as usize))
            .collect();
        let delta = (0..snap.delta_validity.len() as u32)
            .map(RecordId)
            .filter(|r| snap.delta_validity.is_valid(r.0 as usize))
            .collect();
        return Ok((main, delta, stats));
    };

    let (idx, spec) = schema
        .column(filter.column())
        .ok_or_else(|| DbError::ColumnNotFound(filter.column().to_string()))?;
    // The whole disjunction (`IN` / multi-range) is searched in one go
    // per store: for an encrypted column one scheduled ECALL, for a PLAIN
    // one PlainDBDB's search of the same layout, with no ECALL.
    let mut search = |dict: Arc<Dictionary>, delta: bool| match (&spec.choice, filter) {
        (DictChoice::Encrypted(_), ServerFilter::Encrypted { ranges, .. }) => {
            sched_search(ctx, snap, dict, delta, ranges, &mut stats)
        }
        (DictChoice::Plain, ServerFilter::Plain { ranges, .. }) => {
            let _search = ctx.obs.span("search.plain", "query", ctx.parent);
            let results = ranges.iter().map(|range| search_plain(&dict, range));
            Ok(results.collect::<Result<_, _>>()?)
        }
        _ => Err(DbError::UnsupportedFilter(
            "filter form does not match column protection".to_string(),
        )),
    };
    let main = &snap.main.columns[idx];
    let delta = &snap.deltas[idx];
    // An empty or fully-invalid store, or a provably contradictory
    // filter, matches nothing — no search at all (for an encrypted column
    // the partition-layer analogue of the empty-delta no-op). The per-range
    // results of the main store are unioned in one combined AV pass.
    let nothing = filter.matches_nothing();
    let main_rids = if main.dict().is_empty() || snap.main_valid_rows == 0 || nothing {
        Vec::new()
    } else {
        let results = search(main.dict_arc(), false)?;
        let _scan = ctx.obs.span("av.scan", "query", ctx.parent);
        avsearch::scan(main.av(), &results)
    };
    // The delta is an ED9 dictionary whose ValueIDs are its RecordIDs; a
    // scheduled request shares the store this snapshot froze, so it stays
    // valid no matter when the scheduler dispatches it.
    let delta_rids = if delta.is_empty() || snap.delta_valid_rows == 0 || nothing {
        Vec::new()
    } else {
        encdict::dynamic::record_ids(delta.len(), &search(Arc::clone(delta), true)?)?
    };
    let main = main_rids
        .into_iter()
        .filter(|r| snap.main_validity.is_valid(r.0 as usize))
        .collect();
    let delta = delta_rids
        .into_iter()
        .filter(|r| snap.delta_validity.is_valid(r.0 as usize))
        .collect();
    Ok((main, delta, stats))
}

/// Renders the cell of main-store row `rid`, undoing the split (Fig. 5
/// step 12): a ciphertext for an encrypted column, a PLAIN column's value.
pub(crate) fn render_main_cell(
    choice: &DictChoice,
    col: &MainSnapshot,
    rid: RecordId,
) -> CellValue {
    let vid = col.av().value_id(rid);
    CellValue::new(choice, col.dict().value(vid.0 as usize))
}

/// Renders the cell of delta-store row `rid`.
pub(crate) fn render_delta_cell(choice: &DictChoice, col: &Dictionary, rid: RecordId) -> CellValue {
    CellValue::new(choice, col.value(rid.0 as usize))
}

impl DbaasServer {
    /// Executes a select (Fig. 5 steps 6–13) with a *conjunction* of
    /// single-column filters — the prefiltering the paper sketches in step
    /// 12 ("rid would be used to prefilter other columns in the same
    /// table"). Each filter runs its own dictionary + attribute-vector
    /// search; the RecordID lists are intersected. Partitioned tables
    /// evaluate partition by partition, each against its own consistent
    /// snapshot, in parallel on scoped threads.
    ///
    /// # Errors
    ///
    /// Propagates lookup and enclave failures.
    pub(crate) fn select(
        &self,
        table: &str,
        columns: &[String],
        filters: &[ServerFilter],
        scope: Option<&[usize]>,
        parent: &SpanId,
    ) -> Result<SelectResponse, DbError> {
        let obs = self.obs().clone();
        let snap_span = obs.span("snapshot", "query", parent);
        let ts = self
            .snapshot_tables(&[(table, filters, scope)])?
            .pop()
            .expect("one table requested");
        snap_span.finish();
        let t = &ts.table;
        let projected: Vec<String> = if columns.is_empty() {
            t.schema.columns.iter().map(|c| c.name.clone()).collect()
        } else {
            columns.to_vec()
        };
        let mut col_indices = Vec::with_capacity(projected.len());
        for name in &projected {
            let (idx, _) = t
                .schema
                .column(name)
                .ok_or_else(|| DbError::ColumnNotFound(name.clone()))?;
            col_indices.push(idx);
        }
        let mut stats = QueryStats::default();
        ts.seed_stats(&mut stats);

        // Per-partition: search + render against that partition's
        // snapshot. One search ECALL per filtered dictionary of each
        // non-empty in-scope partition.
        let scan_span = obs.span_arg("scan", "query", parent, ts.active.len() as u64);
        let per_partition = self.scan_partitions(
            &ts,
            filters,
            scan_span.id(),
            &mut stats,
            |_, snap, main_rids, delta_rids, _, pspan| {
                let _render = obs.span("render", "query", pspan);
                let mut rows = Vec::with_capacity(main_rids.len() + delta_rids.len());
                for &rid in &main_rids {
                    let mut row = Vec::with_capacity(col_indices.len());
                    for &idx in &col_indices {
                        let choice = &t.schema.columns[idx].choice;
                        row.push(render_main_cell(choice, &snap.main.columns[idx], rid));
                    }
                    rows.push(row);
                }
                for &rid in &delta_rids {
                    let mut row = Vec::with_capacity(col_indices.len());
                    for &idx in &col_indices {
                        let choice = &t.schema.columns[idx].choice;
                        row.push(render_delta_cell(choice, &snap.deltas[idx], rid));
                    }
                    rows.push(row);
                }
                Ok(rows)
            },
        )?;
        scan_span.finish();

        let rows: Vec<Vec<CellValue>> = per_partition.into_iter().flatten().collect();
        stats.result_rows = rows.len();
        self.store_stats(stats, parent);
        Ok(SelectResponse {
            columns: projected,
            rows,
        })
    }
}
