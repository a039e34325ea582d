//! The vectorized aggregate executor: `Scan → Filter → GroupBy →
//! Aggregate → Sort → Limit` on the untrusted server, partition-parallel.
//!
//! Execution splits exactly like the paper splits range search:
//!
//! 1. **Filter** reuses the range machinery (enclave dictionary search +
//!    attribute-vector scan, delta stores and validity vectors included),
//!    per range partition.
//! 2. **Scan** walks the referenced columns' attribute vectors in
//!    4096-row chunks — fanned out across partitions on scoped threads —
//!    and reduces each partition's matching rows to a ValueID-tuple
//!    histogram. No
//!    ciphertext is touched; the scan runs entirely on ValueIDs in
//!    untrusted memory. Pruned and empty partitions are skipped without a
//!    single ECALL.
//! 3. **GroupBy/Aggregate/Sort/Limit** run where plaintext is allowed:
//!    the per-partition histograms travel as *parts* of one `Aggregate`
//!    ECALL when any referenced column is encrypted — the enclave
//!    decrypts each partition's distinct touched ValueIDs once, folds
//!    every part into per-group partial aggregates and merges the
//!    partials in the trusted core
//!    ([`encdict::aggregate::GroupPartials`]) — or locally for all-PLAIN
//!    queries, through the same trusted-core partial-merge code.
//!
//! Each partition's filter, scan and histogram run against one
//! `PartitionSnapshot` (see `crate::server`) acquired up front, so
//! concurrent compactions never tear an aggregate — a merge publishing on
//! shard A cannot affect the scan of shard B, and shard A's scan drains
//! on its old epoch.
//!
//! [`QueryStats`] records the chunk count, the
//! ECALLs, the decrypted-value count and the partition pruning, making
//! the headline properties checkable: enclave decryptions are bounded by
//! distinct ValueIDs per partition, never by row count, and enclave calls
//! by one search per filtered dictionary plus one `Aggregate` per query.

use crate::error::DbError;
use crate::exec::aggregate::{build_histogram, column_data, remap_codes, ColumnCodes};
use crate::exec::plan::AggregatePlan;
use crate::obs::SpanId;
use crate::server::{CellValue, DbaasServer, QueryStats, SelectResponse, ServerFilter};
use encdict::aggregate::{AggPlanSpec, AggSpec, GroupPartials};
use encdict::batch::{AggPartitionData, AggregateRequest, ColumnData};
use encdict::enclave_ops::AggCell;

impl DbaasServer {
    /// Executes a grouped aggregation (the `exec` engine's entry point)
    /// over the partitions in scope.
    ///
    /// # Errors
    ///
    /// Propagates lookup, plan-validation and enclave failures.
    pub(crate) fn aggregate(
        &self,
        table: &str,
        plan: &AggregatePlan,
        filters: &[ServerFilter],
        scope: Option<&[usize]>,
        parent: &SpanId,
    ) -> Result<SelectResponse, DbError> {
        // Referenced columns (group keys first, then aggregate inputs),
        // deduplicated — they define the histogram's tuple order.
        let mut ref_names: Vec<String> = Vec::new();
        let mut index_of = |name: &str| -> usize {
            match ref_names.iter().position(|n| n == name) {
                Some(i) => i,
                None => {
                    ref_names.push(name.to_string());
                    ref_names.len() - 1
                }
            }
        };
        let group_cols: Vec<usize> = plan.group_cols.iter().map(|g| index_of(g)).collect();
        let aggregates: Vec<AggSpec> = plan
            .aggregates
            .iter()
            .map(|a| AggSpec {
                func: a.func,
                col: a.column.as_deref().map(&mut index_of),
            })
            .collect();
        let spec = AggPlanSpec {
            group_cols,
            aggregates,
            items: plan.items.clone(),
            sort: plan.sort.clone(),
            limit: plan.limit,
        };
        // The compiler produces valid plans; `aggregate` is a public API.
        if plan.item_names.len() != plan.items.len() || spec.check(ref_names.len()).is_err() {
            return Err(DbError::Plan("plan item or sort key out of range".into()));
        }
        let obs = self.obs().clone();
        // Partition scope (pruning) + per-partition snapshots via the
        // shared N-table acquisition path; empty shards are skipped
        // without any ECALL.
        let snap_span = obs.span("snapshot", "query", parent);
        let ts = self
            .snapshot_tables(&[(table, filters, scope)])?
            .pop()
            .expect("one table requested");
        snap_span.finish();
        let t = &ts.table;
        // Schema positions of the referenced columns, and whether each is
        // encrypted (uniform across partitions — one schema).
        let mut ref_idx = Vec::with_capacity(ref_names.len());
        let mut col_names: Vec<Option<&str>> = Vec::with_capacity(ref_names.len());
        for name in &ref_names {
            let (idx, spec) = t
                .schema
                .column(name)
                .ok_or_else(|| DbError::ColumnNotFound(name.clone()))?;
            ref_idx.push(idx);
            col_names.push(match spec.choice {
                crate::schema::DictChoice::Encrypted(_) => Some(spec.name.as_str()),
                crate::schema::DictChoice::Plain => None,
            });
        }
        let any_encrypted = col_names.iter().any(Option::is_some);

        let active = &ts.active;
        let mut stats = QueryStats::default();
        ts.seed_stats(&mut stats);

        // Per-partition, fanned out on scoped threads: filter → chunked
        // histogram scan → dense remap → each column's value source.
        let scan_span = obs.span_arg("scan", "query", parent, active.len() as u64);
        let parts: Vec<AggPartitionData> = self.scan_partitions(
            &ts,
            filters,
            scan_span.id(),
            &mut stats,
            |pid, snap, main_rids, delta_rids, part_stats, pspan| {
                let scan = obs.span("av.scan", "query", pspan);
                let cols: Vec<ColumnCodes<'_>> = ref_idx
                    .iter()
                    .map(|&idx| ColumnCodes {
                        av: snap.main.columns[idx].av(),
                        main_len: snap.main.columns[idx].dict().len(),
                    })
                    .collect();
                let hist = build_histogram(&cols, &main_rids, &delta_rids)?;
                scan.finish();
                part_stats.chunks_scanned += hist.chunks;
                let remapped = remap_codes(cols.len(), hist.tuples);
                let columns = ref_idx
                    .iter()
                    .zip(remapped.codes)
                    .map(|(&idx, codes)| {
                        column_data(
                            &t.schema.columns[idx].choice,
                            &snap.main.columns[idx],
                            &snap.deltas[idx],
                            codes,
                            (pid as u64, snap.epoch()),
                        )
                    })
                    .collect();
                Ok(AggPartitionData {
                    columns,
                    tuples: remapped.tuples,
                })
            },
        )?;
        scan_span.finish();

        // Grouped aggregation over the distinct touched values of every
        // partition, with the partial-aggregate merge in the trusted core.
        let agg_span = obs.span("aggregate", "query", parent);
        let rows: Vec<Vec<CellValue>> = if any_encrypted {
            // Partitions with no matching rows contribute no part. The
            // request shares what it references (`Arc`s of the main
            // generations and of the snapshot's delta stores) so it can
            // ride a combined transition of the cross-session scheduler;
            // its generation key is the maximum epoch among the included
            // partition snapshots.
            let mut generation = 0u64;
            let part_data: Vec<AggPartitionData> = active
                .iter()
                .zip(parts)
                .filter(|(_, part)| !part.tuples.is_empty())
                .map(|((_, snap), part)| {
                    generation = generation.max(snap.epoch());
                    part
                })
                .collect();
            if part_data.is_empty() && !spec.group_cols.is_empty() {
                // Every shard pruned or empty: a grouped aggregate has
                // zero groups — answered without entering the enclave.
                Vec::new()
            } else {
                // One Aggregate ECALL for the whole query — at most one
                // per non-empty partition, and exactly one here. A global
                // (no GROUP BY) aggregate still consults the enclave even
                // with zero parts: its NULL row carries cells encrypted
                // under the column keys.
                let req = AggregateRequest {
                    table_name: t.schema.name.clone(),
                    col_names: col_names.iter().map(|n| n.map(str::to_string)).collect(),
                    parts: part_data,
                    plan: spec.clone(),
                };
                let (reply, cost) = self.scheduler().aggregate(req, generation, agg_span.id())?;
                cost.absorb_into(&mut stats);
                reply
                    .rows
                    .into_iter()
                    .map(|row| {
                        row.into_iter()
                            .map(|cell| match cell {
                                AggCell::Encrypted(b) => CellValue::Encrypted(b),
                                AggCell::Plain(b) => CellValue::Plain(b),
                            })
                            .collect()
                    })
                    .collect()
            }
        } else {
            // All-PLAIN: same trusted-core partial merge, run locally
            // (value tables move out of the scan — no per-query copy).
            let mut partials = GroupPartials::new();
            for part in parts {
                let tables: Vec<Vec<Vec<u8>>> = part
                    .columns
                    .into_iter()
                    .map(|column| match column {
                        ColumnData::Plain { values } => values,
                        ColumnData::Encrypted { .. } => unreachable!("all columns are PLAIN"),
                    })
                    .collect();
                let mut partial = GroupPartials::new();
                partial.accumulate(&tables, &part.tuples, &spec)?;
                partials.merge(partial);
            }
            partials
                .finalize(&spec)?
                .into_iter()
                .map(|row| row.into_iter().map(CellValue::Plain).collect())
                .collect()
        };
        agg_span.finish();
        stats.result_rows = rows.len();
        self.store_stats(stats, parent);
        Ok(SelectResponse {
            columns: plan.item_names.clone(),
            rows,
        })
    }
}
