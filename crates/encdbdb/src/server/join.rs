//! The server-side equi-join executor: per-side filtered scans reduced to
//! join-key ValueIDs, one `JoinBridge` ECALL, then an untrusted hash
//! build/probe over opaque bridge ids (DESIGN.md §11).
//!
//! Both tables are snapshotted through the shared N-table acquisition
//! path ([`DbaasServer::snapshot_tables`]) so the join sees one point in
//! time; each side then fans out across its in-scope partitions on scoped
//! threads exactly like a single-table select. The enclave decrypts each
//! *distinct* join-key code at most once per side — the join analogue of
//! the one-`Aggregate`-ECALL design — and the build/probe phases never
//! touch a plaintext or a ciphertext of the key column again.
//!
//! Two paths skip the bridge ECALL entirely:
//!
//! * **All-PLAIN keys** — both key columns plaintext: values match
//!   locally, mirroring the all-PLAIN aggregate path.
//! * **Repetition-revealing self-joins** — same table, same key column,
//!   one partition in scope at one epoch, ED1–ED3 key, no delta rows:
//!   equal ValueIDs already mean equal values (the dictionary holds each
//!   value once), so the server matches ValueIDs directly. Frequency
//!   smoothing/hiding kinds never qualify — their dictionaries map one
//!   value to many entries, so only the bridge sees equality.

use super::snapshot::{render_delta_cell, render_main_cell, TableSnapshot};
use super::{CellValue, DbaasServer, JoinSideQuery, QueryStats, SelectResponse};
use crate::error::DbError;
use crate::exec::aggregate::{check_code_space, column_data, ColumnCodes};
use crate::obs::SpanId;
use crate::schema::{ColumnSpec, DictChoice};
use colstore::dictionary::RecordId;
use encdict::batch::{ColumnData, JoinBridgeRequest, JoinSideData};
use encdict::enclave_ops::bridge_key_tables;
use encdict::RepetitionOption;
use std::collections::{BTreeSet, HashMap};

/// One scanned partition of one join side: its matching rows, each row's
/// join-key code (main ValueID or offset delta row), and the distinct
/// codes that go to the bridge.
struct SidePartScan {
    main_rids: Vec<RecordId>,
    delta_rids: Vec<RecordId>,
    /// Key code per matching row, main rows first, then delta rows.
    row_codes: Vec<u32>,
    /// Ascending distinct key codes of this partition.
    distinct: Vec<u32>,
}

impl SidePartScan {
    fn rows(&self) -> usize {
        self.row_codes.len()
    }
}

/// Scans one side: filter each in-scope partition, then annotate every
/// matching row with its join-key code.
fn scan_side(
    server: &DbaasServer,
    ts: &TableSnapshot,
    q: &JoinSideQuery,
    parent: &SpanId,
    stats: &mut QueryStats,
) -> Result<Vec<SidePartScan>, DbError> {
    let (key_idx, _) = ts
        .table
        .schema
        .column(&q.key)
        .ok_or_else(|| DbError::ColumnNotFound(q.key.clone()))?;
    server.scan_partitions(
        ts,
        &q.filters,
        parent,
        stats,
        |_, snap, main_rids, delta_rids, _, _| {
            let key = ColumnCodes {
                av: snap.main.columns[key_idx].av(),
                main_len: snap.main.columns[key_idx].dict().len(),
            };
            // Delta rows get codes `main_len + rid`.
            check_code_space(&[key], &delta_rids)?;
            let (av, main_len) = (key.av, key.main_len as u32);
            let mut row_codes = Vec::with_capacity(main_rids.len() + delta_rids.len());
            av.gather(&main_rids, |_, code| row_codes.push(code));
            row_codes.extend(delta_rids.iter().map(|rid| main_len + rid.0));
            let distinct: Vec<u32> = row_codes
                .iter()
                .copied()
                .collect::<BTreeSet<u32>>()
                .into_iter()
                .collect();
            Ok(SidePartScan {
                main_rids,
                delta_rids,
                row_codes,
                distinct,
            })
        },
    )
}

/// Per-partition code→bridge-id maps of one side.
type SideMaps = Vec<HashMap<u32, u32>>;

impl DbaasServer {
    /// Executes a two-table equi-join (the
    /// [`ServerQuery::Join`](super::ServerQuery::Join) path).
    ///
    /// # Errors
    ///
    /// Propagates lookup and enclave failures.
    pub(crate) fn join(
        &self,
        left: &JoinSideQuery,
        right: &JoinSideQuery,
        parent: &SpanId,
    ) -> Result<SelectResponse, DbError> {
        let obs = self.obs().clone();
        // Both tables under one tight acquisition pass.
        let snap_span = obs.span("snapshot", "query", parent);
        let mut snaps = self.snapshot_tables(&[
            (&left.table, &left.filters, left.scope.as_deref()),
            (&right.table, &right.filters, right.scope.as_deref()),
        ])?;
        snap_span.finish();
        let rts = snaps.pop().expect("two tables requested");
        let lts = snaps.pop().expect("two tables requested");

        let mut stats = QueryStats::default();
        lts.seed_stats(&mut stats);
        rts.seed_stats(&mut stats);

        // Per-side filtered scans, fanned out across partitions.
        let lscan_span = obs.span_arg("scan", "query", parent, lts.active.len() as u64);
        let lscan = scan_side(self, &lts, left, lscan_span.id(), &mut stats)?;
        lscan_span.finish();
        let rscan_span = obs.span_arg("scan", "query", parent, rts.active.len() as u64);
        let rscan = scan_side(self, &rts, right, rscan_span.id(), &mut stats)?;
        rscan_span.finish();
        stats.join_build_rows = lscan.iter().map(SidePartScan::rows).sum();
        stats.join_probe_rows = rscan.iter().map(SidePartScan::rows).sum();

        // Build the per-partition code→bridge-id maps.
        let bridge_span = obs.span("bridge", "query", parent);
        let (left_maps, right_maps) = self.bridge_keys(
            &lts,
            left,
            &lscan,
            &rts,
            right,
            &rscan,
            &mut stats,
            bridge_span.id(),
        )?;
        bridge_span.finish();

        // Untrusted hash build over the left side's bridge ids...
        let mut build: HashMap<u32, Vec<(usize, usize)>> = HashMap::new();
        for (p, part) in lscan.iter().enumerate() {
            for (ord, code) in part.row_codes.iter().enumerate() {
                if let Some(&id) = left_maps[p].get(code) {
                    build.entry(id).or_default().push((p, ord));
                }
            }
        }

        // ...then probe with the right side's rows and render each joined
        // pair from the two snapshots.
        let lcols = column_indices(&lts, &left.columns)?;
        let rcols = column_indices(&rts, &right.columns)?;
        let render_span = obs.span("render", "query", parent);
        let mut rows: Vec<Vec<CellValue>> = Vec::new();
        for (q, part) in rscan.iter().enumerate() {
            for (ord, code) in part.row_codes.iter().enumerate() {
                let Some(&id) = right_maps[q].get(code) else {
                    continue;
                };
                let Some(matches) = build.get(&id) else {
                    continue;
                };
                for &(p, l_ord) in matches {
                    let mut row = Vec::with_capacity(lcols.len() + rcols.len());
                    render_side_cells(&lts, &lscan[p], p, &lcols, l_ord, &mut row);
                    render_side_cells(&rts, part, q, &rcols, ord, &mut row);
                    rows.push(row);
                }
            }
        }
        render_span.finish();
        stats.result_rows = rows.len();
        self.store_stats(stats, parent);

        let columns = left
            .columns
            .iter()
            .map(|c| format!("{}.{c}", left.table))
            .chain(right.columns.iter().map(|c| format!("{}.{c}", right.table)))
            .collect();
        Ok(SelectResponse { columns, rows })
    }

    /// Produces the per-partition code→bridge-id maps of both sides:
    /// locally for all-PLAIN keys and for the repetition-revealing
    /// self-join shortcut, through one `JoinBridge` ECALL otherwise. An
    /// empty side short-circuits without entering the enclave.
    #[allow(clippy::too_many_arguments)]
    fn bridge_keys(
        &self,
        lts: &TableSnapshot,
        left: &JoinSideQuery,
        lscan: &[SidePartScan],
        rts: &TableSnapshot,
        right: &JoinSideQuery,
        rscan: &[SidePartScan],
        stats: &mut QueryStats,
        parent: &SpanId,
    ) -> Result<(SideMaps, SideMaps), DbError> {
        let empty = (
            vec![HashMap::new(); lscan.len()],
            vec![HashMap::new(); rscan.len()],
        );
        // An empty side provably joins nothing — no ECALL (the join
        // analogue of the empty-shard no-op).
        if lscan.iter().all(|p| p.distinct.is_empty())
            || rscan.iter().all(|p| p.distinct.is_empty())
        {
            return Ok(empty);
        }
        let (lkey_idx, lkey_spec) = lts
            .table
            .schema
            .column(&left.key)
            .ok_or_else(|| DbError::ColumnNotFound(left.key.clone()))?;
        let (rkey_idx, rkey_spec) = rts
            .table
            .schema
            .column(&right.key)
            .ok_or_else(|| DbError::ColumnNotFound(right.key.clone()))?;

        // Each side's key codes, per partition: a PLAIN side's values
        // resolved here, an encrypted side's stores for the enclave. The
        // generation key is the maximum epoch among the included
        // partition snapshots.
        let mut generation = 0u64;
        let mut key_data =
            |ts: &TableSnapshot, key_idx: usize, spec: &ColumnSpec, scan: &[SidePartScan]| {
                ts.active
                    .iter()
                    .zip(scan)
                    .map(|((pid, snap), part)| {
                        generation = generation.max(snap.epoch());
                        column_data(
                            &spec.choice,
                            &snap.main.columns[key_idx],
                            &snap.deltas[key_idx],
                            part.distinct.clone(),
                            (*pid as u64, snap.epoch()),
                        )
                    })
                    .collect::<Vec<_>>()
            };
        let lparts = key_data(lts, lkey_idx, lkey_spec, lscan);
        let rparts = key_data(rts, rkey_idx, rkey_spec, rscan);

        // All-PLAIN keys: the same bridge core the enclave runs
        // (`encdict::enclave_ops::bridge_key_tables`), executed locally
        // with no shuffle — the server sees these plaintexts anyway.
        if let (Some(lvals), Some(rvals)) = (plain_values(&lparts), plain_values(&rparts)) {
            let (lids, rids, entries) = bridge_key_tables(&lvals, &rvals, |_| {});
            stats.bridge_entries = entries;
            return Ok((to_maps(lscan, &lids), to_maps(rscan, &rids)));
        }

        // Repetition-revealing self-join shortcut: same table + key, one
        // partition in scope at one epoch, no delta codes — ValueID
        // equality IS value equality, so no decryption is needed at all.
        if left.table == right.table
            && left.key == right.key
            && matches!(lkey_spec.choice, DictChoice::Encrypted(kind)
                if kind.repetition() == RepetitionOption::Revealing)
            && lts.active.len() == 1
            && rts.active.len() == 1
            && lts.active[0].0 == rts.active[0].0
            && lts.active[0].1.epoch() == rts.active[0].1.epoch()
        {
            let main_len = lts.active[0].1.main.columns[lkey_idx].dict().len() as u32;
            let no_delta_codes = |scan: &[SidePartScan]| {
                scan.iter()
                    .all(|p| p.distinct.iter().all(|&c| c < main_len))
            };
            if no_delta_codes(lscan) && no_delta_codes(rscan) {
                let lset: BTreeSet<u32> = lscan[0].distinct.iter().copied().collect();
                stats.bridge_entries = rscan[0]
                    .distinct
                    .iter()
                    .filter(|c| lset.contains(c))
                    .count();
                let identity = |scan: &[SidePartScan]| -> SideMaps {
                    scan.iter()
                        .map(|p| p.distinct.iter().map(|&c| (c, c)).collect())
                        .collect()
                };
                return Ok((identity(lscan), identity(rscan)));
            }
        }

        // The general case (mixed protections or both encrypted): one
        // JoinBridge ECALL for the whole query. The request shares what it
        // references (`Arc`s of the main generations and of the delta
        // stores the snapshots froze) so it can ride a combined
        // transition of the cross-session scheduler.
        let side = |table: &str, spec: &ColumnSpec, parts| JoinSideData {
            table_name: table.to_string(),
            col_name: matches!(spec.choice, DictChoice::Encrypted(_)).then(|| spec.name.clone()),
            parts,
        };
        let req = JoinBridgeRequest {
            left: side(&left.table, lkey_spec, lparts),
            right: side(&right.table, rkey_spec, rparts),
        };
        let (reply, cost) = self.scheduler().bridge(req, generation, parent)?;
        cost.absorb_into(stats);
        stats.bridge_entries = reply.bridge_entries;
        Ok((to_maps(lscan, &reply.left), to_maps(rscan, &reply.right)))
    }
}

/// A PLAIN key side's per-partition values; `None` for an encrypted side.
fn plain_values(parts: &[ColumnData]) -> Option<Vec<Vec<Vec<u8>>>> {
    parts
        .iter()
        .map(|part| match part {
            ColumnData::Plain { values } => Some(values.clone()),
            ColumnData::Encrypted { .. } => None,
        })
        .collect()
}

/// Converts per-partition optional bridge ids (aligned index-for-index
/// with each partition's distinct codes) into code→id lookup maps.
fn to_maps(scan: &[SidePartScan], ids: &[Vec<Option<u32>>]) -> SideMaps {
    scan.iter()
        .zip(ids)
        .map(|(part, ids)| {
            part.distinct
                .iter()
                .zip(ids)
                .filter_map(|(&code, id)| id.map(|id| (code, id)))
                .collect()
        })
        .collect()
}

/// Resolves projected column names to schema indices.
fn column_indices(ts: &TableSnapshot, columns: &[String]) -> Result<Vec<usize>, DbError> {
    columns
        .iter()
        .map(|name| {
            ts.table
                .schema
                .column(name)
                .map(|(idx, _)| idx)
                .ok_or_else(|| DbError::ColumnNotFound(name.clone()))
        })
        .collect()
}

/// Renders one side's projected cells of a matched row into `row`.
fn render_side_cells(
    ts: &TableSnapshot,
    part: &SidePartScan,
    part_idx: usize,
    col_indices: &[usize],
    ord: usize,
    row: &mut Vec<CellValue>,
) {
    let (_, snap) = &ts.active[part_idx];
    for &idx in col_indices {
        let choice = &ts.table.schema.columns[idx].choice;
        row.push(if ord < part.main_rids.len() {
            render_main_cell(choice, &snap.main.columns[idx], part.main_rids[ord])
        } else {
            let rid = part.delta_rids[ord - part.main_rids.len()];
            render_delta_cell(choice, &snap.deltas[idx], rid)
        });
    }
}
