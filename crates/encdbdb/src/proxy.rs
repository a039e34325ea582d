//! The trusted proxy (paper Fig. 5, steps 5 and 14).
//!
//! The proxy sits between the application and the DBaaS server. It parses
//! SQL, converts every filter into a range select so the server cannot
//! distinguish query types, encrypts the range bounds under the column key
//! with fresh random IVs, forwards the query, and decrypts the returned
//! result columns — the whole process is transparent to the application.
//!
//! For range-partitioned tables the proxy is also the *router*: it alone
//! sees plaintext, so it computes which partition each inserted row
//! belongs to and which partitions a filter range can touch (the pruning
//! scope). Both hints deliberately reveal only shard residency — the
//! leakage DESIGN.md §10 analyzes — and nothing about values within a
//! shard.

use crate::error::DbError;
use crate::exec::join::{compile_join, resolve_side, JoinPlan, JoinPost, JoinSide};
use crate::exec::ordering;
use crate::exec::plan::{compile_select, resolve_single_table, AggregatePlan, SelectPlan};
use crate::obs::{Counter, Hist, SpanId};
use crate::schema::{ColumnSpec, DictChoice, TablePartitioning, TableSchema};
use crate::server::{
    lock, CellValue, DbaasServer, JoinSideQuery, QueryOutcome, SelectResponse, ServerFilter,
    ServerQuery,
};
use crate::sql::{
    parse, ColumnRef, CompareOp, Filter, JoinClause, OrderKey, SelectItem, Statement,
};
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::keys::Key128;
use encdbdb_crypto::Pae;
use encdict::aggregate::{AggFunc, AggPlanSpec, AggSpec, GroupPartials, OutputItem};
use encdict::enclave_ops::{decrypt_column_value, encrypt_value_for_column};
use encdict::{EncryptedRange, RangeBound, RangeQuery};
use rand::Rng;
use std::sync::Mutex;

/// A fully decrypted query result as handed to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryResult {
    /// Result column names.
    pub columns: Vec<String>,
    /// Result rows; plaintext values in column order.
    pub rows: Vec<Vec<Vec<u8>>>,
}

impl QueryResult {
    /// Number of result rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Rows rendered as UTF-8 strings (lossy) — convenient for examples.
    pub fn rows_as_strings(&self) -> Vec<Vec<String>> {
        self.rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|v| String::from_utf8_lossy(v).into_owned())
                    .collect()
            })
            .collect()
    }
}

/// Column ciphers one proxy keeps. The names come from schemas the
/// server reports, so the table is capped: a full table is dropped and
/// rebuilt on demand.
const CIPHER_TABLE_CAPACITY: usize = 256;

/// The cipher under one column's key `SK_D = DeriveKey(SK_DB, table,
/// column)`.
#[derive(Debug, Clone)]
struct ColumnCipher {
    table: String,
    column: String,
    pae: Pae,
}

/// The trusted proxy. `Clone` copies the master key and the column
/// ciphers built so far, so every reader session holds its own proxy and
/// shares no lock with the others on the statement path.
#[derive(Debug)]
pub struct Proxy {
    skdb: Key128,
    /// Built on a column's first use and kept: the key depends on
    /// `(SK_DB, names)` alone, so dropping or re-creating a table
    /// invalidates nothing. Behind a lock because statements run on
    /// `&self`; it is this proxy's own and uncontended unless callers
    /// share one proxy between threads.
    ciphers: Mutex<Vec<ColumnCipher>>,
}

impl Clone for Proxy {
    fn clone(&self) -> Self {
        Proxy {
            skdb: self.skdb.clone(),
            ciphers: Mutex::new(lock(&self.ciphers).clone()),
        }
    }
}

impl Proxy {
    /// Creates a proxy holding the master key (deployed out-of-band by the
    /// data owner, Fig. 5 step 2).
    pub fn new(skdb: Key128) -> Self {
        Proxy {
            skdb,
            ciphers: Mutex::default(),
        }
    }

    /// A copy of the column's cipher, for the statement to hold and wipe
    /// when it is done.
    fn column_pae(&self, table: &str, column: &str) -> Pae {
        let mut ciphers = lock(&self.ciphers);
        if let Some(c) = ciphers
            .iter()
            .find(|c| c.table == table && c.column == column)
        {
            return c.pae.clone();
        }
        if ciphers.len() >= CIPHER_TABLE_CAPACITY {
            ciphers.clear();
        }
        let pae = Pae::new(&derive_column_key(&self.skdb, table, column));
        ciphers.push(ColumnCipher {
            table: table.to_string(),
            column: column.to_string(),
            pae: pae.clone(),
        });
        pae
    }

    /// The cipher of `spec`'s column if it is declared encrypted.
    fn spec_pae(&self, table: &str, spec: &ColumnSpec) -> Option<Pae> {
        match spec.choice {
            DictChoice::Encrypted(_) => Some(self.column_pae(table, &spec.name)),
            DictChoice::Plain => None,
        }
    }

    /// Builds the server-side filter for one column's range disjunction,
    /// encrypting every bound for encrypted columns.
    fn server_filter<R: Rng + ?Sized>(
        &self,
        table: &str,
        spec: &ColumnSpec,
        ranges: Vec<RangeQuery>,
        rng: &mut R,
    ) -> ServerFilter {
        match spec.choice {
            DictChoice::Encrypted(_) => {
                let pae = self.column_pae(table, &spec.name);
                ServerFilter::Encrypted {
                    column: spec.name.clone(),
                    ranges: ranges
                        .into_iter()
                        .map(|r| EncryptedRange::encrypt(&pae, rng, &r))
                        .collect(),
                }
            }
            DictChoice::Plain => ServerFilter::Plain {
                column: spec.name.clone(),
                ranges,
            },
        }
    }

    /// Encrypts per-column range disjunctions into server filters and
    /// computes the partition scope the plaintext ranges imply (`None`
    /// when the table is unpartitioned or no filter targets the partition
    /// column — every partition is then in scope).
    fn encrypt_filters<R: Rng + ?Sized>(
        &self,
        schema: &TableSchema,
        table: &str,
        per_column: Vec<(String, Vec<RangeQuery>)>,
        rng: &mut R,
    ) -> Result<(Vec<ServerFilter>, Option<Vec<usize>>), DbError> {
        let mut scope = None;
        let mut out = Vec::with_capacity(per_column.len());
        for (col, ranges) in per_column {
            let (_, spec) = schema
                .column(&col)
                .ok_or_else(|| DbError::ColumnNotFound(col.clone()))?;
            // The pruning hint: computed on the *plaintext* ranges before
            // the bounds are encrypted away. A disjunction's scope is the
            // union of its per-range scopes.
            if let Some(part) = &schema.partitioning {
                if part.column == col {
                    let mut ids = std::collections::BTreeSet::new();
                    for r in &ranges {
                        ids.extend(part.overlapping(r));
                    }
                    scope = Some(ids.into_iter().collect());
                }
            }
            out.push(self.server_filter(table, spec, ranges, rng));
        }
        Ok((out, scope))
    }

    /// Builds the server-side filter conjunction for an optional
    /// single-table AST filter (qualifiers must name this table), plus the
    /// partition scope.
    fn build_server_filters<R: Rng + ?Sized>(
        &self,
        schema: &TableSchema,
        table: &str,
        filter: Option<&Filter>,
        rng: &mut R,
    ) -> Result<(Vec<ServerFilter>, Option<Vec<usize>>), DbError> {
        let Some(filter) = filter else {
            return Ok((Vec::new(), None));
        };
        // Qualifiers are resolved *before* conjuncts merge, so `t.a >= x
        // AND a < y` intersects into one filter (one search per shard)
        // rather than two filters on the same column.
        let mut leaves = Vec::new();
        collect_leaves(filter, &mut leaves);
        let mut merged: Vec<(ColumnRef, Vec<RangeQuery>)> = Vec::new();
        for leaf in leaves {
            let (col, disjuncts) = leaf_ranges(leaf)?;
            let bare = resolve_single_table(schema, &col)?;
            merge_column_ranges(&mut merged, ColumnRef::bare(bare), disjuncts)?;
        }
        let per_column = merged.into_iter().map(|(r, ranges)| (r.column, ranges));
        self.encrypt_filters(schema, table, per_column.collect(), rng)
    }

    /// Routes every row of an insert to its partition by the plaintext
    /// value of the partition column.
    ///
    /// # Errors
    ///
    /// Returns [`DbError::ColumnNotFound`] if the partition column is not
    /// in the schema.
    fn route_insert(
        schema: &TableSchema,
        part: &TablePartitioning,
        rows: &[Vec<Vec<u8>>],
    ) -> Result<Vec<usize>, DbError> {
        let (idx, _) = schema
            .column(&part.column)
            .ok_or_else(|| DbError::ColumnNotFound(part.column.clone()))?;
        Ok(rows
            .iter()
            .map(|row| part.partition_of(&row[idx]))
            .collect())
    }

    /// Executes one SQL statement against the server.
    ///
    /// # Errors
    ///
    /// Propagates parse, lookup, and crypto failures.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        sql: &str,
        rng: &mut R,
    ) -> Result<QueryResult, DbError> {
        let obs = server.obs().clone();
        let root = obs.span("query", "query", &SpanId::NONE);
        obs.add(Counter::QueriesTotal, 1);
        let parse_span = obs.span("parse", "query", root.id());
        let stmt = parse(sql)?;
        parse_span.finish();
        let result = self.dispatch(server, stmt, rng, &obs, root.id());
        root.finish_into(Hist::QueryNs);
        result
    }

    /// Executes an already-parsed [`Statement`] against the server —
    /// identical to [`Proxy::execute`] minus the parse step. The net
    /// layer uses this to run a tenant-rewritten AST directly instead of
    /// re-rendering it to SQL (the `Display` round-trip is lossy for
    /// non-UTF-8 values).
    ///
    /// # Errors
    ///
    /// Propagates lookup and crypto failures.
    pub fn execute_statement<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        stmt: Statement,
        rng: &mut R,
    ) -> Result<QueryResult, DbError> {
        let obs = server.obs().clone();
        let root = obs.span("query", "query", &SpanId::NONE);
        obs.add(Counter::QueriesTotal, 1);
        let result = self.dispatch(server, stmt, rng, &obs, root.id());
        root.finish_into(Hist::QueryNs);
        result
    }

    /// The shared statement dispatcher behind [`Proxy::execute`] and
    /// [`Proxy::execute_statement`].
    fn dispatch<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        stmt: Statement,
        rng: &mut R,
        obs: &crate::obs::Obs,
        root: &SpanId,
    ) -> Result<QueryResult, DbError> {
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                partition_by,
            } => {
                let specs = columns
                    .into_iter()
                    .map(|c| ColumnSpec {
                        name: c.name,
                        choice: c.choice,
                        max_len: c.max_len,
                        bs_max: c.bs_max.unwrap_or(crate::schema::DEFAULT_BS_MAX),
                    })
                    .collect();
                let mut schema = TableSchema::new(name, specs);
                if let Some(p) = partition_by {
                    schema =
                        schema.with_partitioning(TablePartitioning::new(p.column, p.split_points));
                }
                server.create_table(schema)?;
                Ok(QueryResult {
                    columns: vec![],
                    rows: vec![],
                })
            }
            Statement::Insert { table, rows } => {
                obs.add(Counter::InsertsTotal, 1);
                let plan_span = obs.span("plan", "query", root);
                let schema = server.schema(&table)?;
                for row in &rows {
                    if row.len() != schema.columns.len() {
                        return Err(DbError::ArityMismatch {
                            expected: schema.columns.len(),
                            got: row.len(),
                        });
                    }
                }
                // Partition routing happens here, on plaintext, before the
                // values are encrypted away.
                let partition_ids = match &schema.partitioning {
                    Some(part) => Some(Self::route_insert(&schema, part, &rows)?),
                    None => None,
                };
                let paes: Vec<Option<Pae>> = schema
                    .columns
                    .iter()
                    .map(|spec| self.spec_pae(&table, spec))
                    .collect();
                let mut cells = Vec::with_capacity(rows.len());
                for row in rows {
                    let mut out = Vec::with_capacity(row.len());
                    for ((spec, pae), value) in schema.columns.iter().zip(&paes).zip(row) {
                        if value.len() > spec.max_len {
                            return Err(DbError::ValueTooLong {
                                got: value.len(),
                                max: spec.max_len,
                            });
                        }
                        out.push(match pae {
                            Some(pae) => CellValue::Encrypted(
                                encrypt_value_for_column(pae, rng, &value).into_bytes(),
                            ),
                            None => CellValue::Plain(value),
                        });
                    }
                    cells.push(out);
                }
                plan_span.finish();
                let outcome = server.execute_query_traced(
                    ServerQuery::Insert {
                        table,
                        rows: cells,
                        partition_ids,
                    },
                    root,
                )?;
                let QueryOutcome::Affected(n) = outcome else {
                    unreachable!("insert returns an affected count");
                };
                Ok(QueryResult {
                    columns: vec!["inserted".to_string()],
                    rows: vec![vec![n.to_string().into_bytes()]],
                })
            }
            Statement::Select {
                distinct,
                items,
                table,
                join,
                filter,
                group_by,
                order_by,
                limit,
            } => {
                if let Some(join) = join {
                    self.execute_join(
                        server,
                        &table,
                        &join,
                        distinct,
                        &items,
                        filter.as_ref(),
                        &group_by,
                        &order_by,
                        limit,
                        rng,
                        root,
                    )
                } else {
                    let plan_span = obs.span("plan", "query", root);
                    let schema = server.schema(&table)?;
                    let plan =
                        compile_select(&schema, distinct, &items, &group_by, &order_by, limit)?;
                    let (filters, scope) =
                        self.build_server_filters(&schema, &table, filter.as_ref(), rng)?;
                    plan_span.finish();
                    match plan {
                        SelectPlan::Rows {
                            columns,
                            sort,
                            limit,
                        } => {
                            obs.add(Counter::SelectsTotal, 1);
                            let outcome = server.execute_query_traced(
                                ServerQuery::Select {
                                    table: table.clone(),
                                    columns,
                                    filters,
                                    scope,
                                },
                                root,
                            )?;
                            let QueryOutcome::Rows(response) = outcome else {
                                unreachable!("select returns rows");
                            };
                            let mut result = self.decrypt_rows(&schema, &table, response)?;
                            // ORDER BY / LIMIT over row plans run here, after
                            // decryption — encrypted cells are not sortable on
                            // the server.
                            ordering::sort_and_limit(&mut result.rows, &sort, limit);
                            Ok(result)
                        }
                        SelectPlan::Aggregate(plan) => {
                            obs.add(Counter::AggregatesTotal, 1);
                            let outcome = server.execute_query_traced(
                                ServerQuery::Aggregate {
                                    table: table.clone(),
                                    plan: plan.clone(),
                                    filters,
                                    scope,
                                },
                                root,
                            )?;
                            let QueryOutcome::Rows(response) = outcome else {
                                unreachable!("aggregate returns rows");
                            };
                            self.decrypt_aggregate_rows(&schema, &table, &plan, response)
                        }
                    }
                }
            }
            Statement::Delete { table, filter } => {
                obs.add(Counter::DeletesTotal, 1);
                let plan_span = obs.span("plan", "query", root);
                let schema = server.schema(&table)?;
                let (filters, scope) =
                    self.build_server_filters(&schema, &table, filter.as_ref(), rng)?;
                plan_span.finish();
                let outcome = server.execute_query_traced(
                    ServerQuery::Delete {
                        table,
                        filters,
                        scope,
                    },
                    root,
                )?;
                let QueryOutcome::Affected(n) = outcome else {
                    unreachable!("delete returns an affected count");
                };
                Ok(QueryResult {
                    columns: vec!["deleted".to_string()],
                    rows: vec![vec![n.to_string().into_bytes()]],
                })
            }
        }
    }

    /// Executes a two-table equi-join: compile, split the WHERE
    /// conjunction per side, encrypt each side's bounds, hand the server
    /// one [`ServerQuery::Join`], then decrypt the joined rows and run the
    /// plan's post-processing (projection or GROUP BY / aggregation /
    /// DISTINCT, ORDER BY, LIMIT) here in the trusted proxy — joined
    /// cells of encrypted columns only exist as ciphertexts until step 14.
    #[allow(clippy::too_many_arguments)]
    fn execute_join<R: Rng + ?Sized>(
        &self,
        server: &DbaasServer,
        table: &str,
        join: &JoinClause,
        distinct: bool,
        items: &[SelectItem],
        filter: Option<&Filter>,
        group_by: &[ColumnRef],
        order_by: &[OrderKey],
        limit: Option<usize>,
        rng: &mut R,
        parent: &SpanId,
    ) -> Result<QueryResult, DbError> {
        let obs = server.obs().clone();
        obs.add(Counter::JoinsTotal, 1);
        let plan_span = obs.span("plan", "query", parent);
        let lschema = server.schema(table)?;
        let rschema = server.schema(&join.table)?;
        let plan = compile_join(
            &lschema, &rschema, join, distinct, items, group_by, order_by, limit,
        )?;

        // Split the WHERE conjunction by side: each leaf targets a single
        // column, which resolves to exactly one of the two tables.
        let mut per_side: [Vec<(String, Vec<RangeQuery>)>; 2] = [Vec::new(), Vec::new()];
        if let Some(filter) = filter {
            let mut leaves = Vec::new();
            collect_leaves(filter, &mut leaves);
            let mut refs: [Vec<(ColumnRef, Vec<RangeQuery>)>; 2] = [Vec::new(), Vec::new()];
            for leaf in leaves {
                let (col, disjuncts) = leaf_ranges(leaf)?;
                let (side, bare) = resolve_side(&lschema, &rschema, &col)?;
                let slot = match side {
                    JoinSide::Left => &mut refs[0],
                    JoinSide::Right => &mut refs[1],
                };
                merge_column_ranges(&mut *slot, ColumnRef::bare(bare), disjuncts)?;
            }
            for (i, side_refs) in refs.into_iter().enumerate() {
                per_side[i] = side_refs
                    .into_iter()
                    .map(|(r, ranges)| (r.column, ranges))
                    .collect();
            }
        }
        let [lranges, rranges] = per_side;
        let (lfilters, lscope) = self.encrypt_filters(&lschema, table, lranges, rng)?;
        let (rfilters, rscope) = self.encrypt_filters(&rschema, &join.table, rranges, rng)?;
        plan_span.finish();

        let outcome = server.execute_query_traced(
            ServerQuery::Join {
                left: JoinSideQuery {
                    table: plan.left.table.clone(),
                    key: plan.left.key.clone(),
                    columns: plan.left.columns.clone(),
                    filters: lfilters,
                    scope: lscope,
                },
                right: JoinSideQuery {
                    table: plan.right.table.clone(),
                    key: plan.right.key.clone(),
                    columns: plan.right.columns.clone(),
                    filters: rfilters,
                    scope: rscope,
                },
            },
            parent,
        )?;
        let QueryOutcome::Rows(response) = outcome else {
            unreachable!("join returns rows");
        };
        let rows = self.decrypt_join_rows(&plan, &lschema, &rschema, response)?;
        self.post_process_join(&plan, rows)
    }

    /// Step 14 for joins: each combined-row cell decrypts under the key of
    /// the side and column it was rendered from.
    fn decrypt_join_rows(
        &self,
        plan: &JoinPlan,
        lschema: &TableSchema,
        rschema: &TableSchema,
        response: SelectResponse,
    ) -> Result<Vec<Vec<Vec<u8>>>, DbError> {
        let mut paes = Vec::new();
        for (side, name) in plan.combined_columns() {
            let (schema, table) = match side {
                JoinSide::Left => (lschema, &plan.left.table),
                JoinSide::Right => (rschema, &plan.right.table),
            };
            let (_, spec) = schema
                .column(name)
                .ok_or_else(|| DbError::ColumnNotFound(name.to_string()))?;
            paes.push(self.spec_pae(table, spec));
        }
        decrypt_cells(response.rows, &paes)
    }

    /// Runs a join plan's post-processing over the decrypted combined
    /// rows: plain projection with proxy-side ORDER BY / LIMIT, or the
    /// grouped-aggregation path through the same trusted-core
    /// partial-aggregate machinery ([`GroupPartials`]) the enclave and the
    /// all-PLAIN executor use.
    fn post_process_join(
        &self,
        plan: &JoinPlan,
        rows: Vec<Vec<Vec<u8>>>,
    ) -> Result<QueryResult, DbError> {
        let rows = match &plan.post {
            JoinPost::Rows { projection } => {
                let mut projected: Vec<Vec<Vec<u8>>> = rows
                    .into_iter()
                    .map(|row| projection.iter().map(|&i| row[i].clone()).collect())
                    .collect();
                ordering::sort_and_limit(&mut projected, &plan.sort, plan.limit);
                projected
            }
            JoinPost::Aggregate {
                group_cols,
                aggregates,
                items,
            } => {
                // Reduce the joined rows to the same (value tables,
                // tuple histogram) shape the server-side scan produces,
                // then group/aggregate/sort/limit in the shared trusted
                // core.
                let ncols = plan.left.columns.len() + plan.right.columns.len();
                let mut tables: Vec<Vec<Vec<u8>>> = vec![Vec::new(); ncols];
                let mut index: Vec<std::collections::HashMap<Vec<u8>, u32>> =
                    vec![std::collections::HashMap::new(); ncols];
                let mut hist: std::collections::HashMap<Vec<u32>, u64> =
                    std::collections::HashMap::new();
                for row in rows {
                    let tuple: Vec<u32> = row
                        .into_iter()
                        .enumerate()
                        .map(|(c, value)| match index[c].get(&value) {
                            Some(&i) => i,
                            None => {
                                let i = tables[c].len() as u32;
                                index[c].insert(value.clone(), i);
                                tables[c].push(value);
                                i
                            }
                        })
                        .collect();
                    *hist.entry(tuple).or_insert(0) += 1;
                }
                let mut tuples: Vec<(Vec<u32>, u64)> = hist.into_iter().collect();
                tuples.sort_unstable();
                let spec = AggPlanSpec {
                    group_cols: group_cols.clone(),
                    aggregates: aggregates
                        .iter()
                        .map(|a| AggSpec {
                            func: a.func,
                            col: a.col,
                        })
                        .collect(),
                    items: items.clone(),
                    sort: plan.sort.clone(),
                    limit: plan.limit,
                };
                let mut partials = GroupPartials::new();
                partials.accumulate(&tables, &tuples, &spec)?;
                partials.finalize(&spec)?
            }
        };
        Ok(QueryResult {
            columns: plan.item_names.clone(),
            rows,
        })
    }

    /// Step 14 for row plans: decrypt every entry of each encrypted result
    /// column with the column-specific key.
    fn decrypt_rows(
        &self,
        schema: &TableSchema,
        table: &str,
        response: SelectResponse,
    ) -> Result<QueryResult, DbError> {
        let mut paes: Vec<Option<Pae>> = Vec::with_capacity(response.columns.len());
        for name in &response.columns {
            let (_, spec) = schema
                .column(name)
                .ok_or_else(|| DbError::ColumnNotFound(name.clone()))?;
            paes.push(self.spec_pae(table, spec));
        }
        let rows = decrypt_cells(response.rows, &paes)?;
        Ok(QueryResult {
            columns: response.columns,
            rows,
        })
    }

    /// Step 14 for aggregate plans: each output item decrypts under the
    /// key of the column it derives from (group key → that column;
    /// SUM/MIN/MAX/AVG → the aggregated column; COUNT → plaintext).
    fn decrypt_aggregate_rows(
        &self,
        schema: &TableSchema,
        table: &str,
        plan: &AggregatePlan,
        response: SelectResponse,
    ) -> Result<QueryResult, DbError> {
        let mut paes: Vec<Option<Pae>> = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            let source = match item {
                OutputItem::Group(i) => Some(plan.group_cols[*i].as_str()),
                OutputItem::Agg(j) => {
                    let agg = &plan.aggregates[*j];
                    if agg.func == AggFunc::Count {
                        None
                    } else {
                        agg.column.as_deref()
                    }
                }
            };
            paes.push(match source {
                Some(name) => {
                    let (_, spec) = schema
                        .column(name)
                        .ok_or_else(|| DbError::ColumnNotFound(name.to_string()))?;
                    self.spec_pae(table, spec)
                }
                None => None,
            });
        }
        let rows = decrypt_cells(response.rows, &paes)?;
        Ok(QueryResult {
            columns: response.columns,
            rows,
        })
    }
}

/// Decrypts a cell matrix against per-column optional keys.
fn decrypt_cells(
    rows: Vec<Vec<CellValue>>,
    paes: &[Option<Pae>],
) -> Result<Vec<Vec<Vec<u8>>>, DbError> {
    let mut out_rows = Vec::with_capacity(rows.len());
    for row in rows {
        let mut out = Vec::with_capacity(row.len());
        for (cell, pae) in row.into_iter().zip(paes) {
            out.push(match (cell, pae) {
                (CellValue::Encrypted(ct), Some(pae)) => decrypt_column_value(pae, &ct)?,
                (CellValue::Plain(v), None) => v,
                _ => {
                    return Err(DbError::UnsupportedFilter(
                        "cell form does not match column protection".to_string(),
                    ))
                }
            });
        }
        out_rows.push(out);
    }
    Ok(out_rows)
}

/// Flattens an `AND` tree into its single-column leaves.
fn collect_leaves<'a>(f: &'a Filter, out: &mut Vec<&'a Filter>) {
    match f {
        Filter::And(a, b) => {
            collect_leaves(a, out);
            collect_leaves(b, out);
        }
        leaf => out.push(leaf),
    }
}

/// One leaf filter as a (column, range-disjunction) pair — the w.l.o.g.
/// conversion of Fig. 5 step 5: a comparison or `BETWEEN` is one range, an
/// `IN (...)` list one equality range per distinct value.
///
/// # Errors
///
/// [`DbError::UnsupportedFilter`] for an `AND`, which [`collect_leaves`]
/// splits before any leaf gets here.
fn leaf_ranges(leaf: &Filter) -> Result<(ColumnRef, Vec<RangeQuery>), DbError> {
    Ok(match leaf {
        Filter::Compare { column, op, value } => {
            let value = value.clone();
            let range = match op {
                CompareOp::Eq => RangeQuery::equals(value),
                CompareOp::Lt => RangeQuery::less_than(value),
                CompareOp::Le => RangeQuery::at_most(value),
                CompareOp::Gt => RangeQuery::greater_than(value),
                CompareOp::Ge => RangeQuery::at_least(value),
            };
            (column.clone(), vec![range])
        }
        Filter::Between { column, low, high } => (
            column.clone(),
            vec![RangeQuery::between(low.clone(), high.clone())],
        ),
        Filter::In { column, values } => {
            // One equality range per distinct listed value; each costs one
            // dictionary search, so duplicates are dropped up front.
            let distinct: std::collections::BTreeSet<&Vec<u8>> = values.iter().collect();
            (
                column.clone(),
                distinct
                    .into_iter()
                    .map(|v| RangeQuery::equals(v.clone()))
                    .collect(),
            )
        }
        Filter::And(..) => {
            return Err(DbError::UnsupportedFilter(
                "a conjunction is not a leaf".to_string(),
            ))
        }
    })
}

/// Folds one leaf's disjunction into the per-column accumulator: a new
/// column appends; a repeated column intersects pairwise (`x IN (..) AND
/// x BETWEEN ..` stays a disjunction of tightened ranges). Provably empty
/// intersections and duplicates are dropped — every surviving range costs
/// a dictionary search, and an `IN ∧ IN` cross product would otherwise
/// degrade to n·m searches. A column whose ranges all vanish keeps an
/// empty disjunction: the filter provably matches nothing, and the server
/// answers it without a single search.
fn merge_column_ranges(
    acc: &mut Vec<(ColumnRef, Vec<RangeQuery>)>,
    col: ColumnRef,
    disjuncts: Vec<RangeQuery>,
) -> Result<(), DbError> {
    match acc.iter_mut().find(|(c, _)| c == &col) {
        None => acc.push((col, disjuncts)),
        Some((_, existing)) => {
            let mut combined: Vec<RangeQuery> = Vec::new();
            for a in existing.iter() {
                for b in &disjuncts {
                    let r = intersect(a.clone(), b.clone())?;
                    if !r.is_provably_empty() && !combined.contains(&r) {
                        combined.push(r);
                    }
                }
            }
            *existing = combined;
        }
    }
    Ok(())
}

/// Intersects two ranges from an `AND` conjunction on one column.
fn intersect(a: RangeQuery, b: RangeQuery) -> Result<RangeQuery, DbError> {
    fn tighter_start(a: RangeBound, b: RangeBound) -> RangeBound {
        match (a, b) {
            (RangeBound::Unbounded, other) | (other, RangeBound::Unbounded) => other,
            (x, y) => {
                let (vx, sx) = match &x {
                    RangeBound::Inclusive(v) => (v.clone(), false),
                    RangeBound::Exclusive(v) => (v.clone(), true),
                    RangeBound::Unbounded => unreachable!(),
                };
                let (vy, sy) = match &y {
                    RangeBound::Inclusive(v) => (v.clone(), false),
                    RangeBound::Exclusive(v) => (v.clone(), true),
                    RangeBound::Unbounded => unreachable!(),
                };
                match vx.cmp(&vy) {
                    std::cmp::Ordering::Greater => x,
                    std::cmp::Ordering::Less => y,
                    std::cmp::Ordering::Equal => {
                        if sx || sy {
                            RangeBound::Exclusive(vx)
                        } else {
                            x
                        }
                    }
                }
            }
        }
    }
    fn tighter_end(a: RangeBound, b: RangeBound) -> RangeBound {
        match (a, b) {
            (RangeBound::Unbounded, other) | (other, RangeBound::Unbounded) => other,
            (x, y) => {
                let (vx, sx) = match &x {
                    RangeBound::Inclusive(v) => (v.clone(), false),
                    RangeBound::Exclusive(v) => (v.clone(), true),
                    RangeBound::Unbounded => unreachable!(),
                };
                let (vy, sy) = match &y {
                    RangeBound::Inclusive(v) => (v.clone(), false),
                    RangeBound::Exclusive(v) => (v.clone(), true),
                    RangeBound::Unbounded => unreachable!(),
                };
                match vx.cmp(&vy) {
                    std::cmp::Ordering::Less => x,
                    std::cmp::Ordering::Greater => y,
                    std::cmp::Ordering::Equal => {
                        if sx || sy {
                            RangeBound::Exclusive(vx)
                        } else {
                            x
                        }
                    }
                }
            }
        }
    }
    Ok(RangeQuery {
        start: tighter_start(a.start, b.start),
        end: tighter_end(a.end, b.end),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::Filter;

    fn cmp(op: CompareOp, v: &str) -> Filter {
        Filter::Compare {
            column: "c".into(),
            op,
            value: v.as_bytes().to_vec(),
        }
    }

    /// The per-column ranges of a conjunctive filter, the way statements
    /// build them.
    fn column_ranges(filter: &Filter) -> Vec<(ColumnRef, Vec<RangeQuery>)> {
        let mut leaves = Vec::new();
        collect_leaves(filter, &mut leaves);
        let mut out = Vec::new();
        for leaf in leaves {
            let (col, disjuncts) = leaf_ranges(leaf).unwrap();
            merge_column_ranges(&mut out, col, disjuncts).unwrap();
        }
        out
    }

    #[test]
    fn filter_conversion_covers_all_shapes() {
        let (col, r) = leaf_ranges(&cmp(CompareOp::Eq, "x")).unwrap();
        assert_eq!(col, ColumnRef::bare("c"));
        assert_eq!(r, [RangeQuery::equals("x")]);
        let (_, r) = leaf_ranges(&cmp(CompareOp::Lt, "x")).unwrap();
        assert_eq!(r, [RangeQuery::less_than("x")]);
        let (_, r) = leaf_ranges(&cmp(CompareOp::Ge, "x")).unwrap();
        assert_eq!(r, [RangeQuery::at_least("x")]);
        let (_, r) = leaf_ranges(&Filter::Between {
            column: "c".into(),
            low: b"a".to_vec(),
            high: b"f".to_vec(),
        })
        .unwrap();
        assert_eq!(r, [RangeQuery::between("a", "f")]);
    }

    #[test]
    fn and_conjunction_intersects() {
        let f = Filter::And(
            Box::new(cmp(CompareOp::Ge, "b")),
            Box::new(cmp(CompareOp::Lt, "m")),
        );
        let r = RangeQuery {
            start: RangeBound::Inclusive(b"b".to_vec()),
            end: RangeBound::Exclusive(b"m".to_vec()),
        };
        assert_eq!(column_ranges(&f), [(ColumnRef::bare("c"), vec![r])]);
    }

    #[test]
    fn and_tighter_bound_wins() {
        let f = Filter::And(
            Box::new(cmp(CompareOp::Ge, "b")),
            Box::new(cmp(CompareOp::Gt, "c")),
        );
        let [(_, r)] = &column_ranges(&f)[..] else {
            panic!("one column");
        };
        assert_eq!(r[0].start, RangeBound::Exclusive(b"c".to_vec()));
    }

    #[test]
    fn multi_column_and_rejected() {
        // Two columns are two entries, never one intersected range.
        let f = Filter::And(
            Box::new(cmp(CompareOp::Ge, "b")),
            Box::new(Filter::Compare {
                column: "other".into(),
                op: CompareOp::Lt,
                value: b"m".to_vec(),
            }),
        );
        let cols: Vec<ColumnRef> = column_ranges(&f).into_iter().map(|(c, _)| c).collect();
        assert_eq!(cols, [ColumnRef::bare("c"), ColumnRef::bare("other")]);
    }
}
