//! The five workloads: seeded generators of plaintext tables and statement
//! streams, each statement carrying the oracle's digest of its result.
//!
//! The program under test sees only what a generator returns — tables to
//! load and SQL text to execute. Everything is drawn from one `StdRng`
//! seeded with `--seed`, so the same seed gives the same tables, the same
//! statements and the same digests (unit-tested below).
//!
//! Sizes are fixed; only the op count scales with `--seconds` (README,
//! "Run length").

use crate::oracle::{digest, digest_scalar, Expected, Row, ValueIndex};
use colstore::column::Column;
use colstore::table::Table;
use encdbdb::{ColumnSpec, DictChoice, TablePartitioning, TableSchema};
use encdict::EdKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use workload::spec::value_string;
use workload::zipf::Zipf;

/// How the single client reaches the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `Session::execute` in the client's own thread.
    InProcess,
    /// `NetClient::execute` against a 2-worker `NetServer` on loopback.
    Tcp,
    /// `Session::execute` on a session with durable storage attached.
    Durable,
}

/// Static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name (`--workload`).
    pub name: &'static str,
    /// How the client reaches the program.
    pub front: Front,
    /// Measured ops of a full-length run (`--seconds` = `run_seconds`).
    pub full_ops: usize,
    /// Op classes, indexed by [`Op::class`]; the stream cycles through
    /// `cycle` (class index per slot).
    pub classes: &'static [&'static str],
    /// One cycle of the op stream, as class indices.
    pub cycle: &'static [usize],
    generate: fn(&Spec, &mut StdRng, usize, bool) -> Plan,
}

/// Tenant the TCP workload authenticates as.
pub const TENANT: &str = "bench";
/// That tenant's bearer token.
pub const TOKEN: &str = "bench-token";

/// All workloads, in `BENCHMARK.json` order.
pub const ALL: [Spec; 5] = [
    Spec {
        name: "range_ed1",
        front: Front::InProcess,
        full_ops: 6_000,
        classes: &["range"],
        cycle: &[0],
        generate: range_ed1,
    },
    Spec {
        name: "range_ed9",
        front: Front::InProcess,
        full_ops: 1_000,
        classes: &["range"],
        cycle: &[0],
        generate: range_ed9,
    },
    Spec {
        name: "analytic_ed5",
        front: Front::InProcess,
        full_ops: 5_000,
        classes: &["grouped", "join"],
        cycle: &[0, 0, 0, 1],
        generate: analytic_ed5,
    },
    Spec {
        name: "tcp_point",
        front: Front::Tcp,
        full_ops: 400_000,
        classes: &["point"],
        cycle: &[0],
        generate: tcp_point,
    },
    Spec {
        name: "ingest_durable",
        front: Front::Durable,
        full_ops: 60_000,
        classes: &["insert", "point", "count"],
        cycle: &[0, 0, 0, 0, 0, 0, 1, 1, 1, 2],
        generate: ingest_durable,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// One generated statement with its expected result.
#[derive(Debug, Clone)]
pub struct Op {
    /// The SQL text handed to the program.
    pub sql: String,
    /// Index into [`Spec::classes`].
    pub class: usize,
    /// The oracle's digest of the correct result.
    pub expect: Expected,
}

/// A plaintext table plus the schema it is deployed under.
#[derive(Debug, Clone)]
pub struct TableData {
    /// Plaintext rows.
    pub table: Table,
    /// Column types, partitioning.
    pub schema: TableSchema,
}

/// The column the workload's main filter runs on — input of the layer
/// probes (`encdict.*`, `avsearch.*`, `crypto.*`).
#[derive(Debug, Clone)]
pub struct ProbeInput {
    /// Index into [`Plan::tables`].
    pub table: usize,
    /// Filtered column.
    pub column: &'static str,
    /// Inclusive plaintext ranges of the first measured ops' filters.
    pub ranges: Vec<(Vec<u8>, Vec<u8>)>,
}

/// Statements of the measured stream re-targeted at a twin deployment,
/// with the op class and the digest each must still produce.
#[derive(Debug, Clone, Default)]
pub struct TwinOps {
    /// `(sql, class, expected)` — the same statements, other tables.
    pub ops: Vec<(String, usize, Expected)>,
}

/// Everything a run needs, generated from the seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Tables deployed at set-up.
    pub tables: Vec<TableData>,
    /// Warm-up ops followed by the measured ops.
    pub ops: Vec<Op>,
    /// How many leading ops are warm-up (untimed, still checked).
    pub warmup: usize,
    /// Plaintext value bytes of the rows live at the end of the stream.
    pub user_bytes: u64,
    /// Probe input.
    pub probe: ProbeInput,
    /// A statement over the whole table to verify after a restart.
    pub final_check: Option<(String, Expected)>,
    /// Traced runs only: twin tables to deploy beside the real ones…
    pub twin_tables: Vec<TableData>,
    /// …and the first measured ops re-targeted at them, keyed by twin
    /// (`"plain"`, `"one_shard"`).
    pub twin_ops: BTreeMap<&'static str, TwinOps>,
}

/// How many leading measured ops are mirrored onto twins and into
/// [`ProbeInput::ranges`].
pub const TWIN_OPS: usize = 240;

impl Spec {
    /// Measured op count for a run of `seconds` out of `full_seconds`,
    /// times `factor` (`--quick`): scaled from [`Spec::full_ops`] and
    /// rounded down to whole cycles per segment so every segment holds the
    /// same class mix.
    pub fn ops_for(&self, seconds: u64, full_seconds: u64, factor: f64) -> usize {
        let unit = crate::stats::SEGMENTS * self.cycle.len();
        let scaled = self.full_ops as f64 * seconds as f64 / full_seconds as f64 * factor;
        ((scaled as usize) / unit).max(1) * unit
    }

    /// Warm-up length for `ops` measured ops: 1 %, at least 50, in whole
    /// cycles so the measured stream starts at a cycle boundary.
    pub fn warmup_for(&self, ops: usize) -> usize {
        (ops / 100).max(50).div_ceil(self.cycle.len()) * self.cycle.len()
    }

    /// Generates the plan for `ops` measured ops. `traced` adds the twin
    /// tables and statements the layer probes need.
    pub fn generate(&self, seed: u64, ops: usize, traced: bool) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed);
        (self.generate)(self, &mut rng, ops, traced)
    }

    /// The class of the `i`-th op of the stream.
    pub fn class_at(&self, i: usize) -> usize {
        self.cycle[i % self.cycle.len()]
    }
}

// ---------------------------------------------------------------------------
// Column and table helpers
// ---------------------------------------------------------------------------

/// `rows` values over `uniques` distinct ones, every unique present, the
/// rest Zipf(`exponent`) by rank, shuffled. `render` maps a rank to its
/// value and must be monotone so rank order is value order.
fn zipf_column(
    name: &str,
    len: usize,
    rows: usize,
    uniques: usize,
    exponent: f64,
    render: impl Fn(usize) -> String,
    rng: &mut StdRng,
) -> Column {
    let zipf = Zipf::new(uniques, exponent);
    let mut ranks: Vec<u32> = (0..uniques as u32).collect();
    ranks.extend((uniques..rows).map(|_| zipf.sample(rng) as u32));
    ranks.shuffle(rng);
    let rendered: Vec<String> = (0..uniques).map(render).collect();
    let mut column = Column::new(name, len);
    for r in ranks {
        column
            .push(rendered[r as usize].as_bytes())
            .expect("generated values fit the declared length");
    }
    column
}

/// A column of `rows` distinct keys (`value_string(base + i)`), shuffled.
fn key_column(name: &str, len: usize, base: usize, rows: usize, rng: &mut StdRng) -> Column {
    let mut ids: Vec<usize> = (base..base + rows).collect();
    ids.shuffle(rng);
    let mut column = Column::new(name, len);
    for i in ids {
        column
            .push(value_string(i, len).as_bytes())
            .expect("generated values fit the declared length");
    }
    column
}

fn table_of(name: &str, columns: Vec<Column>) -> Table {
    let mut table = Table::new(name);
    for c in columns {
        table.add_column(c).expect("distinct equally long columns");
    }
    table
}

fn schema_of(name: &str, columns: &[(&str, Option<EdKind>, usize)]) -> TableSchema {
    TableSchema::new(
        name,
        columns
            .iter()
            .map(|&(col, kind, len)| {
                let choice = kind.map_or(DictChoice::Plain, DictChoice::Encrypted);
                ColumnSpec::new(col, choice, len)
            })
            .collect(),
    )
}

impl TableData {
    /// The same rows under `name`, every column typed `PLAIN`
    /// (partitioning kept) — the reference twin.
    fn plain_twin(&self, name: &str) -> TableData {
        let mut schema = self.schema.clone();
        schema.name = name.to_string();
        for c in &mut schema.columns {
            c.choice = DictChoice::Plain;
        }
        TableData {
            table: table_of(name, self.table.columns().to_vec()),
            schema,
        }
    }

    fn value_bytes(&self) -> u64 {
        self.table
            .columns()
            .iter()
            .map(|c| c.iter().map(|v| v.len() as u64).sum::<u64>())
            .sum()
    }
}

fn cells(values: &[&[u8]]) -> Row {
    values.iter().map(|v| v.to_vec()).collect()
}

fn text(v: &[u8]) -> &str {
    std::str::from_utf8(v).expect("generated values are ASCII")
}

// ---------------------------------------------------------------------------
// range_ed1 / range_ed9: SELECT p FROM t WHERE v BETWEEN lo AND hi
// ---------------------------------------------------------------------------

struct RangeShape {
    table: &'static str,
    kind: EdKind,
    rows: usize,
    v_uniques: usize,
    p_uniques: usize,
    /// Range starts are drawn from ranks `start_lo..` (Zipf ranks: high
    /// rank = cold value).
    start_lo: usize,
}

fn range_plan(spec: &Spec, shape: &RangeShape, rng: &mut StdRng, ops: usize, traced: bool) -> Plan {
    let v = zipf_column(
        "v",
        10,
        shape.rows,
        shape.v_uniques,
        0.8,
        |r| value_string(r, 10),
        rng,
    );
    let p = zipf_column(
        "p",
        8,
        shape.rows,
        shape.p_uniques,
        0.0,
        |r| value_string(r, 8),
        rng,
    );
    let index = ValueIndex::build(v.iter());
    let data = TableData {
        table: table_of(shape.table, vec![v, p]),
        schema: schema_of(
            shape.table,
            &[("v", Some(shape.kind), 10), ("p", Some(shape.kind), 8)],
        ),
    };
    let p = data.table.column("p").expect("p");
    let warmup = spec.warmup_for(ops);
    let mut plan = Plan::new(warmup, "v");
    let plain = format!("{}_plain", shape.table);
    for i in 0..warmup + ops {
        // Range size 2: two consecutive unique values.
        let start = rng.gen_range(shape.start_lo..shape.v_uniques - 1);
        let (lo, hi) = (value_string(start, 10), value_string(start + 1, 10));
        let rows: Vec<Row> = index
            .range(lo.as_bytes(), hi.as_bytes())
            .map(|rid| cells(&[p.value(rid as usize)]))
            .collect();
        let expect = digest(&rows);
        let stmt = |t: &str| format!("SELECT p FROM {t} WHERE v BETWEEN '{lo}' AND '{hi}'");
        plan.push(
            Op {
                sql: stmt(shape.table),
                class: 0,
                expect,
            },
            i,
            traced.then(|| vec![("plain", stmt(&plain))]),
            Some((lo.clone().into_bytes(), hi.clone().into_bytes())),
        );
    }
    plan.user_bytes = data.value_bytes();
    if traced {
        plan.twin_tables.push(data.plain_twin(&plain));
    }
    plan.tables.push(data);
    plan
}

fn range_ed1(spec: &Spec, rng: &mut StdRng, ops: usize, traced: bool) -> Plan {
    // The paper's Fig. 8 core on a C2-like column: many rows, few uniques,
    // ranges from the cold half of the Zipf ranks (~120 rows out).
    let shape = RangeShape {
        table: "bw",
        kind: EdKind::Ed1,
        rows: 2_000_000,
        v_uniques: 10_000,
        p_uniques: 5_000,
        start_lo: 5_000,
    };
    range_plan(spec, &shape, rng, ops, traced)
}

fn range_ed9(spec: &Spec, rng: &mut StdRng, ops: usize, traced: bool) -> Plan {
    // ED9 hides frequencies: one dictionary entry per row, searched
    // linearly. 12 288 entries = 1.5 × the enclave's 8 192-entry FIFO value
    // cache, so every search misses on every entry.
    let shape = RangeShape {
        table: "t9",
        kind: EdKind::Ed9,
        rows: 12_288,
        v_uniques: 1_000,
        p_uniques: 500,
        start_lo: 0,
    };
    range_plan(spec, &shape, rng, ops, traced)
}

// ---------------------------------------------------------------------------
// analytic_ed5: grouped range aggregate (×3) then grouped join (×1)
// ---------------------------------------------------------------------------

const REGIONS: usize = 8;
const PRICES: usize = 10_000;
const CUSTOMERS: usize = 5_000;
const USERS: usize = 2_000;
const SEGS: usize = 10;
/// Unique values (grouped) / join keys (join) one filter spans.
const ANALYTIC_SPAN: usize = 100;

fn analytic_ed5(spec: &Spec, rng: &mut StdRng, ops: usize, traced: bool) -> Plan {
    let price = |r: usize| format!("{:06}", 100 + r * 7);
    let ed1 = Some(EdKind::Ed1);
    let ed5 = Some(EdKind::Ed5);
    let sales = TableData {
        table: table_of(
            "sales",
            vec![
                zipf_column(
                    "region",
                    8,
                    100_000,
                    REGIONS,
                    0.5,
                    |r| value_string(r, 8),
                    rng,
                ),
                zipf_column("price", 6, 100_000, PRICES, 0.3, price, rng),
                zipf_column(
                    "cust",
                    8,
                    100_000,
                    CUSTOMERS,
                    0.6,
                    |r| value_string(r, 8),
                    rng,
                ),
            ],
        ),
        schema: schema_of(
            "sales",
            &[("region", ed5, 8), ("price", ed5, 6), ("cust", ed1, 8)],
        )
        .with_partitioning(TablePartitioning::new(
            "cust",
            (1..4)
                .map(|q| value_string(q * CUSTOMERS / 4, 8).into_bytes())
                .collect(),
        )),
    };
    let orders = TableData {
        table: table_of(
            "orders",
            vec![
                zipf_column("uid", 8, 20_000, USERS, 0.4, |r| value_string(r, 8), rng),
                zipf_column("amt", 6, 20_000, 500, 0.3, price, rng),
            ],
        ),
        schema: schema_of("orders", &[("uid", ed1, 8), ("amt", ed5, 6)]),
    };
    let users = TableData {
        table: table_of(
            "users",
            vec![
                key_column("uid", 8, 0, USERS, rng),
                zipf_column("seg", 8, USERS, SEGS, 0.3, |r| value_string(r, 8), rng),
            ],
        ),
        schema: schema_of("users", &[("uid", ed1, 8), ("seg", ed5, 8)]),
    };

    let col = |t: &TableData, c: &str| t.table.column(c).expect("generated column").clone();
    let (region, prices) = (col(&sales, "region"), col(&sales, "price"));
    let price_index = ValueIndex::build(prices.iter());
    let (order_amt, order_index) = (
        col(&orders, "amt"),
        ValueIndex::build(col(&orders, "uid").iter()),
    );
    let (user_seg, user_uid) = (col(&users, "seg"), col(&users, "uid"));
    let user_index = ValueIndex::build(user_uid.iter());
    let number = |v: &[u8]| text(v).parse::<u64>().expect("numeric column");
    let grouped_rows = |sums: BTreeMap<Vec<u8>, u64>| -> Vec<Row> {
        sums.into_iter()
            .map(|(g, s)| vec![g, s.to_string().into_bytes()])
            .collect()
    };

    let warmup = spec.warmup_for(ops);
    let mut plan = Plan::new(warmup, "price");
    for i in 0..warmup + ops {
        let class = spec.class_at(i);
        if class == 0 {
            let start = rng.gen_range(0..PRICES - ANALYTIC_SPAN);
            let (lo, hi) = (price(start), price(start + ANALYTIC_SPAN - 1));
            let mut sums = BTreeMap::new();
            for rid in price_index.range(lo.as_bytes(), hi.as_bytes()) {
                *sums.entry(region.value(rid as usize).to_vec()).or_insert(0) +=
                    number(prices.value(rid as usize));
            }
            let stmt = |t: &str| {
                format!(
                    "SELECT region, SUM(price) FROM {t} WHERE price BETWEEN '{lo}' AND '{hi}' \
                     GROUP BY region ORDER BY 1"
                )
            };
            plan.push(
                Op {
                    sql: stmt("sales"),
                    class,
                    expect: digest(&grouped_rows(sums)),
                },
                i,
                traced.then(|| {
                    vec![
                        ("plain", stmt("sales_plain")),
                        ("one_shard", stmt("sales_one")),
                    ]
                }),
                Some((lo.clone().into_bytes(), hi.clone().into_bytes())),
            );
        } else {
            let start = rng.gen_range(0..USERS - ANALYTIC_SPAN);
            let (lo, hi) = (
                value_string(start, 8),
                value_string(start + ANALYTIC_SPAN - 1, 8),
            );
            let mut sums = BTreeMap::new();
            for user in user_index.range(lo.as_bytes(), hi.as_bytes()) {
                let uid = user_uid.value(user as usize);
                for order in order_index.range(uid, uid) {
                    *sums
                        .entry(user_seg.value(user as usize).to_vec())
                        .or_insert(0) += number(order_amt.value(order as usize));
                }
            }
            let stmt = |sfx: &str| {
                format!(
                    "SELECT users{sfx}.seg, SUM(orders{sfx}.amt) FROM users{sfx} \
                     JOIN orders{sfx} ON users{sfx}.uid = orders{sfx}.uid \
                     WHERE users{sfx}.uid BETWEEN '{lo}' AND '{hi}' GROUP BY users{sfx}.seg"
                )
            };
            plan.push(
                Op {
                    sql: stmt(""),
                    class,
                    expect: digest(&grouped_rows(sums)),
                },
                i,
                traced.then(|| vec![("plain", stmt("_plain"))]),
                None,
            );
        }
    }
    plan.user_bytes = sales.value_bytes() + orders.value_bytes() + users.value_bytes();
    if traced {
        // The fan-out reference: the same rows in one shard.
        let mut one = sales.clone();
        one.schema.name = "sales_one".into();
        one.schema.partitioning = None;
        one.table = table_of("sales_one", sales.table.columns().to_vec());
        plan.twin_tables = vec![
            sales.plain_twin("sales_plain"),
            orders.plain_twin("orders_plain"),
            users.plain_twin("users_plain"),
            one,
        ];
    }
    plan.tables = vec![sales, orders, users];
    plan
}

// ---------------------------------------------------------------------------
// tcp_point: SELECT v FROM kv WHERE k = key, over TCP
// ---------------------------------------------------------------------------

fn tcp_point(spec: &Spec, rng: &mut StdRng, ops: usize, traced: bool) -> Plan {
    // 4 096 distinct keys: both dictionaries fit the enclave value cache,
    // so after warm-up no op decrypts and the scan is ~3 µs — what is left
    // is wire, tenant rewrite, parse, proxy, scheduler and snapshot.
    const KEYS: usize = 4_096;
    let stored = encdbdb::net::tenant_table_name(TENANT, "kv");
    let data = TableData {
        table: table_of(
            &stored,
            vec![
                key_column("k", 8, 0, KEYS, rng),
                zipf_column("v", 8, KEYS, 256, 0.0, |r| value_string(r, 8), rng),
            ],
        ),
        schema: schema_of(
            &stored,
            &[("k", Some(EdKind::Ed2), 8), ("v", Some(EdKind::Ed5), 8)],
        ),
    };
    let (k, v) = (
        data.table.column("k").expect("k"),
        data.table.column("v").expect("v"),
    );
    let warmup = spec.warmup_for(ops);
    let mut plan = Plan::new(warmup, "k");
    for i in 0..warmup + ops {
        let rid = rng.gen_range(0..KEYS);
        let key = text(k.value(rid));
        plan.push(
            Op {
                sql: format!("SELECT v FROM kv WHERE k = '{key}'"),
                class: 0,
                expect: digest(&[cells(&[v.value(rid)])]),
            },
            i,
            // The in-process twin: the same statement on the stored name.
            traced.then(|| {
                vec![(
                    "in_process",
                    format!("SELECT v FROM {stored} WHERE k = '{key}'"),
                )]
            }),
            Some((key.as_bytes().to_vec(), key.as_bytes().to_vec())),
        );
    }
    plan.user_bytes = data.value_bytes();
    plan.tables.push(data);
    plan
}

// ---------------------------------------------------------------------------
// ingest_durable: 6 INSERT, 3 point SELECT, 1 COUNT(*) range, durable
// ---------------------------------------------------------------------------

fn ingest_durable(spec: &Spec, rng: &mut StdRng, ops: usize, _traced: bool) -> Plan {
    const PRELOAD: usize = 50_000;
    const V_UNIQUES: usize = 1_000;
    const COUNT_SPAN: usize = 10;
    let v_value = |r: usize| value_string(r, 8);
    let data = TableData {
        table: table_of(
            "ev",
            vec![
                key_column("k", 8, 0, PRELOAD, rng),
                zipf_column("v", 8, PRELOAD, V_UNIQUES, 0.5, v_value, rng),
            ],
        ),
        schema: schema_of(
            "ev",
            &[("k", Some(EdKind::Ed1), 8), ("v", Some(EdKind::Ed5), 8)],
        ),
    };
    // The oracle's copy of the table, grown by every generated INSERT.
    let col = |c: &str| data.table.column(c).expect("generated column");
    let mut rows: Vec<(Vec<u8>, Vec<u8>)> = col("k")
        .iter()
        .zip(col("v").iter())
        .map(|(k, v)| (k.to_vec(), v.to_vec()))
        .collect();
    let mut v_index = ValueIndex::build(col("v").iter());

    let warmup = spec.warmup_for(ops);
    let total = warmup + ops;
    // Fresh keys arrive in random order, not ascending.
    let inserts = (0..total).filter(|&i| spec.class_at(i) == 0).count();
    let mut fresh: Vec<usize> = (PRELOAD..PRELOAD + inserts).collect();
    fresh.shuffle(rng);

    let mut plan = Plan::new(warmup, "k");
    for i in 0..total {
        let class = spec.class_at(i);
        let (sql, expect, range) = match class {
            0 => {
                let k = value_string(fresh.pop().expect("one key per insert"), 8);
                let v = v_value(rng.gen_range(0..V_UNIQUES));
                v_index.insert(v.as_bytes(), rows.len() as u32);
                rows.push((k.clone().into_bytes(), v.clone().into_bytes()));
                (
                    format!("INSERT INTO ev VALUES ('{k}', '{v}')"),
                    digest_scalar(1),
                    None,
                )
            }
            1 => {
                let (k, v) = &rows[rng.gen_range(0..rows.len())];
                (
                    format!("SELECT v FROM ev WHERE k = '{}'", text(k)),
                    digest(&[cells(&[v])]),
                    Some((k.clone(), k.clone())),
                )
            }
            _ => {
                let start = rng.gen_range(0..V_UNIQUES - COUNT_SPAN);
                let (lo, hi) = (v_value(start), v_value(start + COUNT_SPAN - 1));
                let n = v_index.range(lo.as_bytes(), hi.as_bytes()).count();
                (
                    format!("SELECT COUNT(*) FROM ev WHERE v BETWEEN '{lo}' AND '{hi}'"),
                    digest_scalar(n),
                    None,
                )
            }
        };
        plan.push(Op { sql, class, expect }, i, None, range);
    }
    plan.user_bytes = rows.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum();
    let all: Vec<Row> = rows.iter().map(|(k, v)| cells(&[k, v])).collect();
    plan.final_check = Some(("SELECT k, v FROM ev".to_string(), digest(&all)));
    plan.tables.push(data);
    plan
}

impl Plan {
    fn new(warmup: usize, column: &'static str) -> Plan {
        Plan {
            tables: Vec::new(),
            ops: Vec::new(),
            warmup,
            user_bytes: 0,
            probe: ProbeInput {
                table: 0,
                column,
                ranges: Vec::new(),
            },
            final_check: None,
            twin_tables: Vec::new(),
            twin_ops: BTreeMap::new(),
        }
    }

    /// Appends stream op `i`; the first [`TWIN_OPS`] measured ops also feed
    /// the twins and the probe ranges.
    fn push(
        &mut self,
        op: Op,
        i: usize,
        twins: Option<Vec<(&'static str, String)>>,
        range: Option<(Vec<u8>, Vec<u8>)>,
    ) {
        if (self.warmup..self.warmup + TWIN_OPS).contains(&i) {
            for (twin, sql) in twins.into_iter().flatten() {
                self.twin_ops
                    .entry(twin)
                    .or_default()
                    .ops
                    .push((sql, op.class, op.expect));
            }
            self.probe.ranges.extend(range);
        }
        self.ops.push(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small plans: the generators are exercised end to end against the
    /// real program in `harness::tests`; here only the stream shape.
    fn small(name: &str, ops: usize, seed: u64) -> Plan {
        let spec = by_name(name).unwrap();
        spec.generate(seed, ops, true)
    }

    #[test]
    fn three_to_one_cycle() {
        let spec = by_name("analytic_ed5").unwrap();
        let classes: Vec<usize> = (0..8).map(|i| spec.class_at(i)).collect();
        assert_eq!(classes, [0, 0, 0, 1, 0, 0, 0, 1]);
        let plan = small("analytic_ed5", 80, 1);
        assert_eq!(plan.warmup % 4, 0);
        for (i, op) in plan.ops.iter().enumerate() {
            assert_eq!(op.class, spec.class_at(i));
            assert_eq!(op.sql.contains(" JOIN "), op.class == 1, "{}", op.sql);
        }
        let joins = plan.ops[plan.warmup..]
            .iter()
            .filter(|o| o.class == 1)
            .count();
        assert_eq!(joins * 4, 80);
    }

    #[test]
    fn six_three_one_cycle() {
        let spec = by_name("ingest_durable").unwrap();
        let classes: Vec<usize> = (0..10).map(|i| spec.class_at(i)).collect();
        assert_eq!(classes, [0, 0, 0, 0, 0, 0, 1, 1, 1, 2]);
        let plan = small("ingest_durable", 200, 1);
        assert_eq!(plan.warmup % 10, 0);
        let measured = &plan.ops[plan.warmup..];
        let count = |c| measured.iter().filter(|o| o.class == c).count();
        assert_eq!((count(0), count(1), count(2)), (120, 60, 20));
        assert!(measured.iter().all(|o| match o.class {
            0 => o.sql.starts_with("INSERT INTO ev"),
            1 => o.sql.starts_with("SELECT v FROM ev WHERE k ="),
            _ => o.sql.starts_with("SELECT COUNT(*) FROM ev"),
        }));
        // No DELETE in the stream (README, hazards).
        assert!(plan.ops.iter().all(|o| !o.sql.contains("DELETE")));
        // Every inserted key is distinct and the final check covers
        // preload + all inserts (warm-up ones too).
        let inserts = plan.ops.iter().filter(|o| o.class == 0).count() as u64;
        assert_eq!(plan.final_check.as_ref().unwrap().1.rows, 50_000 + inserts);
    }

    #[test]
    fn op_counts_scale_in_whole_cycles_per_segment() {
        for spec in &ALL {
            let full = crate::FULL_SECONDS;
            assert_eq!(
                spec.ops_for(full, full, 1.0),
                spec.full_ops / (20 * spec.cycle.len()) * 20 * spec.cycle.len()
            );
            for (seconds, factor) in [(full, 1.0), (full / 2, 1.0), (full, 0.02), (1, 0.02)] {
                let ops = spec.ops_for(seconds, full, factor);
                assert!(ops > 0 && ops % (crate::stats::SEGMENTS * spec.cycle.len()) == 0);
            }
            assert!(spec.warmup_for(spec.full_ops) >= 50);
        }
    }

    #[test]
    fn same_seed_same_statements_other_seed_other_statements() {
        for (name, ops) in [
            ("range_ed9", 40),
            ("analytic_ed5", 80),
            ("tcp_point", 40),
            ("ingest_durable", 200),
        ] {
            let (a, b, c) = (
                small(name, ops, 7),
                small(name, ops, 7),
                small(name, ops, 8),
            );
            let sql = |p: &Plan| {
                p.ops
                    .iter()
                    .map(|o| (o.sql.clone(), o.expect))
                    .collect::<Vec<_>>()
            };
            assert_eq!(sql(&a), sql(&b), "{name}: same seed");
            assert_ne!(sql(&a), sql(&c), "{name}: other seed");
            assert_eq!(
                a.tables[0].table.columns(),
                b.tables[0].table.columns(),
                "{name}: same data"
            );
            assert_eq!(a.user_bytes, b.user_bytes);
        }
    }

    #[test]
    fn twins_mirror_the_first_measured_ops() {
        let plan = small("analytic_ed5", 400, 3);
        let plain = &plan.twin_ops["plain"].ops;
        let one = &plan.twin_ops["one_shard"].ops;
        assert_eq!(plain.len(), TWIN_OPS);
        assert_eq!(one.len(), TWIN_OPS * 3 / 4, "grouped statements only");
        for (j, (sql, class, expect)) in plain.iter().enumerate() {
            let op = &plan.ops[plan.warmup + j];
            assert_eq!((*class, *expect), (op.class, op.expect));
            assert!(sql.contains("_plain"));
        }
        assert_eq!(plan.twin_tables.len(), 4);
        assert!(plan.twin_tables.iter().take(3).all(|t| t
            .schema
            .columns
            .iter()
            .all(|c| c.choice == DictChoice::Plain)));
        // Untraced plans carry no twins.
        let spec = by_name("analytic_ed5").unwrap();
        let bare = spec.generate(3, 400, false);
        assert!(bare.twin_tables.is_empty() && bare.twin_ops.is_empty());
    }
}
