//! The traced pass: per-layer metrics.
//!
//! `[T]` metrics are timed from outside, around a call into one layer's
//! public function; `[C]` metrics are the delta of a counter the program
//! already publishes (`metrics_report`, `leakage_ledger`, `last_stats`,
//! `durability_stats`, `compaction_stats`) divided by the ops it covers.
//! The op stream runs once, in alternating blocks of untraced and traced
//! calls, so the tracing overhead is measured inside one run; the layer
//! probes then run on the workload's own tables and filter ranges.

use crate::harness::{self, Counters, Deployment, QUERY_PATH_KINDS};
use crate::oracle::{digest, Expected};
use crate::stats::{class_p50_us, median, percentile};
use crate::trace::{SpanRef, Tracer};
use crate::workloads::{Front, Op, Plan, Spec, TwinOps};
use colstore::monetdb::MonetColumn;
use encdbdb::{DbError, DictChoice, QueryResult, ReaderSession};
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::avsearch::{self, Parallelism, SetSearchStrategy};
use encdict::build::{build_encrypted, BuildParams, DICT_VALUE_AAD};
use encdict::{DictEnclave, EncryptedRange, RangeQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::time::Instant;

/// `(name, value, unit)`.
pub type Metric = (&'static str, f64, &'static str);

/// Every per-layer metric with its unit, in `BENCHMARK.json` order. A
/// traced run prints all of them; one that does not apply to the workload
/// (no socket, no WAL, no join…) reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sql.parse_ns_per_stmt", "ns"),
    ("proxy.remainder_us_per_op", "us"),
    ("net.overhead_us_per_op", "us"),
    ("net.bytes_per_op", "bytes"),
    ("net.recv_ns_per_op", "ns"),
    ("net.send_ns_per_op", "ns"),
    ("scheduler.ecall_wait_ns_per_op", "ns"),
    ("scheduler.transitions_per_op", "count"),
    ("scheduler.batch_occupancy_mean", "count"),
    ("partition.scanned_per_op", "count"),
    ("partition.pruned_per_op", "count"),
    ("partition.fanout_overhead_us", "us"),
    ("encdict.dict_search_ns_per_call", "ns"),
    ("encdict.program_search_ns_per_op", "ns"),
    ("encdict.values_decrypted_per_op", "count"),
    ("encdict.cache_hit_share", "share"),
    ("encdict.build_ns_per_row", "ns"),
    ("crypto.pae_decrypt_ns_per_value", "ns"),
    ("crypto.pae_encrypt_ns_per_value", "ns"),
    ("enclave.payload_bytes_per_op", "bytes"),
    ("enclave.untrusted_bytes_per_op", "bytes"),
    ("enclave.trusted_heap_peak_bytes", "bytes"),
    ("avsearch.scan_ns_per_krow", "ns"),
    ("avsearch.program_ns_per_op", "ns"),
    ("exec.grouped_p50_us", "us"),
    ("exec.join_p50_us", "us"),
    ("exec.aggregate_ns_per_op", "ns"),
    ("exec.bridge_ns_per_op", "ns"),
    ("exec.render_ns_per_op", "ns"),
    ("owner.deploy_s", "s"),
    ("storage.wal_bytes_per_insert", "bytes"),
    ("storage.fsyncs_per_1k_inserts", "count"),
    ("storage.wal_append_ns_per_insert", "ns"),
    ("storage.snapshot_persist_ms", "ms"),
    ("storage.disk_bytes_per_user_byte", "ratio"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.recover_s", "s"),
    ("compaction.merge_ms", "ms"),
    ("compaction.completed", "count"),
    ("compaction.aborted", "count"),
    ("compaction.rows_compacted", "count"),
    ("dynamic.insert_p50_us", "us"),
    ("dynamic.delta_select_p50_us", "us"),
    ("ref.plain_twin_p50_us", "us"),
    ("ref.enc_over_plain_p50", "ratio"),
    ("ref.monetdb_p50_us", "us"),
    ("tail.op_p99_us", "us"),
    ("trace.op_mean_us", "us"),
    ("trace.overhead_share", "share"),
];

/// The metric sheet of one traced run: every [`LAYER_METRICS`] name, 0
/// until set.
struct Sheet(Vec<Metric>);

impl Sheet {
    fn new() -> Self {
        Sheet(LAYER_METRICS.iter().map(|&(n, u)| (n, 0.0, u)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.iter_mut().find(|m| m.0 == name);
        slot.unwrap_or_else(|| panic!("{name} is not in LAYER_METRICS"))
            .1 = value;
    }
}

fn per(total: u64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total as f64 / n as f64
    }
}

fn hist(c: &Counters, name: &str) -> (u64, u64) {
    c.metrics
        .histogram(name)
        .map_or((0, 0), |h| (h.sum_ns, h.count))
}

/// Σ over the histogram's samples between two snapshots.
fn hist_sum(before: &Counters, after: &Counters, name: &str) -> u64 {
    hist(after, name).0 - hist(before, name).0
}

fn counter(before: &Counters, after: &Counters, name: &str) -> u64 {
    after.metrics.counter(name) - before.metrics.counter(name)
}

/// The phases of the last query, as the program's `QueryStats` has them.
fn last_phases(dep: &Deployment) -> [(&'static str, u64); 6] {
    let s = dep.server.last_stats();
    [
        ("scheduler.wait", s.ecall_wait_ns),
        ("encdict.search", s.dict_search_ns),
        ("avsearch.scan", s.av_search_ns),
        ("exec.aggregate", s.aggregate_ns),
        ("exec.bridge", s.bridge_ns),
        ("server.render", s.render_ns),
    ]
}

/// What the traced blocks of the stream add up to.
#[derive(Default)]
struct TracedTotals {
    ops: u64,
    parse_ns: u64,
    /// Wall time of `execute_statement` (in-process fronts only).
    execute_ns: u64,
    /// Σ program phases of those executions.
    phase_ns: u64,
}

/// One traced call. In process the statement is parsed by the harness and
/// executed pre-parsed on the session's fork, so parse and execute get a
/// span each; over TCP the round trip is one span and the parse is timed
/// beside it (outside the op, which the server parses itself).
fn traced_call(
    dep: &mut Deployment,
    tracer: &mut Tracer,
    totals: &mut TracedTotals,
    i: usize,
    op: &Op,
) -> (Result<QueryResult, DbError>, u64) {
    let id = i as u32;
    totals.ops += 1;
    if dep.over_tcp() {
        let p = tracer.begin("sql.parse", SpanRef::NONE, id);
        let _ = std::hint::black_box(encdbdb::sql::parse(&op.sql));
        totals.parse_ns += tracer.end(p);
        let root = tracer.begin("op", SpanRef::NONE, id);
        let rt = tracer.begin("net.roundtrip", root, id);
        let reply = dep.execute(&op.sql);
        tracer.end(rt);
        let ns = tracer.end(root);
        tracer.phases(rt, id, &last_phases(dep));
        return (reply, ns);
    }
    let root = tracer.begin("op", SpanRef::NONE, id);
    let p = tracer.begin("sql.parse", root, id);
    let stmt = encdbdb::sql::parse(&op.sql);
    totals.parse_ns += tracer.end(p);
    let e = tracer.begin("proxy.execute", root, id);
    let reply = stmt.and_then(|s| dep.reader.execute_statement(s));
    totals.execute_ns += tracer.end(e);
    let ns = tracer.end(root);
    // Writes do not publish QueryStats; `last_stats` would be a stale read.
    if !op.sql.starts_with("INSERT") {
        let phases = last_phases(dep);
        totals.phase_ns += phases.iter().map(|p| p.1).sum::<u64>();
        tracer.phases(e, id, &phases);
    }
    (reply, ns)
}

/// Runs `(sql, expected)` statements on the in-process fork, `reps` times
/// each list, the lists interleaved statement by statement so machine
/// drift hits all alike. Returns each list's latencies (ns) and how many
/// replies were wrong.
fn interleaved(
    reader: &mut ReaderSession,
    lists: &[Vec<(&str, Expected)>],
    reps: usize,
) -> (Vec<Vec<u64>>, u64, u64) {
    let mut lat = vec![Vec::new(); lists.len()];
    let (mut attempted, mut failed) = (0, 0);
    let longest = lists.iter().map(Vec::len).max().unwrap_or(0);
    for _ in 0..reps {
        for j in 0..longest {
            for (l, list) in lists.iter().enumerate() {
                let Some(&(sql, expect)) = list.get(j) else {
                    continue;
                };
                let t0 = Instant::now();
                let reply = reader.execute(sql);
                lat[l].push(t0.elapsed().as_nanos() as u64);
                attempted += 1;
                failed += u64::from(!matches!(&reply, Ok(r) if digest(&r.rows) == expect));
            }
        }
    }
    (lat, attempted, failed)
}

fn twin_list(twin: &TwinOps, class: Option<usize>) -> Vec<(&str, Expected)> {
    twin.ops
        .iter()
        .filter(|(_, c, _)| class.is_none_or(|want| *c == want))
        .map(|(sql, _, e)| (sql.as_str(), *e))
        .collect()
}

fn real_list(plan: &Plan, class: Option<usize>) -> Vec<(&str, Expected)> {
    plan.ops[plan.warmup..]
        .iter()
        .take(crate::workloads::TWIN_OPS)
        .filter(|op| class.is_none_or(|want| op.class == want))
        .map(|op| (op.sql.as_str(), op.expect))
        .collect()
}

fn p50_us(lat_ns: &[u64]) -> f64 {
    if lat_ns.is_empty() {
        0.0
    } else {
        percentile(lat_ns, 0.5) as f64 / 1e3
    }
}

/// The column probe: `build_encrypted`, `DictEnclave::search`,
/// `avsearch::search` and `Pae` timed directly on the workload's filter
/// column and filter ranges, outside any session.
fn column_probe(plan: &Plan, seed: u64, sheet: &mut Sheet) {
    let data = &plan.tables[plan.probe.table];
    let column = data
        .table
        .column(plan.probe.column)
        .expect("probe column exists");
    let (_, spec) = data
        .schema
        .column(plan.probe.column)
        .expect("probe column in schema");
    let DictChoice::Encrypted(kind) = spec.choice else {
        return;
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC01);
    let skdb = Key128::from_bytes([0x42; 16]);
    let sk_d = derive_column_key(&skdb, &data.schema.name, &spec.name);
    let params = BuildParams {
        table_name: data.schema.name.clone(),
        col_name: spec.name.clone(),
        bs_max: spec.bs_max,
    };
    let t0 = Instant::now();
    let (dict, av) =
        build_encrypted(column, kind, &params, &sk_d, &mut rng).expect("probe column builds");
    sheet.set(
        "encdict.build_ns_per_row",
        per(t0.elapsed().as_nanos() as u64, column.len() as u64),
    );

    let mut enclave = DictEnclave::with_seed(seed ^ 0xE0C);
    enclave.provision_direct(skdb);
    let pae = Pae::new(&sk_d);
    // A linear ED9 search costs ~10 ms and a 2M-row scan ~2 ms; bound
    // the probe to about a second of each.
    let (mut search_ns, mut scan_ns) = (Vec::new(), Vec::new());
    let budget = Instant::now();
    for (lo, hi) in &plan.probe.ranges {
        let range =
            EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between(lo.clone(), hi.clone()));
        let t0 = Instant::now();
        let found = enclave.search(&dict, &range).expect("probe search");
        search_ns.push(t0.elapsed().as_nanos() as u64);
        let t0 = Instant::now();
        let rids = avsearch::search(
            &av,
            &found,
            dict.len(),
            SetSearchStrategy::PaperLinear,
            Parallelism::Serial,
        );
        scan_ns.push(t0.elapsed().as_nanos() as u64);
        std::hint::black_box(rids);
        if budget.elapsed().as_secs_f64() > 2.5 && search_ns.len() >= 20 {
            break;
        }
    }
    if !search_ns.is_empty() {
        sheet.set(
            "encdict.dict_search_ns_per_call",
            percentile(&search_ns, 0.5) as f64,
        );
        sheet.set(
            "avsearch.scan_ns_per_krow",
            percentile(&scan_ns, 0.5) as f64 / (av.len() as f64 / 1e3),
        );
    }

    // PAE on values of this column's length, five batches of 2 000.
    let values: Vec<&[u8]> = column.iter().take(2_000).collect();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let t0 = Instant::now();
        let cts: Vec<_> = values
            .iter()
            .map(|v| pae.encrypt_with_rng(&mut rng, v, DICT_VALUE_AAD))
            .collect();
        enc.push(t0.elapsed().as_nanos() as f64 / values.len() as f64);
        let t0 = Instant::now();
        for ct in &cts {
            std::hint::black_box(pae.decrypt(ct, DICT_VALUE_AAD).expect("own ciphertext"));
        }
        dec.push(t0.elapsed().as_nanos() as f64 / values.len() as f64);
    }
    sheet.set("crypto.pae_encrypt_ns_per_value", median(&enc));
    sheet.set("crypto.pae_decrypt_ns_per_value", median(&dec));

    // The plaintext reference engine on the same ranges.
    let monet = MonetColumn::ingest(column);
    let mut monet_ns = Vec::new();
    let budget = Instant::now();
    for (lo, hi) in &plan.probe.ranges {
        let t0 = Instant::now();
        std::hint::black_box(monet.range_search_inclusive(lo, hi));
        monet_ns.push(t0.elapsed().as_nanos() as u64);
        if budget.elapsed().as_secs_f64() > 1.5 && monet_ns.len() >= 20 {
            break;
        }
    }
    sheet.set("ref.monetdb_p50_us", p50_us(&monet_ns));
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The traced run of one workload. Returns every per-layer metric plus
/// `(attempted, failed)` over the stream and the probe statements.
pub fn run_traced(
    spec: &Spec,
    plan: &Plan,
    seed: u64,
    scratch: &Path,
    out_dir: &Path,
) -> Result<(Vec<Metric>, u64, u64), DbError> {
    let mut sheet = Sheet::new();
    let mut dep = Deployment::setup(spec, plan, seed, scratch)?;
    sheet.set("owner.deploy_s", dep.load_s);
    dep.load_twins(&plan.twin_tables)?;

    // --- the op stream, untraced and traced blocks alternating -----------
    let measured = plan.ops.len() - plan.warmup;
    let block = (measured / (40 * spec.cycle.len())).max(1) * spec.cycle.len();
    let is_traced = |i: usize| i >= plan.warmup && ((i - plan.warmup) / block) % 2 == 1;
    let mut tracer = Tracer::with_capacity(measured * 5);
    let mut totals = TracedTotals::default();
    let mut before = None;
    let server = dep.server.clone();
    let pass = harness::run_pass(
        &plan.ops,
        plan.warmup,
        |i, op| {
            if is_traced(i) {
                traced_call(&mut dep, &mut tracer, &mut totals, i, op)
            } else {
                harness::timed_execute(&mut dep, op)
            }
        },
        || before = Some(Counters::read(&server)),
    );
    let (before, after) = (
        before.expect("stream longer than warm-up"),
        Counters::read(&server),
    );
    let (mut attempted, mut failed) = (pass.attempted, pass.failed);

    let split = |want_traced: bool| -> (Vec<u64>, Vec<usize>) {
        (0..measured)
            .filter(|&j| is_traced(plan.warmup + j) == want_traced)
            .map(|j| (pass.lat_ns[j], pass.classes[j]))
            .unzip()
    };
    let ((plain_lat, plain_classes), (traced_lat, _)) = (split(false), split(true));
    let rate = |lat: &[u64]| lat.len() as f64 / (lat.iter().sum::<u64>().max(1) as f64 / 1e9);
    sheet.set(
        "trace.overhead_share",
        1.0 - rate(&traced_lat) / rate(&plain_lat),
    );
    sheet.set(
        "trace.op_mean_us",
        plain_lat.iter().sum::<u64>() as f64 / plain_lat.len() as f64 / 1e3,
    );
    sheet.set("tail.op_p99_us", percentile(&plain_lat, 0.99) as f64 / 1e3);
    let class_p50 = |name: &str| {
        spec.classes
            .iter()
            .position(|c| *c == name)
            .map_or(0.0, |c| class_p50_us(&plain_lat, &plain_classes, c))
    };
    sheet.set("exec.grouped_p50_us", class_p50("grouped"));
    sheet.set("exec.join_p50_us", class_p50("join"));
    sheet.set("dynamic.insert_p50_us", class_p50("insert"));
    if spec.front == Front::Durable {
        sheet.set("dynamic.delta_select_p50_us", class_p50("point"));
    }
    sheet.set("sql.parse_ns_per_stmt", per(totals.parse_ns, totals.ops));
    if !dep.over_tcp() {
        let remainder = totals.execute_ns as f64 - totals.phase_ns as f64;
        sheet.set(
            "proxy.remainder_us_per_op",
            remainder / totals.ops.max(1) as f64 / 1e3,
        );
    }

    // --- [C]: counter deltas over the measured stream ---------------------
    let m = measured as u64;
    for (metric, histogram) in [
        ("scheduler.ecall_wait_ns_per_op", "ecall_wait_ns"),
        ("encdict.program_search_ns_per_op", "dict_search_ns"),
        ("avsearch.program_ns_per_op", "av_scan_ns"),
        ("exec.aggregate_ns_per_op", "aggregate_ns"),
        ("exec.bridge_ns_per_op", "bridge_ns"),
        ("exec.render_ns_per_op", "render_ns"),
        ("net.recv_ns_per_op", "net_recv_ns"),
        ("net.send_ns_per_op", "net_send_ns"),
    ] {
        sheet.set(metric, per(hist_sum(&before, &after, histogram), m));
    }
    let transitions = harness::query_path_transitions(&before, &after);
    sheet.set("scheduler.transitions_per_op", per(transitions, m));
    sheet.set(
        "scheduler.batch_occupancy_mean",
        per(harness::query_path_calls(&before, &after), transitions),
    );
    sheet.set(
        "partition.scanned_per_op",
        per(counter(&before, &after, "partitions_scanned_total"), m),
    );
    sheet.set(
        "partition.pruned_per_op",
        per(counter(&before, &after, "partitions_pruned_total"), m),
    );
    let net_bytes = counter(&before, &after, "net_bytes_in_total")
        + counter(&before, &after, "net_bytes_out_total");
    sheet.set("net.bytes_per_op", per(net_bytes, m));
    let (hits, misses) = (
        counter(&before, &after, "value_cache_hits_total"),
        counter(&before, &after, "value_cache_misses_total"),
    );
    sheet.set("encdict.cache_hit_share", per(hits, hits + misses));
    let ledger = after.ledger.since(&before.ledger);
    let query_path = |f: &dyn Fn(encdbdb::obs::KindTotals) -> u64| -> u64 {
        QUERY_PATH_KINDS.iter().map(|&k| f(ledger.kind(k))).sum()
    };
    sheet.set(
        "encdict.values_decrypted_per_op",
        per(query_path(&|k| k.values_decrypted), m),
    );
    sheet.set(
        "enclave.payload_bytes_per_op",
        per(query_path(&|k| k.bytes_in + k.bytes_out), m),
    );
    sheet.set(
        "enclave.untrusted_bytes_per_op",
        per(query_path(&|k| k.untrusted_bytes), m),
    );
    sheet.set(
        "enclave.trusted_heap_peak_bytes",
        dep.server.enclave().enclave().trusted_heap_peak() as f64,
    );

    // --- probes on the workload's own inputs ------------------------------
    column_probe(plan, seed, &mut sheet);

    if let Some(twin) = plan.twin_ops.get("plain") {
        let (lat, a, f) = interleaved(
            &mut dep.reader,
            &[real_list(plan, None), twin_list(twin, None)],
            1,
        );
        (attempted, failed) = (attempted + a, failed + f);
        sheet.set("ref.plain_twin_p50_us", p50_us(&lat[1]));
        sheet.set(
            "ref.enc_over_plain_p50",
            p50_us(&lat[0]) / p50_us(&lat[1]).max(1e-9),
        );
    }
    if let Some(twin) = plan.twin_ops.get("one_shard") {
        let lists = [real_list(plan, Some(0)), twin_list(twin, Some(0))];
        let (lat, a, f) = interleaved(&mut dep.reader, &lists, 1);
        (attempted, failed) = (attempted + a, failed + f);
        sheet.set(
            "partition.fanout_overhead_us",
            p50_us(&lat[0]) - p50_us(&lat[1]),
        );
    }
    if let Some(twin) = plan.twin_ops.get("in_process") {
        // The same statements through the socket and on the fork,
        // alternating; what differs is the net layer (wire, tenant
        // rewrite, worker hand-off).
        let (mut tcp, mut local, mut remainder) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..20 {
            for (op, (sql, _, expect)) in plan.ops[plan.warmup..].iter().zip(&twin.ops) {
                let (reply, ns) = harness::timed_execute(&mut dep, op);
                tcp.push(ns);
                let t0 = Instant::now();
                let twin_reply = dep.reader.execute(sql);
                let wall = t0.elapsed().as_nanos() as u64;
                local.push(wall);
                let phases: u64 = last_phases(&dep).iter().map(|p| p.1).sum();
                remainder.push(wall.saturating_sub(phases));
                attempted += 2;
                failed += u64::from(!harness::correct(&reply, op));
                failed += u64::from(!matches!(&twin_reply, Ok(r) if digest(&r.rows) == *expect));
            }
        }
        sheet.set("net.overhead_us_per_op", p50_us(&tcp) - p50_us(&local));
        // In process, parse is inside `execute`: take it out again.
        let parse_us = per(totals.parse_ns, totals.ops) / 1e3;
        sheet.set("proxy.remainder_us_per_op", p50_us(&remainder) - parse_us);
    }

    // --- background work, storage, restart --------------------------------
    dep.server.drain_background_work()?;
    let durable_before = dep.server.durability_stats();
    if let (Some(d), Some(dir)) = (durable_before, dep.durable_dir()) {
        let inserts = counter(&before, &after, "rows_inserted_total");
        // Set-up wrote only snapshots and WAL headers, so the WAL totals
        // are the stream's (warm-up inserts included on both sides).
        let all_inserts = after.metrics.counter("rows_inserted_total");
        sheet.set(
            "storage.wal_bytes_per_insert",
            per(d.wal_bytes_appended, all_inserts),
        );
        sheet.set(
            "storage.fsyncs_per_1k_inserts",
            per(d.wal_fsyncs * 1000, all_inserts),
        );
        sheet.set(
            "storage.wal_append_ns_per_insert",
            per(hist_sum(&before, &after, "wal_append_ns"), inserts),
        );
        let (persist_ns, persists) = hist(&Counters::read(&dep.server), "snapshot_persist_ns");
        sheet.set(
            "storage.snapshot_persist_ms",
            per(persist_ns, persists) / 1e6,
        );
        sheet.set(
            "storage.disk_bytes_per_user_byte",
            dir_bytes(dir) as f64 / plan.user_bytes as f64,
        );
        let now = Counters::read(&dep.server);
        let (merge_ns, merges) = hist(&now, "compaction_merge_ns");
        sheet.set("compaction.merge_ms", per(merge_ns, merges) / 1e6);
        let table = &plan.tables[0].schema.name;
        let c = dep.server.compaction_stats(table)?;
        sheet.set("compaction.completed", c.merges_completed as f64);
        sheet.set("compaction.aborted", c.merges_aborted as f64);
        sheet.set("compaction.rows_compacted", c.rows_compacted as f64);
        let t0 = Instant::now();
        dep.server.checkpoint(table)?;
        sheet.set("storage.checkpoint_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    let stopped = dep.stop()?;
    let (verified, recover_s) = stopped.reopen_and_verify(plan)?;
    stopped.discard();
    sheet.set("storage.recover_s", recover_s);
    if !verified {
        failed = attempted;
    }

    std::fs::create_dir_all(out_dir).map_err(|e| DbError::Durability(e.to_string()))?;
    let path = out_dir.join(format!("trace_{}.json", spec.name));
    std::fs::write(&path, tracer.to_chrome_json())
        .map_err(|e| DbError::Durability(e.to_string()))?;
    eprintln!(
        "{}: {} spans -> {}",
        spec.name,
        tracer.len(),
        path.display()
    );
    for (name, ns) in tracer.self_times() {
        eprintln!(
            "  self time {name:<16} {:>10.1} us/op",
            ns as f64 / totals.ops.max(1) as f64 / 1e3
        );
    }
    Ok((sheet.0, attempted, failed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        assert!(LAYER_METRICS.len() <= 128);
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for (name, unit) in LAYER_METRICS {
            assert!(
                ok(name, "_.-", 64) && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
    }

    /// A traced run of every front at a few hundred ops: every metric is
    /// printed, nothing fails, the layers the workload uses are non-zero
    /// and the ones it bypasses stay zero.
    #[test]
    fn traced_runs_fill_the_layers_each_workload_uses() {
        let out =
            std::env::temp_dir().join(format!("encdbdb-benchmark-layers-{}", std::process::id()));
        for (name, ops, used, unused) in [
            (
                "range_ed9",
                40,
                &[
                    "encdict.dict_search_ns_per_call",
                    "avsearch.program_ns_per_op",
                    "ref.plain_twin_p50_us",
                    "ref.monetdb_p50_us",
                    "sql.parse_ns_per_stmt",
                ][..],
                &[
                    "net.bytes_per_op",
                    "storage.wal_bytes_per_insert",
                    "exec.join_p50_us",
                ][..],
            ),
            (
                "analytic_ed5",
                160,
                &[
                    "exec.grouped_p50_us",
                    "exec.join_p50_us",
                    "exec.bridge_ns_per_op",
                    "partition.scanned_per_op",
                    "ref.enc_over_plain_p50",
                ][..],
                &["net.bytes_per_op", "dynamic.insert_p50_us"][..],
            ),
            (
                "tcp_point",
                400,
                &[
                    "net.bytes_per_op",
                    "net.recv_ns_per_op",
                    "net.overhead_us_per_op",
                    "encdict.cache_hit_share",
                ][..],
                &["storage.recover_s", "ref.plain_twin_p50_us"][..],
            ),
            (
                "ingest_durable",
                12_000,
                &[
                    "storage.wal_bytes_per_insert",
                    "storage.fsyncs_per_1k_inserts",
                    "storage.recover_s",
                    "storage.checkpoint_ms",
                    "compaction.completed",
                    "dynamic.insert_p50_us",
                    "dynamic.delta_select_p50_us",
                ][..],
                &["net.bytes_per_op", "compaction.aborted", "exec.join_p50_us"][..],
            ),
        ] {
            let spec = crate::workloads::by_name(name).unwrap();
            let plan = spec.generate(21, ops, true);
            let scratch = out.join(name);
            std::fs::create_dir_all(&scratch).unwrap();
            let (metrics, attempted, failed) = run_traced(spec, &plan, 21, &scratch, &out).unwrap();
            assert_eq!(failed, 0, "{name}");
            assert!(attempted as usize >= plan.ops.len(), "{name}");
            assert_eq!(metrics.len(), LAYER_METRICS.len());
            let value = |n: &str| metrics.iter().find(|m| m.0 == n).unwrap().1;
            for n in used {
                assert!(value(n) > 0.0, "{name}: {n} = {}", value(n));
            }
            for n in unused {
                assert_eq!(value(n), 0.0, "{name}: {n}");
            }
            // One client: singleton rounds, except where a partitioned
            // table's shard scans (scoped threads) happen to coalesce.
            let occupancy = value("scheduler.batch_occupancy_mean");
            if name == "analytic_ed5" {
                assert!(occupancy >= 1.0, "{name}: {occupancy}");
            } else {
                assert_eq!(occupancy, 1.0, "{name}");
            }
            let trace = std::fs::read_to_string(out.join(format!("trace_{name}.json"))).unwrap();
            assert!(
                crate::json::parse(&trace)
                    .unwrap()
                    .get("traceEvents")
                    .unwrap()
                    .len()
                    > ops / 2
            );
        }
        let _ = std::fs::remove_dir_all(out);
    }
}
