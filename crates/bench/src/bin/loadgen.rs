//! Concurrent-reader load generator for the cross-session ECALL batching
//! scheduler (DESIGN.md §15).
//!
//! Spawns N reader sessions against one shared server and drives a
//! read-only `workload` query mix (range selects + aggregates) through
//! both scheduler legs — batched (the default flat-combining path) and
//! bypass (one enclave lock acquisition per call, the pre-scheduler
//! behavior) — reporting queries/sec, p50/p95 latency, and how many
//! enclave transitions the batch coalescing saved.
//!
//! Usage:
//! ```text
//! cargo run -p encdbdb-bench --release --bin loadgen -- \
//!     [--sessions 16] [--queries 200] [--rows 20000] \
//!     [--mode both|batched|bypass] [--sweep] [--tcp] [--samples 3]
//! ```
//!
//! `--sweep` runs the 1/4/16/64 session ladder. Each (sessions, mode)
//! point replays its wave — every session drains its stream once —
//! `--samples` times (default 3). When `ENCDBDB_BENCH_JSON` names a
//! directory, the wave-duration median and p95 of every point land in
//! `BENCH_concurrency.json` (ids `qps/<n>/<mode>`, DESIGN.md §13.4);
//! `baselines/BENCH_concurrency.json` is written this way under
//! `ENCDBDB_SIM_TRANSITION_NS=500000` with `--sweep --rows 256
//! --queries 16`.
//!
//! `--tcp` drives the same ladder over the networked service layer
//! (DESIGN.md §16): one `NetServer` on an ephemeral loopback port, N
//! real TCP client connections, and the scheduler behind them. Its
//! points land in `BENCH_network.json` (ids `tcp_wave/<n>/<mode>`). The
//! enclave transition cost is pinned to 500µs unless
//! `ENCDBDB_SIM_TRANSITION_NS` is already set, matching
//! `baselines/BENCH_network.json`.

use colstore::column::Column;
use colstore::table::Table;
use encdbdb::net::tenant_table_name;
use encdbdb::{
    ColumnSpec, DbError, DictChoice, NetClient, NetServer, NetServerConfig, Session, TableSchema,
    TenantSpec,
};
use encdbdb_bench::CliArgs;
use encdict::EdKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workload::{Op, ScheduleGen, ScheduleSpec};

/// Tenant the TCP bench authenticates as; its namespace maps the
/// client-visible table `t` onto [`tenant_table_name`]`("bench", "t")`.
const TCP_TENANT: &str = "bench";
const TCP_TOKEN: &str = "bench-token";

/// Builds a session over one merged ED2 column preloaded with `rows`
/// values from the workload domain. `table` is the stored table name:
/// `t` for in-process legs, the tenant-qualified name for TCP legs.
fn build_session_named(rows: usize, table: &str) -> Session {
    let mut v = Column::new("v", 8);
    for i in 0..rows {
        v.push(format!("{:04}", i % 100).as_bytes()).expect("push");
    }
    let mut t = Table::new(table);
    t.add_column(v).expect("column");
    let schema = TableSchema::new(
        table,
        vec![ColumnSpec::new("v", DictChoice::Encrypted(EdKind::Ed2), 8)],
    );
    let mut db = Session::with_seed(0xBEEF).expect("session");
    db.load_table(&t, schema).expect("load");
    db
}

fn build_session(rows: usize) -> Session {
    build_session_named(rows, "t")
}

/// Pre-renders a read-only query stream per session so the measured loop
/// pays only execution, not generation.
fn query_streams(sessions: usize, queries: usize) -> Vec<Vec<String>> {
    (0..sessions)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x10AD + i as u64);
            let gen = ScheduleGen::new(ScheduleSpec::default());
            gen.generate_reads(&mut rng, queries)
                .into_iter()
                .filter_map(|op| match op {
                    Op::RangeRead { .. } | Op::AggRead { .. } => op.render_sql("t", "v"),
                    _ => None,
                })
                .collect()
        })
        .collect()
}

/// One bench-JSON record: a point's id and its wave-duration median, p95
/// and sample count, in nanoseconds.
type BenchEntry = (String, u64, u64, usize);

fn percentile<T: Copy>(sorted: &[T], pct: usize) -> T {
    sorted[(sorted.len() * pct).div_ceil(100).max(1) - 1]
}

/// The bench-JSON record of one point from its per-wave durations.
fn wave_entry(id: String, wave_ns: &[u64]) -> BenchEntry {
    let mut sorted = wave_ns.to_vec();
    sorted.sort_unstable();
    let median = sorted[sorted.len() / 2];
    (id, median, percentile(&sorted, 95), sorted.len())
}

struct LegResult {
    /// Wall-clock duration of each sampled wave, in nanoseconds.
    wave_ns: Vec<u64>,
    qps: f64,
    p50: Duration,
    p95: Duration,
    transitions: u64,
    batches: u64,
    batched_calls: u64,
}

/// Runs one leg: `samples` waves of `sessions` reader threads each
/// executing its stream, with the scheduler either batching or bypassed.
fn run_leg(db: &Session, streams: &[Vec<String>], batched: bool, samples: usize) -> LegResult {
    db.server().set_ecall_batching(batched);
    let report0 = db.server().obs().metrics_report();
    let mut readers: Vec<_> = (0..streams.len())
        .map(|i| db.reader(0x5EED + i as u64))
        .collect();
    let mut wave_ns = Vec::with_capacity(samples);
    let mut latencies: Vec<Duration> = Vec::new();
    for _ in 0..samples {
        let wall = Instant::now();
        let wave: Vec<Vec<Duration>> = std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .iter_mut()
                .zip(streams)
                .map(|(reader, stream)| {
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(stream.len());
                        for q in stream {
                            let t0 = Instant::now();
                            reader.execute(q).expect("query");
                            lat.push(t0.elapsed());
                        }
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reader thread"))
                .collect()
        });
        wave_ns.push(wall.elapsed().as_nanos().max(1) as u64);
        latencies.extend(wave.into_iter().flatten());
    }
    let report1 = db.server().obs().metrics_report();
    latencies.sort_unstable();
    let wall_s = wave_ns.iter().sum::<u64>() as f64 / 1e9;
    LegResult {
        qps: latencies.len() as f64 / wall_s,
        p50: latencies[latencies.len() / 2],
        p95: percentile(&latencies, 95),
        wave_ns,
        transitions: report1.counter("ecalls_total") - report0.counter("ecalls_total"),
        batches: report1.counter("ecall_batches_total") - report0.counter("ecall_batches_total"),
        batched_calls: report1.counter("batched_calls_total")
            - report0.counter("batched_calls_total"),
    }
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Runs one in-process ladder point in every mode, returning its
/// bench-JSON records.
fn run_point(
    db: &Session,
    sessions: usize,
    queries: usize,
    samples: usize,
    modes: &[(&str, bool)],
) -> Vec<BenchEntry> {
    let streams = query_streams(sessions, queries);
    let issued: usize = streams.iter().map(Vec::len).sum::<usize>() * samples;
    let mut batched_qps = None;
    let mut entries = Vec::new();
    for &(name, on) in modes {
        let r = run_leg(db, &streams, on, samples);
        entries.push(wave_entry(format!("qps/{sessions}/{name}"), &r.wave_ns));
        if on {
            batched_qps = Some(r.qps);
        }
        let speedup = match (on, batched_qps) {
            (false, Some(b)) if r.qps > 0.0 => format!("  ({:.2}x batched/bypass)", b / r.qps),
            _ => String::new(),
        };
        println!(
            "sessions {sessions:>3}  {name:<8} {:>9.0} q/s  p50 {:>8} ms  p95 {:>8} ms  \
             {:>5} transitions for {issued} queries ({} batches, {} coalesced){speedup}",
            r.qps,
            fmt_ms(r.p50),
            fmt_ms(r.p95),
            r.transitions,
            r.batches,
            r.batched_calls,
        );
    }
    entries
}

/// One (connections, scheduler-mode) point of the TCP ladder.
struct TcpPoint {
    /// Wall-clock duration of each sampled wave, in nanoseconds.
    wave_ns: Vec<u64>,
    /// Queries issued per wave (every connection replays its stream).
    issued: usize,
    /// `ServerBusy` replies absorbed by client retry loops, all waves.
    busy: u64,
    p50: Duration,
    p95: Duration,
    transitions: u64,
}

/// Runs one TCP point: starts a fresh server around the session (the
/// scheduler mode is fixed before the session moves in), replays the
/// wave `samples` times over `streams.len()` real connections, then
/// shuts the server down and hands the session back for the next point.
fn run_tcp_point(
    db: Session,
    streams: &[Vec<String>],
    batched: bool,
    samples: usize,
) -> (Session, TcpPoint) {
    let conns = streams.len();
    db.server().set_ecall_batching(batched);
    let ecalls0 = db.metrics_report().counter("ecalls_total");
    let mut tenant = TenantSpec::new(TCP_TENANT, TCP_TOKEN);
    // Admission: cap in-flight queries below the 64-connection rung so
    // the top of the ladder demonstrably sheds (ServerBusy + retry).
    tenant.max_inflight = 32;
    let config = NetServerConfig {
        workers: conns + 2,
        max_pending_conns: conns + 8,
        max_inflight_queries: 32,
        retry_after_ms: 2,
        ..NetServerConfig::default()
    };
    let handle = NetServer::start(db, vec![tenant], config).expect("server start");
    let addr = handle.addr();

    let mut wave_ns = Vec::with_capacity(samples);
    let mut busy = 0u64;
    let mut latencies: Vec<Duration> = Vec::new();
    for _ in 0..samples {
        // Connections are established outside the timed window; the
        // wave measures query throughput, not handshakes.
        let clients: Vec<NetClient> = (0..conns)
            .map(|_| NetClient::connect(addr, TCP_TENANT, TCP_TOKEN).expect("connect"))
            .collect();
        let wall = Instant::now();
        let wave: Vec<(Vec<Duration>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(streams)
                .map(|(mut client, stream)| {
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(stream.len());
                        let mut shed = 0u64;
                        for q in stream {
                            let t0 = Instant::now();
                            loop {
                                match client.execute(q) {
                                    Ok(_) => break,
                                    Err(DbError::ServerBusy { retry_after_ms }) => {
                                        shed += 1;
                                        std::thread::sleep(Duration::from_millis(retry_after_ms));
                                    }
                                    Err(e) => panic!("tcp query failed: {e}"),
                                }
                            }
                            lat.push(t0.elapsed());
                        }
                        client.close();
                        (lat, shed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        wave_ns.push(wall.elapsed().as_nanos().max(1) as u64);
        for (lat, shed) in wave {
            latencies.extend(lat);
            busy += shed;
        }
    }

    let db = handle.shutdown().expect("graceful shutdown");
    let transitions = db.metrics_report().counter("ecalls_total") - ecalls0;
    latencies.sort_unstable();
    let issued: usize = streams.iter().map(Vec::len).sum();
    let point = TcpPoint {
        wave_ns,
        issued,
        busy,
        p50: latencies[latencies.len() / 2],
        p95: percentile(&latencies, 95),
        transitions,
    };
    (db, point)
}

/// Writes `BENCH_<area>.json` into `$ENCDBDB_BENCH_JSON`, if set, in the
/// bench-JSON schema 1 (DESIGN.md §13.4).
fn emit_bench_json(area: &str, entries: &[BenchEntry], env: &BTreeMap<String, String>) {
    let Ok(dir) = std::env::var("ENCDBDB_BENCH_JSON") else {
        return;
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut out = format!("{{\n  \"schema\": 1,\n  \"area\": \"{area}\",\n  \"benchmarks\": [\n");
    for (i, (id, median, p95, samples)) in entries.iter().enumerate() {
        let comma = if i + 1 == entries.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"median_ns\": {median}, \"p95_ns\": {p95}, \
             \"samples\": {samples}}}{comma}\n",
            esc(id)
        ));
    }
    out.push_str("  ],\n  \"env\": {\n");
    for (i, (k, v)) in env.iter().enumerate() {
        let comma = if i + 1 == env.len() { "" } else { "," };
        out.push_str(&format!("    \"{}\": \"{}\"{comma}\n", esc(k), esc(v)));
    }
    out.push_str("  }\n}\n");
    let path = std::path::Path::new(&dir).join(format!("BENCH_{area}.json"));
    std::fs::write(&path, out).expect("write bench JSON");
    println!("wrote {}", path.display());
}

/// The `--tcp` ladder: 1/4/16/64 real connections against one server,
/// batched and bypass scheduler legs, wave-duration stats per point.
fn run_tcp(cli: &CliArgs, ladder: &[usize], modes: &[(&str, bool)], samples: usize) {
    // Pin the enclave transition cost before the first enclave call so
    // the landed baseline is comparable across machines.
    if std::env::var("ENCDBDB_SIM_TRANSITION_NS").is_err() {
        std::env::set_var("ENCDBDB_SIM_TRANSITION_NS", "500000");
    }
    // Smaller defaults than the in-process ladder: the TCP points are
    // meant to be transition-bound (where coalescing and connection
    // concurrency pay), not bound by per-row decrypt work.
    let rows = cli.usize_of("rows", 512);
    let queries = cli.usize_of("queries", 16);

    let mut db = build_session_named(rows, &tenant_table_name(TCP_TENANT, "t"));
    println!(
        "loadgen --tcp: {rows} preloaded rows, {queries} read queries per connection, \
         {samples} waves per point"
    );
    let mut entries = Vec::new();
    let mut env: BTreeMap<String, String> = BTreeMap::new();
    env.insert(
        "ENCDBDB_SIM_TRANSITION_NS".into(),
        std::env::var("ENCDBDB_SIM_TRANSITION_NS").unwrap_or_default(),
    );
    env.insert("ENCDBDB_NET_ROWS".into(), rows.to_string());
    env.insert("ENCDBDB_NET_QUERIES".into(), queries.to_string());
    env.insert("ENCDBDB_NET_SAMPLES".into(), samples.to_string());

    for &n in ladder {
        let streams = query_streams(n, queries);
        for &(name, on) in modes {
            let (db2, point) = run_tcp_point(db, &streams, on, samples);
            db = db2;
            let entry = wave_entry(format!("tcp_wave/{n}/{name}"), &point.wave_ns);
            let qps = point.issued as f64 * samples as f64
                / (point.wave_ns.iter().sum::<u64>() as f64 / 1e9);
            println!(
                "tcp conns {n:>3}  {name:<8} {qps:>9.0} q/s  p50 {:>8} ms  p95 {:>8} ms  \
                 wave median {:.1} ms  {} transitions  {} busy replies",
                fmt_ms(point.p50),
                fmt_ms(point.p95),
                entry.1 as f64 / 1e6,
                point.transitions,
                point.busy,
            );
            entries.push(entry);
            env.insert(format!("ENCDBDB_NET_ISSUED_{n}"), point.issued.to_string());
            env.insert(
                format!("ENCDBDB_NET_BUSY_{n}_{name}"),
                point.busy.to_string(),
            );
        }
    }
    emit_bench_json("network", &entries, &env);
}

fn main() {
    let cli = CliArgs::from_env();
    let rows = cli.usize_of("rows", 20_000);
    let queries = cli.usize_of("queries", 200);
    let samples = cli.usize_of("samples", 3).max(1);
    let ladder = if cli.has_flag("sweep") {
        vec![1, 4, 16, 64]
    } else {
        vec![cli.usize_of("sessions", 16)]
    };
    let mode = cli.value_of("mode").unwrap_or("both");
    let modes: Vec<(&str, bool)> = match mode {
        "batched" => vec![("batched", true)],
        "bypass" => vec![("bypass", false)],
        _ => vec![("batched", true), ("bypass", false)],
    };

    if cli.has_flag("tcp") {
        run_tcp(&cli, &ladder, &modes, samples);
        return;
    }

    let db = build_session(rows);
    println!(
        "loadgen: {rows} preloaded rows, {queries} read queries per session \
         (workload range/agg mix), {samples} waves per point"
    );
    let entries: Vec<BenchEntry> = ladder
        .into_iter()
        .flat_map(|n| run_point(&db, n, queries, samples, &modes))
        .collect();
    let env = BTreeMap::from([
        (
            "ENCDBDB_SIM_TRANSITION_NS".to_string(),
            std::env::var("ENCDBDB_SIM_TRANSITION_NS").unwrap_or_default(),
        ),
        (
            "loadgen".to_string(),
            std::env::args().skip(1).collect::<Vec<_>>().join(" "),
        ),
    ]);
    emit_bench_json("concurrency", &entries, &env);
}
