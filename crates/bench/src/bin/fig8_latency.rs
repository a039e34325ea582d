//! Regenerates **Figure 8** of the paper: average latency of random range
//! queries for columns C1 and C2, protected by (a) ED1–ED3, (b) ED4–ED6
//! (bs_max = 10), (c) ED7–ED9, each compared against the MonetDB-like
//! plaintext baseline and PlainDBDB.
//!
//! Usage:
//! ```text
//! cargo run -p encdbdb-bench --release --bin fig8_latency -- \
//!     [--group a|b|c|all] [--rows N] [--queries N] [--monetdb]
//! ```
//!
//! Defaults are sized for a quick run (100 k rows, 50 queries per point;
//! linear-scan variants automatically use fewer queries). Pass `--rows
//! 10_900_000 --queries 500` for the paper's full configuration. The
//! MonetDB baseline performs a linear *string* scan per query and dominates
//! runtime at large scales, so it is off by default above 1 M rows unless
//! `--monetdb` is passed.

use colstore::monetdb::MonetColumn;
use encdbdb_bench::*;
use encdict::avsearch;
use encdict::plain::search_plain;
use encdict::{DictEnclave, EdKind, EncryptedRange, OrderOption};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::RangeQueryGen;

struct Config {
    rows: usize,
    queries: usize,
    run_monetdb: bool,
}

fn group_kinds(group: &str) -> Vec<EdKind> {
    match group {
        "a" => vec![EdKind::Ed1, EdKind::Ed2, EdKind::Ed3],
        "b" => vec![EdKind::Ed4, EdKind::Ed5, EdKind::Ed6],
        "c" => vec![EdKind::Ed7, EdKind::Ed8, EdKind::Ed9],
        _ => EdKind::ALL.to_vec(),
    }
}

/// Linear-scan kinds are orders of magnitude slower; run fewer queries so
/// the harness stays interactive (the mean is what is reported anyway).
fn queries_for(kind: EdKind, base: usize) -> usize {
    match kind.order() {
        OrderOption::Unsorted => (base / 10).max(3),
        _ => base,
    }
}

fn run_monetdb(prepared: &PreparedColumn, rs: usize, cfg: &Config) -> LatencySummary {
    let monet = MonetColumn::ingest(&prepared.column);
    let gen = RangeQueryGen::new(prepared.sorted_uniques.clone(), rs);
    let mut rng = StdRng::seed_from_u64(400);
    let queries = (cfg.queries / 5).max(3); // linear string scans are slow
    let mut durations = Vec::with_capacity(queries);
    for q in gen.draw_batch(&mut rng, queries) {
        let (lo, hi) = match (&q.start, &q.end) {
            (encdict::RangeBound::Inclusive(a), encdict::RangeBound::Inclusive(b)) => {
                (a.clone(), b.clone())
            }
            _ => unreachable!("RS queries are closed ranges"),
        };
        let (rids, d) = time(|| monet.range_search_inclusive(&lo, &hi));
        std::hint::black_box(rids.len());
        durations.push(d);
    }
    LatencySummary::of(&durations)
}

fn run_plaindbdb(
    prepared: &PreparedColumn,
    kind: EdKind,
    rs: usize,
    cfg: &Config,
) -> LatencySummary {
    let (dict, av) = build_plain_ed(prepared, kind, 10, 500 + kind.number() as u64);
    let gen = RangeQueryGen::new(prepared.sorted_uniques.clone(), rs);
    let mut rng = StdRng::seed_from_u64(401);
    let queries = queries_for(kind, cfg.queries);
    let mut durations = Vec::with_capacity(queries);
    for q in gen.draw_batch(&mut rng, queries) {
        let (n, d) = time(|| {
            let result = search_plain(&dict, &q).expect("plain search");
            avsearch::scan(&av, &[result]).len()
        });
        std::hint::black_box(n);
        durations.push(d);
    }
    LatencySummary::of(&durations)
}

fn run_encdbdb(prepared: &PreparedColumn, kind: EdKind, rs: usize, cfg: &Config) -> LatencySummary {
    let (dict, av) = build_ed(prepared, kind, 10, 600 + kind.number() as u64);
    let mut enclave = DictEnclave::with_seed(601);
    enclave.provision_direct(master_key());
    let pae = column_pae(&prepared.spec.name);
    let gen = RangeQueryGen::new(prepared.sorted_uniques.clone(), rs);
    let mut rng = StdRng::seed_from_u64(402);
    let queries = queries_for(kind, cfg.queries);
    let mut durations = Vec::with_capacity(queries);
    for q in gen.draw_batch(&mut rng, queries) {
        // Latency measured server-side, including the proxy-equivalent
        // range encryption cost (the paper measures server processing; the
        // encryption of two bounds is negligible and done outside `time`).
        let tau = EncryptedRange::encrypt(&pae, &mut rng, &q);
        let (n, d) = time(|| {
            let result = enclave.search(&dict, &tau).expect("enclave search");
            avsearch::scan(&av, &[result]).len()
        });
        std::hint::black_box(n);
        durations.push(d);
    }
    LatencySummary::of(&durations)
}

fn main() {
    let cli = CliArgs::from_env();
    let group = cli.value_of("group").unwrap_or("all").to_string();
    let cfg = Config {
        rows: cli.usize_of("rows", 100_000),
        queries: cli.usize_of("queries", 50),
        run_monetdb: cli.has_flag("monetdb") || cli.usize_of("rows", 100_000) <= 1_000_000,
    };
    println!(
        "# Figure 8 ({group}): average range-query latency, {} rows, {} queries/point\n",
        cfg.rows, cfg.queries
    );

    let columns = [prepare_c1(cfg.rows, 111), prepare_c2(cfg.rows, 112)];
    let widths = [6usize, 6, 10, 12, 12, 12];
    print_header(&["col", "RS", "system", "mean", "min", "max"], &widths);

    for prepared in &columns {
        for requested_rs in [2usize, 100] {
            // At small scales C2 has fewer than 100 uniques; clamp so the
            // "wide range" series still runs (it then spans the domain).
            let rs = requested_rs.min(prepared.sorted_uniques.len());
            if cfg.run_monetdb {
                let s = run_monetdb(prepared, rs, &cfg);
                print_row(
                    &[
                        prepared.spec.name.clone(),
                        rs.to_string(),
                        "MonetDB".to_string(),
                        fmt_duration(s.mean),
                        fmt_duration(s.min),
                        fmt_duration(s.max),
                    ],
                    &widths,
                );
            }
            for kind in group_kinds(&group) {
                let plain = run_plaindbdb(prepared, kind, rs, &cfg);
                let enc = run_encdbdb(prepared, kind, rs, &cfg);
                print_row(
                    &[
                        prepared.spec.name.clone(),
                        rs.to_string(),
                        format!("P-{kind}"),
                        fmt_duration(plain.mean),
                        fmt_duration(plain.min),
                        fmt_duration(plain.max),
                    ],
                    &widths,
                );
                print_row(
                    &[
                        prepared.spec.name.clone(),
                        rs.to_string(),
                        format!("E-{kind}"),
                        fmt_duration(enc.mean),
                        fmt_duration(enc.min),
                        fmt_duration(enc.max),
                    ],
                    &widths,
                );
            }
        }
    }

    println!();
    println!("Legend: P-EDn = PlainDBDB (same algorithms, no crypto/enclave);");
    println!("        E-EDn = EncDBDB (enclave dictionary search).");
    println!("Expected shape (paper): EncDBDB/PlainDBDB beat MonetDB (log string");
    println!("comparisons + linear integer scan vs linear string comparisons);");
    println!("E-EDn ≈ P-EDn plus a small crypto constant; ED2/5/8 ≈ ED1/4/7 plus a");
    println!("small special-search constant; ED3/6/9 grow with |D| (linear scans)");
    println!("with ED9 slowest — seconds-scale at RS=100 on repetitive columns.");
}
