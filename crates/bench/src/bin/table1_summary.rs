//! Regenerates the **EncDBDB row of Table 1**: compression support, storage
//! overhead vs a plaintext database, performance overhead vs plaintext
//! processing, and the trusted LoC count.
//!
//! * Storage overhead: ED1-3 column size vs the MonetDB plaintext baseline
//!   (paper: < 100 %, and *negative* for repetitive columns like C2).
//! * Performance overhead: EncDBDB ED1 vs PlainDBDB on the same queries
//!   (paper: ~8.9 %).
//! * Trusted LoC: the in-enclave code of this reproduction, counted from
//!   the embedded sources (paper: 1129 LoC).
//!
//! Usage:
//! ```text
//! cargo run -p encdbdb-bench --release --bin table1_summary -- [--rows N] [--queries N]
//! ```

use colstore::monetdb::MonetColumn;
use encdbdb_bench::*;
use encdict::avsearch;
use encdict::plain::search_plain;
use encdict::{DictEnclave, EdKind, EncryptedRange};
use rand::rngs::StdRng;
use rand::SeedableRng;
use workload::RangeQueryGen;

/// One source file of the `encdict` crate, by its path under `src/`.
macro_rules! encdict_source {
    ($path:literal) => {
        ($path, include_str!(concat!("../../../encdict/src/", $path)))
    };
}

/// The trusted computing base: every `encdict` module that
/// `DictLogic::dispatch` reaches — search (Algorithms 1–4, the rotated
/// one by byte comparison rather than `ENCODE`), the aggregate and join-bridge cores, the rebuild inside `Merge`, and
/// the request, range, kind, error and head/tail types they read.
const TCB_SOURCES: &[(&str, &str)] = &[
    encdict_source!("enclave_ops.rs"),
    encdict_source!("search/mod.rs"),
    encdict_source!("search/sorted.rs"),
    encdict_source!("search/rotated.rs"),
    encdict_source!("search/unsorted.rs"),
    encdict_source!("aggregate.rs"),
    encdict_source!("build.rs"),
    encdict_source!("bucket.rs"),
    encdict_source!("range.rs"),
    encdict_source!("batch.rs"),
    encdict_source!("dict.rs"),
    encdict_source!("kind.rs"),
    encdict_source!("error.rs"),
];

/// From this line on `enclave_ops.rs` is the host's handle to the enclave
/// (`DictEnclave`) and the proxy's two value helpers: untrusted code,
/// reported but not counted.
const HOST_SIDE_STARTS: &str = "/// Host-side handle to the dictionary enclave.";

/// Counts non-empty, non-comment, non-test lines (a simple LoC metric).
fn count_loc(source: &str) -> usize {
    let mut loc = 0usize;
    let mut in_tests = false;
    for line in source.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        loc += 1;
    }
    loc
}

fn main() {
    let cli = CliArgs::from_env();
    let rows = cli.usize_of("rows", 200_000);
    let queries = cli.usize_of("queries", 50);
    let prepared = prepare_c2(rows, 700);

    println!("# Table 1 (EncDBDB row): measured on the C2 twin, {rows} rows\n");

    // --- Storage overhead vs the MonetDB plaintext baseline.
    let monet = MonetColumn::ingest(&prepared.column);
    let (dict, av) = build_ed(&prepared, EdKind::Ed1, 10, 701);
    let ed_size = dict.storage_size() + av.packed_size(dict.len());
    let overhead_pct =
        100.0 * (ed_size as f64 - monet.storage_size() as f64) / monet.storage_size() as f64;
    println!("compression:        supported (dictionary encoding, all nine EDs)");
    println!(
        "storage:            ED1 {} vs MonetDB {} -> {overhead_pct:+.1} %",
        fmt_bytes(ed_size),
        fmt_bytes(monet.storage_size()),
    );

    // --- Performance overhead EncDBDB vs PlainDBDB (ED1, RS = 100).
    let rs = 100.min(prepared.sorted_uniques.len());
    let gen = RangeQueryGen::new(prepared.sorted_uniques.clone(), rs);
    let (pdict, pav) = build_plain_ed(&prepared, EdKind::Ed1, 10, 702);
    let mut rng = StdRng::seed_from_u64(703);
    let batch = gen.draw_batch(&mut rng, queries);

    let mut plain_durs = Vec::with_capacity(queries);
    for q in &batch {
        let (n, d) = time(|| {
            let r = search_plain(&pdict, q).expect("plain search");
            avsearch::scan(&pav, &[r]).len()
        });
        std::hint::black_box(n);
        plain_durs.push(d);
    }
    let mut enclave = DictEnclave::with_seed(704);
    enclave.provision_direct(master_key());
    let pae = column_pae(&prepared.spec.name);
    let mut enc_durs = Vec::with_capacity(queries);
    for q in &batch {
        let tau = EncryptedRange::encrypt(&pae, &mut rng, q);
        let (n, d) = time(|| {
            let r = enclave.search(&dict, &tau).expect("enclave search");
            avsearch::scan(&av, &[r]).len()
        });
        std::hint::black_box(n);
        enc_durs.push(d);
    }
    let plain = LatencySummary::of(&plain_durs);
    let enc = LatencySummary::of(&enc_durs);
    let perf_pct =
        100.0 * (enc.mean.as_secs_f64() - plain.mean.as_secs_f64()) / plain.mean.as_secs_f64();
    println!(
        "performance:        EncDBDB {} vs PlainDBDB {} -> {perf_pct:+.1} % (paper: ~8.9 % with AES-NI)",
        fmt_duration(enc.mean),
        fmt_duration(plain.mean),
    );

    // --- Trusted LoC.
    println!("\ntrusted computing base (in-enclave code):");
    let mut total = 0usize;
    let mut host_side = 0usize;
    for (name, source) in TCB_SOURCES {
        let (trusted, host) = source.split_once(HOST_SIDE_STARTS).unwrap_or((source, ""));
        let loc = count_loc(trusted);
        total += loc;
        host_side += count_loc(host);
        println!("  {name:<20} {loc:>5} LoC");
    }
    println!("  {:<20} {total:>5} LoC (paper's C enclave: 1129)", "TOTAL");
    println!(
        "  not counted: {host_side} LoC of enclave_ops.rs from `DictEnclave` on (the host's \
         handle and the proxy's helpers),"
    );
    println!("  and what the paper's count leaves to the SGX SDK: the crypto crate, the");
    println!("  enclave runtime (enclave_sim) and colstore's Column, which Merge rebuilds from.");
    println!();
    println!("note: the software-AES substitution inflates the absolute performance");
    println!("overhead vs the paper's hardware AES-GCM; the shape (constant additive");
    println!("crypto cost per touched dictionary entry) is preserved.");
}
