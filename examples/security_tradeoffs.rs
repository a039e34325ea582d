//! Security/performance/storage tradeoffs across ED1–ED9 (paper §6.4).
//!
//! ```text
//! cargo run --release --example security_tradeoffs [-- rows]
//! ```
//!
//! Builds the same repetitive column under all nine encrypted dictionaries
//! and reports, for each: what an attacker observes (max ValueID frequency,
//! order correlation), the storage size, and the latency of a range query —
//! making the usage guideline of §6.4 concrete.

use encdbdb_bench::{
    build_ed, build_plain_ed, column_pae, fmt_bytes, fmt_duration, master_key, prepare_c2,
};
use encdict::avsearch::scan;
use encdict::leakage::analyze;
use encdict::{DictEnclave, EdKind, EncryptedRange, RangeQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let rows: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(20_000);
    let bs_max = 10usize;
    let prepared = prepare_c2(rows, 77);
    let mut rng = StdRng::seed_from_u64(78);

    let n_uniques = prepared.sorted_uniques.len();
    let lo = prepared.sorted_uniques[n_uniques / 4].clone();
    let hi = prepared.sorted_uniques[(n_uniques / 4 + 4).min(n_uniques - 1)].clone();
    let query = RangeQuery::between(lo.clone(), hi.clone());

    println!(
        "column: {} rows, {} uniques, bs_max={bs_max}, query [{}..{}]\n",
        rows,
        prepared.stats.unique_count(),
        lo,
        hi
    );
    println!(
        "{:<5} {:>12} {:>11} {:>12} {:>11} {:>10}",
        "ED", "max AV freq", "order corr", "storage", "latency", "results"
    );

    for kind in EdKind::ALL {
        // Attacker view from the plaintext twin (the evaluator knows the
        // plaintexts; the attacker sees positions + the attribute vector).
        let (pdict, pav) = build_plain_ed(&prepared, kind, bs_max, 80 + kind.number() as u64);
        let plaintexts: Vec<Vec<u8>> = (0..pdict.len()).map(|i| pdict.value(i).to_vec()).collect();
        let leak = analyze(&pav, &plaintexts);

        // Encrypted instance for storage + latency.
        let (dict, av) = build_ed(&prepared, kind, bs_max, 90 + kind.number() as u64);
        let storage = dict.storage_size() + av.packed_size(dict.len());
        let mut enclave = DictEnclave::with_seed(91);
        enclave.provision_direct(master_key());
        let pae = column_pae(&prepared.spec.name);
        let tau = EncryptedRange::encrypt(&pae, &mut rng, &query);
        let start = std::time::Instant::now();
        let result = enclave.search(&dict, &tau).expect("search");
        let rids = scan(&av, &[result]);
        let latency = start.elapsed();

        println!(
            "{:<5} {:>12} {:>11.3} {:>12} {:>11} {:>10}",
            kind.to_string(),
            leak.max_frequency,
            leak.modular_order_corr,
            fmt_bytes(storage),
            fmt_duration(latency),
            rids.len()
        );
    }

    println!();
    println!("reading guide (§6.4): ED1 = fastest/smallest, weakest; ED5 = the");
    println!("recommended tradeoff (bounded frequency + modular-only order leakage");
    println!("at near-ED1 latency); ED8 = strong security at binary-search speed,");
    println!("large storage; ED9 = maximum security, linear-scan latency.");
}
