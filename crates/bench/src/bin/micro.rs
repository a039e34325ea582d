//! Micro-measurements behind numbers DESIGN.md and README.md quote that
//! no repo-benchmark layer metric reproduces: PAE on the detected backend
//! beside the portable one and a column cipher derived vs kept (§6), the
//! attribute-vector scan across widths and selectivities (§14.1), the
//! value cache's hit price and hot-range ladder (§14.2), and the three §7
//! ablations.
//!
//! Usage: `cargo run -p encdbdb-bench --release --bin micro`. No flags:
//! every size is fixed. A row is the median of ten timed batches, each as
//! many calls as fill 2 ms; where a call does several units of work
//! (values, 1 000 rows, entries), the time of one unit follows.

use colstore::column::Column;
use colstore::dictionary::{AttributeVector, ValueId};
use colstore::table::Table;
use encdbdb::{ColumnSpec, DictChoice, Session, TableSchema};
use encdbdb_bench::*;
use encdbdb_crypto::gcm::LANES;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::avsearch::scan;
use encdict::build::{build_encrypted, DICT_VALUE_AAD as AAD};
use encdict::{
    CacheTag, DictEnclave, DictSearchResult, EdKind, EncryptedRange, RangeQuery, VidRange,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;
use workload::spec::{value_string, ColumnSpec as PopulationSpec};

/// The modeled cost of one SGX boundary crossing: ~8 000 cycles at the
/// paper's 3.7 GHz.
const SGX_TRANSITION: Duration = Duration::from_nanos(2_200);

/// Times `f` — the batch doubles until it takes 2 ms, then ten batches
/// are timed — prints the median call as row `name`, and returns it.
fn bench<T>(name: &str, per: u64, mut f: impl FnMut() -> T) -> Duration {
    let mut batch = |n: u32| time(|| (0..n).map(|_| black_box(f())).for_each(drop)).1;
    let mut n = 1;
    while batch(n) < Duration::from_millis(2) && n < 1 << 20 {
        n *= 2;
    }
    let mut samples: Vec<Duration> = (0..10).map(|_| batch(n) / n).collect();
    samples.sort_unstable();
    row(name, samples[5], per);
    samples[5]
}

/// Prints a call's time and, when it does `per > 1` units, one unit's.
fn row(name: &str, call: Duration, per: u64) {
    let (us, ns) = (call.as_secs_f64() * 1e6, call.as_nanos() as f64);
    match per {
        1 => println!("{name:<34} {us:>12.3} µs"),
        _ => println!("{name:<34} {us:>12.3} µs  {:>8.1} ns/unit", ns / per as f64),
    }
}

/// PAE on each backend, single and batched, and what a statement pays
/// for a column's cipher.
fn crypto() {
    let key = Key128::from_bytes([7; 16]);
    let mut rng = StdRng::seed_from_u64(1);
    let value = &b"aaaaabbbbb"[..];
    for (suffix, pae) in [("", Pae::new(&key)), ("_portable", Pae::portable(&key))] {
        let ct = pae.encrypt_with_rng(&mut rng, value, AAD);
        let name = format!("pae/encrypt_10B{suffix}");
        bench(&name, 1, || pae.encrypt_with_rng(&mut rng, value, AAD));
        let name = format!("pae/decrypt_10B{suffix}");
        bench(&name, 1, || pae.decrypt(&ct, AAD).unwrap());
        let values = [value; LANES];
        let cts = pae.encrypt_many_with_rng(&mut rng, &values, AAD);
        let cts: Vec<&[u8]> = cts.iter().map(|ct| ct.as_bytes()).collect();
        let mut outs: [Vec<u8>; LANES] = Default::default();
        let name = format!("pae_batch/encrypt_10B_x{LANES}{suffix}");
        bench(&name, 8, || {
            pae.encrypt_many_with_rng(&mut rng, &values, AAD)
        });
        let name = format!("pae_batch/decrypt_10B_x{LANES}{suffix}");
        let open = || pae.decrypt_many_into(&cts, AAD, &mut outs).unwrap();
        bench(&name, 8, open);
    }
    let derive = || Pae::new(&derive_column_key(&key, "bw", "C2"));
    bench("column_cipher/derive_and_new", 1, derive);
    // The kept cipher: a scan of the kept names, here the last of eight,
    // and the copy the proxy hands a statement.
    let kept: Vec<(String, String, Pae)> = (0..8)
        .map(|i| {
            let col = format!("C{i}");
            let pae = Pae::new(&derive_column_key(&key, "bw", &col));
            ("bw".to_string(), col, pae)
        })
        .collect();
    bench("column_cipher/cached", 1, || {
        let (table, col) = black_box(("bw", "C7"));
        let hit = kept.iter().find(|(t, c, _)| t == table && c == col);
        hit.expect("kept column").2.clone()
    });
}

/// The paper's linear id list (50 ids) over a 1 M-row AV of 10 000 ids,
/// then one range whose rows hit it at one row, 1 %, 50 % and 100 %,
/// stored at `u16` and at `u32` (the same rows plus one trailing miss
/// below 2^16 or above it). A unit is 1 000 rows.
fn av_scans() {
    const ROWS: usize = 1_000_000;
    let krows = ROWS as u64 / 1000;
    let av: AttributeVector = (0..ROWS)
        .map(|i| ValueId(((i * 2654435761) % 10_000) as u32))
        .collect();
    let ids = [DictSearchResult::Ids((0..50).map(|i| i * 97).collect())];
    bench("av_id_list/paper_linear", krows, || scan(&av, &ids));

    let hits = [DictSearchResult::Ranges([VidRange::new(0, 1), None])];
    for (name, rate) in [
        ("one_hit", None),
        ("1pct", Some(0.01)),
        ("50pct", Some(0.5)),
        ("100pct", Some(1.0)),
    ] {
        let mut rng = StdRng::seed_from_u64(29);
        let ids: Vec<ValueId> = (0..ROWS)
            .map(|j| match rate.map_or(j == ROWS / 2, |p| rng.gen_bool(p)) {
                true => ValueId(rng.gen_range(0..2)),
                false => ValueId(rng.gen_range(2..10_000)),
            })
            .collect();
        for (width, last, bytes) in [("u16", 9_999, 2), ("u32", 70_000, 4)] {
            let av: AttributeVector = ids.iter().copied().chain([ValueId(last)]).collect();
            assert_eq!(av.id_width(), bytes);
            let name = format!("av_selectivity/{width}/{name}");
            bench(&name, krows, || scan(&av, &hits));
        }
    }
}

/// What one cache hit costs: a linear search (the layout every delta
/// store is searched in) over 4 096 entries that are all cached, so 4 096
/// probes and no load or decrypt. Then 16 grouped range aggregates a call
/// over a 60 000-row ED1 column whose 20 000 distinct values exceed the
/// cache, 0 %, 50 % and 95 % of them on the first four of 20 ranges.
fn value_cache() {
    const ENTRIES: usize = 4096;
    const LEN: usize = 8;
    let mut rng = StdRng::seed_from_u64(5400);
    let values = (0..ENTRIES).map(|i| value_string(i, LEN));
    let column = Column::from_strs("v", LEN, values).unwrap();
    let sk_d = derive_column_key(&master_key(), "bw", "v");
    let params = build_params("v", 1);
    let (dict, _) = build_encrypted(&column, EdKind::Ed9, &params, &sk_d, &mut rng).unwrap();
    let query = RangeQuery::equals(value_string(ENTRIES / 2, LEN));
    let tau = [EncryptedRange::encrypt(&column_pae("v"), &mut rng, &query)];
    let tag = Some(CacheTag {
        part: 0,
        epoch: 0,
        delta: true,
    });
    let mut enclave = DictEnclave::with_seed(5401);
    enclave.provision_direct(master_key());
    enclave.search_multi(&dict, &tau, tag).unwrap();
    let loads = enclave.enclave().counters().untrusted_loads;
    bench("value_cache/hit_probe_4096", ENTRIES as u64, || {
        enclave.search_multi(&dict, &tau, tag).unwrap()
    });
    assert_eq!(enclave.enclave().counters().untrusted_loads, loads);

    const RANGE: usize = 1000;
    let pop = PopulationSpec {
        name: "v".to_string(),
        rows: 60_000,
        unique_values: 20 * RANGE,
        value_len: LEN,
        zipf_exponent: 0.7,
    };
    let mut table = Table::new("t");
    table.add_column(prepare(pop, 5100).column).unwrap();
    let choice = DictChoice::Encrypted(EdKind::Ed1);
    let schema = TableSchema::new("t", vec![ColumnSpec::new("v", choice, LEN)]);
    for hot_pct in [0u32, 50, 95] {
        let mut rng = StdRng::seed_from_u64(5200 + hot_pct as u64);
        let queries: Vec<String> = (0..64)
            .map(|_| {
                let slot = match rng.gen_range(0u32..100) < hot_pct {
                    true => rng.gen_range(0u32..=3) as usize,
                    false => rng.gen_range(0..20),
                };
                let (lo, hi) = (slot * RANGE, slot * RANGE + RANGE - 1);
                let (lo, hi) = (value_string(lo, LEN), value_string(hi, LEN));
                format!("SELECT v, COUNT(*) FROM t WHERE v BETWEEN '{lo}' AND '{hi}' GROUP BY v")
            })
            .collect();
        let mut db = Session::with_seed(5300).expect("session setup");
        db.load_table(&table, schema.clone()).expect("bulk load");
        let mut next = queries.iter().cycle();
        bench(&format!("value_cache/hot_pct/{hot_pct}"), 1, || {
            next.by_ref()
                .take(16)
                .for_each(|q| drop(db.execute(q).unwrap()))
        });
        let stats = db.server().last_stats();
        let (hits, decrypted) = (stats.cache_hits, stats.values_decrypted);
        println!("  last query: {hits} cache hits, {decrypted} values decrypted");
    }
}

/// The §7 ablations on the 20 000-row C2 twin under ED1.
fn ablations() {
    let prepared = prepare_c2(20_000, 40);
    let (dict, _) = build_ed(&prepared, EdKind::Ed1, 10, 41);
    let mut enclave = DictEnclave::with_seed(42);
    enclave.provision_direct(master_key());
    let pae = column_pae(&prepared.spec.name);
    let mid = prepared.sorted_uniques[prepared.sorted_uniques.len() / 2].clone();
    let mut rng = StdRng::seed_from_u64(43);
    let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals(mid));

    // 1. One crossing per query, or one per entry the search loads. The
    // simulator's boundary is a function call, so the crossings are added
    // as arithmetic.
    enclave.enclave_mut().reset_counters();
    enclave.search(&dict, &tau).unwrap();
    let loads = enclave.enclave().counters().untrusted_loads;
    let search = bench("ablation/search", 1, || enclave.search(&dict, &tau));
    let per_query = search + SGX_TRANSITION;
    row("ablation/ecall_per_query_modeled", per_query, 1);
    let per_value = search + SGX_TRANSITION * loads as u32;
    row("ablation/ecall_per_value_modeled", per_value, 1);
    println!("  ({loads} untrusted loads a search, 2.2 µs a modeled crossing)");

    // 2. Algorithm 1's per-call key derivation against a kept cipher.
    println!("ablation/derive_key_per_query: column_cipher/derive_and_new vs /cached");

    // 3. The head/tail split against every ciphertext padded to the
    // longest value.
    let padded = (prepared.spec.value_len + 28) * prepared.stats.unique_count();
    let split = dict.storage_size();
    let pct = 100.0 * (split as f64 / padded as f64 - 1.0);
    let (split, padded) = (fmt_bytes(split), fmt_bytes(padded));
    println!("ablation/layout: head/tail {split} vs fixed-width padded {padded} ({pct:+.1} %)");
}

fn main() {
    println!("# micro: median per call (DESIGN.md §6, §7, §14.1, §14.2)\n");
    crypto();
    av_scans();
    value_cache();
    ablations();
}
