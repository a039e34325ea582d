//! Criterion benchmark for the enclave value cache (DESIGN.md §14): a
//! stream of grouped range aggregates whose hot-range bias is controlled
//! by a [`workload::HotShardSpec`], against an ED1 column whose
//! dictionary (20 K distinct values) exceeds the cache capacity (8192
//! entries).
//!
//! Each query's Aggregate ECALL decrypts one entry per distinct touched
//! ValueID — ~1000 per query here. A skewed stream keeps re-touching the
//! same few hot ranges, whose plaintexts stay cached between queries; a
//! uniform stream cycles through a 20 K-entry working set that the FIFO
//! cache cannot hold, so nearly every read decrypts. The measured speedup
//! is therefore a direct function of the hit rate.
//!
//! Row count is overridable for quick runs:
//! `ENCDBDB_CACHE_ROWS=10000 cargo bench -p encdbdb-bench --bench cache`

use colstore::table::Table;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use encdbdb::{ColumnSpec, DictChoice, Session, TableSchema};
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::build::{build_encrypted, BuildParams};
use encdict::{CacheTag, DictEnclave, EdKind, EncryptedRange, RangeQuery};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workload::spec::{value_string, ColumnSpec as PopulationSpec};
use workload::HotShardSpec;

/// Values per query range: each aggregate touches up to this many
/// distinct ValueIDs.
const RANGE_VALUES: usize = 1000;

const VALUE_LEN: usize = 8;

fn row_count() -> usize {
    std::env::var("ENCDBDB_CACHE_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60_000)
}

/// Draws `n` range-aggregate queries whose start slot follows the hot
/// spec: `hot_insert_pct`% of draws come from the slot window
/// `[hot_lo, hot_hi]`, the rest are uniform over all slots.
fn draw_queries(spec: HotShardSpec, slots: usize, n: usize, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let slot = if rng.gen_range(0u32..100) < spec.hot_insert_pct {
                rng.gen_range(spec.hot_lo..=spec.hot_hi) as usize
            } else {
                rng.gen_range(0..slots)
            };
            let lo = value_string(slot * RANGE_VALUES, VALUE_LEN);
            let hi = value_string(slot * RANGE_VALUES + RANGE_VALUES - 1, VALUE_LEN);
            format!("SELECT v, COUNT(*) FROM t WHERE v BETWEEN '{lo}' AND '{hi}' GROUP BY v")
        })
        .collect()
}

fn bench_value_cache(c: &mut Criterion) {
    let rows = row_count();
    let uniques = (rows / 3).max(1);
    let slots = uniques.div_ceil(RANGE_VALUES);
    let pop = PopulationSpec {
        name: "v".to_string(),
        rows,
        unique_values: uniques,
        value_len: VALUE_LEN,
        zipf_exponent: 0.7,
    };
    let mut rng = StdRng::seed_from_u64(5100);
    let column = workload::spec::generate(&pop, &mut rng);
    let mut table = Table::new("t");
    table.add_column(column).unwrap();
    let schema = TableSchema::new(
        "t",
        vec![ColumnSpec::new(
            "v",
            DictChoice::Encrypted(EdKind::Ed1),
            VALUE_LEN,
        )],
    );

    let queries_per_iter = 16usize;
    let mut group = c.benchmark_group("value_cache");
    group.sample_size(10);
    group.throughput(Throughput::Elements(queries_per_iter as u64));
    // A four-slot hot window (≤ 4000 distinct values) fits the cache;
    // the full slot set does not.
    for hot_pct in [0u32, 50, 95] {
        let spec = HotShardSpec {
            hot_lo: 0,
            hot_hi: 3.min(slots as u32 - 1),
            hot_insert_pct: hot_pct,
        };
        let queries = draw_queries(spec, slots, 64, 5200 + hot_pct as u64);
        let mut db = Session::with_seed(5300).expect("session setup");
        db.load_table(&table, schema.clone()).expect("bulk load");
        let mut next = 0usize;
        group.bench_function(BenchmarkId::new("hot_pct", hot_pct), |b| {
            b.iter(|| {
                for _ in 0..queries_per_iter {
                    db.execute(&queries[next % queries.len()]).unwrap();
                    next += 1;
                }
            })
        });
        let stats = db.server().last_stats();
        println!(
            "  hot_pct={hot_pct}: rows={rows} uniques={uniques} \
             last-query cache_hits={} decrypted={}",
            stats.cache_hits, stats.values_decrypted
        );
    }
    group.finish();
}

/// What one cache *hit* costs: a linear search (the ED9 layout every
/// delta store is searched in) over 4 096 entries that are all cached, so
/// the search is 4 096 probes and no load or decrypt. Compare the per-entry
/// figure with `pae/decrypt_10B` in `benches/crypto.rs`, the price of the
/// miss it saves.
fn bench_hit_probe(c: &mut Criterion) {
    const ENTRIES: usize = 4096;
    let mut rng = StdRng::seed_from_u64(5400);
    let skdb = Key128::from_bytes([5; 16]);
    let sk_d = derive_column_key(&skdb, "t", "v");
    let values = (0..ENTRIES).map(|i| value_string(i, VALUE_LEN));
    let column = colstore::column::Column::from_strs("v", VALUE_LEN, values).unwrap();
    let params = BuildParams {
        table_name: "t".into(),
        col_name: "v".into(),
        bs_max: 1,
    };
    let (dict, _) = build_encrypted(&column, EdKind::Ed9, &params, &sk_d, &mut rng).unwrap();
    let query = RangeQuery::equals(value_string(ENTRIES / 2, VALUE_LEN));
    let tau = [EncryptedRange::encrypt(&Pae::new(&sk_d), &mut rng, &query)];
    let tag = Some(CacheTag {
        part: 0,
        epoch: 0,
        delta: true,
    });
    let mut enclave = DictEnclave::with_seed(5401);
    enclave.provision_direct(skdb);
    enclave.search_multi(&dict, &tau, tag).unwrap();

    let mut group = c.benchmark_group("value_cache");
    group.throughput(Throughput::Elements(ENTRIES as u64));
    let before = enclave.enclave().counters();
    let mut searches = 0u64;
    let t0 = std::time::Instant::now();
    group.bench_function("hit_probe_4096", |b| {
        b.iter(|| {
            searches += 1;
            enclave.search_multi(&dict, &tau, tag).unwrap()
        })
    });
    let elapsed = t0.elapsed();
    group.finish();
    let after = enclave.enclave().counters();
    assert_eq!(after.untrusted_loads, before.untrusted_loads);
    assert_eq!(
        after.cache_hits - before.cache_hits,
        searches * ENTRIES as u64
    );
    println!(
        "  hit_probe_4096: {:.1} ns per probed entry ({searches} searches, all hits)",
        elapsed.as_nanos() as f64 / (searches * ENTRIES as u64) as f64
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_value_cache, bench_hit_probe
}
criterion_main!(benches);
