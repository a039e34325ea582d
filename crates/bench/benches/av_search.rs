//! Criterion benchmarks for AttrVectSearch: a range scan and the paper's
//! linear id-list scan, and the range kernel across selectivities and
//! stored widths.

use colstore::dictionary::{AttributeVector, ValueId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use encdict::avsearch::scan;
use encdict::{DictSearchResult, VidRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_av_search(c: &mut Criterion) {
    let rows = 1_000_000usize;
    let dict_len = 10_000usize;
    let av: AttributeVector = (0..rows)
        .map(|i| ValueId(((i * 2654435761) % dict_len) as u32))
        .collect();
    let ranges = [DictSearchResult::Ranges([VidRange::new(100, 200), None])];

    let mut group = c.benchmark_group("av_range_scan");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function(BenchmarkId::from_parameter(1), |b| {
        b.iter(|| scan(&av, &ranges))
    });
    group.finish();

    let vids: Vec<u32> = (0..50u32).map(|i| i * 97 % dict_len as u32).collect();
    let ids = [DictSearchResult::Ids(vids)];
    let mut group = c.benchmark_group("av_id_list");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("paper_linear", |b| b.iter(|| scan(&av, &ids)));
    group.finish();
}

/// One range over a 1M-row AV of 10 000 ValueIDs whose rows hit it at one
/// row, 1 %, 50 % and 100 %, stored at `u16` and at `u32`: the same rows
/// plus one trailing miss, below 2^16 or above it. One hit is the sparse
/// path's best case; 1 % and up take the dense path.
fn bench_av_selectivity(c: &mut Criterion) {
    let rows = 1_000_000usize;
    let hits = [DictSearchResult::Ranges([VidRange::new(0, 1), None])];
    let mut group = c.benchmark_group("av_selectivity");
    group.throughput(Throughput::Elements(rows as u64));
    for (name, rate) in [
        ("one_hit", None),
        ("1pct", Some(0.01)),
        ("50pct", Some(0.5)),
        ("100pct", Some(1.0)),
    ] {
        let mut rng = StdRng::seed_from_u64(29);
        let ids: Vec<ValueId> = (0..rows)
            .map(|j| match rate.map_or(j == rows / 2, |p| rng.gen_bool(p)) {
                true => ValueId(rng.gen_range(0..2)),
                false => ValueId(rng.gen_range(2..10_000)),
            })
            .collect();
        for (width, last, bytes) in [("u16", 9_999, 2), ("u32", 70_000, 4)] {
            let av: AttributeVector = ids.iter().copied().chain([ValueId(last)]).collect();
            assert_eq!(av.id_width(), bytes);
            group.bench_function(BenchmarkId::new(width, name), |b| {
                b.iter(|| scan(&av, &hits))
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_av_search, bench_av_selectivity
}
criterion_main!(benches);
