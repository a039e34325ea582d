//! Criterion micro-benchmarks for the cryptographic substrate: the
//! per-value costs that dominate EnclDictSearch (one AES-GCM decryption per
//! dictionary entry touched, Algorithm 1).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use encdbdb_crypto::aes::Aes128;
use encdbdb_crypto::gcm::LANES;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::keys::{Key128, Key256};
use encdbdb_crypto::{sha256, x25519, Pae};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_crypto(c: &mut Criterion) {
    let key = Key128::from_bytes([7; 16]);
    let cipher = Aes128::new(&key);
    c.bench_function("aes128_block", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            cipher.encrypt_block(&mut block);
            std::hint::black_box(block[0])
        })
    });

    // A 10-byte value like the paper's C2 strings, under the AAD every
    // dictionary value carries — on the backend `Pae::new` detects (AES-NI
    // + PCLMULQDQ where the CPU has them) and on the portable fallback:
    // the ratio of the two rows is the factor DESIGN.md §6 quotes.
    const AAD: &[u8] = encdict::build::DICT_VALUE_AAD;
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("pae");
    group.throughput(Throughput::Elements(1));
    for (suffix, pae) in [("", Pae::new(&key)), ("_portable", Pae::portable(&key))] {
        let ct = pae.encrypt_with_rng(&mut rng, b"aaaaabbbbb", AAD);
        group.bench_function(format!("encrypt_10B{suffix}"), |b| {
            b.iter(|| pae.encrypt_with_rng(&mut rng, b"aaaaabbbbb", AAD))
        });
        group.bench_function(format!("decrypt_10B{suffix}"), |b| {
            b.iter(|| pae.decrypt(&ct, AAD).unwrap())
        });
    }
    group.finish();

    // The same value, one batch of `LANES` per iteration: what a linear
    // dictionary scan and a dictionary build pay per entry (DESIGN.md §6).
    let mut group = c.benchmark_group("pae_batch");
    group.throughput(Throughput::Elements(LANES as u64));
    for (suffix, pae) in [("", Pae::new(&key)), ("_portable", Pae::portable(&key))] {
        let values = [&b"aaaaabbbbb"[..]; LANES];
        let cts = pae.encrypt_many_with_rng(&mut rng, &values, AAD);
        let cts: Vec<&[u8]> = cts.iter().map(|ct| ct.as_bytes()).collect();
        let mut outs: [Vec<u8>; LANES] = Default::default();
        group.bench_function(format!("encrypt_10B_x{LANES}{suffix}"), |b| {
            b.iter(|| pae.encrypt_many_with_rng(&mut rng, &values, AAD))
        });
        group.bench_function(format!("decrypt_10B_x{LANES}{suffix}"), |b| {
            b.iter(|| pae.decrypt_many_into(&cts, AAD, &mut outs).unwrap())
        });
    }
    group.finish();

    c.bench_function("sha256_64B", |b| {
        let data = [5u8; 64];
        b.iter(|| sha256::digest(&data))
    });
    c.bench_function("derive_column_key", |b| {
        b.iter(|| derive_column_key(&key, "bw", "C2"))
    });
    c.bench_function("pae_new", |b| b.iter(|| Pae::new(&key)));

    // What a statement used to pay per column, and what it pays now that
    // proxy and enclave keep the cipher (DESIGN.md §6): a scan of the kept
    // names, here the last of eight, and — the proxy's share — a copy of
    // the cipher for the statement to hold.
    let mut group = c.benchmark_group("column_cipher");
    group.bench_function("derive_and_new", |b| {
        b.iter(|| Pae::new(&derive_column_key(&key, "bw", "C2")))
    });
    let kept: Vec<(String, String, Pae)> = (0..8)
        .map(|i| {
            let col = format!("C{i}");
            let pae = Pae::new(&derive_column_key(&key, "bw", &col));
            ("bw".to_string(), col, pae)
        })
        .collect();
    group.bench_function("cached", |b| {
        b.iter(|| {
            let (table, col) = std::hint::black_box(("bw", "C7"));
            let hit = kept.iter().find(|(t, c, _)| t == table && c == col);
            hit.expect("kept column").2.clone()
        })
    });
    group.finish();
    c.bench_function("x25519_shared_secret", |b| {
        let sk = Key256::from_bytes([9; 32]);
        let pk = x25519::public_key(&Key256::from_bytes([4; 32]));
        b.iter(|| x25519::shared_secret(&sk, &pk))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_crypto
}
criterion_main!(benches);
