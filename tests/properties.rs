//! Property-based tests on the core invariants, spanning crates.

use colstore::column::Column;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::avsearch::scan;
use encdict::build::{build_encrypted, build_plain, BuildParams};
use encdict::enclave_ops::decrypt_column_value;
use encdict::plain::search_plain;
use encdict::{DictEnclave, EdKind, EncryptedRange, RangeBound, RangeQuery};
use proptest::prelude::*;

fn kind_strategy() -> impl Strategy<Value = EdKind> {
    prop::sample::select(EdKind::ALL.to_vec())
}

fn value_strategy() -> impl Strategy<Value = String> {
    // Short alphabetic values with deliberate collisions.
    prop::collection::vec(prop::sample::select(vec!['a', 'b', 'c', 'd', 'e']), 0..6)
        .prop_map(|cs| cs.into_iter().collect())
}

fn column_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(value_strategy(), 1..60)
}

/// A range bound of any shape — inclusive, exclusive or absent — whose
/// value may run past the 8-byte columns below.
fn bound_strategy() -> impl Strategy<Value = (u8, String)> {
    let letters = prop::sample::select(vec!['a', 'b', 'c', 'd', 'e']);
    (0u8..3, prop::collection::vec(letters, 0..12))
        .prop_map(|(shape, cs)| (shape, cs.into_iter().collect()))
}

fn bound((shape, v): (u8, String)) -> RangeBound {
    match shape {
        0 => RangeBound::Inclusive(v.into_bytes()),
        1 => RangeBound::Exclusive(v.into_bytes()),
        _ => RangeBound::Unbounded,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Definition 1 (split correctness) holds for every kind over random
    /// columns, on the plaintext twin.
    #[test]
    fn split_correctness_universal(values in column_strategy(), kind in kind_strategy(), seed in 0u64..1000) {
        let column = Column::from_strs("c", 8, values.iter()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        use rand::SeedableRng;
        let params = BuildParams { bs_max: 3, ..BuildParams::default() };
        let (dict, av) = build_plain(&column, kind, &params, &mut rng).unwrap();
        prop_assert!(encdict::build::verify_plain_split(&column, &dict, &av));
    }

    /// The full encrypted pipeline (build → enclave search → attribute
    /// vector search) returns exactly the rows a reference scan returns,
    /// for every kind and random closed ranges.
    #[test]
    fn encrypted_search_matches_reference(
        values in column_strategy(),
        kind in kind_strategy(),
        lo in bound_strategy(),
        hi in bound_strategy(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let column = Column::from_strs("c", 8, values.iter()).unwrap();
        let skdb = Key128::from_bytes([9; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let params = BuildParams { table_name: "t".into(), col_name: "c".into(), bs_max: 3 };
        let (dict, av) = build_encrypted(&column, kind, &params, &sk_d, &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(seed);
        enclave.provision_direct(skdb);

        let (lo, hi) = if lo.1 <= hi.1 { (lo, hi) } else { (hi, lo) };
        let query = RangeQuery { start: bound(lo), end: bound(hi) };
        let tau = EncryptedRange::encrypt(&Pae::new(&sk_d), &mut rng, &query);
        let result = enclave.search(&dict, &tau).unwrap();
        let rids = scan(&av, &[result]);
        let got: Vec<u32> = rids.iter().map(|r| r.0).collect();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| query.contains(v.as_bytes()))
            .map(|(j, _)| j as u32)
            .collect();
        prop_assert_eq!(got, expected, "kind {}", kind);
    }

    /// PlainDBDB and EncDBDB return identical ValueID *sets of plaintexts*
    /// for the same column/kind/seed.
    #[test]
    fn plain_and_encrypted_twins_agree(
        values in column_strategy(),
        kind in kind_strategy(),
        needle in value_strategy(),
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let column = Column::from_strs("c", 8, values.iter()).unwrap();
        let params = BuildParams { table_name: "t".into(), col_name: "c".into(), bs_max: 3 };
        let query = RangeQuery::equals(needle.as_bytes());

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (pdict, _) = build_plain(&column, kind, &params, &mut rng).unwrap();
        let plain_matches = search_plain(&pdict, &query).unwrap().match_count();

        let skdb = Key128::from_bytes([9; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (edict, _) = build_encrypted(&column, kind, &params, &sk_d, &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(seed);
        enclave.provision_direct(skdb);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed + 1);
        let tau = EncryptedRange::encrypt(&Pae::new(&sk_d), &mut rng2, &query);
        let enc_matches = enclave.search(&edict, &tau).unwrap().match_count();

        // Same seed -> same split -> same number of matching entries.
        prop_assert_eq!(plain_matches, enc_matches);
    }

    /// Every ciphertext in an encrypted dictionary decrypts to a value of
    /// the source column, and the multiset of AV-mapped plaintexts equals
    /// the column (an encrypted restatement of Definition 1).
    #[test]
    fn encrypted_split_correctness(values in column_strategy(), kind in kind_strategy(), seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let column = Column::from_strs("c", 8, values.iter()).unwrap();
        let sk_d = Key128::from_bytes([5; 16]);
        let params = BuildParams { bs_max: 3, ..BuildParams::default() };
        let (dict, av) = build_encrypted(&column, kind, &params, &sk_d, &mut rng).unwrap();
        let pae = Pae::new(&sk_d);
        for j in 0..column.len() {
            let vid = av.get(j) as usize;
            let pt = decrypt_column_value(&pae, dict.value(vid)).unwrap();
            prop_assert_eq!(pt.as_slice(), column.value(j));
        }
    }

    /// Frequency-smoothing bound: no ValueID occurs more than bs_max times.
    #[test]
    fn smoothing_frequency_bound(values in column_strategy(), bs_max in 1usize..8, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let column = Column::from_strs("c", 8, values.iter()).unwrap();
        let params = BuildParams { bs_max, ..BuildParams::default() };
        let (_, av) = build_plain(&column, EdKind::Ed4, &params, &mut rng).unwrap();
        let mut counts = std::collections::HashMap::new();
        for id in av.iter() {
            *counts.entry(id).or_insert(0usize) += 1;
        }
        prop_assert!(counts.values().all(|&c| c <= bs_max));
    }

    /// PAE roundtrip with random data and AAD.
    #[test]
    fn pae_roundtrip(key in any::<[u8; 16]>(), pt in prop::collection::vec(any::<u8>(), 0..64),
                     aad in prop::collection::vec(any::<u8>(), 0..16), iv in any::<[u8; 12]>()) {
        let pae = Pae::new(&Key128::from_bytes(key));
        let ct = pae.encrypt(&iv, &pt, &aad);
        prop_assert_eq!(pae.decrypt(&ct, &aad).unwrap(), pt);
    }
}
