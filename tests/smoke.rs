//! Workspace smoke test: one small column through all nine encrypted
//! dictionaries — build → encrypt → range query → decrypt — checked
//! against the plaintext MonetDB baseline at every step.

use colstore::column::Column;
use colstore::monetdb::MonetColumn;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::avsearch::scan;
use encdict::build::{build_encrypted, BuildParams};
use encdict::enclave_ops::decrypt_column_value;
use encdict::{DictEnclave, EdKind, EncryptedRange, RangeQuery};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small column with repeats (so smoothing buckets split), an extreme
/// value, and values that straddle the query bounds.
fn sample_values() -> Vec<&'static str> {
    vec![
        "cherry",
        "apple",
        "banana",
        "cherry",
        "apple",
        "fig",
        "banana",
        "cherry",
        "date",
        "elderberry",
        "apple",
        "grape",
        "banana",
        "cherry",
        "aa",
    ]
}

#[test]
fn all_nine_kinds_round_trip_against_monetdb_baseline() {
    let values = sample_values();
    let column = Column::from_strs("fruit", 12, values.iter()).unwrap();
    let monet = MonetColumn::ingest(&column);

    // Closed [lo, hi] bounds, driving both the encrypted query and the
    // plaintext baseline; the middle one is an equality query in range form.
    let bounds: [(&[u8], &[u8]); 3] = [(b"b", b"d"), (b"cherry", b"cherry"), (b"", b"zzz")];

    for kind in EdKind::ALL {
        let skdb = Key128::from_bytes([9; 16]);
        let sk_d = derive_column_key(&skdb, "t", "fruit");
        let pae = Pae::new(&sk_d);
        let params = BuildParams {
            table_name: "t".into(),
            col_name: "fruit".into(),
            bs_max: 2,
        };
        let mut rng = StdRng::seed_from_u64(31);
        let (dict, av) = build_encrypted(&column, kind, &params, &sk_d, &mut rng).unwrap();

        // Decrypt round-trip: every row's ciphertext, located through the
        // attribute vector, decrypts back to the row's plaintext value.
        for j in 0..column.len() {
            let vid = av.get(j) as usize;
            let pt = decrypt_column_value(&pae, dict.value(vid)).unwrap();
            assert_eq!(
                pt.as_slice(),
                column.value(j),
                "kind {kind}: row {j} does not round-trip"
            );
        }

        // Encrypted range queries return exactly what the plaintext
        // MonetDB-style baseline returns.
        let mut enclave = DictEnclave::with_seed(77);
        enclave.provision_direct(skdb);
        for (lo, hi) in bounds {
            let query = RangeQuery::between(lo, hi);
            let tau = EncryptedRange::encrypt(&pae, &mut rng, &query);
            let result = enclave.search(&dict, &tau).unwrap();
            let rids = scan(&av, &[result]);
            let got: Vec<u32> = rids.iter().map(|r| r.0).collect();
            let expected: Vec<u32> = monet
                .range_search_inclusive(lo, hi)
                .iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(got, expected, "kind {kind}: query {query:?}");
        }
    }
}
