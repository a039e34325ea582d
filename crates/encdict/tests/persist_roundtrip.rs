//! Property tests: dictionary persistence round-trips for durability.
//!
//! The durable server (DESIGN.md §12) rests every published epoch on
//! `persist::to_bytes` / `from_bytes` (encrypted columns) and
//! `plain_to_bytes` / `plain_from_bytes` (PLAIN columns). These proptests
//! pin the round-trip for arbitrary column contents across all nine
//! dictionary kinds: the reloaded state is byte-for-byte re-serializable
//! and answers enclave searches identically to the original.

use colstore::column::Column;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::build::{build_encrypted, build_plain, BuildParams};
use encdict::persist;
use encdict::{DictEnclave, EdKind, EncryptedRange, RangeQuery};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-h]{0,6}", 0..40)
}

fn params() -> BuildParams {
    BuildParams {
        table_name: "t".into(),
        col_name: "c".into(),
        bs_max: 3,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary encrypted dictionary states survive `to_bytes` →
    /// `from_bytes` for every ED kind: the attribute vector is identical,
    /// the structural fields match, and re-serializing the reloaded state
    /// reproduces the exact original bytes (so a snapshot of a snapshot is
    /// a fixed point).
    #[test]
    fn encrypted_roundtrip_all_kinds(values in values_strategy(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let skdb = Key128::from_bytes([6; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        for kind in EdKind::ALL {
            let (dict, av) = build_encrypted(&col, kind, &params(), &sk_d, &mut rng).unwrap();
            let bytes = persist::to_bytes(&dict, &av);
            let (back, back_av) = persist::from_bytes(&bytes).unwrap();
            prop_assert_eq!(back.kind(), dict.kind());
            prop_assert_eq!(back.table_name(), dict.table_name());
            prop_assert_eq!(back.col_name(), dict.col_name());
            prop_assert_eq!(back.max_len(), dict.max_len());
            prop_assert_eq!(back.len(), dict.len());
            prop_assert_eq!(&back_av, &av);
            prop_assert_eq!(persist::to_bytes(&back, &back_av), bytes);
        }
    }

    /// The reloaded dictionary answers enclave range searches exactly like
    /// the original — persistence must not perturb a single ciphertext.
    #[test]
    fn reloaded_dictionary_searches_identically(values in values_strategy(),
                                                lo in "[a-h]{0,3}", hi in "[a-h]{0,3}") {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let mut rng = StdRng::seed_from_u64(11);
        let skdb = Key128::from_bytes([6; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let pae = Pae::new(&sk_d);
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        for kind in EdKind::ALL {
            let (dict, av) = build_encrypted(&col, kind, &params(), &sk_d, &mut rng).unwrap();
            let bytes = persist::to_bytes(&dict, &av);
            let (back, _back_av) = persist::from_bytes(&bytes).unwrap();

            let mut enclave = DictEnclave::with_seed(kind.number() as u64 + 50);
            enclave.provision_direct(skdb.clone());
            let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between(lo.as_str(), hi.as_str()));
            let original = enclave.search(&dict, &tau).unwrap();
            let reloaded = enclave.search(&back, &tau).unwrap();
            prop_assert_eq!(reloaded.match_count(), original.match_count());
        }
    }

    /// PLAIN columns round-trip through `plain_to_bytes` / `plain_from_bytes`
    /// with every value and the attribute vector preserved verbatim.
    #[test]
    fn plain_roundtrip(values in values_strategy(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let (dict, av) = build_plain(&col, EdKind::Ed1, &params(), &mut rng).unwrap();
        let bytes = persist::plain_to_bytes(&dict, &av);
        let (back, back_av) = persist::plain_from_bytes(&bytes).unwrap();
        prop_assert_eq!(back.len(), dict.len());
        prop_assert_eq!(back.max_len(), dict.max_len());
        for i in 0..dict.len() {
            prop_assert_eq!(back.value(i), dict.value(i));
        }
        prop_assert_eq!(&back_av, &av);
        prop_assert_eq!(persist::plain_to_bytes(&back, &back_av), bytes);
    }

    /// Truncating a serialized dictionary at any boundary is rejected
    /// structurally — a partial snapshot never loads as a smaller one.
    #[test]
    fn truncated_blobs_are_rejected(values in values_strategy(), cut_frac in 0.0f64..1.0) {
        let mut rng = StdRng::seed_from_u64(3);
        let skdb = Key128::from_bytes([6; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let (dict, av) = build_encrypted(&col, EdKind::Ed5, &params(), &sk_d, &mut rng).unwrap();
        let bytes = persist::to_bytes(&dict, &av);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(persist::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The on-disk dictionary formats are frozen (DESIGN.md §12): a sealed
/// snapshot written by an older binary must load, and re-serialise to the
/// same bytes, whatever the in-memory layout has become since. Digests of
/// `to_bytes` / `plain_to_bytes` for a sorted, a rotated and an unsorted
/// kind built from fixed seeds, recorded at the commit before `Segment`
/// became the layout's owner.
#[test]
fn serialised_dictionaries_keep_their_pinned_digests() {
    let values = (0..200u32).map(|i| format!("v{:03}", i * 7 % 61));
    let col = Column::from_strs("c", 8, values).unwrap();
    let sk_d = derive_column_key(&Key128::from_bytes([6; 16]), "t", "c");
    for (kind, encrypted_pin, plain_pin) in [
        (
            EdKind::Ed1,
            0xdb11_5a7c_b542_67a9u64,
            0x5161_79b8_54c2_8f7au64,
        ),
        (EdKind::Ed5, 0x1e8e_fdcc_7cbe_1b39, 0xaab8_c01a_6c92_216e),
        (EdKind::Ed9, 0x8c17_d4e7_fd09_71b8, 0x993b_5e4c_1f8c_ef4a),
    ] {
        let mut rng = StdRng::seed_from_u64(4200 + kind.number() as u64);
        let (dict, av) = build_encrypted(&col, kind, &params(), &sk_d, &mut rng).unwrap();
        let encrypted = fnv1a(&persist::to_bytes(&dict, &av));
        let (dict, av) = build_plain(&col, kind, &params(), &mut rng).unwrap();
        let plain = fnv1a(&persist::plain_to_bytes(&dict, &av));
        assert_eq!(
            (encrypted, plain),
            (encrypted_pin, plain_pin),
            "{kind}: (EdKind::{kind:?}, {encrypted:#018x}, {plain:#018x}),"
        );
    }
}
