//! Dynamic data: the epoch-tagged main store and the untrusted half of a
//! delta search (paper §4.3).
//!
//! "For EncDBDB, any encrypted dictionary can be used for the main store and
//! ED9 should be employed for the delta store. New entries can simply be
//! appended to a column of type ED9 by reencrypting the incoming value
//! inside the enclave with a random IV. A search in this delta store is done
//! by performing the linear scan ... neither the data order nor the
//! frequency is leaked during the insertion and search."
//!
//! So the delta store is not a type of its own: it is a [`Dictionary`] of
//! kind ED9 that starts empty ([`Dictionary::delta`]) and grows by
//! [`push`](Dictionary::push). A PLAIN column's delta is the same store
//! holding plaintext values, searched by PlainDBDB's
//! [`search_plain`](crate::plain::search_plain) instead of the enclave.
//!
//! The periodic merge ([`DictEnclave::merge`](crate::DictEnclave::merge))
//! re-encrypts every value, re-rotates rotated columns and re-shuffles
//! unsorted ones so the attacker cannot correlate the old and new main
//! stores. *When* to merge, which rows are still valid and what a reader
//! sees meanwhile is decided by the owner of these stores — the server's
//! partition (`encdbdb::server`, DESIGN.md §9).

use crate::avsearch;
use crate::dict::Dictionary;
use crate::error::EncdictError;
use crate::postings::Postings;
use crate::search::DictSearchResult;
use colstore::dictionary::{AttributeVector, RecordId};
use std::sync::{Arc, OnceLock};

/// An immutable, cheaply clonable snapshot of one column's merged main
/// store, tagged with the *merge generation* (epoch) that produced it.
///
/// Readers that hold a `MainSnapshot` keep the underlying dictionary and
/// attribute vector alive through the [`Arc`]s even after a concurrent
/// compaction publishes the next generation, so in-flight queries drain on
/// a consistent view while new queries pick up the rebuilt store.
#[derive(Debug, Clone)]
pub struct MainSnapshot {
    epoch: u64,
    dict: Arc<Dictionary>,
    av: Arc<AttributeVector>,
    /// The AV's postings, built by this generation's first search and
    /// shared by every clone of it; a new generation starts with none.
    postings: Arc<OnceLock<Postings>>,
}

impl MainSnapshot {
    /// Wraps a freshly built main store as generation `epoch`.
    pub fn new(epoch: u64, dict: Dictionary, av: AttributeVector) -> Self {
        MainSnapshot {
            epoch,
            dict: Arc::new(dict),
            av: Arc::new(av),
            postings: Arc::default(),
        }
    }

    /// The merge generation this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dictionary of this generation.
    pub fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// A shared handle to this generation's dictionary — what a batched
    /// ECALL request holds so the segment stays alive even if a concurrent
    /// compaction publishes the next generation mid-batch.
    pub fn dict_arc(&self) -> Arc<Dictionary> {
        Arc::clone(&self.dict)
    }

    /// The attribute vector of this generation.
    pub fn av(&self) -> &AttributeVector {
        &self.av
    }

    /// Wraps the output of a merge as the next generation (`epoch + 1`).
    pub fn next_generation(&self, dict: Dictionary, av: AttributeVector) -> Self {
        MainSnapshot::new(self.epoch + 1, dict, av)
    }

    /// `AttrVectSearch` (paper §4.1): the RecordIDs whose ValueID any of
    /// `results` names, ascending and deduplicated. The first call of a
    /// generation builds its [`Postings`]; a result of at most one row in
    /// [`SCAN_SHARE`](crate::postings::SCAN_SHARE) is then read from them,
    /// a larger one by the paper's linear scan, [`avsearch::scan`]
    /// (DESIGN.md §14.1).
    pub fn attr_vect_search(&self, results: &[DictSearchResult]) -> Vec<RecordId> {
        let postings = self.postings.get_or_init(|| Postings::build(&self.av));
        postings
            .lookup(results)
            .unwrap_or_else(|| avsearch::scan(&self.av, results))
    }

    /// This generation's postings, once a search has built them.
    pub fn postings(&self) -> Option<&Postings> {
        self.postings.get()
    }
}

/// The untrusted half of a delta search: turns the enclave's per-range
/// replies to a search of a delta store of `delta_len` rows into
/// ascending, deduplicated RecordIDs. An ED9 reply lists ValueIDs, and a
/// delta's ValueIDs are its RecordIDs; ids at or past `delta_len` are
/// dropped, as the attribute-vector scan this replaces never saw them.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] for a ValueID-range reply,
/// which no ED9 search produces.
pub fn record_ids(
    delta_len: usize,
    results: &[DictSearchResult],
) -> Result<Vec<RecordId>, EncdictError> {
    let mut rids = Vec::new();
    for result in results {
        let DictSearchResult::Ids(ids) = result else {
            return Err(EncdictError::CorruptDictionary(
                "ED9 delta search answered with ValueID ranges",
            ));
        };
        rids.extend(
            ids.iter()
                .filter(|&&id| (id as usize) < delta_len)
                .map(|&id| RecordId(id)),
        );
    }
    rids.sort_unstable();
    rids.dedup();
    Ok(rids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_encrypted, BuildParams};
    use crate::enclave_ops::{encrypt_value_for_column, DictEnclave, MergeRequest};
    use crate::kind::EdKind;
    use crate::range::{EncryptedRange, RangeQuery};
    use colstore::column::Column;
    use colstore::delta::ValidityVector;
    use colstore::dictionary::ValueId;
    use encdbdb_crypto::hkdf::derive_column_key;
    use encdbdb_crypto::{Key128, Pae};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    struct Fixture {
        enclave: DictEnclave,
        skdb: Key128,
        pae: Pae,
        params: BuildParams,
        rng: StdRng,
    }

    fn fixture(seed: u64) -> Fixture {
        let skdb = Key128::from_bytes([3; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let mut enclave = DictEnclave::with_seed(seed);
        enclave.provision_direct(skdb.clone());
        Fixture {
            enclave,
            skdb,
            pae: Pae::new(&sk_d),
            params: BuildParams {
                table_name: "t".into(),
                col_name: "c".into(),
                bs_max: 3,
            },
            rng: StdRng::seed_from_u64(seed + 1),
        }
    }

    impl Fixture {
        /// The insert path: proxy ciphertext → `DictEnclave::reencrypt` →
        /// `push`. Returns the proxy's ciphertext and the row.
        fn insert(&mut self, delta: &mut Dictionary, value: &[u8]) -> (Vec<u8>, RecordId) {
            let incoming = encrypt_value_for_column(&self.pae, &mut self.rng, value);
            let fresh = self
                .enclave
                .reencrypt("t", "c", incoming.as_bytes())
                .unwrap();
            let rid = delta.push(fresh.as_bytes());
            (incoming.into_bytes(), rid)
        }

        /// The delta search path: one ED9 linear-scan ECALL, then
        /// `record_ids` on the reply.
        fn search(&mut self, delta: &Dictionary, query: &RangeQuery) -> Vec<RecordId> {
            let range = EncryptedRange::encrypt(&self.pae, &mut self.rng, query);
            let results = self.enclave.search_multi(delta, &[range], None).unwrap();
            record_ids(delta.len(), &results).unwrap()
        }

        /// RecordIDs matching `query` in one main store.
        fn search_main(
            &mut self,
            dict: &Dictionary,
            av: &AttributeVector,
            query: &RangeQuery,
        ) -> Vec<RecordId> {
            let range = EncryptedRange::encrypt(&self.pae, &mut self.rng, query);
            let result = self.enclave.search(dict, &range).unwrap();
            crate::avsearch::scan(av, &[result])
        }

        /// One `Merge` ECALL: the valid rows of `dict`/`av` and of `delta`
        /// rebuilt as a fresh main store of `kind`.
        fn merge(
            &mut self,
            dict: &Dictionary,
            av: &AttributeVector,
            main_valid: &ValidityVector,
            delta: &Dictionary,
            delta_valid: &ValidityVector,
            kind: EdKind,
        ) -> (Dictionary, AttributeVector) {
            self.enclave
                .merge(MergeRequest {
                    table_name: "t",
                    col_name: "c",
                    max_len: 12,
                    kind,
                    bs_max: self.params.bs_max,
                    main: dict.segment().view(),
                    main_av: av,
                    main_valid,
                    delta: delta.segment().view(),
                    delta_valid,
                })
                .unwrap()
        }
    }

    #[test]
    fn delta_insert_and_search() {
        let mut f = fixture(1);
        let mut delta = Dictionary::delta("t", "c", 12);
        for v in ["mango", "apple", "peach", "apple"] {
            f.insert(&mut delta, v.as_bytes());
        }
        assert_eq!(delta.len(), 4);
        let rids = f.search(&delta, &RangeQuery::equals("apple"));
        assert_eq!(rids, vec![RecordId(1), RecordId(3)]);
    }

    #[test]
    fn stored_bytes_unlinkable_to_insert_message() {
        let mut f = fixture(3);
        let mut delta = Dictionary::delta("t", "c", 12);
        let (incoming, rid) = f.insert(&mut delta, b"secret");
        assert_ne!(delta.value(rid.0 as usize), &incoming[..]);
    }

    /// Paper §4.3 end to end at the enclave API: a read runs on both
    /// stores and the owner's validity bits mask the answers; the merge
    /// folds exactly the valid rows into one store with the same content.
    #[test]
    fn combined_search_and_merge_flow() {
        let mut f = fixture(4);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["b", "d", "a", "c", "e"]).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed2, &f.params, &sk_d, &mut f.rng).unwrap();
        // Main row 1 ("d") and delta row 2 ("dd") are deleted.
        let mut main_valid = ValidityVector::all_valid(5);
        main_valid.invalidate(1);
        let mut delta = Dictionary::delta("t", "c", 12);
        for v in ["cc", "bb", "dd"] {
            f.insert(&mut delta, v.as_bytes());
        }
        let mut delta_valid = ValidityVector::all_valid(3);
        delta_valid.invalidate(2);

        // [b, dd]: main matches b (row 0), d (row 1, deleted), c (row 3);
        // the delta matches all three, one of them deleted.
        let query = RangeQuery::between("b", "dd");
        let main_rids = f.search_main(&main_dict, &main_av, &query);
        assert_eq!(main_rids, vec![RecordId(0), RecordId(1), RecordId(3)]);
        assert_eq!(f.search(&delta, &query).len(), 3);

        let (new_dict, new_av) = f.merge(
            &main_dict,
            &main_av,
            &main_valid,
            &delta,
            &delta_valid,
            EdKind::Ed2,
        );
        assert_eq!(new_av.len(), 6); // 4 valid main + 2 valid delta
                                     // Logical values now: b, a, c, e, cc, bb → matching: b, c, cc, bb.
        assert_eq!(f.search_main(&new_dict, &new_av, &query).len(), 4);
    }

    /// A merge whose delta takes an ED1 dictionary from 250 to 260 entries
    /// publishes a `u16` attribute vector, and range answers over it equal
    /// the MonetDB baseline over the merged plaintext rows.
    #[test]
    fn merge_across_the_u8_boundary_publishes_a_u16_av() {
        let mut f = fixture(6);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let main_values: Vec<String> = (0..500).map(|i| format!("v{:03}", i % 250)).collect();
        let col = Column::from_strs("c", 12, &main_values).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed1, &f.params, &sk_d, &mut f.rng).unwrap();
        assert_eq!((main_dict.len(), main_av.id_width()), (250, 1));
        let mut delta = Dictionary::delta("t", "c", 12);
        let delta_values: Vec<String> = (0..10).map(|i| format!("w{i:03}")).collect();
        for v in &delta_values {
            f.insert(&mut delta, v.as_bytes());
        }
        let all = |n| ValidityVector::all_valid(n);
        let (new_dict, new_av) = f.merge(
            &main_dict,
            &main_av,
            &all(500),
            &delta,
            &all(10),
            EdKind::Ed1,
        );
        assert_eq!((new_dict.len(), new_av.id_width()), (260, 2));

        let merged = Column::from_strs("c", 12, main_values.iter().chain(&delta_values)).unwrap();
        let monet = colstore::monetdb::MonetColumn::ingest(&merged);
        for (lo, hi) in [
            ("v100", "v120"),
            ("v245", "w005"),
            ("w009", "w009"),
            ("a", "z"),
        ] {
            let got = f.search_main(&new_dict, &new_av, &RangeQuery::between(lo, hi));
            let want = monet.range_search_inclusive(lo.as_bytes(), hi.as_bytes());
            assert_eq!(got, want, "[{lo}, {hi}]");
        }
    }

    #[test]
    fn merge_rerandomizes_ciphertexts() {
        let mut f = fixture(5);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["x", "y"]).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed9, &f.params, &sk_d, &mut f.rng).unwrap();
        let mut old_cts: Vec<Vec<u8>> = (0..main_dict.len())
            .map(|i| main_dict.value(i).to_vec())
            .collect();
        let mut delta = Dictionary::delta("t", "c", 12);
        let (_, rid) = f.insert(&mut delta, b"z");
        old_cts.push(delta.value(rid.0 as usize).to_vec());
        let all = |n| ValidityVector::all_valid(n);
        let (new_dict, new_av) =
            f.merge(&main_dict, &main_av, &all(2), &delta, &all(1), EdKind::Ed9);
        assert_eq!(new_av.len(), 3);
        for i in 0..new_dict.len() {
            assert!(
                !old_cts.iter().any(|old| old == new_dict.value(i)),
                "ciphertext {i} links old and new store"
            );
        }
    }

    #[test]
    fn prefix_and_drain_prefix_partition_the_delta() {
        let mut f = fixture(7);
        let mut delta = Dictionary::delta("t", "c", 12);
        for v in ["alpha", "bravo", "charlie", "delta", "echo"] {
            f.insert(&mut delta, v.as_bytes());
        }

        let frozen = delta.prefix(3);
        assert_eq!(frozen.len(), 3);
        for i in 0..3 {
            assert_eq!(frozen.value(i), delta.value(i));
        }

        // Searching the frozen prefix behaves like a store of rows 0..3.
        assert_eq!(
            f.search(&frozen, &RangeQuery::equals("charlie")),
            vec![RecordId(2)]
        );
        assert!(f.search(&frozen, &RangeQuery::equals("delta")).is_empty());

        // Draining the prefix leaves rows 3.. renumbered from 0.
        let suffix_cts: Vec<Vec<u8>> = (3..5).map(|i| delta.value(i).to_vec()).collect();
        delta.drain_prefix(3);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.value(0), &suffix_cts[0][..]);
        assert_eq!(delta.value(1), &suffix_cts[1][..]);
        assert_eq!(
            f.search(&delta, &RangeQuery::equals("delta")),
            vec![RecordId(0)]
        );
        delta.drain_prefix(2);
        assert!(delta.is_empty());
    }

    /// `record_ids` replaces an `avsearch::scan` over the delta's identity
    /// attribute vector; on every reply shape an ED9 search can produce
    /// (duplicates and overlaps across ranges, empty lists, ids at or past
    /// the store length) the two agree.
    #[test]
    fn record_ids_equal_the_identity_av_union() {
        let mut rng = StdRng::seed_from_u64(11);
        for len in [0usize, 1, 7, 64, 200] {
            let identity: AttributeVector = (0..len as u32).map(ValueId).collect();
            for lists in 0..6usize {
                let results: Vec<DictSearchResult> = (0..lists)
                    .map(|_| {
                        let n = rng.gen_range(0..12usize);
                        let mut ids: Vec<u32> =
                            (0..n).map(|_| rng.gen_range(0..len as u32 + 5)).collect();
                        ids.sort_unstable();
                        DictSearchResult::Ids(ids)
                    })
                    .collect();
                let expected = crate::avsearch::scan(&identity, &results);
                assert_eq!(
                    record_ids(len, &results).unwrap(),
                    expected,
                    "len {len}, {results:?}"
                );
            }
        }
    }

    #[test]
    fn record_ids_reject_a_range_reply() {
        let err = record_ids(0, &[DictSearchResult::empty_ranges()]).unwrap_err();
        assert!(matches!(err, EncdictError::CorruptDictionary(_)), "{err:?}");
    }

    /// Clones of one generation share one index, built once by whichever
    /// searches first (here four racing readers); the next generation
    /// starts with none and answers from its own attribute vector.
    #[test]
    fn postings_are_built_once_per_generation() {
        let av = |ids: &[u32]| ids.iter().map(|&i| ValueId(i)).collect();
        let empty = || Dictionary::delta("t", "c", 12);
        let snap = MainSnapshot::new(0, empty(), av(&[0, 1, 2, 1]));
        let readers = vec![snap.clone(); 4];
        assert!(snap.postings().is_none());
        let ones = [DictSearchResult::Ids(vec![1])];
        std::thread::scope(|s| {
            for reader in &readers {
                s.spawn(|| assert_eq!(reader.attr_vect_search(&ones), [RecordId(1), RecordId(3)]));
            }
        });
        let built: *const Postings = snap.postings().expect("a clone's search builds it");
        for reader in &readers {
            assert!(std::ptr::eq(built, reader.postings().unwrap()));
        }
        snap.attr_vect_search(&[DictSearchResult::empty_ranges()]);
        assert!(std::ptr::eq(built, snap.postings().unwrap()), "rebuilt");

        let next = snap.next_generation(empty(), av(&[2, 2, 0, 1, 1, 0]));
        assert!(next.postings().is_none());
        assert_eq!(next.attr_vect_search(&ones), [RecordId(3), RecordId(4)]);
        assert_eq!(next.postings().unwrap().rows(), 6);
        assert_eq!(
            readers[0].attr_vect_search(&ones),
            [RecordId(1), RecordId(3)]
        );
    }

    #[test]
    fn main_snapshot_generations_are_tagged() {
        let mut f = fixture(8);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["x", "y"]).unwrap();
        let (dict, av) = build_encrypted(&col, EdKind::Ed1, &f.params, &sk_d, &mut f.rng).unwrap();
        let snap = MainSnapshot::new(0, dict, av);
        assert_eq!(snap.epoch(), 0);
        let reader_view = snap.clone();
        let col2 = Column::from_strs("c", 12, ["x", "y", "z"]).unwrap();
        let (dict2, av2) =
            build_encrypted(&col2, EdKind::Ed1, &f.params, &sk_d, &mut f.rng).unwrap();
        let next = snap.next_generation(dict2, av2);
        assert_eq!(next.epoch(), 1);
        // The drained reader still sees the old generation's data.
        assert_eq!(reader_view.av().len(), 2);
        assert_eq!(next.av().len(), 3);
    }
}
