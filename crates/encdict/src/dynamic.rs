//! Dynamic data: the encrypted delta store and protected merge (paper §4.3).
//!
//! "For EncDBDB, any encrypted dictionary can be used for the main store and
//! ED9 should be employed for the delta store. New entries can simply be
//! appended to a column of type ED9 by reencrypting the incoming value
//! inside the enclave with a random IV. A search in this delta store is done
//! by performing the linear scan ... neither the data order nor the
//! frequency is leaked during the insertion and search."
//!
//! The periodic merge re-encrypts every value, re-rotates rotated columns
//! and re-shuffles unsorted ones so the attacker cannot correlate the old
//! and new main stores.

use crate::build::BuildParams;
use crate::dict::{head_entry, write_head_entry, EncryptedDictionary};
use crate::enclave_ops::DictEnclave;
use crate::error::EncdictError;
use crate::kind::EdKind;
use crate::range::EncryptedRange;
use crate::search::DictSearchResult;
use colstore::delta::ValidityVector;
use colstore::dictionary::{AttributeVector, RecordId, ValueId};
use std::sync::Arc;

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
    dict: Arc<EncryptedDictionary>,
    av: Arc<AttributeVector>,
}

impl MainSnapshot {
    /// Wraps a freshly built main store as generation `epoch`.
    pub fn new(epoch: u64, dict: EncryptedDictionary, av: AttributeVector) -> Self {
        MainSnapshot {
            epoch,
            dict: Arc::new(dict),
            av: Arc::new(av),
        }
    }

    /// The merge generation this snapshot belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The encrypted dictionary of this generation.
    pub fn dict(&self) -> &EncryptedDictionary {
        &self.dict
    }

    /// A shared handle to this generation's dictionary — what a batched
    /// ECALL request holds so the segment stays alive even if a concurrent
    /// compaction publishes the next generation mid-batch.
    pub fn dict_arc(&self) -> Arc<EncryptedDictionary> {
        Arc::clone(&self.dict)
    }

    /// The attribute vector of this generation.
    pub fn av(&self) -> &AttributeVector {
        &self.av
    }

    /// Wraps the output of a merge as the next generation (`epoch + 1`).
    pub fn next_generation(&self, dict: EncryptedDictionary, av: AttributeVector) -> Self {
        MainSnapshot::new(self.epoch + 1, dict, av)
    }
}

/// An encrypted delta store: an ED9 dictionary that grows by appending
/// re-encrypted values, with a trivial identity attribute vector and a
/// validity vector for deletions.
///
/// `Clone` produces a frozen snapshot of the store at its current length —
/// the delta-side half of a consistent read snapshot.
#[derive(Debug, Clone)]
pub struct EncryptedDeltaStore {
    table_name: String,
    col_name: String,
    max_len: usize,
    /// ED9 head/tail grown incrementally.
    head: Vec<u8>,
    tail: Vec<u8>,
    len: usize,
    validity: ValidityVector,
}

impl EncryptedDeltaStore {
    /// Creates an empty delta store for the given column.
    pub fn new(table_name: impl Into<String>, col_name: impl Into<String>, max_len: usize) -> Self {
        EncryptedDeltaStore {
            table_name: table_name.into(),
            col_name: col_name.into(),
            max_len,
            head: Vec::new(),
            tail: Vec::new(),
            len: 0,
            validity: ValidityVector::default(),
        }
    }

    /// Number of rows ever inserted (including invalidated ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the delta is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of valid rows.
    pub fn valid_len(&self) -> usize {
        self.validity.count_valid()
    }

    /// Inserts an incoming ciphertext (PAE under the column key, produced
    /// by the proxy). The enclave re-encrypts it with a fresh IV so the
    /// stored bytes are unlinkable to the insert message.
    ///
    /// # Errors
    ///
    /// Propagates enclave failures (unprovisioned key, tampered value).
    pub fn insert(
        &mut self,
        enclave: &mut DictEnclave,
        incoming_ciphertext: &[u8],
    ) -> Result<RecordId, EncdictError> {
        let fresh = enclave.reencrypt(&self.table_name, &self.col_name, incoming_ciphertext)?;
        Ok(self.push_reencrypted(fresh.as_bytes()))
    }

    /// Appends a ciphertext that was *already* re-encrypted by the enclave
    /// (the two-step insert path: re-encrypt outside any storage lock, then
    /// append under it).
    pub fn push_reencrypted(&mut self, fresh: &[u8]) -> RecordId {
        let rid = RecordId(self.len as u32);
        write_head_entry(&mut self.head, self.tail.len() as u64, fresh.len() as u32);
        self.tail.extend_from_slice(fresh);
        self.len += 1;
        self.validity.push(true);
        rid
    }

    /// A frozen copy of the first `n` rows — the compaction input captured
    /// at a watermark while later inserts keep landing in the live store.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn prefix(&self, n: usize) -> Self {
        assert!(n <= self.len, "prefix {n} out of bounds {}", self.len);
        let tail_end = if n == self.len {
            self.tail.len()
        } else {
            head_entry(&self.head, n).0 as usize
        };
        EncryptedDeltaStore {
            table_name: self.table_name.clone(),
            col_name: self.col_name.clone(),
            max_len: self.max_len,
            head: self.head[..n * crate::dict::HEAD_ENTRY_BYTES].to_vec(),
            tail: self.tail[..tail_end].to_vec(),
            len: n,
            validity: self.validity.prefix(n),
        }
    }

    /// Drops the first `n` rows after a compaction consumed them: row
    /// `n + i` becomes row `i` and tail offsets are rebased.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn drain_prefix(&mut self, n: usize) {
        assert!(n <= self.len, "drain_prefix {n} out of bounds {}", self.len);
        if n == 0 {
            return;
        }
        let tail_base = if n == self.len {
            self.tail.len()
        } else {
            head_entry(&self.head, n).0 as usize
        };
        let mut head = Vec::with_capacity((self.len - n) * crate::dict::HEAD_ENTRY_BYTES);
        for i in n..self.len {
            let (offset, clen) = head_entry(&self.head, i);
            write_head_entry(&mut head, offset - tail_base as u64, clen);
        }
        self.head = head;
        self.tail = self.tail.split_off(tail_base);
        self.len -= n;
        self.validity = self.validity.suffix(n);
    }

    /// Marks a delta row deleted.
    ///
    /// # Panics
    ///
    /// Panics if `rid` is out of bounds.
    pub fn delete(&mut self, rid: RecordId) {
        self.validity.invalidate(rid.0 as usize);
    }

    /// Whether a delta row is valid.
    pub fn is_valid(&self, rid: RecordId) -> bool {
        self.validity.is_valid(rid.0 as usize)
    }

    /// Materializes the delta as an ED9 [`EncryptedDictionary`] view for
    /// searching (the identity attribute vector accompanies it).
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::CorruptDictionary`] if internal state is
    /// inconsistent (never expected).
    pub fn as_dictionary(&self) -> Result<(EncryptedDictionary, AttributeVector), EncdictError> {
        let dict = EncryptedDictionary::from_parts(
            EdKind::Ed9,
            self.table_name.clone(),
            self.col_name.clone(),
            self.max_len,
            self.len,
            self.head.clone(),
            self.tail.clone(),
            None,
        )?;
        let av: AttributeVector = (0..self.len as u32).map(ValueId).collect();
        Ok((dict, av))
    }

    /// Searches the delta (ED9 linear scan) and filters results through the
    /// validity vector.
    ///
    /// # Errors
    ///
    /// Propagates enclave failures.
    pub fn search(
        &self,
        enclave: &mut DictEnclave,
        range: &EncryptedRange,
    ) -> Result<Vec<RecordId>, EncdictError> {
        self.search_multi(enclave, std::slice::from_ref(range), None)
    }

    /// Searches the delta against a whole disjunction in a *single* ECALL
    /// (one linear scan answers every range at once), unions the matches,
    /// and filters through the validity vector. `cache` enables the
    /// in-enclave decrypted-value cache for this delta generation.
    ///
    /// # Errors
    ///
    /// Propagates enclave failures.
    pub fn search_multi(
        &self,
        enclave: &mut DictEnclave,
        ranges: &[EncryptedRange],
        cache: Option<crate::enclave_ops::CacheTag>,
    ) -> Result<Vec<RecordId>, EncdictError> {
        let (dict, _av) = self.as_dictionary()?;
        let results = enclave.search_multi(&dict, ranges, cache)?;
        Ok(self.filter_results(&results))
    }

    /// The untrusted half of a delta search: unions the enclave's
    /// per-range results over the identity attribute vector and filters
    /// through the validity vector. Split out so the batched ECALL path
    /// (which runs the enclave half through the scheduler) produces
    /// bit-identical results to [`EncryptedDeltaStore::search_multi`].
    pub fn filter_results(&self, results: &[DictSearchResult]) -> Vec<RecordId> {
        let av: AttributeVector = (0..self.len as u32).map(ValueId).collect();
        let rids = crate::avsearch::search_union(
            &av,
            results,
            self.len,
            crate::avsearch::SetSearchStrategy::PaperLinear,
            crate::avsearch::Parallelism::Serial,
        );
        rids.into_iter()
            .filter(|r| self.validity.is_valid(r.0 as usize))
            .collect()
    }

    /// Untrusted-memory view of the delta head (for enclave requests).
    pub fn head_mem(&self) -> enclave_sim::UntrustedMemory<'_> {
        enclave_sim::UntrustedMemory::new(&self.head)
    }

    /// Untrusted-memory view of the delta tail (for enclave requests).
    pub fn tail_mem(&self) -> enclave_sim::UntrustedMemory<'_> {
        enclave_sim::UntrustedMemory::new(&self.tail)
    }

    /// A copy of this delta store's segment bytes, for aggregate / join
    /// requests, which outlive the caller's snapshot borrow.
    pub fn segment_copy(&self) -> crate::batch::DeltaSegment {
        crate::batch::DeltaSegment {
            head: self.head.clone(),
            tail: self.tail.clone(),
            len: self.len,
        }
    }

    /// This delta store as a [`crate::enclave_ops::SegmentRef`].
    pub fn segment_ref(&self) -> crate::enclave_ops::SegmentRef<'_> {
        crate::enclave_ops::SegmentRef {
            head: self.head_mem(),
            tail: self.tail_mem(),
            len: self.len,
        }
    }

    /// The stored ciphertext of a delta row (for result rendering).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn ciphertext(&self, rid: RecordId) -> &[u8] {
        let (offset, clen) = crate::dict::head_entry(&self.head, rid.0 as usize);
        &self.tail[offset as usize..offset as usize + clen as usize]
    }

    /// Storage size in bytes.
    pub fn storage_size(&self) -> usize {
        self.head.len() + self.tail.len()
    }
}

/// The result of a dictionary search over main + delta (paper §4.3: "a read
/// query ... is executed on both stores normally and then the results are
/// merged while checking the validity of the entries").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedSearchResult {
    /// Matching RecordIDs in the main store (validity already applied by
    /// the caller, which owns the main validity vector).
    pub main: Vec<RecordId>,
    /// Matching, valid RecordIDs in the delta store.
    pub delta: Vec<RecordId>,
}

/// Merges the delta store into a fresh main store (paper §4.3).
///
/// The merge runs *inside the enclave* (one ECALL): it decrypts all valid
/// main and delta values, rebuilds the dictionary with fresh IVs, a fresh
/// rotation and a fresh shuffle, so old and new stores are unlinkable from
/// the untrusted realm. Returns the new main dictionary + attribute vector;
/// the delta store is reset. `main_validity` masks deleted main rows.
///
/// Merging an **empty** delta over a fully valid main store is a cheap
/// no-op: the main store is returned unchanged without entering the
/// enclave (zero values decrypted). The old and new stores are then
/// trivially linkable — but they are byte-identical, so there is nothing
/// new to learn; the re-randomizing rebuild only matters when content
/// actually changed (see DESIGN.md §9).
///
/// # Errors
///
/// Propagates decryption and build failures.
pub fn merge_delta(
    enclave: &mut DictEnclave,
    main_dict: &EncryptedDictionary,
    main_av: &AttributeVector,
    main_validity: &ValidityVector,
    delta: &mut EncryptedDeltaStore,
    params: &BuildParams,
    kind: EdKind,
) -> Result<(EncryptedDictionary, AttributeVector), EncdictError> {
    if delta.is_empty() && main_validity.count_valid() == main_av.len() {
        return Ok((main_dict.clone(), main_av.clone()));
    }
    let req = crate::enclave_ops::MergeRequest {
        table_name: main_dict.table_name(),
        col_name: main_dict.col_name(),
        max_len: main_dict.max_len(),
        kind,
        bs_max: params.bs_max,
        main_head: main_dict.head_mem(),
        main_tail: main_dict.tail_mem(),
        main_len: main_dict.len(),
        main_av: main_av.as_slice(),
        main_valid: main_validity,
        delta_head: enclave_sim::UntrustedMemory::new(&delta.head),
        delta_tail: enclave_sim::UntrustedMemory::new(&delta.tail),
        delta_len: delta.len,
        delta_valid: &delta.validity,
    };
    let rebuilt = enclave.merge(req)?;
    *delta = EncryptedDeltaStore::new(
        main_dict.table_name().to_string(),
        main_dict.col_name().to_string(),
        main_dict.max_len(),
    );
    Ok(rebuilt)
}

/// Convenience: run a search against main and delta and combine (validity
/// of the main store applied via `main_validity`).
///
/// # Errors
///
/// Propagates enclave failures from either store.
pub fn search_combined(
    enclave: &mut DictEnclave,
    main_dict: &EncryptedDictionary,
    main_av: &AttributeVector,
    main_validity: &ValidityVector,
    delta: &EncryptedDeltaStore,
    range: &EncryptedRange,
) -> Result<CombinedSearchResult, EncdictError> {
    let main_result: DictSearchResult = enclave.search(main_dict, range)?;
    let main_rids = crate::avsearch::search(
        main_av,
        &main_result,
        main_dict.len(),
        crate::avsearch::SetSearchStrategy::PaperLinear,
        crate::avsearch::Parallelism::Serial,
    );
    let main = main_rids
        .into_iter()
        .filter(|r| main_validity.is_valid(r.0 as usize))
        .collect();
    let delta_rids = delta.search(enclave, range)?;
    Ok(CombinedSearchResult {
        main,
        delta: delta_rids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_encrypted;
    use crate::enclave_ops::encrypt_value_for_column;
    use crate::range::RangeQuery;
    use colstore::column::Column;
    use encdbdb_crypto::hkdf::derive_column_key;
    use encdbdb_crypto::{Key128, Pae};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn delta_insert_and_search() {
        let mut f = fixture(1);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        for v in ["mango", "apple", "peach", "apple"] {
            let ct = encrypt_value_for_column(&f.pae, &mut f.rng, v.as_bytes());
            delta.insert(&mut f.enclave, ct.as_bytes()).unwrap();
        }
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::equals("apple"));
        let rids = delta.search(&mut f.enclave, &range).unwrap();
        assert_eq!(rids.iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn delta_delete_hides_rows() {
        let mut f = fixture(2);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        let ct = encrypt_value_for_column(&f.pae, &mut f.rng, b"gone");
        let rid = delta.insert(&mut f.enclave, ct.as_bytes()).unwrap();
        delta.delete(rid);
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::equals("gone"));
        assert!(delta.search(&mut f.enclave, &range).unwrap().is_empty());
        assert_eq!(delta.valid_len(), 0);
        assert_eq!(delta.len(), 1);
    }

    #[test]
    fn stored_bytes_unlinkable_to_insert_message() {
        let mut f = fixture(3);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        let incoming = encrypt_value_for_column(&f.pae, &mut f.rng, b"secret");
        let rid = delta.insert(&mut f.enclave, incoming.as_bytes()).unwrap();
        assert_ne!(delta.ciphertext(rid), incoming.as_bytes());
    }

    #[test]
    fn combined_search_and_merge_flow() {
        let mut f = fixture(4);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        // Main store: 5 values as ED2.
        let col = Column::from_strs("c", 12, ["b", "d", "a", "c", "e"]).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed2, &f.params, &sk_d, &mut f.rng).unwrap();
        let mut main_validity = ValidityVector::all_valid(5);
        // Delete main row 1 ("d"), insert "cc" and "bb" into the delta.
        main_validity.invalidate(1);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        for v in ["cc", "bb"] {
            let ct = encrypt_value_for_column(&f.pae, &mut f.rng, v.as_bytes());
            delta.insert(&mut f.enclave, ct.as_bytes()).unwrap();
        }

        // Query [b, d]: main matches b (row 0), c (row 3); d is deleted.
        // Delta matches cc, bb.
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::between("b", "d"));
        let combined = search_combined(
            &mut f.enclave,
            &main_dict,
            &main_av,
            &main_validity,
            &delta,
            &range,
        )
        .unwrap();
        assert_eq!(
            combined.main.iter().map(|r| r.0).collect::<Vec<_>>(),
            vec![0, 3]
        );
        assert_eq!(combined.delta.len(), 2);

        // Merge and re-query: one store, same logical content.
        let (new_dict, new_av) = merge_delta(
            &mut f.enclave,
            &main_dict,
            &main_av,
            &main_validity,
            &mut delta,
            &f.params,
            EdKind::Ed2,
        )
        .unwrap();
        assert!(delta.is_empty());
        assert_eq!(new_av.len(), 6); // 4 valid main + 2 delta
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::between("b", "d"));
        let result = f.enclave.search(&new_dict, &range).unwrap();
        let rids = crate::avsearch::search(
            &new_av,
            &result,
            new_dict.len(),
            crate::avsearch::SetSearchStrategy::PaperLinear,
            crate::avsearch::Parallelism::Serial,
        );
        // Logical values now: b, a, c, e, cc, bb → matching: b, c, cc, bb.
        assert_eq!(rids.len(), 4);
    }

    #[test]
    fn merge_rerandomizes_ciphertexts() {
        let mut f = fixture(5);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["x", "y"]).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed9, &f.params, &sk_d, &mut f.rng).unwrap();
        let old_cts: Vec<Vec<u8>> = (0..main_dict.len())
            .map(|i| main_dict.ciphertext(i).to_vec())
            .collect();
        let validity = ValidityVector::all_valid(2);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        let ct = encrypt_value_for_column(&f.pae, &mut f.rng, b"z");
        delta.insert(&mut f.enclave, ct.as_bytes()).unwrap();
        let (new_dict, _) = merge_delta(
            &mut f.enclave,
            &main_dict,
            &main_av,
            &validity,
            &mut delta,
            &f.params,
            EdKind::Ed9,
        )
        .unwrap();
        for i in 0..new_dict.len() {
            assert!(
                !old_cts.iter().any(|old| old == new_dict.ciphertext(i)),
                "ciphertext {i} links old and new store"
            );
        }
    }

    #[test]
    fn empty_delta_merge_is_a_noop() {
        // Satellite regression: merging an empty delta over a fully valid
        // main store must not rebuild (re-encrypt) anything — no ECALL, no
        // untrusted loads, zero values decrypted, identical bytes out.
        let mut f = fixture(6);
        let sk_d = derive_column_key(&f.skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["x", "y", "z"]).unwrap();
        let (main_dict, main_av) =
            build_encrypted(&col, EdKind::Ed2, &f.params, &sk_d, &mut f.rng).unwrap();
        let validity = ValidityVector::all_valid(3);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        f.enclave.enclave_mut().reset_counters();
        let (new_dict, new_av) = merge_delta(
            &mut f.enclave,
            &main_dict,
            &main_av,
            &validity,
            &mut delta,
            &f.params,
            EdKind::Ed2,
        )
        .unwrap();
        let counters = f.enclave.enclave().counters();
        assert_eq!(counters.ecalls, 0, "no-op merge must not enter the enclave");
        assert_eq!(counters.untrusted_loads, 0, "zero values decrypted");
        assert_eq!(new_av, main_av);
        for i in 0..main_dict.len() {
            assert_eq!(new_dict.ciphertext(i), main_dict.ciphertext(i));
        }

        // A deleted main row disqualifies the shortcut: the rebuild must
        // actually purge it.
        let mut validity = ValidityVector::all_valid(3);
        validity.invalidate(1);
        let (rebuilt, rebuilt_av) = merge_delta(
            &mut f.enclave,
            &main_dict,
            &main_av,
            &validity,
            &mut delta,
            &f.params,
            EdKind::Ed2,
        )
        .unwrap();
        assert_eq!(rebuilt_av.len(), 2);
        assert!(f.enclave.enclave().counters().ecalls > 0);
        assert_eq!(rebuilt.len(), 2);
    }

    #[test]
    fn prefix_and_drain_prefix_partition_the_delta() {
        let mut f = fixture(7);
        let mut delta = EncryptedDeltaStore::new("t", "c", 12);
        let values = ["alpha", "bravo", "charlie", "delta", "echo"];
        for v in values {
            let ct = encrypt_value_for_column(&f.pae, &mut f.rng, v.as_bytes());
            delta.insert(&mut f.enclave, ct.as_bytes()).unwrap();
        }
        delta.delete(RecordId(1));
        delta.delete(RecordId(4));

        let frozen = delta.prefix(3);
        assert_eq!(frozen.len(), 3);
        assert_eq!(frozen.valid_len(), 2); // "bravo" deleted
        for i in 0..3 {
            assert_eq!(
                frozen.ciphertext(RecordId(i as u32)),
                delta.ciphertext(RecordId(i as u32))
            );
            assert_eq!(
                frozen.is_valid(RecordId(i as u32)),
                delta.is_valid(RecordId(i as u32))
            );
        }

        // Searching the frozen prefix behaves like a store of rows 0..3.
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::equals("charlie"));
        let rids = frozen.search(&mut f.enclave, &range).unwrap();
        assert_eq!(rids, vec![RecordId(2)]);

        // Draining the prefix leaves rows 3.. renumbered from 0.
        let suffix_cts: Vec<Vec<u8>> = (3..5)
            .map(|i| delta.ciphertext(RecordId(i)).to_vec())
            .collect();
        delta.drain_prefix(3);
        assert_eq!(delta.len(), 2);
        assert_eq!(delta.valid_len(), 1); // "echo" deleted
        assert_eq!(delta.ciphertext(RecordId(0)), &suffix_cts[0][..]);
        assert_eq!(delta.ciphertext(RecordId(1)), &suffix_cts[1][..]);
        assert!(delta.is_valid(RecordId(0)));
        assert!(!delta.is_valid(RecordId(1)));
        let range = EncryptedRange::encrypt(&f.pae, &mut f.rng, &RangeQuery::equals("delta"));
        assert_eq!(
            delta.search(&mut f.enclave, &range).unwrap(),
            vec![RecordId(0)]
        );
        delta.drain_prefix(2);
        assert!(delta.is_empty());
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
