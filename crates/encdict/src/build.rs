//! `EncDB` — building the nine encrypted dictionaries from a plaintext
//! column (paper §4.1).
//!
//! Build pipeline for a column `C` and a kind `EDn`:
//!
//! 1. **Repetition expansion** — decide how many dictionary entries each
//!    unique value gets and assign every occurrence of the value to one of
//!    them: revealing (one entry per unique), smoothing (Algorithm 5
//!    buckets of at most `bs_max` occurrences), hiding (one entry per
//!    occurrence, each used exactly once).
//! 2. **Ordering** — sort entries lexicographically (repetition ties broken
//!    randomly), sort + rotate by a uniform random secret offset, or
//!    shuffle.
//! 3. **Attribute vector** — remap every row's assignment through the
//!    ordering permutation so the split stays correct (Definition 1).
//! 4. **Encryption** — PAE-encrypt every entry individually under `SK_D`
//!    with a fresh random IV, storing ciphertexts in the tail in a random
//!    order with head offsets in dictionary order (§5).
//!
//! [`build_plain`] runs steps 1–3 identically but stores plaintext values
//! in the same [`Dictionary`] layout — the PlainDBDB twin the paper uses as
//! its second baseline, and the store of every PLAIN column.

use crate::dict::{Dictionary, Segment};
use crate::error::EncdictError;
use crate::kind::{EdKind, OrderOption, RepetitionOption};
use colstore::column::Column;
use colstore::dictionary::{AttributeVector, ValueId};
use encdbdb_crypto::gcm::LANES;
use encdbdb_crypto::keys::Key128;
use encdbdb_crypto::{Ciphertext, Pae};
use rand::seq::SliceRandom;
use rand::Rng;

/// AAD under which dictionary values are encrypted.
pub const DICT_VALUE_AAD: &[u8] = b"encdbdb/dict-value/v1";
/// AAD under which the rotation offset is encrypted.
pub const ROT_OFFSET_AAD: &[u8] = b"encdbdb/rot-offset/v1";

/// Parameters for building an encrypted dictionary.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Table name (key-derivation metadata).
    pub table_name: String,
    /// Column name (key-derivation metadata).
    pub col_name: String,
    /// Maximal bucket size for frequency smoothing (ED4–ED6); ignored by
    /// the other kinds. The paper's evaluation uses 10.
    pub bs_max: usize,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            table_name: "t".to_string(),
            col_name: "c".to_string(),
            bs_max: 10,
        }
    }
}

/// Intermediate plaintext dictionary produced by steps 1–3.
struct PlainSplit<'c> {
    /// Plaintext dictionary values in final dictionary order, borrowed
    /// from the column.
    entries: Vec<&'c [u8]>,
    /// The attribute vector (already remapped to final order).
    av: AttributeVector,
    /// Rotation offset, for rotated kinds.
    rnd_offset: Option<u64>,
}

/// Steps 1–3: repetition expansion + ordering + attribute vector.
fn split_column<'c, R: Rng + ?Sized>(
    column: &'c Column,
    kind: EdKind,
    bs_max: usize,
    rng: &mut R,
) -> Result<PlainSplit<'c>, EncdictError> {
    // Group occurrence row-indices by value, preserving a deterministic
    // (first-occurrence) grouping order.
    let mut order: Vec<&[u8]> = Vec::new();
    let mut groups: std::collections::HashMap<&[u8], Vec<u32>> = std::collections::HashMap::new();
    for (j, v) in column.iter().enumerate() {
        let e = groups.entry(v).or_default();
        if e.is_empty() {
            order.push(v);
        }
        e.push(j as u32);
    }

    // Step 1: repetition expansion. `entries[k]` is a plaintext dictionary
    // entry; `assignment[j]` maps row j to its entry index.
    let mut entries: Vec<&[u8]> = Vec::new();
    let mut assignment: Vec<u32> = vec![0; column.len()];
    let mut slots: Vec<u32> = Vec::new();
    for v in &order {
        let occ = &groups[v];
        let sizes: Vec<usize> = match kind.repetition() {
            RepetitionOption::Revealing => vec![occ.len()],
            RepetitionOption::Smoothing => crate::bucket::rnd_bucket_sizes(rng, occ.len(), bs_max)?,
            RepetitionOption::Hiding => vec![1; occ.len()],
        };
        slots.clear();
        for size in &sizes {
            let entry_idx = entries.len() as u32;
            entries.push(v);
            slots.extend(std::iter::repeat_n(entry_idx, *size));
        }
        // Random assignment of occurrences to bucket slots ("for each
        // Ci ∈ oc(C, v), it randomly inserts one of the #bs possible
        // ValueIDs"; each ValueID used exactly as often as its bucket size).
        slots.shuffle(rng);
        for (row, entry_idx) in occ.iter().zip(slots.iter()) {
            assignment[*row as usize] = *entry_idx;
        }
    }

    // Step 2: ordering. `position[k]` = final dictionary position of entry k.
    let n = entries.len();
    let mut position: Vec<u32> = (0..n as u32).collect();
    let mut rnd_offset = None;
    match kind.order() {
        OrderOption::Sorted | OrderOption::Rotated => {
            // Sort entry indices by value; the order of repetitions (equal
            // values) is randomized as EncDB 4 prescribes.
            let mut idx: Vec<(u32, u64)> = (0..n as u32).map(|k| (k, rng.gen())).collect();
            idx.sort_by(|a, b| {
                entries[a.0 as usize]
                    .cmp(entries[b.0 as usize])
                    .then(a.1.cmp(&b.1))
            });
            let offset = if kind.order() == OrderOption::Rotated {
                let off = if n == 0 {
                    0
                } else {
                    rng.gen_range(0..n as u64)
                };
                rnd_offset = Some(off);
                off
            } else {
                0
            };
            for (sorted_pos, (k, _)) in idx.iter().enumerate() {
                position[*k as usize] = ((sorted_pos as u64 + offset) % n.max(1) as u64) as u32;
            }
        }
        OrderOption::Unsorted => {
            position.shuffle(rng);
        }
    }

    // Step 3: final entries + attribute vector.
    let mut final_entries: Vec<&[u8]> = vec![&[]; n];
    for (k, pos) in position.iter().enumerate() {
        final_entries[*pos as usize] = entries[k];
    }
    let av: AttributeVector = assignment
        .iter()
        .map(|k| ValueId(position[*k as usize]))
        .collect();

    Ok(PlainSplit {
        entries: final_entries,
        av,
        rnd_offset,
    })
}

/// `EncDB` — splits and encrypts `column` as kind `kind` under the column
/// key `sk_d` (derived by the data owner from `SK_DB` + metadata).
///
/// Returns the encrypted dictionary and the plaintext attribute vector —
/// the attribute vector stores only ValueIDs, which the paper keeps
/// unencrypted in the untrusted realm.
///
/// # Errors
///
/// Returns [`EncdictError::ValueTooLong`] if a value exceeds the column
/// maximum, or [`EncdictError::InvalidBucketSize`] for `bs_max == 0` with a
/// smoothing kind.
pub fn build_encrypted<R: Rng + ?Sized>(
    column: &Column,
    kind: EdKind,
    params: &BuildParams,
    sk_d: &Key128,
    rng: &mut R,
) -> Result<(Dictionary, AttributeVector), EncdictError> {
    let split = split_column(column, kind, params.bs_max, rng)?;
    let pae = Pae::new(sk_d);
    // §5: tail ciphertexts in random order, head offsets in dictionary order.
    let mut tail_order: Vec<u32> = (0..split.entries.len() as u32).collect();
    tail_order.shuffle(rng);
    // Sealed in tail order, `LANES` per batch: the IVs are drawn in the
    // order one `encrypt_with_rng` per entry would draw them.
    let sealed = tail_order.chunks(LANES).flat_map(|batch| {
        let mut plaintexts: [&[u8]; LANES] = Default::default();
        for (pt, &pos) in plaintexts.iter_mut().zip(batch) {
            *pt = split.entries[pos as usize];
        }
        pae.encrypt_many_with_rng(rng, &plaintexts[..batch.len()], DICT_VALUE_AAD)
    });
    let segment = Segment::scattered(&tail_order, sealed.map(Ciphertext::into_bytes));
    let rnd_offset = split.rnd_offset.map(|off| {
        pae.encrypt_with_rng(rng, &off.to_le_bytes(), ROT_OFFSET_AAD)
            .into_bytes()
    });
    let dict = Dictionary::new(
        kind,
        params.table_name.clone(),
        params.col_name.clone(),
        column.max_len(),
        segment,
        rnd_offset,
    );
    Ok((dict, split.av))
}

/// Builds the PlainDBDB twin: same split, same layout, plaintext values
/// and a plaintext rotation offset (eight little-endian bytes).
///
/// # Errors
///
/// As [`build_encrypted`].
pub fn build_plain<R: Rng + ?Sized>(
    column: &Column,
    kind: EdKind,
    params: &BuildParams,
    rng: &mut R,
) -> Result<(Dictionary, AttributeVector), EncdictError> {
    let split = split_column(column, kind, params.bs_max, rng)?;
    let mut tail_order: Vec<u32> = (0..split.entries.len() as u32).collect();
    tail_order.shuffle(rng);
    let segment = Segment::scattered(
        &tail_order,
        tail_order.iter().map(|&pos| split.entries[pos as usize]),
    );
    let dict = Dictionary::new(
        kind,
        params.table_name.clone(),
        params.col_name.clone(),
        column.max_len(),
        segment,
        split.rnd_offset.map(|off| off.to_le_bytes().to_vec()),
    );
    Ok((dict, split.av))
}

/// Verifies split correctness (Definition 1) of a *plaintext* twin against
/// its source column: `∀j: D[AV[j]] = C[j]`.
pub fn verify_plain_split(column: &Column, dict: &Dictionary, av: &AttributeVector) -> bool {
    if av.len() != column.len() {
        return false;
    }
    (0..column.len()).all(|j| {
        let vid = av.get(j) as usize;
        vid < dict.len() && dict.value(vid) == column.value(j)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig3_column() -> Column {
        // Paper Figure 3 (a).
        Column::from_strs(
            "FName",
            12,
            ["Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"],
        )
        .unwrap()
    }

    fn params() -> BuildParams {
        BuildParams {
            table_name: "t1".into(),
            col_name: "FName".into(),
            bs_max: 3,
        }
    }

    #[test]
    fn plain_split_correct_for_all_kinds() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(1);
        for kind in EdKind::ALL {
            let (dict, av) = build_plain(&col, kind, &params(), &mut rng).unwrap();
            assert!(
                verify_plain_split(&col, &dict, &av),
                "split correctness violated for {kind}"
            );
        }
    }

    #[test]
    fn dictionary_sizes_match_table3() {
        let col = fig3_column(); // 6 rows, 4 uniques
        let mut rng = StdRng::seed_from_u64(2);
        // Revealing: |D| = |un(C)| = 4.
        let (d1, _) = build_plain(&col, EdKind::Ed1, &params(), &mut rng).unwrap();
        assert_eq!(d1.len(), 4);
        // Hiding: |D| = |AV| = 6.
        let (d7, av7) = build_plain(&col, EdKind::Ed7, &params(), &mut rng).unwrap();
        assert_eq!(d7.len(), 6);
        assert_eq!(av7.len(), 6);
        // Smoothing: between the two.
        let (d4, _) = build_plain(&col, EdKind::Ed4, &params(), &mut rng).unwrap();
        assert!(d4.len() >= 4 && d4.len() <= 6, "got {}", d4.len());
    }

    #[test]
    fn sorted_kinds_produce_sorted_dictionaries() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(3);
        for kind in [EdKind::Ed1, EdKind::Ed4, EdKind::Ed7] {
            let (dict, _) = build_plain(&col, kind, &params(), &mut rng).unwrap();
            for i in 1..dict.len() {
                assert!(
                    dict.value(i - 1) <= dict.value(i),
                    "{kind} not sorted at {i}"
                );
            }
        }
    }

    #[test]
    fn ed1_matches_figure_3b() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(4);
        let (dict, av) = build_plain(&col, EdKind::Ed1, &params(), &mut rng).unwrap();
        // Figure 3 (b): sorted dictionary Archie, Ella, Hans, Jessica.
        assert_eq!(dict.value(0), b"Archie");
        assert_eq!(dict.value(1), b"Ella");
        assert_eq!(dict.value(2), b"Hans");
        assert_eq!(dict.value(3), b"Jessica");
        assert_eq!(av.iter().collect::<Vec<_>>(), [2, 3, 0, 1, 3, 3]);
    }

    #[test]
    fn rotated_kinds_are_rotations_of_sorted_order() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(5);
        let (dict, _) = build_plain(&col, EdKind::Ed2, &params(), &mut rng).unwrap();
        let off = dict.rnd_offset().expect("rotated kind has an offset");
        let off = u64::from_le_bytes(off.try_into().unwrap()) as usize;
        let n = dict.len();
        // Undo the rotation: sorted[j] = D[(j + off) % n].
        let unrotated: Vec<&[u8]> = (0..n).map(|j| dict.value((j + off) % n)).collect();
        for w in unrotated.windows(2) {
            assert!(w[0] <= w[1], "unrotated dictionary must be sorted");
        }
    }

    #[test]
    fn rotation_offset_varies_with_rng() {
        let col = fig3_column();
        let offsets: std::collections::HashSet<u64> = (0..32)
            .map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let (dict, _) = build_plain(&col, EdKind::Ed2, &params(), &mut rng).unwrap();
                u64::from_le_bytes(dict.rnd_offset().unwrap().try_into().unwrap())
            })
            .collect();
        assert!(offsets.len() > 1, "offset must be random");
    }

    #[test]
    fn smoothing_bounds_value_id_frequency() {
        // 1 value occurring 50 times, bs_max = 5: every ValueID must appear
        // at most 5 times in the attribute vector.
        let col = Column::from_strs("c", 4, std::iter::repeat_n("x", 50)).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let p = BuildParams {
            bs_max: 5,
            ..params()
        };
        let (_, av) = build_plain(&col, EdKind::Ed4, &p, &mut rng).unwrap();
        let mut counts = std::collections::HashMap::new();
        for id in av.iter() {
            *counts.entry(id).or_insert(0usize) += 1;
        }
        assert!(counts.values().all(|&c| c <= 5), "counts: {counts:?}");
        assert_eq!(counts.values().sum::<usize>(), 50);
    }

    #[test]
    fn hiding_uses_every_value_id_exactly_once() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(7);
        for kind in [EdKind::Ed7, EdKind::Ed8, EdKind::Ed9] {
            let (dict, av) = build_plain(&col, kind, &params(), &mut rng).unwrap();
            assert_eq!(dict.len(), av.len());
            let mut seen = vec![false; dict.len()];
            for id in av.iter() {
                assert!(!seen[id as usize], "ValueID {id} reused in {kind}");
                seen[id as usize] = true;
            }
        }
    }

    #[test]
    fn encrypted_build_roundtrips_values() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(8);
        let key = Key128::from_bytes([7; 16]);
        let pae = Pae::new(&key);
        for kind in EdKind::ALL {
            let (dict, av) = build_encrypted(&col, kind, &params(), &key, &mut rng).unwrap();
            assert_eq!(av.len(), col.len());
            // Decrypt every entry via the untrusted accessor and re-verify
            // split correctness on plaintexts.
            for j in 0..col.len() {
                let vid = av.get(j) as usize;
                let ct = dict.value(vid);
                let pt = pae.decrypt_bytes(ct, DICT_VALUE_AAD).unwrap();
                assert_eq!(pt, col.value(j), "row {j} kind {kind}");
            }
        }
    }

    #[test]
    fn encrypted_values_are_probabilistic() {
        // EncDB 4: equal plaintexts only produce equal ciphertexts with
        // negligible probability.
        let col = Column::from_strs("c", 4, ["x", "x", "x"]).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let key = Key128::from_bytes([7; 16]);
        let (dict, _) = build_encrypted(&col, EdKind::Ed7, &params(), &key, &mut rng).unwrap();
        assert_ne!(dict.value(0), dict.value(1));
        assert_ne!(dict.value(1), dict.value(2));
    }

    #[test]
    fn rotated_encrypted_dict_carries_offset() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(10);
        let key = Key128::from_bytes([7; 16]);
        for kind in [EdKind::Ed2, EdKind::Ed5, EdKind::Ed8] {
            let (dict, _) = build_encrypted(&col, kind, &params(), &key, &mut rng).unwrap();
            let enc = dict.rnd_offset().expect("rotated kinds carry offset");
            let off_bytes = Pae::new(&key).decrypt_bytes(enc, ROT_OFFSET_AAD).unwrap();
            let off = u64::from_le_bytes(off_bytes.try_into().unwrap());
            assert!((off as usize) < dict.len());
        }
        for kind in [EdKind::Ed1, EdKind::Ed3, EdKind::Ed9] {
            let (dict, _) = build_encrypted(&col, kind, &params(), &key, &mut rng).unwrap();
            assert!(dict.rnd_offset().is_none());
        }
    }

    #[test]
    fn empty_column_builds_empty_dictionary() {
        let col = Column::new("c", 8);
        let mut rng = StdRng::seed_from_u64(11);
        let key = Key128::from_bytes([7; 16]);
        for kind in EdKind::ALL {
            let (dict, av) = build_encrypted(&col, kind, &params(), &key, &mut rng).unwrap();
            assert!(dict.is_empty());
            assert!(av.is_empty());
        }
    }

    /// An ED1 build stores its AV at the narrowest width that addresses
    /// `|D|` entries: one byte up to 256, two up to 65 536, then four —
    /// exactly the width `packed_size` already counted.
    #[test]
    fn ed1_av_width_follows_dictionary_size() {
        let mut rng = StdRng::seed_from_u64(13);
        let key = Key128::from_bytes([7; 16]);
        for (distinct, width) in [(256usize, 1), (257, 2), (65_536, 2), (65_537, 4)] {
            let values = (0..distinct).rev().map(|i| format!("{i:06}"));
            let col = Column::from_strs("c", 8, values).unwrap();
            let (dict, av) = build_encrypted(&col, EdKind::Ed1, &params(), &key, &mut rng).unwrap();
            assert_eq!((dict.len(), av.id_width()), (distinct, width));
            assert_eq!(av.packed_size(dict.len()), distinct * width);
            assert_eq!((av.get(0), av.get(distinct - 1)), (distinct as u32 - 1, 0));
        }
    }

    #[test]
    fn zero_bs_max_rejected_for_smoothing_only() {
        let col = fig3_column();
        let mut rng = StdRng::seed_from_u64(12);
        let p = BuildParams {
            bs_max: 0,
            ..params()
        };
        assert!(build_plain(&col, EdKind::Ed4, &p, &mut rng).is_err());
        // Non-smoothing kinds ignore bs_max.
        assert!(build_plain(&col, EdKind::Ed1, &p, &mut rng).is_ok());
    }
}
