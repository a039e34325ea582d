//! Binary persistence for encrypted dictionaries and attribute vectors.
//!
//! The paper's in-memory DBMS keeps the primary copy in RAM and writes all
//! data to disk for durability (Fig. 5 step 4). Encrypted dictionaries are
//! ciphertext already, so they can rest on untrusted disk verbatim; this
//! module lays them out with `colstore::codec` (`u64` length prefixes).

use crate::dict::{Dictionary, Segment};
use crate::error::EncdictError;
use crate::kind::EdKind;
use colstore::codec::{CodecError, Reader, Writer};
use colstore::dictionary::{AttributeVector, ValueId};

const MAGIC: &[u8; 8] = b"ENCDBED1";
const PLAIN_MAGIC: &[u8; 8] = b"ENCDBPD1";

impl From<CodecError> for EncdictError {
    fn from(e: CodecError) -> Self {
        EncdictError::CorruptDictionary(e.what())
    }
}

fn put_av(out: &mut Vec<u8>, av: &AttributeVector) {
    out.put_u64(av.len() as u64);
    for id in av.iter() {
        out.put_u32(id);
    }
}

/// Serializes an encrypted dictionary plus its attribute vector.
pub fn to_bytes(dict: &Dictionary, av: &AttributeVector) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(MAGIC);
    out.put_u8(dict.kind().number());
    out.put_bytes64(dict.table_name().as_bytes());
    out.put_bytes64(dict.col_name().as_bytes());
    out.put_u64(dict.max_len() as u64);
    out.put_u64(dict.len() as u64);
    // Head and tail are reconstructed from the per-entry ciphertexts so
    // the format is independent of the in-memory layout details.
    for i in 0..dict.len() {
        out.put_bytes64(dict.value(i));
    }
    match dict.rnd_offset() {
        Some(enc) => {
            out.put_u8(1);
            out.put_bytes64(enc);
        }
        None => out.put_u8(0),
    }
    put_av(&mut out, av);
    out
}

fn magic(r: &mut Reader<'_>, want: &[u8; 8]) -> Result<(), EncdictError> {
    if r.take(8)? != want {
        return Err(EncdictError::CorruptDictionary("bad magic"));
    }
    Ok(())
}

fn ed_kind(r: &mut Reader<'_>) -> Result<EdKind, EncdictError> {
    EdKind::from_number(r.u8()?).ok_or(EncdictError::CorruptDictionary("unknown kind"))
}

fn name(r: &mut Reader<'_>, what: &'static str) -> Result<String, EncdictError> {
    String::from_utf8(r.bytes64(usize::MAX)?.to_vec())
        .map_err(|_| EncdictError::CorruptDictionary(what))
}

/// The entry count and that many length-prefixed entries, none longer
/// than `max_entry`, as a segment in entry order. An entry costs at least
/// its eight-byte prefix, which is what bounds the reservation.
fn entries(r: &mut Reader<'_>, max_entry: usize) -> Result<Segment, EncdictError> {
    let len = r.count64(8)?;
    let mut segment = Segment::with_capacity(len);
    for _ in 0..len {
        segment.push(r.bytes64(max_entry)?);
    }
    Ok(segment)
}

/// The attribute vector that ends every blob, every ValueID below
/// `dict_len` — a larger one would name no entry, or another store's.
fn av_to_end(mut r: Reader<'_>, dict_len: usize) -> Result<AttributeVector, EncdictError> {
    let av_len = r.count64(4)?;
    let mut av = AttributeVector::with_capacity(av_len);
    for _ in 0..av_len {
        let vid = r.u32()?;
        if vid as usize >= dict_len {
            return Err(EncdictError::CorruptDictionary(
                "ValueID beyond the dictionary",
            ));
        }
        av.push(ValueId(vid));
    }
    r.finish()?;
    Ok(av)
}

/// Deserializes an encrypted dictionary plus attribute vector.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] on any structural problem.
/// Ciphertext *authenticity* is not checked here — the enclave rejects
/// tampered entries at decryption time, which is the paper's trust model
/// (integrity is end-to-end via AES-GCM, not via the storage layer).
pub fn from_bytes(bytes: &[u8]) -> Result<(Dictionary, AttributeVector), EncdictError> {
    let mut r = Reader::new(bytes);
    magic(&mut r, MAGIC)?;
    let kind = ed_kind(&mut r)?;
    let table_name = name(&mut r, "table name not utf-8")?;
    let col_name = name(&mut r, "column name not utf-8")?;
    let max_len = r.u64()? as usize;
    // Ciphertexts are longer than `max_len`; the enclave checks them.
    let segment = entries(&mut r, usize::MAX)?;
    let rnd_offset = match r.u8()? {
        0 => None,
        1 => Some(r.bytes64(usize::MAX)?.to_vec()),
        _ => return Err(EncdictError::CorruptDictionary("bad offset flag")),
    };
    let av = av_to_end(r, segment.len())?;
    let dict = Dictionary::new(kind, table_name, col_name, max_len, segment, rnd_offset);
    Ok((dict, av))
}

/// Serializes a PLAIN column's dictionary plus its attribute vector.
///
/// PLAIN columns have no ciphertext to rest on disk verbatim, so the
/// durable layer serializes the dictionary's values and rotation offset in
/// the clear and relies on the caller (the server's sealed-snapshot layer)
/// to wrap the whole blob in enclave sealing before it touches disk. The
/// table and column names are not part of this format.
///
/// # Panics
///
/// Panics if a rotation offset is not the eight bytes [`build_plain`]
/// stores.
///
/// [`build_plain`]: crate::build::build_plain
pub fn plain_to_bytes(dict: &Dictionary, av: &AttributeVector) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(PLAIN_MAGIC);
    out.put_u8(dict.kind().number());
    out.put_u64(dict.max_len() as u64);
    out.put_u64(dict.len() as u64);
    for i in 0..dict.len() {
        out.put_bytes64(dict.value(i));
    }
    match dict.rnd_offset() {
        Some(off) => {
            out.put_u8(1);
            out.put_u64(u64::from_le_bytes(
                off.try_into().expect("an 8-byte offset"),
            ));
        }
        None => out.put_u8(0),
    }
    put_av(&mut out, av);
    out
}

/// Deserializes a PLAIN column's dictionary plus attribute vector; the
/// dictionary's table and column names are empty.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] on any structural problem.
pub fn plain_from_bytes(bytes: &[u8]) -> Result<(Dictionary, AttributeVector), EncdictError> {
    let mut r = Reader::new(bytes);
    magic(&mut r, PLAIN_MAGIC)?;
    let kind = ed_kind(&mut r)?;
    let max_len = r.u64()? as usize;
    let segment = entries(&mut r, max_len)?;
    let rnd_offset = match r.u8()? {
        0 => None,
        1 => Some(r.take(8)?.to_vec()),
        _ => return Err(EncdictError::CorruptDictionary("bad offset flag")),
    };
    let av = av_to_end(r, segment.len())?;
    let dict = Dictionary::new(
        kind,
        String::new(),
        String::new(),
        max_len,
        segment,
        rnd_offset,
    );
    Ok((dict, av))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_encrypted, BuildParams};
    use colstore::column::Column;
    use encdbdb_crypto::Key128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(kind: EdKind) -> (Dictionary, AttributeVector) {
        let col = Column::from_strs("c", 8, ["x", "y", "x", "z"]).unwrap();
        let mut rng = StdRng::seed_from_u64(kind.number() as u64);
        build_encrypted(
            &col,
            kind,
            &BuildParams::default(),
            &Key128::from_bytes([3; 16]),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in EdKind::ALL {
            let (dict, av) = sample(kind);
            let blob = to_bytes(&dict, &av);
            let (dict2, av2) = from_bytes(&blob).unwrap();
            assert_eq!(dict2.kind(), kind);
            assert_eq!(dict2.len(), dict.len());
            assert_eq!(dict2.max_len(), dict.max_len());
            assert_eq!(dict2.rnd_offset(), dict.rnd_offset());
            assert_eq!(av2, av);
            for i in 0..dict.len() {
                assert_eq!(dict2.value(i), dict.value(i), "{kind} entry {i}");
            }
        }
    }

    /// On disk the AV stays one little-endian `u32` per row whatever the
    /// in-memory width, and loading narrows it again: `u8` and `u16` AVs
    /// round-trip to the same bytes and the same width.
    #[test]
    fn narrow_avs_roundtrip_to_the_same_bytes() {
        use crate::build::build_plain;
        for (distinct, width) in [(200usize, 1), (300, 2)] {
            let values = (0..2 * distinct).map(|i| format!("{:04}", i % distinct));
            let col = Column::from_strs("c", 8, values).unwrap();
            let mut rng = StdRng::seed_from_u64(distinct as u64);
            let key = Key128::from_bytes([3; 16]);
            let (dict, av) =
                build_encrypted(&col, EdKind::Ed1, &BuildParams::default(), &key, &mut rng)
                    .unwrap();
            assert_eq!(av.id_width(), width);
            let blob = to_bytes(&dict, &av);
            let on_disk = &blob[blob.len() - 4 * av.len()..];
            let ids = on_disk
                .chunks(4)
                .map(|b| u32::from_le_bytes(b.try_into().unwrap()));
            assert!(ids.eq(av.iter()));
            let (dict2, av2) = from_bytes(&blob).unwrap();
            assert_eq!((av2.id_width(), &av2), (width, &av));
            assert_eq!(to_bytes(&dict2, &av2), blob);

            let (dict, av) =
                build_plain(&col, EdKind::Ed1, &BuildParams::default(), &mut rng).unwrap();
            let blob = plain_to_bytes(&dict, &av);
            let (dict2, av2) = plain_from_bytes(&blob).unwrap();
            assert_eq!((av2.id_width(), &av2), (width, &av));
            assert_eq!(plain_to_bytes(&dict2, &av2), blob);
        }
    }

    #[test]
    fn file_roundtrip_and_requery() {
        use crate::enclave_ops::DictEnclave;
        use crate::range::{EncryptedRange, RangeQuery};
        use encdbdb_crypto::hkdf::derive_column_key;

        let skdb = Key128::from_bytes([8; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let col = Column::from_strs("c", 8, ["m", "a", "q", "a"]).unwrap();
        let mut rng = StdRng::seed_from_u64(50);
        let params = BuildParams {
            table_name: "t".into(),
            col_name: "c".into(),
            bs_max: 3,
        };
        let (dict, av) = build_encrypted(&col, EdKind::Ed2, &params, &sk_d, &mut rng).unwrap();

        let dir = std::env::temp_dir().join(format!("encdict-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.bin");
        std::fs::write(&path, to_bytes(&dict, &av)).unwrap();
        let (dict2, av2) = from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        // The reloaded dictionary is searchable with the same key.
        let mut enclave = DictEnclave::with_seed(51);
        enclave.provision_direct(skdb);
        let tau = EncryptedRange::encrypt(
            &encdbdb_crypto::Pae::new(&sk_d),
            &mut rng,
            &RangeQuery::equals("a"),
        );
        let result = enclave.search(&dict2, &tau).unwrap();
        let rids = crate::avsearch::scan(&av2, &[result]);
        assert_eq!(rids.iter().map(|r| r.0).collect::<Vec<_>>(), vec![1, 3]);
    }

    #[test]
    fn plain_roundtrip_all_kinds() {
        use crate::build::build_plain;
        let col = Column::from_strs("c", 8, ["x", "y", "x", "z", ""]).unwrap();
        for kind in EdKind::ALL {
            let mut rng = StdRng::seed_from_u64(kind.number() as u64 + 40);
            let (dict, av) = build_plain(&col, kind, &BuildParams::default(), &mut rng).unwrap();
            let blob = plain_to_bytes(&dict, &av);
            let (dict2, av2) = plain_from_bytes(&blob).unwrap();
            assert_eq!(dict2.kind(), kind);
            assert_eq!(dict2.max_len(), dict.max_len());
            assert_eq!(dict2.len(), dict.len());
            assert_eq!(dict2.rnd_offset(), dict.rnd_offset());
            assert_eq!(av2, av);
            for i in 0..dict.len() {
                assert_eq!(dict2.value(i), dict.value(i), "{kind} entry {i}");
            }
        }
    }

    /// Rewrites the last stored ValueID of `blob` (the final `u32`).
    fn with_last_vid(blob: &[u8], vid: u32) -> Vec<u8> {
        let mut out = blob.to_vec();
        let at = out.len() - 4;
        out[at..].copy_from_slice(&vid.to_le_bytes());
        out
    }

    /// A ValueID at or past |D| names no entry: rendering its row would
    /// panic, and an aggregate would read it as a delta row. The decoder
    /// refuses it; the largest valid id still loads.
    #[test]
    fn encrypted_blob_with_a_valueid_beyond_the_dictionary_is_corrupt() {
        let (dict, av) = sample(EdKind::Ed1);
        let blob = to_bytes(&dict, &av);
        let len = dict.len() as u32;
        assert!(from_bytes(&with_last_vid(&blob, len - 1)).is_ok());
        for vid in [len, u32::MAX] {
            assert!(matches!(
                from_bytes(&with_last_vid(&blob, vid)),
                Err(EncdictError::CorruptDictionary(_))
            ));
        }
    }

    #[test]
    fn plain_blob_with_a_valueid_beyond_the_dictionary_is_corrupt() {
        use crate::build::build_plain;
        let col = Column::from_strs("c", 8, ["x", "y", "x", "z"]).unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        let (dict, av) = build_plain(&col, EdKind::Ed1, &BuildParams::default(), &mut rng).unwrap();
        let blob = plain_to_bytes(&dict, &av);
        let len = dict.len() as u32;
        assert!(plain_from_bytes(&with_last_vid(&blob, len - 1)).is_ok());
        for vid in [len, u32::MAX] {
            assert!(matches!(
                plain_from_bytes(&with_last_vid(&blob, vid)),
                Err(EncdictError::CorruptDictionary(_))
            ));
        }
    }

    #[test]
    fn corrupt_plain_blobs_rejected() {
        use crate::build::build_plain;
        let col = Column::from_strs("c", 8, ["a", "b"]).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let (dict, av) = build_plain(&col, EdKind::Ed4, &BuildParams::default(), &mut rng).unwrap();
        let blob = plain_to_bytes(&dict, &av);
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(plain_from_bytes(&bad).is_err());
        for cut in [4usize, 9, 20, blob.len() - 1] {
            assert!(
                plain_from_bytes(&blob[..cut.min(blob.len())]).is_err(),
                "cut {cut}"
            );
        }
        let mut long = blob.clone();
        long.push(0);
        assert!(plain_from_bytes(&long).is_err());
        let mut bad_kind = blob;
        bad_kind[8] = 0;
        assert!(plain_from_bytes(&bad_kind).is_err());
    }

    /// Every truncation fails and a seeded single-byte flip at every offset
    /// either still decodes or fails — always as `CorruptDictionary`, never
    /// as a panic or an allocation sized by a flipped count.
    #[test]
    fn mutated_blobs_end_in_corrupt_dictionary() {
        use crate::build::build_plain;
        use rand::Rng;
        fn mutate<T>(blob: &[u8], decode: impl Fn(&[u8]) -> Result<T, EncdictError>) {
            let mut rng = StdRng::seed_from_u64(blob.len() as u64);
            assert!(decode(blob).is_ok());
            for at in 0..blob.len() {
                let mut flipped = blob.to_vec();
                flipped[at] ^= rng.gen_range(1..=255u8);
                for bad in [&blob[..at], &flipped[..]] {
                    if let Err(e) = decode(bad) {
                        assert!(matches!(e, EncdictError::CorruptDictionary(_)), "{at}: {e}");
                    } else {
                        assert_eq!(bad.len(), blob.len(), "cut at {at} decoded");
                    }
                }
            }
        }
        let col = Column::from_strs("c", 8, ["x", "y", "x", "z", ""]).unwrap();
        for kind in [EdKind::Ed1, EdKind::Ed5, EdKind::Ed9] {
            let (dict, av) = sample(kind);
            mutate(&to_bytes(&dict, &av), from_bytes);
            let mut rng = StdRng::seed_from_u64(kind.number() as u64);
            let (dict, av) = build_plain(&col, kind, &BuildParams::default(), &mut rng).unwrap();
            mutate(&plain_to_bytes(&dict, &av), plain_from_bytes);
        }
    }

    #[test]
    fn corrupt_blobs_rejected() {
        let (dict, av) = sample(EdKind::Ed5);
        let blob = to_bytes(&dict, &av);
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert!(from_bytes(&bad).is_err());
        // Truncations at every prefix boundary.
        for cut in [4usize, 9, 20, blob.len() - 1] {
            assert!(
                from_bytes(&blob[..cut.min(blob.len())]).is_err(),
                "cut {cut}"
            );
        }
        // Trailing garbage.
        let mut long = blob.clone();
        long.push(0);
        assert!(from_bytes(&long).is_err());
        // Unknown kind byte.
        let mut bad_kind = blob;
        bad_kind[8] = 99;
        assert!(from_bytes(&bad_kind).is_err());
    }
}
