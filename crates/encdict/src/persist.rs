//! Binary persistence for encrypted dictionaries and attribute vectors.
//!
//! The paper's in-memory DBMS keeps the primary copy in RAM and writes all
//! data to disk for durability (Fig. 5 step 4). Encrypted dictionaries are
//! ciphertext already, so they can rest on untrusted disk verbatim; this
//! module provides a length-prefixed binary format mirroring
//! `colstore::persist`.

use crate::dict::{EncryptedDictionary, PlainDictionary, Segment};
use crate::error::EncdictError;
use crate::kind::EdKind;
use colstore::dictionary::{AttributeVector, ValueId};
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"ENCDBED1";
const PLAIN_MAGIC: &[u8; 8] = b"ENCDBPD1";

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn put_av(out: &mut Vec<u8>, av: &AttributeVector) {
    out.extend_from_slice(&(av.len() as u64).to_le_bytes());
    for &id in av.as_slice() {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

/// Serializes an encrypted dictionary plus its attribute vector.
pub fn to_bytes(dict: &EncryptedDictionary, av: &AttributeVector) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(dict.kind().number());
    put_bytes(&mut out, dict.table_name().as_bytes());
    put_bytes(&mut out, dict.col_name().as_bytes());
    out.extend_from_slice(&(dict.max_len() as u64).to_le_bytes());
    out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    // Head and tail are reconstructed from the per-entry ciphertexts so
    // the format is independent of the in-memory layout details.
    for i in 0..dict.len() {
        put_bytes(&mut out, dict.ciphertext(i));
    }
    match dict.enc_rnd_offset() {
        Some(enc) => {
            out.push(1);
            put_bytes(&mut out, enc);
        }
        None => out.push(0),
    }
    put_av(&mut out, av);
    out
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], EncdictError> {
        if self.pos + n > self.bytes.len() {
            return Err(EncdictError::CorruptDictionary("truncated blob"));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, EncdictError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u8(&mut self) -> Result<u8, EncdictError> {
        Ok(self.take(1)?[0])
    }

    fn bytes_field(&mut self) -> Result<&'a [u8], EncdictError> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() {
            return Err(EncdictError::CorruptDictionary("field length overflow"));
        }
        self.take(len)
    }

    fn kind(&mut self) -> Result<EdKind, EncdictError> {
        EdKind::from_number(self.u8()?).ok_or(EncdictError::CorruptDictionary("unknown kind"))
    }

    /// The entry count and that many length-prefixed entries, none longer
    /// than `max_entry`, as a segment in entry order.
    fn segment(&mut self, max_entry: usize) -> Result<Segment, EncdictError> {
        let len = self.u64()? as usize;
        if len > self.bytes.len() {
            return Err(EncdictError::CorruptDictionary("entry count overflow"));
        }
        let mut segment = Segment::with_capacity(len);
        for _ in 0..len {
            let entry = self.bytes_field()?;
            if entry.len() > max_entry {
                return Err(EncdictError::CorruptDictionary("value exceeds max_len"));
            }
            segment.push(entry);
        }
        Ok(segment)
    }

    /// The attribute vector that ends every blob.
    fn av_to_end(&mut self) -> Result<AttributeVector, EncdictError> {
        let av_len = self.u64()? as usize;
        if av_len > self.bytes.len() {
            return Err(EncdictError::CorruptDictionary("av count overflow"));
        }
        let mut av = AttributeVector::with_capacity(av_len);
        for _ in 0..av_len {
            av.push(ValueId(u32::from_le_bytes(
                self.take(4)?.try_into().unwrap(),
            )));
        }
        if self.pos != self.bytes.len() {
            return Err(EncdictError::CorruptDictionary("trailing bytes"));
        }
        Ok(av)
    }
}

/// Deserializes an encrypted dictionary plus attribute vector.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] on any structural problem.
/// Ciphertext *authenticity* is not checked here — the enclave rejects
/// tampered entries at decryption time, which is the paper's trust model
/// (integrity is end-to-end via AES-GCM, not via the storage layer).
pub fn from_bytes(bytes: &[u8]) -> Result<(EncryptedDictionary, AttributeVector), EncdictError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(EncdictError::CorruptDictionary("bad magic"));
    }
    let kind = r.kind()?;
    let table_name = String::from_utf8(r.bytes_field()?.to_vec())
        .map_err(|_| EncdictError::CorruptDictionary("table name not utf-8"))?;
    let col_name = String::from_utf8(r.bytes_field()?.to_vec())
        .map_err(|_| EncdictError::CorruptDictionary("column name not utf-8"))?;
    let max_len = r.u64()? as usize;
    // Ciphertexts are longer than `max_len`; the enclave checks them.
    let segment = r.segment(usize::MAX)?;
    let enc_rnd_offset = match r.u8()? {
        0 => None,
        1 => Some(r.bytes_field()?.to_vec()),
        _ => return Err(EncdictError::CorruptDictionary("bad offset flag")),
    };
    let av = r.av_to_end()?;
    let dict =
        EncryptedDictionary::new(kind, table_name, col_name, max_len, segment, enc_rnd_offset);
    Ok((dict, av))
}

/// Serializes a plaintext dictionary plus its attribute vector.
///
/// PLAIN columns have no ciphertext to rest on disk verbatim, so the
/// durable layer serializes the dictionary's values and rotation offset in
/// the clear and relies on the caller (the server's sealed-snapshot layer)
/// to wrap the whole blob in enclave sealing before it touches disk.
pub fn plain_to_bytes(dict: &PlainDictionary, av: &AttributeVector) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(PLAIN_MAGIC);
    out.push(dict.kind().number());
    out.extend_from_slice(&(dict.max_len() as u64).to_le_bytes());
    out.extend_from_slice(&(dict.len() as u64).to_le_bytes());
    for i in 0..dict.len() {
        put_bytes(&mut out, dict.value(i));
    }
    match dict.rnd_offset() {
        Some(off) => {
            out.push(1);
            out.extend_from_slice(&off.to_le_bytes());
        }
        None => out.push(0),
    }
    put_av(&mut out, av);
    out
}

/// Deserializes a plaintext dictionary plus attribute vector.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] on any structural problem.
pub fn plain_from_bytes(bytes: &[u8]) -> Result<(PlainDictionary, AttributeVector), EncdictError> {
    let mut r = Reader { bytes, pos: 0 };
    if r.take(8)? != PLAIN_MAGIC {
        return Err(EncdictError::CorruptDictionary("bad magic"));
    }
    let kind = r.kind()?;
    let max_len = r.u64()? as usize;
    let segment = r.segment(max_len)?;
    let rnd_offset = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        _ => return Err(EncdictError::CorruptDictionary("bad offset flag")),
    };
    let av = r.av_to_end()?;
    Ok((PlainDictionary::new(kind, max_len, segment, rnd_offset), av))
}

/// Writes a dictionary + attribute vector to a file.
///
/// # Errors
///
/// Returns [`EncdictError::CorruptDictionary`] wrapping I/O failures is
/// not appropriate here, so I/O errors are surfaced via `std::io::Error`.
pub fn write_file(
    path: &Path,
    dict: &EncryptedDictionary,
    av: &AttributeVector,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(&to_bytes(dict, av))
}

/// Reads a dictionary + attribute vector from a file.
///
/// # Errors
///
/// I/O failures via `std::io::Error`; format failures are converted into
/// `InvalidData` errors carrying the [`EncdictError`].
pub fn read_file(path: &Path) -> std::io::Result<(EncryptedDictionary, AttributeVector)> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_encrypted, BuildParams};
    use colstore::column::Column;
    use encdbdb_crypto::Key128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample(kind: EdKind) -> (EncryptedDictionary, AttributeVector) {
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
            assert_eq!(dict2.enc_rnd_offset(), dict.enc_rnd_offset());
            assert_eq!(av2, av);
            for i in 0..dict.len() {
                assert_eq!(dict2.ciphertext(i), dict.ciphertext(i), "{kind} entry {i}");
            }
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

        let dir = std::env::temp_dir().join("encdict-persist");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("d.bin");
        write_file(&path, &dict, &av).unwrap();
        let (dict2, av2) = read_file(&path).unwrap();
        std::fs::remove_file(&path).ok();

        // The reloaded dictionary is searchable with the same key.
        let mut enclave = DictEnclave::with_seed(51);
        enclave.provision_direct(skdb);
        let tau = EncryptedRange::encrypt(
            &encdbdb_crypto::Pae::new(&sk_d),
            &mut rng,
            &RangeQuery::equals("a"),
        );
        let result = enclave.search(&dict2, &tau).unwrap();
        let rids = crate::avsearch::search(
            &av2,
            &result,
            dict2.len(),
            crate::avsearch::SetSearchStrategy::PaperLinear,
            crate::avsearch::Parallelism::Serial,
        );
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
