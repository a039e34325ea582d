//! AES-128-GCM: the paper's probabilistic authenticated encryption (PAE).
//!
//! §2.3: *"PAE Enc takes a secret key SK, a random initialization vector IV
//! and a plaintext value v as input and returns a ciphertext c. PAE Dec takes
//! SK and c as input and returns v iff v was encrypted with PAE Enc under the
//! initialization vector IV and the secret key SK. AES-128 in GCM mode can be
//! used as a PAE implementation."*
//!
//! The wire format produced by [`Pae::encrypt`] is `IV(12) ‖ body ‖ TAG(16)`,
//! i.e. 28 bytes of overhead per value — this is the constant that drives the
//! "encrypted file" rows of the paper's Table 6.

use crate::aes::Aes128;
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::keys::Key128;
use rand::RngCore;

/// IV length in bytes (96-bit nonces, the GCM fast path).
pub const IV_LEN: usize = 12;
/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Total ciphertext expansion over the plaintext length.
pub const OVERHEAD: usize = IV_LEN + TAG_LEN;
/// Entries one backend call of [`Pae::decrypt_many_into`] or
/// [`Pae::encrypt_many_with_rng`] takes: the hardware kernel keeps this
/// many independent AES chains in flight.
pub const LANES: usize = 8;

/// GHASH: universal hashing over GF(2^128) using a 4-bit table.
#[derive(Clone)]
struct GHash {
    /// Precomputed table `m[i] = (i as 4-bit poly) * H` for the high nibble
    /// method.
    table: [[u64; 2]; 16],
}

impl GHash {
    fn new(h: [u8; 16]) -> Self {
        // Represent elements as two u64 halves (big-endian bit order as per
        // the GCM spec: bit 0 is the most significant bit of byte 0).
        let h_hi = u64::from_be_bytes(h[..8].try_into().unwrap());
        let h_lo = u64::from_be_bytes(h[8..].try_into().unwrap());
        let mut table = [[0u64; 2]; 16];
        // table[1] = H; table[i] built by conditional xor of shifted H.
        // Build via: table[2^k * ...] using right-shift (multiplication by x).
        table[8] = [h_hi, h_lo]; // 0b1000 ≙ 1 * H (x^0 coefficient in the nibble's MSB)
        let mut v = [h_hi, h_lo];
        for i in [4usize, 2, 1] {
            v = Self::mul_x(v);
            table[i] = v;
        }
        for i in [2usize, 4, 8] {
            for j in 1..i {
                table[i + j] = [table[i][0] ^ table[j][0], table[i][1] ^ table[j][1]];
            }
        }
        GHash { table }
    }

    /// Multiplies a field element by x (one right shift in GCM bit order),
    /// reducing modulo x^128 + x^7 + x^2 + x + 1.
    #[inline]
    fn mul_x(v: [u64; 2]) -> [u64; 2] {
        let carry = v[1] & 1;
        let mut lo = (v[1] >> 1) | (v[0] << 63);
        let mut hi = v[0] >> 1;
        if carry != 0 {
            hi ^= 0xe100_0000_0000_0000;
        }
        // no-op to keep clippy happy about the pattern
        lo ^= 0;
        [hi, lo]
    }

    /// Multiplies `x` by the hash key H using the 4-bit table method.
    fn mul_h(&self, x: [u64; 2]) -> [u64; 2] {
        // Reduction table for shifting by 4 bits: R[i] = i * (reduction poly
        // folded), standard values from the Shoup 4-bit method.
        const R: [u64; 16] = [
            0x0000, 0x1c20, 0x3840, 0x2460, 0x7080, 0x6ca0, 0x48c0, 0x54e0, 0xe100, 0xfd20, 0xd940,
            0xc560, 0x9180, 0x8da0, 0xa9c0, 0xb5e0,
        ];
        let mut z = [0u64; 2];
        let bytes = [x[0].to_be_bytes(), x[1].to_be_bytes()];
        // Process nibbles from the last byte to the first.
        for half in [1usize, 0] {
            for byte_idx in (0..8).rev() {
                let byte = bytes[half][byte_idx];
                for nibble in [byte & 0x0f, byte >> 4] {
                    // z = z * x^4 (shift right by 4 with reduction) then add table[nibble]
                    let rem = (z[1] & 0x0f) as usize;
                    z[1] = (z[1] >> 4) | (z[0] << 60);
                    z[0] = (z[0] >> 4) ^ (R[rem] << 48);
                    let t = self.table[nibble as usize];
                    z[0] ^= t[0];
                    z[1] ^= t[1];
                }
            }
        }
        z
    }

    /// GHASH over `aad` and `ct` with standard GCM length block.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut y = [0u64; 2];
        let absorb = |data: &[u8], y: &mut [u64; 2]| {
            for chunk in data.chunks(16) {
                let mut block = [0u8; 16];
                block[..chunk.len()].copy_from_slice(chunk);
                y[0] ^= u64::from_be_bytes(block[..8].try_into().unwrap());
                y[1] ^= u64::from_be_bytes(block[8..].try_into().unwrap());
                *y = self.mul_h(*y);
            }
        };
        absorb(aad, &mut y);
        absorb(ct, &mut y);
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&((aad.len() as u64) * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&((ct.len() as u64) * 8).to_be_bytes());
        y[0] ^= u64::from_be_bytes(len_block[..8].try_into().unwrap());
        y[1] ^= u64::from_be_bytes(len_block[8..].try_into().unwrap());
        y = self.mul_h(y);
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&y[0].to_be_bytes());
        out[8..].copy_from_slice(&y[1].to_be_bytes());
        out
    }
}

/// A parsed PAE ciphertext: `IV ‖ body ‖ tag`.
///
/// The canonical serialized form is produced by [`Ciphertext::as_bytes`]
/// (it is stored contiguously). Values travel and rest in this format —
/// inside encrypted dictionaries, in queries, and in result columns.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ciphertext(Vec<u8>);

impl Ciphertext {
    /// Wraps raw bytes as a ciphertext.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Truncated`] if `bytes` cannot contain an IV and
    /// a tag.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, CryptoError> {
        if bytes.len() < OVERHEAD {
            return Err(CryptoError::Truncated {
                got: bytes.len(),
                need: OVERHEAD,
            });
        }
        Ok(Ciphertext(bytes))
    }

    /// The serialized `IV ‖ body ‖ tag` bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Consumes the ciphertext, returning the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Length of the underlying plaintext.
    pub fn plaintext_len(&self) -> usize {
        self.0.len() - OVERHEAD
    }

    /// Total serialized length.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the serialized form is empty (never true for valid values).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl std::fmt::Debug for Ciphertext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Ciphertext({} bytes)", self.0.len())
    }
}

/// The portable backend: byte-oriented AES and a 4-bit-table GHASH. Runs
/// everywhere; its S-box lookups are indexed by secret data, so it is not
/// constant-time.
#[derive(Clone)]
struct Portable {
    cipher: Aes128,
    ghash: GHash,
}

impl Portable {
    fn new(key: &Key128) -> Self {
        let cipher = Aes128::new(key);
        let h = cipher.encrypt_block_copy(&[0u8; 16]);
        Portable {
            ghash: GHash::new(h),
            cipher,
        }
    }

    fn ctr_xor(&self, iv: &[u8; IV_LEN], data: &mut [u8]) {
        let mut counter_block = [0u8; 16];
        counter_block[..IV_LEN].copy_from_slice(iv);
        let mut ctr: u32 = 2; // counter 1 is reserved for the tag mask
        for chunk in data.chunks_mut(16) {
            counter_block[12..].copy_from_slice(&ctr.to_be_bytes());
            let keystream = self.cipher.encrypt_block_copy(&counter_block);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    fn tag(&self, iv: &[u8; IV_LEN], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mut j0 = [0u8; 16];
        j0[..IV_LEN].copy_from_slice(iv);
        j0[15] = 1;
        let mask = self.cipher.encrypt_block_copy(&j0);
        let mut tag = self.ghash.ghash(aad, ct);
        for (t, m) in tag.iter_mut().zip(mask.iter()) {
            *t ^= m;
        }
        tag
    }
}

/// A serialized ciphertext, split after its IV.
#[derive(Clone, Copy)]
pub(crate) struct Sealed<'a> {
    pub(crate) iv: &'a [u8; IV_LEN],
    /// `body ‖ tag`. Every 16-byte block that starts in the body ends
    /// within these bytes, so the hardware kernels read whole blocks.
    pub(crate) body_tag: &'a [u8],
}

impl<'a> Sealed<'a> {
    /// A placeholder that fills the unused slots of a batch.
    const EMPTY: Sealed<'static> = Sealed {
        iv: &[0; IV_LEN],
        body_tag: &[0; TAG_LEN],
    };

    fn split(bytes: &'a [u8]) -> Result<Self, CryptoError> {
        match bytes.split_first_chunk::<IV_LEN>() {
            Some((iv, body_tag)) if body_tag.len() >= TAG_LEN => Ok(Sealed { iv, body_tag }),
            _ => Err(CryptoError::Truncated {
                got: bytes.len(),
                need: OVERHEAD,
            }),
        }
    }

    /// Splits each of `cts` (at most [`LANES`]) into `slots`, returning
    /// the filled prefix.
    fn split_batch<'s>(
        cts: &[&'a [u8]],
        slots: &'s mut [Sealed<'a>; LANES],
    ) -> Result<&'s [Sealed<'a>], CryptoError> {
        for (slot, ct) in slots.iter_mut().zip(cts) {
            *slot = Sealed::split(ct)?;
        }
        Ok(&slots[..cts.len()])
    }

    pub(crate) fn body(&self) -> &'a [u8] {
        &self.body_tag[..self.body_tag.len() - TAG_LEN]
    }

    fn tag(&self) -> &'a [u8] {
        &self.body_tag[self.body_tag.len() - TAG_LEN..]
    }
}

/// The one GCM implementation a [`Pae`] holds, chosen once per key.
#[derive(Clone)]
enum Backend {
    Portable(Portable),
    #[cfg(target_arch = "x86_64")]
    Hardware(crate::gcm_x86::HwGcm),
}

impl Backend {
    /// The hardware backend where the CPU offers it, else the portable one.
    fn detect(key: &Key128) -> Self {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = crate::gcm_x86::HwGcm::new(key) {
            return Backend::Hardware(hw);
        }
        Backend::Portable(Portable::new(key))
    }

    fn ctr_xor(&self, iv: &[u8; IV_LEN], data: &mut [u8]) {
        match self {
            Backend::Portable(p) => p.ctr_xor(iv, data),
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(hw) => hw.ctr_xor(iv, data),
        }
    }

    fn tag(&self, iv: &[u8; IV_LEN], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        match self {
            Backend::Portable(p) => p.tag(iv, aad, ct),
            #[cfg(target_arch = "x86_64")]
            Backend::Hardware(hw) => hw.tag(iv, aad, ct),
        }
    }

    // The batch operations below take up to `LANES` entries that share
    // one AAD. Two or more go to the hardware's interleaved kernels; a
    // lone entry has nothing to interleave with and takes the
    // single-entry kernels, as every entry does on the portable backend.

    /// The tag each of `entries` should carry, into `tags`.
    fn tags(&self, aad: &[u8], entries: &[Sealed<'_>], tags: &mut [[u8; TAG_LEN]]) {
        match (self, entries) {
            #[cfg(target_arch = "x86_64")]
            (Backend::Hardware(hw), [_, _, ..]) => hw.tags(aad, entries, tags),
            _ => {
                for (e, tag) in entries.iter().zip(tags) {
                    *tag = self.tag(e.iv, aad, e.body());
                }
            }
        }
    }

    /// Writes the plaintext of each of `entries` into the matching `out`,
    /// replacing its contents. Tags are the caller's to check first.
    fn open_many(&self, entries: &[Sealed<'_>], outs: &mut [Vec<u8>]) {
        match (self, entries) {
            #[cfg(target_arch = "x86_64")]
            (Backend::Hardware(hw), [_, _, ..]) => hw.open_many(entries, outs),
            _ => {
                for (e, out) in entries.iter().zip(outs) {
                    out.clear();
                    out.extend_from_slice(e.body());
                    self.ctr_xor(e.iv, out);
                }
            }
        }
    }

    /// Seals each `IV ‖ plaintext` buffer into `IV ‖ ciphertext ‖ tag`.
    fn seal_many(&self, aad: &[u8], bufs: &mut [Vec<u8>]) {
        match (self, bufs.len()) {
            #[cfg(target_arch = "x86_64")]
            (Backend::Hardware(hw), 2..) => hw.seal_many(aad, bufs),
            _ => {
                for buf in bufs {
                    let (iv, body) = buf
                        .split_first_chunk_mut::<IV_LEN>()
                        .expect("a seal buffer starts with its IV");
                    self.ctr_xor(iv, body);
                    let tag = self.tag(iv, aad, body);
                    buf.extend_from_slice(&tag);
                }
            }
        }
    }
}

/// `IV ‖ plaintext`, with room for the tag: what [`Backend::seal_many`]
/// takes.
fn seal_buffer(iv: &[u8; IV_LEN], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + OVERHEAD);
    out.extend_from_slice(iv);
    out.extend_from_slice(plaintext);
    out
}

/// Probabilistic authenticated encryption: AES-128-GCM.
///
/// One `Pae` instance holds the expanded key schedule and the GHASH key
/// material for a single key — mirroring the enclave caching the derived
/// `SK_D` during a dictionary search. On x86-64 CPUs with AES-NI,
/// PCLMULQDQ and SSSE3 it runs on those instructions (as the paper's
/// prototype does through the SGX SDK); everywhere else it runs the
/// portable implementation. Both produce the same bytes.
#[derive(Clone)]
pub struct Pae {
    backend: Backend,
}

impl std::fmt::Debug for Pae {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pae").finish_non_exhaustive()
    }
}

impl Pae {
    /// Creates a PAE instance for `key`.
    pub fn new(key: &Key128) -> Self {
        Pae {
            backend: Backend::detect(key),
        }
    }

    /// A PAE instance pinned to the portable backend, whatever the CPU
    /// offers — for the backend-differential tests and `benches/crypto.rs`.
    #[doc(hidden)]
    pub fn portable(key: &Key128) -> Self {
        Pae {
            backend: Backend::Portable(Portable::new(key)),
        }
    }

    /// `PAE Enc(SK, IV, v)` with an explicit IV.
    ///
    /// Use [`Pae::encrypt_with_rng`] in production paths; explicit IVs exist
    /// for deterministic tests and for the paper's algorithm descriptions.
    pub fn encrypt(&self, iv: &[u8; IV_LEN], plaintext: &[u8], aad: &[u8]) -> Ciphertext {
        let mut out = seal_buffer(iv, plaintext);
        self.backend.seal_many(aad, std::slice::from_mut(&mut out));
        Ciphertext(out)
    }

    /// `PAE Enc` with a fresh random IV drawn from `rng`.
    pub fn encrypt_with_rng<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        plaintext: &[u8],
        aad: &[u8],
    ) -> Ciphertext {
        let mut iv = [0u8; IV_LEN];
        rng.fill_bytes(&mut iv);
        self.encrypt(&iv, plaintext, aad)
    }

    /// [`Pae::encrypt_with_rng`] over many plaintexts under one `aad`.
    /// The IVs are drawn exactly as a loop of `encrypt_with_rng` draws
    /// them — one 12-byte fill per plaintext, in order — so the bytes are
    /// that loop's; the hardware backend seals [`LANES`] per kernel call.
    pub fn encrypt_many_with_rng<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        plaintexts: &[&[u8]],
        aad: &[u8],
    ) -> Vec<Ciphertext> {
        let mut bufs: Vec<Vec<u8>> = plaintexts
            .iter()
            .map(|plaintext| {
                let mut iv = [0u8; IV_LEN];
                rng.fill_bytes(&mut iv);
                seal_buffer(&iv, plaintext)
            })
            .collect();
        for batch in bufs.chunks_mut(LANES) {
            self.backend.seal_many(aad, batch);
        }
        bufs.into_iter().map(Ciphertext).collect()
    }

    /// `PAE Dec(SK, c)` on a serialized `IV ‖ body ‖ tag` byte string,
    /// writing the plaintext into `out` (replacing its contents) without
    /// allocating beyond `out`'s own growth. The tag is verified in
    /// constant time before any plaintext is produced; on error `out` is
    /// left exactly as it was.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Truncated`] if `bytes` cannot hold an IV and a tag,
    /// [`CryptoError::TagMismatch`] if the tag does not verify (wrong key,
    /// tampered ciphertext, or wrong AAD).
    pub fn decrypt_into(
        &self,
        bytes: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let entry = Sealed::split(bytes)?;
        if !ct_eq(&self.backend.tag(entry.iv, aad, entry.body()), entry.tag()) {
            return Err(CryptoError::TagMismatch);
        }
        out.clear();
        out.extend_from_slice(entry.body());
        self.backend.ctr_xor(entry.iv, out);
        Ok(())
    }

    /// [`Pae::decrypt_into`] over many ciphertexts under one `aad`: the
    /// plaintext of `cts[i]` replaces the contents of `outs[i]`. The
    /// hardware backend opens [`LANES`] entries per kernel call, with
    /// their AES rounds interleaved and GHASH over `aad` absorbed once.
    /// Every tag is compared in constant time, and all of them verify
    /// before any plaintext is written: on error every `out` is left
    /// exactly as it was.
    ///
    /// # Errors
    ///
    /// As [`Pae::decrypt_into`], if any one ciphertext fails.
    ///
    /// # Panics
    ///
    /// If `cts` and `outs` differ in length.
    pub fn decrypt_many_into(
        &self,
        cts: &[&[u8]],
        aad: &[u8],
        outs: &mut [Vec<u8>],
    ) -> Result<(), CryptoError> {
        assert_eq!(cts.len(), outs.len(), "one output buffer per ciphertext");
        if let ([ct], [out]) = (cts, &mut *outs) {
            return self.decrypt_into(ct, aad, out);
        }
        let mut slots = [Sealed::EMPTY; LANES];
        let mut tags = [[0u8; TAG_LEN]; LANES];
        for batch in cts.chunks(LANES) {
            let entries = Sealed::split_batch(batch, &mut slots)?;
            let tags = &mut tags[..entries.len()];
            self.backend.tags(aad, entries, tags);
            // `&`, not `&&`: every comparison runs, whichever fails.
            let verified = entries
                .iter()
                .zip(tags.iter())
                .fold(true, |ok, (e, tag)| ok & ct_eq(tag, e.tag()));
            if !verified {
                return Err(CryptoError::TagMismatch);
            }
        }
        for (batch, outs) in cts.chunks(LANES).zip(outs.chunks_mut(LANES)) {
            let entries = Sealed::split_batch(batch, &mut slots)?;
            self.backend.open_many(entries, outs);
        }
        Ok(())
    }

    /// `PAE Dec(SK, c)`: decrypts and verifies authenticity.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::TagMismatch`] if the tag does not verify
    /// (wrong key, tampered ciphertext, or wrong AAD).
    pub fn decrypt(&self, ct: &Ciphertext, aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        self.decrypt_bytes(ct.as_bytes(), aad)
    }

    /// Decrypts a serialized `IV ‖ body ‖ tag` byte string.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Truncated`] for malformed input, otherwise as
    /// [`Pae::decrypt`].
    pub fn decrypt_bytes(&self, bytes: &[u8], aad: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::new();
        self.decrypt_into(bytes, aad, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn body(ct: &Ciphertext) -> &[u8] {
        &ct.as_bytes()[IV_LEN..ct.len() - TAG_LEN]
    }

    fn tag(ct: &Ciphertext) -> &[u8] {
        &ct.as_bytes()[ct.len() - TAG_LEN..]
    }

    /// The backend `Pae::new` picks on this CPU, and the portable one.
    fn backends(key: &Key128) -> [(&'static str, Pae); 2] {
        [
            ("detected", Pae::new(key)),
            ("portable", Pae::portable(key)),
        ]
    }

    /// Without this the differential tests below could compare the
    /// portable backend with itself and prove nothing.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn new_picks_hardware_exactly_when_the_cpu_has_it() {
        let has = is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3");
        let pae = Pae::new(&Key128::from_bytes([1u8; 16]));
        assert_eq!(matches!(pae.backend, Backend::Hardware(_)), has);
        let portable = Pae::portable(&Key128::from_bytes([1u8; 16]));
        assert!(matches!(portable.backend, Backend::Portable(_)));
    }

    /// NIST GCM test vector: empty plaintext, empty AAD, zero key/IV.
    #[test]
    fn nist_empty_vector() {
        for (name, pae) in backends(&Key128::from_bytes([0u8; 16])) {
            let ct = pae.encrypt(&[0u8; 12], b"", b"");
            assert_eq!(body(&ct), b"", "{name}");
            assert_eq!(tag(&ct), hex("58e2fccefa7e3061367f1d57a4e7455a"), "{name}");
        }
    }

    /// NIST GCM test vector: one zero block under the zero key.
    #[test]
    fn nist_single_block_vector() {
        for (name, pae) in backends(&Key128::from_bytes([0u8; 16])) {
            let ct = pae.encrypt(&[0u8; 12], &[0u8; 16], b"");
            assert_eq!(body(&ct), hex("0388dace60b6a392f328c2b971b2fe78"), "{name}");
            assert_eq!(tag(&ct), hex("ab6e47d42cec13bdf53a67b21257bddf"), "{name}");
        }
    }

    /// NIST GCM test case 3: 4-block message.
    #[test]
    fn nist_four_block_vector() {
        let key = Key128::from_slice(&hex("feffe9928665731c6d6a8f9467308308")).unwrap();
        let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        for (name, pae) in backends(&key) {
            let ct = pae.encrypt(&iv, &pt, b"");
            assert_eq!(
                body(&ct),
                hex("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"),
                "{name}"
            );
            assert_eq!(tag(&ct), hex("4d5c2af327cd64a62cf35abd2ba6fab4"), "{name}");
        }
    }

    /// NIST GCM test case 4: with AAD and a partial final block.
    #[test]
    fn nist_aad_vector() {
        let key = Key128::from_slice(&hex("feffe9928665731c6d6a8f9467308308")).unwrap();
        let iv: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a721c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        for (name, pae) in backends(&key) {
            let ct = pae.encrypt(&iv, &pt, &aad);
            assert_eq!(
                body(&ct),
                hex("42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"),
                "{name}"
            );
            assert_eq!(tag(&ct), hex("5bc94fbc3221a5db94fae95ae7121a47"), "{name}");
            assert_eq!(pae.decrypt(&ct, &aad).unwrap(), pt, "{name}");
        }
    }

    /// Equal key, IV, plaintext and AAD give equal bytes on both backends,
    /// and each backend decrypts what the other wrote.
    #[test]
    fn backends_are_byte_identical_and_interoperable() {
        const LENGTHS: [usize; 13] = [0, 1, 7, 10, 15, 16, 17, 31, 32, 33, 64, 100, 257];
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let mut out = Vec::new();
        for _ in 0..200 {
            let [(_, detected), (_, portable)] = backends(&Key128::generate(&mut rng));
            let mut iv = [0u8; IV_LEN];
            rng.fill(&mut iv[..]);
            for len in LENGTHS {
                let pt: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                for aad_len in 0..=40 {
                    let aad: Vec<u8> = (0..aad_len).map(|_| rng.gen()).collect();
                    let a = detected.encrypt(&iv, &pt, &aad);
                    let b = portable.encrypt(&iv, &pt, &aad);
                    assert_eq!(a.as_bytes(), b.as_bytes(), "len {len} aad {aad_len}");
                    portable
                        .decrypt_into(a.as_bytes(), &aad, &mut out)
                        .expect("portable decrypts detected");
                    assert_eq!(out, pt);
                    detected
                        .decrypt_into(b.as_bytes(), &aad, &mut out)
                        .expect("detected decrypts portable");
                    assert_eq!(out, pt);
                }
            }
        }
    }

    /// A batch of `size` plaintexts whose lengths cycle through the
    /// block-boundary cases, starting at a different one per `salt`.
    fn mixed_batch(rng: &mut StdRng, size: usize, salt: usize) -> Vec<Vec<u8>> {
        const LENGTHS: [usize; 10] = [0, 1, 15, 16, 17, 31, 32, 33, 100, 257];
        (0..size)
            .map(|i| {
                let len = LENGTHS[(i + salt) % LENGTHS.len()];
                (0..len).map(|_| rng.gen()).collect()
            })
            .collect()
    }

    /// Both batched calls give the single-entry calls' bytes on both
    /// backends, across batch sizes that fill zero, one, part of one and
    /// several kernel calls, mixed body lengths and every AAD length that
    /// spans zero to three GHASH blocks.
    #[test]
    fn batched_calls_match_single_entry_calls() {
        let mut rng = StdRng::seed_from_u64(0xBA7C);
        let key = Key128::generate(&mut rng);
        let reference = Pae::portable(&key);
        for (name, pae) in backends(&key) {
            for size in (0..=9).chain([17]) {
                for aad_len in 0..=40 {
                    let aad: Vec<u8> = (0..aad_len).map(|_| rng.gen()).collect();
                    let pts = mixed_batch(&mut rng, size, aad_len);
                    let pt_refs: Vec<&[u8]> = pts.iter().map(Vec::as_slice).collect();
                    let seed = rng.gen();
                    let many =
                        pae.encrypt_many_with_rng(&mut StdRng::seed_from_u64(seed), &pt_refs, &aad);
                    let mut single_rng = StdRng::seed_from_u64(seed);
                    let single: Vec<Ciphertext> = pt_refs
                        .iter()
                        .map(|pt| reference.encrypt_with_rng(&mut single_rng, pt, &aad))
                        .collect();
                    assert_eq!(many, single, "{name}: size {size} aad {aad_len}");

                    let ct_refs: Vec<&[u8]> = single.iter().map(Ciphertext::as_bytes).collect();
                    let mut outs = vec![b"stale".to_vec(); size];
                    pae.decrypt_many_into(&ct_refs, &aad, &mut outs).unwrap();
                    for (i, (out, ct)) in outs.iter().zip(&ct_refs).enumerate() {
                        let mut one = Vec::new();
                        reference.decrypt_into(ct, &aad, &mut one).unwrap();
                        assert_eq!(out, &one, "{name}: size {size} aad {aad_len} entry {i}");
                        assert_eq!(out, &pts[i]);
                    }
                }
            }
        }
    }

    /// One flipped byte anywhere in one entry of a batch that spans two
    /// kernel calls fails the whole call, and no output is touched.
    #[test]
    fn batched_open_releases_nothing_when_any_tag_fails() {
        let mut rng = StdRng::seed_from_u64(0x7A6);
        let key = Key128::generate(&mut rng);
        for (name, pae) in backends(&key) {
            let pts = mixed_batch(&mut rng, LANES + 1, 3);
            let pt_refs: Vec<&[u8]> = pts.iter().map(Vec::as_slice).collect();
            let cts: Vec<Vec<u8>> = pae
                .encrypt_many_with_rng(&mut rng, &pt_refs, b"aad")
                .into_iter()
                .map(Ciphertext::into_bytes)
                .collect();
            let before: Vec<Vec<u8>> = (0..cts.len()).map(|i| vec![i as u8; i]).collect();
            for victim in 0..cts.len() {
                for byte in 0..cts[victim].len() {
                    let mut tampered = cts.clone();
                    tampered[victim][byte] ^= 0x01;
                    let refs: Vec<&[u8]> = tampered.iter().map(Vec::as_slice).collect();
                    let mut outs = before.clone();
                    assert_eq!(
                        pae.decrypt_many_into(&refs, b"aad", &mut outs),
                        Err(CryptoError::TagMismatch),
                        "{name}: entry {victim} byte {byte}"
                    );
                    assert_eq!(outs, before, "{name}: entry {victim} byte {byte}");
                }
            }
        }
    }

    #[test]
    fn roundtrip_various_lengths() {
        let mut rng = StdRng::seed_from_u64(42);
        for (name, pae) in backends(&Key128::from_bytes([3u8; 16])) {
            for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
                let pt: Vec<u8> = (0..len).map(|i| (i % 256) as u8).collect();
                let ct = pae.encrypt_with_rng(&mut rng, &pt, b"aad");
                assert_eq!(pae.decrypt(&ct, b"aad").unwrap(), pt, "{name} len {len}");
                assert_eq!(ct.len(), len + OVERHEAD);
                assert_eq!(ct.plaintext_len(), len);
            }
        }
    }

    #[test]
    fn probabilistic_encryption_differs() {
        // §2.3 / EncDB 4: "this only leads to the same ciphertexts with
        // negligible probability, even if the plaintexts are equal".
        let pae = Pae::new(&Key128::from_bytes([3u8; 16]));
        let mut rng = StdRng::seed_from_u64(7);
        let a = pae.encrypt_with_rng(&mut rng, b"Jessica", b"");
        let b = pae.encrypt_with_rng(&mut rng, b"Jessica", b"");
        assert_ne!(a.as_bytes(), b.as_bytes());
    }

    #[test]
    fn tamper_detection() {
        for (name, pae) in backends(&Key128::from_bytes([3u8; 16])) {
            let ct = pae.encrypt(&[1u8; 12], b"secret value", b"");
            for i in 0..ct.len() {
                let mut bytes = ct.as_bytes().to_vec();
                bytes[i] ^= 0x01;
                let tampered = Ciphertext::from_bytes(bytes).unwrap();
                assert_eq!(
                    pae.decrypt(&tampered, b""),
                    Err(CryptoError::TagMismatch),
                    "{name} byte {i}"
                );
            }
        }
    }

    #[test]
    fn wrong_key_rejected() {
        for (writer, pae1) in backends(&Key128::from_bytes([3u8; 16])) {
            let ct = pae1.encrypt(&[1u8; 12], b"v", b"");
            for (reader, pae2) in backends(&Key128::from_bytes([4u8; 16])) {
                assert_eq!(
                    pae2.decrypt(&ct, b""),
                    Err(CryptoError::TagMismatch),
                    "{writer} -> {reader}"
                );
            }
        }
    }

    #[test]
    fn wrong_aad_rejected() {
        for (name, pae) in backends(&Key128::from_bytes([3u8; 16])) {
            let ct = pae.encrypt(&[1u8; 12], b"v", b"aad1");
            assert_eq!(
                pae.decrypt(&ct, b"aad2"),
                Err(CryptoError::TagMismatch),
                "{name}"
            );
        }
    }

    #[test]
    fn truncated_rejected() {
        assert!(Ciphertext::from_bytes(vec![0u8; OVERHEAD - 1]).is_err());
        assert!(Ciphertext::from_bytes(vec![0u8; OVERHEAD]).is_ok());
    }

    #[test]
    fn decrypt_into_leaves_out_untouched_on_error() {
        for (name, pae) in backends(&Key128::from_bytes([3u8; 16])) {
            let ct = pae.encrypt(&[1u8; 12], b"secret value", b"aad");
            let mut out = b"previous contents".to_vec();

            let mut tampered = ct.as_bytes().to_vec();
            tampered[IV_LEN] ^= 0x80;
            assert_eq!(
                pae.decrypt_into(&tampered, b"aad", &mut out),
                Err(CryptoError::TagMismatch),
                "{name}"
            );
            assert_eq!(out, b"previous contents", "{name}");

            let short = &ct.as_bytes()[..OVERHEAD - 1];
            assert_eq!(
                pae.decrypt_into(short, b"aad", &mut out),
                Err(CryptoError::Truncated {
                    got: OVERHEAD - 1,
                    need: OVERHEAD
                }),
                "{name}"
            );
            assert_eq!(out, b"previous contents", "{name}");

            pae.decrypt_into(ct.as_bytes(), b"aad", &mut out).unwrap();
            assert_eq!(out, b"secret value", "{name}");
        }
    }
}
