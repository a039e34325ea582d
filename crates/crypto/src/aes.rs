//! AES-128 block cipher (encryption direction only), portable.
//!
//! GCM mode uses the forward cipher exclusively (CTR keystream + GHASH key),
//! so the inverse cipher is not implemented. This is the fallback
//! [`crate::gcm::Pae`] runs on where the CPU offers no AES instructions:
//! a straightforward byte-oriented implementation whose S-box is a
//! constant table and whose `MixColumns` uses `xtime` multiplication. The
//! S-box is indexed by key- and data-dependent bytes, so this
//! implementation is **not constant-time**; the hardware backend is. See
//! DESIGN.md §6.

use crate::keys::Key128;

/// Number of 4-byte words in an AES-128 key.
const NK: usize = 4;
/// Number of rounds for AES-128.
const NR: usize = 10;

/// The AES S-box, generated at compile time from the multiplicative inverse
/// in GF(2^8) followed by the affine transformation.
static SBOX: [u8; 256] = build_sbox();

const fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    let mut i = 0;
    while i < 8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1b;
        }
        b >>= 1;
        i += 1;
    }
    p
}

const fn gf_inv(a: u8) -> u8 {
    // a^254 in GF(2^8) via square-and-multiply; inverse of 0 is defined as 0.
    if a == 0 {
        return 0;
    }
    let mut result = 1u8;
    let mut base = a;
    let mut exp = 254u8;
    while exp > 0 {
        if exp & 1 != 0 {
            result = gf_mul(result, base);
        }
        base = gf_mul(base, base);
        exp >>= 1;
    }
    result
}

const fn build_sbox() -> [u8; 256] {
    let mut sbox = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let inv = gf_inv(i as u8);
        // Affine transformation: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63
        let mut x = inv;
        let mut r = inv;
        let mut j = 0;
        while j < 4 {
            x = x.rotate_left(1);
            r ^= x;
            j += 1;
        }
        sbox[i] = r ^ 0x63;
        i += 1;
    }
    sbox
}

#[inline]
fn xtime(a: u8) -> u8 {
    (a << 1) ^ (((a >> 7) & 1) * 0x1b)
}

/// An expanded AES-128 key schedule ready to encrypt 16-byte blocks.
///
/// # Example
///
/// ```
/// use encdbdb_crypto::aes::Aes128;
/// use encdbdb_crypto::keys::Key128;
///
/// let cipher = Aes128::new(&Key128::from_bytes([0u8; 16]));
/// let mut block = [0u8; 16];
/// cipher.encrypt_block(&mut block);
/// // FIPS-197 / NIST test vector for the all-zero key and block.
/// assert_eq!(block[0], 0x66);
/// ```
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; NR + 1],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes128").finish_non_exhaustive()
    }
}

impl Aes128 {
    /// Expands `key` into the full round-key schedule.
    pub fn new(key: &Key128) -> Self {
        let key = key.as_bytes();
        let mut w = [[0u8; 4]; 4 * (NR + 1)];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            w[i].copy_from_slice(chunk);
        }
        let mut rcon: u8 = 1;
        for i in NK..4 * (NR + 1) {
            let mut temp = w[i - 1];
            if i % NK == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            }
            for j in 0..4 {
                w[i][j] = w[i - NK][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; NR + 1];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    #[inline]
    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    #[inline]
    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    #[inline]
    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: state[4*c + r].
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    #[inline]
    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            let t = col[0] ^ col[1] ^ col[2] ^ col[3];
            for r in 0..4 {
                state[4 * c + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
            }
        }
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        Self::add_round_key(block, &self.round_keys[0]);
        for round in 1..NR {
            Self::sub_bytes(block);
            Self::shift_rows(block);
            Self::mix_columns(block);
            Self::add_round_key(block, &self.round_keys[round]);
        }
        Self::sub_bytes(block);
        Self::shift_rows(block);
        Self::add_round_key(block, &self.round_keys[NR]);
    }

    /// Encrypts a block and returns the result, leaving the input untouched.
    pub fn encrypt_block_copy(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

impl Drop for Aes128 {
    fn drop(&mut self) {
        for rk in &mut self.round_keys {
            for b in rk.iter_mut() {
                // Volatile-free best-effort zeroization; good enough for a
                // simulation (no compiler fence needed for correctness).
                *b = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_entries() {
        // Spot checks against the published AES S-box.
        assert_eq!(SBOX[0x00], 0x63);
        assert_eq!(SBOX[0x01], 0x7c);
        assert_eq!(SBOX[0x53], 0xed);
        assert_eq!(SBOX[0xff], 0x16);
    }

    #[test]
    fn fips197_appendix_b_vector() {
        // FIPS-197 Appendix B example.
        let key = Key128::from_bytes(hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap());
        let cipher = Aes128::new(&key);
        let mut block: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn nist_sp80038a_ecb_vector() {
        // NIST SP 800-38A F.1.1 ECB-AES128 block #1.
        let key = Key128::from_bytes(hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap());
        let cipher = Aes128::new(&key);
        let mut block: [u8; 16] = hex("6bc1bee22e409f96e93d7e117393172a").try_into().unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), hex("3ad77bb40d7a3660a89ecaf32466ef97"));
    }

    #[test]
    fn all_zero_vector() {
        let cipher = Aes128::new(&Key128::from_bytes([0u8; 16]));
        let out = cipher.encrypt_block_copy(&[0u8; 16]);
        assert_eq!(out.to_vec(), hex("66e94bd4ef8a2c3b884cfa59ca342b2e"));
    }

    #[test]
    fn debug_redacts_key() {
        let cipher = Aes128::new(&Key128::from_bytes([0xAA; 16]));
        let dbg = format!("{cipher:?}");
        assert!(!dbg.contains("170")); // 0xAA
        assert!(dbg.contains("Aes128"));
    }

    #[test]
    fn different_keys_different_ciphertexts() {
        let c1 = Aes128::new(&Key128::from_bytes([1u8; 16]));
        let c2 = Aes128::new(&Key128::from_bytes([2u8; 16]));
        let b = [9u8; 16];
        assert_ne!(c1.encrypt_block_copy(&b), c2.encrypt_block_copy(&b));
    }
}
