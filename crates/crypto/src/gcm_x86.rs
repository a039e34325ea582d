//! The hardware AES-128-GCM backend: AES-NI for the block cipher and
//! PCLMULQDQ carry-less multiplication for GHASH.
//!
//! This is the only module in the workspace that contains `unsafe`. The
//! kernels themselves are *safe* `#[target_feature]` functions (register
//! intrinsics only, no pointers); what is unsafe is calling them from code
//! compiled without those features, and that is sound exactly when the
//! running CPU has them. [`HwGcm::new`] is the only constructor and returns
//! a value only after `is_x86_feature_detected!` confirmed all three
//! features, so holding a `HwGcm` is the proof every dispatch below cites.
//! (The kernels also name `sse2`, because rustc wants every feature an
//! intrinsic uses listed; SSE2 is part of the x86-64 baseline, and this
//! module is compiled for no other architecture.)
//!
//! Unlike the portable backend, nothing here indexes memory by secret
//! data: the key schedule uses `AESKEYGENASSIST`, the rounds `AESENC`, and
//! GHASH is shifts, XORs and `PCLMULQDQ` — constant time in key, IV and
//! plaintext.
//!
//! GHASH follows Intel's white paper *"Carry-Less Multiplication
//! Instruction and its Usage for Computing the GCM Mode"*: blocks are
//! byte-reflected on load, multiplied with four `PCLMULQDQ`s, shifted left
//! by one bit and reduced modulo x¹²⁸ + x⁷ + x² + x + 1 (its Figure 5).
//! Up to four blocks are multiplied by H⁴…H¹ and their 256-bit products
//! XORed before a single shift-and-reduce, so a short dictionary value
//! (two AAD blocks, one ciphertext block, the length block) costs one
//! reduction instead of four dependent ones.
#![allow(unsafe_code)]

use crate::gcm::IV_LEN;
use crate::keys::Key128;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128,
    _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_or_si128, _mm_set_epi64x, _mm_set_epi8,
    _mm_setzero_si128, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_slli_epi32, _mm_slli_si128,
    _mm_srli_epi32, _mm_srli_si128, _mm_unpackhi_epi64, _mm_xor_si128,
};

/// Blocks folded into one reduction (and the number of powers of H kept).
const AGGREGATE: usize = 4;

/// An AES-128-GCM key expanded for the hardware kernels.
#[derive(Clone)]
pub(crate) struct HwGcm {
    // Key material rests as plain bytes so `Drop` can wipe it without a
    // vector intrinsic; the kernels load it into registers per call.
    round_keys: [[u8; 16]; 11],
    /// `h_pow[i]` = H^(i+1), byte-reflected.
    h_pow: [[u8; 16]; AGGREGATE],
}

impl HwGcm {
    /// Expands `key` if this CPU has AES-NI, PCLMULQDQ and SSSE3.
    pub(crate) fn new(key: &Key128) -> Option<Self> {
        if is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3")
        {
            // SAFETY: aes, pclmulqdq and ssse3 were detected on this CPU
            // on the line above.
            Some(unsafe { Self::expand(key.as_bytes()) })
        } else {
            None
        }
    }

    /// The GCM tag over `aad` and ciphertext `ct` under `iv`.
    pub(crate) fn tag(&self, iv: &[u8; IV_LEN], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        // SAFETY: `self` exists, so `HwGcm::new` detected aes, pclmulqdq
        // and ssse3 on this CPU.
        unsafe { self.tag_kernel(iv, aad, ct) }
    }

    /// XORs the CTR keystream (counter starting at 2) into `data`.
    pub(crate) fn ctr_xor(&self, iv: &[u8; IV_LEN], data: &mut [u8]) {
        // SAFETY: `self` exists, so `HwGcm::new` detected aes (and the
        // others) on this CPU.
        unsafe { self.ctr_kernel(iv, data) }
    }

    #[target_feature(enable = "sse2,ssse3,aes,pclmulqdq")]
    fn expand(key: &[u8; 16]) -> Self {
        let mut rk = [load(key); 11];
        rk[1] = next_round_key::<0x01>(rk[0]);
        rk[2] = next_round_key::<0x02>(rk[1]);
        rk[3] = next_round_key::<0x04>(rk[2]);
        rk[4] = next_round_key::<0x08>(rk[3]);
        rk[5] = next_round_key::<0x10>(rk[4]);
        rk[6] = next_round_key::<0x20>(rk[5]);
        rk[7] = next_round_key::<0x40>(rk[6]);
        rk[8] = next_round_key::<0x80>(rk[7]);
        rk[9] = next_round_key::<0x1b>(rk[8]);
        rk[10] = next_round_key::<0x36>(rk[9]);
        let h = reflect(encrypt_block(&rk, _mm_setzero_si128()));
        let mut h_pow = [h; AGGREGATE];
        for i in 1..AGGREGATE {
            h_pow[i] = reduce(clmul(h_pow[i - 1], h));
        }
        HwGcm {
            round_keys: rk.map(|k| store(k)),
            h_pow: h_pow.map(|h| store(h)),
        }
    }

    #[target_feature(enable = "sse2,ssse3,aes,pclmulqdq")]
    fn tag_kernel(&self, iv: &[u8; IV_LEN], aad: &[u8], ct: &[u8]) -> [u8; 16] {
        let mask = encrypt_block(&self.round_keys.map(|k| load(&k)), counter_block(iv, 1));
        let mut ghash = Ghash {
            h_pow: self.h_pow.map(|h| load(&h)),
            y: _mm_setzero_si128(),
            pending: [_mm_setzero_si128(); AGGREGATE],
            n: 0,
        };
        ghash.absorb(aad);
        ghash.absorb(ct);
        // The length block, already in reflected order: bit lengths of the
        // AAD (high half) and the ciphertext (low half).
        ghash.push(_mm_set_epi64x(
            (aad.len() as u64 * 8) as i64,
            (ct.len() as u64 * 8) as i64,
        ));
        store(_mm_xor_si128(reflect(ghash.finish()), mask))
    }

    #[target_feature(enable = "sse2,aes")]
    fn ctr_kernel(&self, iv: &[u8; IV_LEN], data: &mut [u8]) {
        let rk = self.round_keys.map(|k| load(&k));
        let mut ctr: u32 = 2; // counter 1 masks the tag
        for chunk in data.chunks_mut(16) {
            let keystream = store(encrypt_block(&rk, counter_block(iv, ctr)));
            for (b, k) in chunk.iter_mut().zip(keystream) {
                *b ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }
}

impl Drop for HwGcm {
    fn drop(&mut self) {
        // Best-effort zeroization, as for the portable key schedule.
        self.round_keys = [[0; 16]; 11];
        self.h_pow = [[0; 16]; AGGREGATE];
    }
}

/// The running GHASH state: `y` plus up to [`AGGREGATE`] blocks whose
/// multiplication is deferred so they share one reduction.
struct Ghash {
    h_pow: [__m128i; AGGREGATE],
    y: __m128i,
    pending: [__m128i; AGGREGATE],
    n: usize,
}

impl Ghash {
    /// Absorbs `data` as 16-byte blocks, the last one zero-padded.
    #[target_feature(enable = "sse2,ssse3,pclmulqdq")]
    fn absorb(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for chunk in &mut chunks {
            let block: &[u8; 16] = chunk.try_into().expect("chunks_exact(16) yields 16 bytes");
            self.push(reflect(load(block)));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut block = [0u8; 16];
            block[..rest.len()].copy_from_slice(rest);
            self.push(reflect(load(&block)));
        }
    }

    #[target_feature(enable = "sse2,pclmulqdq")]
    fn push(&mut self, block: __m128i) {
        self.pending[self.n] = block;
        self.n += 1;
        if self.n == AGGREGATE {
            self.fold();
        }
    }

    /// `y ← (y ⊕ b₀)·Hⁿ ⊕ b₁·Hⁿ⁻¹ ⊕ … ⊕ bₙ₋₁·H` with one reduction.
    #[target_feature(enable = "sse2,pclmulqdq")]
    fn fold(&mut self) {
        let n = self.n;
        let (mut lo, mut hi) = clmul(_mm_xor_si128(self.y, self.pending[0]), self.h_pow[n - 1]);
        for i in 1..n {
            let (l, h) = clmul(self.pending[i], self.h_pow[n - 1 - i]);
            lo = _mm_xor_si128(lo, l);
            hi = _mm_xor_si128(hi, h);
        }
        self.y = reduce((lo, hi));
        self.n = 0;
    }

    #[target_feature(enable = "sse2,pclmulqdq")]
    fn finish(mut self) -> __m128i {
        if self.n > 0 {
            self.fold();
        }
        self.y
    }
}

/// Loads 16 bytes into a register (safe spelling of `MOVDQU`).
#[inline]
#[target_feature(enable = "sse2")]
fn load(b: &[u8; 16]) -> __m128i {
    let (lo, hi) = b.split_at(8);
    _mm_set_epi64x(
        i64::from_le_bytes(hi.try_into().expect("upper 8 of 16 bytes")),
        i64::from_le_bytes(lo.try_into().expect("lower 8 of 16 bytes")),
    )
}

/// Stores a register as 16 bytes.
#[inline]
#[target_feature(enable = "sse2")]
fn store(x: __m128i) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&_mm_cvtsi128_si64(x).to_le_bytes());
    out[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)).to_le_bytes());
    out
}

/// Reverses the 16 bytes of `x`: GCM numbers bits from the most
/// significant bit of byte 0, `PCLMULQDQ` from the other end.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn reflect(x: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        x,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// `IV ‖ ctr` with the 32-bit counter big-endian, as GCM's 96-bit-IV path
/// defines it.
#[inline]
#[target_feature(enable = "sse2")]
fn counter_block(iv: &[u8; IV_LEN], ctr: u32) -> __m128i {
    let mut block = [0u8; 16];
    block[..IV_LEN].copy_from_slice(iv);
    block[IV_LEN..].copy_from_slice(&ctr.to_be_bytes());
    load(&block)
}

/// One step of the AES-128 key schedule (Intel AES-NI white paper,
/// `AES_128_ASSIST`).
#[inline]
#[target_feature(enable = "sse2,aes")]
fn next_round_key<const RCON: i32>(prev: __m128i) -> __m128i {
    let assist = _mm_shuffle_epi32::<0xff>(_mm_aeskeygenassist_si128::<RCON>(prev));
    // Prefix-XOR of the four words: w0, w0^w1, w0^w1^w2, w0^w1^w2^w3.
    let k = _mm_xor_si128(prev, _mm_slli_si128::<4>(prev));
    let k = _mm_xor_si128(k, _mm_slli_si128::<8>(k));
    _mm_xor_si128(k, assist)
}

#[inline]
#[target_feature(enable = "sse2,aes")]
fn encrypt_block(rk: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut state = _mm_xor_si128(block, rk[0]);
    for k in &rk[1..10] {
        state = _mm_aesenc_si128(state, *k);
    }
    _mm_aesenclast_si128(state, rk[10])
}

/// The 256-bit carry-less product of two reflected field elements, as
/// `(low, high)` halves — not yet shifted or reduced, so products can be
/// XORed together first.
#[inline]
#[target_feature(enable = "sse2,pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    (
        _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
        _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
    )
}

/// Shifts a 256-bit product left by one bit (the reflection leaves it one
/// bit short) and reduces it modulo x¹²⁸ + x⁷ + x² + x + 1.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce((lo, hi): (__m128i, __m128i)) -> __m128i {
    // 256-bit shift left by one, carrying across the 32-bit lanes.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );
    // First phase of the reduction.
    let fold = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let fold_carry = _mm_srli_si128::<4>(fold);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(fold));
    // Second phase.
    let mix = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), fold_carry),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, mix))
}
