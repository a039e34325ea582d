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
//!
//! One entry is one dependent `AESENC` chain and one GHASH chain, which
//! leaves both units mostly idle. The batch kernels ([`HwGcm::tags`],
//! [`HwGcm::open_many`], [`HwGcm::seal_many`]) take up to [`LANES`]
//! entries that share one AAD:
//!
//! * their AES rounds run interleaved, [`LANES`] counter blocks per pass,
//!   whichever entries the blocks belong to;
//! * GHASH over the shared AAD is computed once per call. The state after
//!   the zero-padded AAD blocks does not depend on the body, so each entry
//!   folds only its body blocks and its length block from that state.
#![allow(unsafe_code)]

use crate::gcm::{Sealed, IV_LEN, LANES, OVERHEAD, TAG_LEN};
use crate::keys::Key128;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_and_si128,
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

    /// The GCM tags of `entries` (at most [`LANES`]), which share `aad`.
    pub(crate) fn tags(&self, aad: &[u8], entries: &[Sealed<'_>], tags: &mut [[u8; TAG_LEN]]) {
        assert!(entries.len() <= LANES && tags.len() == entries.len());
        // SAFETY: `self` exists, so `HwGcm::new` detected aes, pclmulqdq
        // and ssse3 on this CPU.
        unsafe { self.tags_kernel(aad, entries, tags) }
    }

    /// Writes the plaintext of each of `entries` (at most [`LANES`]) into
    /// the matching `out`, replacing its contents; tags are not checked.
    pub(crate) fn open_many(&self, entries: &[Sealed<'_>], outs: &mut [Vec<u8>]) {
        assert!(entries.len() <= LANES && outs.len() == entries.len());
        // SAFETY: `self` exists, so `HwGcm::new` detected aes (and the
        // others) on this CPU.
        unsafe { self.open_many_kernel(entries, outs) }
    }

    /// Seals each of `bufs` (at most [`LANES`]) in place under `aad`, from
    /// `IV ‖ plaintext` to `IV ‖ ciphertext ‖ tag`.
    pub(crate) fn seal_many(&self, aad: &[u8], bufs: &mut [Vec<u8>]) {
        assert!(bufs.len() <= LANES && bufs.iter().all(|b| b.len() >= IV_LEN));
        // SAFETY: `self` exists, so `HwGcm::new` detected aes, pclmulqdq
        // and ssse3 on this CPU.
        unsafe { self.seal_many_kernel(aad, bufs) }
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
        ghash.push(length_block(aad.len(), ct.len()));
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

    #[target_feature(enable = "sse2,ssse3,aes,pclmulqdq")]
    fn tags_kernel(&self, aad: &[u8], entries: &[Sealed<'_>], tags: &mut [[u8; TAG_LEN]]) {
        let rk = self.round_keys.map(|k| load(&k));
        let h_pow = self.h_pow.map(|h| load(&h));
        let masks = tag_masks(&rk, entries.iter().map(|e| e.iv));
        let prefix = aad_prefix(&h_pow, aad);
        for ((tag, entry), mask) in tags.iter_mut().zip(entries).zip(masks) {
            let body_len = entry.body().len();
            let hash = entry_hash(&h_pow, prefix, aad.len(), entry.body_tag, body_len);
            *tag = store(_mm_xor_si128(hash, mask));
        }
    }

    #[target_feature(enable = "sse2,aes")]
    fn open_many_kernel(&self, entries: &[Sealed<'_>], outs: &mut [Vec<u8>]) {
        let rk = self.round_keys.map(|k| load(&k));
        // Each out gets `body ‖ tag`: the tag bytes let the last block be
        // XORed at full width, and are cut off after.
        for (entry, out) in entries.iter().zip(outs.iter_mut()) {
            out.clear();
            out.extend_from_slice(entry.body_tag);
        }
        let mut queue = KeystreamQueue::new(&rk);
        for (entry, out) in entries.iter().zip(outs.iter_mut()) {
            queue.xor_into(
                entry.iv,
                &mut out[..entry.body().len().next_multiple_of(16)],
            );
        }
        queue.flush();
        for (entry, out) in entries.iter().zip(outs) {
            out.truncate(entry.body().len());
        }
    }

    #[target_feature(enable = "sse2,ssse3,aes,pclmulqdq")]
    fn seal_many_kernel(&self, aad: &[u8], bufs: &mut [Vec<u8>]) {
        let rk = self.round_keys.map(|k| load(&k));
        let h_pow = self.h_pow.map(|h| load(&h));
        let mut ivs = [[0u8; IV_LEN]; LANES];
        let mut queue = KeystreamQueue::new(&rk);
        for (buf, iv) in bufs.iter_mut().zip(&mut ivs) {
            let body_len = buf.len() - IV_LEN;
            // The tag's room, appended first, lets the last block be XORed
            // and hashed at full width.
            buf.extend_from_slice(&[0; TAG_LEN]);
            let (buf_iv, body_tag) = buf
                .split_first_chunk_mut::<IV_LEN>()
                .expect("`seal_many` checked every buffer holds an IV");
            *iv = *buf_iv;
            queue.xor_into(iv, &mut body_tag[..body_len.next_multiple_of(16)]);
        }
        queue.flush();
        let masks = tag_masks(&rk, ivs[..bufs.len()].iter());
        let prefix = aad_prefix(&h_pow, aad);
        for (buf, mask) in bufs.iter_mut().zip(masks) {
            let body_len = buf.len() - OVERHEAD;
            let hash = entry_hash(&h_pow, prefix, aad.len(), &buf[IV_LEN..], body_len);
            buf[IV_LEN + body_len..].copy_from_slice(&store(_mm_xor_si128(hash, mask)));
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

/// `E(IV ‖ 1)` for each IV (at most [`LANES`]): the masks that turn a
/// GHASH into a tag, encrypted in one interleaved pass.
#[inline]
#[target_feature(enable = "sse2,aes")]
fn tag_masks<'a>(
    rk: &[__m128i; 11],
    ivs: impl Iterator<Item = &'a [u8; IV_LEN]>,
) -> [__m128i; LANES] {
    let mut masks = [_mm_setzero_si128(); LANES];
    let mut n = 0;
    for (mask, iv) in masks.iter_mut().zip(ivs) {
        *mask = counter_block(iv, 1);
        n += 1;
    }
    encrypt_blocks(rk, &mut masks[..n]);
    masks
}

/// CTR keystream for several entries: counter blocks are queued in entry
/// order and encrypted [`LANES`] at a time, whichever entries they belong
/// to, so short entries share a pass just as the blocks of a long one do.
struct KeystreamQueue<'k, 'd> {
    rk: &'k [__m128i; 11],
    blocks: [__m128i; LANES],
    /// Where each queued block's keystream goes.
    dest: [&'d mut [u8]; LANES],
    n: usize,
}

impl<'k, 'd> KeystreamQueue<'k, 'd> {
    #[inline]
    #[target_feature(enable = "sse2")]
    fn new(rk: &'k [__m128i; 11]) -> Self {
        KeystreamQueue {
            rk,
            blocks: [_mm_setzero_si128(); LANES],
            dest: Default::default(),
            n: 0,
        }
    }

    /// Queues the keystream for `data` under `iv`, counter from 2;
    /// `data` is whole blocks.
    #[inline]
    #[target_feature(enable = "sse2,aes")]
    fn xor_into(&mut self, iv: &[u8; IV_LEN], data: &'d mut [u8]) {
        let mut ctr: u32 = 2; // counter 1 masks the tag
        for chunk in data.chunks_exact_mut(16) {
            self.blocks[self.n] = counter_block(iv, ctr);
            self.dest[self.n] = chunk;
            self.n += 1;
            if self.n == LANES {
                self.flush();
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    /// Encrypts the queued blocks and XORs them into their destinations.
    #[target_feature(enable = "sse2,aes")]
    fn flush(&mut self) {
        let n = std::mem::take(&mut self.n);
        encrypt_blocks(self.rk, &mut self.blocks[..n]);
        for (block, dest) in self.blocks.iter().zip(&mut self.dest[..n]) {
            let dest: &mut [u8; 16] = (&mut **dest).try_into().expect("queued blocks are whole");
            *dest = store(_mm_xor_si128(load(dest), *block));
        }
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
        for i in 0..data.len().div_ceil(16) {
            self.push(data_block(data, i));
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

    #[target_feature(enable = "sse2,pclmulqdq")]
    fn fold(&mut self) {
        self.y = fold(&self.h_pow, self.y, &self.pending[..self.n]);
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

/// The GHASH state after the zero-padded `aad` blocks, reduced: the
/// prefix every entry of a batch continues from.
#[inline]
#[target_feature(enable = "sse2,ssse3,pclmulqdq")]
fn aad_prefix(h_pow: &[__m128i; AGGREGATE], aad: &[u8]) -> __m128i {
    let mut ghash = Ghash {
        h_pow: *h_pow,
        y: _mm_setzero_si128(),
        pending: [_mm_setzero_si128(); AGGREGATE],
        n: 0,
    };
    ghash.absorb(aad);
    ghash.finish()
}

/// The GHASH of one entry, continued from `prefix` (the AAD's state) over
/// its body — the first `body_len` bytes of `padded`, which has room to
/// read the last block at full width — and the length block,
/// [`AGGREGATE`] to a reduction; returned byte-reflected back, ready to
/// mask.
#[inline]
#[target_feature(enable = "sse2,ssse3,pclmulqdq")]
fn entry_hash(
    h_pow: &[__m128i; AGGREGATE],
    prefix: __m128i,
    aad_len: usize,
    padded: &[u8],
    body_len: usize,
) -> __m128i {
    let body_blocks = body_len.div_ceil(16);
    let mut blocks = [_mm_setzero_si128(); AGGREGATE];
    let mut y = prefix;
    let mut i = 0;
    while i <= body_blocks {
        let n = (body_blocks + 1 - i).min(AGGREGATE);
        for (k, block) in blocks[..n].iter_mut().enumerate() {
            *block = if i + k < body_blocks {
                padded_block(padded, body_len, i + k)
            } else {
                length_block(aad_len, body_len)
            };
        }
        y = fold(h_pow, y, &blocks[..n]);
        i += n;
    }
    reflect(y)
}

/// `(y ⊕ b₀)·Hⁿ ⊕ b₁·Hⁿ⁻¹ ⊕ … ⊕ bₙ₋₁·H` over the `n` (1 to
/// [`AGGREGATE`]) `blocks`, with one reduction.
#[inline]
#[target_feature(enable = "sse2,pclmulqdq")]
fn fold(h_pow: &[__m128i; AGGREGATE], y: __m128i, blocks: &[__m128i]) -> __m128i {
    let n = blocks.len();
    let (mut lo, mut hi) = clmul(_mm_xor_si128(y, blocks[0]), h_pow[n - 1]);
    for (block, h) in blocks[1..].iter().zip(h_pow[..n - 1].iter().rev()) {
        let (l, h) = clmul(*block, *h);
        lo = _mm_xor_si128(lo, l);
        hi = _mm_xor_si128(hi, h);
    }
    reduce((lo, hi))
}

/// Block `i` of `data` as GHASH reads it: reflected, and zero-padded if it
/// is the short last block.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn data_block(data: &[u8], i: usize) -> __m128i {
    let rest = &data[16 * i..];
    if let Some(full) = rest.first_chunk::<16>() {
        return reflect(load(full));
    }
    // Assembled in registers: a zero-padded copy on the stack would be
    // read back wider than it was written, which stalls store forwarding.
    let (mut lo, mut hi) = (0u64, 0u64);
    for (k, &b) in rest.iter().enumerate() {
        if k < 8 {
            lo |= (b as u64) << (8 * k);
        } else {
            hi |= (b as u64) << (8 * (k - 8));
        }
    }
    reflect(_mm_set_epi64x(hi as i64, lo as i64))
}

/// Block `i` of the first `len` bytes of `padded`, as GHASH reads it:
/// loaded whole, a short last block zero-padded by a mask, reflected.
#[inline]
#[target_feature(enable = "sse2,ssse3")]
fn padded_block(padded: &[u8], len: usize, i: usize) -> __m128i {
    // `KEEP[16 - k..32 - k]` is k bytes of ones, then zeros.
    const KEEP: [u8; 32] = {
        let mut keep = [0; 32];
        let mut k = 0;
        while k < 16 {
            keep[k] = 0xff;
            k += 1;
        }
        keep
    };
    let at = 16 * i;
    let block = load(padded[at..at + 16].try_into().expect("a 16-byte range"));
    let block = match len - at {
        16.. => block,
        k => _mm_and_si128(
            block,
            load(KEEP[16 - k..32 - k].try_into().expect("16 bytes")),
        ),
    };
    reflect(block)
}

/// The length block, already in reflected order: bit lengths of the AAD
/// (high half) and the ciphertext (low half).
#[inline]
#[target_feature(enable = "sse2")]
fn length_block(aad_len: usize, ct_len: usize) -> __m128i {
    _mm_set_epi64x((aad_len as u64 * 8) as i64, (ct_len as u64 * 8) as i64)
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
    // Assembled in registers, not in a stack copy read back wider than it
    // was written.
    let (lo, hi) = iv.split_at(8);
    let lo = u64::from_le_bytes(lo.try_into().expect("8 of 12 IV bytes"));
    let hi = u32::from_le_bytes(hi.try_into().expect("4 of 12 IV bytes"));
    let hi = u64::from(hi) | u64::from(ctr.swap_bytes()) << 32;
    _mm_set_epi64x(hi as i64, lo as i64)
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
    let mut state = [block];
    encrypt_group::<1>(rk, &mut state);
    state[0]
}

/// Encrypts `blocks` in place, in groups of [`LANES`], 4, 2 and 1.
#[inline]
#[target_feature(enable = "sse2,aes")]
fn encrypt_blocks(rk: &[__m128i; 11], mut blocks: &mut [__m128i]) {
    while !blocks.is_empty() {
        blocks = match blocks.len() {
            LANES.. => encrypt_group::<LANES>(rk, blocks),
            4.. => encrypt_group::<4>(rk, blocks),
            2.. => encrypt_group::<2>(rk, blocks),
            _ => encrypt_group::<1>(rk, blocks),
        };
    }
}

/// Encrypts the first `N` of `blocks` round by round, so their `N`
/// independent `AESENC` chains overlap in the pipeline; returns the rest.
#[inline]
#[target_feature(enable = "sse2,aes")]
fn encrypt_group<'b, const N: usize>(
    rk: &[__m128i; 11],
    blocks: &'b mut [__m128i],
) -> &'b mut [__m128i] {
    let (group, rest) = blocks.split_at_mut(N);
    for b in group.iter_mut() {
        *b = _mm_xor_si128(*b, rk[0]);
    }
    for k in &rk[1..10] {
        for b in group.iter_mut() {
            *b = _mm_aesenc_si128(*b, *k);
        }
    }
    for b in group.iter_mut() {
        *b = _mm_aesenclast_si128(*b, rk[10]);
    }
    rest
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
