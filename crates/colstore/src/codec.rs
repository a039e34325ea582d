//! The one bounded byte codec (DESIGN.md §12 "Byte formats").
//!
//! Every byte that reaches this workspace from outside its trust boundary
//! — a wire frame, a WAL record, a snapshot, a manifest, a dictionary
//! blob — is decoded through [`Reader`], and every such layout is written
//! through [`Writer`]. All integers are little-endian; a byte string is a
//! `u32` or `u64` length followed by the bytes.
//!
//! The reader's contract, proved once by the property test below instead
//! of once per format:
//!
//! * it never panics and never yields a slice outside its input;
//! * a declared length that overruns the input is [`CodecError::Truncated`],
//!   one above the caller's limit is [`CodecError::TooLong`];
//! * **every element count goes through [`Reader::seq32`] or
//!   [`Reader::count64`]**, which refuse a count whose elements, at their
//!   smallest encoded size, cannot fit in what is left (`seq32` is the
//!   count, the reservation and the loop in one). A decoder that sizes
//!   its allocations only by such a count (or by a slice the reader
//!   returned) can reserve no more than a small multiple of its input;
//! * [`Reader::finish`] succeeds iff every byte was consumed.

use std::fmt;

/// How decoding a byte layout failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a field, or before the elements a count
    /// declared.
    Truncated,
    /// A declared length is above the limit the caller allows.
    TooLong,
    /// Input was left over after the layout ended.
    Trailing,
}

impl CodecError {
    /// A static description, for error types that carry a `&'static str`.
    pub fn what(self) -> &'static str {
        match self {
            CodecError::Truncated => "truncated",
            CodecError::TooLong => "declared length over its limit",
            CodecError::Trailing => "trailing bytes",
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.what())
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over untrusted bytes. Holds only the part not
/// yet consumed, so there is no position arithmetic to get wrong.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { rest: bytes }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.rest.len() {
            return Err(CodecError::Truncated);
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u32`-prefixed byte string of at most `max` bytes.
    #[inline]
    pub fn bytes32(&mut self, max: usize) -> Result<&'a [u8], CodecError> {
        let len = self.u32()?;
        self.prefixed(u64::from(len), max)
    }

    /// A `u64`-prefixed byte string of at most `max` bytes.
    #[inline]
    pub fn bytes64(&mut self, max: usize) -> Result<&'a [u8], CodecError> {
        let len = self.u64()?;
        self.prefixed(len, max)
    }

    #[inline]
    fn prefixed(&mut self, len: u64, max: usize) -> Result<&'a [u8], CodecError> {
        match usize::try_from(len) {
            Ok(len) if len <= max => self.take(len),
            _ => Err(CodecError::TooLong),
        }
    }

    /// A `u64` element count, each element at least `min_elem_bytes` long
    /// in its encoding.
    #[inline]
    pub fn count64(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u64()?;
        self.fits(n, min_elem_bytes)
    }

    /// The count rule: `n` elements of `min_elem_bytes` each must fit in
    /// what is left.
    #[inline]
    fn fits(&self, n: u64, min_elem_bytes: usize) -> Result<usize, CodecError> {
        assert!(min_elem_bytes > 0, "every encoded element has a size");
        match usize::try_from(n) {
            Ok(n) if n <= self.rest.len() / min_elem_bytes => Ok(n),
            _ => Err(CodecError::Truncated),
        }
    }

    /// A `u32` count and that many elements, each read by `elem` and at
    /// least `min_elem_bytes` long — the one place a decoder's `Vec` is
    /// reserved, after the count met the rule.
    #[inline]
    pub fn seq32<T, E: From<CodecError>>(
        &mut self,
        min_elem_bytes: usize,
        mut elem: impl FnMut(&mut Self) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let n = self.u32()?;
        let n = self.fits(u64::from(n), min_elem_bytes)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }

    /// Ends the layout: every byte must have been consumed.
    #[inline]
    pub fn finish(self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Trailing)
        }
    }
}

/// The writing half: little-endian integers and length-prefixed byte
/// strings appended to a growing buffer.
pub trait Writer {
    /// Appends raw bytes.
    fn put(&mut self, bytes: &[u8]);

    /// One byte.
    fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// A little-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put(&v.to_le_bytes());
    }

    /// A little-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }

    /// A little-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }

    /// An element count or length as a `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit: the layout cannot express it, and a
    /// wrapped length would corrupt everything after it.
    fn put_len32(&mut self, n: usize) {
        self.put_u32(u32::try_from(n).expect("a u32-prefixed length fits in u32"));
    }

    /// A `u32` count and the elements, each written by `elem` — what
    /// [`Reader::seq32`] reads back.
    fn put_seq32<T>(&mut self, items: &[T], mut elem: impl FnMut(&mut Self, &T))
    where
        Self: Sized,
    {
        self.put_len32(items.len());
        for item in items {
            elem(self, item);
        }
    }

    /// A `u32`-prefixed byte string.
    fn put_bytes32(&mut self, bytes: &[u8]) {
        self.put_len32(bytes.len());
        self.put(bytes);
    }

    /// A `u64`-prefixed byte string.
    fn put_bytes64(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.put(bytes);
    }
}

impl Writer for Vec<u8> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn written_layouts_read_back() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16(0x0102);
        buf.put_u32(0x0304_0506);
        buf.put_u64(0x0708_090A_0B0C_0D0E);
        buf.put_bytes32(b"abc");
        buf.put_bytes64(b"");
        buf.put_seq32(&[9u8, 9], |buf, &b| buf.put_u8(b));
        assert_eq!(&buf[..3], &[7, 0x02, 0x01], "little-endian");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0x0102));
        assert_eq!(r.u32(), Ok(0x0304_0506));
        assert_eq!(r.u64(), Ok(0x0708_090A_0B0C_0D0E));
        assert_eq!(r.bytes32(3), Ok(&b"abc"[..]));
        assert_eq!(r.bytes64(0), Ok(&b""[..]));
        assert_eq!(r.seq32(1, |r| r.u8()), Ok(vec![9u8, 9]));
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn each_error_has_its_cause() {
        let mut r = Reader::new(&[5, 0, 0, 0, b'a']);
        assert_eq!(r.bytes32(usize::MAX), Err(CodecError::Truncated));
        let mut r = Reader::new(&[5, 0, 0, 0, b'a', b'b', b'c', b'd', b'e']);
        assert_eq!(r.bytes32(4), Err(CodecError::TooLong));
        let mut r = Reader::new(&[0xFF; 8]);
        assert_eq!(r.bytes64(1 << 20), Err(CodecError::TooLong));
        assert_eq!(Reader::new(&[0]).finish(), Err(CodecError::Trailing));
        assert_eq!(Reader::new(&[1, 2, 3]).u32(), Err(CodecError::Truncated));
    }

    #[test]
    fn a_count_is_bounded_by_what_is_left() {
        // 2^32 - 1 elements declared, eight bytes behind the count.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 8]);
        let lie = Reader::new(&bytes).seq32(1, |r| r.u8());
        assert_eq!(lie, Err::<Vec<u8>, _>(CodecError::Truncated));
        let mut two = 2u32.to_le_bytes().to_vec();
        two.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&two).seq32(4, |r| r.u32()), Ok(vec![0u32, 0]));
        let short = Reader::new(&two).seq32(5, |r| r.take(5));
        assert_eq!(short, Err::<Vec<&[u8]>, _>(CodecError::Truncated));
        let mut three = 3u64.to_le_bytes().to_vec();
        three.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&three).count64(2), Ok(3));
        assert_eq!(Reader::new(&three).count64(3), Err(CodecError::Truncated));
        let mut wide = u64::MAX.to_le_bytes().to_vec();
        wide.extend_from_slice(&[0; 8]);
        assert_eq!(Reader::new(&wide).count64(1), Err(CodecError::Truncated));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The safety proof every format decoder leans on: arbitrary bytes
        /// under an arbitrary script of reader calls.
        #[test]
        fn reader_is_safe_on_arbitrary_bytes_and_scripts(
            chunks in prop::collection::vec(
                (0u8..3, any::<u8>(), prop::collection::vec(any::<u8>(), 0..6)),
                0..24,
            ),
            script in prop::collection::vec((0u8..9, any::<u64>(), any::<bool>()), 0..24),
        ) {
            // Raw bytes between small little-endian words, so that length
            // prefixes and counts are often in range.
            let mut input = Vec::new();
            for (kind, word, raw) in &chunks {
                match kind {
                    0 => input.put(raw),
                    1 => input.put_u32(u32::from(word % 12)),
                    _ => input.put_u64(u64::from(word % 12)),
                }
            }
            let span = input.as_ptr_range();
            let mut r = Reader::new(&input);
            let mut consumed = 0usize;
            let mut failed = false;
            for &(op, arg, small) in &script {
                let arg = if small { (arg % 48) as usize } else { arg as usize };
                let before = r.remaining();
                prop_assert_eq!(before, input.len() - consumed);
                // Every call either fails or yields (bytes consumed, slice).
                let outcome: Result<(usize, Option<&[u8]>), CodecError> = match op {
                    0 => r.take(arg).map(|s| (s.len(), Some(s))),
                    1 => r.u8().map(|_| (1, None)),
                    2 => r.u16().map(|_| (2, None)),
                    3 => r.u32().map(|_| (4, None)),
                    4 => r.u64().map(|_| (8, None)),
                    5 => r.bytes32(arg).map(|s| {
                        assert!(s.len() <= arg);
                        (4 + s.len(), Some(s))
                    }),
                    6 => r.bytes64(arg).map(|s| {
                        assert!(s.len() <= arg);
                        (8 + s.len(), Some(s))
                    }),
                    7 => {
                        let min = arg.max(1);
                        r.count64(min).map(|n| {
                            assert!(n <= (before - 8) / min, "count {n} over the rule");
                            (8, None)
                        })
                    }
                    8 => {
                        let min = arg.max(1);
                        r.seq32(min, |r| r.take(min)).map(|elems| {
                            assert!(elems.len() <= (before - 4) / min);
                            assert!(elems.iter().all(|e| e.len() == min));
                            (4 + elems.len() * min, None)
                        })
                    }
                    _ => unreachable!(),
                };
                match outcome {
                    Ok((used, slice)) => {
                        if let Some(s) = slice {
                            let got = s.as_ptr_range();
                            prop_assert!(span.start <= got.start && got.end <= span.end);
                            prop_assert_eq!(s, &input[consumed + used - s.len()..consumed + used]);
                        }
                        consumed += used;
                        prop_assert!(consumed <= input.len());
                    }
                    // A decoder stops at its first error; so does the script.
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
            if !failed {
                prop_assert_eq!(r.finish().is_ok(), consumed == input.len());
            }
        }
    }
}
