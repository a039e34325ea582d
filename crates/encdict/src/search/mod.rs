//! Dictionary search: the trusted halves of ED1–ED9 query processing.
//!
//! The three order options need three algorithms (paper §4.1):
//!
//! * [`sorted`] — leftmost/rightmost binary search (Algorithm 1), shared by
//!   ED1/ED4/ED7 (repetitions are handled inherently).
//! * [`rotated`] — the special binary search (Algorithms 2 + 3) for
//!   ED2/ED5/ED8 in the order `D[0]` starts, including the equal-boundary
//!   corner case of ED5/ED8.
//! * [`unsorted`] — the linear scan (Algorithm 4) for ED3/ED6/ED9.
//!
//! Sorted and rotated run one binary search, `first_where`, with
//! different predicates.
//!
//! All algorithms are written against the [`DictEntryReader`] abstraction so
//! the *same code* runs inside the enclave (reading + decrypting untrusted
//! ciphertexts) and in PlainDBDB (reading plaintext directly) — mirroring
//! the paper's PlainDBDB baseline, which "uses the same algorithms ...
//! processed without an enclave".

pub mod rotated;
pub mod sorted;
pub mod unsorted;

use crate::error::EncdictError;

/// Read access to dictionary entries during a search.
///
/// `read_into` places the *plaintext* of entry `i` into `buf` (decrypting
/// if the underlying dictionary is encrypted). Using a caller-provided
/// buffer keeps the trusted memory footprint constant regardless of `|D|`.
pub trait DictEntryReader {
    /// Number of dictionary entries.
    fn len(&self) -> usize;

    /// Whether the dictionary is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads entry `i` into `buf` (replacing its contents).
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::Crypto`] if decryption fails (tampered
    /// dictionary) or [`EncdictError::CorruptDictionary`] on layout errors.
    fn read_into(&mut self, i: usize, buf: &mut Vec<u8>) -> Result<(), EncdictError>;

    /// Reads entries `start..start + bufs.len()` into `bufs`, in order —
    /// what a linear scan asks for, so a reader that can serve a run of
    /// entries faster than one at a time overrides it.
    ///
    /// # Errors
    ///
    /// As [`DictEntryReader::read_into`].
    fn read_chunk_into(&mut self, start: usize, bufs: &mut [Vec<u8>]) -> Result<(), EncdictError> {
        for (i, buf) in (start..).zip(bufs) {
            self.read_into(i, buf)?;
        }
        Ok(())
    }
}

/// The first index in `0..len` whose entry satisfies `pred`, or `len` if
/// none does. `pred` must be false up to some index and true from there
/// on; the indices read depend only on `len` and where that switch is.
///
/// # Errors
///
/// Propagates reader failures.
pub(crate) fn first_where<R: DictEntryReader>(
    reader: &mut R,
    len: usize,
    mut pred: impl FnMut(&[u8]) -> bool,
) -> Result<usize, EncdictError> {
    let (mut lo, mut hi) = (0, len);
    let mut buf = Vec::new();
    while lo < hi {
        let mid = (lo + hi) / 2;
        reader.read_into(mid, &mut buf)?;
        if pred(&buf) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Ok(lo)
}

/// An inclusive range of ValueIDs `[lo, hi]` returned by a dictionary
/// search over sorted or rotated dictionaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VidRange {
    /// First matching ValueID.
    pub lo: u32,
    /// Last matching ValueID (inclusive).
    pub hi: u32,
}

impl VidRange {
    /// Creates a range; returns `None` if `lo > hi` (empty).
    pub fn new(lo: u32, hi: u32) -> Option<Self> {
        if lo <= hi {
            Some(VidRange { lo, hi })
        } else {
            None
        }
    }

    /// Number of ValueIDs covered.
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }

    /// Never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether `vid` falls into the range.
    #[inline]
    pub fn contains(&self, vid: u32) -> bool {
        self.lo <= vid && vid <= self.hi
    }
}

/// The result of a dictionary search.
///
/// Sorted and rotated dictionaries return up to two contiguous ValueID
/// ranges (rotated results can wrap around the dictionary end; a dummy
/// `None` is used otherwise, like the paper's `(-1, -1)` dummy range).
/// Unsorted dictionaries return an explicit ValueID list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictSearchResult {
    /// Up to two ValueID ranges (sorted: one; rotated: possibly two).
    Ranges([Option<VidRange>; 2]),
    /// Explicit matching ValueIDs, ascending (unsorted kinds).
    Ids(Vec<u32>),
}

impl DictSearchResult {
    /// An empty result.
    pub fn empty_ranges() -> Self {
        DictSearchResult::Ranges([None, None])
    }

    /// Total number of matching ValueIDs.
    pub fn match_count(&self) -> usize {
        match self {
            DictSearchResult::Ranges(rs) => rs.iter().flatten().map(VidRange::len).sum(),
            DictSearchResult::Ids(ids) => ids.len(),
        }
    }

    /// Materializes all matching ValueIDs (test/diagnostic helper).
    pub fn to_vid_list(&self) -> Vec<u32> {
        match self {
            DictSearchResult::Ranges(rs) => {
                let mut out: Vec<u32> = rs.iter().flatten().flat_map(|r| r.lo..=r.hi).collect();
                out.sort_unstable();
                out
            }
            DictSearchResult::Ids(ids) => ids.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vid_range_construction() {
        assert_eq!(VidRange::new(3, 5), Some(VidRange { lo: 3, hi: 5 }));
        assert_eq!(VidRange::new(5, 5).unwrap().len(), 1);
        assert_eq!(VidRange::new(5, 3), None);
    }

    #[test]
    fn match_count_sums_ranges() {
        let r = DictSearchResult::Ranges([VidRange::new(0, 2), VidRange::new(8, 9)]);
        assert_eq!(r.match_count(), 5);
        assert_eq!(r.to_vid_list(), vec![0, 1, 2, 8, 9]);
        assert_eq!(DictSearchResult::empty_ranges().match_count(), 0);
        assert_eq!(DictSearchResult::Ids(vec![4, 7]).match_count(), 2);
    }
}
