//! Linear-scan search over unsorted dictionaries (paper Algorithm 4).
//!
//! ED3/ED6/ED9 shuffle the dictionary, so no logarithmic search is
//! possible: every entry is loaded into the enclave, decrypted, and checked
//! against the range. The result is the list of matching ValueIDs.

use super::{DictEntryReader, DictSearchResult};
use crate::error::EncdictError;
use crate::range::RangeQuery;
use encdbdb_crypto::gcm::LANES;

/// `EnclDictSearch 3/6/9`: scans the whole dictionary and returns every
/// ValueID whose plaintext falls into `range`, in ascending ValueID order.
///
/// # Errors
///
/// Propagates reader failures ([`EncdictError::Crypto`] on tampered
/// ciphertexts).
pub fn search_unsorted<R: DictEntryReader>(
    reader: &mut R,
    range: &RangeQuery,
) -> Result<DictSearchResult, EncdictError> {
    let mut results = search_unsorted_multi(reader, std::slice::from_ref(range))?;
    Ok(results.pop().expect("one result per range"))
}

/// Batched [`search_unsorted`]: answers a whole disjunction in *one* pass
/// over the dictionary. Each entry is loaded and decrypted once and tested
/// against every range, so the decrypt cost stays `|D|` instead of
/// `|D| · ranges`. Returns one result per range, in request order.
///
/// The pass reads [`LANES`] entries per
/// [`DictEntryReader::read_chunk_into`] call: one batched GCM kernel call
/// for the enclave's reader.
///
/// # Errors
///
/// As [`search_unsorted`].
pub fn search_unsorted_multi<R: DictEntryReader>(
    reader: &mut R,
    ranges: &[RangeQuery],
) -> Result<Vec<DictSearchResult>, EncdictError> {
    if ranges.is_empty() {
        return Ok(Vec::new());
    }
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); ranges.len()];
    let mut bufs: [Vec<u8>; LANES] = Default::default();
    for start in (0..reader.len()).step_by(LANES) {
        let bufs = &mut bufs[..LANES.min(reader.len() - start)];
        reader.read_chunk_into(start, bufs)?;
        for (i, buf) in (start..).zip(bufs.iter()) {
            for (vids, q) in out.iter_mut().zip(ranges) {
                if q.contains(buf) {
                    vids.push(i as u32);
                }
            }
        }
    }
    Ok(out.into_iter().map(DictSearchResult::Ids).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::sorted::tests::VecReader;

    #[test]
    fn finds_matches_in_shuffled_dictionary() {
        // Figure 3 (d): unsorted dictionary Archie, Hans, Ella, Jessica.
        let mut r = VecReader::new(["Archie", "Hans", "Ella", "Jessica"]);
        let res = search_unsorted(&mut r, &RangeQuery::between("Archie", "Hans")).unwrap();
        assert_eq!(res.to_vid_list(), vec![0, 1, 2]);
    }

    #[test]
    fn scan_touches_every_entry() {
        let mut r = VecReader::new(["q", "a", "z", "m"]);
        let _ = search_unsorted(&mut r, &RangeQuery::equals("a")).unwrap();
        assert_eq!(r.probes.len(), 4, "linear scan must read all |D| entries");
    }

    #[test]
    fn duplicates_all_match() {
        let mut r = VecReader::new(["x", "y", "x", "z", "x"]);
        let res = search_unsorted(&mut r, &RangeQuery::equals("x")).unwrap();
        assert_eq!(res.to_vid_list(), vec![0, 2, 4]);
    }

    #[test]
    fn empty_result_and_empty_dictionary() {
        let mut r = VecReader::new(["a", "b"]);
        assert_eq!(
            search_unsorted(&mut r, &RangeQuery::equals("nope"))
                .unwrap()
                .match_count(),
            0
        );
        let mut empty = VecReader::new(Vec::<&str>::new());
        assert_eq!(
            search_unsorted(&mut empty, &RangeQuery::equals("x"))
                .unwrap()
                .match_count(),
            0
        );
    }

    #[test]
    fn multi_search_single_pass_matches_per_range_scans() {
        let mut r = VecReader::new(["q", "a", "z", "m", "a", "q"]);
        let ranges = [
            RangeQuery::equals("a"),
            RangeQuery::between("m", "q"),
            RangeQuery::equals("nope"),
        ];
        let multi = search_unsorted_multi(&mut r, &ranges).unwrap();
        // One pass: |D| reads total, not |D| per range.
        assert_eq!(r.probes.len(), 6, "batched scan reads each entry once");
        assert_eq!(multi.len(), 3);
        for (res, q) in multi.iter().zip(&ranges) {
            let mut fresh = VecReader::new(["q", "a", "z", "m", "a", "q"]);
            let single = search_unsorted(&mut fresh, q).unwrap();
            assert_eq!(res.to_vid_list(), single.to_vid_list());
        }
        // Empty disjunction: no reads, no results.
        let mut r2 = VecReader::new(["a", "b"]);
        assert!(search_unsorted_multi(&mut r2, &[]).unwrap().is_empty());
    }

    #[test]
    fn exclusive_and_unbounded_bounds() {
        let mut r = VecReader::new(["c", "a", "d", "b"]);
        let res = search_unsorted(&mut r, &RangeQuery::greater_than("b")).unwrap();
        assert_eq!(res.to_vid_list(), vec![0, 2]);
        let res = search_unsorted(&mut r, &RangeQuery::at_most("b")).unwrap();
        assert_eq!(res.to_vid_list(), vec![1, 3]);
    }
}
