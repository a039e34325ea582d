//! Binary search over sorted dictionaries (paper Algorithm 1).
//!
//! `EnclDictSearch 1` performs one *leftmost* and one *rightmost* binary
//! search to find where the range starts (`vid_min`) and ends (`vid_max`).
//! ED4 and ED7 reuse it unchanged because "leftmost and rightmost binary
//! searches inherently handle repetitions".

use super::{first_where, DictEntryReader, DictSearchResult, VidRange};
use crate::error::EncdictError;
use crate::range::RangeQuery;

/// `EnclDictSearch 1/4/7`: dictionary search over a sorted dictionary.
///
/// Returns a single ValueID range (plus a dummy slot, like the paper's
/// implementation returns a dummy range to keep the reply shape uniform).
///
/// # Errors
///
/// Propagates reader failures ([`EncdictError::Crypto`] on tampered
/// ciphertexts).
pub fn search_sorted<R: DictEntryReader>(
    reader: &mut R,
    range: &RangeQuery,
) -> Result<DictSearchResult, EncdictError> {
    if reader.is_empty() {
        return Ok(DictSearchResult::empty_ranges());
    }
    // The leftmost and rightmost binary searches; `vid_end` is exclusive.
    let len = reader.len();
    let vid_min = first_where(reader, len, |v| range.after_start(v))?;
    let vid_end = first_where(reader, len, |v| !range.before_end(v))?;
    if vid_min >= vid_end {
        return Ok(DictSearchResult::empty_ranges());
    }
    Ok(DictSearchResult::Ranges([
        VidRange::new(vid_min as u32, (vid_end - 1) as u32),
        None,
    ]))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::range::RangeBound;

    /// A plain in-memory reader for algorithm tests; `probes` records the
    /// index of every read, in order — the search's access pattern.
    pub(crate) struct VecReader {
        pub values: Vec<Vec<u8>>,
        pub probes: Vec<usize>,
    }

    impl VecReader {
        pub(crate) fn new<S: AsRef<[u8]>>(values: impl IntoIterator<Item = S>) -> Self {
            VecReader {
                values: values.into_iter().map(|v| v.as_ref().to_vec()).collect(),
                probes: Vec::new(),
            }
        }
    }

    impl DictEntryReader for VecReader {
        fn len(&self) -> usize {
            self.values.len()
        }
        fn read_into(&mut self, i: usize, buf: &mut Vec<u8>) -> Result<(), EncdictError> {
            self.probes.push(i);
            buf.clear();
            buf.extend_from_slice(&self.values[i]);
            Ok(())
        }
    }

    fn vids(r: &DictSearchResult) -> Vec<u32> {
        r.to_vid_list()
    }

    #[test]
    fn closed_range_on_fig3_dictionary() {
        // Sorted dictionary of Figure 3 (b): Archie, Ella, Hans, Jessica.
        let mut r = VecReader::new(["Archie", "Ella", "Hans", "Jessica"]);
        let res = search_sorted(&mut r, &RangeQuery::between("Archie", "Hans")).unwrap();
        assert_eq!(vids(&res), vec![0, 1, 2]);
    }

    #[test]
    fn equality_and_absent_values() {
        let mut r = VecReader::new(["a", "c", "e", "g"]);
        assert_eq!(
            vids(&search_sorted(&mut r, &RangeQuery::equals("c")).unwrap()),
            vec![1]
        );
        // Absent value inside the domain.
        assert_eq!(
            search_sorted(&mut r, &RangeQuery::equals("d"))
                .unwrap()
                .match_count(),
            0
        );
        // Range entirely outside.
        assert_eq!(
            search_sorted(&mut r, &RangeQuery::between("x", "z"))
                .unwrap()
                .match_count(),
            0
        );
    }

    #[test]
    fn range_with_absent_endpoints_snaps_inward() {
        let mut r = VecReader::new(["b", "d", "f"]);
        // [a, e] matches b and d even though neither endpoint exists.
        assert_eq!(
            vids(&search_sorted(&mut r, &RangeQuery::between("a", "e")).unwrap()),
            vec![0, 1]
        );
    }

    #[test]
    fn exclusive_bounds() {
        let mut r = VecReader::new(["a", "b", "c", "d"]);
        let q = RangeQuery {
            start: RangeBound::Exclusive(b"a".to_vec()),
            end: RangeBound::Exclusive(b"d".to_vec()),
        };
        assert_eq!(vids(&search_sorted(&mut r, &q).unwrap()), vec![1, 2]);
    }

    #[test]
    fn unbounded_sides() {
        let mut r = VecReader::new(["a", "b", "c"]);
        assert_eq!(
            vids(&search_sorted(&mut r, &RangeQuery::at_most("b")).unwrap()),
            vec![0, 1]
        );
        assert_eq!(
            vids(&search_sorted(&mut r, &RangeQuery::at_least("b")).unwrap()),
            vec![1, 2]
        );
        let all = RangeQuery {
            start: RangeBound::Unbounded,
            end: RangeBound::Unbounded,
        };
        assert_eq!(vids(&search_sorted(&mut r, &all).unwrap()), vec![0, 1, 2]);
    }

    #[test]
    fn repetitions_are_covered_ed4_ed7_style() {
        // ED4/ED7 dictionaries contain repeated plaintexts; the leftmost /
        // rightmost searches must cover the whole run.
        let mut r = VecReader::new(["a", "b", "b", "b", "c"]);
        assert_eq!(
            vids(&search_sorted(&mut r, &RangeQuery::equals("b")).unwrap()),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn read_count_is_logarithmic() {
        let values: Vec<String> = (0..4096).map(|i| format!("{i:08}")).collect();
        let mut r = VecReader::new(values);
        let _ = search_sorted(&mut r, &RangeQuery::between("00001000", "00001999")).unwrap();
        // Two binary searches over 4096 entries: ~2 * 12 reads, certainly
        // far below a linear scan.
        assert!(r.probes.len() <= 2 * 13, "reads = {}", r.probes.len());
    }

    #[test]
    fn empty_dictionary() {
        let mut r = VecReader::new(Vec::<&str>::new());
        assert_eq!(
            search_sorted(&mut r, &RangeQuery::between("a", "z"))
                .unwrap()
                .match_count(),
            0
        );
    }
}
