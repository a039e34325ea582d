//! PlainDBDB: the plaintext twin of EncDBDB (paper §6.3).
//!
//! "PlainDBDB uses the same algorithms as EncDBDB, but the dictionaries are
//! plaintext and the algorithms are processed without an enclave. We use
//! PlainDBDB as a second baseline to evaluate the performance overhead of
//! encryption and SGX."
//!
//! The search functions here run the exact same [`crate::search`] algorithms
//! through a plaintext [`DictEntryReader`] over the same [`Dictionary`]
//! type, so any latency difference to the encrypted path isolates the
//! crypto + boundary cost. A PLAIN column's main and delta stores are
//! searched here, without an ECALL.

use crate::dict::Dictionary;
use crate::error::EncdictError;
use crate::kind::OrderOption;
use crate::range::RangeQuery;
use crate::search::{rotated, sorted, unsorted, DictEntryReader, DictSearchResult};

/// Plaintext dictionary-entry reader (no decryption, no enclave).
struct PlainDictReader<'a> {
    dict: &'a Dictionary,
}

impl DictEntryReader for PlainDictReader<'_> {
    fn len(&self) -> usize {
        self.dict.len()
    }

    fn read_into(&mut self, i: usize, buf: &mut Vec<u8>) -> Result<(), EncdictError> {
        buf.clear();
        buf.extend_from_slice(self.dict.value(i));
        Ok(())
    }
}

/// PlainDBDB dictionary search: same algorithms, plaintext data, no enclave.
///
/// # Errors
///
/// Never fails: the shared algorithms only propagate their reader's
/// errors, and a plaintext reader has none.
pub fn search_plain(
    dict: &Dictionary,
    range: &RangeQuery,
) -> Result<DictSearchResult, EncdictError> {
    let mut reader = PlainDictReader { dict };
    match dict.kind().order() {
        OrderOption::Sorted => sorted::search_sorted(&mut reader, range),
        OrderOption::Rotated => rotated::search_rotated(&mut reader, range),
        OrderOption::Unsorted => unsorted::search_unsorted(&mut reader, range),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_plain, BuildParams};
    use crate::kind::EdKind;
    use colstore::column::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plain_search_matches_reference_for_all_kinds() {
        let values = ["Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"];
        let col = Column::from_strs("c", 12, values).unwrap();
        let params = BuildParams {
            bs_max: 2,
            ..BuildParams::default()
        };
        let queries = [
            RangeQuery::between("Archie", "Hans"),
            RangeQuery::equals("Jessica"),
            RangeQuery::equals("Nobody"),
            RangeQuery::less_than("Ella"),
            RangeQuery::at_least("Hans"),
        ];
        for (i, kind) in EdKind::ALL.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(50 + i as u64);
            let (dict, _) = build_plain(&col, *kind, &params, &mut rng).unwrap();
            for q in &queries {
                let res = search_plain(&dict, q).unwrap();
                let expected: Vec<u32> = (0..dict.len())
                    .filter(|&j| q.contains(dict.value(j)))
                    .map(|j| j as u32)
                    .collect();
                let mut got = res.to_vid_list();
                got.sort_unstable();
                assert_eq!(got, expected, "kind {kind} query {q:?}");
            }
        }
    }

    #[test]
    fn end_to_end_rids_match_column_scan() {
        // Dictionary search + attribute-vector search must return exactly
        // the rows a direct column scan finds — for every kind.
        use crate::avsearch::scan;
        let values = ["d", "b", "a", "c", "b", "e", "a", "b"];
        let col = Column::from_strs("c", 4, values).unwrap();
        let q = RangeQuery::between("b", "d");
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| q.contains(v.as_bytes()))
            .map(|(j, _)| j as u32)
            .collect();
        for (i, kind) in EdKind::ALL.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(80 + i as u64);
            let (dict, av) = build_plain(&col, *kind, &BuildParams::default(), &mut rng).unwrap();
            let res = search_plain(&dict, &q).unwrap();
            let rids = scan(&av, &[res]);
            let got: Vec<u32> = rids.iter().map(|r| r.0).collect();
            assert_eq!(got, expected, "kind {kind}");
        }
    }
}
