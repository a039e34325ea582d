//! Postings: a main store's attribute vector inverted, so that
//! `AttrVectSearch` costs O(result) rather than O(|AV|) (DESIGN.md §14.1).
//!
//! A main store does not change between merges, and the server holds its
//! attribute vector as plaintext ValueIDs. [`Postings`] is that vector in
//! CSR form: every RecordID grouped by ValueID, plus one offset per
//! ValueID. It is a function of the AV alone, so it needs no encryption
//! and reveals nothing the AV does not; it lives in untrusted memory and
//! is never persisted.
//! [`MainSnapshot::attr_vect_search`](crate::dynamic::MainSnapshot::attr_vect_search)
//! builds it on the first search of its generation.
//!
//! [`Postings::lookup`] turns a search's results into disjoint ValueID
//! intervals and reads their exact match count from the offsets before it
//! touches a row. Above `rows / SCAN_SHARE` matches it declines, and the
//! caller runs the paper's linear scan ([`avsearch::scan`]) instead.
//!
//! [`avsearch::scan`]: crate::avsearch::scan

use crate::search::DictSearchResult;
use colstore::dictionary::{AttributeVector, AvIds, RecordId};
use std::fmt;
use std::ops::Range;

/// Postings answer a search while its match count times this is at most
/// the AV's row count; above that the linear scan is faster. Measured on
/// uniform `u16` AVs, the worst case for the gather's sort (DESIGN.md
/// §14.1): gathering and sorting `rows / 32` matches costs 0.63–0.69 of a
/// 2 M-row scan and 0.41 of a 50 k-row one, `rows / 16` costs 1.4 and 0.9.
pub const SCAN_SHARE: usize = 32;

/// One attribute vector's RecordIDs grouped by ValueID (CSR).
pub struct Postings {
    /// `offsets[v]..offsets[v + 1]` is ValueID `v`'s run in `rids`; one
    /// entry per ValueID up to the AV's largest, plus one.
    offsets: Vec<u32>,
    /// Every RecordID, grouped by ValueID, ascending within a group.
    rids: Vec<u32>,
}

impl Postings {
    /// Inverts `av` by one counting sort. The index is sized by the AV's
    /// largest ValueID + 1, not by its dictionary, so a reply naming an id
    /// past either finds an empty run.
    pub fn build(av: &AttributeVector) -> Self {
        match av.ids() {
            AvIds::U8(ids) => build_width(ids),
            AvIds::U16(ids) => build_width(ids),
            AvIds::U32(ids) => build_width(ids),
        }
    }

    /// Rows indexed: the AV's length.
    pub fn rows(&self) -> usize {
        self.rids.len()
    }

    /// `AttrVectSearch` from the index: the RecordIDs whose ValueID any of
    /// `results` names, ascending and deduplicated as
    /// [`avsearch::scan`](crate::avsearch::scan) returns them — or `None`
    /// when they are more than `rows / SCAN_SHARE`, where the scan is the
    /// faster arm. The count comes from the offsets; no row is read first.
    pub fn lookup(&self, results: &[DictSearchResult]) -> Option<Vec<RecordId>> {
        let runs = self.runs(results);
        let count: usize = runs.iter().map(ExactSizeIterator::len).sum();
        (count * SCAN_SHARE <= self.rows()).then(|| self.gather(&runs, count))
    }

    /// The runs of `rids` that `results` name: every range and id cut to
    /// the indexed ValueIDs (an empty range, `lo > hi` or one past the
    /// index, names none), then sorted and merged where they overlap or
    /// touch. Each row holds one ValueID, so disjoint runs name no row
    /// twice. A sorted or rotated reply gives at most two runs, an id list
    /// one per block of adjacent listed ids.
    fn runs(&self, results: &[DictSearchResult]) -> Vec<Range<usize>> {
        let top = (self.offsets.len() - 1) as u32;
        let mut spans: Vec<(u32, u32)> = Vec::new();
        let mut add = |lo: u32, hi: u32| {
            if lo <= hi && lo < top {
                spans.push((lo, hi.min(top - 1)));
            }
        };
        for result in results {
            match result {
                DictSearchResult::Ranges(rs) => rs.iter().flatten().for_each(|r| add(r.lo, r.hi)),
                DictSearchResult::Ids(vids) => vids.iter().for_each(|&v| add(v, v)),
            }
        }
        spans.sort_unstable();
        let mut merged: Vec<(u32, u32)> = Vec::with_capacity(spans.len());
        for (lo, hi) in spans {
            match merged.last_mut() {
                Some(last) if lo <= last.1 + 1 => last.1 = last.1.max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        (merged.iter())
            .map(|&(lo, hi)| {
                self.offsets[lo as usize] as usize..self.offsets[hi as usize + 1] as usize
            })
            .filter(|run| !run.is_empty())
            .collect()
    }

    /// The RecordIDs of `runs` (`count` in all) in ascending order. Each
    /// run is ascending per ValueID, not across them, so the gathered ids
    /// are sorted; a run of one ValueID is sorted already.
    fn gather(&self, runs: &[Range<usize>], count: usize) -> Vec<RecordId> {
        let mut out = Vec::with_capacity(count);
        for run in runs {
            out.extend(self.rids[run.clone()].iter().map(|&r| RecordId(r)));
        }
        out.sort_unstable();
        out
    }
}

/// The counting sort at one stored width: count per ValueID, prefix-sum
/// the counts into run starts, scatter each row to its run's cursor, and
/// shift the cursors (now run ends) back into starts.
fn build_width<T: Copy + Into<u32>>(ids: &[T]) -> Postings {
    let n_ids = ids
        .iter()
        .map(|&id| id.into())
        .max()
        .map_or(0, |m| m as usize + 1);
    let mut offsets = vec![0u32; n_ids + 1];
    for &id in ids {
        offsets[id.into() as usize + 1] += 1;
    }
    for v in 1..=n_ids {
        offsets[v] += offsets[v - 1];
    }
    let mut rids = vec![0u32; ids.len()];
    for (row, &id) in ids.iter().enumerate() {
        let cursor = &mut offsets[id.into() as usize];
        rids[*cursor as usize] = row as u32;
        *cursor += 1;
    }
    offsets.copy_within(0..n_ids, 1);
    offsets[0] = 0;
    Postings { offsets, rids }
}

/// Sizes only: a main column's index holds millions of entries.
impl fmt::Debug for Postings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Postings")
            .field("ids", &(self.offsets.len() - 1))
            .field("rows", &self.rids.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::avsearch::scan;
    use crate::search::VidRange;
    use colstore::dictionary::ValueId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn av(ids: &[u32]) -> AttributeVector {
        ids.iter().map(|&i| ValueId(i)).collect()
    }

    /// The postings arm with no threshold: every shape, whatever its count.
    fn gathered(p: &Postings, results: &[DictSearchResult]) -> Vec<RecordId> {
        let runs = p.runs(results);
        let count = runs.iter().map(ExactSizeIterator::len).sum();
        p.gather(&runs, count)
    }

    fn range(lo: u32, hi: u32) -> Option<VidRange> {
        Some(VidRange { lo, hi })
    }

    #[test]
    fn build_groups_rows_by_value_id() {
        let p = Postings::build(&av(&[1, 0, 2, 2, 1, 1]));
        assert_eq!(p.offsets, [0, 1, 4, 6]);
        assert_eq!(p.rids, [1, 0, 4, 5, 2, 3]);
        let empty = Postings::build(&AttributeVector::new());
        assert_eq!((empty.offsets.as_slice(), empty.rows()), (&[0u32][..], 0));
        assert_eq!(
            empty.lookup(&[DictSearchResult::Ids(vec![0, 7])]),
            Some(vec![])
        );
    }

    /// Item 27's exit: on random AVs at every stored width, every result
    /// shape — one range, a wrapped pair, a k-range disjunction, id lists,
    /// empty replies, `lo > hi`, ranges and ids past the index and past
    /// the width, mixed shapes — gathers exactly `scan`'s RecordIDs, and
    /// `lookup` answers from the index exactly while the count is within
    /// `rows / SCAN_SHARE`, on both sides of it.
    #[test]
    fn postings_agree_with_the_scan() {
        let mut rng = StdRng::seed_from_u64(54);
        let mut arms = [0usize; 2];
        for (top, width) in [(200u32, 1usize), (3_000, 2), (70_000, 4)] {
            for rows in [0usize, 1, 65, 4_097, 20_000] {
                // Some ids are never stored, and the largest is below `top`,
                // so replies also name ids between the AV's largest and the
                // width's maximum.
                let stored_top = top - top / 10;
                let mut ids: Vec<u32> = (0..rows)
                    .map(|_| rng.gen_range(0..stored_top) & !3)
                    .collect();
                if let Some(first) = ids.first_mut() {
                    *first = top;
                }
                let a = av(&ids);
                let p = Postings::build(&a);
                assert!(rows == 0 || a.id_width() == width, "top {top}");
                let rid = |rng: &mut StdRng, narrow: bool| {
                    let lo = rng.gen_range(0..top + 20);
                    let span = if narrow { 4 } else { top };
                    range(lo, lo.saturating_add(rng.gen_range(0..span)))
                };
                let mut shapes: Vec<Vec<DictSearchResult>> = vec![
                    vec![],
                    vec![DictSearchResult::empty_ranges()],
                    vec![DictSearchResult::Ids(vec![])],
                    vec![DictSearchResult::Ranges([range(9, 4), None])],
                    vec![DictSearchResult::Ranges([range(top + 1, u32::MAX), None])],
                    vec![DictSearchResult::Ranges([range(0, u32::MAX), None])],
                    vec![DictSearchResult::Ids(vec![top + 1, u32::MAX, 1 << 20])],
                    vec![DictSearchResult::Ids(vec![top, top, u32::MAX])],
                ];
                for _ in 0..12 {
                    let narrow = rng.gen_bool(0.7);
                    shapes.push(vec![DictSearchResult::Ranges([
                        rid(&mut rng, narrow),
                        None,
                    ])]);
                    shapes.push(vec![DictSearchResult::Ranges([
                        range(0, rng.gen_range(0..8)),
                        range(top - rng.gen_range(0..8u32), top + 3),
                    ])]);
                    let k = rng.gen_range(3..7);
                    shapes.push(
                        (0..k)
                            .map(|_| {
                                DictSearchResult::Ranges([
                                    rid(&mut rng, true),
                                    rid(&mut rng, narrow),
                                ])
                            })
                            .collect(),
                    );
                    let vids = |rng: &mut StdRng| -> Vec<u32> {
                        let n = rng.gen_range(1..9);
                        (0..n).map(|_| rng.gen_range(0..top + 50)).collect()
                    };
                    shapes.push(vec![
                        DictSearchResult::Ids(vids(&mut rng)),
                        DictSearchResult::Ids(vids(&mut rng)),
                    ]);
                    shapes.push(vec![
                        DictSearchResult::Ranges([rid(&mut rng, true), None]),
                        DictSearchResult::Ids(vids(&mut rng)),
                    ]);
                }
                for results in &shapes {
                    let want = scan(&a, results);
                    let ctx = format!("top {top}, rows {rows}, {results:?}");
                    assert_eq!(gathered(&p, results), want, "{ctx}");
                    match p.lookup(results) {
                        Some(got) => {
                            assert!(want.len() * SCAN_SHARE <= rows, "{ctx}");
                            assert_eq!(got, want, "{ctx}");
                            arms[0] += 1;
                        }
                        None => {
                            assert!(want.len() * SCAN_SHARE > rows, "{ctx}");
                            arms[1] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            arms.iter().all(|&n| n >= 100),
            "postings/scan arms {arms:?}"
        );
    }

    /// Ids the dictionary holds but no row stores, and ids past the AV's
    /// largest, name empty runs: never a panic or a read past `offsets`.
    #[test]
    fn ids_past_the_largest_stored_name_nothing() {
        let p = Postings::build(&av(&[3, 0, 3, 5]));
        assert_eq!(p.offsets.len(), 7);
        let ids = |vids: Vec<u32>| gathered(&p, &[DictSearchResult::Ids(vids)]);
        assert_eq!(ids(vec![1, 2, 4, 6, 255, 256, u32::MAX]), vec![]);
        assert_eq!(ids(vec![5, 6, 7]), vec![RecordId(3)]);
        let ranges = |lo, hi| gathered(&p, &[DictSearchResult::Ranges([range(lo, hi), None])]);
        assert_eq!(ranges(6, u32::MAX), vec![]);
        assert_eq!(ranges(u32::MAX, u32::MAX), vec![]);
        assert_eq!(ranges(4, u32::MAX), vec![RecordId(3)]);
        assert_eq!(ranges(3, 1), vec![]);
    }
}
