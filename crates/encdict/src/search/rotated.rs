//! Special binary search over rotated dictionaries (paper Algorithms 2 + 3).
//!
//! ED2/ED5/ED8 store a lexicographically sorted dictionary rotated by a
//! secret uniform offset. Algorithm 3 makes binary search possible without
//! leaking the offset through the access pattern: it searches on
//! `t(v) = (ENCODE(v) − ENCODE(D[0])) mod N`, which is monotone along the
//! *rotated* index order, so ordinary leftmost/rightmost binary searches
//! work and their access pattern depends only on `|D|` — not on the offset.
//!
//! `ENCODE` preserves order, so `t` sorts values exactly as the key
//! `(v < D[0], v)` does: first the values at or above `D[0]`, then the
//! values below it, each arc in byte order. The search compares those keys
//! directly — a byte comparison where the paper does 256-bit arithmetic —
//! so it needs no column maximum and takes bounds of any length.
//!
//! The postprocessing of Algorithm 2 then decides whether the matching
//! ValueIDs form one contiguous range or wrap around the dictionary end
//! (two ranges). We branch on the bounds' keys (the start's above the
//! end's ⟺ the range straddles the rotation point), which is equivalent
//! to the paper's offset-based case analysis but needs no extra state.
//!
//! **ED5/ED8 corner case** (paper: "the plaintext value of the last and
//! first entry in D might be equal"): duplicates of `D[0]`'s plaintext that
//! rotate to the *end* of the dictionary come first in the key order and
//! would break its monotonicity along the index order. We strip that
//! trailing run with a bounded backward scan first, binary-search the
//! remaining region, and re-attach the run if its value matches the range.
//! The scan costs `O(dup)` extra loads where `dup` is the boundary value's
//! duplicate count — at most `bs_max` for ED5, and 0 for ED2 (no duplicates
//! exist).

use super::{first_where, DictEntryReader, DictSearchResult, VidRange};
use crate::error::EncdictError;
use crate::range::{RangeBound, RangeQuery};

/// `EnclDictSearch 2/5/8`: dictionary search over a rotated dictionary.
///
/// Returns up to two ValueID ranges; a single-range result carries a dummy
/// `None` in the second slot (the paper returns a `(-1, -1)` dummy range
/// for the same reason — a uniform reply shape).
///
/// # Errors
///
/// Propagates reader failures.
pub fn search_rotated<R: DictEntryReader>(
    reader: &mut R,
    range: &RangeQuery,
) -> Result<DictSearchResult, EncdictError> {
    let dict_len = reader.len();
    if dict_len == 0 || range.is_provably_empty() {
        return Ok(DictSearchResult::empty_ranges());
    }

    // D[0] = PAE_Dec(SK_D, eD[0]) — Algorithm 3 line 2.
    let mut v0 = Vec::new();
    reader.read_into(0, &mut v0)?;

    // Corner case: strip the trailing run of entries equal to D[0]'s value
    // (duplicates wrapped past the rotation point in ED5/ED8).
    let mut tail_dups = 0usize;
    let mut buf = Vec::new();
    while tail_dups + 1 < dict_len {
        reader.read_into(dict_len - 1 - tail_dups, &mut buf)?;
        if buf == v0 {
            tail_dups += 1;
        } else {
            break;
        }
    }
    let region_len = dict_len - tail_dups;

    // Which arc each value and bound lies on: a value and a bound on the
    // same arc compare as bytes, and across arcs the lower arc comes later.
    // An absent start is the empty string; an absent end is +∞, the end
    // of the upper arc.
    let lower = |v: &[u8]| v < v0.as_slice();
    let start_lower = lower(range.start.value());
    let end_lower = range.end != RangeBound::Unbounded && lower(range.end.value());
    let after_start = |v: &[u8]| {
        if lower(v) == start_lower {
            range.after_start(v)
        } else {
            lower(v)
        }
    };
    let past_end = |v: &[u8]| {
        if lower(v) == end_lower {
            !range.before_end(v)
        } else {
            lower(v)
        }
    };
    // The range is not provably empty, so its start's key lies above its
    // end's exactly when the start is on the lower arc and the end is not.
    let straddles = start_lower && !end_lower;

    let mut ranges: Vec<VidRange> = Vec::new();
    if !straddles {
        // The plaintext range does not straddle the rotation point: one
        // contiguous run in rotated index order.
        let lo = first_where(reader, region_len, after_start)?;
        let hi = first_where(reader, region_len, past_end)?;
        if lo < hi {
            ranges.push(VidRange {
                lo: lo as u32,
                hi: (hi - 1) as u32,
            });
        }
    } else {
        // Straddling range: matches are the keys from the start on (top of
        // the region) plus those up to the end (bottom of the region) —
        // Algorithm 2's two-range case.
        let hi = first_where(reader, region_len, past_end)?;
        if hi > 0 {
            ranges.push(VidRange {
                lo: 0,
                hi: (hi - 1) as u32,
            });
        }
        let lo = first_where(reader, region_len, after_start)?;
        if lo < region_len {
            ranges.push(VidRange {
                lo: lo as u32,
                hi: (region_len - 1) as u32,
            });
        }
    }

    // Re-attach the stripped trailing duplicates if their value matches.
    if tail_dups > 0 && range.contains(&v0) {
        let tail_range = VidRange {
            lo: region_len as u32,
            hi: (dict_len - 1) as u32,
        };
        // Merge with an adjacent range ending right before the tail run.
        if let Some(last) = ranges.iter_mut().find(|r| r.hi + 1 == tail_range.lo) {
            last.hi = tail_range.hi;
        } else {
            ranges.push(tail_range);
        }
    }

    debug_assert!(ranges.len() <= 2, "rotated search yields at most 2 ranges");
    let mut out = [None, None];
    for (slot, r) in out.iter_mut().zip(ranges) {
        *slot = Some(r);
    }
    Ok(DictSearchResult::Ranges(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::sorted::tests::VecReader;

    /// Builds a rotated reader: sorts `values`, rotates by `offset`.
    fn rotated(values: &[&str], offset: usize) -> VecReader {
        let mut sorted: Vec<&str> = values.to_vec();
        sorted.sort();
        let n = sorted.len();
        let mut arr = vec![""; n];
        for (j, v) in sorted.iter().enumerate() {
            arr[(j + offset) % n] = v;
        }
        VecReader::new(arr)
    }

    /// Reference: all indices whose value matches the range.
    fn expected(reader: &VecReader, range: &RangeQuery) -> Vec<u32> {
        reader
            .values
            .iter()
            .enumerate()
            .filter(|(_, v)| range.contains(v))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Checks one search against the reference and returns the indices it
    /// read, in order.
    fn check(values: &[&str], offset: usize, range: &RangeQuery) -> Vec<usize> {
        let mut r = rotated(values, offset);
        let res = search_rotated(&mut r, range).unwrap();
        let mut got = res.to_vid_list();
        got.sort_unstable();
        assert_eq!(
            got,
            expected(&r, range),
            "values {values:?} offset {offset} range {range:?}"
        );
        r.probes
    }

    /// FNV-1a over probe sequences, each prefixed by its length: one number
    /// that pins a test's whole access pattern.
    fn digest(sequences: &[Vec<usize>]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for seq in sequences {
            for x in std::iter::once(seq.len()).chain(seq.iter().copied()) {
                for b in (x as u64).to_le_bytes() {
                    h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        h
    }

    #[test]
    fn figure_3c_example() {
        // Figure 3 (c): sorted (Archie, Ella, Hans, Jessica) rotated by 3 →
        // (Ella, Hans, Jessica, Archie).
        let mut r = VecReader::new(["Ella", "Hans", "Jessica", "Archie"]);
        let res = search_rotated(&mut r, &RangeQuery::between("Archie", "Hans")).unwrap();
        let mut got = res.to_vid_list();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 3]); // Ella, Hans, Archie
    }

    #[test]
    fn all_offsets_and_ranges_match_reference() {
        let values = ["apple", "banana", "cherry", "date", "elder", "fig", "grape"];
        let queries = [
            RangeQuery::between("banana", "elder"),
            RangeQuery::between("apple", "grape"),
            RangeQuery::between("a", "z"),
            RangeQuery::equals("date"),
            RangeQuery::equals("missing"),
            RangeQuery::less_than("cherry"),
            RangeQuery::greater_than("date"),
            RangeQuery::at_most("date"),
            RangeQuery::at_least("fig"),
            RangeQuery::between("blueberry", "coconut"),
        ];
        let mut probes = Vec::new();
        for offset in 0..values.len() {
            for q in &queries {
                probes.push(check(&values, offset, q));
            }
        }
        assert_eq!(
            digest(&probes),
            0xa486_569e_48f5_e867,
            "access pattern moved"
        );
    }

    #[test]
    fn wrapped_result_produces_two_ranges() {
        // Sorted a..f rotated by 3: (d e f a b c). Query [b, e] wraps.
        let mut r = rotated(&["a", "b", "c", "d", "e", "f"], 3);
        let res = search_rotated(&mut r, &RangeQuery::between("b", "e")).unwrap();
        match &res {
            DictSearchResult::Ranges([Some(_), Some(_)]) => {}
            other => panic!("expected two ranges, got {other:?}"),
        }
        let mut got = res.to_vid_list();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 4, 5]); // d, e, b, c
    }

    #[test]
    fn duplicates_at_rotation_boundary_ed5_corner_case() {
        // Duplicates of the boundary value split across the wrap point.
        // Sorted: a a b b b c; offset 2 → (b c a a b b): D[0] = "b" and the
        // tail run "b b" equals it.
        let values = ["a", "a", "b", "b", "b", "c"];
        let mut probes = Vec::new();
        for offset in 0..values.len() {
            for q in [
                RangeQuery::equals("b"),
                RangeQuery::equals("a"),
                RangeQuery::between("a", "b"),
                RangeQuery::between("b", "c"),
                RangeQuery::greater_than("b"),
                RangeQuery::less_than("b"),
            ] {
                probes.push(check(&values, offset, &q));
            }
        }
        assert_eq!(
            digest(&probes),
            0xb37e_840d_adc0_ab8d,
            "access pattern moved"
        );
    }

    #[test]
    fn all_equal_dictionary() {
        let values = ["x", "x", "x", "x"];
        for offset in 0..4 {
            check(&values, offset, &RangeQuery::equals("x"));
            check(&values, offset, &RangeQuery::equals("y"));
            check(&values, offset, &RangeQuery::between("a", "z"));
        }
    }

    #[test]
    fn single_entry_dictionary() {
        for q in [RangeQuery::equals("m"), RangeQuery::equals("q")] {
            check(&["m"], 0, &q);
        }
    }

    #[test]
    fn syntactically_empty_range() {
        let mut r = rotated(&["a", "b", "c"], 1);
        let res = search_rotated(&mut r, &RangeQuery::between("z", "a")).unwrap();
        assert_eq!(res.match_count(), 0);
        // Exclusive-equal bounds are empty too.
        let q = RangeQuery {
            start: RangeBound::Inclusive(b"b".to_vec()),
            end: RangeBound::Exclusive(b"b".to_vec()),
        };
        let res = search_rotated(&mut r, &q).unwrap();
        assert_eq!(res.match_count(), 0);
    }

    #[test]
    fn unbounded_queries_wrap_correctly() {
        let values = ["alpha", "beta", "gamma", "delta", "epsilon"];
        let mut probes = Vec::new();
        for offset in 0..values.len() {
            probes.push(check(&values, offset, &RangeQuery::at_least("beta")));
            probes.push(check(&values, offset, &RangeQuery::at_most("delta")));
            let all = RangeQuery {
                start: RangeBound::Unbounded,
                end: RangeBound::Unbounded,
            };
            probes.push(check(&values, offset, &all));
        }
        assert_eq!(
            digest(&probes),
            0x61f1_8069_c1dc_af6d,
            "access pattern moved"
        );
    }

    #[test]
    fn read_count_is_logarithmic_plus_corner_scan() {
        let values: Vec<String> = (0..8192).map(|i| format!("{i:08}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let mut r = rotated(&refs, 3000);
        let _ = search_rotated(&mut r, &RangeQuery::between("00001000", "00002000")).unwrap();
        // 1 read of D[0], 1 corner probe, 2 binary searches of ≤ 14 reads.
        assert!(r.probes.len() <= 2 + 2 * 14, "reads = {}", r.probes.len());
    }

    #[test]
    fn access_pattern_is_offset_independent() {
        // The indices probed by the binary searches must not depend on the
        // secret rotation offset (that is the whole point of Algorithm 3).
        let values: Vec<String> = (0..1024).map(|i| format!("{i:06}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let mut read_counts = std::collections::HashSet::new();
        for offset in [0usize, 1, 97, 511, 1023] {
            let mut r = rotated(&refs, offset);
            let _ = search_rotated(&mut r, &RangeQuery::between("000100", "000200")).unwrap();
            read_counts.insert(r.probes.len());
        }
        // Same dictionary size, same bounds -> identical number of loads
        // regardless of the offset.
        assert_eq!(read_counts.len(), 1, "loads varied: {read_counts:?}");
    }
}
