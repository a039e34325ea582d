//! The untrusted half of grouped aggregation: reducing matching rows to a
//! **ValueID-tuple histogram**, entirely on ValueIDs in untrusted memory.
//!
//! The attribute vectors of the referenced columns are scanned in
//! [`CHUNK_ROWS`]-row batches on the calling thread (the server fans out
//! one call per partition); each batch counts how often every distinct tuple of
//! per-column codes occurs among the matching rows. Codes address the
//! concatenated main + delta value space of a column: a code below the
//! main dictionary length is a main-store ValueID, anything above is a
//! delta row. Only the *distinct* codes ever reach a decryption — the
//! frequency weighting replaces per-row work.

use crate::error::DbError;
use colstore::delta::DeltaStore;
use colstore::dictionary::{AttributeVector, RecordId};
use encdict::PlainDictionary;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};

/// Rows per histogram batch (one vectorized execution unit).
pub const CHUNK_ROWS: usize = 4096;

/// Upper bound on the single-column code space for the dense
/// (array-indexed) counting fast path — 64 Ki codes = a 512 KiB counts
/// array.
const DENSE_CODE_SPACE: usize = 1 << 16;

thread_local! {
    /// Reused per-worker gather buffer (row-major code tuples of one
    /// chunk): the scan allocates once per thread, not once per chunk or
    /// per query (DESIGN.md §14).
    static CODE_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The code source of one referenced column.
#[derive(Debug, Clone, Copy)]
pub struct ColumnCodes<'a> {
    /// The column's main-store attribute vector.
    pub av: &'a AttributeVector,
    /// Main dictionary length — the offset of the delta code space.
    pub main_len: usize,
}

/// The histogram of one aggregate query plus scan accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Distinct code tuples (one code per referenced column) and how many
    /// matching rows carry each.
    pub tuples: Vec<(Vec<u32>, u64)>,
    /// Number of row chunks scanned.
    pub chunks: usize,
}

/// Rejects a column whose concatenated main + delta code space exceeds
/// `u32`: the delta code `main_len + rid` would silently wrap and alias
/// two distinct values into one histogram bucket or join key. Checked
/// once up front so the per-row kernels can add without branching.
pub(crate) fn check_code_space(
    cols: &[ColumnCodes<'_>],
    delta_rids: &[RecordId],
) -> Result<(), DbError> {
    let Some(max_rid) = delta_rids.iter().map(|r| r.0).max() else {
        return Ok(());
    };
    for col in cols {
        if col.main_len as u64 + max_rid as u64 > u32::MAX as u64 {
            return Err(DbError::CodeSpaceOverflow {
                main_len: col.main_len,
                delta_rid: max_rid,
            });
        }
    }
    Ok(())
}

/// Resolves the distinct touched codes of a PLAIN column to their values
/// (main dictionary below `dict.len()`, delta rows above).
pub(crate) fn resolve_plain(
    dict: &PlainDictionary,
    delta: &DeltaStore,
    codes: &[u32],
) -> Vec<Vec<u8>> {
    codes
        .iter()
        .map(|&code| {
            if (code as usize) < dict.len() {
                dict.value(code as usize).to_vec()
            } else {
                delta.value(RecordId(code - dict.len() as u32)).to_vec()
            }
        })
        .collect()
}

fn count_chunk(
    cols: &[ColumnCodes<'_>],
    rids: &[RecordId],
    delta: bool,
    into: &mut HashMap<Vec<u32>, u64>,
) {
    let ncols = cols.len();
    if ncols == 0 {
        // Pure COUNT(*): every row contributes to the empty tuple.
        *into.entry(Vec::new()).or_insert(0) += rids.len() as u64;
        return;
    }
    CODE_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.resize(rids.len() * ncols, 0);
        // Branch-free gather, one tight column-at-a-time pass: the
        // delta/main decision and the code arithmetic hoist out of the
        // per-row loop, leaving a pure strided gather the compiler can
        // unroll/vectorize. Wrap-safety of `main_len + rid` was proven by
        // `check_code_space`.
        for (c, col) in cols.iter().enumerate() {
            if delta {
                let base = col.main_len as u32;
                for (j, &rid) in rids.iter().enumerate() {
                    buf[j * ncols + c] = base + rid.0;
                }
            } else {
                col.av.gather(rids, |j, code| buf[j * ncols + c] = code);
            }
        }
        // Probe with the gathered row-major tuples and only clone on
        // first sight, keeping allocations at O(distinct tuples).
        for tuple in buf.chunks_exact(ncols) {
            match into.get_mut(tuple) {
                Some(n) => *n += 1,
                None => {
                    into.insert(tuple.to_vec(), 1);
                }
            }
        }
    });
}

/// Dense counting kernel for one chunk: a single scatter-add per row into
/// a direct-indexed counts array — no hashing, no tuple allocation.
#[inline]
fn dense_count_chunk(col: ColumnCodes<'_>, rids: &[RecordId], delta: bool, counts: &mut [u64]) {
    if delta {
        let base = col.main_len;
        for &rid in rids {
            counts[base + rid.0 as usize] += 1;
        }
    } else {
        col.av.gather(rids, |_, code| counts[code as usize] += 1);
    }
}

/// Single-column fast path over a bounded code space: one dense `u64`
/// counts array. Output order (ascending code) matches the generic path's
/// tuple sort exactly.
fn dense_histogram_single(
    col: ColumnCodes<'_>,
    chunks: &[(&[RecordId], bool)],
    space: usize,
) -> Histogram {
    let mut counts = vec![0u64; space];
    for (rids, delta) in chunks {
        dense_count_chunk(col, rids, *delta, &mut counts);
    }
    let tuples = counts
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(code, &n)| (vec![code as u32], n))
        .collect();
    Histogram {
        tuples,
        chunks: chunks.len(),
    }
}

/// Builds the ValueID-tuple histogram over the matching main and delta
/// rows, scanning in [`CHUNK_ROWS`]-row chunks. The result is
/// deterministic (sorted by tuple).
///
/// # Errors
///
/// Returns [`DbError::CodeSpaceOverflow`] when a column's concatenated
/// main + delta code space does not fit in `u32`.
pub fn build_histogram(
    cols: &[ColumnCodes<'_>],
    main_rids: &[RecordId],
    delta_rids: &[RecordId],
) -> Result<Histogram, DbError> {
    check_code_space(cols, delta_rids)?;
    let chunks: Vec<(&[RecordId], bool)> = main_rids
        .chunks(CHUNK_ROWS)
        .map(|c| (c, false))
        .chain(delta_rids.chunks(CHUNK_ROWS).map(|c| (c, true)))
        .collect();

    if let [col] = cols {
        let space = col.main_len
            + delta_rids
                .iter()
                .map(|r| r.0 as usize + 1)
                .max()
                .unwrap_or(0);
        if space <= DENSE_CODE_SPACE {
            return Ok(dense_histogram_single(*col, &chunks, space));
        }
    }

    let mut merged: HashMap<Vec<u32>, u64> = HashMap::new();
    for (rids, delta) in &chunks {
        count_chunk(cols, rids, *delta, &mut merged);
    }
    let mut tuples: Vec<(Vec<u32>, u64)> = merged.into_iter().collect();
    tuples.sort_unstable();
    Ok(Histogram {
        tuples,
        chunks: chunks.len(),
    })
}

/// A histogram with per-column codes remapped to dense value-table
/// indices: `codes[c]` lists the distinct touched codes of column `c`
/// (ascending), and every tuple entry indexes into that list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Remapped {
    /// Distinct touched codes per referenced column, ascending.
    pub codes: Vec<Vec<u32>>,
    /// Tuples rewritten to value-table indices, with frequencies.
    pub tuples: Vec<(Vec<u32>, u64)>,
}

/// Collects the distinct codes of each column and rewrites the histogram
/// tuples to indices into those per-column lists — the value tables only
/// ever hold one entry per distinct touched ValueID.
pub fn remap_codes(ncols: usize, tuples: Vec<(Vec<u32>, u64)>) -> Remapped {
    let mut distinct: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); ncols];
    for (tuple, _) in &tuples {
        for (c, &code) in tuple.iter().enumerate() {
            distinct[c].insert(code);
        }
    }
    let codes: Vec<Vec<u32>> = distinct
        .into_iter()
        .map(|s| s.into_iter().collect())
        .collect();
    let index: Vec<HashMap<u32, u32>> = codes
        .iter()
        .map(|list| {
            list.iter()
                .enumerate()
                .map(|(i, &code)| (code, i as u32))
                .collect()
        })
        .collect();
    let tuples = tuples
        .into_iter()
        .map(|(tuple, n)| {
            let mapped = tuple
                .iter()
                .enumerate()
                .map(|(c, code)| index[c][code])
                .collect();
            (mapped, n)
        })
        .collect();
    Remapped { codes, tuples }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rids(v: &[u32]) -> Vec<RecordId> {
        v.iter().map(|&i| RecordId(i)).collect()
    }

    fn av(ids: impl IntoIterator<Item = u32>) -> AttributeVector {
        ids.into_iter().map(colstore::dictionary::ValueId).collect()
    }

    #[test]
    fn histogram_counts_tuples_and_offsets_delta() {
        // Two columns over 6 main rows; delta rows get codes main_len + rid.
        let av_a = av([0, 1, 0, 1, 0, 2]);
        let av_b = av([5, 5, 5, 6, 5, 6]);
        let cols = [
            ColumnCodes {
                av: &av_a,
                main_len: 3,
            },
            ColumnCodes {
                av: &av_b,
                main_len: 7,
            },
        ];
        let h = build_histogram(&cols, &rids(&[0, 2, 3, 4]), &rids(&[0, 1])).unwrap();
        assert_eq!(
            h.tuples,
            vec![
                (vec![0, 5], 3), // rows 0, 2, 4
                (vec![1, 6], 1), // row 3
                (vec![3, 7], 1), // delta row 0 -> codes (3+0, 7+0)
                (vec![4, 8], 1), // delta row 1
            ]
        );
        assert_eq!(h.chunks, 2); // one main chunk + one delta chunk
    }

    #[test]
    fn zero_columns_still_counts_rows() {
        let h = build_histogram(&[], &rids(&[0, 1, 2]), &rids(&[0])).unwrap();
        assert_eq!(h.tuples, vec![(vec![], 4)]);
    }

    #[test]
    fn code_space_overflow_is_a_typed_error_not_a_wrap() {
        // A main dictionary this long leaves no room for delta rid 1:
        // main_len + 1 == 2^32, one past u32::MAX. Before the check this
        // wrapped to code 0 and aliased the delta row into main value 0.
        let av = av([0]);
        let cols = [ColumnCodes {
            av: &av,
            main_len: u32::MAX as usize,
        }];
        let err = build_histogram(&cols, &rids(&[0]), &rids(&[0, 1])).unwrap_err();
        assert_eq!(
            err,
            DbError::CodeSpaceOverflow {
                main_len: u32::MAX as usize,
                delta_rid: 1,
            }
        );

        // One row less and the space fits exactly: the last delta code is
        // u32::MAX itself, which must succeed.
        let h = build_histogram(&cols, &rids(&[0]), &rids(&[0])).unwrap();
        assert_eq!(
            h.tuples,
            vec![(vec![0], 1), (vec![u32::MAX], 1)],
            "boundary code u32::MAX is valid and distinct from main code 0"
        );
    }

    #[test]
    fn dense_single_column_path_matches_generic() {
        // Single column, small code space: exercises the dense fast path
        // and pins its output against the generic hash-map path (forced by
        // adding a second identical column, whose tuples we project away).
        let av = av((0..10_000).map(|i| (i * 7) % 251));
        let cols = [ColumnCodes {
            av: &av,
            main_len: 251,
        }];
        let wide = [cols[0], cols[0]];
        let main: Vec<RecordId> = (0..10_000).step_by(3).map(RecordId).collect();
        let delta = rids(&[0, 5, 9]);
        let dense = build_histogram(&cols, &main, &delta).unwrap();
        let generic = build_histogram(&wide, &main, &delta).unwrap();
        let projected: Vec<(Vec<u32>, u64)> = generic
            .tuples
            .iter()
            .map(|(t, n)| (vec![t[0]], *n))
            .collect();
        assert_eq!(dense.tuples, projected);
        assert_eq!(dense.chunks, generic.chunks);
    }

    #[test]
    fn remap_produces_dense_indices() {
        let tuples = vec![(vec![10, 100], 2), (vec![7, 100], 1), (vec![10, 90], 4)];
        let r = remap_codes(2, tuples);
        assert_eq!(r.codes, vec![vec![7, 10], vec![90, 100]]);
        assert_eq!(
            r.tuples,
            vec![(vec![1, 1], 2), (vec![0, 1], 1), (vec![1, 0], 4)]
        );
    }
}
