//! The plaintext oracle: what every generated statement must return.
//!
//! The generator keeps the plaintext rows it made, answers each statement
//! from them (an ordered value index for ranges and points, a plain fold
//! for aggregates and joins) and stores only a digest with the op: the row
//! count and an FNV-1a checksum over the *sorted* result rows, so the check
//! is independent of the order the program returns rows in. A mismatch, an
//! error or a `BUSY` is a failed op.

use std::collections::BTreeMap;

/// A result row: one plaintext cell per projected column.
pub type Row = Vec<Vec<u8>>;

/// Digest of an expected (or observed) result set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Number of result rows.
    pub rows: u64,
    /// FNV-1a over the sorted rows, cells length-prefixed.
    pub checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Digests a result set. Each cell is hashed behind its length, so
/// `["ab","c"]` and `["a","bc"]` differ.
pub fn digest(rows: &[Row]) -> Expected {
    let mut sorted: Vec<&Row> = rows.iter().collect();
    sorted.sort_unstable();
    let mut h = FNV_OFFSET;
    for row in sorted {
        h = fnv1a(h, &(row.len() as u32).to_le_bytes());
        for cell in row {
            h = fnv1a(h, &(cell.len() as u32).to_le_bytes());
            h = fnv1a(h, cell);
        }
    }
    Expected {
        rows: rows.len() as u64,
        checksum: h,
    }
}

/// The digest of a single-cell, single-row result (affected-row counts,
/// `COUNT(*)`).
pub fn digest_scalar(value: impl ToString) -> Expected {
    digest(&[vec![value.to_string().into_bytes()]])
}

/// An ordered index over one plaintext column: value → the RecordIDs
/// holding it, in insertion order. Ranges and points are answered by a
/// B-tree range walk instead of a scan of the column, which is what makes
/// an oracle for 6 000 ranges over 2 000 000 rows affordable;
/// `colstore::monetdb` (the scan) cross-checks it in the unit tests and is
/// timed as `ref.monetdb_p50_us`.
#[derive(Debug, Default, Clone)]
pub struct ValueIndex {
    by_value: BTreeMap<Vec<u8>, Vec<u32>>,
}

impl ValueIndex {
    /// Indexes `values` (row `i` gets RecordID `i`).
    pub fn build<'a>(values: impl Iterator<Item = &'a [u8]>) -> Self {
        let mut index = ValueIndex::default();
        for (rid, v) in values.enumerate() {
            index.insert(v, rid as u32);
        }
        index
    }

    /// Adds one row.
    pub fn insert(&mut self, value: &[u8], rid: u32) {
        match self.by_value.get_mut(value) {
            Some(rids) => rids.push(rid),
            None => {
                self.by_value.insert(value.to_vec(), vec![rid]);
            }
        }
    }

    /// RecordIDs whose value lies in `[lo, hi]`, grouped by value.
    pub fn range<'a>(&'a self, lo: &[u8], hi: &[u8]) -> impl Iterator<Item = u32> + 'a {
        self.by_value
            .range::<[u8], _>((std::ops::Bound::Included(lo), std::ops::Bound::Included(hi)))
            .flat_map(|(_, rids)| rids.iter().copied())
    }

    /// Number of distinct values.
    #[cfg(test)]
    pub fn uniques(&self) -> usize {
        self.by_value.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::column::Column;
    use colstore::monetdb::MonetColumn;

    fn row(cells: &[&str]) -> Row {
        cells.iter().map(|c| c.as_bytes().to_vec()).collect()
    }

    #[test]
    fn checksum_is_order_independent_and_content_sensitive() {
        let a = digest(&[row(&["x", "1"]), row(&["y", "2"]), row(&["x", "1"])]);
        let b = digest(&[row(&["y", "2"]), row(&["x", "1"]), row(&["x", "1"])]);
        assert_eq!(a, b);
        assert_eq!(a.rows, 3);
        // One cell changed, one row dropped, cell boundary moved.
        assert_ne!(
            a,
            digest(&[row(&["x", "1"]), row(&["y", "3"]), row(&["x", "1"])])
        );
        assert_ne!(
            a.checksum,
            digest(&[row(&["x", "1"]), row(&["y", "2"])]).checksum
        );
        assert_ne!(digest(&[row(&["ab", "c"])]), digest(&[row(&["a", "bc"])]));
        // Known FNV-1a vector: the empty input hashes to the offset basis.
        assert_eq!(digest(&[]).checksum, FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_scalar(7), digest(&[row(&["7"])]));
    }

    #[test]
    fn value_index_agrees_with_the_monetdb_scan() {
        let values = ["d", "a", "c", "b", "c", "e", "a", "c"];
        let column = Column::from_strs("v", 4, values).unwrap();
        let index = ValueIndex::build(column.iter());
        let monet = MonetColumn::ingest(&column);
        for (lo, hi) in [("a", "c"), ("b", "b"), ("c", "z"), ("f", "g"), ("a", "e")] {
            let mut got: Vec<u32> = index.range(lo.as_bytes(), hi.as_bytes()).collect();
            got.sort_unstable();
            let want: Vec<u32> = monet
                .range_search_inclusive(lo.as_bytes(), hi.as_bytes())
                .into_iter()
                .map(|r| r.0)
                .collect();
            assert_eq!(got, want, "range [{lo}, {hi}]");
        }
        assert_eq!(index.uniques(), 5);
    }
}
