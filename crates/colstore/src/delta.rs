//! Validity for the delta store (differential buffer) of dynamic data.
//!
//! Paper §4.3: each column is split into a read-optimized *main store* and a
//! write-optimized *delta store*. Inserts append to the delta; updates
//! append the new value and invalidate the old row via a *validity vector*;
//! deletes just invalidate. Reads run on both stores and merge results
//! while checking validity. Periodic merges fold the delta into the main
//! store to keep reads fast.
//!
//! This module provides the [`ValidityVector`]; the delta store itself —
//! an ED9 dictionary for every column, encrypted or PLAIN — lives in
//! `encdict::dynamic`, and the owner of a row space — one validity vector
//! per store side, every state transition — is the server's partition.

/// A bitmap recording which rows of a store are valid.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidityVector {
    bits: Vec<u64>,
    len: usize,
}

impl ValidityVector {
    /// Creates a validity vector of `len` rows, all valid.
    pub fn all_valid(len: usize) -> Self {
        ValidityVector {
            bits: vec![u64::MAX; len.div_ceil(64)],
            len,
        }
    }

    /// Number of rows tracked.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows are tracked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one row with the given validity.
    pub fn push(&mut self, valid: bool) {
        let idx = self.len;
        if idx / 64 >= self.bits.len() {
            self.bits.push(0);
        }
        if valid {
            self.bits[idx / 64] |= 1 << (idx % 64);
        } else {
            self.bits[idx / 64] &= !(1 << (idx % 64));
        }
        self.len += 1;
    }

    /// Whether row `i` is valid.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "validity index {i} out of bounds {}",
            self.len
        );
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Marks row `i` invalid (a delete, or the old version of an update).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn invalidate(&mut self, i: usize) {
        assert!(
            i < self.len,
            "validity index {i} out of bounds {}",
            self.len
        );
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// The validity of rows `0..n` as a fresh vector — the frozen validity
    /// of a delta prefix captured at a compaction watermark.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn prefix(&self, n: usize) -> ValidityVector {
        assert!(n <= self.len, "prefix {n} out of bounds {}", self.len);
        let mut out = ValidityVector {
            bits: self.bits.clone(),
            len: self.len,
        };
        out.bits.truncate(n.div_ceil(64));
        out.len = n;
        // Clear the bits past `n` in the last word so equality and future
        // pushes see a canonical representation.
        let rem = n % 64;
        if rem > 0 {
            if let Some(w) = out.bits.last_mut() {
                *w &= (1u64 << rem) - 1;
            }
        }
        out
    }

    /// The validity of rows `from..len()` as a fresh vector — used when a
    /// compaction consumes a delta prefix and the remaining suffix becomes
    /// the new delta (row `from + i` becomes row `i`).
    ///
    /// # Panics
    ///
    /// Panics if `from > len()`.
    pub fn suffix(&self, from: usize) -> ValidityVector {
        assert!(
            from <= self.len,
            "suffix start {from} out of bounds {}",
            self.len
        );
        let mut out = ValidityVector::default();
        for i in from..self.len {
            out.push(self.is_valid(i));
        }
        out
    }

    /// Number of valid rows.
    pub fn count_valid(&self) -> usize {
        let full = self.len / 64;
        let mut n: usize = self.bits[..full]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = self.len % 64;
        if rem > 0 {
            let mask = (1u64 << rem) - 1;
            n += (self.bits[full] & mask).count_ones() as usize;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_push_and_check() {
        let mut v = ValidityVector::default();
        for i in 0..130 {
            v.push(i % 3 != 0);
        }
        assert_eq!(v.len(), 130);
        assert!(!v.is_valid(0));
        assert!(v.is_valid(1));
        assert!(!v.is_valid(129)); // 129 % 3 == 0
        assert_eq!(v.count_valid(), (0..130).filter(|i| i % 3 != 0).count());
    }

    #[test]
    fn validity_all_valid_and_invalidate() {
        let mut v = ValidityVector::all_valid(70);
        assert_eq!(v.count_valid(), 70);
        v.invalidate(64);
        v.invalidate(0);
        assert_eq!(v.count_valid(), 68);
        assert!(!v.is_valid(64));
    }

    #[test]
    fn validity_prefix_truncates() {
        let mut v = ValidityVector::default();
        for i in 0..100 {
            v.push(i % 7 != 0);
        }
        let p = v.prefix(70);
        assert_eq!(p.len(), 70);
        for i in 0..70 {
            assert_eq!(p.is_valid(i), v.is_valid(i));
        }
        assert_eq!(v.prefix(100), v);
        assert!(v.prefix(0).is_empty());
    }

    #[test]
    fn validity_suffix_rebases_rows() {
        let mut v = ValidityVector::default();
        for i in 0..100 {
            v.push(i % 5 != 0);
        }
        let s = v.suffix(67);
        assert_eq!(s.len(), 33);
        for i in 0..33 {
            assert_eq!(s.is_valid(i), v.is_valid(67 + i));
        }
        assert_eq!(v.suffix(100).len(), 0);
        assert_eq!(v.suffix(0), v);
    }

    #[test]
    #[should_panic]
    fn validity_out_of_bounds_panics() {
        let v = ValidityVector::all_valid(3);
        let _ = v.is_valid(3);
    }
}
