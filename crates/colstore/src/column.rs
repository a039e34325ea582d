//! Arena-backed columns of variable-length values.
//!
//! A [`Column`] stores successive values contiguously (column-oriented
//! storage, paper §2.1) in a single byte arena plus an offset table, and
//! carries a *fixed maximal length* — the analogue of `VARCHAR(n)` — which
//! the order-preserving `ENCODE` operation of Algorithm 3 relies on.

use crate::error::ColstoreError;

/// A column of variable-length byte-string values.
///
/// Values are ordered lexicographically on their bytes, which for ASCII
/// strings matches the paper's lexicographic value order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    name: String,
    max_len: usize,
    data: Vec<u8>,
    offsets: Vec<u64>,
}

impl Column {
    /// Creates an empty column named `name` with fixed maximal value length
    /// `max_len` bytes.
    pub fn new(name: impl Into<String>, max_len: usize) -> Self {
        Column {
            name: name.into(),
            max_len,
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Builds a column from string values.
    ///
    /// # Errors
    ///
    /// Returns [`ColstoreError::ValueTooLong`] if any value exceeds
    /// `max_len` bytes.
    pub fn from_strs<I, S>(
        name: impl Into<String>,
        max_len: usize,
        values: I,
    ) -> Result<Self, ColstoreError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut col = Column::new(name, max_len);
        for v in values {
            col.push(v.as_ref().as_bytes())?;
        }
        Ok(col)
    }

    /// Appends a value.
    ///
    /// # Errors
    ///
    /// Returns [`ColstoreError::ValueTooLong`] if `value` exceeds the
    /// column's fixed maximal length.
    pub fn push(&mut self, value: &[u8]) -> Result<(), ColstoreError> {
        if value.len() > self.max_len {
            return Err(ColstoreError::ValueTooLong {
                got: value.len(),
                max: self.max_len,
            });
        }
        self.data.extend_from_slice(value);
        self.offsets.push(self.data.len() as u64);
        Ok(())
    }

    /// The column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The fixed maximal value length in bytes.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of values (rows).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the value at row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Returns the value at row `i`, or `None` if out of bounds.
    pub fn get(&self, i: usize) -> Option<&[u8]> {
        if i < self.len() {
            Some(self.value(i))
        } else {
            None
        }
    }

    /// Iterates over all values in row order.
    pub fn iter(&self) -> impl Iterator<Item = &[u8]> + '_ {
        (0..self.len()).map(move |i| self.value(i))
    }

    /// Bytes this column occupies when written as an uncompressed
    /// *plaintext file* (the "Plaintext file" row of the paper's Table 6):
    /// just the raw value bytes, no dictionary encoding.
    pub fn plaintext_file_size(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut c = Column::new("c", 8);
        c.push(b"Hans").unwrap();
        c.push(b"Jessica").unwrap();
        c.push(b"").unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), b"Hans");
        assert_eq!(c.value(1), b"Jessica");
        assert_eq!(c.value(2), b"");
        assert_eq!(c.get(3), None);
    }

    #[test]
    fn rejects_too_long_values() {
        let mut c = Column::new("c", 4);
        let err = c.push(b"toolong").unwrap_err();
        assert_eq!(err, ColstoreError::ValueTooLong { got: 7, max: 4 });
        assert!(c.is_empty());
    }

    #[test]
    fn from_strs_builds_in_order() {
        let c = Column::from_strs("fname", 10, ["Jessica", "Archie", "Hans"]).unwrap();
        let vals: Vec<&[u8]> = c.iter().collect();
        assert_eq!(vals, vec![&b"Jessica"[..], b"Archie", b"Hans"]);
    }

    #[test]
    fn plaintext_file_size_is_sum_of_value_lengths() {
        let c = Column::from_strs("c", 10, ["ab", "cde", ""]).unwrap();
        assert_eq!(c.plaintext_file_size(), 5);
    }

    #[test]
    fn duplicate_values_are_stored_separately() {
        let c = Column::from_strs("c", 10, ["x", "x", "x"]).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.plaintext_file_size(), 3);
    }
}
