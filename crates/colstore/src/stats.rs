//! Column statistics: `un(C)` and `oc(C, v)`.
//!
//! Paper §2.1 notation: `un(C)` is the set of unique values in a column,
//! `|un(C)|` their count, `oc(C, v)` the occurrence indices of value `v`,
//! and `|oc(C, v)|` its occurrence count. The frequency-smoothing builder
//! (Algorithm 5) and the Table 3 dictionary-size formula both consume these.

use crate::column::Column;
use std::collections::HashMap;

/// Occurrence statistics of a column.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Unique values with their occurrence row indices, i.e. `v → oc(C, v)`.
    occurrences: HashMap<Vec<u8>, Vec<u32>>,
    rows: usize,
}

impl ColumnStats {
    /// Computes statistics for `column`.
    pub fn of(column: &Column) -> Self {
        let mut occurrences: HashMap<Vec<u8>, Vec<u32>> = HashMap::new();
        for (j, v) in column.iter().enumerate() {
            occurrences.entry(v.to_vec()).or_default().push(j as u32);
        }
        ColumnStats {
            occurrences,
            rows: column.len(),
        }
    }

    /// `|un(C)|` — number of unique values.
    pub fn unique_count(&self) -> usize {
        self.occurrences.len()
    }

    /// Number of rows, `|C|`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `oc(C, v)` — occurrence indices of `v`, empty if absent.
    pub fn occurrences_of(&self, v: &[u8]) -> &[u32] {
        self.occurrences.get(v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over `(value, occurrence indices)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u32])> + '_ {
        self.occurrences
            .iter()
            .map(|(v, occ)| (v.as_slice(), occ.as_slice()))
    }

    /// The highest occurrence count of any value.
    pub fn max_occurrences(&self) -> usize {
        self.occurrences.values().map(Vec::len).max().unwrap_or(0)
    }

    /// The expected dictionary size under frequency smoothing with the given
    /// `bs_max` (paper Table 3): `Σ_{v ∈ un(C)} 2·|oc(C,v)| / (1 + bs_max)`,
    /// clamped to at least one bucket per unique value.
    pub fn expected_smoothed_dict_size(&self, bs_max: usize) -> f64 {
        self.occurrences
            .values()
            .map(|occ| (2.0 * occ.len() as f64 / (1.0 + bs_max as f64)).max(1.0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: &[&str]) -> Column {
        Column::from_strs("c", 16, values.iter().copied()).unwrap()
    }

    #[test]
    fn unique_and_occurrences_match_paper_example() {
        // Figure 1: un(C) = {Hans, Jessica, Archie}, oc(C, Archie) = {1, 5}
        // for the column (Hans, Archie?, ...) — we use the §2.1 ordering:
        let c = col(&["Hans", "Archie", "Jessica", "Jessica", "Jessica", "Archie"]);
        let s = ColumnStats::of(&c);
        assert_eq!(s.unique_count(), 3);
        assert_eq!(s.occurrences_of(b"Archie"), &[1, 5]);
        assert_eq!(s.occurrences_of(b"Jessica").len(), 3);
        assert_eq!(s.occurrences_of(b"absent"), &[] as &[u32]);
        assert_eq!(s.rows(), 6);
        assert_eq!(s.max_occurrences(), 3);
    }

    #[test]
    fn smoothed_size_between_unique_and_rows() {
        let values: Vec<String> = (0..50)
            .flat_map(|i| std::iter::repeat_n(format!("v{i}"), 20))
            .collect();
        let c = Column::from_strs("c", 16, values.iter()).unwrap();
        let s = ColumnStats::of(&c);
        for bs_max in [2usize, 10, 100] {
            let est = s.expected_smoothed_dict_size(bs_max);
            assert!(est >= s.unique_count() as f64);
            assert!(est <= s.rows() as f64 * 2.0);
        }
        // Smaller bs_max -> more duplicates -> larger dictionary.
        assert!(s.expected_smoothed_dict_size(2) > s.expected_smoothed_dict_size(100));
    }
}
