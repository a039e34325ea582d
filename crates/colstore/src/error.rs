//! Error types for the column store.

use std::error::Error;
use std::fmt;

/// Errors produced by column-store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColstoreError {
    /// A value exceeded the column's fixed maximal length.
    ValueTooLong {
        /// Length of the offending value.
        got: usize,
        /// The column's fixed maximal length.
        max: usize,
    },
    /// A row index was out of bounds.
    RowOutOfBounds {
        /// Requested row.
        row: usize,
        /// Number of rows in the column.
        rows: usize,
    },
    /// A column with this name was not found.
    ColumnNotFound(String),
    /// A column with this name already exists in the table.
    DuplicateColumn(String),
    /// Columns in a table must all have the same number of rows.
    RowCountMismatch {
        /// Rows in the table so far.
        expected: usize,
        /// Rows in the column being added.
        got: usize,
    },
}

impl fmt::Display for ColstoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColstoreError::ValueTooLong { got, max } => {
                write!(f, "value of {got} bytes exceeds column maximum of {max}")
            }
            ColstoreError::RowOutOfBounds { row, rows } => {
                write!(f, "row {row} out of bounds for column with {rows} rows")
            }
            ColstoreError::ColumnNotFound(name) => write!(f, "column not found: {name}"),
            ColstoreError::DuplicateColumn(name) => {
                write!(f, "column already exists: {name}")
            }
            ColstoreError::RowCountMismatch { expected, got } => {
                write!(
                    f,
                    "row count mismatch: table has {expected}, column has {got}"
                )
            }
        }
    }
}

impl Error for ColstoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ColstoreError::ValueTooLong { got: 20, max: 10 };
        assert!(e.to_string().contains("20"));
        assert!(e.to_string().contains("10"));
    }
}
