//! Error types for the EncDBDB DBMS layer.

use std::error::Error;
use std::fmt;

/// Errors produced by the DBMS layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DbError {
    /// SQL lexing/parsing failed.
    Parse(String),
    /// A referenced table does not exist.
    TableNotFound(String),
    /// A table with this name already exists.
    TableExists(String),
    /// A referenced column does not exist in the table.
    ColumnNotFound(String),
    /// A row has the wrong number of values: an INSERT row against its
    /// table, or a result row the untrusted server sent against the
    /// query's columns.
    ArityMismatch {
        /// Columns in the table or result.
        expected: usize,
        /// Values supplied.
        got: usize,
    },
    /// A filter shape the pipeline cannot evaluate (e.g. a cell/filter
    /// form mismatching the column protection). Conjunctions across
    /// columns *are* supported (each conjunct must be single-column).
    UnsupportedFilter(String),
    /// The query is valid SQL but not a well-formed plan against the
    /// schema (e.g. a bare select item missing from GROUP BY, or an ORDER
    /// BY target outside the output).
    Plan(String),
    /// A value exceeded the column's fixed maximal length.
    ValueTooLong {
        /// Length of the offending value.
        got: usize,
        /// Column maximum.
        max: usize,
    },
    /// An encrypted-dictionary operation failed.
    Dict(encdict::EncdictError),
    /// A storage-substrate operation failed.
    Storage(colstore::ColstoreError),
    /// An enclave operation failed (attestation, provisioning).
    Enclave(enclave_sim::EnclaveError),
    /// A write or merge kept racing concurrent compaction publishes and
    /// exhausted its retries.
    MergeConflict(String),
    /// A range-partitioning violation: malformed split points, a
    /// partition index out of range, or an insert that cannot be routed.
    Partition(String),
    /// The concatenated main + delta code space of a column exceeds
    /// `u32`: a delta row's code `main_len + rid` would wrap and alias
    /// two distinct values into one histogram bucket.
    CodeSpaceOverflow {
        /// The main dictionary length (the delta code offset).
        main_len: usize,
        /// The offending delta RecordID.
        delta_rid: u32,
    },
    /// A durable-storage operation failed: a WAL append or snapshot
    /// persist hit an I/O error (or an injected crash point), or recovery
    /// found the on-disk state unusable.
    Durability(String),
    /// A sealed blob failed validation at unseal time: wrong enclave
    /// identity/platform, or the ciphertext was tampered with.
    Unseal {
        /// What was being unsealed (file or record description).
        context: String,
        /// The underlying enclave error.
        source: enclave_sim::EnclaveError,
    },
    /// A networked-deployment failure (DESIGN.md §16): socket I/O, a
    /// malformed or unexpected frame, an authentication rejection, or a
    /// server-side error relayed over the wire.
    Net(String),
    /// The server shed this request under admission control instead of
    /// queueing it unboundedly; retry after the indicated backoff.
    ServerBusy {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(msg) => write!(f, "sql parse error: {msg}"),
            DbError::TableNotFound(t) => write!(f, "table not found: {t}"),
            DbError::TableExists(t) => write!(f, "table already exists: {t}"),
            DbError::ColumnNotFound(c) => write!(f, "column not found: {c}"),
            DbError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "row arity mismatch: {expected} columns, got {got} values"
                )
            }
            DbError::UnsupportedFilter(msg) => write!(f, "unsupported filter: {msg}"),
            DbError::Plan(msg) => write!(f, "plan error: {msg}"),
            DbError::ValueTooLong { got, max } => {
                write!(f, "value of {got} bytes exceeds column maximum of {max}")
            }
            DbError::Dict(e) => write!(f, "dictionary failure: {e}"),
            DbError::Storage(e) => write!(f, "storage failure: {e}"),
            DbError::Enclave(e) => write!(f, "enclave failure: {e}"),
            DbError::MergeConflict(msg) => write!(f, "merge conflict: {msg}"),
            DbError::Partition(msg) => write!(f, "partitioning error: {msg}"),
            DbError::CodeSpaceOverflow {
                main_len,
                delta_rid,
            } => {
                write!(
                    f,
                    "code space overflow: main dictionary length {main_len} + delta row \
                     {delta_rid} exceeds u32"
                )
            }
            DbError::Durability(msg) => write!(f, "durability failure: {msg}"),
            DbError::Unseal { context, source } => {
                write!(f, "unseal validation failed for {context}: {source}")
            }
            DbError::Net(msg) => write!(f, "network failure: {msg}"),
            DbError::ServerBusy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
        }
    }
}

impl Error for DbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DbError::Dict(e) => Some(e),
            DbError::Storage(e) => Some(e),
            DbError::Enclave(e) => Some(e),
            DbError::Unseal { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<encdict::EncdictError> for DbError {
    fn from(e: encdict::EncdictError) -> Self {
        DbError::Dict(e)
    }
}

impl From<colstore::ColstoreError> for DbError {
    fn from(e: colstore::ColstoreError) -> Self {
        DbError::Storage(e)
    }
}

impl From<enclave_sim::EnclaveError> for DbError {
    fn from(e: enclave_sim::EnclaveError) -> Self {
        DbError::Enclave(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = DbError::Parse("unexpected token".into());
        assert!(e.to_string().contains("unexpected token"));
        assert!(e.source().is_none());
        let e = DbError::from(encdict::EncdictError::KeyNotProvisioned);
        assert!(e.source().is_some());
    }
}
