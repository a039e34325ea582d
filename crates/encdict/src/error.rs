//! Error types for the encrypted-dictionary crate.

use encdbdb_crypto::CryptoError;
use std::error::Error;
use std::fmt;

/// Errors produced by encrypted-dictionary operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncdictError {
    /// A value exceeded the column's fixed maximal length.
    ValueTooLong {
        /// Length of the offending value.
        got: usize,
        /// The column's fixed maximal length.
        max: usize,
    },
    /// bs_max must be at least 1 for frequency smoothing.
    InvalidBucketSize,
    /// A dictionary byte layout was malformed (head/tail mismatch).
    CorruptDictionary(&'static str),
    /// The enclave has no provisioned master key.
    KeyNotProvisioned,
    /// An aggregate could not be evaluated (e.g. SUM over a value that is
    /// not a decimal integer).
    Aggregate(&'static str),
    /// An underlying cryptographic operation failed (bad key, tampering).
    Crypto(CryptoError),
    /// A thread this request depended on panicked: the leader of a shared
    /// batch round mid-transition (the request was never executed), or a
    /// partition-scan worker of the query. The caller should fail the
    /// query; enclave and stored state are unaffected.
    Poisoned(&'static str),
}

impl fmt::Display for EncdictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncdictError::ValueTooLong { got, max } => {
                write!(f, "value of {got} bytes exceeds column maximum of {max}")
            }
            EncdictError::InvalidBucketSize => write!(f, "bs_max must be at least 1"),
            EncdictError::CorruptDictionary(what) => {
                write!(f, "corrupt encrypted dictionary: {what}")
            }
            EncdictError::KeyNotProvisioned => {
                write!(f, "enclave master key not provisioned")
            }
            EncdictError::Aggregate(what) => write!(f, "aggregate failure: {what}"),
            EncdictError::Crypto(e) => write!(f, "cryptographic failure: {e}"),
            EncdictError::Poisoned(what) => write!(f, "poisoned by a panicked thread: {what}"),
        }
    }
}

impl Error for EncdictError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EncdictError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for EncdictError {
    fn from(e: CryptoError) -> Self {
        EncdictError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EncdictError::from(CryptoError::TagMismatch);
        assert!(e.to_string().contains("cryptographic"));
        assert!(e.source().is_some());
        assert!(EncdictError::InvalidBucketSize.source().is_none());
    }
}
