//! Range queries and their encrypted wire form.
//!
//! The trusted proxy converts every filter — equality, inequality, greater
//! than, less than, between — into a single range select (paper Fig. 5 step
//! 5), so the untrusted server cannot distinguish query types. Each bound
//! is encrypted with PAE under the column key; the bound *type* (inclusive,
//! exclusive, unbounded) travels inside the ciphertext so nothing about the
//! query shape leaks.

use crate::error::EncdictError;
use encdbdb_crypto::{Ciphertext, Pae};
use rand::RngCore;

/// One side of a range query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RangeBound {
    /// Bound included in the range.
    Inclusive(Vec<u8>),
    /// Bound excluded from the range.
    Exclusive(Vec<u8>),
    /// No bound (the paper's `-∞` / `+∞` placeholder).
    Unbounded,
}

impl RangeBound {
    fn tag(&self) -> u8 {
        match self {
            RangeBound::Inclusive(_) => 0,
            RangeBound::Exclusive(_) => 1,
            RangeBound::Unbounded => 2,
        }
    }

    /// The bound's value; the empty string, the smallest value, when
    /// unbounded.
    pub(crate) fn value(&self) -> &[u8] {
        match self {
            RangeBound::Inclusive(v) | RangeBound::Exclusive(v) => v,
            RangeBound::Unbounded => &[],
        }
    }
}

/// A plaintext range query `R = (R_s, R_e)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeQuery {
    /// Range start.
    pub start: RangeBound,
    /// Range end.
    pub end: RangeBound,
}

impl RangeQuery {
    /// The closed range `[start, end]`.
    pub fn between(start: impl Into<Vec<u8>>, end: impl Into<Vec<u8>>) -> Self {
        RangeQuery {
            start: RangeBound::Inclusive(start.into()),
            end: RangeBound::Inclusive(end.into()),
        }
    }

    /// Equality select `v = x`, expressed as `[x, x]`.
    pub fn equals(v: impl Into<Vec<u8>>) -> Self {
        let v = v.into();
        RangeQuery::between(v.clone(), v)
    }

    /// `v < x` (exclusive upper bound, unbounded start).
    pub fn less_than(v: impl Into<Vec<u8>>) -> Self {
        RangeQuery {
            start: RangeBound::Unbounded,
            end: RangeBound::Exclusive(v.into()),
        }
    }

    /// `v <= x`.
    pub fn at_most(v: impl Into<Vec<u8>>) -> Self {
        RangeQuery {
            start: RangeBound::Unbounded,
            end: RangeBound::Inclusive(v.into()),
        }
    }

    /// `v > x` (exclusive lower bound, unbounded end).
    pub fn greater_than(v: impl Into<Vec<u8>>) -> Self {
        RangeQuery {
            start: RangeBound::Exclusive(v.into()),
            end: RangeBound::Unbounded,
        }
    }

    /// `v >= x`.
    pub fn at_least(v: impl Into<Vec<u8>>) -> Self {
        RangeQuery {
            start: RangeBound::Inclusive(v.into()),
            end: RangeBound::Unbounded,
        }
    }

    /// Whether this range provably matches nothing, from its bounds alone
    /// (`start > end`, or `start == end` with either side exclusive).
    /// Conjunction rewrites drop such ranges instead of searching them.
    pub fn is_provably_empty(&self) -> bool {
        let (s, s_excl) = match &self.start {
            RangeBound::Inclusive(v) => (v, false),
            RangeBound::Exclusive(v) => (v, true),
            RangeBound::Unbounded => return false,
        };
        let (e, e_excl) = match &self.end {
            RangeBound::Inclusive(v) => (v, false),
            RangeBound::Exclusive(v) => (v, true),
            RangeBound::Unbounded => return false,
        };
        match s.cmp(e) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Equal => s_excl || e_excl,
            std::cmp::Ordering::Less => false,
        }
    }

    /// Whether a value matches this range.
    pub fn contains(&self, v: &[u8]) -> bool {
        self.after_start(v) && self.before_end(v)
    }

    /// Whether `v` satisfies the start bound: `v ≥ s`, `v > s`, or no start.
    pub(crate) fn after_start(&self, v: &[u8]) -> bool {
        match &self.start {
            RangeBound::Inclusive(s) => v >= s.as_slice(),
            RangeBound::Exclusive(s) => v > s.as_slice(),
            RangeBound::Unbounded => true,
        }
    }

    /// Whether `v` satisfies the end bound: `v ≤ e`, `v < e`, or no end.
    pub(crate) fn before_end(&self, v: &[u8]) -> bool {
        match &self.end {
            RangeBound::Inclusive(e) => v <= e.as_slice(),
            RangeBound::Exclusive(e) => v < e.as_slice(),
            RangeBound::Unbounded => true,
        }
    }
}

/// The encrypted range `τ = (τ_s, τ_e)` as sent to the untrusted server.
#[derive(Debug, Clone)]
pub struct EncryptedRange {
    /// Encrypted start bound.
    pub tau_s: Ciphertext,
    /// Encrypted end bound.
    pub tau_e: Ciphertext,
}

const RANGE_AAD: &[u8] = b"encdbdb/range-bound/v1";

fn encrypt_bound<R: RngCore + ?Sized>(pae: &Pae, rng: &mut R, bound: &RangeBound) -> Ciphertext {
    let mut pt = Vec::with_capacity(1 + bound.value().len());
    pt.push(bound.tag());
    pt.extend_from_slice(bound.value());
    pae.encrypt_with_rng(rng, &pt, RANGE_AAD)
}

fn decrypt_bound(pae: &Pae, ct: &Ciphertext) -> Result<RangeBound, EncdictError> {
    let pt = pae.decrypt(ct, RANGE_AAD)?;
    let (&tag, value) = pt
        .split_first()
        .ok_or(EncdictError::CorruptDictionary("empty range bound"))?;
    Ok(match tag {
        0 => RangeBound::Inclusive(value.to_vec()),
        1 => RangeBound::Exclusive(value.to_vec()),
        2 => RangeBound::Unbounded,
        _ => return Err(EncdictError::CorruptDictionary("unknown bound tag")),
    })
}

impl EncryptedRange {
    /// Encrypts a range query under the column PAE (done by the proxy).
    pub fn encrypt<R: RngCore + ?Sized>(pae: &Pae, rng: &mut R, query: &RangeQuery) -> Self {
        EncryptedRange {
            tau_s: encrypt_bound(pae, rng, &query.start),
            tau_e: encrypt_bound(pae, rng, &query.end),
        }
    }

    /// Decrypts the range (done inside the enclave, Algorithm 1 line 2).
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::Crypto`] on tampering or a wrong key.
    pub fn decrypt(&self, pae: &Pae) -> Result<RangeQuery, EncdictError> {
        Ok(RangeQuery {
            start: decrypt_bound(pae, &self.tau_s)?,
            end: decrypt_bound(pae, &self.tau_e)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use encdbdb_crypto::Key128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn contains_all_bound_shapes() {
        assert!(RangeQuery::between("b", "d").contains(b"b"));
        assert!(RangeQuery::between("b", "d").contains(b"d"));
        assert!(!RangeQuery::between("b", "d").contains(b"a"));
        assert!(!RangeQuery::between("b", "d").contains(b"e"));

        assert!(RangeQuery::equals("x").contains(b"x"));
        assert!(!RangeQuery::equals("x").contains(b"y"));

        assert!(RangeQuery::less_than("c").contains(b"b"));
        assert!(!RangeQuery::less_than("c").contains(b"c"));
        assert!(RangeQuery::at_most("c").contains(b"c"));

        assert!(RangeQuery::greater_than("c").contains(b"d"));
        assert!(!RangeQuery::greater_than("c").contains(b"c"));
        assert!(RangeQuery::at_least("c").contains(b"c"));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let pae = Pae::new(&Key128::from_bytes([1; 16]));
        let mut rng = StdRng::seed_from_u64(9);
        for q in [
            RangeQuery::between("Archie", "Hans"),
            RangeQuery::equals("Jessica"),
            RangeQuery::less_than("Ella"),
            RangeQuery::greater_than("Ella"),
            RangeQuery {
                start: RangeBound::Unbounded,
                end: RangeBound::Unbounded,
            },
        ] {
            let enc = EncryptedRange::encrypt(&pae, &mut rng, &q);
            assert_eq!(enc.decrypt(&pae).unwrap(), q);
        }
    }

    #[test]
    fn ciphertexts_hide_query_type() {
        // An equality and a range query must be indistinguishable in length
        // for same-length values (paper: "the untrusted DBaaS provider
        // cannot differentiate query types").
        let pae = Pae::new(&Key128::from_bytes([1; 16]));
        let mut rng = StdRng::seed_from_u64(10);
        let eq = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("abcd"));
        let rg = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("aaaa", "zzzz"));
        assert_eq!(eq.tau_s.len(), rg.tau_s.len());
        assert_eq!(eq.tau_e.len(), rg.tau_e.len());
    }

    #[test]
    fn wrong_key_rejected() {
        let pae1 = Pae::new(&Key128::from_bytes([1; 16]));
        let pae2 = Pae::new(&Key128::from_bytes([2; 16]));
        let mut rng = StdRng::seed_from_u64(11);
        let enc = EncryptedRange::encrypt(&pae1, &mut rng, &RangeQuery::equals("x"));
        assert!(enc.decrypt(&pae2).is_err());
    }

    #[test]
    fn same_query_encrypts_differently() {
        let pae = Pae::new(&Key128::from_bytes([1; 16]));
        let mut rng = StdRng::seed_from_u64(12);
        let q = RangeQuery::equals("repeat");
        let a = EncryptedRange::encrypt(&pae, &mut rng, &q);
        let b = EncryptedRange::encrypt(&pae, &mut rng, &q);
        // Probabilistic encryption: the server cannot tell repeated queries
        // apart (paper: "it also cannot learn if the values were queried
        // before").
        assert_ne!(a.tau_s.as_bytes(), b.tau_s.as_bytes());
    }
}
