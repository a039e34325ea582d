//! The nine encrypted dictionaries of EncDBDB (ED1–ED9).
//!
//! This crate is the paper's primary contribution: encrypted dictionaries
//! for column-oriented, dictionary-encoding-based, in-memory databases.
//! Each column of a dataset can be protected with one of nine dictionary
//! types, the cross product of three *repetition* options (frequency
//! revealing / smoothing / hiding) and three *order* options (sorted /
//! rotated / unsorted), trading security against latency and storage
//! (paper Table 2).
//!
//! Module map:
//!
//! * [`kind`] — ED1–ED9 and their leakage classification (Tables 2–5,
//!   Figure 6).
//! * [`build`] — `EncDB`: splitting and encrypting a plaintext column
//!   (§4.1), including the PlainDBDB twin.
//! * [`bucket`] — the frequency-smoothing random experiment (Algorithm 5).
//! * [`search`] — `EnclDictSearch`: binary search (Algorithm 1), the
//!   rotation-oblivious special binary search (Algorithms 2+3, comparing
//!   bytes where the paper's `ENCODE` does big-integer arithmetic), and the
//!   linear scan (Algorithm 4), all written against a reader abstraction
//!   shared by the enclave and PlainDBDB.
//! * [`avsearch`] — the paper's `AttrVectSearch` in the untrusted realm:
//!   one linear scan of the attribute vector for the returned ValueIDs.
//! * [`postings`] — the attribute vector inverted (RecordIDs by ValueID),
//!   the O(result) arm of a main store's `AttrVectSearch`.
//! * [`enclave_ops`] — the trusted computing base: [`enclave_ops::DictEnclave`]
//!   hosting the search logic inside the simulated enclave.
//! * [`dict`] — the §5 head/tail dictionary layout: [`Segment`], its one
//!   owner, and [`SegmentRef`], the one view the enclave reads it through.
//! * [`range`] — range queries and their encrypted wire form.
//! * [`leakage`] — attacker-view analysis backing the security evaluation.
//! * [`dynamic`] — the epoch-tagged main store (§4.3); the delta store is
//!   an ED9 [`Dictionary`] that grows, the merge itself is
//!   [`DictEnclave::merge`].
//! * [`batch`] — owned request forms for the cross-session ECALL
//!   batching scheduler (several sessions' calls coalesced into one
//!   enclave transition).
//! * [`aggregate`] — the trusted aggregation core behind the analytic
//!   query engine (GROUP BY / SUM / MIN / MAX / AVG over ValueID
//!   histograms, one decryption per distinct touched ValueID).
//!
//! # Example: one encrypted range query
//!
//! ```
//! use colstore::column::Column;
//! use encdbdb_crypto::hkdf::derive_column_key;
//! use encdbdb_crypto::{Key128, Pae};
//! use encdict::avsearch;
//! use encdict::build::{build_encrypted, BuildParams};
//! use encdict::enclave_ops::DictEnclave;
//! use encdict::kind::EdKind;
//! use encdict::range::{EncryptedRange, RangeQuery};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // Data owner: master key and per-column key.
//! let skdb = Key128::generate(&mut rng);
//! let sk_d = derive_column_key(&skdb, "people", "fname");
//!
//! // EncDB: split + encrypt the column as ED5 (smoothed, rotated).
//! let col = Column::from_strs(
//!     "fname", 12,
//!     ["Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"],
//! )?;
//! let params = BuildParams {
//!     table_name: "people".into(), col_name: "fname".into(), bs_max: 3,
//! };
//! let (dict, av) = build_encrypted(&col, EdKind::Ed5, &params, &sk_d, &mut rng)?;
//!
//! // DBaaS side: enclave with the provisioned master key.
//! let mut enclave = DictEnclave::with_seed(8);
//! enclave.provision_direct(skdb);
//!
//! // Proxy: encrypt the range; server: dictionary + attribute vector search.
//! let pae = Pae::new(&sk_d);
//! let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("Archie", "Hans"));
//! let vids = enclave.search(&dict, &tau)?;
//! let rids = avsearch::scan(&av, &[vids]);
//! assert_eq!(rids.iter().map(|r| r.0).collect::<Vec<_>>(), vec![0, 2, 3]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod avsearch;
pub mod batch;
pub mod bucket;
pub mod build;
pub mod dict;
pub mod dynamic;
pub mod enclave_ops;
pub mod error;
pub mod kind;
pub mod leakage;
pub mod persist;
pub mod plain;
pub mod postings;
pub mod range;
pub mod search;

pub use dict::{Dictionary, Segment, SegmentRef};
pub use enclave_ops::{CacheTag, DictEnclave};
pub use error::EncdictError;
pub use kind::{EdKind, LeakageLevel, OrderOption, RepetitionOption};
pub use range::{EncryptedRange, RangeBound, RangeQuery};
pub use search::{DictSearchResult, VidRange};
