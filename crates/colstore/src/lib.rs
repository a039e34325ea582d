//! Column-oriented, dictionary-encoding-based, in-memory storage substrate.
//!
//! Implements the database storage concepts of paper §2.1:
//!
//! * [`column::Column`] — a contiguous, arena-backed column of
//!   variable-length values with a fixed maximal length (like `VARCHAR(n)`).
//! * [`dictionary::Dictionary`] + [`dictionary::AttributeVector`] — the two
//!   structures a column is split into by dictionary encoding, together
//!   with split construction and the *split correctness* check of
//!   Definition 1.
//! * [`monetdb`] — a MonetDB-like plaintext baseline: insertion-order
//!   dictionary with hash-based dedup (paper §5) and range scans that do a
//!   linear number of *string* comparisons, which is the behaviour the
//!   paper benchmarks EncDBDB against in Figure 8.
//! * [`delta`] — the validity vector of the delta store (differential
//!   buffer), used for dynamic data (§4.3).
//! * [`table`] — named collections of columns.
//! * [`stats`] — `un(C)`, `oc(C, v)` and storage-size accounting used by
//!   the Table 6 reproduction.
//! * [`codec`] — the one bounds-checked byte reader and the writer every
//!   on-disk and on-wire layout of the workspace goes through.
//! * [`persist`] — the CRC-framed record stream that durable files are
//!   made of (the "storage management stores all data on disk for
//!   persistency" part of Fig. 5 step 4).
//!
//! # Example
//!
//! ```
//! use colstore::column::Column;
//! use colstore::dictionary::split_sorted;
//!
//! let col = Column::from_strs("fname", 10, ["Hans", "Jessica", "Archie", "Jessica"]).unwrap();
//! let (dict, av) = split_sorted(&col);
//! assert_eq!(dict.len(), 3); // unique values
//! assert_eq!(av.len(), 4);   // one ValueID per row
//! assert!(colstore::dictionary::verify_split(&col, &dict, &av));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod column;
pub mod delta;
pub mod dictionary;
pub mod error;
pub mod monetdb;
pub mod persist;
pub mod stats;
pub mod table;

pub use column::Column;
pub use dictionary::{AttributeVector, Dictionary, RecordId, ValueId};
pub use error::ColstoreError;
