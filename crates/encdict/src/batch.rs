//! The read-path ECALL request family: the one description of a
//! dictionary search, a grouped aggregation and a join-key bridge.
//!
//! A session hands its request to whichever thread leads the next enclave
//! transition (the cross-session scheduler in `encdbdb`), so a request
//! owns what it references; a store — main generation or delta — it
//! shares by [`Arc`], never copies.
//! [`DictLogic`](crate::enclave_ops::DictLogic) reads these types by
//! reference and names each store to its readers as a
//! [`SegmentRef`](crate::dict::SegmentRef).
//!
//! A [`ReadCall`] is the unit of
//! [`DictCall::Batch`](crate::enclave_ops::DictCall::Batch): a batch
//! carries read-path calls *by type*, so a nested batch, a re-encryption
//! or a merge inside one is unrepresentable.
//!
//! Each request reports its own [`payload_bytes`](ReadCall::payload_bytes)
//! — the size the leakage ledger records as `bytes_in` (DESIGN.md §13.3).
//! The reply side lives with the reply types
//! ([`ReadReply::payload_bytes`](crate::enclave_ops::ReadReply::payload_bytes)).

use crate::aggregate::AggPlanSpec;
use crate::dict::Dictionary;
use crate::enclave_ops::CacheTag;
use crate::range::EncryptedRange;
use std::sync::Arc;

/// A dictionary-search request: a dictionary handle plus the encrypted
/// disjunction (Fig. 5 step 7).
#[derive(Debug)]
pub struct SearchCall {
    /// The dictionary to search: a published main generation, or a
    /// delta store as a snapshot froze it.
    pub dict: Arc<Dictionary>,
    /// The encrypted range filters τ, one per range of the disjunction —
    /// an `IN (...)` lowering batches all its equality ranges here so the
    /// whole disjunction costs a single call.
    pub ranges: Vec<EncryptedRange>,
    /// Value-cache generation tag; `None` disables caching.
    pub cache: Option<CacheTag>,
}

impl SearchCall {
    /// Request payload: the encrypted bounds τ of every range.
    fn payload_bytes(&self) -> u64 {
        self.ranges
            .iter()
            .map(|r| (r.tau_s.as_bytes().len() + r.tau_e.as_bytes().len()) as u64)
            .sum()
    }
}

/// The value source of one column — an aggregate's referenced column or a
/// join side's key column — within one range partition.
///
/// Codes address the concatenated main + delta value space of that
/// partition: code `< main.len` is a main-store ValueID,
/// `code - main.len` is a delta-store row.
#[derive(Debug)]
pub enum ColumnData {
    /// An encrypted column: the enclave decrypts each listed code once
    /// (the batched value decryption — one `DecryptValue` per distinct
    /// touched ValueID, not per row).
    Encrypted {
        /// Main-store dictionary.
        main: Arc<Dictionary>,
        /// Delta-store dictionary (ED9).
        delta: Arc<Dictionary>,
        /// Distinct touched codes, ascending; value-table index `i`
        /// resolves to `codes[i]`.
        codes: Vec<u32>,
        /// `(partition discriminator, snapshot epoch)` enabling the
        /// in-enclave decrypted-value cache for this partition's stores;
        /// `None` disables caching.
        cache: Option<(u64, u64)>,
    },
    /// A PLAIN column: the distinct touched values, resolved by the
    /// untrusted caller, indexed directly by value-table index.
    Plain {
        /// Distinct touched values.
        values: Vec<Vec<u8>>,
    },
}

impl ColumnData {
    /// Request payload: 4 bytes per code, or the resolved plain values.
    fn payload_bytes(&self) -> u64 {
        match self {
            ColumnData::Encrypted { codes, .. } => 4 * codes.len() as u64,
            ColumnData::Plain { values } => values.iter().map(|v| v.len() as u64).sum(),
        }
    }
}

/// One range partition's contribution to an aggregate query: its own
/// dictionary segments and its own ValueID-tuple histogram. ValueID
/// spaces of different partitions are unrelated; only the *plaintext*
/// group keys, recovered inside the enclave, align them.
#[derive(Debug)]
pub struct AggPartitionData {
    /// The referenced columns, in tuple order (aligned with the request's
    /// `col_names`).
    pub columns: Vec<ColumnData>,
    /// The partition's histogram: per-column value-table indices plus row
    /// frequency.
    pub tuples: Vec<(Vec<u32>, u64)>,
}

/// A grouped-aggregation request: the untrusted server has reduced the
/// matching rows of every scanned partition to a ValueID-tuple histogram;
/// the enclave decrypts each distinct touched value once per partition,
/// folds every partition into per-group *partial aggregates*, merges the
/// partials in the trusted core ([`crate::aggregate::GroupPartials`]),
/// evaluates GROUP BY / aggregates / ORDER BY / LIMIT on plaintexts, and
/// returns cells that are re-encrypted under the originating column keys
/// — so the server cannot link output groups back to dictionary entries
/// (which would reveal equality classes of frequency-hiding
/// dictionaries), nor correlate group keys across partitions.
#[derive(Debug)]
pub struct AggregateRequest {
    /// Table name (key-derivation metadata).
    pub table_name: String,
    /// Per referenced column: `Some(name)` for an encrypted column (the
    /// key-derivation metadata), `None` for PLAIN.
    pub col_names: Vec<Option<String>>,
    /// One entry per scanned non-empty partition. Empty or pruned
    /// partitions contribute nothing — the enclave never sees them.
    pub parts: Vec<AggPartitionData>,
    /// Group/aggregate/sort/limit specification over the columns.
    pub plan: AggPlanSpec,
}

impl AggregateRequest {
    /// Request payload: every column's codes or values plus 4 bytes per
    /// histogram tuple slot.
    fn payload_bytes(&self) -> u64 {
        self.parts
            .iter()
            .map(|p| {
                let cols: u64 = p.columns.iter().map(ColumnData::payload_bytes).sum();
                cols + 4 * p.tuples.len() as u64
            })
            .sum()
    }
}

/// One side of a join-bridge request: the key column's per-partition
/// distinct codes.
#[derive(Debug)]
pub struct JoinSideData {
    /// Table name (key-derivation metadata).
    pub table_name: String,
    /// `Some(column)` for an encrypted key column (key-derivation
    /// metadata), `None` for PLAIN.
    pub col_name: Option<String>,
    /// One entry per scanned non-empty partition.
    pub parts: Vec<ColumnData>,
}

/// A join-bridge request: the untrusted server has reduced each side's
/// matching rows to per-partition distinct join-key codes; the enclave
/// decrypts each distinct key once per side and returns an opaque
/// ValueID↔ValueID *bridge* — per-partition maps from distinct-code index
/// to a bridge id that is equal exactly when the plaintext keys are equal
/// and present on both sides. The hash build/probe then runs untrusted on
/// bridge ids; plaintext keys never leave the enclave, and bridge ids are
/// assigned in an enclave-shuffled order so they reveal nothing about key
/// *order* (DESIGN.md §11 analyzes what the bridge does reveal).
#[derive(Debug)]
pub struct JoinBridgeRequest {
    /// The build side.
    pub left: JoinSideData,
    /// The probe side.
    pub right: JoinSideData,
}

impl JoinBridgeRequest {
    /// Request payload: both sides' distinct codes or plain key values.
    fn payload_bytes(&self) -> u64 {
        [&self.left, &self.right]
            .into_iter()
            .flat_map(|side| &side.parts)
            .map(ColumnData::payload_bytes)
            .sum()
    }
}

/// A read-path dictionary-enclave call — the unit a session submits to
/// the cross-session ECALL scheduler and the element type of a batched
/// transition. Re-encryption and merge are not read-path calls; they keep
/// their dedicated [`DictCall`](crate::enclave_ops::DictCall) variants.
#[derive(Debug)]
pub enum ReadCall {
    /// A dictionary search (main or delta store).
    Search(SearchCall),
    /// A grouped aggregation.
    Aggregate(AggregateRequest),
    /// An equi-join key bridge.
    JoinBridge(JoinBridgeRequest),
}

impl ReadCall {
    /// The request payload size the leakage ledger records as `bytes_in`.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ReadCall::Search(s) => s.payload_bytes(),
            ReadCall::Aggregate(a) => a.payload_bytes(),
            ReadCall::JoinBridge(j) => j.payload_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enclave_ops::{AggCell, AggregateReply, JoinBridgeReply, ReadReply};
    use crate::search::{DictSearchResult, VidRange};
    use crate::EncdictError;
    use encdbdb_crypto::Ciphertext;

    fn plain(values: &[&[u8]]) -> ColumnData {
        ColumnData::Plain {
            values: values.iter().map(|v| v.to_vec()).collect(),
        }
    }

    fn empty_dict() -> Arc<Dictionary> {
        Arc::new(Dictionary::delta("t", "c", 8))
    }

    fn coded(codes: &[u32]) -> ColumnData {
        ColumnData::Encrypted {
            main: empty_dict(),
            delta: empty_dict(),
            codes: codes.to_vec(),
            cache: None,
        }
    }

    #[test]
    fn search_request_is_the_bounds_of_every_range() {
        let bound = |n: usize| Ciphertext::from_bytes(vec![0u8; n]).expect("well-formed");
        let call = ReadCall::Search(SearchCall {
            dict: empty_dict(),
            ranges: vec![
                EncryptedRange {
                    tau_s: bound(30),
                    tau_e: bound(33),
                },
                EncryptedRange {
                    tau_s: bound(29),
                    tau_e: bound(29),
                },
            ],
            cache: None,
        });
        assert_eq!(call.payload_bytes(), 30 + 33 + 29 + 29);
    }

    #[test]
    fn aggregate_request_is_codes_values_and_tuple_slots() {
        let call = ReadCall::Aggregate(AggregateRequest {
            table_name: "t".into(),
            col_names: vec![Some("c".into()), None],
            parts: vec![
                AggPartitionData {
                    columns: vec![coded(&[0, 3, 9]), plain(&[b"ab", b"cde"])],
                    tuples: vec![(vec![0, 0], 2), (vec![2, 1], 1)],
                },
                AggPartitionData {
                    columns: vec![coded(&[1]), plain(&[b"z"])],
                    tuples: vec![(vec![0, 0], 7)],
                },
            ],
            plan: AggPlanSpec {
                group_cols: vec![0],
                aggregates: Vec::new(),
                items: Vec::new(),
                sort: Vec::new(),
                limit: None,
            },
        });
        // 4 per code, plain bytes as they are, 4 per tuple slot.
        assert_eq!(call.payload_bytes(), (12 + 5 + 8) + (4 + 1 + 4));
    }

    #[test]
    fn bridge_request_is_both_sides_codes_or_values() {
        let side = |parts| JoinSideData {
            table_name: "t".into(),
            col_name: None,
            parts,
        };
        let call = ReadCall::JoinBridge(JoinBridgeRequest {
            left: side(vec![coded(&[1, 2]), coded(&[5])]),
            right: side(vec![plain(&[b"key", b"k"])]),
        });
        assert_eq!(call.payload_bytes(), 4 * 3 + 4);
    }

    #[test]
    fn search_reply_is_8_per_present_range_4_per_id() {
        let reply = ReadReply::Search(Ok(vec![
            DictSearchResult::Ranges([VidRange::new(0, 4), VidRange::new(9, 7)]),
            DictSearchResult::Ids(vec![1, 2, 3]),
            DictSearchResult::empty_ranges(),
        ]));
        assert_eq!(reply.payload_bytes(), 8 + 12);
        // Every examined entry costs a head and a tail load and one
        // decrypt, so a search's decrypt count is loads / 2.
        assert_eq!(reply.values_decrypted(10), 5);
    }

    #[test]
    fn aggregate_reply_is_its_cells() {
        let reply = ReadReply::Aggregated(Ok(AggregateReply {
            rows: vec![
                vec![AggCell::Encrypted(vec![0; 40]), AggCell::Plain(vec![0; 3])],
                vec![AggCell::Encrypted(vec![0; 41]), AggCell::Plain(Vec::new())],
            ],
            values_decrypted: 6,
        }));
        assert_eq!(reply.payload_bytes(), 40 + 3 + 41);
        assert_eq!(reply.values_decrypted(100), 6, "reported, not derived");
    }

    #[test]
    fn bridge_reply_is_4_per_slot_matched_or_not() {
        let reply = ReadReply::Bridged(Ok(JoinBridgeReply {
            left: vec![vec![Some(0), None], vec![None]],
            right: vec![vec![Some(0)]],
            bridge_entries: 1,
            values_decrypted: 4,
        }));
        assert_eq!(reply.payload_bytes(), 4 * 4);
        assert_eq!(reply.values_decrypted(0), 4);
    }

    #[test]
    fn error_replies_cross_with_zero_payload() {
        let err = || EncdictError::CorruptDictionary("test");
        for reply in [
            ReadReply::Search(Err(err())),
            ReadReply::Aggregated(Err(err())),
            ReadReply::Bridged(Err(err())),
        ] {
            assert_eq!(reply.payload_bytes(), 0);
        }
        assert_eq!(ReadReply::Aggregated(Err(err())).values_decrypted(8), 0);
    }
}
