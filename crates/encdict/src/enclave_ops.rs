//! The trusted side: `EnclDictSearch` running inside the enclave.
//!
//! This module is the reproduction's *trusted computing base* — the
//! analogue of the paper's 1129-LoC C enclave. It implements the
//! [`enclave_sim::EnclaveLogic`] dispatch for dictionary search (plus value
//! re-encryption for delta-store merges) and the [`DictEnclave`] host-side
//! wrapper. The read-path requests it serves — search, aggregate, join
//! bridge — are described once, in [`crate::batch`]; this module holds the
//! write-path requests, the replies and their payload sizes.
//!
//! Key properties the paper claims, enforced or measured here:
//!
//! * **One ECALL per query** (§5: "we pass a pointer to the encrypted
//!   dictionary into the enclave and it directly loads the data from the
//!   untrusted host process. Thus, only one context switch is necessary for
//!   each query") — [`DictEnclave::search`] is exactly one
//!   [`enclave_sim::Enclave::ecall`].
//! * **Constant trusted memory** — the search algorithms reuse one value
//!   buffer; [`enclave_sim::Enclave::trusted_heap_peak`] stays flat as `|D|`
//!   grows (asserted in tests).
//! * **Per-entry loads** — every dictionary entry touched is individually
//!   loaded through the counted [`enclave_sim::TrustedEnv::load`].

use crate::batch::{AggregateRequest, ColumnData, JoinBridgeRequest, JoinSideData, ReadCall};
use crate::dict::{Dictionary, SegmentRef, HEAD_ENTRY_BYTES};
use crate::error::EncdictError;
use crate::kind::{EdKind, OrderOption};
use crate::range::EncryptedRange;
use crate::search::{rotated, sorted, unsorted, DictEntryReader, DictSearchResult};
use encdbdb_crypto::ct::ct_eq;
use encdbdb_crypto::gcm::LANES;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Ciphertext, Key128, Pae};
use enclave_sim::{Enclave, EnclaveLogic, TrustedEnv};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Identifies one generation of one column store for the in-enclave
/// decrypted-value cache (DESIGN.md §14). A cached entry is only ever
/// served while its `(part, epoch, delta)` triple still names the live
/// store: compaction publish bumps the partition epoch, so entries of the
/// replaced store simply stop matching — epoch keying *is* the
/// invalidation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheTag {
    /// Caller-chosen partition discriminator, unique per partition of a
    /// table on one server (the partition index).
    pub part: u64,
    /// The partition's snapshot epoch at call time.
    pub epoch: u64,
    /// `false` = the main store, `true` = the delta store (their entry
    /// index spaces are unrelated).
    pub delta: bool,
}

/// A re-encryption ECALL request (delta-store ingest, §4.3): the enclave
/// decrypts an incoming ciphertext and re-encrypts it with a fresh IV so the
/// server cannot link the stored value to the inserted one.
#[derive(Debug)]
pub struct ReencryptRequest<'a> {
    /// Table name (key-derivation metadata).
    pub table_name: &'a str,
    /// Column name (key-derivation metadata).
    pub col_name: &'a str,
    /// The incoming ciphertext (PAE under the column key).
    pub ciphertext: &'a [u8],
}

/// A delta-merge ECALL request (§4.3): the enclave decrypts the valid main
/// and delta rows, rebuilds the dictionary with fresh IVs / rotation /
/// shuffle, and returns the new (still encrypted) main store — so old and
/// new stores are unlinkable from outside.
#[derive(Debug)]
pub struct MergeRequest<'a> {
    /// Table name (key-derivation metadata).
    pub table_name: &'a str,
    /// Column name (key-derivation metadata).
    pub col_name: &'a str,
    /// Column fixed maximal value length.
    pub max_len: usize,
    /// Kind to rebuild the main store as.
    pub kind: EdKind,
    /// bs_max for smoothing kinds.
    pub bs_max: usize,
    /// Main-store dictionary entries.
    pub main: SegmentRef<'a>,
    /// Main attribute vector (ValueIDs).
    pub main_av: &'a colstore::dictionary::AttributeVector,
    /// Which main rows are still valid.
    pub main_valid: &'a colstore::delta::ValidityVector,
    /// Delta-store rows (ED9: entry `i` is row `i`).
    pub delta: SegmentRef<'a>,
    /// Which delta rows are still valid.
    pub delta_valid: &'a colstore::delta::ValidityVector,
}

/// The enclave's reply to a [`JoinBridgeRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinBridgeReply {
    /// Per left partition, per distinct-code index: the key's bridge id,
    /// or `None` when the key has no match on the right side.
    pub left: Vec<Vec<Option<u32>>>,
    /// Per right partition, per distinct-code index, symmetrically.
    pub right: Vec<Vec<Option<u32>>>,
    /// Distinct join keys present on both sides.
    pub bridge_entries: usize,
    /// Dictionary values decrypted — at most one per distinct touched key
    /// code per side, never per row.
    pub values_decrypted: usize,
}

impl JoinBridgeReply {
    /// Reply payload: one 4-byte bridge-id slot per distinct code of
    /// either side, matched or not.
    fn payload_bytes(&self) -> u64 {
        let slots: usize = self.left.iter().chain(&self.right).map(Vec::len).sum();
        4 * slots as u64
    }
}

/// One output cell of an aggregate reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggCell {
    /// A PAE ciphertext under the originating column's key (fresh IV).
    Encrypted(Vec<u8>),
    /// A plaintext cell (PLAIN column data, or a COUNT).
    Plain(Vec<u8>),
}

/// The enclave's reply to an [`AggregateRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggregateReply {
    /// Output rows in final (sorted, limited) order; one cell per plan
    /// item.
    pub rows: Vec<Vec<AggCell>>,
    /// How many dictionary values were decrypted — bounded by the number
    /// of distinct touched ValueIDs, never by the row count.
    pub values_decrypted: usize,
}

impl AggregateReply {
    /// Reply payload: the bytes of every output cell.
    fn payload_bytes(&self) -> u64 {
        self.rows
            .iter()
            .flatten()
            .map(|cell| match cell {
                AggCell::Encrypted(b) | AggCell::Plain(b) => b.len() as u64,
            })
            .sum()
    }
}

/// ECALL message for the dictionary enclave.
#[derive(Debug)]
pub enum DictCall<'a> {
    /// One dictionary search over a caller-borrowed dictionary (Fig. 5
    /// step 8) — [`DictEnclave::search`].
    Search {
        /// The dictionary to search, in untrusted memory.
        dict: &'a Dictionary,
        /// The encrypted range filters τ, one per range of the column's
        /// disjunction, all answered by this one call.
        ranges: &'a [EncryptedRange],
        /// Value-cache generation tag; `None` disables caching.
        cache: Option<CacheTag>,
    },
    /// Value re-encryption for delta inserts (§4.3).
    Reencrypt(ReencryptRequest<'a>),
    /// Delta-store merge into a fresh main store (§4.3).
    Merge(MergeRequest<'a>),
    /// One or more read-path calls executed in one enclave transition —
    /// the entry point of every scheduled search, aggregate and join
    /// bridge. The whole vector costs a single context switch; sub-calls
    /// run back to back inside the enclave and each reply carries its own
    /// counter deltas so the host can attribute loads/bytes per request.
    Batch(Vec<&'a ReadCall>),
}

/// ECALL reply.
#[derive(Debug)]
pub enum DictReply {
    /// Search results, one per requested range of the disjunction
    /// (ValueID ranges or lists).
    Search(Result<Vec<DictSearchResult>, EncdictError>),
    /// Re-encrypted ciphertext bytes.
    Reencrypted(Result<Vec<u8>, EncdictError>),
    /// Rebuilt main store.
    Merged(Result<(Dictionary, colstore::dictionary::AttributeVector), EncdictError>),
    /// One reply per sub-call of a [`DictCall::Batch`], in request order.
    Batch(Vec<BatchItemReply>),
}

/// The reply to one [`ReadCall`], variant for variant.
#[derive(Debug)]
pub enum ReadReply {
    /// Search results, one per requested range of the disjunction.
    Search(Result<Vec<DictSearchResult>, EncdictError>),
    /// Aggregation result.
    Aggregated(Result<AggregateReply, EncdictError>),
    /// Join-bridge result.
    Bridged(Result<JoinBridgeReply, EncdictError>),
}

/// What a caller sees when a reply's variant does not answer its call —
/// an enclave dispatch bug, surfaced as an error rather than a panic.
const REPLY_MISMATCH: EncdictError =
    EncdictError::CorruptDictionary("reply variant does not answer the call");

impl ReadReply {
    /// The reply payload size the leakage ledger records as `bytes_out`:
    /// 8 per present position range and 4 per returned id for a search,
    /// the output cells of an aggregate, 4 per bridge slot; an error
    /// crosses with zero payload.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            ReadReply::Search(Ok(results)) => results
                .iter()
                .map(|r| match r {
                    DictSearchResult::Ranges(ranges) => 8 * ranges.iter().flatten().count() as u64,
                    DictSearchResult::Ids(ids) => 4 * ids.len() as u64,
                })
                .sum(),
            ReadReply::Aggregated(Ok(r)) => r.payload_bytes(),
            ReadReply::Bridged(Ok(r)) => r.payload_bytes(),
            _ => 0,
        }
    }

    /// Dictionary values this call decrypted, given the untrusted loads it
    /// issued. Aggregate and bridge replies report the count exactly. A
    /// search derives it as `loads / 2`: every entry it examines costs one
    /// head and one tail load and is decrypted once, and a cache hit costs
    /// neither, so the identity holds with or without caching.
    pub fn values_decrypted(&self, untrusted_loads: u64) -> u64 {
        match self {
            ReadReply::Search(_) => untrusted_loads / 2,
            ReadReply::Aggregated(Ok(r)) => r.values_decrypted as u64,
            ReadReply::Bridged(Ok(r)) => r.values_decrypted as u64,
            _ => 0,
        }
    }

    /// Unwraps the reply to a [`ReadCall::Search`].
    ///
    /// # Errors
    ///
    /// The enclave's error, if the search failed.
    pub fn into_search(self) -> Result<Vec<DictSearchResult>, EncdictError> {
        match self {
            ReadReply::Search(r) => r,
            _ => Err(REPLY_MISMATCH),
        }
    }

    /// Unwraps the reply to a [`ReadCall::Aggregate`].
    ///
    /// # Errors
    ///
    /// The enclave's error, if the aggregation failed.
    pub fn into_aggregated(self) -> Result<AggregateReply, EncdictError> {
        match self {
            ReadReply::Aggregated(r) => r,
            _ => Err(REPLY_MISMATCH),
        }
    }

    /// Unwraps the reply to a [`ReadCall::JoinBridge`].
    ///
    /// # Errors
    ///
    /// The enclave's error, if the bridge failed.
    pub fn into_bridged(self) -> Result<JoinBridgeReply, EncdictError> {
        match self {
            ReadReply::Bridged(r) => r,
            _ => Err(REPLY_MISMATCH),
        }
    }
}

/// One sub-call's reply within a batched transition, with the counter
/// deltas that sub-call generated (captured inside the enclave between
/// sub-calls) — so per-request leakage accounting stays exact even
/// though the host only observes one transition.
#[derive(Debug)]
pub struct BatchItemReply {
    /// The sub-call's reply.
    pub reply: ReadReply,
    /// Untrusted-memory loads issued while serving this sub-call.
    pub untrusted_loads: u64,
    /// Untrusted-memory bytes read while serving this sub-call.
    pub untrusted_bytes: u64,
    /// Decrypted-value cache hits scored by this sub-call.
    pub cache_hits: u64,
    /// Decrypted-value cache misses scored by this sub-call.
    pub cache_misses: u64,
}

/// One join side's per-partition bridge-id maps: for each partition, the
/// optional id of each distinct key code (aligned with the request's code
/// lists).
pub type SideIdMaps = Vec<Vec<Option<u32>>>;

/// The join-bridge core shared by the enclave and the all-PLAIN untrusted
/// path: keys present on BOTH sides get one bridge id each; everything
/// else maps to `None` (such a key provably joins nothing, which the
/// probe phase would reveal anyway). `arrange` reorders the matched key
/// list before ids are assigned — the enclave shuffles here so the
/// numbering carries no key-order information; the all-PLAIN path passes
/// a no-op since the server sees those plaintexts regardless.
///
/// Inputs are per-partition plaintext key tables (one entry per distinct
/// touched code, in code order); outputs are the per-partition id maps,
/// aligned index-for-index, plus the bridged-key count.
pub fn bridge_key_tables<'k>(
    left: &'k [Vec<Vec<u8>>],
    right: &'k [Vec<Vec<u8>>],
    arrange: impl FnOnce(&mut Vec<&'k [u8]>),
) -> (SideIdMaps, SideIdMaps, usize) {
    let left_keys: std::collections::HashSet<&[u8]> = left
        .iter()
        .flat_map(|t| t.iter().map(Vec::as_slice))
        .collect();
    let mut matched: Vec<&[u8]> = right
        .iter()
        .flat_map(|t| t.iter().map(Vec::as_slice))
        .filter(|k| left_keys.contains(*k))
        .collect::<std::collections::BTreeSet<&[u8]>>()
        .into_iter()
        .collect();
    arrange(&mut matched);
    let id_of: std::collections::HashMap<&[u8], u32> = matched
        .iter()
        .enumerate()
        .map(|(i, &k)| (k, i as u32))
        .collect();
    let map_side = |tables: &'k [Vec<Vec<u8>>]| -> Vec<Vec<Option<u32>>> {
        tables
            .iter()
            .map(|t| t.iter().map(|k| id_of.get(k.as_slice()).copied()).collect())
            .collect()
    };
    (map_side(left), map_side(right), matched.len())
}

/// Entry cap of the in-enclave decrypted-value cache. Values are short
/// (column `max_len` bytes), so even at 256-byte values the cache tops
/// out around 2 MiB of the ~96 MiB EPC budget (tracked via
/// `track_alloc`, so it shows up in `trusted_heap_current`).
const VALUE_CACHE_CAPACITY: usize = 8192;

/// Buckets of the value cache's index: twice the capacity, so a chain
/// holds half an entry on average.
const VALUE_CACHE_BUCKETS: usize = 2 * VALUE_CACHE_CAPACITY;

/// End of a bucket chain.
const NO_SLOT: u32 = u32::MAX;

/// Odd 64-bit multiplier (2⁶⁴ / φ) of the cache's multiplicative hash.
const HASH_MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Key of one cached decrypted value: `(interned column id, partition
/// discriminator, epoch·2 + store side, entry index)`.
type CacheKey = (u32, u64, u64, u32);

/// One column-store generation as the value cache addresses it: the
/// first three fields of every [`CacheKey`] it holds, and their share of
/// the bucket hash — worked out once per call, so a probe costs one
/// multiply.
#[derive(Debug, Clone, Copy)]
struct Generation {
    colid: u32,
    part: u64,
    /// `epoch * 2 + side` (side: 0 = main, 1 = delta).
    gen: u64,
    seed: u64,
}

impl Generation {
    fn new(colid: u32, part: u64, epoch: u64, delta: bool) -> Self {
        let gen = epoch * 2 + delta as u64;
        let mut seed = 0u64;
        for word in [colid as u64, part, gen] {
            seed = (seed.rotate_left(23) ^ word).wrapping_mul(HASH_MULTIPLIER);
        }
        Generation {
            colid,
            part,
            gen,
            seed,
        }
    }

    fn key(&self, idx: u32) -> CacheKey {
        (self.colid, self.part, self.gen, idx)
    }

    /// Unkeyed on purpose: every input is a store position the server
    /// chose and observes, so there is nothing for it to learn from a
    /// collision, and crafting them only lengthens its own chains
    /// (DESIGN.md §14.2).
    fn bucket(&self, idx: u32) -> usize {
        let hash = (self.seed ^ idx as u64).wrapping_mul(HASH_MULTIPLIER);
        (hash >> (64 - VALUE_CACHE_BUCKETS.trailing_zeros())) as usize
    }
}

/// One ring position of the value cache.
#[derive(Debug)]
struct CacheSlot {
    key: CacheKey,
    /// Bucket of `key` (kept so unlinking needs no generation).
    bucket: u32,
    /// Next slot in the bucket's chain, or [`NO_SLOT`].
    next: u32,
    /// The plaintext; the buffer outlives the entry and is overwritten
    /// by the next one to land here.
    value: Vec<u8>,
}

/// The bounded in-enclave cache of decrypted dictionary/delta entries
/// (DESIGN.md §14).
///
/// * **Keying.** Entries are keyed by column (its id in the
///   [`ColumnTable`]), the caller's [`CacheTag`] generation (partition,
///   epoch, main/delta side), and the entry index. Main snapshots are
///   immutable per epoch and delta stores are append-only between
///   compaction publishes (the drain happens under the same publish that
///   bumps the epoch), so a populated entry can never go stale: the new
///   epoch's probes simply miss.
/// * **Structure.** A ring of [`VALUE_CACHE_CAPACITY`] slots in insertion
///   order (`first`, `live`) and a chained index from a key's bucket to
///   its slot. Eviction overwrites the oldest slot, value buffer
///   included, so a warm cache allocates nothing; both parts are sized by
///   the capacity, never by `|D|`.
/// * **Eviction.** FIFO. FIFO (not LRU) keeps the eviction order
///   independent of which probes *hit*, so cache-occupancy side channels
///   don't additionally encode hit recency.
/// * **Admission.** A linear search over more than
///   [`VALUE_CACHE_CAPACITY`] entries bypasses the cache entirely (see
///   `DictLogic::search`): under FIFO it could never hit, only evict.
/// * **Leakage.** A hit answers from trusted memory: 0 untrusted loads,
///   0 decrypts — so per-call load counts become history-dependent
///   within an epoch. The ECALL itself is never skipped; see DESIGN.md
///   §14 for the full leakage delta next to the ED1–ED9 table.
#[derive(Debug)]
struct ValueCache {
    /// Per bucket, the first slot of its chain or [`NO_SLOT`].
    buckets: Vec<u32>,
    /// The ring; grows to [`VALUE_CACHE_CAPACITY`] and stays.
    slots: Vec<CacheSlot>,
    /// Ring position of the oldest live entry.
    first: usize,
    /// Live entries, in ring order from `first`.
    live: usize,
}

impl Default for ValueCache {
    fn default() -> Self {
        ValueCache {
            buckets: vec![NO_SLOT; VALUE_CACHE_BUCKETS],
            slots: Vec::new(),
            first: 0,
            live: 0,
        }
    }
}

impl ValueCache {
    fn find(&self, bucket: usize, key: &CacheKey) -> Option<usize> {
        let mut at = self.buckets[bucket];
        while at != NO_SLOT {
            let slot = &self.slots[at as usize];
            if slot.key == *key {
                return Some(at as usize);
            }
            at = slot.next;
        }
        None
    }

    /// The cached value of `idx`, as a probe made after `pending` more
    /// inserts of absent keys would find it: FIFO evicts the oldest live
    /// entries first, so a value those inserts would push out is already
    /// a miss.
    fn get(&self, gen: &Generation, idx: u32, pending: usize) -> Option<&[u8]> {
        let at = self.find(gen.bucket(idx), &gen.key(idx))?;
        let evicted = (self.live + pending).saturating_sub(VALUE_CACHE_CAPACITY);
        let age = (at + VALUE_CACHE_CAPACITY - self.first) % VALUE_CACHE_CAPACITY;
        (age >= evicted).then(|| self.slots[at].value.as_slice())
    }

    /// Takes the oldest entry out of the index and the accounting; its
    /// slot becomes the ring's free position.
    fn evict_oldest(&mut self, env: &mut TrustedEnv) {
        let at = self.first as u32;
        let CacheSlot { bucket, next, .. } = self.slots[self.first];
        let head = &mut self.buckets[bucket as usize];
        if *head == at {
            *head = next;
        } else {
            let mut prev = *head as usize;
            while self.slots[prev].next != at {
                prev = self.slots[prev].next as usize;
            }
            self.slots[prev].next = next;
        }
        env.track_free(self.slots[self.first].value.len());
        self.first = (self.first + 1) % VALUE_CACHE_CAPACITY;
        self.live -= 1;
    }

    fn insert(&mut self, env: &mut TrustedEnv, gen: &Generation, idx: u32, value: &[u8]) {
        if self.live >= VALUE_CACHE_CAPACITY {
            self.evict_oldest(env);
        }
        env.track_alloc(value.len());
        let (bucket, key) = (gen.bucket(idx), gen.key(idx));
        if let Some(at) = self.find(bucket, &key) {
            // Re-inserting a live key replaces its bytes where it stands.
            let held = &mut self.slots[at].value;
            env.track_free(held.len());
            held.clear();
            held.extend_from_slice(value);
            return;
        }
        let at = (self.first + self.live) % VALUE_CACHE_CAPACITY;
        let next = std::mem::replace(&mut self.buckets[bucket], at as u32);
        let bucket = bucket as u32;
        match self.slots.get_mut(at) {
            Some(slot) => {
                slot.value.clear();
                slot.value.extend_from_slice(value);
                (slot.key, slot.bucket, slot.next) = (key, bucket, next);
            }
            None => self.slots.push(CacheSlot {
                key,
                bucket,
                next,
                value: value.to_vec(),
            }),
        }
        self.live += 1;
    }

    /// Drops every entry (the column ids they are keyed by are about to
    /// be reassigned). The ring and its buffers stay allocated.
    fn clear(&mut self, env: &mut TrustedEnv) {
        while self.live > 0 {
            self.evict_oldest(env);
        }
        self.first = 0;
    }
}

/// Loads the ciphertext of entry `i` of a head/tail segment — the one
/// place the enclave follows a head entry into the tail. Head and tail are
/// untrusted bytes: an index past the head, or a head entry whose offset
/// and length do not lie inside the tail (including a sum that would wrap),
/// is [`EncdictError::CorruptDictionary`], never an out-of-range load.
fn load_entry_ciphertext<'a>(
    env: &mut TrustedEnv,
    SegmentRef { head, tail, .. }: SegmentRef<'a>,
    i: usize,
) -> Result<&'a [u8], EncdictError> {
    let within = |mem: enclave_sim::UntrustedMemory<'_>, start: usize, len: usize| {
        start.checked_add(len).is_some_and(|end| end <= mem.len())
    };
    let at = i
        .checked_mul(HEAD_ENTRY_BYTES)
        .filter(|&at| within(head, at, HEAD_ENTRY_BYTES))
        .ok_or(EncdictError::CorruptDictionary("head entry out of range"))?;
    let (offset, clen) = crate::dict::head_entry(env.load(head, at, HEAD_ENTRY_BYTES), 0);
    let clen = clen as usize;
    let offset = usize::try_from(offset)
        .ok()
        .filter(|&offset| within(tail, offset, clen))
        .ok_or(EncdictError::CorruptDictionary("tail offset out of range"))?;
    Ok(env.load(tail, offset, clen))
}

/// One entry to read: its segment, its index there, and the segment's
/// value-cache generation (`None` bypasses the cache).
type EntryRef<'a> = (SegmentRef<'a>, usize, Option<Generation>);

/// The enclave's reads in flight: misses loaded but not yet decrypted —
/// up to [`LANES`] ciphertexts that one [`Pae::decrypt_many_into`] opens
/// together — and the buffers it opens them into. A reader keeps its batch
/// across reads, so a warm one allocates nothing.
#[derive(Default)]
struct Batch<'a> {
    cts: [&'a [u8]; LANES],
    /// The output slot of each, and its cache key if it is to be cached.
    dest: [(usize, Option<(Generation, u32)>); LANES],
    n: usize,
    plaintexts: [Vec<u8>; LANES],
}

impl<'a> Batch<'a> {
    /// Reads `entries` into `outs`, one each and in order — the enclave's
    /// one path from a store to plaintext, the "load into the enclave
    /// individually, decrypt them there" loop of Algorithm 1. A cache hit
    /// is copied from trusted memory with no load or decryption; misses
    /// are loaded in entry order and decrypted [`LANES`] at a time, then
    /// cached. `opened` sees every value decrypted.
    ///
    /// Loads, decryptions and cache hit/miss counts are exactly those of
    /// reading the entries one at a time: before a probe that the pending
    /// misses would have answered differently (their own key, or a value
    /// FIFO would evict to make room for them), they are opened.
    fn read(
        &mut self,
        cache: &mut ValueCache,
        env: &mut TrustedEnv,
        pae: &Pae,
        entries: impl IntoIterator<Item = EntryRef<'a>>,
        outs: &mut [Vec<u8>],
        mut opened: impl FnMut(&mut TrustedEnv, &[u8]),
    ) -> Result<(), EncdictError> {
        for (slot, (seg, i, gen)) in entries.into_iter().enumerate() {
            if let Some(gen) = &gen {
                if self.holds(gen, i as u32) {
                    self.open(cache, env, pae, outs, &mut opened)?;
                }
                if let Some(pt) = cache.get(gen, i as u32, self.inserts()) {
                    env.count_cache_hit();
                    outs[slot].clear();
                    outs[slot].extend_from_slice(pt);
                    continue;
                }
            }
            self.cts[self.n] = load_entry_ciphertext(env, seg, i)?;
            self.dest[self.n] = (slot, gen.map(|gen| (gen, i as u32)));
            self.n += 1;
            if self.n == LANES {
                self.open(cache, env, pae, outs, &mut opened)?;
            }
        }
        self.open(cache, env, pae, outs, &mut opened)
    }

    /// Cache inserts the pending entries will make.
    fn inserts(&self) -> usize {
        self.dest[..self.n]
            .iter()
            .filter(|(_, key)| key.is_some())
            .count()
    }

    /// Whether `gen`'s entry `idx` is among the pending ones.
    fn holds(&self, gen: &Generation, idx: u32) -> bool {
        self.dest[..self.n]
            .iter()
            .any(|(_, key)| key.is_some_and(|(g, i)| g.key(i) == gen.key(idx)))
    }

    /// Opens the pending entries, caches the ones with a key, and moves
    /// each plaintext into its slot of `outs` (swapping buffers, so neither
    /// side allocates once warm).
    fn open(
        &mut self,
        cache: &mut ValueCache,
        env: &mut TrustedEnv,
        pae: &Pae,
        outs: &mut [Vec<u8>],
        opened: &mut impl FnMut(&mut TrustedEnv, &[u8]),
    ) -> Result<(), EncdictError> {
        let n = std::mem::take(&mut self.n);
        if n == 0 {
            return Ok(());
        }
        // Account the transient trusted buffers: one batch of ciphertexts.
        let bytes = self.cts[..n].iter().map(|ct| ct.len()).sum();
        env.track_alloc(bytes);
        let decrypted = pae.decrypt_many_into(
            &self.cts[..n],
            crate::build::DICT_VALUE_AAD,
            &mut self.plaintexts[..n],
        );
        env.track_free(bytes);
        decrypted?;
        for (&(slot, key), pt) in self.dest[..n].iter().zip(&mut self.plaintexts) {
            if let Some((gen, idx)) = key {
                env.count_cache_miss();
                cache.insert(env, &gen, idx, pt);
            }
            opened(env, pt);
            std::mem::swap(&mut outs[slot], pt);
        }
        Ok(())
    }
}

/// Reads dictionary entries from untrusted memory, decrypting inside the
/// enclave, through one [`Batch`]. With a cache generation, entries
/// already decrypted this generation are served from trusted memory.
struct EnclaveDictReader<'a, 'e> {
    env: &'e mut TrustedEnv,
    store: SegmentRef<'a>,
    pae: &'e Pae,
    cache: &'e mut ValueCache,
    gen: Option<Generation>,
    batch: Batch<'a>,
}

impl DictEntryReader for EnclaveDictReader<'_, '_> {
    fn len(&self) -> usize {
        self.store.len
    }

    fn read_into(&mut self, i: usize, buf: &mut Vec<u8>) -> Result<(), EncdictError> {
        // A binary search's lone read has nothing to batch with: a hit is
        // answered here, without the batch's bookkeeping.
        if let Some(gen) = &self.gen {
            if let Some(pt) = self.cache.get(gen, i as u32, self.batch.inserts()) {
                self.env.count_cache_hit();
                buf.clear();
                buf.extend_from_slice(pt);
                return Ok(());
            }
        }
        self.read_chunk_into(i, std::slice::from_mut(buf))
    }

    fn read_chunk_into(&mut self, start: usize, bufs: &mut [Vec<u8>]) -> Result<(), EncdictError> {
        let (store, gen) = (self.store, self.gen);
        let entries = (start..start + bufs.len()).map(|i| (store, i, gen));
        self.batch
            .read(self.cache, self.env, self.pae, entries, bufs, |_, _| {})
    }
}

/// Columns the enclave keeps a cipher for. The server names the columns,
/// so the table is capped: a call that would grow it past this drops
/// every cipher and every cached value (DESIGN.md §6).
const COLUMN_TABLE_CAPACITY: usize = 256;

/// Longest `table` + `col` name, in bytes, the enclave copies into
/// trusted memory — the other half of the table's bound.
const COLUMN_NAME_MAX_BYTES: usize = 512;

/// One column the enclave has served: its names and the cipher under its
/// key `SK_D`. The position in [`ColumnTable::cols`] is the column id the
/// value cache keys by.
#[derive(Debug)]
struct ColumnState {
    table: String,
    col: String,
    pae: Pae,
}

/// The per-column ciphers, built on first use and kept for the life of
/// the master key they were derived from (Algorithm 1 line 1, hoisted out
/// of the per-call path). Trusted state the server can grow by naming
/// columns, hence capped in entries and name length and charged to the
/// trusted heap.
#[derive(Debug, Default)]
struct ColumnTable {
    /// The `SK_DB` every cipher in `cols` was derived from.
    skdb: Option<Key128>,
    cols: Vec<ColumnState>,
    /// Bytes charged through `track_alloc` for `cols`.
    tracked: usize,
}

impl ColumnTable {
    /// Drops every cipher (wiping its key schedule) together with every
    /// cached value: cached values are keyed by column id, and ids are
    /// about to be handed out afresh.
    fn clear(&mut self, env: &mut TrustedEnv, cache: &mut ValueCache) {
        cache.clear(env);
        self.cols.clear();
        env.track_free(std::mem::take(&mut self.tracked));
    }

    /// Forgets everything derived from a master key other than the one
    /// now provisioned, so re-provisioning a live enclave cannot leave a
    /// stale cipher behind.
    fn follow_master_key(&mut self, env: &mut TrustedEnv, cache: &mut ValueCache) {
        let same = match (env.master_key(), &self.skdb) {
            (Some(now), Some(then)) => ct_eq(now.as_bytes(), then.as_bytes()),
            (None, None) => true,
            _ => false,
        };
        if !same {
            self.clear(env, cache);
            self.skdb = env.master_key().cloned();
        }
    }

    /// Makes room for a call that names `columns` columns and needs all
    /// their ids valid at once: if they might not fit, the table is
    /// cleared first, so no [`ColumnTable::get`] of the call clears it
    /// under an id already handed out.
    fn reserve(
        &mut self,
        env: &mut TrustedEnv,
        cache: &mut ValueCache,
        columns: usize,
    ) -> Result<(), EncdictError> {
        if columns > COLUMN_TABLE_CAPACITY {
            return Err(EncdictError::CorruptDictionary(
                "call names more columns than the enclave keeps ciphers for",
            ));
        }
        if self.cols.len() + columns > COLUMN_TABLE_CAPACITY {
            self.clear(env, cache);
        }
        Ok(())
    }

    /// The id and cipher of `(table, col)` — one lookup per sub-call. A
    /// column seen for the first time under this master key pays
    /// Algorithm 1 line 1, `SK_D = DeriveKey(SK_DB, colName, tabName)`,
    /// and the key schedule; a full table is cleared first.
    fn get(
        &mut self,
        env: &mut TrustedEnv,
        cache: &mut ValueCache,
        table: &str,
        col: &str,
    ) -> Result<(u32, &Pae), EncdictError> {
        let known = self
            .cols
            .iter()
            .position(|c| c.table == table && c.col == col);
        let id = match known {
            Some(id) => id,
            None => {
                let skdb = env.master_key().ok_or(EncdictError::KeyNotProvisioned)?;
                if table.len() + col.len() > COLUMN_NAME_MAX_BYTES {
                    return Err(EncdictError::CorruptDictionary("column name too long"));
                }
                let pae = Pae::new(&derive_column_key(skdb, table, col));
                if self.cols.len() >= COLUMN_TABLE_CAPACITY {
                    self.clear(env, cache);
                }
                let bytes = std::mem::size_of::<ColumnState>() + table.len() + col.len();
                env.track_alloc(bytes);
                self.tracked += bytes;
                self.cols.push(ColumnState {
                    table: table.to_string(),
                    col: col.to_string(),
                    pae,
                });
                self.cols.len() - 1
            }
        };
        Ok((id as u32, &self.cols[id].pae))
    }
}

/// The trusted dictionary-search logic.
///
/// Holds an in-enclave RNG for fresh IVs during re-encryption, the
/// per-column ciphers and the bounded decrypted-value cache; the master
/// key lives in the [`TrustedEnv`].
#[derive(Debug)]
pub struct DictLogic {
    rng: StdRng,
    columns: ColumnTable,
    value_cache: ValueCache,
}

impl DictLogic {
    /// Creates the logic with an OS-seeded in-enclave RNG.
    pub fn new() -> Self {
        Self::with_rng(StdRng::from_entropy())
    }

    /// Creates the logic with a deterministic RNG (tests/benches).
    pub fn with_seed(seed: u64) -> Self {
        Self::with_rng(StdRng::seed_from_u64(seed))
    }

    fn with_rng(rng: StdRng) -> Self {
        DictLogic {
            rng,
            columns: ColumnTable::default(),
            value_cache: ValueCache::default(),
        }
    }

    fn search(
        &mut self,
        env: &mut TrustedEnv,
        dict: &Dictionary,
        ranges: &[EncryptedRange],
        cache: Option<CacheTag>,
    ) -> Result<Vec<DictSearchResult>, EncdictError> {
        let (colid, pae) = self.columns.get(
            env,
            &mut self.value_cache,
            dict.table_name(),
            dict.col_name(),
        )?;
        // Line 2: decrypt the ranges inside the enclave — the whole
        // disjunction arrives in one ECALL.
        let queries = ranges
            .iter()
            .map(|r| r.decrypt(pae))
            .collect::<Result<Vec<_>, _>>()?;
        // An empty dictionary (freshly created table before any merge) has
        // nothing to search — and, for rotated kinds, no meaningful
        // rotation offset to validate.
        let order = dict.kind().order();
        let dict_len = dict.len();
        if dict_len == 0 {
            return Ok(queries
                .iter()
                .map(|_| match order {
                    OrderOption::Unsorted => DictSearchResult::Ids(Vec::new()),
                    _ => DictSearchResult::empty_ranges(),
                })
                .collect());
        }
        // Rotated kinds: validate/decrypt the rotation offset (Algorithm 2
        // line 3). The offset itself is not needed by our variant of the
        // special binary search — everything derives from eD[0] — but a
        // tampered offset must still be rejected.
        if order == OrderOption::Rotated {
            let enc = dict
                .rnd_offset()
                .ok_or(EncdictError::CorruptDictionary("missing rotation offset"))?;
            let off = pae.decrypt_bytes(enc, crate::build::ROT_OFFSET_AAD)?;
            let off_bytes: [u8; 8] = off
                .try_into()
                .map_err(|_| EncdictError::CorruptDictionary("bad rotation offset"))?;
            let off = u64::from_le_bytes(off_bytes);
            if off >= dict_len as u64 {
                return Err(EncdictError::CorruptDictionary(
                    "rotation offset out of range",
                ));
            }
        }
        // Cache admission. An unsorted kind is searched by one linear pass
        // over all `dict_len` entries; past the cache's capacity FIFO has
        // evicted entry 0 before the next pass asks for it, so such a scan
        // can never hit — it would only pay a probe, an insert and an
        // eviction per entry and flush every other column's entries. It
        // bypasses the cache (nothing probed, inserted or counted) and
        // observably behaves as an uncached search.
        let scan_outruns_cache = order == OrderOption::Unsorted && dict_len > VALUE_CACHE_CAPACITY;
        let gen = match cache {
            Some(tag) if !scan_outruns_cache => {
                Some(Generation::new(colid, tag.part, tag.epoch, tag.delta))
            }
            _ => None,
        };
        let mut reader = EnclaveDictReader {
            env,
            store: dict.segment().view(),
            pae,
            cache: &mut self.value_cache,
            gen,
            batch: Batch::default(),
        };
        match order {
            OrderOption::Sorted => queries
                .iter()
                .map(|q| sorted::search_sorted(&mut reader, q))
                .collect(),
            OrderOption::Rotated => queries
                .iter()
                .map(|q| rotated::search_rotated(&mut reader, q))
                .collect(),
            // A single pass over the dictionary answers every query at
            // once — the decrypt cost stays `|D|`, not `|D| · ranges`.
            OrderOption::Unsorted => unsorted::search_unsorted_multi(&mut reader, &queries),
        }
    }

    fn reencrypt(
        &mut self,
        env: &mut TrustedEnv,
        req: ReencryptRequest<'_>,
    ) -> Result<Vec<u8>, EncdictError> {
        let (_, pae) =
            self.columns
                .get(env, &mut self.value_cache, req.table_name, req.col_name)?;
        let pt = pae.decrypt_bytes(req.ciphertext, crate::build::DICT_VALUE_AAD)?;
        env.track_alloc(pt.len());
        let ct = pae.encrypt_with_rng(&mut self.rng, &pt, crate::build::DICT_VALUE_AAD);
        env.track_free(pt.len());
        Ok(ct.into_bytes())
    }

    fn merge(
        &mut self,
        env: &mut TrustedEnv,
        req: MergeRequest<'_>,
    ) -> Result<(Dictionary, colstore::dictionary::AttributeVector), EncdictError> {
        let skdb = env.master_key().ok_or(EncdictError::KeyNotProvisioned)?;
        let sk_d = derive_column_key(skdb, req.table_name, req.col_name);
        let pae = Pae::new(&sk_d);

        // Reassemble the logical plaintext column in the trusted realm:
        // valid main rows in row order, then valid delta rows. The merge is
        // the one operation whose trusted working set grows with the column;
        // the paper prescribes oblivious primitives here — we account the
        // memory instead (visible in trusted_heap_peak).
        let mut column = colstore::column::Column::new(req.col_name, req.max_len);
        let mut bytes_tracked = 0usize;
        let main_rows = (req.main_av.iter().enumerate())
            .filter(|&(j, _)| req.main_valid.is_valid(j))
            .map(|(_, vid)| match vid as usize {
                vid if vid < req.main.len => Ok((req.main, vid, None)),
                _ => Err(EncdictError::CorruptDictionary("value id out of range")),
            });
        let delta_rows = (0..req.delta.len)
            .filter(|&i| req.delta_valid.is_valid(i))
            .map(|i| Ok((req.delta, i, None)));
        let mut rows = main_rows.chain(delta_rows);
        // `LANES` rows at a time through one batch and one set of plaintext
        // buffers; `column.push` copies.
        let mut chunk = Vec::with_capacity(LANES);
        let (mut batch, mut pts) = (Batch::default(), <[Vec<u8>; LANES]>::default());
        loop {
            for row in rows.by_ref().take(LANES) {
                chunk.push(row?);
            }
            let pts = &mut pts[..chunk.len()];
            if pts.is_empty() {
                break;
            }
            batch.read(
                &mut self.value_cache,
                env,
                &pae,
                chunk.drain(..),
                pts,
                |env, pt| {
                    bytes_tracked += pt.len();
                    env.track_alloc(pt.len());
                },
            )?;
            for pt in pts.iter() {
                column
                    .push(pt)
                    .map_err(|_| EncdictError::CorruptDictionary("merged value exceeds maximum"))?;
            }
        }

        let params = crate::build::BuildParams {
            table_name: req.table_name.to_string(),
            col_name: req.col_name.to_string(),
            bs_max: req.bs_max,
        };
        let rebuilt =
            crate::build::build_encrypted(&column, req.kind, &params, &sk_d, &mut self.rng);
        env.track_free(bytes_tracked);
        rebuilt
    }

    /// Decrypts one column's distinct touched codes into its plaintext
    /// value table — the batched `DecryptValue` loop shared by aggregation
    /// and the join bridge, one decryption per distinct code. `key` is the
    /// column's id and cipher when it is declared encrypted, `None` for
    /// PLAIN.
    fn column_values(
        cache: &mut ValueCache,
        env: &mut TrustedEnv,
        key: Option<(u32, &Pae)>,
        col: &ColumnData,
        tally: &mut DecryptTally,
    ) -> Result<Vec<Vec<u8>>, EncdictError> {
        match (col, key) {
            (
                ColumnData::Encrypted {
                    main,
                    delta,
                    codes,
                    cache: tag,
                },
                Some((colid, pae)),
            ) => {
                // One cache generation per store side: [main, delta].
                let gens = tag.map(|(part, epoch)| {
                    [false, true].map(|delta| Generation::new(colid, part, epoch, delta))
                });
                let main = main.segment().view();
                let delta = delta.segment().view();
                if codes
                    .iter()
                    .any(|&code| code as usize >= main.len + delta.len)
                {
                    return Err(EncdictError::CorruptDictionary("code out of range"));
                }
                let entries = codes.iter().map(|&code| match code as usize {
                    code if code < main.len => (main, code, gens.map(|[main, _]| main)),
                    code => (delta, code - main.len, gens.map(|[_, delta]| delta)),
                });
                let mut table = vec![Vec::new(); codes.len()];
                Batch::default().read(cache, env, pae, entries, &mut table, |env, pt| {
                    tally.values += 1;
                    tally.bytes += pt.len();
                    env.track_alloc(pt.len());
                })?;
                Ok(table)
            }
            (ColumnData::Plain { values }, None) => Ok(values.clone()),
            _ => Err(EncdictError::CorruptDictionary(
                "column data does not match its declared protection",
            )),
        }
    }

    /// Decrypts one join side's distinct key codes into per-partition
    /// plaintext key tables.
    fn bridge_side_keys(
        &mut self,
        env: &mut TrustedEnv,
        side: &JoinSideData,
        tally: &mut DecryptTally,
    ) -> Result<Vec<Vec<Vec<u8>>>, EncdictError> {
        let key = match &side.col_name {
            Some(col) => {
                Some(
                    self.columns
                        .get(env, &mut self.value_cache, &side.table_name, col)?,
                )
            }
            None => None,
        };
        side.parts
            .iter()
            .map(|part| Self::column_values(&mut self.value_cache, env, key, part, tally))
            .collect()
    }

    fn join_bridge(
        &mut self,
        env: &mut TrustedEnv,
        req: &JoinBridgeRequest,
        tally: &mut DecryptTally,
    ) -> Result<JoinBridgeReply, EncdictError> {
        let left = self.bridge_side_keys(env, &req.left, tally)?;
        let right = self.bridge_side_keys(env, &req.right, tally)?;
        // Ids are assigned after an in-enclave shuffle, so the numbering
        // carries no key-order information — crucial for rotated/unsorted
        // kinds whose dictionaries hide order.
        use rand::seq::SliceRandom;
        let (left, right, bridge_entries) =
            bridge_key_tables(&left, &right, |m| m.shuffle(&mut self.rng));
        Ok(JoinBridgeReply {
            left,
            right,
            bridge_entries,
            values_decrypted: tally.values,
        })
    }

    fn aggregate(
        &mut self,
        env: &mut TrustedEnv,
        req: &AggregateRequest,
        tally: &mut DecryptTally,
    ) -> Result<AggregateReply, EncdictError> {
        // Every index below — partial folding, finalize, sort and the
        // re-encryption of each cell — comes from this server-sent plan.
        req.plan.check(req.col_names.len())?;
        // One cipher per referenced encrypted column, shared by every
        // partition (partitions of a table are protected by the same
        // column keys). The ids are all in use at once, so the table makes
        // room for them before the first is handed out.
        let cache = &mut self.value_cache;
        let encrypted = req.col_names.iter().flatten().count();
        self.columns.reserve(env, cache, encrypted)?;
        let mut colids: Vec<Option<u32>> = Vec::with_capacity(req.col_names.len());
        for name in &req.col_names {
            colids.push(match name {
                Some(col) => Some(self.columns.get(env, cache, &req.table_name, col)?.0),
                None => None,
            });
        }
        let keys: Vec<Option<(u32, &Pae)>> = colids
            .iter()
            .map(|id| id.map(|id| (id, &self.columns.cols[id as usize].pae)))
            .collect();
        // Fold every partition into per-group partial aggregates,
        // decrypting each partition's distinct touched codes exactly once
        // (batched decryption), and merge the partials in the trusted
        // core.
        let mut partials = crate::aggregate::GroupPartials::new();
        for part in &req.parts {
            if part.columns.len() != req.col_names.len() {
                return Err(EncdictError::CorruptDictionary(
                    "partition column arity mismatch",
                ));
            }
            let mut tables: Vec<Vec<Vec<u8>>> = Vec::with_capacity(part.columns.len());
            for (col, &key) in part.columns.iter().zip(&keys) {
                tables.push(Self::column_values(cache, env, key, col, tally)?);
            }
            let mut partial = crate::aggregate::GroupPartials::new();
            partial.accumulate(&tables, &part.tuples, &req.plan)?;
            partials.merge(partial);
        }
        let rows = partials.finalize(&req.plan)?;
        // Wrap each plaintext cell for the untrusted realm: values derived
        // from an encrypted column leave the enclave only re-encrypted
        // under that column's key with a fresh IV.
        let out = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .zip(&req.plan.items)
                    .map(|(value, item)| {
                        let source = match *item {
                            crate::aggregate::OutputItem::Group(i) => Some(req.plan.group_cols[i]),
                            crate::aggregate::OutputItem::Agg(j) => req.plan.aggregates[j].col,
                        };
                        match source.and_then(|c| keys[c]) {
                            Some((_, pae)) => AggCell::Encrypted(
                                pae.encrypt_with_rng(
                                    &mut self.rng,
                                    &value,
                                    crate::build::DICT_VALUE_AAD,
                                )
                                .into_bytes(),
                            ),
                            None => AggCell::Plain(value),
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(AggregateReply {
            rows: out,
            values_decrypted: tally.values,
        })
    }

    /// Serves one read-path call. Aggregate and bridge hold their
    /// decrypted value tables in trusted memory for the duration of the
    /// call; the tally releases that accounting on success and on error.
    fn read(&mut self, env: &mut TrustedEnv, call: &ReadCall) -> ReadReply {
        let mut tally = DecryptTally::default();
        let reply = match call {
            ReadCall::Search(s) => ReadReply::Search(self.search(env, &s.dict, &s.ranges, s.cache)),
            ReadCall::Aggregate(a) => ReadReply::Aggregated(self.aggregate(env, a, &mut tally)),
            ReadCall::JoinBridge(j) => ReadReply::Bridged(self.join_bridge(env, j, &mut tally)),
        };
        env.track_free(tally.bytes);
        reply
    }
}

/// What one aggregate or bridge call has decrypted so far: the count its
/// reply reports and the plaintext bytes charged to the trusted heap.
#[derive(Default)]
struct DecryptTally {
    values: usize,
    bytes: usize,
}

impl Default for DictLogic {
    fn default() -> Self {
        Self::new()
    }
}

impl EnclaveLogic for DictLogic {
    type Call<'a> = DictCall<'a>;
    type Reply = DictReply;

    fn code_identity(&self) -> &'static [u8] {
        // The measured "code": a stable identity string for the dictionary
        // search enclave version.
        b"encdbdb/dict-enclave/v1"
    }

    fn dispatch(&mut self, env: &mut TrustedEnv, call: DictCall<'_>) -> DictReply {
        self.columns.follow_master_key(env, &mut self.value_cache);
        match call {
            DictCall::Search {
                dict,
                ranges,
                cache,
            } => DictReply::Search(self.search(env, dict, ranges, cache)),
            DictCall::Reencrypt(req) => DictReply::Reencrypted(self.reencrypt(env, req)),
            DictCall::Merge(req) => DictReply::Merged(self.merge(env, req)),
            DictCall::Batch(calls) => {
                // One transition, many sub-calls: snapshot the counters
                // around each sub-call so every reply carries exactly its
                // own untrusted traffic (the batched analogue of the
                // host-side capture-under-lock the ledger relies on).
                let mut items = Vec::with_capacity(calls.len());
                for sub in calls {
                    let before = env.counters();
                    let reply = self.read(env, sub);
                    let after = env.counters();
                    items.push(BatchItemReply {
                        reply,
                        untrusted_loads: after.untrusted_loads - before.untrusted_loads,
                        untrusted_bytes: after.untrusted_bytes - before.untrusted_bytes,
                        cache_hits: after.cache_hits - before.cache_hits,
                        cache_misses: after.cache_misses - before.cache_misses,
                    });
                }
                DictReply::Batch(items)
            }
        }
    }
}

/// Host-side handle to the dictionary enclave.
///
/// # Example
///
/// ```
/// use colstore::column::Column;
/// use encdbdb_crypto::hkdf::derive_column_key;
/// use encdbdb_crypto::Key128;
/// use encdict::build::{build_encrypted, BuildParams};
/// use encdict::enclave_ops::DictEnclave;
/// use encdict::kind::EdKind;
/// use encdict::range::{EncryptedRange, RangeQuery};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let skdb = Key128::from_bytes([9; 16]);
/// let params = BuildParams { table_name: "t".into(), col_name: "c".into(), bs_max: 10 };
/// let sk_d = derive_column_key(&skdb, "t", "c");
///
/// let col = Column::from_strs("c", 12, ["Hans", "Jessica", "Archie"]).unwrap();
/// let (dict, _av) = build_encrypted(&col, EdKind::Ed1, &params, &sk_d, &mut rng).unwrap();
///
/// let mut enclave = DictEnclave::with_seed(2);
/// enclave.provision_direct(skdb);
///
/// let pae = encdbdb_crypto::Pae::new(&sk_d);
/// let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("Archie", "Hans"));
/// let result = enclave.search(&dict, &range).unwrap();
/// assert_eq!(result.match_count(), 2); // Archie, Hans
/// ```
#[derive(Debug)]
pub struct DictEnclave {
    inner: Enclave<DictLogic>,
}

impl DictEnclave {
    /// Creates the enclave with an OS-seeded trusted RNG.
    pub fn new() -> Self {
        DictEnclave {
            inner: Enclave::new(DictLogic::new()),
        }
    }

    /// Creates the enclave with a deterministic trusted RNG.
    pub fn with_seed(seed: u64) -> Self {
        DictEnclave {
            inner: Enclave::new(DictLogic::with_seed(seed)),
        }
    }

    /// Access to the underlying simulated enclave (attestation, counters).
    pub fn enclave(&self) -> &Enclave<DictLogic> {
        &self.inner
    }

    /// Mutable access to the underlying simulated enclave.
    pub fn enclave_mut(&mut self) -> &mut Enclave<DictLogic> {
        &mut self.inner
    }

    /// Installs `SK_DB` directly (trusted-setup variant, §4.2).
    pub fn provision_direct(&mut self, skdb: encdbdb_crypto::Key128) {
        self.inner.provision_key_direct(skdb);
    }

    /// Performs one dictionary search — exactly one ECALL.
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::KeyNotProvisioned`] before provisioning,
    /// [`EncdictError::Crypto`] on tampered inputs.
    pub fn search(
        &mut self,
        dict: &Dictionary,
        range: &EncryptedRange,
    ) -> Result<DictSearchResult, EncdictError> {
        let mut results = self.search_multi(dict, std::slice::from_ref(range), None)?;
        Ok(results.pop().expect("one result per range"))
    }

    /// Searches a whole disjunction (`IN (...)` / multi-range filter) in a
    /// single ECALL — one result per range, in request order. `cache`
    /// enables the in-enclave decrypted-value cache for this store
    /// generation (see [`CacheTag`]).
    ///
    /// # Errors
    ///
    /// As [`DictEnclave::search`].
    pub fn search_multi(
        &mut self,
        dict: &Dictionary,
        ranges: &[EncryptedRange],
        cache: Option<CacheTag>,
    ) -> Result<Vec<DictSearchResult>, EncdictError> {
        match self.inner.ecall(DictCall::Search {
            dict,
            ranges,
            cache,
        }) {
            DictReply::Search(r) => r,
            _ => unreachable!("search call returns search reply"),
        }
    }

    /// Re-encrypts an incoming value for a delta-store insert — one ECALL.
    ///
    /// # Errors
    ///
    /// As [`DictEnclave::search`].
    pub fn reencrypt(
        &mut self,
        table_name: &str,
        col_name: &str,
        ciphertext: &[u8],
    ) -> Result<Ciphertext, EncdictError> {
        let req = ReencryptRequest {
            table_name,
            col_name,
            ciphertext,
        };
        match self.inner.ecall(DictCall::Reencrypt(req)) {
            DictReply::Reencrypted(r) => {
                Ok(Ciphertext::from_bytes(r?).expect("enclave produced a well-formed ciphertext"))
            }
            _ => unreachable!("reencrypt call returns reencrypt reply"),
        }
    }

    /// Merges a delta store into a freshly rebuilt main store — one ECALL.
    ///
    /// # Errors
    ///
    /// As [`DictEnclave::search`].
    pub fn merge(
        &mut self,
        req: MergeRequest<'_>,
    ) -> Result<(Dictionary, colstore::dictionary::AttributeVector), EncdictError> {
        match self.inner.ecall(DictCall::Merge(req)) {
            DictReply::Merged(r) => r,
            _ => unreachable!("merge call returns merge reply"),
        }
    }

    /// Executes one or more read-path calls in a **single** enclave
    /// transition — how every scheduled search, aggregate and join bridge
    /// enters the enclave, alone or coalesced with other sessions' calls.
    /// Replies come back in request order, each tagged with the counter
    /// deltas its own sub-call produced, so the host can attribute
    /// untrusted traffic per request. Never fails as a whole: per-sub-call
    /// errors are inside each [`BatchItemReply::reply`].
    pub fn batch(&mut self, calls: Vec<&ReadCall>) -> Vec<BatchItemReply> {
        match self.inner.ecall(DictCall::Batch(calls)) {
            DictReply::Batch(items) => items,
            _ => unreachable!("batch call returns batch reply"),
        }
    }
}

impl Default for DictEnclave {
    fn default() -> Self {
        Self::new()
    }
}

/// Helper: encrypts a plaintext value the way the proxy does for inserts.
pub fn encrypt_value_for_column<R: RngCore + ?Sized>(
    pae: &Pae,
    rng: &mut R,
    value: &[u8],
) -> Ciphertext {
    pae.encrypt_with_rng(rng, value, crate::build::DICT_VALUE_AAD)
}

/// Helper: decrypts a dictionary-value ciphertext (proxy side, step 14).
///
/// # Errors
///
/// Returns [`EncdictError::Crypto`] on tampering or a wrong key.
pub fn decrypt_column_value(pae: &Pae, ciphertext: &[u8]) -> Result<Vec<u8>, EncdictError> {
    Ok(pae.decrypt_bytes(ciphertext, crate::build::DICT_VALUE_AAD)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_encrypted, BuildParams};
    use crate::range::RangeQuery;
    use colstore::column::Column;
    use encdbdb_crypto::Key128;

    fn setup(kind: EdKind, values: &[&str], seed: u64) -> (DictEnclave, Dictionary, Pae, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let skdb = Key128::from_bytes([9; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let params = BuildParams {
            table_name: "t".into(),
            col_name: "c".into(),
            bs_max: 3,
        };
        let col = Column::from_strs("c", 12, values.iter().copied()).unwrap();
        let (dict, _) = build_encrypted(&col, kind, &params, &sk_d, &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(seed + 1);
        enclave.provision_direct(skdb);
        (enclave, dict, Pae::new(&sk_d), rng)
    }

    #[test]
    fn search_works_for_all_nine_kinds() {
        let values = ["Hans", "Jessica", "Archie", "Ella", "Jessica", "Jessica"];
        for (i, kind) in EdKind::ALL.iter().enumerate() {
            let (mut enclave, dict, pae, mut rng) = setup(*kind, &values, 100 + i as u64);
            let range =
                EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("Archie", "Hans"));
            let result = enclave.search(&dict, &range).unwrap();
            // Matching plaintexts: Hans, Archie, Ella → 3 dictionary entries
            // for revealing kinds; possibly more for smoothing/hiding, but
            // the *distinct plaintext coverage* is what we check below.
            let count = result.match_count();
            assert!(count >= 3, "{kind}: {count} matches");
            // Verify every returned ValueID decrypts into the range.
            for vid in result.to_vid_list() {
                let pt = decrypt_column_value(&pae, dict.value(vid as usize)).unwrap();
                assert!(
                    RangeQuery::between("Archie", "Hans").contains(&pt),
                    "{kind}: vid {vid} -> {:?} outside range",
                    String::from_utf8_lossy(&pt)
                );
            }
        }
    }

    #[test]
    fn one_ecall_per_search() {
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed1, &["a", "b", "c"], 7);
        enclave.enclave_mut().reset_counters();
        let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("b"));
        let _ = enclave.search(&dict, &range).unwrap();
        assert_eq!(enclave.enclave().counters().ecalls, 1);
    }

    #[test]
    fn trusted_heap_is_constant_in_dict_size() {
        // The paper: "the required enclave memory is independent of |D|".
        // A binary search holds one entry at a time, a linear scan one
        // batch of ciphertexts.
        let small: Vec<String> = (0..64).map(|i| format!("v{i:04}")).collect();
        let large: Vec<String> = (0..8192).map(|i| format!("v{i:04}")).collect();
        for kind in [EdKind::Ed1, EdKind::Ed3, EdKind::Ed9] {
            let mut peaks = Vec::new();
            for values in [&small, &large] {
                let refs: Vec<&str> = values.iter().map(String::as_str).collect();
                let (mut enclave, dict, pae, mut rng) = setup(kind, &refs, 8);
                enclave.enclave_mut().reset_heap_peak();
                let range =
                    EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("v0001", "v0100"));
                let _ = enclave.search(&dict, &range).unwrap();
                peaks.push(enclave.enclave().trusted_heap_peak());
            }
            assert_eq!(
                peaks[0], peaks[1],
                "{kind}: heap peak must not grow with |D|"
            );
        }
    }

    /// Hit, miss and load counts of repeated cached ED9 scans, which the
    /// batched reader must keep exactly as one-at-a-time reads make them.
    #[test]
    fn cached_scans_count_hits_and_misses_as_single_reads_do() {
        let cached = |part| {
            Some(CacheTag {
                part,
                epoch: 0,
                delta: false,
            })
        };
        let values = |n: usize| -> Vec<String> { (0..n).map(|i| format!("v{i:05}")).collect() };
        let scan = |enclave: &mut DictEnclave, dict: &Dictionary, tau, part| {
            enclave.enclave_mut().reset_counters();
            enclave.search_multi(dict, tau, cached(part)).unwrap();
            let c = enclave.enclave().counters();
            (c.cache_hits, c.cache_misses, c.untrusted_loads)
        };

        // Below capacity: the first scan fills the cache, the next two
        // are served from it.
        let small = values(1000);
        let refs: Vec<&str> = small.iter().map(String::as_str).collect();
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed9, &refs, 16);
        let tau = [EncryptedRange::encrypt(
            &pae,
            &mut rng,
            &RangeQuery::equals("v00042"),
        )];
        let counts: Vec<_> = (0..3).map(|_| scan(&mut enclave, &dict, &tau, 0)).collect();
        assert_eq!(counts, [(0, 1000, 2000), (1000, 0, 0), (1000, 0, 0)]);

        // At capacity, after another store evicted the four oldest
        // entries: each miss evicts the entry the scan reaches next, so a
        // one-at-a-time scan misses everywhere. A batch that probed ahead
        // of its pending misses would hit entries 4..8.
        let full = values(VALUE_CACHE_CAPACITY);
        let refs: Vec<&str> = full.iter().map(String::as_str).collect();
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed9, &refs, 17);
        let (other, _) = build_encrypted(
            &Column::from_strs("c", 12, ["a", "b", "c", "d"]).unwrap(),
            EdKind::Ed9,
            &BuildParams {
                table_name: "t".into(),
                col_name: "c".into(),
                bs_max: 3,
            },
            &derive_column_key(&Key128::from_bytes([9; 16]), "t", "c"),
            &mut rng,
        )
        .unwrap();
        let tau = [EncryptedRange::encrypt(
            &pae,
            &mut rng,
            &RangeQuery::equals("v00042"),
        )];
        let n = VALUE_CACHE_CAPACITY as u64;
        assert_eq!(scan(&mut enclave, &dict, &tau, 0), (0, n, 2 * n));
        assert_eq!(scan(&mut enclave, &dict, &tau, 0), (n, 0, 0));
        assert_eq!(scan(&mut enclave, &other, &tau, 1), (0, 4, 8));
        assert_eq!(scan(&mut enclave, &dict, &tau, 0), (0, n, 2 * n));
    }

    #[test]
    fn a_tampered_entry_inside_a_batch_fails_the_scan() {
        let values: Vec<String> = (0..20).map(|i| format!("v{i:05}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed3, &refs, 18);
        // Entry 11 sits in the middle of the second batch.
        let mut segment = crate::dict::Segment::default();
        for i in 0..dict.len() {
            let mut ct = dict.value(i).to_vec();
            if i == 11 {
                ct[encdbdb_crypto::gcm::IV_LEN] ^= 1;
            }
            segment.push(&ct);
        }
        let tampered = Dictionary::new(EdKind::Ed3, "t".into(), "c".into(), 12, segment, None);
        let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("v00003"));
        enclave.enclave_mut().reset_counters();
        assert_eq!(
            enclave.search(&tampered, &range).unwrap_err(),
            EncdictError::Crypto(encdbdb_crypto::CryptoError::TagMismatch)
        );
        let loads = enclave.enclave().counters().untrusted_loads;
        assert!(loads <= 2 * dict.len() as u64, "loads = {loads}");
    }

    #[test]
    fn untrusted_loads_are_logarithmic_for_sorted() {
        let values: Vec<String> = (0..4096).map(|i| format!("v{i:05}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed1, &refs, 9);
        enclave.enclave_mut().reset_counters();
        let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("v00042"));
        let _ = enclave.search(&dict, &range).unwrap();
        let loads = enclave.enclave().counters().untrusted_loads;
        // Each entry read = head load + tail load; two binary searches.
        assert!(loads <= 2 * 2 * 13, "loads = {loads}");
    }

    #[test]
    fn untrusted_loads_are_linear_for_unsorted() {
        let values: Vec<String> = (0..512).map(|i| format!("v{i:05}")).collect();
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed3, &refs, 10);
        enclave.enclave_mut().reset_counters();
        let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("v00042"));
        let _ = enclave.search(&dict, &range).unwrap();
        let loads = enclave.enclave().counters().untrusted_loads;
        assert_eq!(loads, 2 * 512, "linear scan loads head+tail per entry");
    }

    #[test]
    fn unprovisioned_enclave_refuses() {
        let mut rng = StdRng::seed_from_u64(11);
        let skdb = Key128::from_bytes([9; 16]);
        let sk_d = derive_column_key(&skdb, "t", "c");
        let col = Column::from_strs("c", 12, ["a"]).unwrap();
        let params = BuildParams {
            table_name: "t".into(),
            col_name: "c".into(),
            bs_max: 3,
        };
        let (dict, _) = build_encrypted(&col, EdKind::Ed1, &params, &sk_d, &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(12);
        let range = EncryptedRange::encrypt(&Pae::new(&sk_d), &mut rng, &RangeQuery::equals("a"));
        assert_eq!(
            enclave.search(&dict, &range).unwrap_err(),
            EncdictError::KeyNotProvisioned
        );
    }

    #[test]
    fn tampered_dictionary_rejected() {
        let (mut enclave, dict, pae, mut rng) = setup(EdKind::Ed3, &["a", "b"], 13);
        // Flip a byte in a ciphertext copy and decrypt directly.
        let mut ct = dict.value(0).to_vec();
        ct[5] ^= 1;
        assert!(decrypt_column_value(&pae, &ct).is_err());
        // And a tampered range is rejected end-to-end.
        let mut range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("a"));
        let mut raw = range.tau_s.as_bytes().to_vec();
        raw[3] ^= 1;
        range.tau_s = Ciphertext::from_bytes(raw).unwrap();
        assert!(matches!(
            enclave.search(&dict, &range).unwrap_err(),
            EncdictError::Crypto(_)
        ));
    }

    #[test]
    fn wrong_column_metadata_fails_decryption() {
        // A dictionary re-labelled with a different column name derives a
        // different SK_D inside the enclave, so decryption must fail —
        // values are cryptographically bound to their column.
        let (mut enclave, dict, _, mut rng) = setup(EdKind::Ed1, &["a", "b"], 14);
        let skdb = Key128::from_bytes([9; 16]);
        let other_pae = Pae::new(&derive_column_key(&skdb, "t", "other"));
        let range = EncryptedRange::encrypt(&other_pae, &mut rng, &RangeQuery::equals("a"));
        assert!(enclave.search(&dict, &range).is_err());
    }

    #[test]
    fn join_bridge_matches_equal_keys_once_per_distinct_code() {
        // Left ED1 dictionary {a,b,c}, right ED9-ish per-row entries with
        // duplicates {b,b,d}: the bridge must connect exactly the key 'b',
        // decrypting each distinct code once per side.
        let values_l = ["a", "b", "c"];
        let values_r = ["b", "b", "d"];
        let mut rng = StdRng::seed_from_u64(31);
        let skdb = Key128::from_bytes([9; 16]);
        let sk_l = derive_column_key(&skdb, "t", "kl");
        let sk_r = derive_column_key(&skdb, "u", "kr");
        let params_l = BuildParams {
            table_name: "t".into(),
            col_name: "kl".into(),
            bs_max: 3,
        };
        let params_r = BuildParams {
            table_name: "u".into(),
            col_name: "kr".into(),
            bs_max: 3,
        };
        let col_l = Column::from_strs("kl", 8, values_l.iter().copied()).unwrap();
        let col_r = Column::from_strs("kr", 8, values_r.iter().copied()).unwrap();
        let (dict_l, _) = build_encrypted(&col_l, EdKind::Ed1, &params_l, &sk_l, &mut rng).unwrap();
        let (dict_r, _) = build_encrypted(&col_r, EdKind::Ed9, &params_r, &sk_r, &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(32);
        enclave.provision_direct(skdb);
        enclave.enclave_mut().reset_counters();

        let side = |table: &str, col: &str, dict: Dictionary| JoinSideData {
            table_name: table.into(),
            col_name: Some(col.into()),
            parts: vec![ColumnData::Encrypted {
                codes: (0..dict.len() as u32).collect(),
                main: std::sync::Arc::new(dict),
                delta: std::sync::Arc::new(Dictionary::delta(table, col, 8)),
                cache: None,
            }],
        };
        let call = ReadCall::JoinBridge(JoinBridgeRequest {
            left: side("t", "kl", dict_l.clone()),
            right: side("u", "kr", dict_r.clone()),
        });
        let reply = enclave
            .batch(vec![&call])
            .pop()
            .expect("one reply per call")
            .reply
            .into_bridged()
            .unwrap();
        // One ECALL; one decrypt per distinct code per side.
        assert_eq!(enclave.enclave().counters().ecalls, 1);
        assert_eq!(reply.values_decrypted, dict_l.len() + dict_r.len());
        // Exactly one key ('b') bridges; it links matching codes on both
        // sides and nothing else.
        assert_eq!(reply.bridge_entries, 1);
        let left_ids: Vec<_> = reply.left[0].iter().filter_map(|x| *x).collect();
        assert_eq!(left_ids, vec![0]);
        // ED9 shuffles entries, so locate 'b' codes by decrypting.
        let pae_r = Pae::new(&sk_r);
        let b_codes: Vec<usize> = (0..dict_r.len())
            .filter(|&i| decrypt_column_value(&pae_r, dict_r.value(i)).unwrap() == b"b")
            .collect();
        assert_eq!(b_codes.len(), 2, "ED9 keeps one entry per occurrence");
        for (i, id) in reply.right[0].iter().enumerate() {
            assert_eq!(id.is_some(), b_codes.contains(&i), "code {i}");
        }
    }

    /// The cache this module had before the ring and its index — a SipHash
    /// map of owned values plus an insertion-order queue — kept as the
    /// oracle the ring is checked against.
    #[derive(Default)]
    struct MapCache {
        map: std::collections::HashMap<CacheKey, Vec<u8>>,
        order: std::collections::VecDeque<CacheKey>,
    }

    impl MapCache {
        fn get(&self, key: &CacheKey) -> Option<&Vec<u8>> {
            self.map.get(key)
        }

        fn insert(&mut self, env: &mut TrustedEnv, key: CacheKey, value: Vec<u8>) {
            if self.map.len() >= VALUE_CACHE_CAPACITY {
                if let Some(oldest) = self.order.pop_front() {
                    if let Some(evicted) = self.map.remove(&oldest) {
                        env.track_free(evicted.len());
                    }
                }
            }
            env.track_alloc(value.len());
            if let Some(prev) = self.map.insert(key, value) {
                env.track_free(prev.len());
            } else {
                self.order.push_back(key);
            }
        }
    }

    fn keys_oldest_first(cache: &ValueCache) -> Vec<CacheKey> {
        (0..cache.live)
            .map(|k| cache.slots[(cache.first + k) % VALUE_CACHE_CAPACITY].key)
            .collect()
    }

    #[test]
    fn value_cache_agrees_with_the_map_and_queue_it_replaced() {
        use rand::Rng;
        // Eight generations of 4 000 indices: four times the capacity in
        // distinct keys. Inserts do not look first, so live keys get
        // re-inserted, also while the cache is full.
        const INDICES: u32 = 4000;
        let gens: Vec<Generation> = (0..8u64)
            .map(|g| Generation::new((g % 3) as u32, g / 3, 5 + g / 2, g % 2 == 1))
            .collect();
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(900 + seed);
            let (mut env, mut oracle_env) = (TrustedEnv::new(), TrustedEnv::new());
            let mut cache = ValueCache::default();
            let mut oracle = MapCache::default();
            for step in 0..90_000u32 {
                // Generation 0 is in use, then left alone until FIFO has
                // evicted its last entry, then comes back.
                let g = match step {
                    0..=9_999 => rng.gen_range(0..2),
                    10_000..=59_999 => rng.gen_range(1..gens.len()),
                    _ => rng.gen_range(0..gens.len()),
                };
                if step == 60_000 {
                    assert!(
                        oracle.order.iter().all(|k| k.2 != gens[0].gen),
                        "generation 0 should have aged out"
                    );
                }
                let (gen, idx) = (&gens[g], rng.gen_range(0..INDICES));
                if rng.gen_bool(0.5) {
                    assert_eq!(
                        cache.get(gen, idx, 0),
                        oracle.get(&gen.key(idx)).map(Vec::as_slice),
                        "seed {seed} step {step}: get"
                    );
                } else {
                    let len = rng.gen_range(0..24usize);
                    let value: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
                    cache.insert(&mut env, gen, idx, &value);
                    oracle.insert(&mut oracle_env, gen.key(idx), value);
                }
                assert_eq!(
                    env.heap_current(),
                    oracle_env.heap_current(),
                    "seed {seed} step {step}: tracked bytes"
                );
                if step % 1013 == 0 {
                    assert_eq!(
                        keys_oldest_first(&cache),
                        Vec::from(oracle.order.clone()),
                        "seed {seed} step {step}: eviction order"
                    );
                }
            }
            assert_eq!(env.heap_peak(), oracle_env.heap_peak());
            assert_eq!(keys_oldest_first(&cache), Vec::from(oracle.order.clone()));
            // Emptying the cache returns every tracked byte and leaves a
            // cache that works.
            cache.clear(&mut env);
            assert_eq!(env.heap_current(), 0);
            assert_eq!(cache.get(&gens[1], 7, 0), None);
            cache.insert(&mut env, &gens[1], 7, b"back");
            assert_eq!(cache.get(&gens[1], 7, 0), Some(&b"back"[..]));
        }
    }

    #[test]
    fn reprovisioning_drops_ciphers_and_cached_values_of_the_old_key() {
        let values = ["a", "b", "c", "d"];
        let (mut enclave, dict_k1, pae_k1, mut rng) = setup(EdKind::Ed1, &values, 40);
        let tag = Some(CacheTag {
            part: 0,
            epoch: 0,
            delta: false,
        });
        let query = RangeQuery::between("b", "c");
        let tau_k1 = [EncryptedRange::encrypt(&pae_k1, &mut rng, &query)];
        // Served under K1, twice: the second call finds the cipher built
        // and the probed values cached.
        for _ in 0..2 {
            let hit = enclave.search_multi(&dict_k1, &tau_k1, tag).unwrap();
            assert_eq!(hit[0].match_count(), 2);
        }

        let k2 = Key128::from_bytes([10; 16]);
        let sk_d2 = derive_column_key(&k2, "t", "c");
        let pae_k2 = Pae::new(&sk_d2);
        enclave.provision_direct(k2);
        let tau_k2 = [EncryptedRange::encrypt(&pae_k2, &mut rng, &query)];
        let stale = EncdictError::Crypto(encdbdb_crypto::CryptoError::TagMismatch);
        // A cipher kept from K1 would still open the K1 range.
        assert_eq!(
            enclave.search_multi(&dict_k1, &tau_k1, tag).unwrap_err(),
            stale
        );
        // Values cached under K1 would answer a K2 range over the K1
        // dictionary without decrypting anything.
        assert_eq!(
            enclave.search_multi(&dict_k1, &tau_k2, tag).unwrap_err(),
            stale
        );
        let params = BuildParams {
            table_name: "t".into(),
            col_name: "c".into(),
            bs_max: 3,
        };
        let col = Column::from_strs("c", 12, values).unwrap();
        let (dict_k2, _) = build_encrypted(&col, EdKind::Ed1, &params, &sk_d2, &mut rng).unwrap();
        let hit = enclave.search_multi(&dict_k2, &tau_k2, tag).unwrap();
        assert_eq!(hit[0].match_count(), 2);
    }

    #[test]
    fn reencrypt_preserves_plaintext_fresh_iv() {
        let (mut enclave, _, pae, mut rng) = setup(EdKind::Ed9, &["a"], 15);
        let original = encrypt_value_for_column(&pae, &mut rng, b"delta-value");
        let fresh = enclave.reencrypt("t", "c", original.as_bytes()).unwrap();
        assert_ne!(original.as_bytes(), fresh.as_bytes(), "IV must be fresh");
        assert_eq!(
            decrypt_column_value(&pae, fresh.as_bytes()).unwrap(),
            b"delta-value"
        );
    }
}
