//! The dictionary layout, shared by encrypted and PLAIN columns.
//!
//! Paper §5: *"We further split each dictionary into a dictionary head and
//! dictionary tail. The dictionary tail contains variable length values
//! that are encrypted with AES-128 in GCM mode. The values are stored
//! sequentially in a random order. The dictionary head contains fixed size
//! offsets to the dictionary tail and the values are ordered according to
//! the selected encrypted dictionary. This split is done to support
//! variable length data while enabling an efficient binary search."*
//!
//! Both buffers live in the *untrusted* realm; the enclave reads them entry
//! by entry through [`enclave_sim::TrustedEnv::load`].

use crate::kind::EdKind;
use colstore::dictionary::RecordId;
use enclave_sim::UntrustedMemory;

/// Size of one head entry: a `u64` tail offset plus a `u32` ciphertext
/// length.
pub const HEAD_ENTRY_BYTES: usize = 12;

/// One head/tail pair — the only owner of the §5 layout. Every store in
/// the system (a main dictionary, encrypted or PLAIN, and the growing ED9
/// delta) is a [`Dictionary`] around one `Segment`; untrusted code reads it
/// through [`entry`](Self::entry), the enclave through
/// [`view`](Self::view).
#[derive(Debug, Clone, Default)]
pub struct Segment {
    head: Vec<u8>,
    tail: Vec<u8>,
    len: usize,
}

impl Segment {
    /// An empty segment with head room for `entries` entries.
    pub fn with_capacity(entries: usize) -> Self {
        Segment {
            head: Vec::with_capacity(entries * HEAD_ENTRY_BYTES),
            ..Segment::default()
        }
    }

    /// The builder's layout: `entries` yields the bytes of the dictionary
    /// positions in the order `tail_order` lists them (a permutation of
    /// `0..tail_order.len()`), and they are appended to the tail in that
    /// order, while the head stays in dictionary order — "stored
    /// sequentially in a random order" (§5).
    ///
    /// # Panics
    ///
    /// Panics if `entries` yields fewer items than `tail_order` holds.
    pub fn scattered<B: AsRef<[u8]>>(
        tail_order: &[u32],
        entries: impl IntoIterator<Item = B>,
    ) -> Self {
        let mut tail = Vec::new();
        let mut locations = vec![(0u64, 0u32); tail_order.len()];
        let mut entries = entries.into_iter();
        for &pos in tail_order {
            let bytes = entries.next().expect("one entry per tail position");
            let bytes = bytes.as_ref();
            locations[pos as usize] = (tail.len() as u64, bytes.len() as u32);
            tail.extend_from_slice(bytes);
        }
        let mut head = Vec::with_capacity(locations.len() * HEAD_ENTRY_BYTES);
        for (offset, len) in locations {
            write_head_entry(&mut head, offset, len);
        }
        Segment {
            head,
            tail,
            len: tail_order.len(),
        }
    }

    /// A segment from raw parts, **unchecked**: `head`, `tail` and `len`
    /// may contradict each other. This is how a test plays the malicious
    /// server — the enclave must answer any such store with
    /// `CorruptDictionary` — and nothing else may call it:
    /// [`entry`](Self::entry) panics on a store that lies.
    pub fn from_raw_unchecked(head: Vec<u8>, tail: Vec<u8>, len: usize) -> Self {
        Segment { head, tail, len }
    }

    /// Appends `entry` as position `len()`, at the end of the tail.
    pub fn push(&mut self, entry: &[u8]) {
        write_head_entry(&mut self.head, self.tail.len() as u64, entry.len() as u32);
        self.tail.extend_from_slice(entry);
        self.len += 1;
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the segment holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored bytes of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> &[u8] {
        let (offset, len) = head_entry(&self.head, i);
        &self.tail[offset as usize..offset as usize + len as usize]
    }

    /// Storage size in bytes (head + tail).
    pub fn storage_size(&self) -> usize {
        self.head.len() + self.tail.len()
    }

    /// Entries `range`, renumbered from 0, as a segment of their own.
    fn range(&self, range: std::ops::Range<usize>) -> Segment {
        let mut out = Segment::with_capacity(range.len());
        for i in range {
            out.push(self.entry(i));
        }
        out
    }

    /// A frozen copy of the first `n` entries.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn prefix(&self, n: usize) -> Segment {
        assert!(n <= self.len, "prefix {n} out of bounds {}", self.len);
        self.range(0..n)
    }

    /// Drops the first `n` entries: entry `n + i` becomes entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn drain_prefix(&mut self, n: usize) {
        assert!(n <= self.len, "drain_prefix {n} out of bounds {}", self.len);
        *self = self.range(n..self.len);
    }

    /// The untrusted-memory view the enclave loads from.
    #[inline]
    pub fn view(&self) -> SegmentRef<'_> {
        SegmentRef {
            head: UntrustedMemory::new(&self.head),
            tail: UntrustedMemory::new(&self.tail),
            len: self.len,
        }
    }
}

/// A reference to one [`Segment`] living in untrusted memory — the only
/// form in which a store is named to the enclave. Nothing about it is
/// trusted: the enclave bounds-checks every head entry it follows.
#[derive(Debug, Clone, Copy)]
pub struct SegmentRef<'a> {
    /// Fixed-width head entries.
    pub head: UntrustedMemory<'a>,
    /// Variable-width entry tail.
    pub tail: UntrustedMemory<'a>,
    /// Number of entries.
    pub len: usize,
}

/// A dictionary `D` of paper §5: a [`Segment`] plus column metadata —
/// the one store type behind every column.
///
/// An encrypted column's entries are PAE ciphertexts `eD`; a PLAIN
/// column's are its plaintext values, laid out by the same builder and
/// read by the same searches (PlainDBDB, §6.3). The dictionary does not
/// know which: the column's protection in the schema decides.
///
/// The metadata (`table_name`, `col_name`, `max_len`) is what the query
/// evaluation engine attaches in step 7 of Fig. 5 so the enclave can derive
/// the column key `SK_D`.
///
/// A dictionary of kind ED9 is also the *delta store* of paper §4.3: its
/// order is insertion order and it has one entry per row, so it grows by
/// [`push`](Self::push) and a row's ValueID is its RecordID.
#[derive(Debug, Clone)]
pub struct Dictionary {
    kind: EdKind,
    table_name: String,
    col_name: String,
    max_len: usize,
    segment: Segment,
    /// The rotation offset of a rotated kind (ED2/ED5/ED8):
    /// `PAE_Enc(SK_D, rndOffset)`, or the offset's eight little-endian
    /// bytes in a PLAIN column.
    rnd_offset: Option<Vec<u8>>,
}

impl Dictionary {
    /// Wraps a segment of entries laid out as `kind` prescribes.
    pub fn new(
        kind: EdKind,
        table_name: String,
        col_name: String,
        max_len: usize,
        segment: Segment,
        rnd_offset: Option<Vec<u8>>,
    ) -> Self {
        Dictionary {
            kind,
            table_name,
            col_name,
            max_len,
            segment,
            rnd_offset,
        }
    }

    /// An empty delta store for the given column: an ED9 dictionary that
    /// grows by [`push`](Self::push).
    pub fn delta(
        table_name: impl Into<String>,
        col_name: impl Into<String>,
        max_len: usize,
    ) -> Self {
        Self::new(
            EdKind::Ed9,
            table_name.into(),
            col_name.into(),
            max_len,
            Segment::default(),
            None,
        )
    }

    /// The dictionary kind (ED1–ED9) whose layout the entries follow.
    pub fn kind(&self) -> EdKind {
        self.kind
    }

    /// The table this column belongs to (key-derivation metadata).
    pub fn table_name(&self) -> &str {
        &self.table_name
    }

    /// The column name (key-derivation metadata).
    pub fn col_name(&self) -> &str {
        &self.col_name
    }

    /// The column's fixed maximal value length in bytes.
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Number of dictionary entries `|D|`.
    pub fn len(&self) -> usize {
        self.segment.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.segment.is_empty()
    }

    /// The head/tail segment holding the entries.
    pub fn segment(&self) -> &Segment {
        &self.segment
    }

    /// The stored rotation offset, present for rotated kinds.
    pub fn rnd_offset(&self) -> Option<&[u8]> {
        self.rnd_offset.as_deref()
    }

    /// The stored bytes of entry `i` — a ciphertext, which untrusted code
    /// can copy but not decrypt (result rendering, Fig. 5 step 12), or a
    /// PLAIN column's value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn value(&self, i: usize) -> &[u8] {
        self.segment.entry(i)
    }

    /// Total storage size in bytes (head + tail + rotation offset): the
    /// ED rows of the paper's Table 6.
    pub fn storage_size(&self) -> usize {
        self.segment.storage_size() + self.rnd_offset.as_ref().map_or(0, Vec::len)
    }

    /// Appends one row to a delta store. In an encrypted column `fresh`
    /// is a ciphertext the enclave re-encrypted with a fresh IV
    /// ([`DictEnclave::reencrypt`](crate::DictEnclave::reencrypt), run
    /// outside any storage lock), so the stored bytes are unlinkable to
    /// the insert message. Defined for ED9 only — the one kind whose order
    /// is insertion order and which keeps one entry per row; appending to
    /// any other kind would break its order or its repetition bound.
    ///
    /// # Panics
    ///
    /// Panics if `kind()` is not ED9.
    pub fn push(&mut self, fresh: &[u8]) -> RecordId {
        assert_eq!(self.kind, EdKind::Ed9, "only an ED9 dictionary grows");
        self.segment.push(fresh);
        RecordId(self.len() as u32 - 1)
    }

    /// A frozen copy of a delta store's first `n` rows — the compaction
    /// input captured at a watermark while later inserts keep landing in
    /// the live store.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn prefix(&self, n: usize) -> Self {
        Dictionary {
            segment: self.segment.prefix(n),
            table_name: self.table_name.clone(),
            col_name: self.col_name.clone(),
            rnd_offset: self.rnd_offset.clone(),
            ..*self
        }
    }

    /// Drops a delta store's first `n` rows after a compaction consumed
    /// them: row `n + i` becomes row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    pub fn drain_prefix(&mut self, n: usize) {
        self.segment.drain_prefix(n);
    }
}

/// Parses head entry `i` from a head buffer.
///
/// # Panics
///
/// Panics if the buffer is too short.
#[inline]
pub fn head_entry(head: &[u8], i: usize) -> (u64, u32) {
    let base = i * HEAD_ENTRY_BYTES;
    let offset = u64::from_le_bytes(head[base..base + 8].try_into().unwrap());
    let clen = u32::from_le_bytes(head[base + 8..base + 12].try_into().unwrap());
    (offset, clen)
}

/// Serializes a head entry.
#[inline]
pub fn write_head_entry(head: &mut Vec<u8>, offset: u64, len: u32) {
    head.extend_from_slice(&offset.to_le_bytes());
    head.extend_from_slice(&len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn head_entry_roundtrip() {
        let mut head = Vec::new();
        write_head_entry(&mut head, 42, 7);
        write_head_entry(&mut head, 99, 13);
        assert_eq!(head.len(), 2 * HEAD_ENTRY_BYTES);
        assert_eq!(head_entry(&head, 0), (42, 7));
        assert_eq!(head_entry(&head, 1), (99, 13));
    }

    #[test]
    fn plain_dictionary_value_access() {
        let mut segment = Segment::default();
        for v in [&b"abc"[..], b"de"] {
            segment.push(v);
        }
        let d = Dictionary::new(EdKind::Ed1, "t".into(), "c".into(), 10, segment, None);
        assert_eq!(d.value(0), b"abc");
        assert_eq!(d.value(1), b"de");
        assert_eq!(d.storage_size(), 2 * HEAD_ENTRY_BYTES + 5);
    }

    #[test]
    #[should_panic(expected = "only an ED9 dictionary grows")]
    fn push_is_defined_for_ed9_only() {
        let mut sorted = Dictionary {
            kind: EdKind::Ed1,
            ..Dictionary::delta("t", "c", 8)
        };
        sorted.push(b"opaque");
    }

    fn assert_matches_model(segment: &Segment, model: &[Vec<u8>]) -> Result<(), TestCaseError> {
        prop_assert_eq!(segment.len(), model.len());
        prop_assert_eq!(segment.is_empty(), model.is_empty());
        for (i, entry) in model.iter().enumerate() {
            prop_assert_eq!(segment.entry(i), &entry[..], "entry {}", i);
        }
        let bytes: usize = model.iter().map(Vec::len).sum();
        prop_assert_eq!(
            segment.storage_size(),
            HEAD_ENTRY_BYTES * model.len() + bytes
        );
        prop_assert_eq!(segment.view().len, model.len());
        Ok(())
    }

    proptest! {
        /// `Segment` against the obvious model, a `Vec<Vec<u8>>`: any
        /// sequence of `push`, `prefix(n)` and `drain_prefix(n)` leaves
        /// both with the same entries, and a prefix is a copy — later
        /// changes to the source do not reach it.
        #[test]
        fn segment_agrees_with_a_vec_of_entries(
            ops in prop::collection::vec((0u8..4, "[a-z]{0,9}", 0usize..64), 0..60),
        ) {
            let mut segment = Segment::default();
            let mut model: Vec<Vec<u8>> = Vec::new();
            let mut frozen: Option<(Segment, Vec<Vec<u8>>)> = None;
            for (op, entry, n) in ops {
                let n = n % (model.len() + 1);
                match op {
                    0 | 1 => {
                        segment.push(entry.as_bytes());
                        model.push(entry.into_bytes());
                    }
                    2 => frozen = Some((segment.prefix(n), model[..n].to_vec())),
                    _ => {
                        segment.drain_prefix(n);
                        model.drain(..n);
                    }
                }
                assert_matches_model(&segment, &model)?;
                if let Some((segment, model)) = &frozen {
                    assert_matches_model(segment, model)?;
                }
            }
        }

        /// The builder's constructor returns every entry at its dictionary
        /// position whatever order the tail was written in.
        #[test]
        fn scattered_tail_order_does_not_change_entries(
            entries in prop::collection::vec("[a-z]{0,9}", 0..40),
            seed in 0u64..1000,
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let model: Vec<Vec<u8>> = entries.into_iter().map(String::into_bytes).collect();
            let mut tail_order: Vec<u32> = (0..model.len() as u32).collect();
            tail_order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let segment =
                Segment::scattered(&tail_order, tail_order.iter().map(|&i| &model[i as usize]));
            assert_matches_model(&segment, &model)?;
            // The tail really is in `tail_order`: its first bytes are the
            // entry listed first.
            if let Some(&first) = tail_order.first() {
                let first = &model[first as usize];
                prop_assert_eq!(&segment.tail[..first.len()], &first[..]);
            }
        }
    }
}
