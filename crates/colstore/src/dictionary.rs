//! Dictionary encoding: dictionaries, attribute vectors, splits.
//!
//! Paper §2.1: dictionary encoding splits a column `C` into a dictionary
//! `D` (each value of `C` present at least once; index = *ValueID*) and an
//! attribute vector `AV` replacing every value by a ValueID (index =
//! *RecordID*). Definition 1 (*split correctness*) requires
//! `∀j: D[AV[j]] = C[j]`, which [`verify_split`] checks verbatim.

use crate::column::Column;
use std::collections::HashMap;

/// Index into a [`Dictionary`] (paper: *vid*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ValueId(pub u32);

/// Index into an [`AttributeVector`] (paper: *rid*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId(pub u32);

/// A plaintext dictionary: arena-backed list of values indexed by ValueID.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    data: Vec<u8>,
    offsets: Vec<u64>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Dictionary {
            data: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Appends a value, returning its ValueID.
    pub fn push(&mut self, value: &[u8]) -> ValueId {
        let id = ValueId(self.len() as u32);
        self.data.extend_from_slice(value);
        self.offsets.push(self.data.len() as u64);
        id
    }

    /// Number of dictionary entries (`|D|`).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value stored at `vid`.
    ///
    /// # Panics
    ///
    /// Panics if `vid` is out of bounds.
    #[inline]
    pub fn value(&self, vid: ValueId) -> &[u8] {
        let i = vid.0 as usize;
        &self.data[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Iterates over `(ValueId, value)` pairs in ValueID order.
    pub fn iter(&self) -> impl Iterator<Item = (ValueId, &[u8])> + '_ {
        (0..self.len()).map(move |i| (ValueId(i as u32), self.value(ValueId(i as u32))))
    }

    /// Sum of raw value bytes (without the offset table).
    pub fn value_bytes(&self) -> usize {
        self.data.len()
    }
}

impl<'a> FromIterator<&'a [u8]> for Dictionary {
    fn from_iter<T: IntoIterator<Item = &'a [u8]>>(iter: T) -> Self {
        let mut d = Dictionary::new();
        for v in iter {
            d.push(v);
        }
        d
    }
}

/// An attribute vector: one ValueID per record, stored at the narrowest of
/// `u8`/`u16`/`u32` that holds its largest ValueID — the paper's
/// "a ValueID of *i* bits is sufficient to represent 2^i different values"
/// at byte granularity. The width follows the contents: [`push`] widens the
/// stored prefix the first time an id does not fit, so there is no knob
/// and no `u32` copy of a narrow vector is ever made.
///
/// [`push`]: AttributeVector::push
#[derive(Debug, Clone)]
pub struct AttributeVector {
    ids: Ids,
}

#[derive(Debug, Clone)]
enum Ids {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

/// An attribute vector's ValueIDs at their stored width. Scan and gather
/// kernels match this once per call and then run a loop monomorphized for
/// that width — never a width decision per row.
#[derive(Debug, Clone, Copy)]
pub enum AvIds<'a> {
    /// Every ValueID is below 2^8.
    U8(&'a [u8]),
    /// Every ValueID is below 2^16, and one is at least 2^8.
    U16(&'a [u16]),
    /// Some ValueID is at least 2^16.
    U32(&'a [u32]),
}

/// `from` widened element by element into a vector of capacity `cap`.
fn widened<F: Copy, T: From<F>>(from: &[F], cap: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(cap);
    out.extend(from.iter().map(|&id| T::from(id)));
    out
}

impl AttributeVector {
    /// Creates an empty attribute vector.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an attribute vector with room for `n` one-byte ValueIDs; a
    /// widening keeps the room.
    pub fn with_capacity(n: usize) -> Self {
        AttributeVector {
            ids: Ids::U8(Vec::with_capacity(n)),
        }
    }

    /// Appends a ValueID, widening the stored ids first if it does not fit.
    #[inline]
    pub fn push(&mut self, vid: ValueId) {
        let id = vid.0;
        match &mut self.ids {
            Ids::U8(ids) if id <= u8::MAX as u32 => ids.push(id as u8),
            Ids::U16(ids) if id <= u16::MAX as u32 => ids.push(id as u16),
            Ids::U32(ids) => ids.push(id),
            _ => self.widen_and_push(id),
        }
    }

    #[cold]
    fn widen_and_push(&mut self, id: u32) {
        self.ids = match &self.ids {
            Ids::U8(ids) if id <= u16::MAX as u32 => Ids::U16(widened(ids, ids.capacity())),
            Ids::U8(ids) => Ids::U32(widened(ids, ids.capacity())),
            Ids::U16(ids) => Ids::U32(widened(ids, ids.capacity())),
            Ids::U32(_) => unreachable!("a u32 attribute vector holds every id"),
        };
        self.push(ValueId(id));
    }

    /// The ValueIDs at their stored width.
    #[inline]
    pub fn ids(&self) -> AvIds<'_> {
        match &self.ids {
            Ids::U8(ids) => AvIds::U8(ids),
            Ids::U16(ids) => AvIds::U16(ids),
            Ids::U32(ids) => AvIds::U32(ids),
        }
    }

    /// Number of records (`|AV|`).
    pub fn len(&self) -> usize {
        match self.ids() {
            AvIds::U8(ids) => ids.len(),
            AvIds::U16(ids) => ids.len(),
            AvIds::U32(ids) => ids.len(),
        }
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per stored ValueID: 1, 2 or 4.
    pub fn id_width(&self) -> usize {
        match self.ids() {
            AvIds::U8(_) => 1,
            AvIds::U16(_) => 2,
            AvIds::U32(_) => 4,
        }
    }

    /// The ValueID at record index `i`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self.ids() {
            AvIds::U8(ids) => ids[i].into(),
            AvIds::U16(ids) => ids[i].into(),
            AvIds::U32(ids) => ids[i],
        }
    }

    /// The ValueID at record `rid`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn value_id(&self, rid: RecordId) -> ValueId {
        ValueId(self.get(rid.0 as usize))
    }

    /// Every ValueID in record order, widened to `u32`.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        // At most one of the three slices is non-empty.
        let (narrow, mid, wide): (&[u8], &[u16], &[u32]) = match self.ids() {
            AvIds::U8(ids) => (ids, &[], &[]),
            AvIds::U16(ids) => (&[], ids, &[]),
            AvIds::U32(ids) => (&[], &[], ids),
        };
        let narrow = narrow.iter().map(|&id| u32::from(id));
        narrow
            .chain(mid.iter().map(|&id| u32::from(id)))
            .chain(wide.iter().copied())
    }

    /// Calls `f(j, id)` with the ValueID `id` of record `rids[j]`, for
    /// every `j` in order: one width dispatch per call, then a gather loop
    /// monomorphized for the stored width.
    ///
    /// # Panics
    ///
    /// Panics if a RecordID is out of bounds.
    #[inline]
    pub fn gather(&self, rids: &[RecordId], mut f: impl FnMut(usize, u32)) {
        fn run<T: Copy + Into<u32>>(ids: &[T], rids: &[RecordId], f: &mut impl FnMut(usize, u32)) {
            for (j, rid) in rids.iter().enumerate() {
                f(j, ids[rid.0 as usize].into());
            }
        }
        match self.ids() {
            AvIds::U8(ids) => run(ids, rids, &mut f),
            AvIds::U16(ids) => run(ids, rids, &mut f),
            AvIds::U32(ids) => run(ids, rids, &mut f),
        }
    }

    /// Storage size when ValueIDs are bit-packed to the smallest of
    /// 1/2/4 bytes that can address `dict_len` values — the compressed
    /// representation the paper's Table 6 numbers assume ("a ValueID of
    /// *i* bits is sufficient to represent 2^i different values").
    pub fn packed_size(&self, dict_len: usize) -> usize {
        self.len() * packed_id_width(dict_len)
    }
}

impl Default for AttributeVector {
    fn default() -> Self {
        Self::new()
    }
}

/// Equal when the ValueIDs are, whatever width each side stores them at.
impl PartialEq for AttributeVector {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for AttributeVector {}

impl FromIterator<ValueId> for AttributeVector {
    fn from_iter<T: IntoIterator<Item = ValueId>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut av = AttributeVector::with_capacity(iter.size_hint().0);
        for vid in iter {
            av.push(vid);
        }
        av
    }
}

/// Byte width (1, 2, 4 or 8) required to address `dict_len` entries.
pub fn packed_id_width(dict_len: usize) -> usize {
    // dict_len entries need ids 0..dict_len-1, so up to 2^8 entries fit one
    // byte, up to 2^16 two bytes, and so on.
    match dict_len as u64 {
        0..=0x100 => 1,
        0x101..=0x1_0000 => 2,
        0x1_0001..=0x1_0000_0000 => 4,
        _ => 8,
    }
}

/// Splits a column into a **lexicographically sorted**, duplicate-free
/// dictionary and the matching attribute vector — classic dictionary
/// encoding, the starting point for ED1.
pub fn split_sorted(column: &Column) -> (Dictionary, AttributeVector) {
    let mut sorted: Vec<&[u8]> = column.iter().collect();
    sorted.sort_unstable();
    sorted.dedup();
    let dict: Dictionary = sorted.iter().copied().collect();
    let index: HashMap<&[u8], u32> = sorted
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u32))
        .collect();
    let av = column.iter().map(|v| ValueId(index[v])).collect();
    (dict, av)
}

/// Splits a column into an **insertion-order**, duplicate-free dictionary
/// (first occurrence wins) and attribute vector — the layout MonetDB uses
/// for small string dictionaries (paper §5).
pub fn split_insertion_order(column: &Column) -> (Dictionary, AttributeVector) {
    let mut dict = Dictionary::new();
    let mut index: HashMap<Vec<u8>, u32> = HashMap::new();
    let mut av = AttributeVector::with_capacity(column.len());
    for v in column.iter() {
        let id = match index.get(v) {
            Some(&i) => ValueId(i),
            None => {
                let id = dict.push(v);
                index.insert(v.to_vec(), id.0);
                id
            }
        };
        av.push(id);
    }
    (dict, av)
}

/// Checks *split correctness* (paper Definition 1):
/// `∀j ∈ [0, |AV|-1]: D[AV[j]] = C[j]`, plus the structural requirements
/// that `|AV| = |C|` and every value of `C` occurs in `D`.
pub fn verify_split(column: &Column, dict: &Dictionary, av: &AttributeVector) -> bool {
    if av.len() != column.len() {
        return false;
    }
    for j in 0..column.len() {
        let vid = av.value_id(RecordId(j as u32));
        if vid.0 as usize >= dict.len() {
            return false;
        }
        if dict.value(vid) != column.value(j) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example_column() -> Column {
        // The paper's Figure 1 example.
        Column::from_strs(
            "FName",
            10,
            ["Hans", "Jessica", "Archie", "Jessica", "Jessica", "Archie"],
        )
        .unwrap()
    }

    #[test]
    fn sorted_split_matches_figure_1_semantics() {
        let col = example_column();
        let (dict, av) = split_sorted(&col);
        assert_eq!(dict.len(), 3);
        // Lexicographic: Archie < Hans < Jessica.
        assert_eq!(dict.value(ValueId(0)), b"Archie");
        assert_eq!(dict.value(ValueId(1)), b"Hans");
        assert_eq!(dict.value(ValueId(2)), b"Jessica");
        assert_eq!(av.iter().collect::<Vec<_>>(), [1, 2, 0, 2, 2, 0]);
        assert!(verify_split(&col, &dict, &av));
    }

    #[test]
    fn insertion_order_split_preserves_first_occurrence() {
        let col = example_column();
        let (dict, av) = split_insertion_order(&col);
        assert_eq!(dict.value(ValueId(0)), b"Hans");
        assert_eq!(dict.value(ValueId(1)), b"Jessica");
        assert_eq!(dict.value(ValueId(2)), b"Archie");
        assert_eq!(av.iter().collect::<Vec<_>>(), [0, 1, 2, 1, 1, 2]);
        assert!(verify_split(&col, &dict, &av));
    }

    #[test]
    fn verify_split_rejects_wrong_mapping() {
        let col = example_column();
        let (dict, mut av) = split_sorted(&col);
        assert!(verify_split(&col, &dict, &av));
        // Corrupt one entry.
        let ids: Vec<u32> = av.iter().collect();
        av = ids
            .iter()
            .enumerate()
            .map(|(i, &v)| if i == 2 { ValueId(1) } else { ValueId(v) })
            .collect();
        assert!(!verify_split(&col, &dict, &av));
    }

    #[test]
    fn verify_split_rejects_length_mismatch() {
        let col = example_column();
        let (dict, _) = split_sorted(&col);
        let short: AttributeVector = [ValueId(0)].into_iter().collect();
        assert!(!verify_split(&col, &dict, &short));
    }

    #[test]
    fn verify_split_rejects_out_of_range_vid() {
        let col = Column::from_strs("c", 4, ["a"]).unwrap();
        let (dict, _) = split_sorted(&col);
        let av: AttributeVector = [ValueId(7)].into_iter().collect();
        assert!(!verify_split(&col, &dict, &av));
    }

    #[test]
    fn packed_width_tiers() {
        assert_eq!(packed_id_width(1), 1);
        assert_eq!(packed_id_width(256), 1);
        assert_eq!(packed_id_width(257), 2);
        assert_eq!(packed_id_width(65536), 2);
        assert_eq!(packed_id_width(65537), 4);
    }

    /// `push` keeps the narrowest width that holds the largest id so far,
    /// widening the stored prefix in place at 2^8 and 2^16 — from either
    /// narrower width, and keeping the reserved capacity.
    #[test]
    fn push_widens_at_the_width_boundaries() {
        let mut av = AttributeVector::with_capacity(100);
        av.push(ValueId(7));
        av.push(ValueId(255));
        assert_eq!(av.id_width(), 1);
        av.push(ValueId(256));
        assert_eq!(av.id_width(), 2);
        av.push(ValueId(65_535));
        assert_eq!(av.id_width(), 2);
        av.push(ValueId(65_536));
        assert_eq!(av.id_width(), 4);
        av.push(ValueId(3));
        assert_eq!(
            av.iter().collect::<Vec<_>>(),
            [7, 255, 256, 65_535, 65_536, 3]
        );
        assert_eq!(
            (av.get(1), av.value_id(RecordId(4))),
            (255, ValueId(65_536))
        );
        assert!(matches!(&av.ids, Ids::U32(ids) if ids.capacity() >= 100));

        let skip: AttributeVector = [ValueId(1), ValueId(u32::MAX)].into_iter().collect();
        assert_eq!((skip.id_width(), skip.get(1)), (4, u32::MAX));
        let empty = AttributeVector::new();
        assert_eq!(
            (empty.id_width(), empty.len(), empty.iter().count()),
            (1, 0, 0)
        );
    }

    /// Collecting picks the same width `push` does, gathers read through it,
    /// and equality compares ValueIDs.
    #[test]
    fn collected_width_gather_and_equality() {
        for (max, want) in [(0u32, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4)] {
            let ids: Vec<u32> = (0..1000)
                .map(|i| i * 7919 % (max + 1))
                .chain([max])
                .collect();
            let av: AttributeVector = ids.iter().map(|&i| ValueId(i)).collect();
            assert_eq!(av.id_width(), want, "max {max}");
            assert_eq!(av.iter().collect::<Vec<_>>(), ids);
            let rids: Vec<RecordId> = (0..ids.len() as u32)
                .rev()
                .step_by(3)
                .map(RecordId)
                .collect();
            let mut got = Vec::new();
            av.gather(&rids, |j, id| got.push((j, id)));
            let want: Vec<(usize, u32)> = (rids.iter().enumerate())
                .map(|(j, r)| (j, ids[r.0 as usize]))
                .collect();
            assert_eq!(got, want);
            assert_eq!(av, av.iter().map(ValueId).collect());
        }
        let a: AttributeVector = [ValueId(1), ValueId(2)].into_iter().collect();
        let b: AttributeVector = [ValueId(1), ValueId(300)].into_iter().collect();
        assert_ne!(a, b);
        assert_ne!(a, [ValueId(1)].into_iter().collect());
    }

    #[test]
    fn paper_compression_example() {
        // §2.1: 10,000 strings of 10 chars with 256 uniques: dictionary
        // 256 * 10 B, attribute vector 10,000 * 1 B.
        let dict_bytes = 256usize * 10;
        let av_bytes = 10_000 * packed_id_width(256);
        assert_eq!(dict_bytes + av_bytes, 12_560);
    }

    #[test]
    fn empty_column_splits_to_empty_structures() {
        let col = Column::new("c", 4);
        let (dict, av) = split_sorted(&col);
        assert!(dict.is_empty());
        assert!(av.is_empty());
        assert!(verify_split(&col, &dict, &av));
    }

    #[test]
    fn dictionary_handles_empty_values() {
        let col = Column::from_strs("c", 4, ["", "a", ""]).unwrap();
        let (dict, av) = split_sorted(&col);
        assert_eq!(dict.len(), 2);
        assert!(verify_split(&col, &dict, &av));
    }
}
