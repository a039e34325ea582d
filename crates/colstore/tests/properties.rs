//! Property-based tests for the storage substrate.

use colstore::column::Column;
use colstore::delta::ValidityVector;
use colstore::dictionary::{split_insertion_order, split_sorted, verify_split};
use colstore::monetdb::MonetColumn;
use colstore::persist;
use proptest::prelude::*;

fn values_strategy() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-e]{0,5}", 0..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both split constructions satisfy Definition 1 on arbitrary columns.
    #[test]
    fn splits_are_correct(values in values_strategy()) {
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let (d1, av1) = split_sorted(&col);
        prop_assert!(verify_split(&col, &d1, &av1));
        let (d2, av2) = split_insertion_order(&col);
        prop_assert!(verify_split(&col, &d2, &av2));
        // Both dedupe to the same unique count.
        prop_assert_eq!(d1.len(), d2.len());
    }

    /// The sorted split produces a strictly increasing dictionary.
    #[test]
    fn sorted_split_is_strictly_sorted(values in values_strategy()) {
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let (dict, _) = split_sorted(&col);
        for i in 1..dict.len() {
            use colstore::dictionary::ValueId;
            prop_assert!(dict.value(ValueId((i - 1) as u32)) < dict.value(ValueId(i as u32)));
        }
    }

    /// MonetDB range scans agree with a direct reference scan.
    #[test]
    fn monetdb_scan_matches_reference(values in values_strategy(),
                                      lo in "[a-e]{0,3}", hi in "[a-e]{0,3}") {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let m = MonetColumn::ingest(&col);
        let got: Vec<u32> = m
            .range_search_inclusive(lo.as_bytes(), hi.as_bytes())
            .iter()
            .map(|r| r.0)
            .collect();
        let expected: Vec<u32> = values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.as_str() >= lo.as_str() && v.as_str() <= hi.as_str())
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Validity vectors count exactly the bits that were set.
    #[test]
    fn validity_count_matches_model(bits in prop::collection::vec(any::<bool>(), 0..200)) {
        let mut v = ValidityVector::default();
        for &b in &bits {
            v.push(b);
        }
        prop_assert_eq!(v.count_valid(), bits.iter().filter(|b| **b).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(v.is_valid(i), b);
        }
    }

    /// Arbitrary WAL frame streams survive `frame` → `read_frames`
    /// byte-for-byte: every payload comes back verbatim and the tail is
    /// clean.
    #[test]
    fn frame_streams_roundtrip(payloads in payloads_strategy()) {
        let bytes = concat_frames(&payloads);
        let (frames, tail) = persist::read_frames(&bytes);
        prop_assert_eq!(tail, persist::FrameTail::Clean);
        prop_assert_eq!(tail.valid_prefix(bytes.len()), bytes.len());
        prop_assert_eq!(frames.len(), payloads.len());
        for (got, want) in frames.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
    }

    /// Truncating a frame stream at *any* byte (the crash model for a torn
    /// WAL append) preserves exactly the complete-frame prefix, reports a
    /// torn tail unless the cut lands on a frame boundary, and the
    /// reported valid prefix re-parses clean — so recovery's
    /// truncate-to-valid-prefix converges in one step.
    #[test]
    fn truncated_frame_streams_keep_their_prefix(payloads in payloads_strategy(),
                                                 cut_frac in 0.0f64..1.0) {
        let bytes = concat_frames(&payloads);
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let (frames, tail) = persist::read_frames(&bytes[..cut]);
        // Every recovered payload is an intact prefix of the originals.
        prop_assert!(frames.len() <= payloads.len());
        for (got, want) in frames.iter().zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
        let valid = tail.valid_prefix(cut);
        prop_assert!(valid <= cut);
        // On a frame boundary the cut looks clean; anywhere else it is a
        // torn (never "corrupt") tail.
        let boundary = is_frame_boundary(&payloads, cut);
        match tail {
            persist::FrameTail::Clean => prop_assert!(boundary),
            persist::FrameTail::Torn { .. } => prop_assert!(!boundary),
            persist::FrameTail::Corrupt { .. } => prop_assert!(false, "truncation is not corruption"),
        }
        // Recovery truncates to `valid`; the result must re-parse clean
        // with the same frames.
        let (again, clean) = persist::read_frames(&bytes[..valid]);
        prop_assert_eq!(clean, persist::FrameTail::Clean);
        prop_assert_eq!(again.len(), frames.len());
    }

    /// Flipping a single bit anywhere in a frame stream never panics and
    /// never disturbs the frames *before* the flip: parsing stops at (or
    /// after) the damaged frame and the valid prefix still re-parses clean.
    #[test]
    fn bit_flipped_frame_streams_never_lie_about_the_prefix(
        payloads in payloads_strategy(), pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let bytes = concat_frames(&payloads);
        prop_assume!(!bytes.is_empty());
        let pos = (((bytes.len() - 1) as f64) * pos_frac) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;

        let (frames, tail) = persist::read_frames(&bad);
        // Frames that end strictly before the flipped byte are untouched.
        let intact = frames_before(&payloads, pos);
        prop_assert!(frames.len() >= intact);
        for (got, want) in frames.iter().take(intact).zip(&payloads) {
            prop_assert_eq!(*got, want.as_slice());
        }
        let valid = tail.valid_prefix(bad.len());
        let (_, clean_tail) = persist::read_frames(&bad[..valid]);
        prop_assert_eq!(clean_tail, persist::FrameTail::Clean);
    }
}

fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..64), 0..12)
}

fn concat_frames(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for p in payloads {
        bytes.extend_from_slice(&persist::frame(p));
    }
    bytes
}

/// Whether `cut` lands exactly between two frames of the stream.
fn is_frame_boundary(payloads: &[Vec<u8>], cut: usize) -> bool {
    let mut off = 0usize;
    if cut == 0 {
        return true;
    }
    for p in payloads {
        off += persist::FRAME_HEADER_BYTES + p.len();
        if off == cut {
            return true;
        }
        if off > cut {
            return false;
        }
    }
    false
}

/// How many leading frames end strictly before byte `pos`.
fn frames_before(payloads: &[Vec<u8>], pos: usize) -> usize {
    let mut off = 0usize;
    let mut n = 0usize;
    for p in payloads {
        off += persist::FRAME_HEADER_BYTES + p.len();
        if off <= pos {
            n += 1;
        } else {
            break;
        }
    }
    n
}
