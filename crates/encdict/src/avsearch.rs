//! Attribute-vector search (`AttrVectSearch`), executed in the untrusted
//! realm.
//!
//! After the enclave returns the matching ValueIDs, the attribute vector is
//! scanned linearly for them (paper §2.1/§4.1). [`scan`] is the one entry
//! point; it takes every result of a (possibly batched) dictionary search
//! and answers them in one pass. Two result shapes exist:
//!
//! * sorted/rotated kinds return up to two contiguous ValueID *ranges* —
//!   the scan does one or two integer comparisons per row;
//! * unsorted kinds return an explicit ValueID *list* — the paper compares
//!   "every v ∈ AV with every u ∈ vid", an `O(|AV| · |vid|)` scan.
//!
//! The paper notes the scan "is parallelizable with a speedup expected to
//! be linear in the number of threads". Here the server's partition fan-out
//! is that parallelism; one partition's attribute vector is scanned on the
//! calling thread.
//!
//! # Kernel shape (DESIGN.md §14.1)
//!
//! One kernel serves every stored width and every predicate shape. The
//! attribute vector's width ([`AvIds`]) is matched once per scan; the
//! predicate (single range, double range, k-range disjunction, id list) is
//! clamped to that width's maximum and monomorphized into its own loop, so
//! rows are compared in their stored `u8`/`u16`/`u32`. Rows go through a
//! reusable per-thread scratch buffer in `SCAN_CHUNK_ROWS`-row chunks, each
//! along one of two paths:
//!
//! * **dense** — branch-free compaction over the whole chunk: every
//!   candidate RecordID is written unconditionally and the output cursor
//!   advances by the 0/1 match, leaving no data-dependent branch;
//! * **sparse** — an OR-reduce over each `BLOCK_ROWS`-row block, written
//!   without early exit so it auto-vectorizes, and the compaction only for
//!   blocks that hold a match.
//!
//! The previous chunk's match count picks the next chunk's path: sparse
//! while its matches could touch under a quarter of a chunk's blocks. The
//! kernel is safe, portable Rust — no intrinsics and no feature detection.

use crate::search::{DictSearchResult, VidRange};
use colstore::dictionary::{AttributeVector, AvIds, RecordId};
use std::cell::RefCell;

/// Rows per compaction chunk.
const SCAN_CHUNK_ROWS: usize = 4096;

/// Rows per block a sparse chunk tests for any match before compacting it.
const BLOCK_ROWS: usize = 64;

thread_local! {
    /// Per-thread compaction scratch: candidate RecordIDs of one chunk.
    /// Reused across chunks and across queries on the same thread.
    static SCAN_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A stored ValueID width; the kernel compares rows in it.
trait Width: Copy + Eq + Ord {
    /// The largest ValueID this width holds.
    const MAX: u32;
    /// `v` in this width; callers pass `v <= MAX`.
    fn narrow(v: u32) -> Self;
    fn wrapping_sub(self, rhs: Self) -> Self;
}

macro_rules! width {
    ($($t:ty),*) => {$(
        impl Width for $t {
            const MAX: u32 = <$t>::MAX as u32;
            #[inline(always)]
            fn narrow(v: u32) -> Self {
                v as $t
            }
            #[inline(always)]
            fn wrapping_sub(self, rhs: Self) -> Self {
                <$t>::wrapping_sub(self, rhs)
            }
        }
    )*};
}
width!(u8, u16, u32);

/// A scan predicate over ValueIDs of width `T`. Kernels take it by value,
/// so it lives in registers rather than behind a pointer the compaction
/// stores might alias.
trait Pred<T: Width>: Copy {
    /// Whether one row matches.
    fn hit(&self, id: T) -> bool;

    /// Whether any row of `block` matches. Every row is OR-ed in without an
    /// early exit, so the loop is branch-free and vectorizes across rows.
    #[inline(always)]
    fn any(&self, block: &[T]) -> bool {
        block.iter().fold(false, |m, &id| m | self.hit(id))
    }
}

/// The inclusive range `lo..=lo + span` in width `T`.
#[derive(Debug, Clone, Copy)]
struct Span<T> {
    lo: T,
    span: T,
}

impl<T: Width> Span<T> {
    /// `r` cut to the ids width `T` holds; `None` when it holds none of
    /// them (or `r` is empty).
    fn clamp(r: VidRange) -> Option<Self> {
        let hi = r.hi.min(T::MAX);
        (r.lo <= hi).then(|| Span {
            lo: T::narrow(r.lo),
            span: T::narrow(hi - r.lo),
        })
    }
}

impl<T: Width> Pred<T> for Span<T> {
    /// One unsigned compare after rebasing: ids below `lo` wrap to values
    /// above `span`.
    #[inline(always)]
    fn hit(&self, id: T) -> bool {
        id.wrapping_sub(self.lo) <= self.span
    }
}

/// Two ranges: the rotated dictionary's wrap-around reply.
impl<T: Width> Pred<T> for [Span<T>; 2] {
    #[inline(always)]
    fn hit(&self, id: T) -> bool {
        self[0].hit(id) | self[1].hit(id)
    }
}

/// A k-range disjunction (batched `IN` lists and multi-range filters).
impl<T: Width> Pred<T> for &[Span<T>] {
    #[inline(always)]
    fn hit(&self, id: T) -> bool {
        self.iter().fold(false, |m, r| m | r.hit(id))
    }

    /// Ranges outermost, so each pass is one vectorizable compare.
    #[inline(always)]
    fn any(&self, block: &[T]) -> bool {
        self.iter().any(|r| r.any(block))
    }
}

/// The paper's explicit ValueID list (unsorted kinds).
#[derive(Clone, Copy)]
struct IdList<'a, T>(&'a [T]);

impl<T: Width> Pred<T> for IdList<'_, T> {
    /// Every vid compared without an early exit, which vectorizes across
    /// the list at any width.
    #[inline(always)]
    fn hit(&self, id: T) -> bool {
        self.0.iter().fold(false, |m, &v| m | (id == v))
    }

    /// Vids outermost and rows innermost, so each pass is one compare
    /// across the block that vectorizes.
    #[inline(always)]
    fn any(&self, block: &[T]) -> bool {
        (self.0.iter()).any(|&v| block.iter().fold(false, |m, &id| m | (id == v)))
    }
}

/// Compacts the matching positions of `rows` (record positions `base..`)
/// into `buf`, returning how many matched. Branch-free: each candidate is
/// written unconditionally and the cursor advances by the 0/1 match.
#[inline(always)]
fn compact<T: Width, P: Pred<T>>(rows: &[T], base: u32, pred: P, buf: &mut [u32]) -> usize {
    let mut n = 0usize;
    for (j, &id) in rows.iter().enumerate() {
        buf[n] = base + j as u32;
        n += pred.hit(id) as usize;
    }
    n
}

/// [`compact`] over only those blocks of `chunk` that hold a match.
#[inline(always)]
fn compact_blocks<T: Width, P: Pred<T>>(chunk: &[T], base: u32, pred: P, buf: &mut [u32]) -> usize {
    let mut n = 0usize;
    for (b, block) in chunk.chunks(BLOCK_ROWS).enumerate() {
        if pred.any(block) {
            n += compact(block, base + (b * BLOCK_ROWS) as u32, pred, &mut buf[n..]);
        }
    }
    n
}

/// Scans `ids` (record positions `base..base + ids.len()`) chunk by chunk
/// through this thread's scratch buffer.
fn scan_span<T: Width, P: Pred<T>>(ids: &[T], base: u32, pred: P, out: &mut Vec<RecordId>) {
    SCAN_SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < SCAN_CHUNK_ROWS {
            buf.resize(SCAN_CHUNK_ROWS, 0);
        }
        let mut sparse = true;
        for (c, chunk) in ids.chunks(SCAN_CHUNK_ROWS).enumerate() {
            let chunk_base = base + (c * SCAN_CHUNK_ROWS) as u32;
            let n = if sparse {
                compact_blocks(chunk, chunk_base, pred, &mut buf)
            } else {
                compact(chunk, chunk_base, pred, &mut buf)
            };
            // `n` matches touch at most `n` blocks: skipping pays while
            // those would be under a quarter of the chunk.
            sparse = n * BLOCK_ROWS * 4 < chunk.len();
            out.extend(buf[..n].iter().map(|&p| RecordId(p)));
        }
    });
}

/// `AttrVectSearch`: the RecordIDs whose ValueID any of `results` names,
/// ascending and deduplicated (a row matching several ranges is emitted
/// once).
///
/// All ranges of a batched disjunction are folded into one predicate, so a
/// k-range `IN (...)` costs one pass over the attribute vector, not k scans
/// and k−1 merges; all id lists likewise. One dictionary answers every
/// range in the same shape, so a real reply never mixes ranges and ids;
/// such input still gets a correct answer: one pass per shape, merged.
pub fn scan(av: &AttributeVector, results: &[DictSearchResult]) -> Vec<RecordId> {
    match av.ids() {
        AvIds::U8(ids) => scan_width(ids, results),
        AvIds::U16(ids) => scan_width(ids, results),
        AvIds::U32(ids) => scan_width(ids, results),
    }
}

/// [`scan`] at one stored width. No stored id exceeds `T::MAX`, so a range
/// starting above it and a vid above it are dropped, and a range's end is
/// cut to it; each surviving shape runs as its own monomorphized
/// [`scan_span`].
fn scan_width<T: Width>(ids: &[T], results: &[DictSearchResult]) -> Vec<RecordId> {
    let (mut spans, mut vids) = (Vec::<Span<T>>::new(), Vec::<T>::new());
    for result in results {
        match result {
            DictSearchResult::Ranges(rs) => {
                spans.extend(rs.iter().flatten().filter_map(|&r| Span::clamp(r)))
            }
            DictSearchResult::Ids(vs) => {
                vids.extend(vs.iter().filter(|&&v| v <= T::MAX).map(|&v| T::narrow(v)))
            }
        }
    }
    let mut out = Vec::new();
    match *spans {
        [] => {}
        [r] => scan_span(ids, 0, r, &mut out),
        [r1, r2] => scan_span(ids, 0, [r1, r2], &mut out),
        _ => scan_span(ids, 0, &spans[..], &mut out),
    }
    if !vids.is_empty() {
        let ranged = out.len();
        scan_span(ids, 0, IdList(&vids), &mut out);
        // Both shapes matched: two ascending runs, merged.
        if ranged > 0 {
            out.sort_unstable_by_key(|r| r.0);
            out.dedup_by_key(|r| r.0);
        }
    }
    out
}

// `benchmark/src/layers.rs:291` (the `avsearch.scan_ns_per_krow` probe)
// still imports `Parallelism` and `SetSearchStrategy` and calls the
// five-argument `search`, and that directory changes only with the
// benchmark itself. The next change to `benchmark/` moves the probe to
// `scan` and deletes all three items below. Each enum has one variant, so
// neither selects anything.

#[doc(hidden)]
pub enum Parallelism {
    Serial,
}

#[doc(hidden)]
pub enum SetSearchStrategy {
    PaperLinear,
}

#[doc(hidden)]
pub fn search(
    av: &AttributeVector,
    result: &DictSearchResult,
    _dict_len: usize,
    _: SetSearchStrategy,
    _: Parallelism,
) -> Vec<RecordId> {
    scan(av, std::slice::from_ref(result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::dictionary::ValueId;

    fn av(ids: &[u32]) -> AttributeVector {
        ids.iter().map(|&i| ValueId(i)).collect()
    }

    fn rids(v: &[RecordId]) -> Vec<u32> {
        v.iter().map(|r| r.0).collect()
    }

    /// [`scan`] of one range reply.
    fn ranges(a: &AttributeVector, rs: [Option<VidRange>; 2]) -> Vec<RecordId> {
        scan(a, &[DictSearchResult::Ranges(rs)])
    }

    /// [`scan`] of one id-list reply.
    fn ids(a: &AttributeVector, vids: &[u32]) -> Vec<RecordId> {
        scan(a, &[DictSearchResult::Ids(vids.to_vec())])
    }

    #[test]
    fn single_range_scan() {
        // Figure 1: vid = {0, 2} over AV (1,0,2,2,1,1)... here as a range.
        let a = av(&[1, 0, 2, 2, 1, 1]);
        let got = ranges(&a, [VidRange::new(1, 2), None]);
        assert_eq!(rids(&got), vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn two_range_scan_covers_wrap() {
        let a = av(&[0, 1, 2, 3, 4, 5]);
        let got = ranges(&a, [VidRange::new(0, 1), VidRange::new(4, 5)]);
        assert_eq!(rids(&got), vec![0, 1, 4, 5]);
    }

    #[test]
    fn empty_ranges_match_nothing() {
        let a = av(&[0, 1, 2]);
        assert!(ranges(&a, [None, None]).is_empty());
    }

    #[test]
    fn empty_vid_list() {
        let a = av(&[0, 1]);
        assert!(ids(&a, &[]).is_empty());
    }

    #[test]
    fn dispatch_handles_both_shapes() {
        let a = av(&[0, 1, 2, 1]);
        let from_ranges = ranges(&a, [VidRange::new(1, 1), None]);
        let from_ids = ids(&a, &[1]);
        assert_eq!(from_ranges, from_ids);
        assert_eq!(rids(&from_ranges), vec![1, 3]);
    }

    /// The differential reference: a plain filter over `av.iter()`.
    fn naive(av: &AttributeVector, hit: impl Fn(u32) -> bool) -> Vec<RecordId> {
        (av.iter().enumerate())
            .filter(|&(_, id)| hit(id))
            .map(|(j, _)| RecordId(j as u32))
            .collect()
    }

    /// Every shape on every width, row count and density equals the naive
    /// filter. Hit ids are `0..=3` and `top - 3..=top`, miss ids lie
    /// strictly between them and need the width's full range, and each
    /// density draws hits at its own rate — the last one per chunk, so a
    /// scan runs sparse, dense, sparse, dense, sparse chunks.
    #[test]
    fn kernel_matches_naive_filter() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        let mut widths_seen = std::collections::BTreeMap::new();
        for (top, miss_lo) in [(255u32, 8u32), (65_535, 300), (200_000, 70_000)] {
            let upper = VidRange::new(top - 3, top);
            let both = [VidRange::new(0, 3), upper];
            let hit_ids: Vec<u32> = (0..=3).chain(top - 3..=top).collect();
            let is_hit = |id: u32| id <= 3 || id >= top - 3;
            for rows in [0usize, 1, 63, 64, 65, 4095, 4096, 4097, 20_000] {
                let one_hit = rows / 2;
                let densities: [&dyn Fn(usize) -> f64; 6] = [
                    &|_| 0.0,
                    &|j| (j == one_hit) as u8 as f64,
                    &|_| 0.01,
                    &|_| 0.5,
                    &|_| 1.0,
                    &|j| [0.0005, 0.5][j / SCAN_CHUNK_ROWS % 2],
                ];
                for (d, density) in densities.iter().enumerate() {
                    let row_ids: Vec<u32> = (0..rows)
                        .map(|j| match rng.gen_bool(density(j)) {
                            true => hit_ids[rng.gen_range(0..hit_ids.len())],
                            false => rng.gen_range(miss_lo..top - 8),
                        })
                        .collect();
                    let a = av(&row_ids);
                    *widths_seen.entry(a.id_width()).or_insert(0usize) += 1;
                    let ctx = format!("top={top} rows={rows} density#{d}");
                    let upper_hit = |id: u32| id >= top - 3 && id <= top;
                    let k_ranges = [
                        DictSearchResult::Ranges([VidRange::new(0, 1), VidRange::new(2, 3)]),
                        DictSearchResult::Ranges([upper, None]),
                    ];
                    assert_eq!(ranges(&a, [upper, None]), naive(&a, upper_hit), "{ctx}");
                    assert_eq!(ranges(&a, both), naive(&a, is_hit), "{ctx}");
                    assert_eq!(ranges(&a, [None, None]), vec![], "{ctx}");
                    assert_eq!(scan(&a, &k_ranges), naive(&a, is_hit), "{ctx}");
                    assert_eq!(ids(&a, &hit_ids), naive(&a, is_hit), "{ctx}");
                    assert_eq!(ids(&a, &[]), vec![], "{ctx}");
                }
            }
        }
        assert_eq!(widths_seen.keys().collect::<Vec<_>>(), [&1, &2, &4]);
        assert!(widths_seen.values().all(|&n| n >= 40), "{widths_seen:?}");
    }

    /// Ranges and vids above the stored width's maximum are clamped, never
    /// truncated: on a `u8` AV, 300 is not 44, and 65 539 on a `u16` AV is
    /// not 3.
    #[test]
    fn queries_beyond_the_width_clamp_instead_of_truncating() {
        let narrow = av(&[3, 44, 250, 255, 0, 44]);
        assert_eq!(narrow.id_width(), 1);
        let ranges = |a, rs| rids(&ranges(a, rs));
        assert_eq!(ranges(&narrow, [VidRange::new(300, 400), None]), vec![]);
        assert_eq!(ranges(&narrow, [VidRange::new(256, 259), None]), vec![]);
        assert_eq!(ranges(&narrow, [VidRange::new(250, 300), None]), vec![2, 3]);
        assert_eq!(ranges(&narrow, [VidRange::new(0, u32::MAX), None]).len(), 6);
        let lying = [Some(VidRange { lo: 44, hi: 3 }), None];
        assert_eq!(ranges(&narrow, lying), vec![]);
        let ids = |a, vids: &[u32]| rids(&ids(a, vids));
        assert_eq!(ids(&narrow, &[300, 259]), vec![]);
        assert_eq!(ids(&narrow, &[300, 44]), vec![1, 5]);

        let mid = av(&[3, 65_535, 256, 3]);
        assert_eq!(mid.id_width(), 2);
        assert_eq!(ranges(&mid, [VidRange::new(65_539, 70_000), None]), vec![]);
        assert_eq!(ranges(&mid, [VidRange::new(65_530, 70_000), None]), vec![1]);
        assert_eq!(ids(&mid, &[65_539, 65_536]), vec![]);
        assert_eq!(ids(&mid, &[65_539, 256]), vec![2]);
    }

    /// One combined pass over the AV must equal per-result scans unioned
    /// and deduplicated.
    #[test]
    fn union_scan_matches_per_result_union() {
        let row_ids: Vec<u32> = (0..30_000).map(|i| (i * 13) % 500).collect();
        let a = av(&row_ids);
        let per_result_union = |results: &[DictSearchResult]| {
            let mut expected: Vec<RecordId> = (results.iter())
                .flat_map(|r| scan(&a, std::slice::from_ref(r)))
                .collect();
            expected.sort_unstable_by_key(|r| r.0);
            expected.dedup_by_key(|r| r.0);
            expected
        };
        let results = vec![
            DictSearchResult::Ranges([VidRange::new(5, 30), None]),
            // Overlaps the first range: rows in both must dedup.
            DictSearchResult::Ranges([VidRange::new(20, 60), VidRange::new(400, 450)]),
            DictSearchResult::Ranges([None, None]),
        ];
        let combined = scan(&a, &results);
        assert_eq!(combined, per_result_union(&results));
        assert!(combined.windows(2).all(|w| w[0].0 < w[1].0));

        // Id-list shape (unsorted kinds).
        let id_results = vec![
            DictSearchResult::Ids(vec![3, 9, 100]),
            DictSearchResult::Ids(vec![9, 250]),
        ];
        assert_eq!(scan(&a, &id_results), per_result_union(&id_results));
        assert!(scan(&a, &[]).is_empty());

        // Mixed shapes never come from one dictionary, but still get the
        // right answer: one pass per shape, merged. Vid 9 also lies in the
        // first range, so its rows must dedup across the two passes.
        let mixed = vec![
            DictSearchResult::Ranges([VidRange::new(5, 30), VidRange::new(400, 450)]),
            DictSearchResult::Ids(vec![9, 100, 250]),
        ];
        let in_mixed =
            |id| (5..=30).contains(&id) || (400..=450).contains(&id) || [100, 250].contains(&id);
        let combined = scan(&a, &mixed);
        assert_eq!(combined, naive(&a, in_mixed));
        assert!(combined.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
