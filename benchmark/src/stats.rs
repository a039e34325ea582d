//! Order statistics over op latencies: percentiles, the 20-segment split
//! and the segment-median summaries every timing metric is built from.
//!
//! Why segments: on the 2-core sandbox the machine drifts within a run
//! (±10 % raw throughput, ±10–23 % whole-run p90). Cutting the measured op
//! stream into equal consecutive segments and reporting the *median
//! segment* discards the slow stretches instead of averaging them in.

/// Number of equal consecutive segments a measured op stream is cut into.
pub const SEGMENTS: usize = 20;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted` by nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `q`-quantile of unsorted samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

/// The median of float samples (mean of the two middle ones when even).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Cuts `samples` into `n` consecutive segments whose lengths differ by at
/// most one (the first `len % n` segments take the extra sample). Fewer
/// than `n` samples yield one segment per sample.
pub fn segments(samples: &[u64], n: usize) -> Vec<&[u64]> {
    let n = n.clamp(1, samples.len().max(1));
    let (base, extra) = (samples.len() / n, samples.len() % n);
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let len = base + usize::from(i < extra);
        out.push(&samples[start..start + len]);
        start += len;
    }
    out
}

/// Segment-median summary of one measured op stream (latencies in ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median over segments of ops ÷ Σ op latencies, in ops per second.
    pub ops_per_s: f64,
    /// Median over segments of the segment p50, in µs.
    pub p50_us: f64,
    /// Median over segments of the segment p90, in µs.
    pub p90_us: f64,
    /// Whole-run p99, in µs (per-layer `tail.op_p99_us` only: it does not
    /// repeat within a tenth, so nothing is gated on it).
    pub p99_us: f64,
}

/// Summarizes latencies (ns) by the median of [`SEGMENTS`] segments.
///
/// # Panics
///
/// Panics on an empty stream.
pub fn summarize(lat_ns: &[u64]) -> Summary {
    let segs = segments(lat_ns, SEGMENTS);
    let per_seg =
        |f: &dyn Fn(&[u64]) -> f64| median(&segs.iter().map(|s| f(s)).collect::<Vec<_>>());
    Summary {
        ops_per_s: per_seg(&|s| s.len() as f64 / (s.iter().sum::<u64>().max(1) as f64 / 1e9)),
        p50_us: per_seg(&|s| percentile(s, 0.50) as f64 / 1e3),
        p90_us: per_seg(&|s| percentile(s, 0.90) as f64 / 1e3),
        p99_us: percentile(lat_ns, 0.99) as f64 / 1e3,
    }
}

/// Segment-median p50 (µs) of the samples whose class is `class` — per-class
/// layer metrics (`exec.join_p50_us`, `dynamic.insert_p50_us`, …). Zero if
/// the class never occurred.
pub fn class_p50_us(lat_ns: &[u64], classes: &[usize], class: usize) -> f64 {
    let of_class: Vec<u64> = lat_ns
        .iter()
        .zip(classes)
        .filter(|(_, &c)| c == class)
        .map(|(&l, _)| l)
        .collect();
    if of_class.is_empty() {
        0.0
    } else {
        summarize(&of_class).p50_us
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method) — the spread rule of the selfcheck.
///
/// # Panics
///
/// Panics on fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN among measurements"));
    let n = v.len();
    let at = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_split_is_even_consecutive_and_complete() {
        let samples: Vec<u64> = (0..103).collect();
        let segs = segments(&samples, 20);
        assert_eq!(segs.len(), 20);
        // 103 = 20·5 + 3: the first three segments take six samples.
        assert!(segs[..3].iter().all(|s| s.len() == 6));
        assert!(segs[3..].iter().all(|s| s.len() == 5));
        let glued: Vec<u64> = segs.concat();
        assert_eq!(glued, samples);
        // Fewer samples than segments: one segment each, nothing lost.
        assert_eq!(segments(&samples[..7], 20).len(), 7);
        assert_eq!(segments(&[], 20).len(), 1);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 0.50), 50);
        assert_eq!(percentile_sorted(&sorted, 0.90), 90);
        assert_eq!(percentile_sorted(&sorted, 0.99), 99);
        assert_eq!(percentile_sorted(&sorted, 1.0), 100);
        assert_eq!(percentile_sorted(&sorted, 0.0), 1);
        assert_eq!(percentile(&[30, 10, 20], 0.5), 20);
        assert_eq!(percentile(&[7], 0.9), 7);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn segment_median_ignores_a_slow_stretch() {
        // 2000 ops at 1 µs, except one tenth of the run (two whole
        // segments) that ran ten times slower: the whole-run p90 sits on
        // the boundary, the median segment does not see it.
        let mut lat = vec![1_000u64; 2000];
        for l in &mut lat[400..600] {
            *l = 10_000;
        }
        let s = summarize(&lat);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p90_us, 1.0);
        assert!((s.ops_per_s - 1e6).abs() < 1.0);
        assert_eq!(s.p99_us, 10.0);
    }

    #[test]
    fn class_p50_selects_one_class() {
        let lat = [10_000, 500_000, 10_000, 500_000];
        let classes = [0, 1, 0, 1];
        assert_eq!(class_p50_us(&lat, &classes, 0), 10.0);
        assert_eq!(class_p50_us(&lat, &classes, 1), 500.0);
        assert_eq!(class_p50_us(&lat, &classes, 2), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.0, 3.0));
    }
}
