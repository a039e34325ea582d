//! Attacker-view leakage analysis (paper §6.1, Tables 3–5, Figure 6).
//!
//! An honest-but-curious server sees the encrypted dictionary `eD` and the
//! plaintext attribute vector `AV`. This module computes what such an
//! attacker can learn:
//!
//! * [`FrequencyProfile`] — the ValueID occurrence histogram of `AV`. For
//!   frequency-revealing kinds this equals the plaintext value histogram
//!   (full leakage); smoothing bounds every count by `bs_max`; hiding makes
//!   all counts exactly 1.
//! * [`order_correlation`] — how much of the plaintext order the dictionary
//!   position order reveals (1.0 for sorted, rotation-equivalent for
//!   rotated, ~0 for unsorted).
//!
//! These functions back the empirical security experiments behind Table 5 /
//! Figure 6 (the `table5_security` bench binary).

use colstore::dictionary::AttributeVector;
use std::collections::HashMap;

/// Histogram of ValueID occurrence counts — what the attacker reads off a
/// plaintext attribute vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrequencyProfile {
    counts: HashMap<u32, usize>,
}

impl FrequencyProfile {
    /// Computes the profile of an attribute vector.
    pub fn of(av: &AttributeVector) -> Self {
        let mut counts = HashMap::new();
        for id in av.iter() {
            *counts.entry(id).or_insert(0usize) += 1;
        }
        FrequencyProfile { counts }
    }

    /// The highest occurrence count of any single ValueID — the attacker's
    /// best frequency signal. `bs_max` for smoothing kinds, 1 for hiding.
    pub fn max_count(&self) -> usize {
        self.counts.values().copied().max().unwrap_or(0)
    }

    /// Number of distinct ValueIDs used.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// The multiset of counts, sorted descending — the "shape" available to
    /// a frequency-analysis attack (e.g. Naveed et al.).
    pub fn histogram(&self) -> Vec<usize> {
        let mut h: Vec<usize> = self.counts.values().copied().collect();
        h.sort_unstable_by(|a, b| b.cmp(a));
        h
    }

    /// Whether every ValueID occurs exactly once (frequency hiding).
    pub fn is_flat(&self) -> bool {
        self.counts.values().all(|&c| c == 1)
    }
}

/// Fraction of adjacent dictionary pairs whose plaintext order matches
/// their position order: 1.0 means the attacker can read the full order off
/// dictionary positions; ~0.5 is what a random arrangement yields.
///
/// `plaintexts` must be the dictionary entries in position order — this is
/// *analysis* tooling run by the evaluator who knows the plaintexts, not
/// something the attacker can compute.
pub fn order_correlation(plaintexts: &[Vec<u8>]) -> f64 {
    if plaintexts.len() < 2 {
        return 1.0;
    }
    let ordered = plaintexts.windows(2).filter(|w| w[0] <= w[1]).count();
    ordered as f64 / (plaintexts.len() - 1) as f64
}

/// Like [`order_correlation`] but maximized over all rotations: a rotated
/// dictionary scores ~1.0 here while scoring < 1.0 on the plain metric,
/// showing that only the *modular* order leaks (MOPE-equivalent security).
pub fn modular_order_correlation(plaintexts: &[Vec<u8>]) -> f64 {
    let n = plaintexts.len();
    if n < 2 {
        return 1.0;
    }
    // A rotation of a sorted sequence has exactly one *cyclic* descent (at
    // the rotation point), i.e. n - 1 ordered cyclic pairs — the same count
    // a fully sorted sequence has. Normalizing by n - 1 therefore scores
    // both 1.0, while a random permutation scores ~0.5.
    let ordered = (0..n)
        .filter(|&i| plaintexts[i] <= plaintexts[(i + 1) % n])
        .count();
    (ordered as f64 / (n - 1) as f64).min(1.0)
}

/// Summary of what one encrypted dictionary leaks, for reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct LeakageReport {
    /// Max ValueID frequency observed in the attribute vector.
    pub max_frequency: usize,
    /// Positional order correlation of dictionary plaintexts.
    pub order_corr: f64,
    /// Rotation-tolerant order correlation.
    pub modular_order_corr: f64,
}

/// Computes a leakage report from the attacker-visible attribute vector and
/// the (evaluator-known) dictionary plaintexts in position order.
pub fn analyze(av: &AttributeVector, dict_plaintexts: &[Vec<u8>]) -> LeakageReport {
    LeakageReport {
        max_frequency: FrequencyProfile::of(av).max_count(),
        order_corr: order_correlation(dict_plaintexts),
        modular_order_corr: modular_order_correlation(dict_plaintexts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_plain, BuildParams};
    use crate::kind::EdKind;
    use colstore::column::Column;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn skewed_column() -> Column {
        // 20 uniques, value i occurring i+1 times: a clearly non-uniform
        // histogram an attacker could exploit under full leakage.
        let values: Vec<String> = (0..20u32)
            .flat_map(|i| std::iter::repeat_n(format!("val{i:03}"), i as usize + 1))
            .collect();
        Column::from_strs("c", 8, values.iter()).unwrap()
    }

    fn dict_plaintexts(dict: &crate::dict::Dictionary) -> Vec<Vec<u8>> {
        (0..dict.len()).map(|i| dict.value(i).to_vec()).collect()
    }

    #[test]
    fn revealing_kinds_leak_exact_frequencies() {
        let col = skewed_column();
        let mut rng = StdRng::seed_from_u64(1);
        let (_, av) = build_plain(&col, EdKind::Ed1, &BuildParams::default(), &mut rng).unwrap();
        let profile = FrequencyProfile::of(&av);
        // The attacker sees the exact plaintext histogram 20, 19, ..., 1.
        assert_eq!(profile.histogram(), (1..=20usize).rev().collect::<Vec<_>>());
        assert_eq!(profile.max_count(), 20);
    }

    #[test]
    fn smoothing_bounds_frequencies_by_bs_max() {
        let col = skewed_column();
        for bs_max in [2usize, 5, 10] {
            let mut rng = StdRng::seed_from_u64(bs_max as u64);
            let params = BuildParams {
                bs_max,
                ..BuildParams::default()
            };
            let (_, av) = build_plain(&col, EdKind::Ed4, &params, &mut rng).unwrap();
            let profile = FrequencyProfile::of(&av);
            assert!(
                profile.max_count() <= bs_max,
                "bs_max {bs_max}: max {}",
                profile.max_count()
            );
        }
    }

    #[test]
    fn hiding_kinds_are_frequency_flat() {
        let col = skewed_column();
        for kind in [EdKind::Ed7, EdKind::Ed8, EdKind::Ed9] {
            let mut rng = StdRng::seed_from_u64(kind.number() as u64);
            let (_, av) = build_plain(&col, kind, &BuildParams::default(), &mut rng).unwrap();
            assert!(FrequencyProfile::of(&av).is_flat(), "{kind} not flat");
        }
    }

    #[test]
    fn sorted_kinds_leak_full_order() {
        let col = skewed_column();
        let mut rng = StdRng::seed_from_u64(3);
        let (dict, _) = build_plain(&col, EdKind::Ed1, &BuildParams::default(), &mut rng).unwrap();
        assert_eq!(order_correlation(&dict_plaintexts(&dict)), 1.0);
    }

    #[test]
    fn rotated_kinds_leak_only_modular_order() {
        let col = skewed_column();
        // Find a seed with a nonzero rotation (offset 0 degenerates to
        // sorted, which is legitimate but uninformative here).
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dict, _) =
                build_plain(&col, EdKind::Ed2, &BuildParams::default(), &mut rng).unwrap();
            if dict.rnd_offset().unwrap() == [0; 8] {
                continue;
            }
            let pts = dict_plaintexts(&dict);
            assert!(order_correlation(&pts) < 1.0, "rotation hides plain order");
            assert_eq!(modular_order_correlation(&pts), 1.0);
            return;
        }
        panic!("no nonzero rotation in 20 seeds");
    }

    #[test]
    fn unsorted_kinds_destroy_order() {
        let values: Vec<String> = (0..500).map(|i| format!("v{i:05}")).collect();
        let col = Column::from_strs("c", 8, values.iter()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let (dict, _) = build_plain(&col, EdKind::Ed3, &BuildParams::default(), &mut rng).unwrap();
        let corr = order_correlation(&dict_plaintexts(&dict));
        // A random permutation orders ~50% of adjacent pairs.
        assert!(corr < 0.65, "corr = {corr}");
        let mcorr = modular_order_correlation(&dict_plaintexts(&dict));
        assert!(mcorr < 0.65, "modular corr = {mcorr}");
    }

    #[test]
    fn figure6_empirical_dominance() {
        // Empirically verify the Figure 6 ordering on one skewed column:
        // moving down a column of Table 2 weakly reduces max frequency;
        // moving right weakly reduces order correlation.
        let col = skewed_column();
        let params = BuildParams {
            bs_max: 5,
            ..BuildParams::default()
        };
        let report = |kind: EdKind, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (dict, av) = build_plain(&col, kind, &params, &mut rng).unwrap();
            analyze(&av, &dict_plaintexts(&dict))
        };
        let r1 = report(EdKind::Ed1, 10);
        let r4 = report(EdKind::Ed4, 11);
        let r7 = report(EdKind::Ed7, 12);
        assert!(r4.max_frequency <= r1.max_frequency);
        assert!(r7.max_frequency <= r4.max_frequency);
        assert_eq!(r7.max_frequency, 1);

        let r2 = report(EdKind::Ed2, 13);
        let r3 = report(EdKind::Ed3, 14);
        assert!(r2.modular_order_corr >= 0.99);
        assert!(r3.modular_order_corr < r2.modular_order_corr);
    }

    #[test]
    fn order_correlation_edge_cases() {
        assert_eq!(order_correlation(&[]), 1.0);
        assert_eq!(order_correlation(&[b"x".to_vec()]), 1.0);
        assert_eq!(modular_order_correlation(&[b"x".to_vec()]), 1.0);
    }
}
