//! The nine encrypted dictionary types (paper Table 2).
//!
//! An encrypted dictionary is defined by one *repetition* option (how often
//! values repeat in `D`) and one *order* option (how `D` is arranged):
//!
//! | | sorted | rotated | unsorted |
//! |---|---|---|---|
//! | frequency revealing | ED1 | ED2 | ED3 |
//! | frequency smoothing | ED4 | ED5 | ED6 |
//! | frequency hiding    | ED7 | ED8 | ED9 |

use std::fmt;

/// How values are repeated in the dictionary (paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepetitionOption {
    /// Each unique value appears exactly once: full frequency leakage,
    /// best compression (`|D| = |un(C)|`).
    Revealing,
    /// Values are split into random-size buckets of at most `bs_max`
    /// occurrences each: bounded frequency leakage (Algorithm 5).
    Smoothing,
    /// Every occurrence gets its own dictionary entry: no frequency
    /// leakage, no compression (`|D| = |AV|`).
    Hiding,
}

/// How the dictionary is ordered (paper Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderOption {
    /// Lexicographically sorted: full order leakage, `O(log |D|)` search.
    Sorted,
    /// Sorted, then rotated by a secret random offset: bounded order
    /// leakage, `O(log |D|)` search via the special binary search
    /// (Algorithm 3).
    Rotated,
    /// Randomly shuffled: no order leakage, `O(|D|)` linear-scan search
    /// (Algorithm 4).
    Unsorted,
}

/// One of the nine encrypted dictionaries ED1–ED9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdKind {
    /// Frequency revealing, sorted.
    Ed1,
    /// Frequency revealing, rotated.
    Ed2,
    /// Frequency revealing, unsorted.
    Ed3,
    /// Frequency smoothing, sorted.
    Ed4,
    /// Frequency smoothing, rotated.
    Ed5,
    /// Frequency smoothing, unsorted.
    Ed6,
    /// Frequency hiding, sorted.
    Ed7,
    /// Frequency hiding, rotated.
    Ed8,
    /// Frequency hiding, unsorted.
    Ed9,
}

impl EdKind {
    /// All nine kinds in paper order.
    pub const ALL: [EdKind; 9] = [
        EdKind::Ed1,
        EdKind::Ed2,
        EdKind::Ed3,
        EdKind::Ed4,
        EdKind::Ed5,
        EdKind::Ed6,
        EdKind::Ed7,
        EdKind::Ed8,
        EdKind::Ed9,
    ];

    /// The repetition option of this kind.
    pub fn repetition(self) -> RepetitionOption {
        match self {
            EdKind::Ed1 | EdKind::Ed2 | EdKind::Ed3 => RepetitionOption::Revealing,
            EdKind::Ed4 | EdKind::Ed5 | EdKind::Ed6 => RepetitionOption::Smoothing,
            EdKind::Ed7 | EdKind::Ed8 | EdKind::Ed9 => RepetitionOption::Hiding,
        }
    }

    /// The order option of this kind.
    pub fn order(self) -> OrderOption {
        match self {
            EdKind::Ed1 | EdKind::Ed4 | EdKind::Ed7 => OrderOption::Sorted,
            EdKind::Ed2 | EdKind::Ed5 | EdKind::Ed8 => OrderOption::Rotated,
            EdKind::Ed3 | EdKind::Ed6 | EdKind::Ed9 => OrderOption::Unsorted,
        }
    }

    /// Builds the kind from its two options (Table 2 lookup).
    pub fn from_options(repetition: RepetitionOption, order: OrderOption) -> Self {
        use OrderOption as O;
        use RepetitionOption as R;
        match (repetition, order) {
            (R::Revealing, O::Sorted) => EdKind::Ed1,
            (R::Revealing, O::Rotated) => EdKind::Ed2,
            (R::Revealing, O::Unsorted) => EdKind::Ed3,
            (R::Smoothing, O::Sorted) => EdKind::Ed4,
            (R::Smoothing, O::Rotated) => EdKind::Ed5,
            (R::Smoothing, O::Unsorted) => EdKind::Ed6,
            (R::Hiding, O::Sorted) => EdKind::Ed7,
            (R::Hiding, O::Rotated) => EdKind::Ed8,
            (R::Hiding, O::Unsorted) => EdKind::Ed9,
        }
    }

    /// The paper's 1-based number of this kind (ED\<n\>).
    pub fn number(self) -> u8 {
        match self {
            EdKind::Ed1 => 1,
            EdKind::Ed2 => 2,
            EdKind::Ed3 => 3,
            EdKind::Ed4 => 4,
            EdKind::Ed5 => 5,
            EdKind::Ed6 => 6,
            EdKind::Ed7 => 7,
            EdKind::Ed8 => 8,
            EdKind::Ed9 => 9,
        }
    }

    /// The kind with the given [`number`](Self::number), if there is one.
    pub fn from_number(n: u8) -> Option<Self> {
        EdKind::ALL.into_iter().find(|kind| kind.number() == n)
    }

    /// Parses `"ED5"` / `"ed5"` style names.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().as_bytes() {
            [e, d, digit @ b'1'..=b'9'] if [*e, *d].eq_ignore_ascii_case(b"ed") => {
                Self::from_number(digit - b'0')
            }
            _ => None,
        }
    }

    /// Frequency-leakage class of this kind (Table 3).
    pub fn frequency_leakage(self) -> LeakageLevel {
        match self.repetition() {
            RepetitionOption::Revealing => LeakageLevel::Full,
            RepetitionOption::Smoothing => LeakageLevel::Bounded,
            RepetitionOption::Hiding => LeakageLevel::None,
        }
    }

    /// Order-leakage class of this kind (Table 4).
    pub fn order_leakage(self) -> LeakageLevel {
        match self.order() {
            OrderOption::Sorted => LeakageLevel::Full,
            OrderOption::Rotated => LeakageLevel::Bounded,
            OrderOption::Unsorted => LeakageLevel::None,
        }
    }

    /// `true` if this kind is at least as secure as `other` in *both*
    /// leakage dimensions — the partial order of the paper's Figure 6
    /// (`other ≤ self`).
    pub fn at_least_as_secure_as(self, other: EdKind) -> bool {
        // LeakageLevel orders by increasing security (Full < Bounded < None).
        self.frequency_leakage() >= other.frequency_leakage()
            && self.order_leakage() >= other.order_leakage()
    }
}

impl fmt::Display for EdKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ED{}", self.number())
    }
}

/// How much of a property leaks to the honest-but-curious attacker.
///
/// Ordered by *increasing security*: `Full < Bounded < None`, so
/// `a < b` means "b leaks less than a".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LeakageLevel {
    /// The property is fully visible (e.g. exact frequencies).
    Full,
    /// Leakage is bounded by a parameter (bs_max / rotation offset).
    Bounded,
    /// Nothing about the property leaks.
    None,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_grid_is_consistent() {
        for kind in EdKind::ALL {
            assert_eq!(EdKind::from_options(kind.repetition(), kind.order()), kind);
        }
    }

    #[test]
    fn numbers_match_paper() {
        assert_eq!(EdKind::Ed1.number(), 1);
        assert_eq!(EdKind::Ed5.number(), 5);
        assert_eq!(EdKind::Ed9.number(), 9);
        for (i, kind) in EdKind::ALL.iter().enumerate() {
            assert_eq!(kind.number() as usize, i + 1);
        }
    }

    #[test]
    fn parse_roundtrip() {
        for kind in EdKind::ALL {
            assert_eq!(EdKind::parse(&kind.to_string()), Some(kind));
            assert_eq!(EdKind::parse(&kind.to_string().to_lowercase()), Some(kind));
        }
        assert_eq!(EdKind::parse("ED0"), None);
        assert_eq!(EdKind::parse("ED10"), None);
        assert_eq!(EdKind::parse("XY1"), None);
        // Three bytes that are not three characters.
        for not_ascii in ["€", "é5", "ED５"] {
            assert_eq!(EdKind::parse(not_ascii), None, "{not_ascii}");
        }
        for n in 0..=u8::MAX {
            assert_eq!(
                EdKind::from_number(n).map(EdKind::number),
                (1..=9).contains(&n).then_some(n)
            );
        }
    }

    #[test]
    fn leakage_table_3_and_4() {
        assert_eq!(EdKind::Ed1.frequency_leakage(), LeakageLevel::Full);
        assert_eq!(EdKind::Ed5.frequency_leakage(), LeakageLevel::Bounded);
        assert_eq!(EdKind::Ed9.frequency_leakage(), LeakageLevel::None);
        assert_eq!(EdKind::Ed1.order_leakage(), LeakageLevel::Full);
        assert_eq!(EdKind::Ed5.order_leakage(), LeakageLevel::Bounded);
        assert_eq!(EdKind::Ed9.order_leakage(), LeakageLevel::None);
    }

    #[test]
    fn figure6_partial_order() {
        // Columns of Figure 6: ED1 ≤ ED4 ≤ ED7, ED2 ≤ ED5 ≤ ED8, ED3 ≤ ED6 ≤ ED9.
        for (a, b, c) in [
            (EdKind::Ed1, EdKind::Ed4, EdKind::Ed7),
            (EdKind::Ed2, EdKind::Ed5, EdKind::Ed8),
            (EdKind::Ed3, EdKind::Ed6, EdKind::Ed9),
        ] {
            assert!(b.at_least_as_secure_as(a));
            assert!(c.at_least_as_secure_as(b));
            assert!(c.at_least_as_secure_as(a));
        }
        // Rows: ED1 ≤ ED2 ≤ ED3, etc.
        for (a, b, c) in [
            (EdKind::Ed1, EdKind::Ed2, EdKind::Ed3),
            (EdKind::Ed4, EdKind::Ed5, EdKind::Ed6),
            (EdKind::Ed7, EdKind::Ed8, EdKind::Ed9),
        ] {
            assert!(b.at_least_as_secure_as(a));
            assert!(c.at_least_as_secure_as(b));
        }
        // ED9 dominates everything; ED1 dominates nothing but itself.
        for kind in EdKind::ALL {
            assert!(EdKind::Ed9.at_least_as_secure_as(kind));
            assert!(kind.at_least_as_secure_as(EdKind::Ed1));
        }
        // Incomparable pair: ED3 (no order leak, full freq) vs ED7 (full
        // order leak, no freq leak).
        assert!(!EdKind::Ed3.at_least_as_secure_as(EdKind::Ed7));
        assert!(!EdKind::Ed7.at_least_as_secure_as(EdKind::Ed3));
    }

    #[test]
    fn leakage_level_ordering() {
        assert!(LeakageLevel::Full < LeakageLevel::Bounded);
        assert!(LeakageLevel::Bounded < LeakageLevel::None);
    }
}
