//! The trusted aggregation core: GROUP BY / aggregate / ORDER BY / LIMIT
//! evaluation over *resolved* dictionary values.
//!
//! The analytic query engine (see `encdbdb::exec`) reduces an aggregate
//! query to a **ValueID histogram**: the untrusted server scans the
//! attribute vectors of the referenced columns in chunks and counts, for
//! every distinct tuple of ValueIDs, how many matching rows carry it.
//! Aggregation then only needs each distinct value *once*, weighted by its
//! frequency — one `DecryptValue` per touched dictionary entry instead of
//! one per row.
//!
//! This module holds the pieces of that pipeline that operate on
//! *plaintext* values and therefore must run on a trusted side:
//!
//! * inside the enclave (the [`crate::enclave_ops`] `Aggregate` ECALL) when
//!   any referenced column is an encrypted dictionary, or
//! * directly on the untrusted server when every referenced column is
//!   `PLAIN` — the same code, mirroring how PlainDBDB shares the search
//!   algorithms with the enclave.
//!
//! Semantics are deliberately simple and total:
//!
//! * `SUM`/`AVG` require every aggregated value to parse as an optionally
//!   signed decimal integer (the workloads store numbers as zero-padded
//!   strings so lexicographic order matches numeric order); anything else
//!   is an [`EncdictError::Aggregate`] error.
//! * `MIN`/`MAX` compare bytewise (lexicographically), consistent with the
//!   range-query semantics of the rest of the system.
//! * `AVG` renders an exact integer when the division is exact, otherwise
//!   a sign + integer part + up to six fractional digits (truncated toward
//!   zero, trailing zeros trimmed).
//! * Aggregates over an empty input render SQL `NULL` as the empty string;
//!   `COUNT` renders `0`.
//! * Output rows are always returned in a canonical total order (explicit
//!   sort keys first, then the full row as a tiebreaker), so results are
//!   deterministic regardless of hash-map iteration order.

use crate::error::EncdictError;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// An aggregate function of the extended SQL grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` — number of matching rows.
    Count,
    /// `SUM(col)` — numeric sum.
    Sum,
    /// `MIN(col)` — bytewise minimum.
    Min,
    /// `MAX(col)` — bytewise maximum.
    Max,
    /// `AVG(col)` — numeric average (exact rational rendering).
    Avg,
}

impl AggFunc {
    /// Parses a function name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("count") {
            Some(AggFunc::Count)
        } else if s.eq_ignore_ascii_case("sum") {
            Some(AggFunc::Sum)
        } else if s.eq_ignore_ascii_case("min") {
            Some(AggFunc::Min)
        } else if s.eq_ignore_ascii_case("max") {
            Some(AggFunc::Max)
        } else if s.eq_ignore_ascii_case("avg") {
            Some(AggFunc::Avg)
        } else {
            None
        }
    }

    /// How results of this function compare in ORDER BY.
    pub fn value_kind(self) -> ValueKind {
        match self {
            AggFunc::Count | AggFunc::Sum | AggFunc::Avg => ValueKind::Numeric,
            AggFunc::Min | AggFunc::Max => ValueKind::Bytes,
        }
    }
}

impl std::fmt::Display for AggFunc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        })
    }
}

/// How an output column compares in ORDER BY.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueKind {
    /// Bytewise (lexicographic) comparison — group keys, MIN/MAX.
    Bytes,
    /// Numeric comparison of canonical decimal renderings — COUNT/SUM/AVG.
    Numeric,
}

/// One aggregate in an execution plan; `col` indexes the plan's referenced
/// column list (`None` only for `COUNT(*)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    /// The aggregate function.
    pub func: AggFunc,
    /// Index of the aggregated column in the referenced-column list.
    pub col: Option<usize>,
}

/// One output item of an aggregate plan, in SELECT-list order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputItem {
    /// The i-th GROUP BY column.
    Group(usize),
    /// The j-th aggregate of the plan.
    Agg(usize),
}

/// One ORDER BY key over the output items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortSpec {
    /// Index into the output items.
    pub item: usize,
    /// Descending order if set.
    pub desc: bool,
}

/// The value-level part of an aggregate plan: which referenced columns are
/// group keys, which aggregates to compute, how to lay out, sort and limit
/// the output. Column indices refer to the accompanying value tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggPlanSpec {
    /// Referenced-column indices forming the GROUP BY key, in order.
    pub group_cols: Vec<usize>,
    /// Aggregates to compute.
    pub aggregates: Vec<AggSpec>,
    /// Output items in SELECT-list order.
    pub items: Vec<OutputItem>,
    /// ORDER BY keys (may be empty — output is still canonically ordered).
    pub sort: Vec<SortSpec>,
    /// Optional LIMIT.
    pub limit: Option<usize>,
}

impl AggPlanSpec {
    /// Checks every index in the plan: group and aggregate columns below
    /// `ncols` (the request's referenced-column count), output items
    /// naming an existing group column or aggregate, sort keys naming an
    /// existing item. The server sends the plan, so the enclave checks it
    /// before anything indexes with it.
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::CorruptDictionary`] on the first index out
    /// of range.
    pub fn check(&self, ncols: usize) -> Result<(), EncdictError> {
        let mut cols = (self.group_cols.iter()).chain(self.aggregates.iter().flat_map(|a| &a.col));
        let item_ok = |item: &OutputItem| match *item {
            OutputItem::Group(i) => i < self.group_cols.len(),
            OutputItem::Agg(j) => j < self.aggregates.len(),
        };
        let ok = cols.all(|&c| c < ncols)
            && self.items.iter().all(item_ok)
            && self.sort.iter().all(|key| key.item < self.items.len());
        match ok {
            true => Ok(()),
            false => Err(EncdictError::CorruptDictionary(
                "aggregate plan index out of range",
            )),
        }
    }

    /// The comparison kind of output item `i`.
    pub fn item_kind(&self, i: usize) -> ValueKind {
        match self.items[i] {
            OutputItem::Group(_) => ValueKind::Bytes,
            OutputItem::Agg(j) => self.aggregates[j].func.value_kind(),
        }
    }
}

/// Parses an optionally signed decimal integer (leading zeros allowed).
///
/// Returns `None` for empty input, stray characters, or overflow — the
/// caller turns that into an [`EncdictError::Aggregate`] error for
/// SUM/AVG.
pub fn parse_number(bytes: &[u8]) -> Option<i128> {
    let (neg, digits) = match bytes.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, bytes),
    };
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let mut v: i128 = 0;
    for &d in digits {
        v = v.checked_mul(10)?.checked_add((d - b'0') as i128)?;
    }
    Some(if neg { -v } else { v })
}

/// Compares two canonical decimal renderings numerically.
///
/// Accepts the strings this module itself produces (optional sign, integer
/// digits, optional `.` + fraction). The empty string (SQL NULL) sorts
/// below every number. Non-canonical input falls back to bytewise order so
/// the comparison stays total.
pub fn numeric_cmp(a: &[u8], b: &[u8]) -> Ordering {
    fn split(x: &[u8]) -> Option<(bool, &[u8], &[u8])> {
        let (neg, rest) = match x.split_first() {
            Some((b'-', rest)) => (true, rest),
            _ => (false, x),
        };
        let (int, frac) = match rest.iter().position(|&c| c == b'.') {
            Some(p) => (&rest[..p], &rest[p + 1..]),
            None => (rest, &rest[rest.len()..]),
        };
        if int.is_empty() || !int.iter().all(u8::is_ascii_digit) {
            return None;
        }
        if !frac.iter().all(u8::is_ascii_digit) {
            return None;
        }
        Some((neg, int, frac))
    }
    fn magnitude_cmp(a: (&[u8], &[u8]), b: (&[u8], &[u8])) -> Ordering {
        let strip = |s: &[u8]| {
            let mut i = 0;
            while i + 1 < s.len() && s[i] == b'0' {
                i += 1;
            }
            i
        };
        let (ai, bi) = (&a.0[strip(a.0)..], &b.0[strip(b.0)..]);
        match ai.len().cmp(&bi.len()).then_with(|| ai.cmp(bi)) {
            Ordering::Equal => {}
            other => return other,
        }
        // Integer parts equal: compare fractions digit by digit, missing
        // digits count as zero.
        let n = a.1.len().max(b.1.len());
        for i in 0..n {
            let da = a.1.get(i).copied().unwrap_or(b'0');
            let db = b.1.get(i).copied().unwrap_or(b'0');
            match da.cmp(&db) {
                Ordering::Equal => {}
                other => return other,
            }
        }
        Ordering::Equal
    }
    match (a.is_empty(), b.is_empty()) {
        (true, true) => return Ordering::Equal,
        (true, false) => return Ordering::Less,
        (false, true) => return Ordering::Greater,
        (false, false) => {}
    }
    match (split(a), split(b)) {
        (Some((an, ai, af)), Some((bn, bi, bf))) => {
            let a_zero = ai.iter().all(|&c| c == b'0') && af.iter().all(|&c| c == b'0');
            let b_zero = bi.iter().all(|&c| c == b'0') && bf.iter().all(|&c| c == b'0');
            let an = an && !a_zero;
            let bn = bn && !b_zero;
            match (an, bn) {
                (true, false) => Ordering::Less,
                (false, true) => Ordering::Greater,
                (false, false) => magnitude_cmp((ai, af), (bi, bf)),
                (true, true) => magnitude_cmp((bi, bf), (ai, af)),
            }
        }
        _ => a.cmp(b),
    }
}

/// Compares two values under the given kind.
pub fn compare_values(kind: ValueKind, a: &[u8], b: &[u8]) -> Ordering {
    match kind {
        ValueKind::Bytes => a.cmp(b),
        ValueKind::Numeric => numeric_cmp(a, b),
    }
}

/// Renders `sum / count` exactly: an integer when the division is exact,
/// otherwise sign + integer part + up to six fractional digits (truncated
/// toward zero, trailing zeros trimmed).
pub fn render_avg(sum: i128, count: u64) -> Vec<u8> {
    debug_assert!(count > 0);
    let count = count as i128;
    if sum % count == 0 {
        return (sum / count).to_string().into_bytes();
    }
    let neg = sum < 0;
    let m = sum.unsigned_abs();
    let q = m / count.unsigned_abs();
    let r = m % count.unsigned_abs();
    let frac = r * 1_000_000 / count.unsigned_abs();
    let mut out = String::new();
    if neg {
        out.push('-');
    }
    out.push_str(&q.to_string());
    if frac > 0 {
        let digits = format!("{frac:06}");
        out.push('.');
        out.push_str(digits.trim_end_matches('0'));
    }
    out.into_bytes()
}

/// Running state of the aggregates of one group.
#[derive(Debug, Clone, Default)]
struct AggAccumulator {
    count: u64,
    sum: Option<i128>,
    saw_non_numeric: bool,
    min: Option<Vec<u8>>,
    max: Option<Vec<u8>>,
}

impl AggAccumulator {
    /// Folds another partial accumulator of the same (group, aggregate)
    /// into this one — the per-group half of the partition merge. All five
    /// functions are decomposable: COUNT/SUM add, MIN/MAX combine, AVG
    /// carries (sum, count).
    fn merge(&mut self, other: &AggAccumulator) {
        self.saw_non_numeric |= other.saw_non_numeric;
        // `sum: None` means "no numeric value folded yet" while the count
        // is zero, and "overflowed" otherwise — an empty side must not
        // clobber the other side's running sum.
        self.sum = match (self.count, other.count) {
            (0, _) => other.sum,
            (_, 0) => self.sum,
            _ => match (self.sum, other.sum) {
                (Some(a), Some(b)) => a.checked_add(b),
                _ => None,
            },
        };
        self.count += other.count;
        if let Some(m) = &other.min {
            if self.min.as_deref().is_none_or(|s| m.as_slice() < s) {
                self.min = Some(m.clone());
            }
        }
        if let Some(m) = &other.max {
            if self.max.as_deref().is_none_or(|s| m.as_slice() > s) {
                self.max = Some(m.clone());
            }
        }
    }

    fn feed(&mut self, value: Option<&[u8]>, freq: u64) {
        self.count += freq;
        let Some(v) = value else { return };
        match parse_number(v) {
            Some(n) => {
                let add = n.checked_mul(freq as i128);
                self.sum = match (self.sum, add) {
                    (prev, Some(a)) => prev.or(Some(0)).and_then(|s| s.checked_add(a)),
                    _ => None,
                };
                if self.sum.is_none() {
                    self.saw_non_numeric = true;
                }
            }
            None => self.saw_non_numeric = true,
        }
        if self.min.as_deref().is_none_or(|m| v < m) {
            self.min = Some(v.to_vec());
        }
        if self.max.as_deref().is_none_or(|m| v > m) {
            self.max = Some(v.to_vec());
        }
    }

    fn finish(&self, func: AggFunc) -> Result<Vec<u8>, EncdictError> {
        Ok(match func {
            AggFunc::Count => self.count.to_string().into_bytes(),
            AggFunc::Sum | AggFunc::Avg if self.count == 0 => Vec::new(),
            AggFunc::Sum | AggFunc::Avg => {
                let sum =
                    self.sum
                        .filter(|_| !self.saw_non_numeric)
                        .ok_or(EncdictError::Aggregate(
                            "SUM/AVG over a non-numeric or overflowing value",
                        ))?;
                if func == AggFunc::Sum {
                    sum.to_string().into_bytes()
                } else {
                    render_avg(sum, self.count)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or_default(),
            AggFunc::Max => self.max.clone().unwrap_or_default(),
        })
    }
}

/// Partial aggregation state: per-group accumulators keyed by the
/// plaintext group key.
///
/// This is the unit the *partition-parallel* executor merges in the
/// trusted core: each range partition of a table reduces its matching
/// rows to a ValueID histogram over its own dictionaries, every
/// partition's histogram is [`accumulated`](GroupPartials::accumulate)
/// into partials on the trusted side (the enclave when any referenced
/// column is encrypted, the local plain path otherwise), partials
/// [`merge`](GroupPartials::merge) by group key — all five aggregate
/// functions are decomposable (COUNT/SUM add, MIN/MAX combine, AVG
/// carries `(sum, count)`) — and a single [`finalize`](GroupPartials::finalize)
/// renders, sorts and limits the output rows.
#[derive(Debug, Clone, Default)]
pub struct GroupPartials {
    // BTreeMap keeps the grouping deterministic.
    groups: BTreeMap<Vec<Vec<u8>>, Vec<AggAccumulator>>,
}

impl GroupPartials {
    /// Empty partial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct groups accumulated so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Folds one partition's histogram into the partial state.
    ///
    /// `tables[c]` holds the distinct touched values of referenced column
    /// `c` *in that partition*; `tuples` is the partition's histogram with
    /// per-column indices into the tables plus the row frequency.
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::CorruptDictionary`] when a tuple index is
    /// out of range.
    pub fn accumulate(
        &mut self,
        tables: &[Vec<Vec<u8>>],
        tuples: &[(Vec<u32>, u64)],
        plan: &AggPlanSpec,
    ) -> Result<(), EncdictError> {
        let resolve = |c: usize, idx: &[u32]| -> Result<&[u8], EncdictError> {
            let i = *idx
                .get(c)
                .ok_or(EncdictError::CorruptDictionary("tuple arity mismatch"))?
                as usize;
            tables
                .get(c)
                .and_then(|t| t.get(i))
                .map(Vec::as_slice)
                .ok_or(EncdictError::CorruptDictionary(
                    "tuple index outside value table",
                ))
        };
        for (idxs, freq) in tuples {
            let mut key = Vec::with_capacity(plan.group_cols.len());
            for &c in &plan.group_cols {
                key.push(resolve(c, idxs)?.to_vec());
            }
            let accs = self
                .groups
                .entry(key)
                .or_insert_with(|| vec![AggAccumulator::default(); plan.aggregates.len()]);
            for (spec, acc) in plan.aggregates.iter().zip(accs.iter_mut()) {
                let value = match spec.col {
                    Some(c) => Some(resolve(c, idxs)?),
                    None => None,
                };
                acc.feed(value, *freq);
            }
        }
        Ok(())
    }

    /// Merges another partial state into this one, group by group.
    pub fn merge(&mut self, other: GroupPartials) {
        for (key, accs) in other.groups {
            match self.groups.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(accs);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    for (mine, theirs) in slot.get_mut().iter_mut().zip(&accs) {
                        mine.merge(theirs);
                    }
                }
            }
        }
    }

    /// Renders the merged groups as output rows (one cell per plan item)
    /// in final order, sorted and limited.
    ///
    /// # Errors
    ///
    /// Returns [`EncdictError::Aggregate`] when SUM/AVG met a value that
    /// is not an optionally signed decimal integer (or overflowed).
    pub fn finalize(mut self, plan: &AggPlanSpec) -> Result<Vec<Vec<Vec<u8>>>, EncdictError> {
        // SQL semantics: an aggregate without GROUP BY always returns one
        // row, even over an empty input.
        if self.groups.is_empty() && plan.group_cols.is_empty() {
            self.groups.insert(
                Vec::new(),
                vec![AggAccumulator::default(); plan.aggregates.len()],
            );
        }
        let mut rows = Vec::with_capacity(self.groups.len());
        for (key, accs) in &self.groups {
            let mut row = Vec::with_capacity(plan.items.len());
            for item in &plan.items {
                row.push(match *item {
                    OutputItem::Group(i) => key[i].clone(),
                    OutputItem::Agg(j) => accs[j].finish(plan.aggregates[j].func)?,
                });
            }
            rows.push(row);
        }
        sort_rows(&mut rows, plan);
        if let Some(n) = plan.limit {
            rows.truncate(n);
        }
        Ok(rows)
    }
}

/// Evaluates an aggregate plan over resolved value tables — the
/// single-partition convenience over [`GroupPartials`]
/// (accumulate once, finalize).
///
/// # Errors
///
/// Returns [`EncdictError::Aggregate`] when SUM/AVG meets a value that is
/// not an optionally signed decimal integer, and
/// [`EncdictError::CorruptDictionary`] when a tuple index is out of range.
pub fn evaluate(
    tables: &[Vec<Vec<u8>>],
    tuples: &[(Vec<u32>, u64)],
    plan: &AggPlanSpec,
) -> Result<Vec<Vec<Vec<u8>>>, EncdictError> {
    let mut partials = GroupPartials::new();
    partials.accumulate(tables, tuples, plan)?;
    partials.finalize(plan)
}

/// Sorts output rows: explicit sort keys first, then the full row ascending
/// as a tiebreaker, making the order total and deterministic.
pub fn sort_rows(rows: &mut [Vec<Vec<u8>>], plan: &AggPlanSpec) {
    rows.sort_by(|a, b| {
        for key in &plan.sort {
            let ord = compare_values(plan.item_kind(key.item), &a[key.item], &b[key.item]);
            let ord = if key.desc { ord.reverse() } else { ord };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        for i in 0..a.len() {
            let ord = compare_values(plan.item_kind(i), &a[i], &b[i]);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    #[test]
    fn parse_number_shapes() {
        assert_eq!(parse_number(b"0"), Some(0));
        assert_eq!(parse_number(b"007"), Some(7));
        assert_eq!(parse_number(b"-42"), Some(-42));
        assert_eq!(parse_number(b""), None);
        assert_eq!(parse_number(b"-"), None);
        assert_eq!(parse_number(b"1.5"), None);
        assert_eq!(parse_number(b"12a"), None);
    }

    #[test]
    fn numeric_cmp_orders_canonical_decimals() {
        let cases = [
            ("2", "10", Ordering::Less),
            ("010", "10", Ordering::Equal),
            ("-3", "2", Ordering::Less),
            ("-10", "-2", Ordering::Less),
            ("1.5", "1.25", Ordering::Greater),
            ("1.5", "1.50", Ordering::Equal),
            ("-0", "0", Ordering::Equal),
            ("", "0", Ordering::Less),
            ("3", "3.000001", Ordering::Less),
        ];
        for (a, b, expected) in cases {
            assert_eq!(
                numeric_cmp(a.as_bytes(), b.as_bytes()),
                expected,
                "{a} vs {b}"
            );
            assert_eq!(
                numeric_cmp(b.as_bytes(), a.as_bytes()),
                expected.reverse(),
                "{b} vs {a}"
            );
        }
    }

    #[test]
    fn avg_rendering_is_exact_or_truncated() {
        assert_eq!(render_avg(10, 2), b"5".to_vec());
        assert_eq!(render_avg(-10, 2), b"-5".to_vec());
        assert_eq!(render_avg(10, 4), b"2.5".to_vec());
        assert_eq!(render_avg(10, 3), b"3.333333".to_vec());
        assert_eq!(render_avg(-10, 3), b"-3.333333".to_vec());
        assert_eq!(render_avg(1, 3_000_000), b"0".to_vec());
        assert_eq!(render_avg(0, 5), b"0".to_vec());
    }

    fn plan(
        group_cols: Vec<usize>,
        aggregates: Vec<AggSpec>,
        items: Vec<OutputItem>,
        sort: Vec<SortSpec>,
        limit: Option<usize>,
    ) -> AggPlanSpec {
        AggPlanSpec {
            group_cols,
            aggregates,
            items,
            sort,
            limit,
        }
    }

    #[test]
    fn grouped_sum_with_order_and_limit() {
        // Column 0: group key; column 1: values.
        let tables = vec![
            vec![bytes("emea"), bytes("apj"), bytes("amer")],
            vec![bytes("010"), bytes("005"), bytes("020")],
        ];
        // (emea, 10)x2, (apj, 5)x1, (amer, 20)x3, (apj, 20)x1
        let tuples = vec![
            (vec![0, 0], 2),
            (vec![1, 1], 1),
            (vec![2, 2], 3),
            (vec![1, 2], 1),
        ];
        let p = plan(
            vec![0],
            vec![AggSpec {
                func: AggFunc::Sum,
                col: Some(1),
            }],
            vec![OutputItem::Group(0), OutputItem::Agg(0)],
            vec![SortSpec {
                item: 1,
                desc: true,
            }],
            Some(2),
        );
        let rows = evaluate(&tables, &tuples, &p).unwrap();
        assert_eq!(
            rows,
            vec![
                vec![bytes("amer"), bytes("60")],
                vec![bytes("apj"), bytes("25")],
            ]
        );
    }

    #[test]
    fn all_aggregates_over_one_group() {
        let tables = vec![vec![bytes("3"), bytes("-1"), bytes("10")]];
        let tuples = vec![(vec![0], 2), (vec![1], 1), (vec![2], 1)];
        let p = plan(
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(0),
                },
                AggSpec {
                    func: AggFunc::Min,
                    col: Some(0),
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: Some(0),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    col: Some(0),
                },
            ],
            (0..5).map(OutputItem::Agg).collect(),
            vec![],
            None,
        );
        let rows = evaluate(&tables, &tuples, &p).unwrap();
        // count 4, sum 3+3-1+10 = 15, min "-1", max "3" (bytewise!), avg 3.75
        assert_eq!(
            rows,
            vec![vec![
                bytes("4"),
                bytes("15"),
                bytes("-1"),
                bytes("3"),
                bytes("3.75"),
            ]]
        );
    }

    #[test]
    fn empty_input_yields_null_row_without_group_and_no_rows_with_group() {
        let tables: Vec<Vec<Vec<u8>>> = vec![vec![]];
        let p = plan(
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(0),
                },
            ],
            vec![OutputItem::Agg(0), OutputItem::Agg(1)],
            vec![],
            None,
        );
        let rows = evaluate(&tables, &[], &p).unwrap();
        assert_eq!(rows, vec![vec![bytes("0"), Vec::new()]]);

        let p = plan(
            vec![0],
            vec![AggSpec {
                func: AggFunc::Count,
                col: None,
            }],
            vec![OutputItem::Group(0), OutputItem::Agg(0)],
            vec![],
            None,
        );
        assert!(evaluate(&tables, &[], &p).unwrap().is_empty());
    }

    #[test]
    fn non_numeric_sum_errors_min_max_do_not() {
        let tables = vec![vec![bytes("abc")]];
        let tuples = vec![(vec![0], 1)];
        let sum = plan(
            vec![],
            vec![AggSpec {
                func: AggFunc::Sum,
                col: Some(0),
            }],
            vec![OutputItem::Agg(0)],
            vec![],
            None,
        );
        assert!(matches!(
            evaluate(&tables, &tuples, &sum),
            Err(EncdictError::Aggregate(_))
        ));
        let minmax = plan(
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Min,
                    col: Some(0),
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: Some(0),
                },
            ],
            vec![OutputItem::Agg(0), OutputItem::Agg(1)],
            vec![],
            None,
        );
        assert_eq!(
            evaluate(&tables, &tuples, &minmax).unwrap(),
            vec![vec![bytes("abc"), bytes("abc")]]
        );
    }

    #[test]
    fn canonical_order_without_explicit_sort() {
        let tables = vec![vec![bytes("b"), bytes("a")]];
        let tuples = vec![(vec![0], 1), (vec![1], 1)];
        let p = plan(vec![0], vec![], vec![OutputItem::Group(0)], vec![], None);
        let rows = evaluate(&tables, &tuples, &p).unwrap();
        assert_eq!(rows, vec![vec![bytes("a")], vec![bytes("b")]]);
    }

    #[test]
    fn partial_merge_matches_single_pass() {
        // Split one histogram across three "partitions" (each with its own
        // value tables); accumulating per part and merging must match the
        // single-pass evaluation over the concatenated data.
        let p = plan(
            vec![0],
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Min,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    col: Some(1),
                },
            ],
            vec![
                OutputItem::Group(0),
                OutputItem::Agg(0),
                OutputItem::Agg(1),
                OutputItem::Agg(2),
                OutputItem::Agg(3),
                OutputItem::Agg(4),
            ],
            vec![SortSpec {
                item: 1,
                desc: true,
            }],
            None,
        );
        // Partition value tables deliberately disagree on indices: the
        // same plaintext group lands at different table slots per part.
        type Part = (Vec<Vec<Vec<u8>>>, Vec<(Vec<u32>, u64)>);
        let parts: Vec<Part> = vec![
            (
                vec![vec![bytes("a"), bytes("b")], vec![bytes("10"), bytes("3")]],
                vec![(vec![0, 0], 2), (vec![1, 1], 1)],
            ),
            (
                vec![vec![bytes("b"), bytes("a")], vec![bytes("5")]],
                vec![(vec![0, 0], 4), (vec![1, 0], 1)],
            ),
            (vec![vec![], vec![]], vec![]),
        ];
        let mut merged = GroupPartials::new();
        for (tables, tuples) in &parts {
            let mut partial = GroupPartials::new();
            partial.accumulate(tables, tuples, &p).unwrap();
            merged.merge(partial);
        }
        assert_eq!(merged.group_count(), 2);
        let rows = merged.finalize(&p).unwrap();
        // a: count 3, sum 2*10 + 5 = 25, min "10", max "5" (bytewise), avg 25/3
        // b: count 5, sum 3 + 4*5 = 23, min "3", max "5", avg 23/5
        // Sorted by COUNT descending: b (5) before a (3).
        assert_eq!(
            rows,
            vec![
                vec![
                    bytes("b"),
                    bytes("5"),
                    bytes("23"),
                    bytes("3"),
                    bytes("5"),
                    bytes("4.6"),
                ],
                vec![
                    bytes("a"),
                    bytes("3"),
                    bytes("25"),
                    bytes("10"),
                    bytes("5"),
                    bytes("8.333333"),
                ],
            ]
        );
    }

    #[test]
    fn partial_merge_empty_sides_and_null_row() {
        let p = plan(
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::Count,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(0),
                },
            ],
            vec![OutputItem::Agg(0), OutputItem::Agg(1)],
            vec![],
            None,
        );
        // Merging an empty partial into a fed one must not lose the sum.
        let mut fed = GroupPartials::new();
        fed.accumulate(&[vec![bytes("7")]], &[(vec![0], 2)], &p)
            .unwrap();
        fed.merge(GroupPartials::new());
        let mut other_way = GroupPartials::new();
        other_way.merge(fed.clone());
        assert_eq!(
            other_way.finalize(&p).unwrap(),
            vec![vec![bytes("2"), bytes("14")]]
        );
        // All-empty partials still produce the NULL row for a global
        // aggregate.
        assert_eq!(
            GroupPartials::new().finalize(&p).unwrap(),
            vec![vec![bytes("0"), Vec::new()]]
        );
    }

    #[test]
    fn agg_func_parse_and_display() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
        ] {
            assert_eq!(AggFunc::parse(&f.to_string()), Some(f));
            assert_eq!(AggFunc::parse(&f.to_string().to_lowercase()), Some(f));
        }
        assert_eq!(AggFunc::parse("median"), None);
    }
}
