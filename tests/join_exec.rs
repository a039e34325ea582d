//! Differential testing of the equi-join pipeline: every join result is
//! compared against a plaintext MonetDB-baseline evaluation (filters via
//! `MonetColumn`'s linear range scan, the join itself as a plain Rust
//! nested loop) — across all nine encrypted dictionary kinds plus PLAIN,
//! with delta-store rows and deletions on both sides, across 1-shard ×
//! 4-shard table combinations. Generated insert/delete/compact schedules
//! on both tables, over every execution mode, run through the
//! differential harness (`tests/harness`).
//!
//! The boundary properties of DESIGN.md §11 are asserted through
//! `QueryStats`: a two-table equi-join issues exactly one `JoinBridge`
//! ECALL, decrypts each distinct join-key code at most once per side, and
//! reports build/probe/bridge accounting.

mod harness;

use colstore::column::Column;
use colstore::monetdb::MonetColumn;
use encdbdb::Session;
use proptest::prelude::*;
use std::collections::BTreeSet;
use workload::KINDS;

/// One logical row of a side's plaintext mirror: (join key, payload).
type Row = (String, String);

fn key_of(i: usize) -> String {
    format!("{:04}", (i * 13) % 40)
}

fn pay_of(side: &str, i: usize) -> String {
    format!("{side}{:03}", (i * 7) % 500)
}

/// Builds a `users ⋈ orders` deployment whose sides both mix main-store
/// rows (via merge), delta-store rows, and deletions; `shards` range
/// partitions the orders table into four shards on the join key.
fn build_pair(choice: &str, seed: u64, shards: bool) -> (Session, Vec<Row>, Vec<Row>) {
    let mut db = Session::with_seed(seed).unwrap();
    let clause = if shards {
        " PARTITION BY RANGE (k) SPLIT ('0010', '0020', '0030')"
    } else {
        ""
    };
    db.execute(&format!(
        "CREATE TABLE users (k {choice}(8), x {choice}(8))"
    ))
    .unwrap();
    db.execute(&format!(
        "CREATE TABLE orders (k {choice}(8), y {choice}(8)){clause}"
    ))
    .unwrap();
    let mut left: Vec<Row> = Vec::new();
    let mut right: Vec<Row> = Vec::new();
    let insert = |db: &mut Session,
                  mirror: &mut Vec<Row>,
                  table: &str,
                  side: &str,
                  range: std::ops::Range<usize>| {
        let rows: Vec<String> = range
            .map(|i| {
                let row = (key_of(i), pay_of(side, i));
                let sql = format!("('{}', '{}')", row.0, row.1);
                mirror.push(row);
                sql
            })
            .collect();
        db.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", ")))
            .unwrap();
    };
    // Main-store era: insert, delete one key everywhere, merge.
    insert(&mut db, &mut left, "users", "u", 0..50);
    insert(&mut db, &mut right, "orders", "o", 0..90);
    let victim = key_of(3);
    db.execute(&format!("DELETE FROM users WHERE k = '{victim}'"))
        .unwrap();
    left.retain(|r| r.0 != victim);
    db.merge("users").unwrap();
    db.merge("orders").unwrap();
    // Delta era on BOTH sides, plus a delete that hits main and delta of
    // the right table.
    insert(&mut db, &mut left, "users", "u", 50..65);
    insert(&mut db, &mut right, "orders", "o", 90..120);
    let victim = key_of(8);
    db.execute(&format!("DELETE FROM orders WHERE k = '{victim}'"))
        .unwrap();
    right.retain(|r| r.0 != victim);
    (db, left, right)
}

/// MonetDB-baseline filter: linear range scan over a mirror's key column.
fn filter_side<'a>(mirror: &'a [Row], range: Option<(&str, &str)>) -> Vec<&'a Row> {
    let Some((lo, hi)) = range else {
        return mirror.iter().collect();
    };
    if mirror.is_empty() {
        return Vec::new();
    }
    let column = Column::from_strs("k", 8, mirror.iter().map(|r| r.0.as_str())).unwrap();
    let monet = MonetColumn::ingest(&column);
    monet
        .range_search_inclusive(lo.as_bytes(), hi.as_bytes())
        .into_iter()
        .map(|rid| &mirror[rid.0 as usize])
        .collect()
}

/// The plaintext baseline join: nested loop over the filtered mirrors,
/// projecting (left payload, right payload), sorted.
fn baseline_join(
    left: &[Row],
    right: &[Row],
    lrange: Option<(&str, &str)>,
    rrange: Option<(&str, &str)>,
) -> Vec<Vec<String>> {
    let l = filter_side(left, lrange);
    let r = filter_side(right, rrange);
    let mut out = Vec::new();
    for lr in &l {
        for rr in &r {
            if lr.0 == rr.0 {
                out.push(vec![lr.1.clone(), rr.1.clone()]);
            }
        }
    }
    out.sort();
    out
}

fn sorted_rows(result: &encdbdb::QueryResult) -> Vec<Vec<String>> {
    let mut rows = result.rows_as_strings();
    rows.sort();
    rows
}

const JOIN_SQL: &str = "SELECT users.x, orders.y FROM users JOIN orders ON users.k = orders.k";

#[test]
fn flagship_join_matches_baseline_on_all_kinds() {
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut db, left, right) = build_pair(choice, 1200 + i as u64, false);
        // Unfiltered join.
        let r = db.execute(JOIN_SQL).unwrap();
        assert_eq!(r.columns, vec!["users.x", "orders.y"]);
        assert_eq!(
            sorted_rows(&r),
            baseline_join(&left, &right, None, None),
            "kind {choice}: unfiltered join"
        );
        assert!(!r.rows.is_empty(), "kind {choice}: non-trivial join");
        let stats = db.server().last_stats();
        // Exactly ONE JoinBridge ECALL for encrypted keys; none at all
        // when everything is PLAIN.
        let expected_calls = if *choice == "PLAIN" { 0 } else { 1 };
        assert_eq!(stats.enclave_calls, expected_calls, "kind {choice}");
        assert_eq!(stats.join_build_rows, left.len(), "kind {choice}");
        assert_eq!(stats.join_probe_rows, right.len(), "kind {choice}");
        let key_intersection: BTreeSet<&String> = left
            .iter()
            .map(|r| &r.0)
            .collect::<BTreeSet<_>>()
            .intersection(&right.iter().map(|r| &r.0).collect())
            .copied()
            .collect();
        assert_eq!(
            stats.bridge_entries,
            key_intersection.len(),
            "kind {choice}: one bridge entry per matched distinct key"
        );
        // Decrypts are bounded by distinct touched codes, never above
        // one per matching row and side.
        assert!(
            stats.values_decrypted <= left.len() + right.len(),
            "kind {choice}: decrypted {}",
            stats.values_decrypted
        );

        // Filtered join: a range on each side.
        let (lo, hi) = ("0005", "0030");
        let (rlo, rhi) = ("0000", "0025");
        let r = db
            .execute(&format!(
                "{JOIN_SQL} WHERE users.k BETWEEN '{lo}' AND '{hi}' \
                 AND orders.k BETWEEN '{rlo}' AND '{rhi}'"
            ))
            .unwrap();
        assert_eq!(
            sorted_rows(&r),
            baseline_join(&left, &right, Some((lo, hi)), Some((rlo, rhi))),
            "kind {choice}: filtered join"
        );
    }
}

#[test]
fn one_shard_by_four_shard_join_matches_monolithic() {
    let queries = [
        JOIN_SQL.to_string(),
        // Straddles the split points on the sharded side.
        format!("{JOIN_SQL} WHERE orders.k BETWEEN '0008' AND '0022'"),
        // Confined to one shard (pruning on).
        format!("{JOIN_SQL} WHERE orders.k BETWEEN '0010' AND '0019'"),
        // Filter on the 1-shard side only.
        format!("{JOIN_SQL} WHERE users.k >= '0025'"),
    ];
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut mono, l1, r1) = build_pair(choice, 1300 + i as u64, false);
        let (mut sharded, l2, r2) = build_pair(choice, 1300 + i as u64, true);
        assert_eq!(l1, l2, "same logical content");
        assert_eq!(r1, r2, "same logical content");
        for q in &queries {
            let a = mono.execute(q).unwrap();
            let b = sharded.execute(q).unwrap();
            assert_eq!(sorted_rows(&a), sorted_rows(&b), "kind {choice}: {q}");
        }
        // The sharded run saw 1 + 4 partitions, and the confined query
        // pruned shards on the orders side.
        sharded.execute(&queries[2]).unwrap();
        let stats = sharded.server().last_stats();
        assert_eq!(stats.partitions_total, 5, "kind {choice}");
        assert!(stats.partitions_pruned > 0, "kind {choice}: pruning");
    }
}

#[test]
fn empty_side_joins_answer_without_any_ecall() {
    for choice in ["ED1", "ED9", "PLAIN"] {
        let mut db = Session::with_seed(1400).unwrap();
        db.execute(&format!(
            "CREATE TABLE users (k {choice}(8), x {choice}(8))"
        ))
        .unwrap();
        db.execute(&format!(
            "CREATE TABLE orders (k {choice}(8), y {choice}(8))"
        ))
        .unwrap();
        db.execute("INSERT INTO users VALUES ('0001', 'ua'), ('0002', 'ub')")
            .unwrap();
        // Right side empty.
        let r = db.execute(JOIN_SQL).unwrap();
        assert_eq!(r.row_count(), 0, "kind {choice}");
        let stats = db.server().last_stats();
        assert_eq!(stats.enclave_calls, 0, "kind {choice}: empty-side no-op");
        assert_eq!(stats.bridge_entries, 0, "kind {choice}");
        // Both sides deleted down to empty.
        db.execute("INSERT INTO orders VALUES ('0001', 'oa')")
            .unwrap();
        db.execute("DELETE FROM users").unwrap();
        let r = db.execute(JOIN_SQL).unwrap();
        assert_eq!(r.row_count(), 0, "kind {choice}: deleted-left join");
        assert_eq!(db.server().last_stats().enclave_calls, 0, "kind {choice}");
    }
}

#[test]
fn bridge_decrypts_each_distinct_key_exactly_once_per_side() {
    // Heavily repetitive keys under ED1 (one dictionary entry per distinct
    // value): 60 + 90 rows over ≤ 12 distinct keys per side. After a merge
    // (no delta codes), the bridge must decrypt exactly one value per
    // distinct key per side — never per row.
    let mut db = Session::with_seed(1500).unwrap();
    db.execute("CREATE TABLE users (k ED1(8), x ED1(8))")
        .unwrap();
    db.execute("CREATE TABLE orders (k ED1(8), y ED1(8))")
        .unwrap();
    let urows: Vec<String> = (0..60)
        .map(|i| format!("('{:04}', 'u{:03}')", i % 12, i))
        .collect();
    let orows: Vec<String> = (0..90)
        .map(|i| format!("('{:04}', 'o{:03}')", 6 + (i % 12), i))
        .collect();
    db.execute(&format!("INSERT INTO users VALUES {}", urows.join(", ")))
        .unwrap();
    db.execute(&format!("INSERT INTO orders VALUES {}", orows.join(", ")))
        .unwrap();
    db.merge("users").unwrap();
    db.merge("orders").unwrap();
    let r = db.execute(JOIN_SQL).unwrap();
    // Keys 6..=11 overlap: 5 user rows × ~7-8 order rows each.
    assert!(r.row_count() > 0);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 1, "exactly one JoinBridge ECALL");
    assert_eq!(
        stats.values_decrypted,
        12 + 12,
        "one decrypt per distinct key per side"
    );
    assert_eq!(stats.bridge_entries, 6, "keys 0006..0011 bridge");
    assert_eq!(stats.join_build_rows, 60);
    assert_eq!(stats.join_probe_rows, 90);
    assert!(stats.bridge_ns > 0);

    // A filtered join adds exactly the search ECALLs (one per filtered
    // side's main dictionary; deltas are empty after the merges).
    db.execute(&format!("{JOIN_SQL} WHERE users.k >= '0006'"))
        .unwrap();
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 2, "one search + one bridge");
}

#[test]
fn mixed_plain_and_encrypted_join_keys_bridge_correctly() {
    // One side's key column PLAIN, the other encrypted: the bridge gets
    // resolved plaintext values for one side and decrypts the other —
    // still exactly one ECALL, decrypting only the encrypted side.
    for enc in ["ED1", "ED5", "ED9"] {
        for plain_left in [true, false] {
            let (lkind, rkind) = if plain_left {
                ("PLAIN", enc)
            } else {
                (enc, "PLAIN")
            };
            let mut db = Session::with_seed(1450).unwrap();
            db.execute(&format!("CREATE TABLE users (k {lkind}(8), x ED1(8))"))
                .unwrap();
            db.execute(&format!("CREATE TABLE orders (k {rkind}(8), y ED1(8))"))
                .unwrap();
            let mut left: Vec<Row> = Vec::new();
            let mut right: Vec<Row> = Vec::new();
            for i in 0..25 {
                let row = (key_of(i), pay_of("u", i));
                db.execute(&format!(
                    "INSERT INTO users VALUES ('{}', '{}')",
                    row.0, row.1
                ))
                .unwrap();
                left.push(row);
            }
            for i in 10..45 {
                let row = (key_of(i), pay_of("o", i));
                db.execute(&format!(
                    "INSERT INTO orders VALUES ('{}', '{}')",
                    row.0, row.1
                ))
                .unwrap();
                right.push(row);
            }
            db.merge("users").unwrap();
            // Delta rows stay on the orders side.
            let r = db.execute(JOIN_SQL).unwrap();
            assert_eq!(
                sorted_rows(&r),
                baseline_join(&left, &right, None, None),
                "{lkind}×{rkind}: mixed-key join"
            );
            let stats = db.server().last_stats();
            assert_eq!(stats.enclave_calls, 1, "{lkind}×{rkind}: one bridge");
            // Only the encrypted side's distinct codes are decrypted.
            let enc_rows = if plain_left { right.len() } else { left.len() };
            assert!(
                stats.values_decrypted <= enc_rows,
                "{lkind}×{rkind}: decrypted {} > {enc_rows}",
                stats.values_decrypted
            );
            assert!(stats.bridge_entries > 0, "{lkind}×{rkind}");
        }
    }
}

#[test]
fn frequency_hiding_keys_always_go_through_the_bridge() {
    // ED9 keys: one dictionary entry per occurrence, so ValueID equality
    // never reveals value equality — a self-join on the same table must
    // still bridge, and must match every equal-value pair.
    let mut db = Session::with_seed(1600).unwrap();
    db.execute("CREATE TABLE t (k ED9(8), x ED9(8))").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 'p'), ('a', 'q'), ('b', 'r')")
        .unwrap();
    db.merge("t").unwrap();
    let r = db.execute("SELECT t.x FROM t JOIN t ON t.k = t.k").unwrap();
    // Self-join pairs: 'a' rows 2×2 + 'b' rows 1×1 = 5.
    assert_eq!(r.row_count(), 5);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 1, "ED9 self-join still bridges");
    assert_eq!(stats.bridge_entries, 2);
}

#[test]
fn repetition_revealing_self_join_skips_the_bridge() {
    // ED1 self-join on one merged partition: ValueID equality IS value
    // equality, so the server matches VIDs directly — zero ECALLs, zero
    // decrypts (the documented DESIGN.md §11 shortcut).
    let mut db = Session::with_seed(1700).unwrap();
    db.execute("CREATE TABLE t (k ED1(8), x ED1(8))").unwrap();
    db.execute("INSERT INTO t VALUES ('a', 'p'), ('a', 'q'), ('b', 'r')")
        .unwrap();
    db.merge("t").unwrap();
    let r = db.execute("SELECT t.x FROM t JOIN t ON t.k = t.k").unwrap();
    assert_eq!(r.row_count(), 5);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 0, "VID identity shortcut");
    assert_eq!(stats.values_decrypted, 0);
    assert_eq!(stats.bridge_entries, 2);

    // With delta rows present the shortcut is unsound (delta codes are
    // per-row); the pipeline must fall back to the bridge and still be
    // correct.
    db.execute("INSERT INTO t VALUES ('a', 's')").unwrap();
    let r = db.execute("SELECT t.x FROM t JOIN t ON t.k = t.k").unwrap();
    assert_eq!(r.row_count(), 10, "3×3 'a' pairs + 1 'b' pair");
    assert_eq!(db.server().last_stats().enclave_calls, 1, "fell back");
}

#[test]
fn aggregates_distinct_and_in_compose_with_joins() {
    for choice in ["ED1", "ED5", "ED9", "PLAIN"] {
        let (mut db, left, right) = build_pair(choice, 1800, false);
        // Grouped COUNT over the join, against the baseline.
        let r = db
            .execute(
                "SELECT users.x, COUNT(*) FROM users JOIN orders ON users.k = orders.k \
                 GROUP BY users.x ORDER BY 2 DESC, 1 LIMIT 5",
            )
            .unwrap();
        let joined = baseline_join(&left, &right, None, None);
        let mut counts: std::collections::BTreeMap<String, u64> = Default::default();
        for row in &joined {
            *counts.entry(row[0].clone()).or_insert(0) += 1;
        }
        let mut expected: Vec<(String, u64)> = counts.into_iter().collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        expected.truncate(5);
        let expected: Vec<Vec<String>> = expected
            .into_iter()
            .map(|(x, c)| vec![x, c.to_string()])
            .collect();
        assert_eq!(r.rows_as_strings(), expected, "kind {choice}: grouped join");

        // DISTINCT over the join output.
        let r = db
            .execute(
                "SELECT DISTINCT users.x FROM users JOIN orders ON users.k = orders.k \
                 ORDER BY users.x",
            )
            .unwrap();
        let mut expected: Vec<String> = joined.iter().map(|row| row[0].clone()).collect();
        expected.sort();
        expected.dedup();
        let expected: Vec<Vec<String>> = expected.into_iter().map(|x| vec![x]).collect();
        assert_eq!(
            r.rows_as_strings(),
            expected,
            "kind {choice}: distinct join"
        );

        // IN on one side mixed into the join filter.
        let keys = ["0000", "0013", "0026"];
        let r = db
            .execute(&format!(
                "{JOIN_SQL} WHERE users.k IN ('{}', '{}', '{}')",
                keys[0], keys[1], keys[2]
            ))
            .unwrap();
        let l: Vec<Row> = left
            .iter()
            .filter(|r| keys.contains(&r.0.as_str()))
            .cloned()
            .collect();
        assert_eq!(
            sorted_rows(&r),
            baseline_join(&l, &right, None, None),
            "kind {choice}: IN + join"
        );
    }
}

#[test]
fn in_predicate_matches_baseline_on_single_tables() {
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut db, left, _) = build_pair(choice, 1900 + i as u64, false);
        let keys = ["0013", "0026", "0039", "0013"]; // duplicate on purpose
        let r = db
            .execute(&format!(
                "SELECT x FROM users WHERE k IN ('{}', '{}', '{}', '{}') ORDER BY x",
                keys[0], keys[1], keys[2], keys[3]
            ))
            .unwrap();
        let mut expected: Vec<Vec<String>> = left
            .iter()
            .filter(|row| keys.contains(&row.0.as_str()))
            .map(|row| vec![row.1.clone()])
            .collect();
        expected.sort();
        assert_eq!(r.rows_as_strings(), expected, "kind {choice}: IN");
        // IN intersected with a range on the same column.
        let r = db
            .execute(&format!(
                "SELECT x FROM users WHERE k IN ('{}', '{}', '{}') AND k >= '0020' ORDER BY x",
                keys[0], keys[1], keys[2]
            ))
            .unwrap();
        let mut expected: Vec<Vec<String>> = left
            .iter()
            .filter(|row| keys.contains(&row.0.as_str()) && row.0.as_str() >= "0020")
            .map(|row| vec![row.1.clone()])
            .collect();
        expected.sort();
        assert_eq!(r.rows_as_strings(), expected, "kind {choice}: IN ∧ range");
    }
}

#[test]
fn contradictory_conjunctions_skip_wasted_searches() {
    // Intersecting an IN with another predicate on the same column prunes
    // provably-empty ranges up front: only the satisfiable range is ever
    // searched, and a fully contradictory filter enters the enclave zero
    // times.
    let mut db = Session::with_seed(2100).unwrap();
    db.execute("CREATE TABLE t (v ED1(8))").unwrap();
    let rows: Vec<String> = (0..40).map(|i| format!("('{:03}')", i % 10)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.merge("t").unwrap();
    let r = db
        .execute("SELECT v FROM t WHERE v IN ('001', '002') AND v = '001'")
        .unwrap();
    assert_eq!(r.row_count(), 4);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 1, "only the satisfiable range runs");
    let r = db
        .execute("SELECT v FROM t WHERE v = '001' AND v = '002'")
        .unwrap();
    assert_eq!(r.row_count(), 0);
    assert_eq!(
        db.server().last_stats().enclave_calls,
        0,
        "a contradictory filter never enters the enclave"
    );
}

#[test]
fn select_distinct_decrypts_once_per_distinct_value() {
    // DISTINCT rides the ValueID-histogram path: one Aggregate ECALL, one
    // decrypt per distinct value — never per row.
    let mut db = Session::with_seed(2000).unwrap();
    db.execute("CREATE TABLE t (v ED1(8))").unwrap();
    let rows: Vec<String> = (0..120).map(|i| format!("('{:03}')", i % 9)).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.merge("t").unwrap();
    let r = db.execute("SELECT DISTINCT v FROM t ORDER BY v").unwrap();
    assert_eq!(r.row_count(), 9);
    let expected: Vec<Vec<String>> = (0..9).map(|i| vec![format!("{i:03}")]).collect();
    assert_eq!(r.rows_as_strings(), expected);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 1, "one Aggregate ECALL, no search");
    assert_eq!(stats.values_decrypted, 9, "one decrypt per distinct value");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two of the volatile single-shard quadrant's ten streams, joining
    /// `t ⋈ u` at every aggregate read and at the end.
    #[test]
    fn interleaved_join_schedules_match_the_baseline(seed in any::<u64>()) {
        harness::check_modes(false, false, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Five of the volatile four-shard quadrant's ten streams: both join
    /// sides sharded, every kind.
    #[test]
    fn interleaved_sharded_join_schedules_match_the_baseline(seed in any::<u64>()) {
        harness::check_modes(false, true, seed)?;
    }
}
