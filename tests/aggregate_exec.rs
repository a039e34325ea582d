//! Analytic engine correctness: every aggregate / GROUP BY / ORDER BY /
//! LIMIT result is compared against a plaintext MonetDB-baseline
//! evaluation (filter via `MonetColumn`'s linear range scan, grouping and
//! aggregation in plain Rust) — across all nine encrypted dictionary
//! kinds plus PLAIN, with delta-store rows and deletions in the mix.

use colstore::column::Column;
use colstore::monetdb::MonetColumn;
use encdbdb::{DbError, Session};
use std::collections::BTreeMap;
use workload::KINDS;

/// One logical row of the plaintext mirror: (group, value, plain-value).
type MirrorRow = (String, String, String);

const GROUPS: [&str; 4] = ["amer", "anz", "apj", "emea"];

fn value_of(i: usize) -> String {
    format!("{:04}", (i * 37) % 300)
}

fn plain_of(i: usize) -> String {
    format!("{:03}", (i * 11) % 90)
}

fn group_of(i: usize) -> String {
    GROUPS[i % GROUPS.len()].to_string()
}

/// Builds a session whose table mixes main-store rows (via merge),
/// delta-store rows, and deletions — returning the plaintext mirror of
/// the valid rows. With `partitioned`, the table is range-partitioned on
/// `v` into three shards with splits inside the value domain.
fn build_with(choice: &str, seed: u64, partitioned: bool) -> (Session, Vec<MirrorRow>) {
    let mut db = Session::with_seed(seed).unwrap();
    let clause = if partitioned {
        " PARTITION BY RANGE (v) SPLIT ('0100', '0200')"
    } else {
        ""
    };
    db.execute(&format!(
        "CREATE TABLE t (g {choice}(8), v {choice}(8), p PLAIN(8)){clause}"
    ))
    .unwrap();
    let mut mirror: Vec<MirrorRow> = Vec::new();
    let insert = |db: &mut Session, mirror: &mut Vec<MirrorRow>, range: std::ops::Range<usize>| {
        let rows: Vec<String> = range
            .map(|i| {
                let row = (group_of(i), value_of(i), plain_of(i));
                let sql = format!("('{}', '{}', '{}')", row.0, row.1, row.2);
                mirror.push(row);
                sql
            })
            .collect();
        db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    };
    insert(&mut db, &mut mirror, 0..120);
    // Delete one value everywhere, then merge into the main store.
    let victim = value_of(3);
    db.execute(&format!("DELETE FROM t WHERE v = '{victim}'"))
        .unwrap();
    mirror.retain(|r| r.1 != victim);
    db.merge("t").unwrap();
    // Delta rows on top, plus a deletion that hits main and delta.
    insert(&mut db, &mut mirror, 120..150);
    let victim = value_of(8);
    db.execute(&format!("DELETE FROM t WHERE v = '{victim}'"))
        .unwrap();
    mirror.retain(|r| r.1 != victim);
    (db, mirror)
}

fn build(choice: &str, seed: u64) -> (Session, Vec<MirrorRow>) {
    build_with(choice, seed, false)
}

/// MonetDB-baseline filter: linear string-comparison range scan over the
/// mirror's `v` column.
fn filter_rows<'a>(mirror: &'a [MirrorRow], lo: &str, hi: &str) -> Vec<&'a MirrorRow> {
    let column = Column::from_strs("v", 8, mirror.iter().map(|r| r.1.as_str())).unwrap();
    let monet = MonetColumn::ingest(&column);
    monet
        .range_search_inclusive(lo.as_bytes(), hi.as_bytes())
        .into_iter()
        .map(|rid| &mirror[rid.0 as usize])
        .collect()
}

fn grouped_sums(rows: &[&MirrorRow]) -> BTreeMap<String, i128> {
    let mut sums = BTreeMap::new();
    for r in rows {
        *sums.entry(r.0.clone()).or_insert(0i128) += r.1.parse::<i128>().unwrap();
    }
    sums
}

#[test]
fn flagship_grouped_sum_matches_baseline_on_all_kinds() {
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut db, mirror) = build(choice, 900 + i as u64);
        let (lo, hi) = ("0050", "0250");
        let result = db
            .execute(&format!(
                "SELECT g, SUM(v) FROM t WHERE v BETWEEN '{lo}' AND '{hi}' \
                 GROUP BY g ORDER BY 2 DESC LIMIT 10"
            ))
            .unwrap();
        assert_eq!(result.columns, vec!["g", "sum(v)"]);

        // Baseline: MonetDB-style linear filter, plain grouping, explicit
        // sort (sum descending, group ascending as the engine's canonical
        // full-row tiebreak).
        let matching = filter_rows(&mirror, lo, hi);
        let mut expected: Vec<(String, i128)> = grouped_sums(&matching).into_iter().collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        expected.truncate(10);
        let expected: Vec<Vec<String>> = expected
            .into_iter()
            .map(|(g, s)| vec![g, s.to_string()])
            .collect();
        assert_eq!(result.rows_as_strings(), expected, "kind {choice}");
        assert!(!result.rows.is_empty(), "kind {choice}: empty result");
    }
}

#[test]
fn full_aggregate_battery_matches_baseline_on_all_kinds() {
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut db, mirror) = build(choice, 930 + i as u64);
        let (lo, hi) = ("0020", "0270");
        let result = db
            .execute(&format!(
                "SELECT g, COUNT(*), MIN(v), MAX(v), AVG(v) FROM t \
                 WHERE v BETWEEN '{lo}' AND '{hi}' GROUP BY g ORDER BY g"
            ))
            .unwrap();
        assert_eq!(
            result.columns,
            vec!["g", "count", "min(v)", "max(v)", "avg(v)"]
        );
        let matching = filter_rows(&mirror, lo, hi);
        let mut by_group: BTreeMap<String, Vec<&str>> = BTreeMap::new();
        for r in &matching {
            by_group.entry(r.0.clone()).or_default().push(r.1.as_str());
        }
        let expected: Vec<Vec<String>> = by_group
            .into_iter()
            .map(|(g, vs)| {
                let count = vs.len() as u64;
                let min = vs.iter().min().unwrap().to_string();
                let max = vs.iter().max().unwrap().to_string();
                let sum: i128 = vs.iter().map(|v| v.parse::<i128>().unwrap()).sum();
                let avg = String::from_utf8(encdict::aggregate::render_avg(sum, count)).unwrap();
                vec![g, count.to_string(), min, max, avg]
            })
            .collect();
        assert_eq!(result.rows_as_strings(), expected, "kind {choice}");
    }
}

#[test]
fn multi_partition_aggregates_match_the_monolithic_table_on_all_kinds() {
    // The acceptance property of the partition layer: a three-shard table
    // fed the same inserts/deletes/merges returns byte-identical grouped
    // aggregates — partial aggregates merged in the trusted core — for
    // every ED kind and PLAIN. The monolithic side is itself baselined
    // against MonetDB by the tests above, so transitively the partitioned
    // executor is too.
    let queries = [
        // Straddles both split points; groups span shards.
        "SELECT g, SUM(v), COUNT(*) FROM t WHERE v BETWEEN '0050' AND '0250' \
         GROUP BY g ORDER BY 2 DESC LIMIT 10",
        // Full battery, unfiltered (all shards scanned).
        "SELECT g, COUNT(*), MIN(v), MAX(v), AVG(v) FROM t GROUP BY g ORDER BY g",
        // Global aggregate (no GROUP BY) across shards.
        "SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM t",
        // Filter confined to the middle shard only (pruning on).
        "SELECT g, SUM(v) FROM t WHERE v BETWEEN '0100' AND '0199' GROUP BY g ORDER BY 1",
        // PLAIN aggregate grouped by the encrypted partition column.
        "SELECT v, SUM(p) FROM t WHERE v >= '0200' GROUP BY v ORDER BY 1 LIMIT 8",
    ];
    for (i, choice) in KINDS.iter().enumerate() {
        let (mut mono, mirror_mono) = build_with(choice, 910 + i as u64, false);
        let (mut sharded, mirror_sharded) = build_with(choice, 910 + i as u64, true);
        assert_eq!(mirror_mono, mirror_sharded, "same logical content");
        for q in queries {
            let a = mono.execute(q).unwrap();
            let b = sharded.execute(q).unwrap();
            assert_eq!(
                a.rows_as_strings(),
                b.rows_as_strings(),
                "kind {choice}: {q}"
            );
        }
        // The sharded run scanned multiple partitions to get there.
        let stats = sharded.server().last_stats();
        assert_eq!(stats.partitions_total, 3, "kind {choice}");
    }
}

#[test]
fn mixed_plain_aggregate_over_encrypted_groups() {
    // SUM over the PLAIN column grouped by an encrypted column, and the
    // reverse grouping by the PLAIN column — both against the baseline.
    for choice in ["ED5", "ED9"] {
        let (mut db, mirror) = build(choice, 960);
        let result = db
            .execute("SELECT g, SUM(p) FROM t GROUP BY g ORDER BY 1")
            .unwrap();
        let mut sums: BTreeMap<String, i128> = BTreeMap::new();
        for r in &mirror {
            *sums.entry(r.0.clone()).or_insert(0) += r.2.parse::<i128>().unwrap();
        }
        let expected: Vec<Vec<String>> = sums
            .into_iter()
            .map(|(g, s)| vec![g, s.to_string()])
            .collect();
        assert_eq!(result.rows_as_strings(), expected, "kind {choice}");

        let result = db
            .execute("SELECT p, COUNT(*) FROM t GROUP BY p ORDER BY 2 DESC, 1 LIMIT 5")
            .unwrap();
        let mut counts: BTreeMap<String, u64> = BTreeMap::new();
        for r in &mirror {
            *counts.entry(r.2.clone()).or_insert(0) += 1;
        }
        let mut expected: Vec<(String, u64)> = counts.into_iter().collect();
        expected.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        expected.truncate(5);
        let expected: Vec<Vec<String>> = expected
            .into_iter()
            .map(|(p, c)| vec![p, c.to_string()])
            .collect();
        assert_eq!(result.rows_as_strings(), expected, "kind {choice}");
    }
}

#[test]
fn group_by_without_aggregates_is_distinct() {
    let (mut db, mirror) = build("ED7", 970);
    let result = db.execute("SELECT g FROM t GROUP BY g ORDER BY g").unwrap();
    let mut expected: Vec<String> = mirror.iter().map(|r| r.0.clone()).collect();
    expected.sort();
    expected.dedup();
    let expected: Vec<Vec<String>> = expected.into_iter().map(|g| vec![g]).collect();
    assert_eq!(result.rows_as_strings(), expected);
}

#[test]
fn decrypt_calls_bounded_by_distinct_value_ids_not_rows() {
    // A heavily repetitive column: 150 rows over ≤ 4 groups and ≤ 30
    // distinct values. With a frequency-revealing dictionary the enclave
    // must decrypt at most (distinct g + distinct v) values, far below the
    // matching row count.
    let mut db = Session::with_seed(980).unwrap();
    db.execute("CREATE TABLE t (g ED1(8), v ED1(8))").unwrap();
    let rows: Vec<String> = (0..150)
        .map(|i| format!("('{}', '{:03}')", group_of(i), (i * 7) % 30))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.merge("t").unwrap();
    let result = db
        .execute("SELECT g, SUM(v) FROM t GROUP BY g ORDER BY 2 DESC")
        .unwrap();
    assert_eq!(result.row_count(), 4);
    let stats = db.server().last_stats();
    // No filter: no dictionary search; exactly one aggregation ECALL.
    assert_eq!(stats.enclave_calls, 1);
    assert!(stats.values_decrypted > 0);
    assert!(
        stats.values_decrypted <= 4 + 30,
        "decrypted {} values for ≤ 34 distinct ValueIDs",
        stats.values_decrypted
    );
    assert!(
        stats.values_decrypted < 150,
        "bounded by distinct, not rows"
    );
    assert!(stats.chunks_scanned >= 1);
    assert_eq!(stats.result_rows, 4);

    // A filtered aggregate adds exactly one search ECALL (empty delta).
    let result = db
        .execute("SELECT g, SUM(v) FROM t WHERE v BETWEEN '005' AND '020' GROUP BY g ORDER BY 1")
        .unwrap();
    assert!(result.row_count() > 0);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 2);
}

#[test]
fn frequency_hiding_dictionaries_decrypt_once_per_row_entry() {
    // ED9 hides frequencies: every occurrence has its own dictionary
    // entry, so distinct touched ValueIDs = matching rows — the histogram
    // is all-ones (padded) and the decrypt bound degrades to the row
    // count, exactly as DESIGN.md §8 documents.
    let mut db = Session::with_seed(981).unwrap();
    db.execute("CREATE TABLE t (g ED9(8), v ED9(8))").unwrap();
    let rows: Vec<String> = (0..60)
        .map(|i| format!("('{}', '{:03}')", group_of(i), (i * 7) % 10))
        .collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    db.merge("t").unwrap();
    db.execute("SELECT g, SUM(v) FROM t GROUP BY g").unwrap();
    let stats = db.server().last_stats();
    assert_eq!(
        stats.values_decrypted,
        2 * 60,
        "one entry per row and column"
    );
}

#[test]
fn aggregates_over_empty_and_unfiltered_tables() {
    let mut db = Session::with_seed(982).unwrap();
    db.execute("CREATE TABLE t (g ED5(8), v ED5(8))").unwrap();
    // Empty table: COUNT returns 0, SUM returns NULL (empty string).
    let r = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(
        r.rows_as_strings(),
        vec![vec!["0".to_string(), String::new()]]
    );
    // Grouped aggregate over an empty table: no rows.
    let r = db.execute("SELECT g, COUNT(*) FROM t GROUP BY g").unwrap();
    assert_eq!(r.row_count(), 0);
}

#[test]
fn sum_over_non_numeric_column_errors() {
    let mut db = Session::with_seed(983).unwrap();
    db.execute("CREATE TABLE t (v ED2(8))").unwrap();
    db.execute("INSERT INTO t VALUES ('abc'), ('def')").unwrap();
    assert!(matches!(
        db.execute("SELECT SUM(v) FROM t"),
        Err(DbError::Dict(encdict::EncdictError::Aggregate(_)))
    ));
    // MIN/MAX stay bytewise and fine.
    let r = db.execute("SELECT MIN(v), MAX(v) FROM t").unwrap();
    assert_eq!(
        r.rows_as_strings(),
        vec![vec!["abc".to_string(), "def".to_string()]]
    );
}

#[test]
fn order_by_and_limit_on_plain_row_selects() {
    let (mut db, mirror) = build("ED4", 984);
    let result = db
        .execute("SELECT v, g FROM t ORDER BY v DESC, g LIMIT 7")
        .unwrap();
    let mut expected: Vec<Vec<String>> = mirror
        .iter()
        .map(|r| vec![r.1.clone(), r.0.clone()])
        .collect();
    expected.sort_by(|a, b| b[0].cmp(&a[0]).then_with(|| a[1].cmp(&b[1])));
    expected.truncate(7);
    assert_eq!(result.rows_as_strings(), expected);
}
