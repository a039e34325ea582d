//! Cross-crate integration tests: the full EncDBDB pipeline from data-owner
//! setup through SQL query execution, exercised against a plaintext
//! reference implementation.

use colstore::column::Column;
use colstore::table::Table;
use encdbdb::{ColumnSpec, DictChoice, Session, TableSchema};
use encdict::EdKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates a random dataset and checks every ED kind, and PLAIN, returns
/// exactly what a plaintext scan returns, for a battery of query shapes
/// over a main store and a delta.
#[test]
fn all_kinds_agree_with_reference_scan() {
    let mut rng = StdRng::seed_from_u64(9001);
    let rows = 300usize;
    let main: Vec<String> = (0..rows)
        .map(|_| format!("v{:04}", rng.gen_range(0..40)))
        .collect();
    let inserted = ["v0005", "v0012", "v0012", "v0041"];
    let values: Vec<String> = main
        .iter()
        .cloned()
        .chain(inserted.map(String::from))
        .collect();

    // Rotated kinds once capped the column at 31 bytes; 40 is past that.
    for width in [8, 40] {
        let choices = EdKind::ALL
            .map(DictChoice::Encrypted)
            .into_iter()
            .chain([DictChoice::Plain]);
        for (i, choice) in choices.enumerate() {
            let mut db = Session::with_seed(9101 + i as u64).unwrap();
            db.set_compaction_policy(None);
            let mut table = Table::new("t");
            table
                .add_column(Column::from_strs("c", width, main.iter()).unwrap())
                .unwrap();
            let schema = TableSchema::new("t", vec![ColumnSpec::new("c", choice, width)]);
            db.load_table(&table, schema).unwrap();
            db.execute(&format!(
                "INSERT INTO t VALUES ('{}')",
                inserted.join("'), ('")
            ))
            .unwrap();

            type Pred = fn(&str) -> bool;
            let queries: [(&str, Pred); 8] = [
                ("SELECT c FROM t WHERE c = 'v0005'", |v| v == "v0005"),
                ("SELECT c FROM t WHERE c < 'v0010'", |v| v < "v0010"),
                ("SELECT c FROM t WHERE c >= 'v0030'", |v| v >= "v0030"),
                // A bound longer than the column compares as bytes like any
                // other.
                (
                    "SELECT c FROM t WHERE c < 'v0020-longer-than-the-column'",
                    |v| v < "v0020-longer-than-the-column",
                ),
                ("SELECT c FROM t WHERE c BETWEEN 'v0010' AND 'v0020'", |v| {
                    ("v0010"..="v0020").contains(&v)
                }),
                // `IN` lists: one search per store and one attribute-vector
                // pass whatever their length.
                ("SELECT c FROM t WHERE c IN ('v0012')", |v| v == "v0012"),
                ("SELECT c FROM t WHERE c IN ('v0012', 'v0041')", |v| {
                    ["v0012", "v0041"].contains(&v)
                }),
                (
                    "SELECT c FROM t WHERE c IN ('v0003', 'v0005', 'v0012', 'v0039', 'v0077')",
                    |v| ["v0003", "v0005", "v0012", "v0039", "v0077"].contains(&v),
                ),
            ];
            for (sql, pred) in queries {
                let mut got: Vec<String> = db
                    .execute(sql)
                    .unwrap()
                    .rows_as_strings()
                    .into_iter()
                    .map(|mut r| r.remove(0))
                    .collect();
                got.sort();
                let mut expected: Vec<String> =
                    values.iter().filter(|v| pred(v)).cloned().collect();
                expected.sort();
                assert_eq!(got, expected, "{choice:?}({width}), query {sql}");
            }

            // Overlapping ranges on a PLAIN column — SQL cannot say this, the
            // server's query entry can: a row both ranges match comes back
            // once, as from the MonetDB baseline's scans unioned.
            if choice == DictChoice::Plain {
                use colstore::monetdb::MonetColumn;
                use encdbdb::server::{CellValue, QueryOutcome, ServerFilter, ServerQuery};
                use encdict::RangeQuery;
                let ranges = [("v0005", "v0015"), ("v0010", "v0020"), ("v0012", "v0012")];
                let outcome = db
                    .server()
                    .execute_query(ServerQuery::Select {
                        table: "t".into(),
                        columns: Vec::new(),
                        filters: vec![ServerFilter::Plain {
                            column: "c".into(),
                            ranges: ranges.map(|(lo, hi)| RangeQuery::between(lo, hi)).to_vec(),
                        }],
                        scope: None,
                    })
                    .unwrap();
                let QueryOutcome::Rows(response) = outcome else {
                    panic!("a select answers with rows");
                };
                let mut got: Vec<Vec<u8>> = response
                    .rows
                    .into_iter()
                    .map(|row| match &row[0] {
                        CellValue::Plain(v) => v.clone(),
                        CellValue::Encrypted(_) => panic!("a PLAIN column renders plaintext"),
                    })
                    .collect();
                got.sort();
                let column = Column::from_strs("c", 8, values.iter()).unwrap();
                let monet = MonetColumn::ingest(&column);
                let rids: std::collections::BTreeSet<_> = ranges
                    .iter()
                    .flat_map(|(lo, hi)| monet.range_search_inclusive(lo.as_bytes(), hi.as_bytes()))
                    .collect();
                let mut expected: Vec<Vec<u8>> = rids
                    .into_iter()
                    .map(|rid| monet.value(rid).to_vec())
                    .collect();
                expected.sort();
                assert_eq!(got, expected, "PLAIN, overlapping ranges");
                assert!(
                    expected.len() > inserted.len(),
                    "the ranges match main rows too"
                );
            }
        }
    }
}

/// The setup phase must reject a server whose enclave measurement differs
/// from the expected dictionary-search enclave.
#[test]
fn attestation_rejects_unexpected_enclave() {
    use encdbdb::{DataOwner, DbaasServer};
    use enclave_sim::attestation::{Measurement, SigningPlatform};

    let mut rng = StdRng::seed_from_u64(42);
    let owner = DataOwner::generate(&mut rng);
    let server = DbaasServer::new();
    let service = SigningPlatform::default().verification_service();
    let err = owner
        .provision(
            &server,
            &service,
            Measurement::of(b"some-other-enclave"),
            &mut rng,
        )
        .unwrap_err();
    assert!(matches!(err, encdbdb::DbError::Enclave(_)));
}

/// Mixed-protection table: encrypted and plaintext dictionaries coexist,
/// and filters on either kind project columns of the other.
#[test]
fn mixed_encrypted_and_plain_columns() {
    let mut db = Session::with_seed(77).unwrap();
    db.execute("CREATE TABLE emp (name ED7(16), dept PLAIN(8), salary ED9(8))")
        .unwrap();
    db.execute(
        "INSERT INTO emp VALUES \
         ('alice', 'eng', '00090000'), ('bob', 'eng', '00085000'), \
         ('carol', 'sales', '00070000'), ('dave', 'eng', '00072000')",
    )
    .unwrap();

    // Filter on the PLAIN column, project encrypted columns.
    let r = db
        .execute("SELECT name, salary FROM emp WHERE dept = 'eng'")
        .unwrap();
    assert_eq!(r.row_count(), 3);

    // Filter on an encrypted column, project the PLAIN column.
    let r = db
        .execute("SELECT dept FROM emp WHERE salary >= '00080000'")
        .unwrap();
    let mut got = r.rows_as_strings();
    got.sort();
    assert_eq!(got, vec![vec!["eng".to_string()], vec!["eng".to_string()]]);
}

/// Insert → delete → merge → insert across multiple merges keeps results
/// exact for every storage generation.
#[test]
fn repeated_merge_cycles_stay_consistent() {
    let mut db = Session::with_seed(123).unwrap();
    db.execute("CREATE TABLE t (v ED5(8))").unwrap();
    let mut live: Vec<String> = Vec::new();
    let mut rng = StdRng::seed_from_u64(321);
    for cycle in 0..5 {
        // Insert a batch.
        let batch: Vec<String> = (0..20)
            .map(|i| format!("c{cycle}v{:03}", i * rng.gen_range(1..5)))
            .collect();
        let values = batch
            .iter()
            .map(|v| format!("('{v}')"))
            .collect::<Vec<_>>()
            .join(", ");
        db.execute(&format!("INSERT INTO t VALUES {values}"))
            .unwrap();
        live.extend(batch);
        // Delete a random prefix range.
        let cut = format!("c{cycle}v{:03}", 3);
        db.execute(&format!(
            "DELETE FROM t WHERE v >= 'c{cycle}' AND v < '{cut}'"
        ))
        .unwrap();
        live.retain(|v| !(v.as_str() >= format!("c{cycle}").as_str() && v.as_str() < cut.as_str()));
        // Merge on odd cycles.
        if cycle % 2 == 1 {
            db.merge("t").unwrap();
        }
        // Verify full contents.
        let mut got: Vec<String> = db
            .execute("SELECT v FROM t")
            .unwrap()
            .rows_as_strings()
            .into_iter()
            .map(|mut r| r.remove(0))
            .collect();
        got.sort();
        let mut expected = live.clone();
        expected.sort();
        assert_eq!(got, expected, "cycle {cycle}");
    }
}

/// Persistence round trip: a column deployed into a durable session is
/// written to disk, and the reopened deployment queries identically.
#[test]
fn persisted_column_redeploys() {
    let dir = std::env::temp_dir().join(format!("encdbdb-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let column = Column::from_strs("c", 8, ["x1", "x2", "x3", "x2"]).unwrap();
    let mut db = Session::with_seed_durable(555, &dir).unwrap();
    let mut table = Table::new("t");
    table.add_column(column).unwrap();
    db.load_table(
        &table,
        TableSchema::new(
            "t",
            vec![ColumnSpec::new("c", DictChoice::Encrypted(EdKind::Ed3), 8)],
        ),
    )
    .unwrap();
    let live = db.execute("SELECT c FROM t WHERE c = 'x2'").unwrap();
    assert_eq!(live.row_count(), 2);
    let key = db.master_key();
    drop(db);

    let mut db = Session::open(&dir, key, 556).unwrap();
    let reloaded = db.execute("SELECT c FROM t WHERE c = 'x2'").unwrap();
    assert_eq!(reloaded.rows_as_strings(), live.rows_as_strings());
    std::fs::remove_dir_all(&dir).ok();
}

/// The workload generator and the full pipeline compose: a C2-like column
/// under the paper's recommended ED5, queried with RS-style ranges.
#[test]
fn workload_column_under_ed5() {
    let spec = workload::ColumnSpec {
        name: "c".to_string(),
        rows: 5_000,
        unique_values: 50,
        value_len: 10,
        zipf_exponent: 0.7,
    };
    let mut rng = StdRng::seed_from_u64(31);
    let column = workload::generate(&spec, &mut rng);
    let uniques = workload::spec::sorted_unique_values(&spec);

    let mut db = Session::with_seed(32).unwrap();
    let mut table = Table::new("bw");
    table.add_column(column.clone()).unwrap();
    db.load_table(
        &table,
        TableSchema::new(
            "bw",
            vec![ColumnSpec::new("c", DictChoice::Encrypted(EdKind::Ed5), 10)],
        ),
    )
    .unwrap();

    let gen = workload::RangeQueryGen::new(uniques, 5);
    for _ in 0..10 {
        let q = gen.draw(&mut rng);
        let (lo, hi) = match (&q.start, &q.end) {
            (encdict::RangeBound::Inclusive(a), encdict::RangeBound::Inclusive(b)) => (
                String::from_utf8(a.clone()).unwrap(),
                String::from_utf8(b.clone()).unwrap(),
            ),
            _ => unreachable!(),
        };
        let got = db
            .execute(&format!(
                "SELECT c FROM bw WHERE c BETWEEN '{lo}' AND '{hi}'"
            ))
            .unwrap()
            .row_count();
        let expected = column
            .iter()
            .filter(|v| *v >= lo.as_bytes() && *v <= hi.as_bytes())
            .count();
        assert_eq!(got, expected);
    }
}
