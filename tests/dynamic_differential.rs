//! Range-partition boundaries (§4.3, DESIGN.md §9): rows on, just below
//! and just above every split point, queried with point and straddling
//! ranges, for all nine encrypted dictionary kinds plus PLAIN. Generated
//! insert/delete/read/compact interleavings on one table and on four
//! shards run through the differential harness (`tests/harness`), over
//! every {in-process, TCP} × {batched, bypass} × kind cell.

mod harness;

use encdbdb::Session;
use proptest::prelude::*;
use workload::KINDS;

/// Split points inside a 0..60 domain: partition 0 covers `< "0015"`,
/// 1 covers `["0015", "0030")`, 2 covers `["0030", "0045")` and 3 covers
/// `>= "0045"`.
const SPLITS: &str = "'0015', '0030', '0045'";

/// Deterministic boundary regression: rows on, just below and just above
/// every split point, exercised with point and straddling queries.
#[test]
fn split_point_boundaries_route_and_query_exactly() {
    for choice in KINDS {
        let mut db = Session::with_seed(0xB0).expect("session setup");
        db.execute(&format!(
            "CREATE TABLE t (v {choice}(8)) PARTITION BY RANGE (v) SPLIT ({SPLITS})"
        ))
        .expect("create table");
        let values = [
            "0000", "0014", "0015", "0016", "0029", "0030", "0031", "0044", "0045", "0046", "0059",
        ];
        for v in values {
            db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
                .unwrap();
        }
        // A split-point value belongs to the shard it opens.
        for (q, expected) in [
            ("SELECT v FROM t WHERE v = '0015'", 1usize),
            ("SELECT v FROM t WHERE v = '0030'", 1),
            ("SELECT v FROM t WHERE v < '0015'", 2),
            ("SELECT v FROM t WHERE v >= '0045'", 3),
            ("SELECT v FROM t WHERE v BETWEEN '0014' AND '0016'", 3),
            ("SELECT v FROM t WHERE v BETWEEN '0029' AND '0045'", 5),
            (
                "SELECT COUNT(*) FROM t WHERE v BETWEEN '0000' AND '0059'",
                1,
            ),
        ] {
            let r = db.execute(q).unwrap();
            assert_eq!(r.row_count(), expected, "{choice}: {q}");
        }
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM t")
                .unwrap()
                .rows_as_strings(),
            vec![vec![values.len().to_string()]],
            "{choice}: total count"
        );
        // Merge every shard, then re-check a straddling range.
        db.merge("t").unwrap();
        let r = db
            .execute("SELECT v FROM t WHERE v BETWEEN '0014' AND '0046'")
            .unwrap();
        assert_eq!(r.row_count(), 9, "{choice}: post-merge straddle");
        let stats = db.server().compaction_stats("t").unwrap();
        assert_eq!(stats.partition_epochs, vec![1, 1, 1, 1], "{choice}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Four of the volatile single-shard quadrant's ten streams.
    #[test]
    fn interleavings_match_the_plaintext_model(seed in any::<u64>()) {
        harness::check_modes(false, false, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Five of the volatile four-shard quadrant's ten streams.
    #[test]
    fn partitioned_interleavings_match_the_plaintext_model(seed in any::<u64>()) {
        harness::check_modes(false, true, seed)?;
    }
}
