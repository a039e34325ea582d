//! Partition-layer enclave-boundary accounting: pruned, empty and
//! fully-invalid shards must never cost an ECALL (the partition analogue
//! of the empty-delta no-op), and a partition-parallel aggregate pays at
//! most one search ECALL per filtered dictionary of each non-empty shard
//! plus exactly one `Aggregate` ECALL.

use encdbdb::Session;

fn ecalls(db: &Session) -> u64 {
    db.server().enclave().enclave().counters().ecalls
}

fn reset(db: &Session) {
    db.server().enclave().enclave_mut().reset_counters();
    db.server().merge_enclave().enclave_mut().reset_counters();
}

/// A three-shard table (splits at '0030' and '0060') with rows only in
/// shard 0, main-store resident, empty deltas.
fn shard0_only_session(seed: u64) -> Session {
    let mut db = Session::with_seed(seed).unwrap();
    db.set_compaction_policy(None); // deterministic ECALL accounting
    db.execute("CREATE TABLE t (v ED1(8)) PARTITION BY RANGE (v) SPLIT ('0030', '0060')")
        .unwrap();
    db.execute("INSERT INTO t VALUES ('0010'), ('0020'), ('0025')")
        .unwrap();
    db.merge("t").unwrap();
    db
}

#[test]
fn pruned_shards_issue_zero_ecalls() {
    let mut db = shard0_only_session(700);
    reset(&db);
    // Scope = shard 0 only; shards 1 and 2 are pruned by the range.
    db.execute("SELECT v FROM t WHERE v BETWEEN '0000' AND '0025'")
        .unwrap();
    // One search ECALL for shard 0's main dictionary; its delta is empty.
    assert_eq!(ecalls(&db), 1);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 1);
    assert_eq!(stats.partitions_total, 3);
    assert_eq!(stats.partitions_scanned, 1);
    assert_eq!(stats.partitions_pruned, 2);
}

#[test]
fn empty_in_scope_shards_issue_zero_ecalls() {
    let mut db = shard0_only_session(701);
    reset(&db);
    // Scope = shards 1 and 2 (shard 0 pruned) — both hold no row at all:
    // the query must be answered without entering the enclave once.
    let r = db.execute("SELECT v FROM t WHERE v >= '0040'").unwrap();
    assert_eq!(r.row_count(), 0);
    assert_eq!(ecalls(&db), 0, "empty shards never enter the enclave");
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 0);
    assert_eq!(stats.partitions_scanned, 0);
    assert_eq!(stats.partitions_pruned, 1);
}

#[test]
fn grouped_aggregate_over_pruned_and_empty_shards_skips_the_enclave() {
    let mut db = shard0_only_session(702);
    reset(&db);
    // Grouped aggregate whose range only reaches the two empty shards:
    // zero groups, zero ECALLs — not even the Aggregate call.
    let r = db
        .execute("SELECT v, COUNT(*) FROM t WHERE v >= '0040' GROUP BY v")
        .unwrap();
    assert_eq!(r.row_count(), 0);
    assert_eq!(ecalls(&db), 0, "no part, no Aggregate ECALL");
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 0);
    assert_eq!(stats.values_decrypted, 0);
}

#[test]
fn fully_invalid_shard_skips_the_enclave() {
    let mut db = Session::with_seed(703).unwrap();
    db.set_compaction_policy(None);
    db.execute("CREATE TABLE t (v ED2(8)) PARTITION BY RANGE (v) SPLIT ('0050')")
        .unwrap();
    db.execute("INSERT INTO t VALUES ('0010'), ('0020'), ('0070')")
        .unwrap();
    db.merge("t").unwrap();
    // Invalidate every row of shard 0; its main store still holds (dead)
    // dictionary entries.
    db.execute("DELETE FROM t WHERE v < '0050'").unwrap();
    reset(&db);
    let r = db.execute("SELECT v FROM t WHERE v <= '0099'").unwrap();
    assert_eq!(r.row_count(), 1, "only shard 1's row survives");
    // Shard 0 is fully invalid -> provably matches nothing -> no search
    // ECALL; shard 1 pays exactly one.
    assert_eq!(ecalls(&db), 1);
    let stats = db.server().last_stats();
    assert_eq!(stats.partitions_scanned, 1);
}

#[test]
fn aggregate_pays_one_search_per_nonempty_shard_and_one_aggregate_call() {
    let mut db = Session::with_seed(704).unwrap();
    db.set_compaction_policy(None);
    // This test counts transitions, and the three shard scans run in
    // parallel: with batching on, the scheduler may coalesce two of their
    // searches into one transition (3 instead of 4, seen in ~1 run in 13).
    db.server().set_ecall_batching(false);
    db.execute("CREATE TABLE t (v ED5(8)) PARTITION BY RANGE (v) SPLIT ('0030', '0060')")
        .unwrap();
    // Rows in all three shards.
    db.execute("INSERT INTO t VALUES ('0010'), ('0040'), ('0040'), ('0070')")
        .unwrap();
    db.merge("t").unwrap();
    reset(&db);
    // Filtered grouped aggregate spanning all three shards: one search
    // ECALL per shard's main dictionary (deltas are empty) + exactly one
    // Aggregate ECALL carrying the three per-shard histograms.
    let r = db
        .execute(
            "SELECT v, COUNT(*) FROM t WHERE v BETWEEN '0000' AND '0099' GROUP BY v ORDER BY 1",
        )
        .unwrap();
    assert_eq!(
        r.rows_as_strings(),
        vec![
            vec!["0010".to_string(), "1".to_string()],
            vec!["0040".to_string(), "2".to_string()],
            vec!["0070".to_string(), "1".to_string()],
        ]
    );
    assert_eq!(ecalls(&db), 3 + 1);
    let stats = db.server().last_stats();
    assert_eq!(stats.enclave_calls, 4);
    assert_eq!(stats.partitions_scanned, 3);
    // Decrypt bound: the aggregate re-reads one distinct touched ValueID
    // per shard, and every one of them was just decrypted by that shard's
    // search ECALL — the enclave value cache answers all three, so the
    // aggregate adds zero fresh decrypts. The searches themselves may hit
    // the cache further on their own repeated probes of one entry.
    assert_eq!(stats.values_decrypted, 0);
    assert!(
        stats.cache_hits >= 3,
        "three aggregate reads must be cache hits, got {}",
        stats.cache_hits
    );

    // Unfiltered global aggregate: no search at all, one Aggregate ECALL.
    reset(&db);
    let r = db.execute("SELECT COUNT(*), SUM(v) FROM t").unwrap();
    assert_eq!(
        r.rows_as_strings(),
        vec![vec!["4".to_string(), "160".to_string()]]
    );
    assert_eq!(ecalls(&db), 1, "histograms need no enclave; one Aggregate");
}
