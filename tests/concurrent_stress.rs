//! Concurrency stress: reader sessions issue queries while threshold- and
//! manually-driven compactions rebuild main stores in the background.
//!
//! Asserts the snapshot guarantees of DESIGN.md §9:
//!
//! * queries complete against the *old* epoch while a merge is in flight
//!   (readers never block on compaction);
//! * no torn reads — two mirrored columns always agree row-by-row, and
//!   every `COUNT(*)` is bracketed by the writer's progress counters;
//! * epoch and merge counters are monotone;
//! * a delete racing an in-flight merge aborts the publish instead of
//!   resurrecting the deleted row;
//! * the metrics registry's counters stay monotone (no torn reads) when
//!   sampled concurrently with the same load, and trace spans nest
//!   correctly across the partition-parallel fan-out (DESIGN.md §13).
//!
//! Thread count and table size are bounded via `ENCDBDB_STRESS_THREADS`
//! and `ENCDBDB_STRESS_ROWS` (see ci.sh).

use colstore::column::Column;
use colstore::table::Table;
use encdbdb::obs::{Layer, LayerTimes};
use encdbdb::{
    ColumnSpec, CompactionPolicy, DictChoice, Session, TablePartitioning, TableSchema, TraceEvent,
};
use encdict::EdKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;
use workload::{HotShardSpec, Op, ScheduleGen, ScheduleSpec};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn value(i: usize) -> String {
    format!("{:04}", i % 100)
}

/// Builds a session with a two-column mirrored table (`v` ED2, `w` ED9 —
/// both columns of every row hold the same value) preloaded with `rows`
/// main-store rows. With `splits`, the table is range-partitioned on `v`.
fn mirrored_session_with(seed: u64, rows: usize, splits: &[&str]) -> Session {
    let mut v = Column::new("v", 8);
    let mut w = Column::new("w", 8);
    for i in 0..rows {
        v.push(value(i).as_bytes()).unwrap();
        w.push(value(i).as_bytes()).unwrap();
    }
    let mut table = Table::new("t");
    table.add_column(v).unwrap();
    table.add_column(w).unwrap();
    let mut schema = TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("v", DictChoice::Encrypted(EdKind::Ed2), 8),
            ColumnSpec::new("w", DictChoice::Encrypted(EdKind::Ed9), 8),
        ],
    );
    if !splits.is_empty() {
        schema = schema.with_partitioning(TablePartitioning::new(
            "v",
            splits.iter().map(|s| s.as_bytes().to_vec()).collect(),
        ));
    }
    let mut db = Session::with_seed(seed).expect("session setup");
    db.load_table(&table, schema).expect("bulk load");
    db
}

fn mirrored_session(seed: u64, rows: usize) -> Session {
    mirrored_session_with(seed, rows, &[])
}

#[test]
fn readers_complete_against_old_snapshot_while_merge_runs() {
    let rows = env_usize("ENCDBDB_STRESS_ROWS", 2000);
    let mut db = mirrored_session(7100, rows);
    // The throttle pins the rebuild in flight long enough to observe the
    // overlap deterministically (it sleeps off the query path).
    db.server()
        .set_merge_throttle(Some(Duration::from_millis(400)));
    db.execute("INSERT INTO t VALUES ('9999', '9999')").unwrap();

    assert_eq!(db.server().epoch("t").unwrap(), 0);
    assert!(db.server().spawn_compaction("t").unwrap());
    assert!(db.server().merge_in_flight("t").unwrap());

    // A reader session completes a query while the merge is still running,
    // and it sees the old epoch.
    let mut reader = db.reader(7101);
    let r = reader
        .execute("SELECT v, w FROM t WHERE v = '9999'")
        .unwrap();
    assert_eq!(r.rows_as_strings(), vec![vec!["9999".to_string(); 2]]);
    let stats = reader.server().last_stats();
    assert_eq!(stats.snapshot_epoch, 0, "query served from the old epoch");
    assert!(
        db.server().merge_in_flight("t").unwrap(),
        "the merge must still be in flight after the query completed \
         (reader did not block on compaction)"
    );

    db.server().wait_for_compaction("t").unwrap();
    let stats = db.server().compaction_stats("t").unwrap();
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.merges_completed, 1);
    assert_eq!(stats.delta_rows, 0, "the insert was folded into main");
    assert_eq!(stats.last_error, None);

    // Same query, now served from the rebuilt store.
    let r = reader
        .execute("SELECT v, w FROM t WHERE v = '9999'")
        .unwrap();
    assert_eq!(r.rows_as_strings(), vec![vec!["9999".to_string(); 2]]);
    assert_eq!(reader.server().last_stats().snapshot_epoch, 1);
}

#[test]
fn concurrent_readers_with_background_compactions() {
    let threads = env_usize("ENCDBDB_STRESS_THREADS", 4);
    let initial = env_usize("ENCDBDB_STRESS_ROWS", 2000).min(400);
    let inserts = 320usize;
    let reads_per_thread = 50usize;

    let mut db = mirrored_session(7200, initial);
    db.server().set_compaction_policy(Some(CompactionPolicy {
        max_delta_rows: 48,
        // Insert-only workload; only the row-count threshold fires.
        max_invalid_fraction: 1.0,
    }));

    // Writer progress counters bracketing every row's visibility window.
    let pending = AtomicUsize::new(initial);
    let committed = AtomicUsize::new(initial);

    let mut writer = db.reader(7201);
    let mut readers: Vec<_> = (0..threads).map(|i| db.reader(7300 + i as u64)).collect();
    let server = db.server().clone();

    std::thread::scope(|scope| {
        let pending = &pending;
        let committed = &committed;
        let server = &server;

        scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(7202);
            let gen = ScheduleGen::new(ScheduleSpec::default());
            for _ in 0..inserts {
                let v = match gen.draw(&mut rng) {
                    Op::Insert { value } => value,
                    _ => "0042".to_string(),
                };
                pending.fetch_add(1, Ordering::SeqCst);
                writer
                    .execute(&format!("INSERT INTO t VALUES ('{v}', '{v}')"))
                    .expect("insert");
                committed.fetch_add(1, Ordering::SeqCst);
            }
        });

        for (i, mut reader) in readers.drain(..).enumerate() {
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9000 + i as u64);
                let gen = ScheduleGen::new(ScheduleSpec::default());
                let mut last_epoch = 0u64;
                let mut last_merges = 0u64;
                for ops in gen.generate_reads(&mut rng, reads_per_thread) {
                    match ops {
                        Op::AggRead { .. } => {
                            // Unfiltered count, bracketed by the writer's
                            // progress: no lost or phantom rows.
                            let lo = committed.load(Ordering::SeqCst);
                            let r = reader.execute("SELECT COUNT(*) FROM t").expect("count");
                            let hi = pending.load(Ordering::SeqCst);
                            let count: usize = r.rows_as_strings()[0][0].parse().unwrap();
                            assert!(
                                (lo..=hi).contains(&count),
                                "reader {i}: COUNT(*) = {count} outside [{lo}, {hi}]"
                            );
                        }
                        Op::RangeRead { lo, hi } => {
                            // Mirrored-column consistency: a torn read
                            // (columns from different states) would break
                            // the per-row equality.
                            let r = reader
                                .execute(&format!(
                                    "SELECT v, w FROM t WHERE v BETWEEN '{lo}' AND '{hi}'"
                                ))
                                .expect("range read");
                            for row in r.rows_as_strings() {
                                assert_eq!(row[0], row[1], "reader {i}: torn row {row:?}");
                            }
                        }
                        _ => unreachable!("generate_reads yields only reads"),
                    }
                    // Monotone merge/epoch counters.
                    let stats = server.compaction_stats("t").expect("stats");
                    assert!(
                        stats.epoch >= last_epoch,
                        "reader {i}: epoch went backwards ({} -> {})",
                        last_epoch,
                        stats.epoch
                    );
                    assert!(
                        stats.merges_completed >= last_merges,
                        "reader {i}: merge counter went backwards"
                    );
                    last_epoch = stats.epoch;
                    last_merges = stats.merges_completed;
                }
            });
        }
    });

    db.server().wait_for_compaction("t").unwrap();
    let stats = db.server().compaction_stats("t").unwrap();
    assert!(
        stats.merges_completed >= 1,
        "the policy must have fired at least once: {stats:?}"
    );
    assert_eq!(stats.merges_failed, 0, "{stats:?}");
    assert_eq!(stats.last_error, None);

    // Final consistency: every insert landed exactly once.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        r.rows_as_strings()[0][0],
        (initial + inserts).to_string(),
        "final row count"
    );
    let r = db.execute("SELECT v, w FROM t").unwrap();
    for row in r.rows_as_strings() {
        assert_eq!(row[0], row[1], "torn row in final state");
    }
}

#[test]
fn merge_on_one_shard_never_blocks_other_shards() {
    // Two shards split at '0050'; values are 0000..0099, so the preload
    // populates both.
    let mut db = mirrored_session_with(7500, 400, &["0050"]);
    db.server()
        .set_merge_throttle(Some(Duration::from_millis(400)));

    // Dirty shard 0 only and pin its rebuild in flight.
    db.execute("INSERT INTO t VALUES ('0001', '0001')").unwrap();
    assert!(db.server().spawn_partition_compaction("t", 0).unwrap());
    assert!(db.server().merge_in_flight("t").unwrap());
    assert!(
        !db.server().spawn_partition_compaction("t", 1).unwrap(),
        "shard 1 has nothing to compact"
    );

    // A reader scoped to shard 1 completes while shard 0 is rebuilding —
    // and the scope is visible in the pruning stats.
    let mut reader = db.reader(7501);
    let r = reader
        .execute("SELECT v, w FROM t WHERE v BETWEEN '0060' AND '0060'")
        .unwrap();
    assert_eq!(r.row_count(), 4, "values repeat every 100 rows");
    for row in r.rows_as_strings() {
        assert_eq!(row[0], row[1], "torn row {row:?}");
    }
    let stats = reader.server().last_stats();
    assert_eq!(stats.partitions_total, 2);
    assert_eq!(stats.partitions_scanned, 1);
    assert_eq!(stats.partitions_pruned, 1);
    assert!(
        db.server().merge_in_flight("t").unwrap(),
        "shard 0's merge must still be in flight after a shard-1 read \
         (readers of other shards never block on a merge)"
    );

    // A *write* to shard 1 also proceeds and is immediately visible.
    reader
        .execute("INSERT INTO t VALUES ('0070', '0070')")
        .unwrap();
    let r = reader
        .execute("SELECT COUNT(*) FROM t WHERE v = '0070'")
        .unwrap();
    assert_eq!(r.rows_as_strings(), vec![vec!["5".to_string()]]);
    // And a grouped aggregate spanning both shards completes on shard 0's
    // *old* epoch while the merge is still running.
    let r = reader
        .execute("SELECT v, COUNT(*) FROM t WHERE v BETWEEN '0045' AND '0055' GROUP BY v")
        .unwrap();
    assert_eq!(r.row_count(), 11);
    assert!(
        db.server().merge_in_flight("t").unwrap(),
        "shard 0's merge outlives cross-shard aggregates"
    );

    db.server().wait_for_compaction("t").unwrap();
    let stats = db.server().compaction_stats("t").unwrap();
    assert_eq!(stats.partition_epochs, vec![1, 0], "only shard 0 published");
    assert_eq!(stats.merges_completed, 1);
    assert_eq!(stats.last_error, None);
    // Everything, merged and unmerged, is still intact.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows_as_strings(), vec![vec!["402".to_string()]]);
}

#[test]
fn hot_shard_writes_compact_only_the_hot_partition() {
    // Shard 1 ('0050'..) takes ~90% of inserts; shard 0 stays cold and
    // must never cross the merge threshold.
    let mut db = mirrored_session_with(7600, 200, &["0050"]);
    db.server().set_compaction_policy(Some(CompactionPolicy {
        max_delta_rows: 64,
        max_invalid_fraction: 1.0,
    }));
    let gen = ScheduleGen::new(ScheduleSpec::default()).with_hot_shard(HotShardSpec {
        hot_lo: 50,
        hot_hi: 99,
        hot_insert_pct: 90,
    });
    let mut rng = StdRng::seed_from_u64(7601);
    let mut inserted = 0usize;
    let mut writer = db.reader(7602);
    while inserted < 320 {
        if let Op::Insert { value } = gen.draw(&mut rng) {
            writer
                .execute(&format!("INSERT INTO t VALUES ('{value}', '{value}')"))
                .expect("insert");
            inserted += 1;
        }
    }
    db.server().wait_for_compaction("t").unwrap();
    let stats = db.server().compaction_stats("t").unwrap();
    assert!(
        stats.partition_epochs[1] >= 1,
        "the hot shard must have compacted: {stats:?}"
    );
    assert_eq!(
        stats.partition_epochs[0], 0,
        "the cold shard's ~10% of inserts stay under the threshold: {stats:?}"
    );
    assert_eq!(stats.merges_failed, 0);
    // No row lost across the uneven delta growth.
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(
        r.rows_as_strings(),
        vec![vec![(200 + inserted).to_string()]]
    );
}

#[test]
fn delete_racing_a_merge_aborts_the_publish() {
    let mut db = mirrored_session(7400, 200);
    db.execute("INSERT INTO t VALUES ('9999', '9999')").unwrap();
    db.server()
        .set_merge_throttle(Some(Duration::from_millis(300)));

    assert!(db.server().spawn_compaction("t").unwrap());
    assert!(db.server().merge_in_flight("t").unwrap());

    // Delete a main-store row while the rebuild is reading the old state:
    // publishing the rebuild would resurrect it.
    let deleted: usize = db
        .execute("DELETE FROM t WHERE v = '0007'")
        .unwrap()
        .rows_as_strings()[0][0]
        .parse()
        .unwrap();
    assert!(deleted >= 1, "victim rows existed in the main store");

    db.server().wait_for_compaction("t").unwrap();
    let stats = db.server().compaction_stats("t").unwrap();
    // The first publish was aborted (the delete won), and the background
    // worker retried against the fresh state and published that instead —
    // the deleted row is never resurrected.
    assert_eq!(stats.merges_aborted, 1, "{stats:?}");
    assert_eq!(
        stats.merges_completed, 1,
        "aborted merge retried: {stats:?}"
    );
    assert_eq!(stats.epoch, 1, "only the retry published");

    // The delete survived the whole dance.
    let expected = 200 + 1 - deleted;
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows_as_strings()[0][0], expected.to_string());
    let r = db.execute("SELECT v FROM t WHERE v = '0007'").unwrap();
    assert_eq!(r.row_count(), 0, "deleted rows stay deleted across merges");
    // Everything is folded; another merge is a no-op.
    db.server().set_merge_throttle(None);
    db.merge("t").unwrap();
    assert_eq!(db.server().epoch("t").unwrap(), 1);
    let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.rows_as_strings()[0][0], expected.to_string());
}

#[test]
fn compaction_publish_invalidates_the_value_cache() {
    use encdbdb::EcallKind;

    let mut db = mirrored_session(7950, 200);
    let q = "SELECT v, w FROM t WHERE v BETWEEN '0010' AND '0019'";

    // Warm the enclave value cache at epoch 0: the repeat query answers
    // bit-identically and entirely from cached plaintexts.
    let cold = db.execute(q).unwrap().rows_as_strings();
    let before = db.leakage_ledger();
    let warm = db.execute(q).unwrap().rows_as_strings();
    let warm_search = db.leakage_ledger().since(&before).kind(EcallKind::Search);
    assert_eq!(warm, cold, "warm repeat must be bit-identical");
    assert_eq!(warm_search.values_decrypted, 0, "fully cache-served repeat");
    assert!(warm_search.cache_hits > 0);

    // A write lands in the delta and a merge publishes a new epoch: the
    // rebuilt main store re-encrypts every entry, so cache entries keyed
    // to the old generation must never answer post-publish reads.
    db.execute("INSERT INTO t VALUES ('0015', '0015')").unwrap();
    db.merge("t").unwrap();
    let before = db.leakage_ledger();
    let after = db.execute(q).unwrap().rows_as_strings();
    let post_search = db.leakage_ledger().since(&before).kind(EcallKind::Search);
    assert_eq!(
        after.len(),
        cold.len() + 1,
        "the folded insert is visible after the publish"
    );
    for row in &after {
        assert_eq!(row[0], row[1], "stale cached plaintext produced a torn row");
    }
    assert!(
        post_search.values_decrypted > 0,
        "the new-epoch store is re-decrypted — old-generation cache \
         entries are dead after a compaction publish"
    );
    assert_eq!(db.server().last_stats().snapshot_epoch, 1);
}

#[test]
fn metrics_counters_are_monotone_under_concurrent_load() {
    let threads = env_usize("ENCDBDB_STRESS_THREADS", 4);
    let initial = env_usize("ENCDBDB_STRESS_ROWS", 2000).min(400);
    let inserts = 240usize;
    let reads_per_thread = 40usize;

    let db = mirrored_session(7800, initial);
    db.server().set_compaction_policy(Some(CompactionPolicy {
        max_delta_rows: 48,
        max_invalid_fraction: 1.0,
    }));
    // A small throttle keeps rebuilds in flight while the readers sample
    // the registry, so compaction counters move under observation too.
    db.server()
        .set_merge_throttle(Some(Duration::from_millis(50)));

    let mut writer = db.reader(7801);
    let mut readers: Vec<_> = (0..threads).map(|i| db.reader(7900 + i as u64)).collect();
    let server = db.server().clone();

    std::thread::scope(|scope| {
        let server = &server;

        scope.spawn(move || {
            for i in 0..inserts {
                let v = value(i);
                writer
                    .execute(&format!("INSERT INTO t VALUES ('{v}', '{v}')"))
                    .expect("insert");
            }
        });

        for (i, mut reader) in readers.drain(..).enumerate() {
            scope.spawn(move || {
                let mut last = server.obs().metrics_report();
                for r in 0..reads_per_thread {
                    let lo = (r * 7 + i) % 90;
                    reader
                        .execute(&format!(
                            "SELECT v, w FROM t WHERE v BETWEEN '{:04}' AND '{:04}'",
                            lo,
                            lo + 9
                        ))
                        .expect("read");
                    // Every counter and histogram is monotone across two
                    // snapshots taken by the same thread: a torn 64-bit
                    // read or a lost update would show up as a decrease.
                    let now = server.obs().metrics_report();
                    for (a, b) in last.counters.iter().zip(now.counters.iter()) {
                        assert_eq!(a.0, b.0, "report layout is stable");
                        assert!(
                            b.1 >= a.1,
                            "reader {i}: counter {} went backwards ({} -> {})",
                            a.0,
                            a.1,
                            b.1
                        );
                    }
                    for (a, b) in last.histograms.iter().zip(now.histograms.iter()) {
                        assert!(
                            b.count >= a.count && b.sum_ns >= a.sum_ns,
                            "reader {i}: histogram {} shrank",
                            a.name
                        );
                    }
                    last = now;
                }
            });
        }
    });

    db.server().wait_for_compaction("t").unwrap();
    // Quiescent cross-checks: the per-kind statement counters partition
    // queries_total exactly, and the registry's ECALL counter agrees with
    // the ledger — the same events feed both sinks, so any torn or lost
    // update under the concurrent load above would split them.
    let report = db.server().obs().metrics_report();
    let issued = (inserts + threads * reads_per_thread) as u64;
    assert_eq!(report.counter("queries_total"), issued);
    assert_eq!(report.counter("inserts_total"), inserts as u64);
    assert_eq!(
        report.counter("selects_total"),
        (threads * reads_per_thread) as u64
    );
    assert_eq!(
        report.counter("queries_total"),
        report.counter("selects_total")
            + report.counter("aggregates_total")
            + report.counter("joins_total")
            + report.counter("inserts_total")
            + report.counter("deletes_total"),
        "statement-kind counters partition queries_total"
    );
    let ledger = db.server().obs().ledger_report();
    assert_eq!(report.counter("ecalls_total"), ledger.total_calls());
    let hist = report.histogram("query_ns").expect("query_ns");
    assert_eq!(hist.count, issued, "one query_ns sample per statement");
    assert!(
        report.counter("compactions_completed_total") >= 1,
        "the policy fired under the insert load"
    );
    assert_eq!(report.counter("compaction_errors_total"), 0);
}

#[test]
fn partition_parallel_join_spans_nest_correctly() {
    fn kids<'a>(events: &'a [TraceEvent], id: u64, name: &str) -> Vec<&'a TraceEvent> {
        events
            .iter()
            .filter(|e| e.parent == id && e.name == name)
            .collect()
    }

    let mut db = Session::with_seed(7700).unwrap();
    // Pin the native span topology: under the §15 scheduler, fan-out
    // partitions of one query may coalesce their searches into a shared
    // round whose single `ecall.batch` span is a root (one transition
    // cannot nest under several partition spans at once), so whether a
    // given partition parents an `ecall.search` span becomes
    // timing-dependent. The batched shape is covered by
    // `tests/batching_differential.rs`; this test asserts the bypass one.
    db.server().set_ecall_batching(false);
    db.execute("CREATE TABLE users (k ED2(8), x ED2(8))")
        .unwrap();
    db.execute(
        "CREATE TABLE orders (k ED2(8), y ED2(8)) \
         PARTITION BY RANGE (k) SPLIT ('0010', '0020', '0030')",
    )
    .unwrap();
    let rows = |n: usize, side: &str| -> String {
        (0..n)
            .map(|i| format!("('{:04}', '{side}{i:03}')", (i * 13) % 40))
            .collect::<Vec<_>>()
            .join(", ")
    };
    db.execute(&format!("INSERT INTO users VALUES {}", rows(40, "u")))
        .unwrap();
    db.execute(&format!("INSERT INTO orders VALUES {}", rows(80, "o")))
        .unwrap();
    db.merge("users").unwrap();
    db.merge("orders").unwrap();

    // Range filters on both sides cover every shard: nothing is pruned,
    // and each active partition's scan issues a dictionary search.
    let r = db
        .execute(
            "SELECT users.x, orders.y FROM users JOIN orders ON users.k = orders.k \
             WHERE users.k BETWEEN '0000' AND '0039' \
             AND orders.k BETWEEN '0000' AND '0039'",
        )
        .unwrap();
    assert!(r.row_count() > 0, "the join matched");

    let events = db.server().obs().trace_events();
    // The join's root is the newest top-level "query" span (earlier roots
    // belong to the CREATE/INSERT statements above).
    let root = events
        .iter()
        .filter(|e| e.name == "query" && e.parent == 0)
        .max_by_key(|e| e.start_ns)
        .expect("query root span");
    for name in ["parse", "plan", "snapshot", "bridge", "render"] {
        assert_eq!(
            kids(&events, root.id, name).len(),
            1,
            "exactly one {name} span under the join root"
        );
    }

    // One scan span per join side; each records its active partition
    // count in `arg` and parents exactly that many partition spans — 1
    // for the unpartitioned users side, 4 for the sharded orders side —
    // even though the partition spans close on fan-out worker threads.
    let scans = kids(&events, root.id, "scan");
    assert_eq!(scans.len(), 2, "one scan span per join side");
    let mut part_counts = Vec::new();
    for scan in &scans {
        let parts = kids(&events, scan.id, "partition");
        assert_eq!(
            parts.len() as u64,
            scan.arg,
            "scan arg records its active partition count"
        );
        for p in &parts {
            let ecalls: Vec<&TraceEvent> = events
                .iter()
                .filter(|e| e.parent == p.id && e.cat == "ecall")
                .collect();
            assert!(!ecalls.is_empty(), "partition issued no search ECALL");
            for e in &ecalls {
                assert_eq!(e.name, "ecall.search", "only searches under a scan");
            }
            // Nesting is temporal containment: the partition interval
            // lies inside its scan (the workers are joined before the scan ends).
            assert!(p.start_ns >= scan.start_ns, "partition starts in scan");
            assert!(
                p.start_ns + p.dur_ns <= scan.start_ns + scan.dur_ns,
                "partition span escapes its scan"
            );
        }
        part_counts.push(parts.len());
    }
    part_counts.sort_unstable();
    assert_eq!(part_counts, vec![1, 4]);

    // Exactly one JoinBridge transition, nested under the bridge span
    // (DESIGN.md §11: one bridge ECALL per two-table equi-join).
    let bridge = kids(&events, root.id, "bridge")[0];
    let bridged: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| e.name == "ecall.join_bridge")
        .collect();
    assert_eq!(bridged.len(), 1);
    assert_eq!(bridged[0].parent, bridge.id);

    // No dangling parent links anywhere in the retained trace.
    for e in &events {
        assert!(
            e.parent == 0 || events.iter().any(|p| p.id == e.parent),
            "dangling parent link in {e:?}"
        );
    }

    // The four orders partitions ran in parallel, yet the layers split
    // the join's wall clock: they sum to the root's duration, and the
    // query's stats are those layers.
    let layers = LayerTimes::of_tree(&events, root.id).expect("the join's tree");
    assert_eq!(layers.total(), root.dur_ns);
    let stats = db.server().last_stats();
    assert_eq!(layers.get(Layer::Bridge), stats.bridge_ns);
    assert_eq!(layers.get(Layer::DictSearch), stats.dict_search_ns);
    assert!(stats.bridge_ns > 0 && stats.dict_search_ns > 0);
    let timed = stats.ecall_wait_ns
        + stats.dict_search_ns
        + stats.av_search_ns
        + stats.bridge_ns
        + stats.render_ns;
    assert!(
        timed <= root.dur_ns,
        "{timed} ns timed in a {} ns join",
        root.dur_ns
    );
}

#[test]
fn sixty_four_readers_coalesce_without_cross_wiring() {
    // DESIGN.md §15: 64 reader sessions hammer the scheduler through a
    // throttled merge. Every reader checks the *content* of its own
    // replies (a cross-wired batch demux would hand it another session's
    // rows), the queue wait stays bounded, and the transition ledger
    // still agrees with the registry afterwards.
    let readers_n = env_usize("ENCDBDB_STRESS_READERS", 64);
    let reads_per_thread = 6usize;
    let db = mirrored_session(8600, 600);
    db.server()
        .set_merge_throttle(Some(Duration::from_millis(300)));
    // Dirty the delta and pin a rebuild in flight so the whole reader
    // fleet runs concurrently with a merge.
    let mut writer = db.reader(8601);
    writer
        .execute("INSERT INTO t VALUES ('9999', '9999')")
        .unwrap();
    assert!(db.server().spawn_compaction("t").unwrap());
    assert!(db.server().merge_in_flight("t").unwrap());

    let mut fleet: Vec<_> = (0..readers_n).map(|i| db.reader(8700 + i as u64)).collect();
    // Pin the query enclave briefly while the fleet starts, so at least
    // one round provably coalesces even on a single-core runner.
    let guard = db.server().enclave();
    std::thread::scope(|scope| {
        for (i, mut reader) in fleet.drain(..).enumerate() {
            scope.spawn(move || {
                for k in 0..reads_per_thread {
                    // Each reader owns a distinct 4-value band per round:
                    // the preload holds every value 0..100 six times, so
                    // the expected multiset is exact and reader-specific.
                    let lo = (i * 7 + k * 13) % 90;
                    let hi = lo + 3;
                    let r = reader
                        .execute(&format!(
                            "SELECT v, w FROM t WHERE v BETWEEN '{:04}' AND '{:04}'",
                            lo, hi
                        ))
                        .expect("fleet read");
                    let rows = r.rows_as_strings();
                    assert_eq!(
                        rows.len(),
                        4 * 6,
                        "reader {i} round {k}: wrong cardinality for [{lo}, {hi}]"
                    );
                    for row in rows {
                        assert_eq!(row[0], row[1], "reader {i}: torn/cross-wired row");
                        let v: usize = row[0].parse().unwrap();
                        assert!(
                            (lo..=hi).contains(&v),
                            "reader {i} round {k}: foreign row {v} in [{lo}, {hi}] — \
                             reply cross-wired across the batch demux"
                        );
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_millis(50));
        drop(guard);
    });

    db.server().wait_for_compaction("t").unwrap();
    let report = db.server().obs().metrics_report();
    assert!(
        report.counter("ecall_batches_total") >= 1,
        "64 pinned readers produced no shared round"
    );
    assert!(
        report.counter("batched_calls_total") >= 2,
        "batched-call counter did not move"
    );
    // The scheduler only ever *reduces* transitions: never more than one
    // per logical search issued.
    let ledger = db.server().obs().ledger_report();
    assert_eq!(
        report.counter("ecalls_total"),
        ledger.total_calls(),
        "registry and ledger disagree after concurrent batching"
    );
    // Bounded queue wait: every submit-to-dispatch wait was recorded,
    // and even the unluckiest request (pinned behind the held lock plus
    // a fleet of rounds) stayed within a generous ceiling.
    let wait = report.histogram("ecall_wait_ns").expect("ecall_wait_ns");
    assert!(wait.count > 0, "no queue waits recorded");
    assert!(
        wait.max_ns < 5_000_000_000,
        "a request waited {}ms — queue wait is unbounded",
        wait.max_ns / 1_000_000
    );
    assert_eq!(report.counter("compaction_errors_total"), 0);
}
