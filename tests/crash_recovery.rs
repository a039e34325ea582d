//! Fault-injection recovery suite for the durable storage layer
//! (DESIGN.md §12): a kill-point matrix over every vulnerable spot in the
//! commit protocol, plus targeted on-disk corruption — each followed by a
//! full recovery and a differential check against a shadow model, for all
//! nine encrypted dictionary kinds plus PLAIN, on one- and four-shard
//! tables.
//!
//! The invariants, everywhere:
//!
//! * **No committed row is lost.** Every operation that returned `Ok`
//!   before the crash is visible after recovery.
//! * **No aborted row resurrects.** An operation that returned `Err` at a
//!   *torn* crash point left nothing behind. (An op killed *between* WAL
//!   write and fsync is genuinely indeterminate on real hardware; in this
//!   in-process simulation the record survives, so recovery must replay
//!   it — asserted as such.)
//! * Recovery never panics on damaged files: it falls back to older
//!   epochs, truncates torn tails, reports everything in
//!   [`DurabilityStats`](encdbdb::DurabilityStats), and only errors when
//!   a partition has no valid snapshot left at all.

use encdbdb::{DbError, DurabilityPolicy, FailPoint, Session};
use encdbdb_crypto::keys::Key128;
use std::path::{Path, PathBuf};
use workload::KINDS;

/// Split points matching the 0..60 numeric-string domain used below.
const SPLITS: &str = "'0015', '0030', '0045'";

/// A unique, pre-cleaned storage directory for one test case.
fn storage_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encdbdb-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

fn create_sql(choice: &str, shards: usize) -> String {
    let partition_clause = if shards > 1 {
        format!(" PARTITION BY RANGE (v) SPLIT ({SPLITS})")
    } else {
        String::new()
    };
    format!("CREATE TABLE t (v {choice}(8)){partition_clause}")
}

/// Values spread across all four shards of the `SPLITS` domain.
const COMMITTED: [&str; 8] = [
    "0003", "0010", "0017", "0024", "0031", "0038", "0045", "0052",
];

/// The full differential check: the table's sorted contents must equal
/// the shadow model's, through the same SQL path a client would use.
fn assert_contents(db: &mut Session, model: &[&str], context: &str) {
    let r = db.execute("SELECT v FROM t").expect("full select");
    let mut got: Vec<String> = r
        .rows_as_strings()
        .into_iter()
        .map(|mut row| row.remove(0))
        .collect();
    got.sort();
    let mut expected: Vec<String> = model.iter().map(|v| v.to_string()).collect();
    expected.sort();
    assert_eq!(got, expected, "{context}: table contents");
    assert_eq!(
        db.server().row_count("t").expect("row count"),
        model.len(),
        "{context}: row count"
    );
    // A range straddling every split point, so partitioned runs exercise
    // the pruned multi-shard path too.
    let r = db
        .execute("SELECT COUNT(*) FROM t WHERE v BETWEEN '0010' AND '0046'")
        .expect("range count");
    let expected_in_range = model
        .iter()
        .filter(|v| ("0010"..="0046").contains(&&***v))
        .count();
    assert_eq!(
        r.rows_as_strings(),
        vec![vec![expected_in_range.to_string()]],
        "{context}: straddling range count"
    );
}

/// Builds a durable deployment with the committed fixture rows: some
/// merged into main (epoch ≥ 1 on every populated shard), some deleted,
/// some still in the delta stores — so recovery exercises snapshots, merge
/// replay and plain WAL replay at once. Background compaction is off: a
/// crash test must not have a detached merge worker writing to the
/// directory after the simulated process death.
fn build_fixture(choice: &str, shards: usize, dir: &Path) -> (Session, Vec<&'static str>) {
    let mut db = Session::with_seed_durable(7, dir).expect("durable session");
    db.set_compaction_policy(None);
    db.execute(&create_sql(choice, shards)).expect("create");
    let mut model = Vec::new();
    for v in &COMMITTED[..5] {
        db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
            .expect("insert");
        model.push(*v);
    }
    db.merge("t").expect("merge");
    for v in &COMMITTED[5..] {
        db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
            .expect("insert");
        model.push(*v);
    }
    // A committed delete: '0024' must never resurrect.
    db.execute("DELETE FROM t WHERE v = '0024'")
        .expect("delete");
    model.retain(|v| *v != "0024");
    (db, model)
}

fn reopen(dir: &Path, key: Key128) -> Session {
    let mut db = Session::open(dir, key, 99).expect("recovery");
    db.set_compaction_policy(None);
    db
}

/// After recovery the deployment must be fully writable again: inserts,
/// deletes and merges all work and stay consistent with the model.
fn assert_writable(db: &mut Session, model: &mut Vec<&'static str>, context: &str) {
    db.execute("INSERT INTO t VALUES ('0059')")
        .unwrap_or_else(|e| panic!("{context}: post-recovery insert: {e}"));
    model.push("0059");
    db.execute("DELETE FROM t WHERE v = '0010'")
        .unwrap_or_else(|e| panic!("{context}: post-recovery delete: {e}"));
    model.retain(|v| *v != "0010");
    db.merge("t")
        .unwrap_or_else(|e| panic!("{context}: post-recovery merge: {e}"));
    assert_contents(db, model, context);
}

/// The kill-point matrix: every injected crash point × every dictionary
/// kind × {1, 4} shards. The crashed operation itself errors; everything
/// committed before it survives recovery, and the crashed op's outcome
/// matches the injected point's semantics (torn → absent, unsynced but
/// written → present).
#[test]
fn crash_matrix_preserves_committed_rows() {
    let points = [
        FailPoint::WalTornAppend,
        FailPoint::WalAppendNoFsync,
        FailPoint::SnapshotTornWrite,
        FailPoint::SnapshotNoRename,
        FailPoint::CheckpointNoTruncate,
    ];
    for &shards in &[1usize, 4] {
        for choice in KINDS {
            for (i, &point) in points.iter().enumerate() {
                let dir = storage_dir(&format!("matrix-{choice}-{shards}-{i}"));
                run_crash_case(choice, shards, point, &dir);
                cleanup(&dir);
            }
        }
    }
}

fn run_crash_case(choice: &str, shards: usize, point: FailPoint, dir: &Path) {
    let context = format!("{choice}/{shards} shards/{point:?}");
    let (mut db, mut model) = build_fixture(choice, shards, dir);
    let key = db.master_key();
    db.server().arm_fail_point(point).expect("arm");

    match point {
        FailPoint::WalTornAppend | FailPoint::WalAppendNoFsync => {
            // The crashed op is an insert of '0007'.
            let err = db
                .execute("INSERT INTO t VALUES ('0007')")
                .expect_err("insert must hit the injected crash");
            assert!(matches!(err, DbError::Durability(_)), "{context}: {err}");
            if point == FailPoint::WalAppendNoFsync {
                // The record was fully written before the simulated crash;
                // recovery replays it even though the caller saw an error.
                model.push("0007");
            }
        }
        FailPoint::SnapshotTornWrite | FailPoint::SnapshotNoRename => {
            // The crash hits the sealed snapshot persist *after* the first
            // shard's epoch publish — that publish commits (its WAL record
            // is down; the missing file is re-derived at recovery by
            // replaying the record over the previous epoch), and since the
            // poisoned storage then refuses to log further publishes, a
            // multi-shard merge errors partway through. Logical contents
            // are unchanged either way.
            match db.merge("t") {
                Ok(()) => {}
                Err(DbError::MergeConflict(_) | DbError::Durability(_)) => {}
                Err(e) => panic!("{context}: unexpected merge error: {e}"),
            }
            let stats = db.server().durability_stats().expect("stats");
            assert!(
                stats.snapshot_persist_failures >= 1,
                "{context}: persist failure must be counted"
            );
            assert!(
                stats.injected_crashes >= 1,
                "{context}: injected crash must be counted"
            );
        }
        FailPoint::CheckpointNoTruncate => {
            let err = db
                .server()
                .checkpoint("t")
                .expect_err("checkpoint must hit the injected crash");
            assert!(matches!(err, DbError::Durability(_)), "{context}: {err}");
        }
    }

    // The simulated process is dead: every further durable write fails
    // until recovery builds a fresh storage.
    let err = db
        .execute("INSERT INTO t VALUES ('0001')")
        .expect_err("storage is poisoned after the crash");
    assert!(matches!(err, DbError::Durability(_)), "{context}: {err}");

    drop(db);
    let mut db = reopen(dir, key);
    assert_contents(&mut db, &model, &context);
    assert_writable(&mut db, &mut model, &context);
}

/// One multi-row insert spanning two shards is one WAL record: a torn
/// append loses *both* halves, an unsynced-but-written one keeps both —
/// never a partial row set.
#[test]
fn multi_partition_insert_is_atomic_across_the_crash() {
    for (tag, point, survives) in [
        ("torn", FailPoint::WalTornAppend, false),
        ("nosync", FailPoint::WalAppendNoFsync, true),
    ] {
        let dir = storage_dir(&format!("atomic-{tag}"));
        let (mut db, mut model) = build_fixture("ED5", 4, &dir);
        let key = db.master_key();
        db.server().arm_fail_point(point).expect("arm");
        // '0005' routes to shard 0, '0050' to shard 3 — one record.
        db.execute("INSERT INTO t VALUES ('0005'), ('0050')")
            .expect_err("insert must hit the injected crash");
        if survives {
            model.push("0005");
            model.push("0050");
        }
        drop(db);
        let mut db = reopen(&dir, key);
        assert_contents(&mut db, &model, &format!("atomic/{tag}"));
        let present = |db: &mut Session, v: &str| {
            db.execute(&format!("SELECT v FROM t WHERE v = '{v}'"))
                .expect("point select")
                .row_count()
        };
        assert_eq!(
            present(&mut db, "0005"),
            present(&mut db, "0050"),
            "atomic/{tag}: both rows or neither"
        );
        cleanup(&dir);
    }
}

/// A graceful close-and-reopen (no crash at all) restores every kind and
/// both shard layouts exactly, with zero re-deployment by the owner.
#[test]
fn graceful_restart_restores_all_kinds() {
    for &shards in &[1usize, 4] {
        for choice in KINDS {
            let dir = storage_dir(&format!("graceful-{choice}-{shards}"));
            let (db, mut model) = build_fixture(choice, shards, &dir);
            let key = db.master_key();
            drop(db);
            let mut db = reopen(&dir, key.clone());
            let context = format!("graceful/{choice}/{shards}");
            assert_contents(&mut db, &model, &context);
            // Double recovery: close and reopen again, unchanged.
            drop(db);
            let mut db = reopen(&dir, key);
            assert_contents(&mut db, &model, &context);
            assert_writable(&mut db, &mut model, &context);
            cleanup(&dir);
        }
    }
}

/// A bit-flipped newest snapshot is rejected (checksum/unseal failure),
/// recovery falls back to the previous epoch and re-derives the lost one
/// from the WAL's merge record — reported in the stats, not panicked on.
#[test]
fn corrupt_snapshot_falls_back_to_previous_epoch() {
    let dir = storage_dir("flip-snap");
    let (db, model) = build_fixture("ED9", 1, &dir);
    let key = db.master_key();
    drop(db);
    let newest = dir.join("t").join("p0-e1.snap");
    flip_byte(&newest);
    let mut db = reopen(&dir, key);
    let stats = db.server().durability_stats().expect("stats");
    assert!(stats.snapshots_rejected >= 1, "rejected: {stats:?}");
    assert!(stats.snapshot_fallbacks >= 1, "fallbacks: {stats:?}");
    assert!(stats.merges_replayed >= 1, "merge replay: {stats:?}");
    assert_contents(&mut db, &model, "flip-snap");
    cleanup(&dir);
}

/// A WAL truncated mid-record (a torn tail) loses exactly the tail
/// record; every earlier record replays, and the truncation is counted.
#[test]
fn truncated_wal_tail_is_detected_and_cut() {
    let dir = storage_dir("torn-wal");
    let (db, mut model) = build_fixture("ED3", 1, &dir);
    // The tail record is the committed delete of '0024'; tearing it
    // resurrects that row *by design* — fsync batching was not in play
    // here, so this models on-disk truncation after the fact (e.g. fsck),
    // which recovery must survive, not prevent.
    let key = db.master_key();
    drop(db);
    let wal = dir.join("t").join("wal.log");
    let bytes = std::fs::read(&wal).expect("read wal");
    std::fs::write(&wal, &bytes[..bytes.len() - 3]).expect("truncate wal");
    model.push("0024"); // The torn tail was its delete record.
    let mut db = reopen(&dir, key);
    let stats = db.server().durability_stats().expect("stats");
    assert!(stats.wal_torn_tails >= 1, "torn tails: {stats:?}");
    assert!(stats.wal_torn_tail_bytes > 0, "torn bytes: {stats:?}");
    assert_contents(&mut db, &model, "torn-wal");
    cleanup(&dir);
}

/// Snapshot files swapped between two partitions fail the embedded
/// identity check (same sealing key — unsealing alone would succeed!),
/// and both shards fall back to their previous epochs + a longer replay.
#[test]
fn swapped_partition_snapshots_are_rejected() {
    let dir = storage_dir("swap");
    let (db, model) = build_fixture("ED5", 4, &dir);
    let key = db.master_key();
    drop(db);
    let a = dir.join("t").join("p0-e1.snap");
    let b = dir.join("t").join("p1-e1.snap");
    let tmp = dir.join("t").join("swap.tmp");
    std::fs::rename(&a, &tmp).expect("swap");
    std::fs::rename(&b, &a).expect("swap");
    std::fs::rename(&tmp, &b).expect("swap");
    let mut db = reopen(&dir, key);
    let stats = db.server().durability_stats().expect("stats");
    assert!(stats.snapshots_rejected >= 2, "rejected: {stats:?}");
    assert!(stats.snapshot_fallbacks >= 2, "fallbacks: {stats:?}");
    assert_contents(&mut db, &model, "swap");
    cleanup(&dir);
}

/// When *every* snapshot of a partition is damaged, recovery reports a
/// typed error instead of panicking or fabricating data.
#[test]
fn unrecoverable_partition_errors_cleanly() {
    let dir = storage_dir("all-corrupt");
    let (db, _model) = build_fixture("ED1", 1, &dir);
    let key = db.master_key();
    drop(db);
    for entry in std::fs::read_dir(dir.join("t")).expect("read table dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "snap") {
            flip_byte(&path);
        }
    }
    let err = Session::open(&dir, key, 99).expect_err("no valid snapshot left");
    assert!(matches!(err, DbError::Durability(_)), "got: {err}");
    cleanup(&dir);
}

/// A checkpoint folds everything into verified snapshots, truncates the
/// WAL, and the deployment still reopens exactly — the WAL floor marker
/// protects against a snapshot regressing behind the truncated log.
#[test]
fn checkpoint_truncates_wal_and_still_recovers() {
    let dir = storage_dir("checkpoint");
    let (mut db, mut model) = build_fixture("ED7", 4, &dir);
    let key = db.master_key();
    assert!(db.server().checkpoint("t").expect("checkpoint"));
    let stats = db.server().durability_stats().expect("stats");
    assert!(stats.wal_truncations >= 1, "truncations: {stats:?}");
    // Post-checkpoint writes land in the fresh WAL.
    db.execute("INSERT INTO t VALUES ('0055')").expect("insert");
    model.push("0055");
    drop(db);
    let mut db = reopen(&dir, key);
    assert_contents(&mut db, &model, "checkpoint");
    assert_writable(&mut db, &mut model, "checkpoint");
    cleanup(&dir);
}

/// Fsync batching: with a batch of N, appends only sync every Nth record
/// (plus checkpoints); committed data still survives a clean reopen.
#[test]
fn fsync_batching_syncs_less_and_still_recovers() {
    let dir = storage_dir("batch");
    let mut db = Session::with_seed(11).expect("session");
    db.set_compaction_policy(None);
    db.server()
        .attach_durability(
            &dir,
            DurabilityPolicy {
                wal_fsync_batch: 4,
                snapshot_history: 2,
            },
        )
        .expect("attach");
    db.execute(&create_sql("ED2", 1)).expect("create");
    let mut model = Vec::new();
    for v in &COMMITTED {
        db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
            .expect("insert");
        model.push(*v);
    }
    let stats = db.server().durability_stats().expect("stats");
    assert!(
        stats.wal_fsyncs < stats.wal_records_appended,
        "batching must amortize syncs: {stats:?}"
    );
    let key = db.master_key();
    drop(db);
    let mut db = reopen(&dir, key);
    assert_contents(&mut db, &model, "batch");
    cleanup(&dir);
}

/// Attaching durability to a server that already has live (unmerged)
/// delta rows and deleted main rows must not lose either across a
/// restart: the attach folds the tables to quiescence before sealing the
/// initial snapshots, so post-attach WAL records land at positions
/// recovery can meet, and pre-attach deletions never resurrect.
#[test]
fn attach_to_populated_server_preserves_live_deltas_and_deletes() {
    for &shards in &[1usize, 4] {
        let dir = storage_dir(&format!("late-attach-{shards}"));
        let mut db = Session::with_seed(21).expect("session");
        db.set_compaction_policy(None);
        db.execute(&create_sql("ED5", shards)).expect("create");
        let mut model: Vec<&'static str> = Vec::new();
        for v in &COMMITTED[..5] {
            db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
                .expect("insert");
            model.push(*v);
        }
        db.merge("t").expect("merge");
        // Live delta rows and a deleted main row at attach time.
        for v in &COMMITTED[5..] {
            db.execute(&format!("INSERT INTO t VALUES ('{v}')"))
                .expect("insert");
            model.push(*v);
        }
        db.execute("DELETE FROM t WHERE v = '0003'")
            .expect("delete");
        model.retain(|v| *v != "0003");
        db.server()
            .attach_durability(&dir, DurabilityPolicy::default())
            .expect("attach");
        // Post-attach writes: exactly what a snapshot that silently
        // dropped the live delta would make recovery truncate away.
        db.execute("INSERT INTO t VALUES ('0029')").expect("insert");
        model.push("0029");
        db.execute("DELETE FROM t WHERE v = '0045'")
            .expect("delete");
        model.retain(|v| *v != "0045");
        let key = db.master_key();
        drop(db);
        let mut db = reopen(&dir, key);
        let context = format!("late-attach/{shards}");
        assert_contents(&mut db, &model, &context);
        assert_writable(&mut db, &mut model, &context);
        cleanup(&dir);
    }
}

/// A directory holding a previous incarnation's durable state belongs to
/// `Session::open`/`recover`: attaching a fresh deployment over it is
/// refused (it would append to the old WAL and mix snapshot
/// generations), and the refusal leaves the directory reopenable.
#[test]
fn attach_over_existing_state_is_refused() {
    let dir = storage_dir("reattach");
    let (db, model) = build_fixture("ED2", 1, &dir);
    let key = db.master_key();
    drop(db);
    let fresh = Session::with_seed(31).expect("session");
    let err = fresh
        .server()
        .attach_durability(&dir, DurabilityPolicy::default())
        .expect_err("attach over existing state must be refused");
    assert!(matches!(err, DbError::Durability(_)), "got: {err}");
    let mut db = reopen(&dir, key);
    assert_contents(&mut db, &model, "reattach");
    cleanup(&dir);
}

/// The durable API surface degrades cleanly without attached storage.
#[test]
fn durable_calls_without_storage_are_typed_errors() {
    let db = Session::with_seed(3).expect("session");
    assert!(db.server().durability_stats().is_none());
    assert!(matches!(
        db.server().arm_fail_point(FailPoint::WalTornAppend),
        Err(DbError::Durability(_))
    ));
    assert!(matches!(
        db.server().checkpoint("t"),
        Err(DbError::Durability(_))
    ));
    // Attaching twice is rejected.
    let dir = storage_dir("double-attach");
    db.server()
        .attach_durability(&dir, DurabilityPolicy::default())
        .expect("first attach");
    assert!(matches!(
        db.server()
            .attach_durability(&dir, DurabilityPolicy::default()),
        Err(DbError::Durability(_))
    ));
    cleanup(&dir);
}

fn flip_byte(path: &Path) {
    let mut bytes = std::fs::read(path).expect("read file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, &bytes).expect("write file");
}
