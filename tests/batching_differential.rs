//! Forced-concurrency proofs that the cross-session ECALL batching
//! scheduler (DESIGN.md §15) is invisible in query results. The serial
//! batched-vs-bypass comparison — results and per-byte ledgers over
//! generated interleavings — runs through the differential harness
//! (`tests/harness`).
//!
//! Three angles:
//!
//! * **Forced coalescing.** Readers are pinned behind a held enclave
//!   lock so their searches provably share a transition, then their
//!   replies are checked bit-for-bit against answers precomputed
//!   through the bypass — no cross-wiring, fewer transitions.
//! * **Compaction publish mid-batch.** Requests pinned to an old store
//!   generation are queued while a merge publishes a new epoch; they
//!   must still answer correctly (each owns its snapshot's segments),
//!   and a post-publish query over the new generation agrees.
//! * **Overlapping ranges.** A delta-store search whose ranges overlap
//!   returns some ids twice; its recorded `bytes_out` is the reply's
//!   size, not the size of the unioned row list, whether the call ran
//!   alone or shared a transition.
//!
//! Thread/case counts are bounded for CI via `ENCDBDB_STRESS_THREADS`.

mod harness;

use encdbdb::{EcallKind, Session};
use proptest::prelude::*;
use workload::KINDS;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn value(x: u32) -> String {
    format!("{:04}", x % 60)
}

fn sorted_col(r: encdbdb::QueryResult) -> Vec<String> {
    let mut got: Vec<String> = r
        .rows_as_strings()
        .into_iter()
        .map(|mut row| row.remove(0))
        .collect();
    got.sort();
    got
}

/// Preloads `t(v CHOICE(8))` with 240 merged rows (values 0000–0059,
/// four of each) and returns the session.
fn preloaded(choice: &str, seed: u64) -> Session {
    let mut db = Session::with_seed(seed).expect("session");
    db.execute(&format!("CREATE TABLE t (v {choice}(8))"))
        .expect("create");
    let rows: Vec<String> = (0..240).map(|i| format!("('{}')", value(i))).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .expect("preload");
    db.merge("t").expect("merge");
    db
}

/// Readers pinned behind a held enclave lock provably coalesce, and
/// every reply still lands at the session that asked for it — checked
/// against bypass-precomputed answers for all nine ED kinds plus PLAIN.
#[test]
fn forced_coalescing_is_bit_identical() {
    let threads = env_usize("ENCDBDB_STRESS_THREADS", 6).max(3);
    for choice in KINDS {
        let db = preloaded(choice, 0x9A);
        let queries: Vec<String> = (0..threads)
            .map(|i| {
                let lo = (i * 9) % 50;
                format!(
                    "SELECT v FROM t WHERE v BETWEEN '{:04}' AND '{:04}'",
                    lo,
                    lo + 7
                )
            })
            .collect();

        // Expected answers through the bypass (also warms the value
        // cache identically for every leg).
        db.server().set_ecall_batching(false);
        let mut expected = Vec::new();
        {
            let mut probe = db.reader(1);
            for q in &queries {
                expected.push(sorted_col(probe.execute(q).expect("bypass probe")));
            }
        }
        db.server().set_ecall_batching(true);

        let before = db.leakage_ledger();
        let readers: Vec<_> = (2..2 + threads as u64).map(|s| db.reader(s)).collect();
        // Pin the query enclave: the first submitter claims leadership
        // and blocks on the enclave mutex, everyone else queues behind
        // it — so at least one round provably carries > 1 request.
        let guard = db.server().enclave();
        std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .into_iter()
                .zip(&queries)
                .map(|(mut reader, q)| scope.spawn(move || sorted_col(reader.execute(q).unwrap())))
                .collect();
            // Give every reader time to enqueue behind the held lock.
            std::thread::sleep(std::time::Duration::from_millis(60));
            drop(guard);
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.join().expect("reader thread"),
                    expected[i],
                    "{choice}: reply cross-wired for query {i}"
                );
            }
        });

        if choice == "PLAIN" {
            continue; // plain scans never enter the enclave
        }
        let delta = db.leakage_ledger().since(&before);
        let transitions = delta.total_calls();
        assert!(
            transitions < threads as u64,
            "{choice}: {threads} coalesced queries took {transitions} transitions — \
             batching saved nothing"
        );
        assert!(
            delta.kind(EcallKind::Batch).calls >= 1,
            "{choice}: no shared round was recorded"
        );
        let report = db.server().obs().metrics_report();
        assert_eq!(
            report.counter("ecalls_total"),
            db.server().obs().ledger_report().total_calls(),
            "{choice}: registry and ledger disagree on transitions"
        );
    }
}

/// A compaction publish lands while requests pinned to the old store
/// generation are still queued: they answer correctly from their own
/// snapshots, and a fresh post-publish query agrees.
#[test]
fn compaction_publish_mid_batch_stays_correct() {
    let threads = env_usize("ENCDBDB_STRESS_THREADS", 4).max(2);
    for choice in ["ED2", "ED7", "ED9"] {
        let mut db = preloaded(choice, 0xC0);
        // One delta row so the pre-publish state is main + delta.
        db.execute("INSERT INTO t VALUES ('0007')").expect("insert");
        let epoch0 = db.server().epoch("t").expect("epoch");

        let q = "SELECT v FROM t WHERE v = '0007'";
        db.server().set_ecall_batching(false);
        let expected = sorted_col(db.execute(q).expect("bypass probe"));
        assert_eq!(expected.len(), 5, "4 preloaded + 1 delta row");
        db.server().set_ecall_batching(true);

        let readers: Vec<_> = (10..10 + threads as u64).map(|s| db.reader(s)).collect();
        // The guard is taken through a server clone so the session stays
        // mutably borrowable for the mid-batch merge below.
        let server = db.server().clone();
        let guard = server.enclave();
        std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .into_iter()
                .map(|mut reader| scope.spawn(move || sorted_col(reader.execute(q).unwrap())))
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(60));
            // The merge runs on its own enclave and publishes a new
            // epoch while the readers are still queued against the old
            // generation.
            db.merge("t").expect("merge mid-batch");
            assert!(
                db.server().epoch("t").expect("epoch") > epoch0,
                "{choice}: the publish must land before dispatch"
            );
            drop(guard);
            for (i, h) in handles.into_iter().enumerate() {
                assert_eq!(
                    h.join().expect("reader thread"),
                    expected,
                    "{choice}: queued reader {i} broke across the publish"
                );
            }
        });

        // The new generation answers identically.
        let after = sorted_col(db.execute(q).expect("post-publish query"));
        assert_eq!(after, expected, "{choice}: post-publish contents");
        assert_eq!(
            db.server().last_stats().snapshot_epoch,
            db.server().epoch("t").expect("epoch"),
            "{choice}: the fresh query ran on the published epoch"
        );
    }
}

/// Overlapping encrypted ranges over delta rows, handed to the public
/// `execute_query` (SQL never produces them — the proxy de-duplicates
/// `IN` lists): each range's delta hits come back as their own id list,
/// so `bytes_out` is 4 per id *per range*. A solo call and a call that
/// shared a transition must both record exactly that, and the same
/// `bytes_in`.
#[test]
fn overlapping_delta_ranges_record_the_reply_size_solo_and_coalesced() {
    use encdbdb::server::{QueryOutcome, ServerFilter, ServerQuery};
    use encdict::{EncryptedRange, RangeQuery};
    use rand::{rngs::StdRng, SeedableRng};

    let threads = env_usize("ENCDBDB_STRESS_THREADS", 4).max(3);
    let mut db = Session::with_seed(0x0E).expect("session");
    db.set_compaction_policy(None); // every row stays in the delta store
    db.execute("CREATE TABLE t (v ED5(8))").expect("create");
    let rows: Vec<String> = (0..10).map(|i| format!("('{}')", value(i))).collect();
    db.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .expect("insert");

    // [0002, 0006] and [0004, 0008] overlap on 0004..=0006.
    let sk = encdbdb_crypto::hkdf::derive_column_key(&db.master_key(), "t", "v");
    let pae = encdbdb_crypto::Pae::new(&sk);
    let mut rng = StdRng::seed_from_u64(0x0E);
    let ranges: Vec<EncryptedRange> = [("0002", "0006"), ("0004", "0008")]
        .iter()
        .map(|(lo, hi)| EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between(*lo, *hi)))
        .collect();
    let bytes_in: u64 = ranges
        .iter()
        .map(|r| (r.tau_s.as_bytes().len() + r.tau_e.as_bytes().len()) as u64)
        .sum();
    let bytes_out = 4 * (5 + 5); // five delta ids per range, three of them twice
    let filter = ServerFilter::Encrypted {
        column: "v".into(),
        ranges,
    };
    let select = || {
        let got = db
            .server()
            .execute_query(ServerQuery::Select {
                table: "t".into(),
                columns: Vec::new(),
                filters: vec![filter.clone()],
                scope: None,
            })
            .expect("select");
        let QueryOutcome::Rows(got) = got else {
            panic!("a select answers with rows");
        };
        assert_eq!(got.rows.len(), 7, "the union 0002..=0008");
    };

    // Solo, through the bypass.
    db.server().set_ecall_batching(false);
    let before = db.leakage_ledger();
    select();
    let solo = db.leakage_ledger().since(&before);
    db.server().set_ecall_batching(true);
    let solo = solo.kind(EcallKind::Search);
    assert_eq!(solo.calls, 1, "an empty main store is never searched");
    assert_eq!(solo.bytes_in, bytes_in, "solo bytes_in");
    assert_eq!(solo.bytes_out, bytes_out, "solo bytes_out");

    // Coalesced: pinned behind a held enclave lock, every call but the
    // leader's provably shares one transition.
    let before = db.leakage_ledger();
    let guard = db.server().enclave();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(select)).collect();
        std::thread::sleep(std::time::Duration::from_millis(60));
        drop(guard);
        for h in handles {
            h.join().expect("reader thread");
        }
    });
    let delta = db.leakage_ledger().since(&before);
    let (single, shared) = (delta.kind(EcallKind::Search), delta.kind(EcallKind::Batch));
    assert!(shared.calls >= 1, "no shared round was recorded");
    let n = threads as u64;
    assert_eq!(single.bytes_in + shared.bytes_in, n * bytes_in);
    assert_eq!(single.bytes_out + shared.bytes_out, n * bytes_out);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two of the volatile single-shard quadrant's ten streams: batched and
    /// bypass cells answer alike and record equal per-kind ledgers with no
    /// shared round.
    #[test]
    fn interleavings_batched_equals_bypass(seed in any::<u64>()) {
        harness::check_modes(false, false, seed)?;
    }
}
