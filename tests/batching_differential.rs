//! Differential proof that the cross-session ECALL batching scheduler
//! (DESIGN.md §15) is invisible in query results and — for serial
//! workloads — byte-for-byte invisible in the leakage ledger.
//!
//! Four angles:
//!
//! * **Paired legs.** Proptest-generated interleavings of insert /
//!   delete / range select / aggregate / compact run twice from the same
//!   seed — once with batching on (the default), once through the
//!   bypass (`set_ecall_batching(false)`, the pre-scheduler
//!   lock-per-call path). Every read must match the other leg *and* a
//!   plaintext model, for all nine ED kinds plus PLAIN; and because a
//!   serial client only ever produces rounds of one, the two legs'
//!   leakage ledgers must agree exactly, per kind and per byte.
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
//! Every read of the paired legs also checks its span tree: the layers
//! it folds into sum to the query's duration, and `QueryStats`' times are
//! exactly those layers.
//!
//! Thread/case counts are bounded for CI via `ENCDBDB_STRESS_THREADS`.

use encdbdb::obs::{Layer, LayerTimes};
use encdbdb::{EcallKind, Session};
use proptest::prelude::*;

const CHOICES: [&str; 10] = [
    "ED1", "ED2", "ED3", "ED4", "ED5", "ED6", "ED7", "ED8", "ED9", "PLAIN",
];

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn value(x: u32) -> String {
    format!("{:04}", x % 60)
}

fn bounds(a: u32, b: u32) -> (String, String) {
    let (lo, hi) = if a % 60 <= b % 60 { (a, b) } else { (b, a) };
    (value(lo), value(hi))
}

/// One schedule step, decoded from a generated `(kind, a, b)` triple
/// (same distribution as `dynamic_differential.rs`, with `Restart`
/// folded into `Compact` — batching is orthogonal to durability).
#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Delete(String, String),
    Range(String, String),
    Agg(String, String),
    Compact,
}

fn decode(kind: u8, a: u32, b: u32) -> Op {
    match kind % 10 {
        0..=3 => Op::Insert(value(a)),
        4 => {
            let (lo, hi) = bounds(a, b);
            Op::Delete(lo, hi)
        }
        5 | 6 => {
            let (lo, hi) = bounds(a, b);
            Op::Range(lo, hi)
        }
        7 | 8 => {
            let (lo, hi) = bounds(a, b);
            Op::Agg(lo, hi)
        }
        _ => Op::Compact,
    }
}

/// The plaintext model: values in `[lo, hi]`, sorted. The fixed-width
/// zero-padded domain makes lexicographic order numeric order.
fn matched(rows: &[String], lo: &str, hi: &str) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .filter(|v| v.as_str() >= lo && v.as_str() <= hi)
        .cloned()
        .collect();
    out.sort();
    out
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

/// Checks the newest query's span tree in `db`'s trace ring: its layer
/// times sum to the root's duration, `last_stats`' times are those
/// layers, and the layers a filtered read crosses are non-zero.
fn layers_match_stats(db: &Session, what: &str) -> Result<(), TestCaseError> {
    let events = db.server().obs().trace_events();
    let root = events
        .iter()
        .filter(|e| e.name == "query" && e.parent == 0)
        .max_by_key(|e| e.id)
        .expect("a query root in the ring");
    let t = LayerTimes::of_tree(&events, root.id).expect("the root's tree");
    prop_assert_eq!(t.total(), root.dur_ns, "{}: layers sum to the query", what);
    let s = db.server().last_stats();
    for (layer, ns) in [
        (Layer::SchedWait, s.ecall_wait_ns),
        (Layer::DictSearch, s.dict_search_ns),
        (Layer::AvScan, s.av_search_ns),
        (Layer::Aggregate, s.aggregate_ns),
        (Layer::Bridge, s.bridge_ns),
        (Layer::Render, s.render_ns),
    ] {
        prop_assert_eq!(t.get(layer), ns, "{}: {:?} vs QueryStats", what, layer);
    }
    for layer in [Layer::Parse, Layer::Plan, Layer::Snapshot, Layer::Fanout] {
        prop_assert!(t.get(layer) > 0, "{}: {:?} untimed", what, layer);
    }
    Ok(())
}

/// Runs one schedule through both legs and checks every observable —
/// results, row counts and (serial ⇒ singleton rounds only) the full
/// per-kind leakage ledger — for equality.
fn run_legs(choice: &str, seed: u64, triples: &[(u8, u32, u32)]) -> Result<(), TestCaseError> {
    let mut batched = Session::with_seed(seed).expect("batched session");
    let mut bypass = Session::with_seed(seed).expect("bypass session");
    assert!(batched.server().ecall_batching(), "batching is the default");
    bypass.server().set_ecall_batching(false);
    // Only explicit `Compact` steps merge: the threshold-driven policy
    // would race background rebuilds against the schedule, and a merge
    // publishing mid-delete retries the delete's searches — making the
    // per-byte ledger comparison below timing-dependent in *both* legs.
    batched.server().set_compaction_policy(None);
    bypass.server().set_compaction_policy(None);

    let create = format!("CREATE TABLE t (v {choice}(8))");
    batched.execute(&create).expect("create (batched)");
    bypass.execute(&create).expect("create (bypass)");
    let mut rows: Vec<String> = Vec::new();

    for (step, &(kind, a, b)) in triples.iter().enumerate() {
        let op = decode(kind, a, b);
        match &op {
            Op::Insert(v) => {
                let q = format!("INSERT INTO t VALUES ('{v}')");
                batched.execute(&q).expect("insert (batched)");
                bypass.execute(&q).expect("insert (bypass)");
                rows.push(v.clone());
            }
            Op::Delete(lo, hi) => {
                let q = format!("DELETE FROM t WHERE v BETWEEN '{lo}' AND '{hi}'");
                let rb = batched.execute(&q).expect("delete (batched)");
                let rd = bypass.execute(&q).expect("delete (bypass)");
                let expected = matched(&rows, lo, hi).len().to_string();
                prop_assert_eq!(
                    rb.rows_as_strings()[0][0].clone(),
                    expected.clone(),
                    "{} step {}: batched delete count",
                    choice,
                    step
                );
                prop_assert_eq!(
                    rd.rows_as_strings()[0][0].clone(),
                    expected,
                    "{} step {}: bypass delete count",
                    choice,
                    step
                );
                rows.retain(|v| v.as_str() < lo.as_str() || v.as_str() > hi.as_str());
            }
            Op::Range(lo, hi) => {
                let q = format!("SELECT v FROM t WHERE v BETWEEN '{lo}' AND '{hi}'");
                let got_b = sorted_col(batched.execute(&q).expect("range (batched)"));
                layers_match_stats(&batched, "range (batched)")?;
                let got_d = sorted_col(bypass.execute(&q).expect("range (bypass)"));
                layers_match_stats(&bypass, "range (bypass)")?;
                prop_assert_eq!(
                    &got_b,
                    &got_d,
                    "{} step {}: legs disagree on [{}, {}]",
                    choice,
                    step,
                    lo,
                    hi
                );
                prop_assert_eq!(
                    got_b,
                    matched(&rows, lo, hi),
                    "{} step {}: batched leg vs model",
                    choice,
                    step
                );
            }
            Op::Agg(lo, hi) => {
                let q = format!("SELECT COUNT(*), SUM(v) FROM t WHERE v BETWEEN '{lo}' AND '{hi}'");
                let rows_b = batched
                    .execute(&q)
                    .expect("agg (batched)")
                    .rows_as_strings();
                layers_match_stats(&batched, "agg (batched)")?;
                let rows_d = bypass.execute(&q).expect("agg (bypass)").rows_as_strings();
                layers_match_stats(&bypass, "agg (bypass)")?;
                prop_assert_eq!(&rows_b, &rows_d, "{} step {}: aggregate legs", choice, step);
                let hit = matched(&rows, lo, hi);
                let sum = if hit.is_empty() {
                    String::new()
                } else {
                    hit.iter()
                        .map(|v| v.parse::<u64>().expect("numeric domain"))
                        .sum::<u64>()
                        .to_string()
                };
                prop_assert_eq!(
                    rows_b,
                    vec![vec![hit.len().to_string(), sum]],
                    "{} step {}: aggregate vs model",
                    choice,
                    step
                );
            }
            Op::Compact => {
                batched.merge("t").expect("merge (batched)");
                bypass.merge("t").expect("merge (bypass)");
            }
        }
        prop_assert_eq!(
            batched.server().row_count("t").expect("row count"),
            rows.len(),
            "{} step {}: row count after {:?}",
            choice,
            step,
            op
        );
    }

    let got_b = sorted_col(batched.execute("SELECT v FROM t").expect("final (batched)"));
    let got_d = sorted_col(bypass.execute("SELECT v FROM t").expect("final (bypass)"));
    prop_assert_eq!(&got_b, &got_d, "{}: final contents differ", choice);
    let mut expected = rows.clone();
    expected.sort();
    prop_assert_eq!(got_b, expected, "{}: final contents vs model", choice);

    // A serial client never shares a transition, so the enabled
    // scheduler records native kinds exactly like the bypass: the two
    // ledgers must agree per kind and per byte, and neither leg may
    // contain a Batch record.
    let lb = batched.leakage_ledger();
    let ld = bypass.leakage_ledger();
    for kind in [
        EcallKind::Search,
        EcallKind::Aggregate,
        EcallKind::JoinBridge,
        EcallKind::Batch,
    ] {
        let (b, d) = (lb.kind(kind), ld.kind(kind));
        prop_assert_eq!(b.calls, d.calls, "{}: {:?} call count", choice, kind);
        prop_assert_eq!(b.bytes_in, d.bytes_in, "{}: {:?} bytes_in", choice, kind);
        prop_assert_eq!(b.bytes_out, d.bytes_out, "{}: {:?} bytes_out", choice, kind);
        prop_assert_eq!(
            b.values_decrypted,
            d.values_decrypted,
            "{}: {:?} values_decrypted",
            choice,
            kind
        );
        prop_assert_eq!(
            b.untrusted_loads,
            d.untrusted_loads,
            "{}: {:?} untrusted_loads",
            choice,
            kind
        );
    }
    prop_assert_eq!(
        lb.kind(EcallKind::Batch).calls,
        0,
        "{}: a serial client must never produce a shared round",
        choice
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Batched ≡ bypass for every interleaving, across all nine ED kinds
    /// plus PLAIN — results, row counts and serial leakage ledgers.
    #[test]
    fn interleavings_batched_equals_bypass(
        triples in prop::collection::vec((0u8..10, 0u32..600, 0u32..600), 1..24),
        seed in 0u64..100_000,
    ) {
        for choice in CHOICES {
            run_legs(choice, seed, &triples)?;
        }
    }
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
    for choice in CHOICES {
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
