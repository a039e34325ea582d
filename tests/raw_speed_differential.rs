//! Differential proof that the raw-speed pass (vectorized AV scans,
//! batched disjunction searches, the enclave value cache — DESIGN.md §14)
//! changes performance only: query answers stay bit-identical to the
//! per-range / uncached baselines across all nine encrypted dictionary
//! kinds plus PLAIN, and the enclave-boundary accounting stays exact —
//! cache hits never skip an ECALL, and the `values_decrypted ==
//! untrusted_loads / 2` identity survives because a hit costs neither a
//! load nor a decrypt.

use encdbdb::{EcallKind, Session};
use workload::KINDS;

/// A table with duplicates in the main store and a non-empty delta, so
/// every query below exercises both stores.
fn deploy(choice: &str, seed: u64) -> Session {
    let mut db = Session::with_seed(seed).unwrap();
    db.set_compaction_policy(None);
    db.execute(&format!("CREATE TABLE t (v {choice}(8))"))
        .unwrap();
    // 24 main rows over 8 distinct values, skewed.
    let mut main_rows = Vec::new();
    for i in 0u32..24 {
        main_rows.push(format!("'{:04}'", (i * i) % 80 / 10 * 10));
    }
    db.execute(&format!(
        "INSERT INTO t VALUES ({})",
        main_rows.join("), (")
    ))
    .unwrap();
    db.merge("t").unwrap();
    // 6 delta rows, overlapping and extending the main domain.
    db.execute("INSERT INTO t VALUES ('0010'), ('0010'), ('0040'), ('0085'), ('0085'), ('0090')")
        .unwrap();
    db
}

fn sorted_rows(db: &mut Session, sql: &str) -> Vec<Vec<String>> {
    let mut rows = db.execute(sql).unwrap().rows_as_strings();
    rows.sort();
    rows
}

/// The batched disjunction (`IN`, one search ECALL per store) must answer
/// exactly like the union of its per-value equality queries, for every
/// kind — and for encrypted kinds it must pay exactly one Search ECALL
/// per store, not one per disjunct.
#[test]
fn batched_disjunctions_answer_like_per_range_queries() {
    for choice in KINDS {
        let mut db = deploy(choice, 8100);
        let per_range: Vec<Vec<String>> = ["0010", "0040", "0085"]
            .iter()
            .flat_map(|v| {
                db.execute(&format!("SELECT v FROM t WHERE v = '{v}'"))
                    .unwrap()
                    .rows_as_strings()
            })
            .collect();
        let mut per_range = per_range;
        per_range.sort();

        let before = db.leakage_ledger();
        let batched = sorted_rows(
            &mut db,
            "SELECT v FROM t WHERE v IN ('0010', '0040', '0085')",
        );
        assert_eq!(batched, per_range, "{choice}: batched != per-range union");
        assert!(
            !batched.is_empty(),
            "{choice}: the disjunction matches rows"
        );

        let delta = db.leakage_ledger().since(&before);
        let search = delta.kind(EcallKind::Search);
        if choice == "PLAIN" {
            assert_eq!(delta.total_calls(), 0, "PLAIN never enters the enclave");
        } else {
            assert_eq!(
                search.calls, 2,
                "{choice}: one batched ECALL per store (main + delta), not per disjunct"
            );
            assert_eq!(
                search.values_decrypted,
                search.untrusted_loads / 2,
                "{choice}: the decrypt/load identity holds under batching"
            );
            let stats = db.server().last_stats();
            assert_eq!(stats.enclave_calls, 2, "{choice}: stats mirror the ledger");
        }
    }
}

/// Repeating the identical range query must return bit-identical rows
/// while the enclave value cache absorbs every decrypt: the warm run pays
/// the same ECALLs (hits never skip a transition) but zero fresh
/// decrypts and zero untrusted loads for the cached entries.
#[test]
fn warm_value_cache_tightens_decrypt_bounds_without_skipping_ecalls() {
    for choice in &KINDS[..9] {
        // Every kind but PLAIN: the nine encrypted dictionaries.
        let mut db = deploy(choice, 8200);
        let q = "SELECT v FROM t WHERE v BETWEEN '0020' AND '0060'";

        let before = db.leakage_ledger();
        let cold = sorted_rows(&mut db, q);
        let cold_delta = db.leakage_ledger().since(&before);
        let cold_search = cold_delta.kind(EcallKind::Search);
        assert!(
            cold_search.values_decrypted > 0,
            "{choice}: the cold run decrypts dictionary entries"
        );

        let before = db.leakage_ledger();
        let warm = sorted_rows(&mut db, q);
        let warm_delta = db.leakage_ledger().since(&before);
        let warm_search = warm_delta.kind(EcallKind::Search);

        assert_eq!(warm, cold, "{choice}: cached answers must be bit-identical");
        assert_eq!(
            warm_search.calls, cold_search.calls,
            "{choice}: cache hits must not skip search ECALLs"
        );
        assert_eq!(
            warm_search.values_decrypted, 0,
            "{choice}: the warm run re-reads only cached entries"
        );
        assert_eq!(
            warm_search.untrusted_loads, 0,
            "{choice}: a cache hit costs no untrusted load"
        );
        assert!(
            warm_search.cache_hits >= cold_search.values_decrypted,
            "{choice}: every cold decrypt is answered from cache when warm \
             (hits {} < cold decrypts {})",
            warm_search.cache_hits,
            cold_search.values_decrypted
        );
        // The identity holds on both sides of the cache: hits contribute
        // zero loads and zero decrypts.
        for (label, s) in [("cold", &cold_search), ("warm", &warm_search)] {
            assert_eq!(
                s.values_decrypted,
                s.untrusted_loads / 2,
                "{choice}: {label} decrypt/load identity"
            );
        }
        let stats = db.server().last_stats();
        assert_eq!(
            stats.cache_hits as u64, warm_search.cache_hits,
            "{choice}: QueryStats and ledger agree on cache hits"
        );
    }
}

/// Warm-cache aggregates: the grouped histogram answer must not change,
/// while the Aggregate ECALL's decrypts drop to zero once the searched
/// entries are cached.
#[test]
fn warm_cache_aggregates_stay_bit_identical() {
    for choice in &KINDS[..9] {
        // Every kind but PLAIN: the nine encrypted dictionaries.
        let mut db = deploy(choice, 8300);
        let q = "SELECT v, COUNT(*) FROM t WHERE v BETWEEN '0000' AND '0099' GROUP BY v ORDER BY 1";
        let cold = db.execute(q).unwrap().rows_as_strings();
        let before = db.leakage_ledger();
        let warm = db.execute(q).unwrap().rows_as_strings();
        let delta = db.leakage_ledger().since(&before);
        assert_eq!(warm, cold, "{choice}: warm aggregate differs");
        assert_eq!(
            delta.kind(EcallKind::Aggregate).calls,
            1,
            "{choice}: the warm aggregate still enters the enclave once"
        );
        assert_eq!(
            delta.kind(EcallKind::Aggregate).values_decrypted,
            0,
            "{choice}: every touched ValueID was cached by the first run"
        );
        assert!(
            delta.kind(EcallKind::Aggregate).cache_hits > 0,
            "{choice}: the warm aggregate reads from the value cache"
        );
    }
}

/// Chunked-scan accounting stays exact under the batched path: one
/// histogram chunk per started 4096-row block per store, counted once.
#[test]
fn chunk_accounting_is_exact_under_batched_scans() {
    let mut db = deploy("ED1", 8400);
    db.execute("SELECT v, COUNT(*) FROM t WHERE v >= '0000' GROUP BY v")
        .unwrap();
    let stats = db.server().last_stats();
    // 24 main rows -> one main chunk; 6 delta rows -> one delta chunk.
    assert_eq!(stats.chunks_scanned, 2);
    assert_eq!(stats.enclave_calls, 2 + 1, "two searches + one aggregate");
}
