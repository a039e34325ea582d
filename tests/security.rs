//! Cross-crate security tests: what the untrusted server can and cannot
//! observe, and how tampering is handled end-to-end.

use colstore::column::Column;
use colstore::table::Table;
use encdbdb::{ColumnSpec, DictChoice, Session, TableSchema};
use encdict::leakage::FrequencyProfile;
use encdict::EdKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Build a deployment over a heavily skewed column and inspect the
/// *server-visible* artifacts per kind.
fn deploy_skewed(kind: EdKind, seed: u64) -> (Session, Vec<String>) {
    let values: Vec<String> = (0..30u32)
        .flat_map(|i| std::iter::repeat_n(format!("val{i:02}"), (i as usize % 7) * 4 + 1))
        .collect();
    let mut db = Session::with_seed(seed).unwrap();
    let mut table = Table::new("t");
    table
        .add_column(Column::from_strs("c", 8, values.iter()).unwrap())
        .unwrap();
    let mut schema = TableSchema::new(
        "t",
        vec![ColumnSpec::new("c", DictChoice::Encrypted(kind), 8)],
    );
    schema.columns[0].bs_max = 5;
    db.load_table(&table, schema).unwrap();
    (db, values)
}

#[test]
fn server_storage_sizes_reflect_repetition_option() {
    // The attacker trivially sees storage sizes; they must follow Table 3:
    // revealing < smoothing < hiding for a repetitive column.
    let (db1, _) = deploy_skewed(EdKind::Ed1, 1);
    let (db4, _) = deploy_skewed(EdKind::Ed4, 2);
    let (db7, _) = deploy_skewed(EdKind::Ed7, 3);
    let s1 = db1.server().column_storage_size("t", "c").unwrap();
    let s4 = db4.server().column_storage_size("t", "c").unwrap();
    let s7 = db7.server().column_storage_size("t", "c").unwrap();
    assert!(s1 < s4, "revealing ({s1}) < smoothing ({s4})");
    assert!(s4 < s7, "smoothing ({s4}) < hiding ({s7})");
}

#[test]
fn repeated_queries_are_unlinkable_at_the_proxy_boundary() {
    // The same SQL query executed twice must produce different encrypted
    // range bounds (probabilistic encryption with fresh IVs), so the server
    // cannot tell repeated queries apart.
    use encdbdb_crypto::hkdf::derive_column_key;
    use encdbdb_crypto::{Key128, Pae};
    use encdict::{EncryptedRange, RangeQuery};

    let pae = Pae::new(&derive_column_key(&Key128::from_bytes([1; 16]), "t", "c"));
    let mut rng = StdRng::seed_from_u64(5);
    let q = RangeQuery::between("a", "m");
    let t1 = EncryptedRange::encrypt(&pae, &mut rng, &q);
    let t2 = EncryptedRange::encrypt(&pae, &mut rng, &q);
    assert_ne!(t1.tau_s.as_bytes(), t2.tau_s.as_bytes());
    assert_ne!(t1.tau_e.as_bytes(), t2.tau_e.as_bytes());
}

#[test]
fn frequency_hiding_attribute_vector_is_flat_after_load() {
    use colstore::dictionary::ValueId;
    // Rebuild the deployment artifacts directly to inspect the AV the
    // server stores for an ED7 column.
    let values: Vec<String> = std::iter::repeat_n("dup".to_string(), 50)
        .chain((0..10).map(|i| format!("u{i}")))
        .collect();
    let column = Column::from_strs("c", 8, values.iter()).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let (_, av) = encdict::build::build_plain(
        &column,
        EdKind::Ed7,
        &encdict::build::BuildParams::default(),
        &mut rng,
    )
    .unwrap();
    let profile = FrequencyProfile::of(&av);
    assert!(profile.is_flat(), "ED7 AV must not reveal frequencies");
    // Sanity: the AV still references |C| distinct ValueIDs.
    let distinct: std::collections::HashSet<ValueId> = av.iter().map(ValueId).collect();
    assert_eq!(distinct.len(), values.len());
}

#[test]
fn queries_after_tamper_fail_loudly_not_wrongly() {
    // Tampering with stored ciphertexts must produce an error, never a
    // wrong (silently corrupted) result. We simulate by querying with a
    // proxy keyed differently from the deployment.
    use encdbdb::{DbaasServer, Proxy};
    use encdbdb_crypto::Key128;
    use encdict::DictEnclave;

    let mut rng = StdRng::seed_from_u64(7);
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(8));
    server.provision_direct(Key128::from_bytes([1; 16]));
    let owner = encdbdb::DataOwner::from_key(Key128::from_bytes([1; 16]));
    let mut table = Table::new("t");
    table
        .add_column(Column::from_strs("c", 8, ["a", "b"]).unwrap())
        .unwrap();
    owner
        .deploy(
            &server,
            &table,
            TableSchema::new(
                "t",
                vec![ColumnSpec::new("c", DictChoice::Encrypted(EdKind::Ed1), 8)],
            ),
            &mut rng,
        )
        .unwrap();

    // A proxy with the wrong master key (≙ an attacker forging queries, or
    // corrupted key material) is rejected by the enclave's authenticated
    // decryption.
    let evil_proxy = Proxy::new(Key128::from_bytes([2; 16]));
    let err = evil_proxy
        .execute(&server, "SELECT c FROM t WHERE c = 'a'", &mut rng)
        .unwrap_err();
    assert!(matches!(err, encdbdb::DbError::Dict(_)));
}

/// All 370 rows of the skewed deployment: 30 distinct values, value
/// `val{i}` occurring `(i % 7) * 4 + 1` times.
const SKEWED_ROWS: u64 = 370;
const SKEWED_DISTINCT: u64 = 30;

#[test]
fn observed_search_leakage_follows_each_kinds_bounds() {
    use encdbdb::EcallKind;
    use encdict::OrderOption;

    // The binary search probes head+tail of O(log |D|) entries, and the
    // rotated variant (Algorithm 3) pays an extra probe round per step;
    // |D| never exceeds the row count here (hiding), so 6 * (log2(370) +
    // 2) loads is a generous O(log |D|) ceiling — still far below the
    // 2|D| loads of every linear scan asserted on below.
    let log_bound = 6 * (64 - SKEWED_ROWS.leading_zeros() as u64 + 2);
    let mut bytes_in_per_kind = Vec::new();
    for (i, kind) in EdKind::ALL.iter().copied().enumerate() {
        let (mut db, _) = deploy_skewed(kind, 7200 + i as u64);
        let before = db.leakage_ledger();
        db.execute("SELECT c FROM t WHERE c = 'val05'").unwrap();
        let delta = db.leakage_ledger().since(&before);
        let search = delta.kind(EcallKind::Search);
        assert_eq!(search.calls, 1, "{kind:?}: one Search ECALL per partition");
        assert_eq!(
            delta.total_calls(),
            1,
            "{kind:?}: the query makes no other enclave transition"
        );
        assert_eq!(
            search.values_decrypted,
            search.untrusted_loads / 2,
            "{kind:?}: one head + one tail load per examined entry"
        );
        match kind.order() {
            OrderOption::Sorted | OrderOption::Rotated => {
                assert!(
                    search.untrusted_loads <= log_bound,
                    "{kind:?}: binary search loads {} exceed O(log |D|) bound {log_bound}",
                    search.untrusted_loads
                );
                // Reply size is computed from the actual result now (8
                // bytes per ValueID range), not a hardcoded constant: a
                // sorted search returns exactly one range; a rotated one
                // may split a wrapped match into two.
                match kind.order() {
                    OrderOption::Sorted => {
                        assert_eq!(search.bytes_out, 8, "{kind:?}: one contiguous range reply")
                    }
                    _ => assert!(
                        search.bytes_out == 8 || search.bytes_out == 16,
                        "{kind:?}: rotated replies are 1 or 2 ranges, got {} bytes",
                        search.bytes_out
                    ),
                }
            }
            OrderOption::Unsorted => {
                // The linear scan examines every entry: exactly 2|D| loads.
                let dict_len = match kind.repetition() {
                    encdict::RepetitionOption::Revealing => Some(SKEWED_DISTINCT),
                    encdict::RepetitionOption::Hiding => Some(SKEWED_ROWS),
                    // Smoothing bucket counts depend on build randomness.
                    encdict::RepetitionOption::Smoothing => None,
                };
                match dict_len {
                    Some(d) => assert_eq!(
                        search.untrusted_loads,
                        2 * d,
                        "{kind:?}: linear scan examines the whole dictionary"
                    ),
                    None => assert!(
                        search.untrusted_loads > log_bound
                            && search.untrusted_loads <= 2 * SKEWED_ROWS,
                        "{kind:?}: smoothing scan loads {} outside (log bound, 2·rows]",
                        search.untrusted_loads
                    ),
                }
                assert!(
                    search.bytes_out >= 4,
                    "{kind:?}: id replies scale with hits"
                );
            }
        }
        bytes_in_per_kind.push((kind, search.bytes_in));
    }
    // Probabilistic encryption: the encrypted range bounds of the same
    // query have the same length under every kind — the request payload
    // leaks nothing about the dictionary layout.
    let first = bytes_in_per_kind[0].1;
    assert!(first > 0);
    for (kind, bytes_in) in &bytes_in_per_kind {
        assert_eq!(
            *bytes_in, first,
            "{kind:?}: request payload size must not depend on the kind"
        );
    }
}

#[test]
fn plain_column_queries_make_zero_enclave_transitions() {
    let mut db = Session::with_seed(7300).unwrap();
    db.execute("CREATE TABLE p (v PLAIN(8))").unwrap();
    db.execute("INSERT INTO p VALUES ('a'), ('b'), ('a')")
        .unwrap();
    let before = db.leakage_ledger();
    let r = db.execute("SELECT v FROM p WHERE v = 'a'").unwrap();
    assert_eq!(r.row_count(), 2);
    let r = db.execute("SELECT v, COUNT(*) FROM p GROUP BY v").unwrap();
    assert_eq!(r.row_count(), 2);
    let delta = db.leakage_ledger().since(&before);
    assert_eq!(
        delta.total_calls(),
        0,
        "PLAIN selects and aggregates never enter the enclave"
    );
}

#[test]
fn hiding_kinds_decrypt_more_than_revealing_on_unsorted_scans() {
    use encdbdb::EcallKind;
    // ED3 (revealing, unsorted) scans |un(C)| entries; ED9 (hiding,
    // unsorted) scans |C| — the compression/leakage trade-off of Table 3,
    // observed rather than assumed.
    let observed = |kind: EdKind, seed: u64| {
        let (mut db, _) = deploy_skewed(kind, seed);
        let before = db.leakage_ledger();
        db.execute("SELECT c FROM t WHERE c = 'val12'").unwrap();
        db.leakage_ledger()
            .since(&before)
            .kind(EcallKind::Search)
            .values_decrypted
    };
    let ed3 = observed(EdKind::Ed3, 7400);
    let ed9 = observed(EdKind::Ed9, 7401);
    assert_eq!(ed3, SKEWED_DISTINCT);
    assert_eq!(ed9, SKEWED_ROWS);
    assert!(ed9 > ed3);
}

#[test]
fn export_trace_ecall_spans_match_ledger_counts() {
    // The acceptance invariant: every enclave transition appears as
    // exactly one "ecall" span in the exported trace AND one ledger
    // record — for the cheapest (ED1) and most protective (ED9) kinds.
    for (kind, seed) in [(EdKind::Ed1, 7500), (EdKind::Ed9, 7501)] {
        let (mut db, _) = deploy_skewed(kind, seed);
        db.execute("SELECT c FROM t WHERE c = 'val05'").unwrap();
        db.execute("SELECT c FROM t WHERE c < 'val03'").unwrap();
        db.execute("INSERT INTO t VALUES ('zzz')").unwrap();
        let ledger = db.leakage_ledger();
        let spans = db.server().obs().trace_events();
        let ecall_spans = spans.iter().filter(|e| e.cat == "ecall").count() as u64;
        assert_eq!(
            ecall_spans,
            ledger.total_calls(),
            "{kind:?}: trace and ledger must agree on every transition"
        );
        assert!(ecall_spans >= 3, "{kind:?}: two searches and a reencrypt");
        let json = db.export_trace();
        assert!(json.starts_with('{') && json.contains("\"traceEvents\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(
            json.matches("\"cat\":\"ecall\"").count() as u64,
            ledger.total_calls(),
            "{kind:?}: exported JSON carries the same ECALL spans"
        );
    }
}

#[test]
fn delta_insert_hides_order_and_frequency() {
    // §4.3: inserting into the ED9 delta leaks neither order nor frequency.
    // Check the server-visible delta bytes: equal plaintexts inserted twice
    // produce different stored ciphertexts of equal length.
    let mut db = Session::with_seed(9).unwrap();
    db.execute("CREATE TABLE t (v ED9(8))").unwrap();
    db.execute("INSERT INTO t VALUES ('same'), ('same')")
        .unwrap();
    // Query both back — they decrypt identically...
    let r = db.execute("SELECT v FROM t WHERE v = 'same'").unwrap();
    assert_eq!(r.row_count(), 2);
    // ...but the storage accounting shows two independent ciphertexts (the
    // delta grew by two full entries; dedup would have shared one).
    let size_two = db.server().column_storage_size("t", "v").unwrap();
    db.execute("INSERT INTO t VALUES ('same')").unwrap();
    let size_three = db.server().column_storage_size("t", "v").unwrap();
    assert!(size_three > size_two);
}

#[test]
fn batching_reduces_transitions_without_widening_leakage() {
    // DESIGN.md §15: coalescing K identical queries into one transition
    // must (a) strictly reduce the number of enclave transitions and
    // (b) keep the combined payload exactly the documented union — the
    // sum of the members' native request bytes, with untrusted loads
    // and decrypts bounded by K times a solo run. Anything above the
    // union would mean the batch path leaks more than K separate calls.
    use encdbdb::EcallKind;
    use std::time::Duration;

    let threads = 6usize;
    for (i, kind) in [EdKind::Ed2, EdKind::Ed7, EdKind::Ed9]
        .into_iter()
        .enumerate()
    {
        let (db, _) = deploy_skewed(kind, 9300 + i as u64);
        let q = "SELECT c FROM t WHERE c BETWEEN 'val05' AND 'val09'";

        // Solo baseline through the enabled scheduler: a serial client
        // produces a round of one, recorded as a native Search.
        let before = db.leakage_ledger();
        let expected = {
            let mut probe = db.reader(1);
            probe.execute(q).unwrap().rows_as_strings().len()
        };
        let solo = db.leakage_ledger().since(&before).kind(EcallKind::Search);
        assert_eq!(solo.calls, 1, "{kind:?}: bulk-loaded table, empty delta");
        assert!(solo.bytes_in > 0, "{kind:?}: encrypted bounds crossed in");

        // K readers forced to coalesce: pin the enclave so everyone
        // queues, then release.
        let before = db.leakage_ledger();
        let readers: Vec<_> = (2..2 + threads as u64).map(|s| db.reader(s)).collect();
        let guard = db.server().enclave();
        std::thread::scope(|scope| {
            let handles: Vec<_> = readers
                .into_iter()
                .map(|mut r| scope.spawn(move || r.execute(q).unwrap().rows_as_strings().len()))
                .collect();
            std::thread::sleep(Duration::from_millis(60));
            drop(guard);
            for h in handles {
                assert_eq!(h.join().unwrap(), expected, "{kind:?}: wrong reply");
            }
        });
        let window = db.leakage_ledger().since(&before);
        let native = window.kind(EcallKind::Search);
        let batch = window.kind(EcallKind::Batch);

        // (a) Fewer transitions than calls, and at least one shared round.
        assert!(
            window.total_calls() < threads as u64,
            "{kind:?}: {} transitions for {threads} queries — nothing coalesced",
            window.total_calls()
        );
        assert!(batch.calls >= 1, "{kind:?}: no Batch record");

        // (b) The union bound. Request bytes are exact: the same query's
        // encrypted bounds have a fixed ciphertext length, so K requests
        // cross exactly K × the solo bytes whether coalesced or not.
        assert_eq!(
            native.bytes_in + batch.bytes_in,
            threads as u64 * solo.bytes_in,
            "{kind:?}: combined request payload must equal the members' sum"
        );
        // Work counters never exceed K solo runs (the shared value cache
        // can only shrink them).
        assert!(
            native.untrusted_loads + batch.untrusted_loads <= threads as u64 * solo.untrusted_loads,
            "{kind:?}: batched loads exceed {threads} solo runs"
        );
        assert!(
            native.values_decrypted + batch.values_decrypted
                <= threads as u64 * solo.values_decrypted,
            "{kind:?}: batched decrypts exceed {threads} solo runs"
        );

        // Every Batch ledger record is marked as a genuinely shared
        // round, and the registry still counts one transition per record.
        let records = db.server().obs().ledger_records();
        assert!(
            records
                .iter()
                .filter(|r| matches!(r.kind, EcallKind::Batch))
                .all(|r| r.batch_size >= 2),
            "{kind:?}: a Batch record with batch_size < 2"
        );
        let report = db.server().obs().metrics_report();
        assert_eq!(
            report.counter("ecalls_total"),
            db.server().obs().ledger_report().total_calls(),
            "{kind:?}: transition counter and ledger must agree"
        );
        assert!(
            report.counter("ecall_batches_total") >= 1,
            "{kind:?}: batch counter did not move"
        );
        assert!(
            report.counter("batched_calls_total") >= 2,
            "{kind:?}: batched-call counter did not move"
        );
    }
}

/// DESIGN.md §14.2, cache admission: a linear search over more entries
/// than the 8 192-entry value cache holds can never hit under FIFO, so it
/// bypasses the cache — it pays the uncached 2·|D| loads every time, counts
/// neither hits nor misses, and evicts nobody else's entries. At or below
/// the capacity the cache behaves as before.
#[test]
fn linear_scans_larger_than_the_value_cache_bypass_it() {
    use encdbdb::EcallKind;
    const CACHE_ENTRIES: u64 = 8192;

    let mut db = Session::with_seed(7700).unwrap();
    let mut load_ed9 = |name: &str, rows: u64| {
        let mut table = Table::new(name);
        let values = (0..rows).map(|i| format!("v{i:06}"));
        table
            .add_column(Column::from_strs("c", 8, values).unwrap())
            .unwrap();
        let schema = TableSchema::new(
            name,
            vec![ColumnSpec::new("c", DictChoice::Encrypted(EdKind::Ed9), 8)],
        );
        db.load_table(&table, schema).unwrap();
    };
    load_ed9("small", 64);
    load_ed9("big", CACHE_ENTRIES * 3 / 2);
    load_ed9("fits", CACHE_ENTRIES);

    // One range query against `table`: the search's ledger row and the
    // value-cache misses it counted.
    let mut scan = |table: &str| {
        let ledger = db.leakage_ledger();
        let misses = db.metrics_report().counter("value_cache_misses_total");
        let sql = format!("SELECT c FROM {table} WHERE c BETWEEN 'v000010' AND 'v000019'");
        assert_eq!(db.execute(&sql).unwrap().row_count(), 10);
        let delta = db.leakage_ledger().since(&ledger);
        assert_eq!(delta.total_calls(), 1, "{table}: one Search, nothing else");
        let search = delta.kind(EcallKind::Search);
        let misses = db.metrics_report().counter("value_cache_misses_total") - misses;
        (
            search.untrusted_loads,
            search.values_decrypted,
            search.cache_hits,
            misses,
        )
    };

    // A small column, cached beforehand.
    assert_eq!(scan("small"), (2 * 64, 64, 0, 64));
    assert_eq!(scan("small"), (0, 0, 64, 0));

    // 12 288 entries = 1.5 × the cache: every scan is the uncached scan.
    let big = CACHE_ENTRIES * 3 / 2;
    assert_eq!(scan("big"), (2 * big, big, 0, 0), "first scan");
    assert_eq!(scan("big"), (2 * big, big, 0, 0), "second scan");

    // The bypassing scans evicted nothing: the small column still hits.
    assert_eq!(scan("small"), (0, 0, 64, 0));

    // Exactly the capacity still fits: admitted, and the second scan is
    // answered from trusted memory.
    assert_eq!(
        scan("fits"),
        (2 * CACHE_ENTRIES, CACHE_ENTRIES, 0, CACHE_ENTRIES)
    );
    assert_eq!(scan("fits"), (0, 0, CACHE_ENTRIES, 0));
}

/// DESIGN.md §6, cipher lifecycle: the enclave builds a column's cipher
/// once and keeps it. That must not be observable: over a seeded list of
/// searches on ED1, ED2 and ED9 columns, one long-lived enclave and a
/// fresh enclave per statement (which derives every cipher anew, as every
/// call used to) give identical replies — and, when no call carries a
/// cache tag, identical values in every field a ledger row is made from.
#[test]
fn kept_column_ciphers_answer_like_a_fresh_enclave_per_statement() {
    use encdbdb_crypto::hkdf::derive_column_key;
    use encdbdb_crypto::{Key128, Pae};
    use encdict::batch::{ReadCall, SearchCall};
    use encdict::build::{build_encrypted, BuildParams};
    use encdict::{CacheTag, DictEnclave, EncryptedRange, RangeQuery};
    use rand::Rng;
    use std::sync::Arc;

    let skdb = Key128::from_bytes([3; 16]);
    let mut rng = StdRng::seed_from_u64(7800);
    let value = |i: u32| format!("v{:04}", i % 300);
    let columns: Vec<_> = [EdKind::Ed1, EdKind::Ed2, EdKind::Ed9]
        .into_iter()
        .map(|kind| {
            let name = format!("c{}", kind.number());
            let sk_d = derive_column_key(&skdb, "t", &name);
            let col = Column::from_strs(name.as_str(), 8, (0..400).map(value)).unwrap();
            let params = BuildParams {
                table_name: "t".into(),
                col_name: name,
                bs_max: 4,
            };
            let (dict, _) = build_encrypted(&col, kind, &params, &sk_d, &mut rng).unwrap();
            (Arc::new(dict), Pae::new(&sk_d))
        })
        .collect();
    let provisioned = |seed: u64| {
        let mut enclave = DictEnclave::with_seed(seed);
        enclave.provision_direct(skdb.clone());
        enclave
    };

    for cached in [false, true] {
        let mut long_lived = provisioned(1);
        for statement in 0..150u64 {
            let c = rng.gen_range(0..columns.len());
            let (dict, pae) = &columns[c];
            let ranges = (0..rng.gen_range(1..4))
                .map(|_| {
                    let lo = rng.gen_range(0..300u32);
                    let query = RangeQuery::between(value(lo), value(lo + rng.gen_range(0..40u32)));
                    EncryptedRange::encrypt(pae, &mut rng, &query)
                })
                .collect();
            let call = ReadCall::Search(SearchCall {
                dict: Arc::clone(dict),
                ranges,
                cache: cached.then_some(CacheTag {
                    part: c as u64,
                    epoch: 0,
                    delta: false,
                }),
            });
            let row = |enclave: &mut DictEnclave| {
                let item = enclave.batch(vec![&call]).pop().expect("one reply");
                let fields = [
                    call.payload_bytes(),
                    item.reply.payload_bytes(),
                    item.reply.values_decrypted(item.untrusted_loads),
                    item.untrusted_loads,
                    item.untrusted_bytes,
                    item.cache_hits,
                    item.cache_misses,
                ];
                (item.reply.into_search().expect("search succeeds"), fields)
            };
            let (kept_reply, kept_fields) = row(&mut long_lived);
            let (fresh_reply, fresh_fields) = row(&mut provisioned(2 + statement));
            assert_eq!(kept_reply, fresh_reply, "statement {statement}");
            if !cached {
                assert_eq!(kept_fields, fresh_fields, "statement {statement}");
            }
        }
    }
}
