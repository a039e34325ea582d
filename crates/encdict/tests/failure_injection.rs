//! Failure injection: corrupted untrusted storage must surface as errors,
//! never as wrong results or panics inside the enclave.

use colstore::column::Column;
use colstore::delta::ValidityVector;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::aggregate::{AggFunc, AggPlanSpec, AggSpec, OutputItem, SortSpec};
use encdict::batch::{
    AggPartitionData, AggregateRequest, ColumnData, JoinBridgeRequest, JoinSideData, ReadCall,
};
use encdict::build::{build_encrypted, BuildParams};
use encdict::dynamic::record_ids;
use encdict::enclave_ops::{
    encrypt_value_for_column, DictCall, DictReply, MergeRequest, SearchRequest,
};
use encdict::persist;
use encdict::{
    DictEnclave, EdKind, EncdictError, EncryptedDictionary, EncryptedRange, RangeQuery, Segment,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn fixture(
    kind: EdKind,
) -> (
    DictEnclave,
    EncryptedDictionary,
    colstore::dictionary::AttributeVector,
    Pae,
    StdRng,
) {
    let mut rng = StdRng::seed_from_u64(kind.number() as u64);
    let skdb = Key128::from_bytes([6; 16]);
    let sk_d = derive_column_key(&skdb, "t", "c");
    let col = Column::from_strs("c", 8, ["d", "a", "c", "b", "a"]).unwrap();
    let params = BuildParams {
        table_name: "t".into(),
        col_name: "c".into(),
        bs_max: 2,
    };
    let (dict, av) = build_encrypted(&col, kind, &params, &sk_d, &mut rng).unwrap();
    let mut enclave = DictEnclave::with_seed(kind.number() as u64 + 100);
    enclave.provision_direct(skdb);
    (enclave, dict, av, Pae::new(&sk_d), rng)
}

/// Flip bytes across the serialized dictionary; either the deserializer
/// rejects the blob, or the enclave's authenticated decryption rejects the
/// search — never a silent wrong answer or a panic.
#[test]
fn bit_flips_never_panic_or_lie() {
    for kind in [EdKind::Ed1, EdKind::Ed2, EdKind::Ed3] {
        let (mut enclave, dict, av, pae, mut rng) = fixture(kind);
        let blob = persist::to_bytes(&dict, &av);
        let query = RangeQuery::between("a", "d");
        let tau = EncryptedRange::encrypt(&pae, &mut rng, &query);
        let baseline = enclave.search(&dict, &tau).unwrap().match_count();
        assert!(baseline >= 4, "baseline sanity for {kind}");

        for pos in (0..blob.len()).step_by(7) {
            let mut bad = blob.clone();
            bad[pos] ^= 0x20;
            let Ok((bad_dict, _bad_av)) = persist::from_bytes(&bad) else {
                continue; // structural rejection: good.
            };
            match enclave.search(&bad_dict, &tau) {
                Err(_) => {} // authenticated decryption caught it: good.
                Ok(result) => {
                    // The flip may have landed in AV bytes, which the
                    // dictionary search never reads; then the dictionary
                    // result must equal the baseline.
                    assert_eq!(
                        result.match_count(),
                        baseline,
                        "{kind}: silent result change from flip at {pos}"
                    );
                }
            }
        }
    }
}

/// A head entry whose length points past the tail must produce
/// CorruptDictionary (bounds check), not a panic.
#[test]
fn out_of_range_head_offset_detected() {
    let (mut enclave, dict, av, pae, mut rng) = fixture(EdKind::Ed3);
    let blob = persist::to_bytes(&dict, &av);
    // First ciphertext length prefix position: MAGIC(8) + kind(1) +
    // table "t" (8+1) + col "c" (8+1) + max_len(8) + len(8).
    let first_len_pos = 8 + 1 + 9 + 9 + 8 + 8;
    let mut bad = blob.clone();
    bad[first_len_pos] = bad[first_len_pos].wrapping_add(200);
    if let Ok((bad_dict, _)) = persist::from_bytes(&bad) {
        let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("a"));
        assert!(enclave.search(&bad_dict, &tau).is_err());
    }
}

/// An ED2 dictionary stripped of its rotation offset must be rejected.
#[test]
fn missing_rotation_offset_rejected() {
    let (mut enclave, dict, av, pae, mut rng) = fixture(EdKind::Ed2);
    let blob = persist::to_bytes(&dict, &av);
    let av_bytes = 8 + av.len() * 4;
    let enc_off_len = dict.enc_rnd_offset().unwrap().len();
    let flag_pos = blob.len() - av_bytes - (8 + enc_off_len) - 1;
    assert_eq!(blob[flag_pos], 1, "flag located");
    let mut bad = Vec::new();
    bad.extend_from_slice(&blob[..flag_pos]);
    bad.push(0);
    bad.extend_from_slice(&blob[blob.len() - av_bytes..]);
    let (bad_dict, _) = persist::from_bytes(&bad).unwrap();
    let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("a"));
    let err = enclave.search(&bad_dict, &tau).unwrap_err();
    assert!(matches!(err, encdict::EncdictError::CorruptDictionary(_)));
}

/// Appends `value` to `delta` the way the server's insert path does: the
/// proxy's ciphertext is re-encrypted by the enclave, then stored.
fn delta_insert(
    enclave: &mut DictEnclave,
    delta: &mut EncryptedDictionary,
    pae: &Pae,
    rng: &mut StdRng,
    value: &[u8],
) {
    let ct = encrypt_value_for_column(pae, rng, value);
    let fresh = enclave.reencrypt("t", "c", ct.as_bytes()).unwrap();
    delta.push(fresh.as_bytes());
}

/// One `Merge` ECALL folding every row of `delta` into every row of the
/// main store `dict`/`av` — the request the server's compaction builds.
fn merge(
    enclave: &mut DictEnclave,
    dict: &EncryptedDictionary,
    av: &colstore::dictionary::AttributeVector,
    delta: &EncryptedDictionary,
    kind: EdKind,
) -> Result<(EncryptedDictionary, colstore::dictionary::AttributeVector), EncdictError> {
    enclave.merge(MergeRequest {
        table_name: "t",
        col_name: "c",
        max_len: 8,
        kind,
        bs_max: 2,
        main: dict.segment().view(),
        main_av: av,
        main_valid: &ValidityVector::all_valid(av.len()),
        delta: delta.segment().view(),
        delta_valid: &ValidityVector::all_valid(delta.len()),
    })
}

/// RecordIDs matching `range` in one main store.
fn search_main(
    enclave: &mut DictEnclave,
    dict: &EncryptedDictionary,
    av: &colstore::dictionary::AttributeVector,
    range: &EncryptedRange,
) -> Vec<colstore::dictionary::RecordId> {
    let result = enclave.search(dict, range).unwrap();
    encdict::avsearch::scan(av, &[result])
}

/// A `Merge` ECALL that fails mid-merge — here because a main-store
/// ciphertext was corrupted, so the enclave's authenticated decryption
/// errors partway through reassembling the column — must leave both the
/// old main store and the delta store intact and queryable. Nothing is
/// published, nothing is reset.
#[test]
fn failed_merge_leaves_old_store_and_delta_intact() {
    let (mut enclave, dict, av, pae, mut rng) = fixture(EdKind::Ed3);
    let mut delta = EncryptedDictionary::delta("t", "c", 8);
    for v in ["e", "f"] {
        delta_insert(&mut enclave, &mut delta, &pae, &mut rng, v.as_bytes());
    }
    let delta_before = delta.clone();

    // Corrupt one main ciphertext byte via the persist round-trip (the
    // dictionary's internals are immutable from outside).
    let blob = persist::to_bytes(&dict, &av);
    let mut bad = blob.clone();
    let tail_pos = 8 + 1 + 9 + 9 + 8 + 8 + 12 + 4; // inside ciphertext 0
    bad[tail_pos] ^= 0x40;
    let (bad_dict, _) = persist::from_bytes(&bad).expect("structurally intact");

    let err = merge(&mut enclave, &bad_dict, &av, &delta, EdKind::Ed3).unwrap_err();
    assert!(matches!(err, encdict::EncdictError::Crypto(_)), "{err:?}");

    // The delta was not touched by the failed merge...
    assert_eq!(delta.len(), 2);
    for i in 0..2 {
        assert_eq!(delta.ciphertext(i), delta_before.ciphertext(i));
    }
    assert_eq!(delta.storage_size(), delta_before.storage_size());
    // ...and the *original* (uncorrupted) store plus the delta still
    // answer combined reads correctly.
    let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("a", "f"));
    let main_rids = search_main(&mut enclave, &dict, &av, &range);
    assert_eq!(main_rids.len(), 5, "main rows a,b,c,d,a all match");
    let results = enclave
        .search_multi(&delta, std::slice::from_ref(&range), None)
        .unwrap();
    let delta_rids = record_ids(delta.len(), &results).unwrap();
    assert_eq!(delta_rids.len(), 2, "delta rows e,f both match");

    // The same merge against the intact store succeeds — recovery needs
    // no special handling.
    let (new_dict, new_av) = merge(&mut enclave, &dict, &av, &delta, EdKind::Ed3).unwrap();
    assert_eq!(new_av.len(), 7);
    let range = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("a", "f"));
    let rids = search_main(&mut enclave, &new_dict, &new_av, &range);
    assert_eq!(rids.len(), 7, "all merged rows match [a, f]");
}

/// A merge attempted on an enclave that was never provisioned fails with
/// `KeyNotProvisioned` and leaves the delta intact; re-running it on a
/// provisioned enclave recovers.
#[test]
fn unprovisioned_merge_enclave_fails_cleanly() {
    let (mut enclave, dict, av, pae, mut rng) = fixture(EdKind::Ed1);
    let mut delta = EncryptedDictionary::delta("t", "c", 8);
    delta_insert(&mut enclave, &mut delta, &pae, &mut rng, b"z");

    let mut cold = DictEnclave::with_seed(999); // never provisioned
    let err = merge(&mut cold, &dict, &av, &delta, EdKind::Ed1).unwrap_err();
    assert_eq!(err, encdict::EncdictError::KeyNotProvisioned);
    assert_eq!(delta.len(), 1, "failed merge must not consume the delta");

    let (_, new_av) = merge(&mut enclave, &dict, &av, &delta, EdKind::Ed1).unwrap();
    assert_eq!(new_av.len(), 6);
}

/// A rotation offset re-encrypted under the wrong key is rejected before
/// any dictionary entry is touched.
#[test]
fn swapped_rotation_offset_rejected() {
    let (mut enclave, dict, av, pae, mut rng) = fixture(EdKind::Ed2);
    // Replace the offset ciphertext with one under a different key.
    let wrong_pae = Pae::new(&Key128::from_bytes([0xEE; 16]));
    let forged = wrong_pae
        .encrypt_with_rng(&mut rng, &0u64.to_le_bytes(), b"encdbdb/rot-offset/v1")
        .into_bytes();
    let blob = persist::to_bytes(&dict, &av);
    let av_bytes = 8 + av.len() * 4;
    let enc_off_len = dict.enc_rnd_offset().unwrap().len();
    let field_start = blob.len() - av_bytes - (8 + enc_off_len);
    assert_eq!(enc_off_len, forged.len());
    let mut bad = blob.clone();
    bad[field_start + 8..field_start + 8 + enc_off_len].copy_from_slice(&forged);
    let (bad_dict, _) = persist::from_bytes(&bad).unwrap();
    let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::equals("a"));
    let err = enclave.search(&bad_dict, &tau).unwrap_err();
    assert!(matches!(err, encdict::EncdictError::Crypto(_)));
}

/// `dict`'s store as a malicious server may hand it to the enclave, honest
/// except for one entry: entry 0 claims an offset whose sum with the
/// length wraps `usize`; entry 0 claims a length that runs past the tail;
/// the last entry is missing from the head altogether. Each item is
/// `(lie, store, index of the entry lied about)`; the stores come from
/// [`Segment::from_raw_unchecked`], which exists for this.
fn lying_segments(dict: &EncryptedDictionary) -> Vec<(&'static str, Segment, usize)> {
    let mut tail = Vec::new();
    let mut entries = Vec::new();
    for i in 0..dict.len() {
        let ct = dict.ciphertext(i);
        entries.push((tail.len() as u64, ct.len() as u32));
        tail.extend_from_slice(ct);
    }
    let head_with = |first: (u64, u32)| {
        let mut head = Vec::new();
        encdict::dict::write_head_entry(&mut head, first.0, first.1);
        for &(offset, len) in &entries[1..] {
            encdict::dict::write_head_entry(&mut head, offset, len);
        }
        head
    };
    let mut short = head_with(entries[0]);
    short.truncate(short.len() - encdict::dict::HEAD_ENTRY_BYTES);
    let past_tail = head_with((entries[0].0, tail.len() as u32 + 1));
    let liar = |head, tail: &Vec<u8>| Segment::from_raw_unchecked(head, tail.clone(), dict.len());
    vec![
        ("offset wraps", liar(head_with((u64::MAX, 2)), &tail), 0),
        ("length past the tail", liar(past_tail, &tail), 0),
        (
            "head shorter than claimed",
            liar(short, &tail),
            dict.len() - 1,
        ),
    ]
}

fn assert_corrupt<T: std::fmt::Debug>(what: &str, lie: &str, reply: Result<T, EncdictError>) {
    assert!(
        matches!(reply, Err(EncdictError::CorruptDictionary(_))),
        "{what} with {lie}: {reply:?}"
    );
}

/// A head entry is untrusted bytes. Whatever it claims, a search answers
/// `CorruptDictionary` — it never follows the claim out of the tail (the
/// wrapping offset used to pass `offset + len > tail.len()` in release
/// builds and panic inside the enclave's load).
#[test]
fn lying_head_fails_search() {
    let (mut enclave, dict, _, pae, mut rng) = fixture(EdKind::Ed3);
    let tau = EncryptedRange::encrypt(&pae, &mut rng, &RangeQuery::between("a", "d"));
    for (lie, store, _) in lying_segments(&dict) {
        let req = SearchRequest {
            kind: EdKind::Ed3,
            table_name: "t",
            col_name: "c",
            max_len: 8,
            store: store.view(),
            enc_rnd_offset: None,
            ranges: std::slice::from_ref(&tau),
            cache: None,
        };
        let DictReply::Search(reply) = enclave.enclave_mut().ecall(DictCall::Search(req)) else {
            panic!("search call returns search reply");
        };
        assert_corrupt("Search", lie, reply);
    }
}

/// The same lies in the delta store of an aggregate and of a join
/// bridge, submitted the way the scheduler submits them (`ReadCall`).
#[test]
fn lying_head_fails_aggregate_and_join_bridge() {
    let (mut enclave, dict, _, _, _) = fixture(EdKind::Ed3);
    let dict = Arc::new(dict);
    for (lie, store, entry) in lying_segments(&dict) {
        // The column's main store is honest; its delta store is the
        // liar, and the one requested code is the delta entry lied about.
        let delta = EncryptedDictionary::new(EdKind::Ed9, "t".into(), "c".into(), 8, store, None);
        let delta = Arc::new(delta);
        let column = || ColumnData::Encrypted {
            main: Arc::clone(&dict),
            delta: Arc::clone(&delta),
            codes: vec![(dict.len() + entry) as u32],
            cache: None,
        };

        let aggregate = ReadCall::Aggregate(AggregateRequest {
            table_name: "t".into(),
            col_names: vec![Some("c".into())],
            parts: vec![AggPartitionData {
                columns: vec![column()],
                tuples: vec![(vec![0], 1)],
            }],
            plan: AggPlanSpec {
                group_cols: vec![0],
                aggregates: vec![AggSpec {
                    func: AggFunc::Count,
                    col: None,
                }],
                items: vec![OutputItem::Group(0), OutputItem::Agg(0)],
                sort: vec![],
                limit: None,
            },
        });
        let side = || JoinSideData {
            table_name: "t".into(),
            col_name: Some("c".into()),
            parts: vec![column()],
        };
        let bridge = ReadCall::JoinBridge(JoinBridgeRequest {
            left: side(),
            right: side(),
        });

        let mut replies = enclave.batch(vec![&aggregate, &bridge]).into_iter();
        let reply = replies.next().expect("aggregate reply").reply;
        assert_corrupt("Aggregate", lie, reply.into_aggregated());
        let reply = replies.next().expect("bridge reply").reply;
        assert_corrupt("JoinBridge", lie, reply.into_bridged());
    }
}

/// And in the main store handed to a merge.
#[test]
fn lying_head_fails_merge() {
    let (mut enclave, dict, av, _, _) = fixture(EdKind::Ed3);
    let validity = ValidityVector::all_valid(av.len());
    let (no_delta, no_rows) = (Segment::default(), ValidityVector::all_valid(0));
    for (lie, store, _) in lying_segments(&dict) {
        let req = MergeRequest {
            table_name: "t",
            col_name: "c",
            max_len: 8,
            kind: EdKind::Ed3,
            bs_max: 2,
            main: store.view(),
            main_av: &av,
            main_valid: &validity,
            delta: no_delta.view(),
            delta_valid: &no_rows,
        };
        assert_corrupt("Merge", lie, enclave.merge(req));
    }
}

/// The server names the columns of every call, and the enclave keeps a
/// cipher per name. Ten thousand calls naming ten thousand columns that do
/// not exist each end in a typed error, hold a bounded amount of trusted
/// memory between them (the table used to keep every name for the life of
/// the enclave), and leave an enclave that still answers for a real
/// column.
#[test]
fn bogus_column_names_hold_bounded_trusted_memory() {
    // 256 columns of ~0.5 KiB cipher and a short name each (DESIGN.md §6)
    // plus the five cached 1-byte values below.
    const TRUSTED_HEAP_BOUND: usize = 256 * 1024;

    let (mut enclave, dict, _, pae, mut rng) = fixture(EdKind::Ed1);
    let tau = [EncryptedRange::encrypt(
        &pae,
        &mut rng,
        &RangeQuery::between("a", "d"),
    )];
    let tag = Some(encdict::CacheTag {
        part: 0,
        epoch: 0,
        delta: false,
    });
    let answer = enclave.search_multi(&dict, &tau, tag).unwrap();
    assert_eq!(answer[0].match_count(), 4);
    let warm = enclave.enclave().counters();
    enclave.search_multi(&dict, &tau, tag).unwrap();
    let hot = enclave.enclave().counters();
    assert!(
        hot.cache_hits > warm.cache_hits,
        "the real column is cached"
    );
    assert_eq!(hot.untrusted_loads, warm.untrusted_loads);

    let dict = Arc::new(dict);
    let no_delta = Arc::new(EncryptedDictionary::delta("t", "c", 8));
    let column = |cache| ColumnData::Encrypted {
        main: Arc::clone(&dict),
        delta: Arc::clone(&no_delta),
        codes: vec![0],
        cache,
    };
    for i in 0..10_000u64 {
        let name = format!("no_such_column_{i}");
        // Aggregates and bridges alternate, cached and uncached alike.
        let cache = (i % 4 < 2).then_some((i, 0));
        let reply = if i % 2 == 0 {
            let call = ReadCall::Aggregate(AggregateRequest {
                table_name: "t".into(),
                col_names: vec![Some(name)],
                parts: vec![AggPartitionData {
                    columns: vec![column(cache)],
                    tuples: vec![(vec![0], 1)],
                }],
                plan: AggPlanSpec {
                    group_cols: vec![0],
                    aggregates: vec![],
                    items: vec![OutputItem::Group(0)],
                    sort: vec![],
                    limit: None,
                },
            });
            let reply = enclave.batch(vec![&call]).pop().expect("one reply").reply;
            reply.into_aggregated().map(drop)
        } else {
            let side = |col_name: String| JoinSideData {
                table_name: "t".into(),
                col_name: Some(col_name),
                parts: vec![column(cache)],
            };
            let call = ReadCall::JoinBridge(JoinBridgeRequest {
                left: side(name.clone()),
                right: side(name + "_r"),
            });
            let reply = enclave.batch(vec![&call]).pop().expect("one reply").reply;
            reply.into_bridged().map(drop)
        };
        assert!(
            matches!(reply, Err(EncdictError::Crypto(_))),
            "call {i}: {reply:?}"
        );
        let held = enclave.enclave().trusted_heap_current();
        assert!(
            held <= TRUSTED_HEAP_BOUND,
            "{held} trusted bytes after {i} calls"
        );
    }
    // A name too long to keep is refused before anything is derived.
    let long = "c".repeat(4096);
    let err = enclave
        .reencrypt("t", &long, dict.ciphertext(0))
        .unwrap_err();
    assert!(matches!(err, EncdictError::CorruptDictionary(_)), "{err:?}");

    // The flood pushed the real column out with everything else; it is
    // rebuilt on demand, answers as before and is cached again.
    assert_eq!(enclave.search_multi(&dict, &tau, tag).unwrap(), answer);
    let warm = enclave.enclave().counters();
    assert_eq!(enclave.search_multi(&dict, &tau, tag).unwrap(), answer);
    let hot = enclave.enclave().counters();
    assert_eq!(hot.untrusted_loads, warm.untrusted_loads);
    assert!(enclave.enclave().trusted_heap_current() <= TRUSTED_HEAP_BOUND);
}

/// The aggregate plan is server-sent too, and the enclave indexes with
/// it: the group key and accumulators when it finalizes, the items when
/// it sorts, the request's columns when it re-encrypts a cell. Each lie
/// below names an index the request does not have and used to panic
/// inside the enclave. Each is now refused as `CorruptDictionary` before
/// a cipher is built or a value decrypted, so the trusted heap does not
/// move.
#[test]
fn lying_aggregate_plan_is_a_typed_error() {
    let (mut enclave, dict, _, _, _) = fixture(EdKind::Ed1);
    let (dict, no_delta) = (
        Arc::new(dict),
        Arc::new(EncryptedDictionary::delta("t", "c", 8)),
    );
    let count = |col| AggSpec {
        func: AggFunc::Count,
        col,
    };
    let plan = |group_cols, aggregates, items, sort| AggPlanSpec {
        group_cols,
        aggregates,
        items,
        sort,
        limit: None,
    };
    let (group, agg) = (OutputItem::Group, OutputItem::Agg);
    let past_items = SortSpec {
        item: 1,
        desc: false,
    };
    // (lie, plan, whether the request carries a partition of two groups)
    let lies = [
        (
            "an item names a missing group column",
            plan(vec![], vec![], vec![group(0)], vec![]),
            false,
        ),
        (
            "an item names a missing aggregate",
            plan(vec![], vec![count(None)], vec![agg(1)], vec![]),
            false,
        ),
        (
            "an aggregate reads a missing column",
            plan(vec![], vec![count(Some(1))], vec![agg(0)], vec![]),
            false,
        ),
        (
            "a sort key names a missing item",
            plan(vec![0], vec![], vec![group(0)], vec![past_items]),
            true,
        ),
    ];
    for (lie, plan, with_part) in lies {
        let part = AggPartitionData {
            columns: vec![ColumnData::Encrypted {
                main: Arc::clone(&dict),
                delta: Arc::clone(&no_delta),
                codes: vec![0, 1],
                cache: None,
            }],
            tuples: vec![(vec![0], 1), (vec![1], 1)],
        };
        let call = ReadCall::Aggregate(AggregateRequest {
            table_name: "t".into(),
            col_names: vec![Some("c".into())],
            parts: if with_part { vec![part] } else { vec![] },
            plan,
        });
        let before = enclave.enclave().trusted_heap_current();
        let reply = enclave.batch(vec![&call]).pop().expect("one reply").reply;
        assert_corrupt("Aggregate", lie, reply.into_aggregated());
        assert_eq!(enclave.enclave().trusted_heap_current(), before, "{lie}");
    }
}

/// A column's entries served under another column's name: column `a`'s
/// store relabelled as column `b` of the same table. The enclave opens
/// `b`'s entries under `b`'s key, so none authenticates — not even with
/// `a`'s values cached under the same partition and epoch, because the
/// cache keys by column too.
#[test]
fn entries_relabelled_to_another_column_fail_authentication() {
    let skdb = Key128::from_bytes([6; 16]);
    let key = |col| derive_column_key(&skdb, "t", col);
    let column = Column::from_strs("a", 8, ["d", "a", "c", "b", "a"]).unwrap();
    let params = BuildParams {
        table_name: "t".into(),
        col_name: "a".into(),
        bs_max: 2,
    };
    let query = RangeQuery::between("a", "d");
    let tag = Some(encdict::CacheTag {
        part: 0,
        epoch: 0,
        delta: false,
    });
    for kind in [EdKind::Ed1, EdKind::Ed2, EdKind::Ed3] {
        let mut rng = StdRng::seed_from_u64(kind.number() as u64);
        let (dict, _) = build_encrypted(&column, kind, &params, &key("a"), &mut rng).unwrap();
        let mut enclave = DictEnclave::with_seed(7);
        enclave.provision_direct(skdb.clone());
        let tau = [EncryptedRange::encrypt(
            &Pae::new(&key("a")),
            &mut rng,
            &query,
        )];
        enclave.search_multi(&dict, &tau, tag).unwrap();

        let offset = dict.enc_rnd_offset().map(<[u8]>::to_vec);
        let segment = dict.segment().clone();
        let b = EncryptedDictionary::new(kind, "t".into(), "b".into(), 8, segment, offset);
        let tau = [EncryptedRange::encrypt(
            &Pae::new(&key("b")),
            &mut rng,
            &query,
        )];
        let reply = enclave.search_multi(&b, &tau, tag);
        assert!(
            matches!(reply, Err(EncdictError::Crypto(_))),
            "{kind} Search: {reply:?}"
        );

        let (b, no_delta) = (
            Arc::new(b),
            Arc::new(EncryptedDictionary::delta("t", "b", 8)),
        );
        let column = || ColumnData::Encrypted {
            main: Arc::clone(&b),
            delta: Arc::clone(&no_delta),
            codes: vec![0, 1],
            cache: Some((0, 0)),
        };
        let aggregate = ReadCall::Aggregate(AggregateRequest {
            table_name: "t".into(),
            col_names: vec![Some("b".into())],
            parts: vec![AggPartitionData {
                columns: vec![column()],
                tuples: vec![(vec![0], 1), (vec![1], 1)],
            }],
            plan: AggPlanSpec {
                group_cols: vec![0],
                aggregates: vec![],
                items: vec![OutputItem::Group(0)],
                sort: vec![],
                limit: None,
            },
        });
        let side = || JoinSideData {
            table_name: "t".into(),
            col_name: Some("b".into()),
            parts: vec![column()],
        };
        let bridge = ReadCall::JoinBridge(JoinBridgeRequest {
            left: side(),
            right: side(),
        });
        let mut replies = enclave.batch(vec![&aggregate, &bridge]).into_iter();
        let reply = replies
            .next()
            .expect("aggregate reply")
            .reply
            .into_aggregated();
        assert!(
            matches!(reply, Err(EncdictError::Crypto(_))),
            "{kind} Aggregate: {reply:?}"
        );
        let reply = replies.next().expect("bridge reply").reply.into_bridged();
        assert!(
            matches!(reply, Err(EncdictError::Crypto(_))),
            "{kind} JoinBridge: {reply:?}"
        );
    }
}
