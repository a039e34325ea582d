//! Unit tests of the server core: table creation, partition
//! routing, policy thresholds — and what the partition's four transitions
//! promise: a recovered partition *is* the live one, and a failed merge
//! changes nothing.

use super::*;
use crate::schema::{ColumnSpec, TablePartitioning};
use crate::session::Session;
use encdbdb_crypto::hkdf::derive_column_key;
use encdbdb_crypto::{Key128, Pae};
use encdict::enclave_ops::encrypt_value_for_column;
use encdict::{EdKind, EncdictError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("name", DictChoice::Encrypted(EdKind::Ed1), 12),
            ColumnSpec::new("city", DictChoice::Plain, 12),
        ],
    )
}

/// The tests' way in is the proxy's: `execute_query`.
fn affected(server: &DbaasServer, query: ServerQuery) -> Result<usize, DbError> {
    match server.execute_query(query)? {
        QueryOutcome::Affected(n) => Ok(n),
        QueryOutcome::Rows(_) => panic!("a write answers with a row count"),
    }
}

fn insert(server: &DbaasServer, table: &str, rows: &[Vec<CellValue>]) -> Result<usize, DbError> {
    let (table, rows) = (table.to_string(), rows.to_vec());
    affected(
        server,
        ServerQuery::Insert {
            table,
            rows,
            partition_ids: None,
        },
    )
}

fn delete(server: &DbaasServer, table: &str, filters: &[ServerFilter]) -> Result<usize, DbError> {
    let (table, filters) = (table.to_string(), filters.to_vec());
    affected(
        server,
        ServerQuery::Delete {
            table,
            filters,
            scope: None,
        },
    )
}

/// The rows of `SELECT * FROM table WHERE filters`.
fn select(server: &DbaasServer, table: &str, filters: &[ServerFilter]) -> Vec<Vec<CellValue>> {
    let query = ServerQuery::Select {
        table: table.to_string(),
        columns: Vec::new(),
        filters: filters.to_vec(),
        scope: None,
    };
    match server.execute_query(query).unwrap() {
        QueryOutcome::Rows(response) => response.rows,
        QueryOutcome::Affected(_) => panic!("a select answers with rows"),
    }
}

#[test]
fn create_empty_table_and_count() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(1));
    server.create_table(schema()).unwrap();
    assert_eq!(server.row_count("t").unwrap(), 0);
    assert!(server.create_table(schema()).is_err(), "duplicate rejected");
    assert!(server.row_count("missing").is_err());
    assert_eq!(server.epoch("t").unwrap(), 0);
    assert!(!server.merge_in_flight("t").unwrap());
}

#[test]
fn create_partitioned_table_has_one_state_per_shard() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(9));
    let schema = schema().with_partitioning(TablePartitioning::new(
        "city",
        vec![b"g".to_vec(), b"p".to_vec()],
    ));
    server.create_table(schema).unwrap();
    let stats = server.compaction_stats("t").unwrap();
    assert_eq!(stats.partition_epochs, vec![0, 0, 0]);
    assert_eq!(server.row_count("t").unwrap(), 0);
}

#[test]
fn invalid_partitioning_specs_rejected() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(10));
    let unsorted = schema().with_partitioning(TablePartitioning::new(
        "city",
        vec![b"p".to_vec(), b"g".to_vec()],
    ));
    assert!(matches!(
        server.create_table(unsorted),
        Err(DbError::Partition(_))
    ));
    let ghost = schema().with_partitioning(TablePartitioning::new("ghost", vec![b"g".to_vec()]));
    assert!(matches!(
        server.create_table(ghost),
        Err(DbError::ColumnNotFound(_))
    ));
    // A partitioned schema cannot take the single-set deploy path.
    let part = schema().with_partitioning(TablePartitioning::new("city", vec![b"g".to_vec()]));
    assert!(matches!(
        server.deploy_table(part, vec![]),
        Err(DbError::Partition(_))
    ));
}

#[test]
fn insert_requires_matching_arity_and_forms() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(2));
    server.provision_direct(encdbdb_crypto::Key128::from_bytes([1; 16]));
    server.create_table(schema()).unwrap();
    // Wrong arity.
    let err = insert(&server, "t", &[vec![CellValue::Plain(b"x".to_vec())]]).unwrap_err();
    assert!(matches!(err, DbError::ArityMismatch { .. }));
    // Wrong form (plain cell for encrypted column).
    let err = insert(
        &server,
        "t",
        &[vec![
            CellValue::Plain(b"x".to_vec()),
            CellValue::Plain(b"y".to_vec()),
        ]],
    )
    .unwrap_err();
    assert!(matches!(err, DbError::UnsupportedFilter(_)));
}

/// A column's storage size counts its delta store, whatever the column's
/// protection: an INSERT into a PLAIN column grows it, and a merge that
/// folds the row moves the bytes into the main store. An over-long PLAIN
/// cell is refused before it reaches the delta.
#[test]
fn plain_column_storage_size_counts_its_delta() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(11));
    server.set_compaction_policy(None);
    let schema = TableSchema::new("p", vec![ColumnSpec::new("v", DictChoice::Plain, 8)]);
    server.create_table(schema).unwrap();
    let empty = server.column_storage_size("p", "v").unwrap();
    let long = vec![CellValue::Plain(b"ninebytes".to_vec())];
    let err = insert(&server, "p", &[long]).unwrap_err();
    assert!(
        matches!(err, DbError::ValueTooLong { got: 9, max: 8 }),
        "{err:?}"
    );
    assert_eq!(server.column_storage_size("p", "v").unwrap(), empty);
    insert(&server, "p", &[vec![CellValue::Plain(b"apple".to_vec())]]).unwrap();
    let with_delta = server.column_storage_size("p", "v").unwrap();
    assert!(with_delta > empty, "{with_delta} <= {empty}");
    server.merge_table("p").unwrap();
    assert!(server.column_storage_size("p", "v").unwrap() > empty);
}

#[test]
fn compaction_policy_thresholds() {
    let policy = CompactionPolicy {
        max_delta_rows: 10,
        max_invalid_fraction: 0.5,
    };
    assert!(!policy.triggered(9, 100, 100));
    assert!(policy.triggered(10, 100, 100));
    assert!(!policy.triggered(0, 100, 51));
    assert!(policy.triggered(0, 100, 50));
    assert!(!policy.triggered(0, 0, 0), "empty table never triggers");
}

#[test]
fn plain_partition_column_routes_server_side() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(3));
    server.provision_direct(encdbdb_crypto::Key128::from_bytes([2; 16]));
    let schema = TableSchema::new("r", vec![ColumnSpec::new("v", DictChoice::Plain, 8)])
        .with_partitioning(TablePartitioning::new("v", vec![b"m".to_vec()]));
    server.create_table(schema).unwrap();
    insert(
        &server,
        "r",
        &[
            vec![CellValue::Plain(b"apple".to_vec())],
            vec![CellValue::Plain(b"zebra".to_vec())],
            vec![CellValue::Plain(b"m".to_vec())],
        ],
    )
    .unwrap();
    // Shard 0: < "m" (apple); shard 1: >= "m" (zebra, m).
    let t = server.table_handle("r").unwrap();
    assert_eq!(lock(&t.partitions[0].state).delta_rows(), 1);
    assert_eq!(lock(&t.partitions[1].state).delta_rows(), 2);
    assert_eq!(server.row_count("r").unwrap(), 3);
}

#[test]
fn encrypted_partition_column_requires_routing_ids() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(4));
    server.provision_direct(encdbdb_crypto::Key128::from_bytes([3; 16]));
    let schema = TableSchema::new(
        "e",
        vec![ColumnSpec::new("v", DictChoice::Encrypted(EdKind::Ed9), 8)],
    )
    .with_partitioning(TablePartitioning::new("v", vec![b"m".to_vec()]));
    server.create_table(schema).unwrap();
    let err = insert(&server, "e", &[vec![CellValue::Encrypted(vec![0; 16])]]).unwrap_err();
    assert!(matches!(err, DbError::Partition(_)));
}

/// A unique, pre-cleaned storage directory for one test case.
fn storage_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("encdbdb-server-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything the four transitions own, per partition: epoch, absolute
/// delta base, row counts, both validity bit patterns and every delta
/// cell. (Main-store *cells* are left out: a merge that recovery
/// re-executes rebuilds them under fresh randomness, by design.)
#[derive(Debug, PartialEq)]
struct PartitionImage {
    epoch: u64,
    drained_total: u64,
    delta_rows: usize,
    main_invalid: usize,
    main_validity: Vec<bool>,
    delta_validity: Vec<bool>,
    delta_cells: Vec<Vec<Vec<u8>>>,
}

fn images(server: &DbaasServer, table: &str) -> Vec<PartitionImage> {
    let t = server.table_handle(table).unwrap();
    t.partitions
        .iter()
        .map(|p| {
            let (epoch, drained_total, delta_rows, main_invalid) = {
                let state = lock(&p.state);
                assert!(!state.merge_in_flight());
                (
                    state.main().epoch,
                    state.drained_total(),
                    state.delta_rows(),
                    state.main_invalid(),
                )
            };
            let snap = p.snapshot();
            assert_eq!(snap.epoch(), epoch);
            PartitionImage {
                epoch,
                drained_total,
                delta_rows,
                main_invalid,
                main_validity: (0..snap.main.rows)
                    .map(|i| snap.main_validity.is_valid(i))
                    .collect(),
                delta_validity: (0..delta_rows)
                    .map(|i| snap.delta_validity.is_valid(i))
                    .collect(),
                delta_cells: (0..delta_rows)
                    .map(|i| snap.deltas.iter().map(|d| d.value(i).to_vec()).collect())
                    .collect(),
            }
        })
        .collect()
}

/// The tentpole's promise, checked on state and not only on answers: a
/// seeded stream of inserts, deletes, foreground and background merges on
/// a durable server, then recovery into a fresh server — from the newest
/// snapshots, and again with the newest snapshot of every partition
/// removed so that recovery must re-execute logged merges — yields the
/// same partitions, field for field.
#[test]
fn recovered_partition_state_equals_live_state() {
    let mut merges_replayed = 0;
    for shards in [1usize, 4] {
        for choice in ["ED1", "ED5", "ED9", "PLAIN"] {
            let tag = format!("state-{choice}-{shards}");
            let dir = storage_dir(&tag);
            let seed = 7000 + shards as u64 * 10 + choice.len() as u64;
            let mut db = Session::with_seed_durable(seed, &dir).unwrap();
            db.set_compaction_policy(None);
            let partitioning = if shards > 1 {
                " PARTITION BY RANGE (v) SPLIT ('0015', '0030', '0045')"
            } else {
                ""
            };
            db.execute(&format!("CREATE TABLE t (v {choice}(8)){partitioning}"))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let insert = |db: &mut Session, rng: &mut StdRng| {
                let values: Vec<String> = (0..rng.gen_range(1..4usize))
                    .map(|_| format!("'{:04}'", rng.gen_range(0..60u32)))
                    .collect();
                let tuples: Vec<String> = values.iter().map(|v| format!("({v})")).collect();
                db.execute(&format!("INSERT INTO t VALUES {}", tuples.join(", ")))
                    .unwrap();
                values
            };
            let delete = |db: &mut Session, lo: u32, hi: u32| {
                db.execute(&format!(
                    "DELETE FROM t WHERE v BETWEEN '{lo:04}' AND '{hi:04}'"
                ))
                .unwrap();
            };
            for _ in 0..70 {
                match rng.gen_range(0..10u32) {
                    0..=5 => drop(insert(&mut db, &mut rng)),
                    6..=7 => {
                        let lo = rng.gen_range(0..58u32);
                        delete(&mut db, lo, lo + rng.gen_range(0..3u32));
                    }
                    8 => db.merge("t").unwrap(),
                    _ => {
                        db.server().spawn_compaction("t").unwrap();
                        db.server().wait_for_compaction("t").unwrap();
                    }
                }
            }
            // End on a live delta, with deleted rows in it and in the main
            // store under it.
            let in_main = insert(&mut db, &mut rng);
            db.merge("t").unwrap();
            insert(&mut db, &mut rng);
            let in_delta = insert(&mut db, &mut rng);
            db.execute(&format!("DELETE FROM t WHERE v = {}", in_main[0]))
                .unwrap();
            db.execute(&format!("DELETE FROM t WHERE v = {}", in_delta[0]))
                .unwrap();

            let live = images(db.server(), "t");
            assert!(live.iter().any(|p| p.epoch > 0 && p.main_invalid > 0));
            assert!(live.iter().any(|p| p.delta_validity.contains(&false)));
            let key = db.master_key();
            drop(db);

            let recovered = Session::open(&dir, key.clone(), seed + 1).unwrap();
            assert_eq!(images(recovered.server(), "t"), live, "{tag}");
            drop(recovered);

            for (pid, image) in live.iter().enumerate() {
                if image.epoch > 0 {
                    std::fs::remove_file(dir.join(format!("t/p{pid}-e{}.snap", image.epoch)))
                        .unwrap();
                }
            }
            let replayed = Session::open(&dir, key, seed + 2).unwrap();
            assert_eq!(
                images(replayed.server(), "t"),
                live,
                "{tag}, merges replayed"
            );
            merges_replayed += replayed
                .server()
                .durability_stats()
                .unwrap()
                .merges_replayed;
            drop(replayed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    assert!(
        merges_replayed >= 8,
        "every case re-executed a logged merge"
    );
}

/// One ED1 column `v` of table `t`, its proxy-side cipher, and a cell /
/// filter maker — the server-level stand-in for the proxy.
struct Column {
    pae: Pae,
    rng: StdRng,
}

impl Column {
    fn new(key: &Key128) -> Self {
        Column {
            pae: Pae::new(&derive_column_key(key, "t", "v")),
            rng: StdRng::seed_from_u64(77),
        }
    }

    fn row(&mut self, value: &str) -> Vec<CellValue> {
        let ct = encrypt_value_for_column(&self.pae, &mut self.rng, value.as_bytes());
        vec![CellValue::Encrypted(ct.into_bytes())]
    }

    fn filter(&mut self, query: RangeQuery) -> ServerFilter {
        ServerFilter::encrypted(
            "v",
            EncryptedRange::encrypt(&self.pae, &mut self.rng, &query),
        )
    }
}

fn one_column_schema() -> TableSchema {
    TableSchema::new(
        "t",
        vec![ColumnSpec::new("v", DictChoice::Encrypted(EdKind::Ed1), 8)],
    )
}

/// After a failed merge: counted once, reported, not in flight, old epoch,
/// whole delta still there.
fn assert_merge_failed_cleanly(server: &DbaasServer, delta_rows: usize) {
    let stats = server.compaction_stats("t").unwrap();
    assert_eq!(stats.merges_failed, 1);
    assert_eq!(stats.merges_completed, 0);
    assert!(stats.last_error.is_some());
    assert!(!stats.merge_in_flight);
    assert_eq!(stats.epoch, 0);
    assert_eq!(stats.delta_rows, delta_rows);
}

#[test]
fn merge_on_an_unprovisioned_enclave_changes_nothing_and_retries() {
    let key = Key128::from_bytes([7; 16]);
    let server = DbaasServer::with_enclaves(DictEnclave::with_seed(1), DictEnclave::with_seed(2));
    server.enclave().provision_direct(key.clone()); // merge enclave left cold
    server.set_compaction_policy(None);
    server.create_table(one_column_schema()).unwrap();
    let mut col = Column::new(&key);
    let rows: Vec<_> = ["b", "d", "a", "c"].iter().map(|v| col.row(v)).collect();
    insert(&server, "t", &rows).unwrap();
    let gone = col.filter(RangeQuery::equals("d"));
    assert_eq!(delete(&server, "t", &[gone]).unwrap(), 1);

    let err = server.merge_table("t").unwrap_err();
    assert_eq!(err, DbError::Dict(EncdictError::KeyNotProvisioned));
    assert_merge_failed_cleanly(&server, 4);
    let all = [col.filter(RangeQuery::between("a", "z"))];
    assert_eq!(select(&server, "t", &all).len(), 3);

    server.merge_enclave().provision_direct(key);
    server.merge_table("t").unwrap();
    let stats = server.compaction_stats("t").unwrap();
    assert_eq!((stats.epoch, stats.delta_rows), (1, 0));
    assert_eq!((stats.merges_completed, stats.merges_failed), (1, 1));
    assert_eq!(select(&server, "t", &all).len(), 3);
}

#[test]
fn merge_over_a_tampered_main_store_changes_nothing() {
    let key = Key128::from_bytes([8; 16]);
    let server = DbaasServer::with_enclaves(DictEnclave::with_seed(3), DictEnclave::with_seed(4));
    server.provision_direct(key.clone());
    server.set_compaction_policy(None);
    // The owner's main store, one ciphertext byte of entry 0 ("a") flipped
    // on its way through untrusted storage.
    let mut col = Column::new(&key);
    let plain = colstore::Column::from_strs("v", 8, ["b", "d", "a", "c"]).unwrap();
    let params = encdict::build::BuildParams {
        table_name: "t".into(),
        col_name: "v".into(),
        bs_max: 2,
    };
    let sk_d = derive_column_key(&key, "t", "v");
    let (dict, av) =
        encdict::build::build_encrypted(&plain, EdKind::Ed1, &params, &sk_d, &mut col.rng).unwrap();
    let mut blob = encdict::persist::to_bytes(&dict, &av);
    blob[8 + 1 + 9 + 9 + 8 + 8 + 12 + 4] ^= 0x40;
    let (bad_dict, av) = encdict::persist::from_bytes(&blob).unwrap();
    server
        .deploy_table(
            one_column_schema(),
            vec![DeployedColumn { dict: bad_dict, av }],
        )
        .unwrap();
    insert(&server, "t", &[col.row("y"), col.row("z")]).unwrap();

    let err = server.merge_table("t").unwrap_err();
    assert!(
        matches!(err, DbError::Dict(EncdictError::Crypto(_))),
        "{err:?}"
    );
    assert_merge_failed_cleanly(&server, 2);
    // The old epoch and the whole delta still answer (a search for the
    // top of the domain never reads the tampered entry).
    assert_eq!(server.row_count("t").unwrap(), 6);
    let top = col.filter(RangeQuery::between("d", "z"));
    assert_eq!(select(&server, "t", &[top]).len(), 3);
}

/// DESIGN.md §9: a snapshot shares every delta store with the live
/// partition, and a write copies a store only while a snapshot still
/// shares it — for an encrypted and for a PLAIN column.
#[test]
fn a_snapshot_shares_the_delta_and_a_write_copies_it_at_most_once() {
    let key = Key128::from_bytes([9; 16]);
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(6));
    server.provision_direct(key.clone());
    server.set_compaction_policy(None); // every row stays in the delta
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnSpec::new("v", DictChoice::Encrypted(EdKind::Ed1), 8),
            ColumnSpec::new("city", DictChoice::Plain, 8),
        ],
    );
    server.create_table(schema).unwrap();
    let mut col = Column::new(&key);
    let mut row = |v: &str| {
        let mut row = col.row(v);
        row.push(CellValue::Plain(v.as_bytes().to_vec()));
        row
    };
    insert(&server, "t", &[row("a"), row("b")]).unwrap();

    // Where each column's store lives; encrypted and PLAIN alike.
    fn addresses(deltas: &[Arc<Dictionary>]) -> Vec<*const Dictionary> {
        deltas.iter().map(Arc::as_ptr).collect()
    }
    let cells = |snap: &partition::PartitionSnapshot| -> Vec<Vec<Vec<u8>>> {
        (0..snap.delta_validity.len())
            .map(|i| snap.deltas.iter().map(|d| d.value(i).to_vec()).collect())
            .collect()
    };
    let partition = &server.table_handle("t").unwrap().partitions[0];

    // A snapshot's stores *are* the live stores.
    let before = partition.snapshot();
    assert_eq!(
        addresses(&before.deltas),
        addresses(&partition.snapshot().deltas)
    );
    let frozen = cells(&before);
    assert_eq!(frozen.len(), 2);

    // A write while the snapshot is alive leaves it as it was and moves
    // the live stores to a copy.
    insert(&server, "t", &[row("c")]).unwrap();
    assert_eq!(cells(&before), frozen);
    let live = addresses(&partition.snapshot().deltas);
    for (then, now) in addresses(&before.deltas).iter().zip(&live) {
        assert_ne!(then, now, "the write went to the store the snapshot reads");
    }
    assert_eq!(cells(&partition.snapshot()).len(), 3);

    // With no snapshot alive, writes append in place: the allocation
    // that holds each store never changes.
    drop(before);
    for i in 0..100 {
        insert(&server, "t", &[row(&format!("r{i}"))]).unwrap();
    }
    assert_eq!(addresses(&partition.snapshot().deltas), live);
    assert_eq!(select(&server, "t", &[]).len(), 103);
}

/// ROADMAP 5(5) + 6: a panicking shard worker fails its query with a
/// typed error, and the server keeps answering.
#[test]
fn panicking_partition_scan_is_a_typed_error() {
    let server = DbaasServer::with_enclave(DictEnclave::with_seed(5));
    let schema = TableSchema::new("r", vec![ColumnSpec::new("v", DictChoice::Plain, 8)])
        .with_partitioning(TablePartitioning::new("v", vec![b"m".to_vec()]));
    server.create_table(schema).unwrap();
    let rows: Vec<_> = ["apple", "zebra", "m"]
        .iter()
        .map(|v| vec![CellValue::Plain(v.as_bytes().to_vec())])
        .collect();
    insert(&server, "r", &rows).unwrap();

    let ts = server
        .snapshot_tables(&[("r", &[], None)])
        .unwrap()
        .remove(0);
    assert_eq!(ts.active.len(), 2);
    let err = server
        .scan_partitions(
            &ts,
            &[],
            &SpanId::NONE,
            &mut QueryStats::default(),
            |pid, _, main, delta, _, _| {
                assert_ne!(pid, 1, "injected shard-worker panic");
                Ok(main.len() + delta.len())
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, DbError::Dict(EncdictError::Poisoned(_))),
        "{err:?}"
    );
    assert_eq!(select(&server, "r", &[]).len(), 3);
}

// Full end-to-end behaviour is covered by the proxy/session tests and
// the concurrent stress suite, which exercise deploy → select →
// insert → delete → merge, including background compactions across
// partitions.
