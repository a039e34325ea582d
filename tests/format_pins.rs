//! Golden-byte pins of what the durable layer seals (DESIGN.md §12 "Byte
//! formats"): one WAL record of each of the five types, a two-column
//! partitioned manifest and a snapshot envelope header.
//!
//! The test is black-box on purpose — it reads the files a durable session
//! leaves behind, opens their CRC frames and unseals them with a fresh
//! enclave of the same identity — so the same source pins the bytes of any
//! build: the digests below were recorded on the commit before the formats
//! moved into `server/format.rs` and must never move again without a
//! version bump. The logged table has only PLAIN columns, so no digest
//! depends on ciphertext randomness.

use colstore::persist::{read_frames, FrameTail};
use encdbdb::Session;
use encdict::DictEnclave;
use std::path::Path;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The unsealed payload of every frame of a durable file.
fn payloads(path: &Path) -> Vec<Vec<u8>> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let (frames, tail) = read_frames(&bytes);
    assert_eq!(tail, FrameTail::Clean, "{}", path.display());
    let mut enclave = DictEnclave::with_seed(1);
    frames
        .iter()
        .map(|sealed| enclave.enclave_mut().unseal_data(sealed).expect("unseal"))
        .collect()
}

fn assert_pins(what: &str, payloads: &[Vec<u8>], pins: &[(&str, u64)]) {
    let got: Vec<u64> = payloads.iter().map(|p| fnv1a(p)).collect();
    let want: Vec<u64> = pins.iter().map(|&(_, pin)| pin).collect();
    let names: Vec<&str> = pins.iter().map(|&(name, _)| name).collect();
    assert_eq!(got, want, "{what} {names:?}: got {got:#018x?}");
}

#[test]
fn sealed_payloads_keep_their_pinned_digests() {
    let dir = std::env::temp_dir().join(format!("encdbdb-format-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = Session::with_seed_durable(23, &dir).expect("durable session");
    db.set_compaction_policy(None);

    // Manifest and snapshot envelope: two columns, two partitions.
    db.execute("CREATE TABLE t (a ED5(8), b PLAIN(12)) PARTITION BY RANGE (b) SPLIT ('m')")
        .expect("create t");
    assert_pins(
        "manifest",
        &payloads(&dir.join("t/table.manifest")),
        &[("t", 0xf88e_d4ce_58b7_12c9)],
    );
    // Magic, table, pid, epoch, drained_total, rows, column count, then the
    // first column's tag and body length; the bodies are `encdict::persist`
    // blobs, pinned by `serialised_dictionaries_keep_their_pinned_digests`.
    let snapshot = payloads(&dir.join("t/p1-e0.snap")).remove(0);
    let header = 8 + (4 + 1) + 4 + 8 + 8 + 8 + 4 + 1 + 8;
    assert_pins(
        "snapshot envelope",
        &[snapshot[..header].to_vec()],
        &[("t/p1-e0", 0x1d63_523c_6b6b_cc7f)],
    );

    // The WAL: header, insert, delete and merge as logged, then the header
    // and checkpoint a truncation leaves.
    db.execute("CREATE TABLE w (v PLAIN(8))").expect("create w");
    db.execute("INSERT INTO w VALUES ('b'), ('a'), ('c')")
        .expect("insert");
    db.execute("DELETE FROM w WHERE v = 'a'").expect("delete");
    db.merge("w").expect("merge");
    assert_pins(
        "wal",
        &payloads(&dir.join("w/wal.log")),
        &[
            ("header", 0xbee7_ceb4_e203_8506),
            ("insert", 0xf93f_564d_c880_bc5a),
            ("delete", 0x1b7d_a25c_86c1_fe1a),
            ("merge", 0xd399_07fc_9fa8_f78e),
        ],
    );
    assert!(db.server().checkpoint("w").expect("checkpoint"));
    assert_pins(
        "wal after checkpoint",
        &payloads(&dir.join("w/wal.log")),
        &[
            ("header", 0xbee7_ceb4_e203_8506),
            ("checkpoint", 0xc86f_cb45_ec6a_237b),
        ],
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
