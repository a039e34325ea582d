//! What the durable layer writes inside its sealed frames (DESIGN.md §12
//! "Byte formats"): the five WAL records, the snapshot envelope and the
//! table manifest. Each layout is written down once — its encoder directly
//! above its decoder — over `colstore::codec`, so every count is bounded by
//! the bytes behind it before anything is reserved. Decoders check a
//! payload's shape, against the table's schema where it has one; whether a
//! record meets the state of the partition it names is the replay's
//! business (`storage.rs`).

use super::partition::{MainState, Partition};
use super::CellValue;
use crate::error::DbError;
use crate::schema::{ColumnSpec, DictChoice, TablePartitioning, TableSchema};
use colstore::codec::{CodecError, Reader, Writer};
use colstore::dictionary::RecordId;
use encdict::dynamic::MainSnapshot;
use encdict::EdKind;
use std::borrow::Cow;

const WAL_VERSION: u8 = 1;
const REC_HEADER: u8 = 0;
const REC_INSERT: u8 = 1;
const REC_DELETE: u8 = 2;
const REC_MERGE: u8 = 3;
const REC_CHECKPOINT: u8 = 4;

const SNAPSHOT_MAGIC: &[u8; 8] = b"ENCDBSN1";
const MANIFEST_MAGIC: &[u8; 8] = b"ENCDBMF1";

/// Tags a cell (WAL insert) or a column body (snapshot) by protection.
const CELL_ENCRYPTED: u8 = 0;
const CELL_PLAIN: u8 = 1;

impl From<CodecError> for DbError {
    fn from(e: CodecError) -> Self {
        DbError::Durability(format!("durable payload: {e}"))
    }
}

fn string<'a>(r: &mut Reader<'a>) -> Result<&'a str, DbError> {
    std::str::from_utf8(r.bytes32(usize::MAX)?)
        .map_err(|_| DbError::Durability("durable payload string not utf-8".to_string()))
}

// ---------------------------------------------------------------------------
// WAL records: `[version u8][type u8]` then the layout of the type
// ---------------------------------------------------------------------------

/// A WAL record that is malformed, or does not meet the state it names.
pub(crate) fn corrupt(msg: &str) -> DbError {
    DbError::Durability(format!("WAL record: {msg}"))
}

/// One logged row of `schema`'s table.
fn row(r: &mut Reader<'_>, schema: &TableSchema) -> Result<Vec<CellValue>, DbError> {
    let mut specs = schema.columns.iter();
    let row = r.seq32(1 + 4, |r| {
        let (tag, bytes) = (r.u8()?, r.bytes32(usize::MAX)?.to_vec());
        match (tag, specs.next().map(|spec| (&spec.choice, spec.max_len))) {
            (CELL_ENCRYPTED, Some((DictChoice::Encrypted(_), _))) => {
                Ok(CellValue::Encrypted(bytes))
            }
            (CELL_PLAIN, Some((DictChoice::Plain, max))) if bytes.len() <= max => {
                Ok(CellValue::Plain(bytes))
            }
            _ => Err(corrupt("cell does not fit its column")),
        }
    })?;
    if row.len() != schema.columns.len() {
        return Err(corrupt("cell arity does not match the schema"));
    }
    Ok(row)
}

/// The rows one insert statement routed to one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct InsertGroup<'a> {
    pub(crate) pid: usize,
    /// Absolute delta position of the group's first row.
    pub(crate) base_abs: u64,
    /// Borrowed from the statement when logging, owned when replaying.
    pub(crate) rows: Cow<'a, [Vec<CellValue>]>,
}

/// Validity flips in one partition: main rows of `epoch`, delta rows by
/// absolute position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DeleteRecord {
    pub(crate) pid: usize,
    pub(crate) epoch: u64,
    pub(crate) main_rids: Vec<RecordId>,
    pub(crate) delta_abs: Vec<u64>,
}

/// The publish of epoch `old_epoch + 1`, folding the delta below
/// `watermark_abs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MergeRecord {
    pub(crate) pid: usize,
    pub(crate) old_epoch: u64,
    pub(crate) watermark_abs: u64,
}

/// Where a checkpoint left one partition: recovery must already be there
/// when it reaches the marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Floor {
    pub(crate) pid: usize,
    pub(crate) epoch: u64,
    pub(crate) drained_total: u64,
}

/// One record of a table's write-ahead log. Delta rows are named by
/// absolute position (`drained_total` + local index), which a merge does
/// not move.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalRecord<'a> {
    /// Opens every log: the table it belongs to.
    Header(&'a str),
    /// One insert statement, all partitions it touched.
    Insert(Vec<InsertGroup<'a>>),
    Delete(DeleteRecord),
    Merge(MergeRecord),
    /// Follows the header of a log a checkpoint truncated.
    Checkpoint(Vec<Floor>),
}

impl<'a> WalRecord<'a> {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![WAL_VERSION];
        match self {
            WalRecord::Header(table) => {
                out.put_u8(REC_HEADER);
                out.put_bytes32(table.as_bytes());
            }
            WalRecord::Insert(groups) => {
                out.put_u8(REC_INSERT);
                out.put_seq32(groups, |out, g| {
                    out.put_len32(g.pid);
                    out.put_u64(g.base_abs);
                    out.put_seq32(&g.rows, |out, row| {
                        out.put_seq32(row, |out, cell| {
                            out.put_u8(match cell {
                                CellValue::Encrypted(_) => CELL_ENCRYPTED,
                                CellValue::Plain(_) => CELL_PLAIN,
                            });
                            out.put_bytes32(cell.bytes());
                        });
                    });
                });
            }
            WalRecord::Delete(d) => {
                out.put_u8(REC_DELETE);
                out.put_len32(d.pid);
                out.put_u64(d.epoch);
                out.put_seq32(&d.main_rids, |out, rid| out.put_u32(rid.0));
                out.put_seq32(&d.delta_abs, |out, &abs| out.put_u64(abs));
            }
            WalRecord::Merge(m) => {
                out.put_u8(REC_MERGE);
                out.put_len32(m.pid);
                out.put_u64(m.old_epoch);
                out.put_u64(m.watermark_abs);
            }
            WalRecord::Checkpoint(floors) => {
                out.put_u8(REC_CHECKPOINT);
                out.put_seq32(floors, |out, f| {
                    out.put_len32(f.pid);
                    out.put_u64(f.epoch);
                    out.put_u64(f.drained_total);
                });
            }
        }
        out
    }

    /// One whole record of `schema`'s log: an insert's rows have the
    /// schema's arity, each cell its column's form and, in the clear, at
    /// most its column's length.
    ///
    /// # Errors
    ///
    /// [`DbError::Durability`] on anything else.
    pub(crate) fn decode(payload: &'a [u8], schema: &TableSchema) -> Result<Self, DbError> {
        let mut r = Reader::new(payload);
        if r.u8()? != WAL_VERSION {
            return Err(corrupt("unknown version"));
        }
        let record = match r.u8()? {
            REC_HEADER => WalRecord::Header(string(&mut r)?),
            // Smallest encodings: a group is pid + base + row count, a row
            // its cell count, a cell its tag + length.
            REC_INSERT => WalRecord::Insert(r.seq32(4 + 8 + 4, |r| {
                Ok::<_, DbError>(InsertGroup {
                    pid: r.u32()? as usize,
                    base_abs: r.u64()?,
                    rows: Cow::Owned(r.seq32(4, |r| row(r, schema))?),
                })
            })?),
            REC_DELETE => WalRecord::Delete(DeleteRecord {
                pid: r.u32()? as usize,
                epoch: r.u64()?,
                main_rids: r.seq32(4, |r| r.u32().map(RecordId))?,
                delta_abs: r.seq32(8, Reader::u64)?,
            }),
            REC_MERGE => WalRecord::Merge(MergeRecord {
                pid: r.u32()? as usize,
                old_epoch: r.u64()?,
                watermark_abs: r.u64()?,
            }),
            REC_CHECKPOINT => WalRecord::Checkpoint(r.seq32(4 + 8 + 8, |r| {
                Ok::<_, DbError>(Floor {
                    pid: r.u32()? as usize,
                    epoch: r.u64()?,
                    drained_total: r.u64()?,
                })
            })?),
            _ => return Err(corrupt("unknown record type")),
        };
        r.finish()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// Snapshot envelope: one partition's published main state
// ---------------------------------------------------------------------------

pub(crate) fn encode_snapshot(
    schema: &TableSchema,
    pid: usize,
    main: &MainState,
    drained_total: u64,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(SNAPSHOT_MAGIC);
    out.put_bytes32(schema.name.as_bytes());
    out.put_len32(pid);
    out.put_u64(main.epoch);
    out.put_u64(drained_total);
    out.put_u64(main.rows as u64);
    out.put_len32(main.columns.len());
    for (spec, column) in schema.columns.iter().zip(&main.columns) {
        let (dict, av) = (column.dict(), column.av());
        match spec.choice {
            DictChoice::Encrypted(_) => {
                out.put_u8(CELL_ENCRYPTED);
                out.put_bytes64(&encdict::persist::to_bytes(dict, av));
            }
            DictChoice::Plain => {
                out.put_u8(CELL_PLAIN);
                out.put_bytes64(&encdict::persist::plain_to_bytes(dict, av));
            }
        }
    }
    out
}

/// The partition as its snapshot recorded it: the main state at its epoch
/// and absolute delta base, under empty delta stores.
///
/// # Errors
///
/// [`DbError::Durability`] (or the dictionary decoder's error) unless the
/// payload is one whole snapshot of exactly this partition and epoch.
pub(crate) fn decode_snapshot(
    schema: &TableSchema,
    expect_pid: usize,
    expect_epoch: u64,
    payload: &[u8],
) -> Result<Partition, DbError> {
    let corrupt = |msg: &str| DbError::Durability(format!("snapshot payload: {msg}"));
    let mut r = Reader::new(payload);
    if r.take(8)? != SNAPSHOT_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let table = string(&mut r)?;
    let pid = r.u32()? as usize;
    let epoch = r.u64()?;
    // The embedded identity must match both the schema and the filename:
    // with one shared sealing key, this is what rejects a snapshot file
    // swapped between partitions, epochs or tables.
    if table != schema.name || pid != expect_pid || epoch != expect_epoch {
        return Err(corrupt("embedded identity does not match the file"));
    }
    let drained_total = r.u64()?;
    let rows = r.u64()? as usize;
    if r.u32()? as usize != schema.columns.len() {
        return Err(corrupt("column count does not match the schema"));
    }
    let mut columns = Vec::with_capacity(schema.columns.len());
    for spec in &schema.columns {
        let tag = r.u8()?;
        let body = r.bytes64(usize::MAX)?;
        let (dict, av) = match (tag, &spec.choice) {
            (CELL_ENCRYPTED, DictChoice::Encrypted(_)) => encdict::persist::from_bytes(body)?,
            (CELL_PLAIN, DictChoice::Plain) => encdict::persist::plain_from_bytes(body)?,
            _ => return Err(corrupt("column protection does not match the schema")),
        };
        let column = MainSnapshot::new(epoch, dict, av);
        if column.av().len() != rows {
            return Err(corrupt("column is not row-aligned"));
        }
        columns.push(column);
    }
    r.finish()?;
    Ok(Partition::new(
        pid,
        schema,
        columns,
        rows,
        epoch,
        drained_total,
    ))
}

// ---------------------------------------------------------------------------
// Table manifest: schema and partitioning
// ---------------------------------------------------------------------------

pub(crate) fn encode_manifest(schema: &TableSchema) -> Vec<u8> {
    let mut out = Vec::new();
    out.put(MANIFEST_MAGIC);
    out.put_bytes32(schema.name.as_bytes());
    out.put_seq32(&schema.columns, |out, spec| {
        out.put_bytes32(spec.name.as_bytes());
        out.put_u8(match spec.choice {
            DictChoice::Plain => 0,
            DictChoice::Encrypted(kind) => kind.number(),
        });
        out.put_u64(spec.max_len as u64);
        out.put_u64(spec.bs_max as u64);
    });
    match &schema.partitioning {
        None => out.put_u8(0),
        Some(p) => {
            out.put_u8(1);
            out.put_bytes32(p.column.as_bytes());
            out.put_seq32(&p.split_points, |out, split| out.put_bytes32(split));
        }
    }
    out
}

/// # Errors
///
/// [`DbError::Durability`] on anything but one whole manifest.
pub(crate) fn decode_manifest(payload: &[u8]) -> Result<TableSchema, DbError> {
    let corrupt = |msg: &str| DbError::Durability(format!("manifest payload: {msg}"));
    let mut r = Reader::new(payload);
    if r.take(8)? != MANIFEST_MAGIC {
        return Err(corrupt("bad magic"));
    }
    let name = string(&mut r)?;
    // A column is at least its name's prefix, a kind byte and two lengths.
    let columns = r.seq32(4 + 1 + 8 + 8, |r| {
        Ok::<_, DbError>(ColumnSpec {
            name: string(r)?.to_string(),
            choice: match r.u8()? {
                0 => DictChoice::Plain,
                n => DictChoice::Encrypted(
                    EdKind::from_number(n).ok_or_else(|| corrupt("bad kind"))?,
                ),
            },
            max_len: r.u64()? as usize,
            bs_max: r.u64()? as usize,
        })
    })?;
    let mut schema = TableSchema::new(name, columns);
    match r.u8()? {
        0 => {}
        1 => {
            schema = schema.with_partitioning(TablePartitioning {
                column: string(&mut r)?.to_string(),
                split_points: r.seq32(4, |r| r.bytes32(usize::MAX).map(<[u8]>::to_vec))?,
            });
        }
        _ => return Err(corrupt("bad partitioning flag")),
    }
    r.finish()?;
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use colstore::column::Column;
    use encdbdb_crypto::Key128;
    use encdict::build::{build_encrypted, build_plain, BuildParams};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn schema() -> TableSchema {
        TableSchema::new(
            "t",
            vec![
                ColumnSpec::new("a", DictChoice::Encrypted(EdKind::Ed5), 8),
                ColumnSpec::new("b", DictChoice::Plain, 12),
            ],
        )
        .with_partitioning(TablePartitioning {
            column: "b".to_string(),
            split_points: vec![b"g".to_vec(), b"p".to_vec()],
        })
    }

    /// One record of each of the five types, for a table of `schema()`.
    fn records() -> Vec<WalRecord<'static>> {
        let row = |a: &[u8], b: &[u8]| {
            vec![
                CellValue::Encrypted(a.to_vec()),
                CellValue::Plain(b.to_vec()),
            ]
        };
        vec![
            WalRecord::Header("t"),
            WalRecord::Insert(vec![
                InsertGroup {
                    pid: 0,
                    base_abs: 7,
                    rows: Cow::Owned(vec![row(&[9; 40], b"apple"), row(&[], b"")]),
                },
                InsertGroup {
                    pid: 2,
                    base_abs: 0,
                    rows: Cow::Owned(vec![row(&[1, 2, 3], b"twelve bytes")]),
                },
            ]),
            WalRecord::Delete(DeleteRecord {
                pid: 1,
                epoch: 3,
                main_rids: vec![RecordId(0), RecordId(17)],
                delta_abs: vec![4, u64::MAX],
            }),
            WalRecord::Merge(MergeRecord {
                pid: 2,
                old_epoch: 3,
                watermark_abs: 11,
            }),
            WalRecord::Checkpoint(vec![
                Floor {
                    pid: 0,
                    epoch: 4,
                    drained_total: 11,
                },
                Floor {
                    pid: 1,
                    epoch: 0,
                    drained_total: 0,
                },
            ]),
        ]
    }

    /// A two-column main state of `schema()` and its snapshot payload.
    fn snapshot() -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Column::from_strs("a", 8, ["x", "y", "x", "z"]).unwrap();
        let b = Column::from_strs("b", 12, ["k", "k", "h", "j"]).unwrap();
        let key = Key128::from_bytes([4; 16]);
        let params = BuildParams::default();
        let (dict, av) = build_encrypted(&a, EdKind::Ed5, &params, &key, &mut rng).unwrap();
        let encrypted = MainSnapshot::new(2, dict, av);
        let (dict, av) = build_plain(&b, EdKind::Ed1, &params, &mut rng).unwrap();
        let main = MainState {
            epoch: 2,
            columns: vec![encrypted, MainSnapshot::new(2, dict, av)],
            rows: 4,
        };
        encode_snapshot(&schema(), 1, &main, 9)
    }

    /// Feeds `decode` every truncation (which must fail) and a seeded
    /// single-byte flip at every offset (which may still decode) of a valid
    /// payload; whatever fails must fail with one of the typed errors a
    /// durable payload is allowed, and nothing may panic.
    fn mutate<T>(valid: &[u8], decode: impl Fn(&[u8]) -> Result<T, DbError>) {
        let typed = |e: &DbError| matches!(e, DbError::Durability(_) | DbError::Dict(_));
        let mut rng = StdRng::seed_from_u64(valid.len() as u64);
        assert!(decode(valid).is_ok());
        for at in 0..valid.len() {
            let cut = decode(&valid[..at])
                .err()
                .expect("a truncation must not decode");
            assert!(typed(&cut), "cut at {at}: {cut}");
            let mut flipped = valid.to_vec();
            flipped[at] ^= rng.gen_range(1..=255u8);
            if let Err(e) = decode(&flipped) {
                assert!(typed(&e), "flip at {at}: {e}");
            }
        }
    }

    #[test]
    fn every_layout_reads_back_what_was_written() {
        for record in records() {
            let bytes = record.encode();
            assert_eq!(WalRecord::decode(&bytes, &schema()).unwrap(), record);
        }
        assert_eq!(
            decode_manifest(&encode_manifest(&schema())).unwrap(),
            schema()
        );
        let partition = decode_snapshot(&schema(), 1, 2, &snapshot()).unwrap();
        let state = partition.state.lock().unwrap();
        assert_eq!((partition.index, state.main().epoch), (1, 2));
        assert_eq!((state.main().rows, state.drained_total()), (4, 9));
        assert_eq!(state.main().columns[1].av().len(), 4);
    }

    #[test]
    fn mutated_payloads_end_in_typed_errors() {
        let schema = schema();
        for record in records() {
            mutate(&record.encode(), |bytes| {
                WalRecord::decode(bytes, &schema).map(|_| ())
            });
        }
        mutate(&encode_manifest(&schema), decode_manifest);
        mutate(&snapshot(), |bytes| decode_snapshot(&schema, 1, 2, bytes));
    }

    #[test]
    fn insert_rows_must_fit_the_schema() {
        let row = |cells: Vec<CellValue>| {
            WalRecord::Insert(vec![InsertGroup {
                pid: 0,
                base_abs: 0,
                rows: Cow::Owned(vec![cells]),
            }])
            .encode()
        };
        let (enc, plain) = (CellValue::Encrypted(vec![1]), CellValue::Plain(vec![2]));
        for bad in [
            row(vec![enc.clone()]),
            row(vec![enc.clone(), plain.clone(), plain.clone()]),
            row(vec![plain.clone(), plain.clone()]),
            row(vec![enc.clone(), enc.clone()]),
            row(vec![enc.clone(), CellValue::Plain(vec![0; 13])]),
        ] {
            let err = WalRecord::decode(&bad, &schema()).unwrap_err();
            assert!(matches!(err, DbError::Durability(_)), "{err}");
        }
        assert!(WalRecord::decode(&row(vec![enc, plain]), &schema()).is_ok());
    }

    /// The count rule at work: 2^32 - 1 declared columns (or split points)
    /// behind a few bytes are refused before anything is reserved for
    /// them. Sized by the raw field, the column vector alone would have
    /// asked the allocator for ~200 GB.
    #[test]
    fn a_manifest_declaring_four_billion_columns_is_refused() {
        let mut lying = Vec::new();
        lying.put(MANIFEST_MAGIC);
        lying.put_bytes32(b"t");
        lying.put_u32(u32::MAX);
        lying.put(&[0; 64]);
        let err = decode_manifest(&lying).unwrap_err();
        assert!(matches!(err, DbError::Durability(_)), "{err}");

        let mut valid = encode_manifest(&schema());
        let splits_at = valid.len() - (4 + 4 + 1 + 4 + 1);
        assert_eq!(valid[splits_at..splits_at + 4], 2u32.to_le_bytes());
        valid[splits_at..splits_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_manifest(&valid).unwrap_err();
        assert!(matches!(err, DbError::Durability(_)), "{err}");
    }
}
