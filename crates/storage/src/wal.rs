//! Write-ahead logging: durability between snapshots.
//!
//! Snapshots ([`crate::persist`]) are atomic but heavyweight; the WAL
//! makes individual mutations durable between them. Each record is
//! length-prefixed and CRC-protected, so recovery tolerates a torn tail
//! (a crash mid-append) by stopping at the first invalid record —
//! standard ARIES-lite behaviour.
//!
//! Record layout:
//!
//! ```text
//! len: u32 | crc32(payload): u32 | payload
//! payload := tag:u8 ...
//!   tag 1 = Insert     table:string row:row
//!   tag 2 = Update     table:string rid:u64 row:row
//!   tag 3 = Delete     table:string rid:u64
//!   tag 4 = Checkpoint (snapshot was durably written; older records dead)
//! ```
//!
//! Replay determinism: heap slot allocation is deterministic, so applying
//! the same record sequence to the same base snapshot reproduces the same
//! RowIds, which is what makes logged `Update`/`Delete` rids valid on
//! recovery.

use crate::catalog::Catalog;
use crate::codec::{encode_row, encode_string, Reader};
use crate::error::{Result, StorageError};
use crate::persist::crc32;
use crate::row::{Row, RowId};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::Path;

const TAG_INSERT: u8 = 1;
const TAG_UPDATE: u8 = 2;
const TAG_DELETE: u8 = 3;
const TAG_CHECKPOINT: u8 = 4;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A row was inserted into `table`.
    Insert { table: String, row: Row },
    /// The row at `rid` in `table` was replaced by `row`.
    Update { table: String, rid: RowId, row: Row },
    /// The row at `rid` in `table` was deleted.
    Delete { table: String, rid: RowId },
    /// A snapshot checkpoint: records before this one are superseded.
    Checkpoint,
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            WalRecord::Insert { table, row } => {
                payload.push(TAG_INSERT);
                encode_string(table, &mut payload);
                encode_row(row, &mut payload);
            }
            WalRecord::Update { table, rid, row } => {
                payload.push(TAG_UPDATE);
                encode_string(table, &mut payload);
                payload.extend_from_slice(&rid.raw().to_le_bytes());
                encode_row(row, &mut payload);
            }
            WalRecord::Delete { table, rid } => {
                payload.push(TAG_DELETE);
                encode_string(table, &mut payload);
                payload.extend_from_slice(&rid.raw().to_le_bytes());
            }
            WalRecord::Checkpoint => payload.push(TAG_CHECKPOINT),
        }
        let mut out = Vec::with_capacity(payload.len() + 8);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    fn decode(payload: &[u8]) -> Result<WalRecord> {
        let mut r = Reader::new(payload);
        let rec = match r.u8()? {
            TAG_INSERT => WalRecord::Insert {
                table: r.string()?,
                row: r.row()?,
            },
            TAG_UPDATE => WalRecord::Update {
                table: r.string()?,
                rid: RowId::from_raw(r.u64()?),
                row: r.row()?,
            },
            TAG_DELETE => WalRecord::Delete {
                table: r.string()?,
                rid: RowId::from_raw(r.u64()?),
            },
            TAG_CHECKPOINT => WalRecord::Checkpoint,
            t => {
                return Err(StorageError::CorruptSnapshot(format!(
                    "unknown wal tag {t}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(StorageError::CorruptSnapshot(
                "trailing bytes in wal record".into(),
            ));
        }
        Ok(rec)
    }
}

/// An append-only WAL writer.
pub struct Wal {
    file: BufWriter<File>,
}

impl Wal {
    /// Open (creating or appending to) the log at `path`.
    pub fn open(path: &Path) -> Result<Wal> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Wal {
            file: BufWriter::new(file),
        })
    }

    /// Append a record (buffered; call [`Wal::sync`] for durability).
    pub fn append(&mut self, record: &WalRecord) -> Result<()> {
        self.file.write_all(&record.encode())?;
        Ok(())
    }

    /// Flush buffers and fsync to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        Ok(())
    }
}

/// Read every valid record from a log, stopping silently at a torn tail.
pub fn read_log(path: &Path) -> Result<Vec<WalRecord>> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= raw.len() {
        let len = u32::from_le_bytes([raw[pos], raw[pos + 1], raw[pos + 2], raw[pos + 3]]) as usize;
        let stored_crc =
            u32::from_le_bytes([raw[pos + 4], raw[pos + 5], raw[pos + 6], raw[pos + 7]]);
        let start = pos + 8;
        let end = match start.checked_add(len) {
            Some(e) if e <= raw.len() => e,
            _ => break, // torn tail: length runs past EOF
        };
        let payload = &raw[start..end];
        if crc32(payload) != stored_crc {
            break; // torn or corrupt tail: stop replay here
        }
        records.push(WalRecord::decode(payload)?);
        pos = end;
    }
    Ok(records)
}

/// Apply records after the last checkpoint to a catalog (recovery).
/// Returns the number of records applied.
pub fn recover(catalog: &Catalog, records: &[WalRecord]) -> Result<usize> {
    // Only the suffix after the last checkpoint applies to this snapshot.
    let start = records
        .iter()
        .rposition(|r| matches!(r, WalRecord::Checkpoint))
        .map(|i| i + 1)
        .unwrap_or(0);
    let mut applied = 0;
    for record in &records[start..] {
        match record {
            WalRecord::Insert { table, row } => {
                let t = catalog.table(table)?;
                t.write().insert(row.clone())?;
            }
            WalRecord::Update { table, rid, row } => {
                let t = catalog.table(table)?;
                t.write().update(*rid, row.clone())?;
            }
            WalRecord::Delete { table, rid } => {
                let t = catalog.table(table)?;
                t.write().delete(*rid)?;
            }
            WalRecord::Checkpoint => unreachable!("suffix starts after the last checkpoint"),
        }
        applied += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, Schema};
    use crate::value::{DataType, Value};
    use std::fs;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dg-wal-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn fresh_catalog() -> Catalog {
        let c = Catalog::new();
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Text),
        ])
        .unwrap();
        c.create_table("t", schema).unwrap();
        c
    }

    fn row(id: i64, v: &str) -> Row {
        Row::new(vec![Value::Int(id), Value::Text(v.into())])
    }

    #[test]
    fn append_and_read_round_trip() {
        let path = tmp("roundtrip.wal");
        fs::remove_file(&path).ok();
        let records = vec![
            WalRecord::Insert {
                table: "t".into(),
                row: row(1, "a"),
            },
            WalRecord::Update {
                table: "t".into(),
                rid: RowId::new(0, 0),
                row: row(1, "b"),
            },
            WalRecord::Checkpoint,
            WalRecord::Delete {
                table: "t".into(),
                rid: RowId::new(0, 0),
            },
        ];
        {
            let mut wal = Wal::open(&path).unwrap();
            for r in &records {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
        }
        assert_eq!(read_log(&path).unwrap().len(), 4);
        assert_eq!(read_log(&path).unwrap(), records);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let path = tmp("torn.wal");
        fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.append(&WalRecord::Insert {
                table: "t".into(),
                row: row(1, "a"),
            })
            .unwrap();
            wal.append(&WalRecord::Insert {
                table: "t".into(),
                row: row(2, "b"),
            })
            .unwrap();
            wal.sync().unwrap();
        }
        // Chop bytes off the end: the last record becomes torn.
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();
        let records = read_log(&path).unwrap();
        assert_eq!(records.len(), 1, "only the intact prefix survives");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let path = tmp("corrupt.wal");
        fs::remove_file(&path).ok();
        {
            let mut wal = Wal::open(&path).unwrap();
            for i in 0..3 {
                wal.append(&WalRecord::Insert {
                    table: "t".into(),
                    row: row(i, "x"),
                })
                .unwrap();
            }
            wal.sync().unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte of the second record; records are
        // equal-sized here, so target just past the first record.
        let record_size = bytes.len() / 3;
        bytes[record_size + 10] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(read_log(&path).unwrap().len(), 1);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn recovery_replays_after_last_checkpoint() {
        let catalog = fresh_catalog();
        // Pre-checkpoint garbage must be ignored; post-checkpoint applies.
        let records = vec![
            WalRecord::Insert {
                table: "t".into(),
                row: row(999, "stale"),
            },
            WalRecord::Checkpoint,
            WalRecord::Insert {
                table: "t".into(),
                row: row(1, "a"),
            },
            WalRecord::Insert {
                table: "t".into(),
                row: row(2, "b"),
            },
        ];
        let applied = recover(&catalog, &records).unwrap();
        assert_eq!(applied, 2);
        let t = catalog.table("t").unwrap();
        assert_eq!(t.read().len(), 2);
    }

    #[test]
    fn recovery_reproduces_direct_application() {
        // Apply a mutation sequence directly to catalog A while logging;
        // recover catalog B from the log: identical contents.
        let path = tmp("equiv.wal");
        fs::remove_file(&path).ok();
        let a = fresh_catalog();
        let mut wal = Wal::open(&path).unwrap();

        let ta = a.table("t").unwrap();
        let mut rids = Vec::new();
        for i in 0..10 {
            let r = row(i, &format!("v{i}"));
            let rid = ta.write().insert(r.clone()).unwrap();
            wal.append(&WalRecord::Insert {
                table: "t".into(),
                row: r,
            })
            .unwrap();
            rids.push(rid);
        }
        let new_row = row(3, "updated");
        let new_rid = ta.write().update(rids[3], new_row.clone()).unwrap();
        wal.append(&WalRecord::Update {
            table: "t".into(),
            rid: rids[3],
            row: new_row,
        })
        .unwrap();
        ta.write().delete(rids[7]).unwrap();
        wal.append(&WalRecord::Delete {
            table: "t".into(),
            rid: rids[7],
        })
        .unwrap();
        wal.sync().unwrap();

        let b = fresh_catalog();
        recover(&b, &read_log(&path).unwrap()).unwrap();
        let tb = b.table("t").unwrap();
        assert_eq!(tb.read().len(), ta.read().len());
        // Same rows at the same rids (deterministic allocation).
        assert_eq!(
            tb.read().peek(new_rid).unwrap().get(1),
            Some(&Value::Text("updated".into()))
        );
        assert!(tb.read().peek(rids[7]).is_err());
        fs::remove_file(&path).ok();
    }
}
