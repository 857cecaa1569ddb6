//! Binary snapshot persistence with CRC32 integrity checking.
//!
//! Snapshot layout:
//!
//! ```text
//! magic    : 8 bytes  "DGSNAP01"
//! n_tables : u32
//! table*   :
//!   name        : string (u32 len + utf8)
//!   n_columns   : u16
//!   column*     : name string, dtype u8, not_null u8
//!   stats       : inserts u64, updates u64, deletes u64, reads u64
//!   n_indexes   : u16
//!   index*      : name string, n_cols u16, col u16*, unique u8
//!   n_pages     : u32
//!   page*       : PAGE_SIZE raw bytes
//! crc32    : u32 over everything before it (IEEE polynomial)
//! ```
//!
//! Writes go to a temporary sibling file which is fsynced and atomically
//! renamed over the destination, so a crash never leaves a torn snapshot.

use crate::catalog::Catalog;
use crate::codec::{encode_string, Reader};
use crate::error::{Result, StorageError};
use crate::heap::HeapFile;
use crate::index::IndexDef;
use crate::page::{Page, PAGE_SIZE};
use crate::schema::{Column, Schema};
use crate::stats::TableStats;
use crate::table::Table;
use crate::value::DataType;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 8] = b"DGSNAP01";

/// Compute the IEEE CRC32 of `data`.
pub(crate) fn crc32(data: &[u8]) -> u32 {
    // Standard table-driven implementation (polynomial 0xEDB88320).
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

fn dtype_tag(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Bytes => 4,
    }
}

fn dtype_from_tag(tag: u8) -> Result<DataType> {
    Ok(match tag {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Bytes,
        t => {
            return Err(StorageError::CorruptSnapshot(format!(
                "unknown dtype tag {t}"
            )))
        }
    })
}

/// Serialize the whole catalog into a byte buffer (without writing to disk).
pub fn snapshot_bytes(catalog: &Catalog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let names = catalog.table_names();
    out.extend_from_slice(&(names.len() as u32).to_le_bytes());
    for name in names {
        let table_ref = catalog.table(&name).expect("table vanished mid-snapshot");
        let table = table_ref.read();
        encode_table(&table, &mut out);
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

fn encode_table(table: &Table, out: &mut Vec<u8>) {
    encode_string(table.name(), out);
    let cols = table.schema().columns();
    out.extend_from_slice(&(cols.len() as u16).to_le_bytes());
    for c in cols {
        encode_string(&c.name, out);
        out.push(dtype_tag(c.dtype));
        out.push(c.not_null as u8);
    }
    let st = table.stats();
    for v in [st.inserts, st.updates, st.deletes, st.reads] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let defs = table.index_defs();
    out.extend_from_slice(&(defs.len() as u16).to_le_bytes());
    for d in &defs {
        encode_string(&d.name, out);
        out.extend_from_slice(&(d.columns.len() as u16).to_le_bytes());
        for &c in &d.columns {
            out.extend_from_slice(&(c as u16).to_le_bytes());
        }
        out.push(d.unique as u8);
    }
    let pages = table.heap().pages();
    out.extend_from_slice(&(pages.len() as u32).to_le_bytes());
    for p in pages {
        out.extend_from_slice(p.as_bytes());
    }
}

/// Parse a snapshot buffer into a fresh catalog.
pub fn catalog_from_bytes(buf: &[u8]) -> Result<Catalog> {
    if buf.len() < MAGIC.len() + 4 {
        return Err(StorageError::CorruptSnapshot("snapshot too short".into()));
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let actual = crc32(body);
    if stored != actual {
        return Err(StorageError::CorruptSnapshot(format!(
            "crc mismatch: stored {stored:#010x}, computed {actual:#010x}"
        )));
    }
    let mut r = Reader::new(body);
    let magic = r.bytes(MAGIC.len())?;
    if magic != MAGIC {
        return Err(StorageError::CorruptSnapshot("bad magic".into()));
    }
    let n_tables = r.u32()? as usize;
    let catalog = Catalog::new();
    for _ in 0..n_tables {
        let table = decode_table(&mut r)?;
        catalog.install_table(table)?;
    }
    if r.remaining() != 0 {
        return Err(StorageError::CorruptSnapshot(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(catalog)
}

fn decode_table(r: &mut Reader<'_>) -> Result<Table> {
    let name = r.string()?;
    let n_cols = r.u16()? as usize;
    let mut columns = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let cname = r.string()?;
        let dtype = dtype_from_tag(r.u8()?)?;
        let not_null = r.u8()? != 0;
        columns.push(Column {
            name: cname,
            dtype,
            not_null,
        });
    }
    let schema = Schema::new(columns)?;
    let stats = TableStats {
        inserts: r.u64()?,
        updates: r.u64()?,
        deletes: r.u64()?,
        reads: r.u64()?,
    };
    let n_indexes = r.u16()? as usize;
    let mut defs = Vec::with_capacity(n_indexes);
    for _ in 0..n_indexes {
        let iname = r.string()?;
        let n = r.u16()? as usize;
        let mut cols = Vec::with_capacity(n);
        for _ in 0..n {
            cols.push(r.u16()? as usize);
        }
        let unique = r.u8()? != 0;
        defs.push(IndexDef {
            name: iname,
            columns: cols,
            unique,
        });
    }
    let n_pages = r.u32()? as usize;
    let mut pages = Vec::with_capacity(n_pages);
    for _ in 0..n_pages {
        pages.push(Page::from_bytes(r.bytes(PAGE_SIZE)?)?);
    }
    Table::from_parts(name, schema, HeapFile::from_pages(pages), defs, stats)
}

/// Write a snapshot of `catalog` to `path` atomically.
pub fn save(catalog: &Catalog, path: &Path) -> Result<()> {
    let bytes = snapshot_bytes(catalog);
    let tmp = path.with_extension("tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Load a snapshot from `path`.
pub fn load(path: &Path) -> Result<Catalog> {
    let bytes = fs::read(path)?;
    catalog_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Row;
    use crate::value::Value;

    fn sample_catalog() -> Catalog {
        let catalog = Catalog::new();
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Text),
        ])
        .unwrap();
        let t = catalog.create_table("users", schema).unwrap();
        {
            let mut t = t.write();
            t.create_index("users_pk", &["id"], true).unwrap();
            for i in 0..100 {
                t.insert(Row::new(vec![
                    Value::Int(i),
                    Value::Text(format!("user-{i}")),
                ]))
                .unwrap();
            }
        }
        catalog
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn snapshot_round_trips_in_memory() {
        let catalog = sample_catalog();
        let bytes = snapshot_bytes(&catalog);
        let back = catalog_from_bytes(&bytes).unwrap();
        let t = back.table("users").unwrap();
        let t = t.read();
        assert_eq!(t.len(), 100);
        assert_eq!(t.stats().inserts, 100);
        let id_col = t.schema().index_of("id").unwrap();
        let hits = t
            .index_lookup(&[id_col], &vec![Value::Int(42)])
            .expect("index should be rebuilt");
        assert_eq!(hits.len(), 1);
        assert_eq!(
            t.peek(hits[0]).unwrap().get(1),
            Some(&Value::Text("user-42".into()))
        );
    }

    #[test]
    fn snapshot_round_trips_on_disk() {
        let dir = std::env::temp_dir().join(format!("dg-persist-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.dg");
        let catalog = sample_catalog();
        save(&catalog, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.table("users").unwrap().read().len(), 100);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corruption_detected() {
        let catalog = sample_catalog();
        let mut bytes = snapshot_bytes(&catalog);
        // Flip one bit in the middle of the payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = catalog_from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, StorageError::CorruptSnapshot(_)));
    }

    #[test]
    fn truncated_snapshot_detected() {
        let catalog = sample_catalog();
        let bytes = snapshot_bytes(&catalog);
        for cut in [0, 5, bytes.len() / 2, bytes.len() - 1] {
            assert!(catalog_from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn bad_magic_detected() {
        let catalog = Catalog::new();
        let mut bytes = snapshot_bytes(&catalog);
        bytes[0] = b'X';
        // Fix up the CRC so only the magic is wrong.
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        let err = catalog_from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn empty_catalog_round_trips() {
        let catalog = Catalog::new();
        let bytes = snapshot_bytes(&catalog);
        let back = catalog_from_bytes(&bytes).unwrap();
        assert!(back.is_empty());
    }
}
