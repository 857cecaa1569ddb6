//! Tables: schema + heap + indexes, kept mutually consistent.

use crate::codec::{decode_row, decode_row_into, encode_row};
use crate::error::{Result, StorageError};
use crate::heap::HeapFile;
use crate::index::{Index, IndexDef, IndexKey};
use crate::row::{Row, RowId};
use crate::schema::Schema;
use crate::stats::TableStats;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-global source of DDL versions: every table instance and every
/// index change gets a fresh value, so a cached plan can detect both
/// schema changes *and* table re-creation with a single u64 compare.
static NEXT_DDL_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_ddl_version() -> u64 {
    NEXT_DDL_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A table: rows stored in a heap file, plus any number of named indexes.
///
/// All mutating operations keep every index consistent with the heap, and
/// validate rows against the schema before touching storage.
pub struct Table {
    name: String,
    schema: Schema,
    heap: HeapFile,
    indexes: Vec<Index>,
    /// Write counters; `stats.reads` is unused here, reads live in `reads`.
    stats: TableStats,
    /// Point reads served. Atomic so readers holding only the table's
    /// read lock can count what they fetched.
    reads: AtomicU64,
    ddl_version: u64,
    data_version: u64,
    /// Set when the catalog drops the table: a handle kept past the drop
    /// (a prepared statement's) learns from it to look the name up again.
    dropped: bool,
    /// Recycled by every update: the old row decoded, the new one
    /// encoded.
    old_row: Row,
    record: Vec<u8>,
}

impl Table {
    /// Create an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table {
            name: name.into(),
            schema,
            heap: HeapFile::new(),
            indexes: Vec::new(),
            stats: TableStats::default(),
            reads: AtomicU64::new(0),
            ddl_version: fresh_ddl_version(),
            data_version: 0,
            dropped: false,
            old_row: Row::default(),
            record: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of live rows.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Operation counters.
    pub fn stats(&self) -> TableStats {
        TableStats {
            reads: self.reads.load(Ordering::Relaxed),
            ..self.stats
        }
    }

    /// Record `n` point reads served outside [`Table::get`] (e.g. by a
    /// query executor that fetched rows via `peek`). Takes `&self`, so a
    /// reader under the table's read lock can count its own rows.
    pub fn record_reads(&self, n: u64) {
        self.reads.fetch_add(n, Ordering::Relaxed);
    }

    /// The underlying heap (for snapshotting).
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// An opaque version that changes whenever the set of indexes changes
    /// or the table object is rebuilt. Values are unique process-wide, so
    /// equality means "the plan I cached is still valid for this table".
    pub fn ddl_version(&self) -> u64 {
        self.ddl_version
    }

    /// Whether the catalog has dropped this table. A dropped table keeps
    /// its rows for whoever still holds it, but its name may already
    /// belong to another table.
    pub fn is_dropped(&self) -> bool {
        self.dropped
    }

    /// Mark the table dropped from its catalog.
    pub(crate) fn mark_dropped(&mut self) {
        self.dropped = true;
    }

    /// A counter bumped by every committed row mutation (insert, update,
    /// delete): the version a write acknowledgement reports. Cached plans
    /// do not check it — a plan holds no row ids and probes its index on
    /// every open, so only [`Table::ddl_version`] can make it stale.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Index definitions (for snapshotting and planning).
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.indexes.iter().map(|i| i.def().clone()).collect()
    }

    /// Create an index over the named columns, backfilling existing rows.
    pub fn create_index(&mut self, name: &str, columns: &[&str], unique: bool) -> Result<()> {
        if self.indexes.iter().any(|i| i.def().name == name) {
            return Err(StorageError::IndexExists(name.to_owned()));
        }
        let positions: Result<Vec<usize>> =
            columns.iter().map(|c| self.schema.index_of(c)).collect();
        let def = IndexDef {
            name: name.to_owned(),
            columns: positions?,
            unique,
        };
        let mut index = Index::new(def);
        for (rid, rec) in self.heap.iter() {
            let row = decode_row(rec)?;
            index.insert(index.key_of(&row), rid)?;
        }
        self.indexes.push(index);
        self.ddl_version = fresh_ddl_version();
        Ok(())
    }

    /// Find an index whose leading key columns are exactly `columns`.
    pub(crate) fn index_on(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.def().columns == columns)
    }

    /// Insert a row, updating all indexes. Rolls back on unique violations.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        self.schema.validate(&row)?;
        // Check unique constraints before touching storage so failures
        // leave no trace.
        for index in &self.indexes {
            if index.def().unique {
                let key = index.key_of(&row);
                if !index.lookup(&key).is_empty() {
                    return Err(StorageError::UniqueViolation {
                        index: index.def().name.clone(),
                    });
                }
            }
        }
        self.record.clear();
        encode_row(&row, &mut self.record);
        let rid = self.heap.insert(&self.record)?;
        for index in &mut self.indexes {
            let key = index.key_of(&row);
            index
                .insert(key, rid)
                .expect("uniqueness was pre-checked; insert cannot fail");
        }
        self.stats.inserts += 1;
        self.data_version += 1;
        Ok(rid)
    }

    /// Fetch a row by RowId.
    pub fn get(&mut self, rid: RowId) -> Result<Row> {
        let rec = self
            .heap
            .get(rid)
            .ok_or(StorageError::RowNotFound(rid.raw()))?;
        let row = decode_row(rec)?;
        *self.reads.get_mut() += 1;
        Ok(row)
    }

    /// Fetch without bumping read stats (internal uses, planners, tests).
    pub fn peek(&self, rid: RowId) -> Result<Row> {
        let rec = self
            .heap
            .get(rid)
            .ok_or(StorageError::RowNotFound(rid.raw()))?;
        decode_row(rec)
    }

    /// Like [`Table::peek`], but decodes into an existing row, reusing
    /// its per-slot allocations.
    pub fn peek_into(&self, rid: RowId, row: &mut Row) -> Result<()> {
        let rec = self
            .heap
            .get(rid)
            .ok_or(StorageError::RowNotFound(rid.raw()))?;
        decode_row_into(rec, row)
    }

    /// Replace the row at `rid` with `new_row`, keeping indexes consistent.
    /// Returns the (possibly relocated) RowId.
    pub fn update(&mut self, rid: RowId, new_row: Row) -> Result<RowId> {
        self.update_with(rid, |_| Ok(new_row))
    }

    /// Replace the row at `rid` with what `f` makes of it, keeping
    /// indexes consistent: the stored row is decoded once, into a buffer
    /// the table recycles, and `f` sees it as stored. Returns the
    /// (possibly relocated) RowId.
    pub fn update_with<E: From<StorageError>>(
        &mut self,
        rid: RowId,
        f: impl FnOnce(&Row) -> std::result::Result<Row, E>,
    ) -> std::result::Result<RowId, E> {
        let mut old_row = std::mem::take(&mut self.old_row);
        let replaced = self
            .peek_into(rid, &mut old_row)
            .map_err(E::from)
            .and_then(|()| f(&old_row))
            .and_then(|new_row| Ok(self.replace(rid, &old_row, &new_row)?));
        self.old_row = old_row;
        replaced
    }

    /// Write `new_row` over `old_row`, stored at `rid`.
    fn replace(&mut self, rid: RowId, old_row: &Row, new_row: &Row) -> Result<RowId> {
        self.schema.validate(new_row)?;
        let key_moved = |index: &Index| {
            index
                .def()
                .columns
                .iter()
                .any(|&c| old_row.get(c) != new_row.get(c))
        };
        // Unique pre-check: a new key may collide with some *other* row. A
        // kept key cannot: a unique key leads to this row alone.
        for index in &self.indexes {
            if index.def().unique && key_moved(index) {
                let existing = index.lookup(&index.key_of(new_row));
                if existing.iter().any(|&r| r != rid) {
                    return Err(StorageError::UniqueViolation {
                        index: index.def().name.clone(),
                    });
                }
            }
        }
        self.record.clear();
        encode_row(new_row, &mut self.record);
        let new_rid = self.heap.update(rid, &self.record)?;
        for index in &mut self.indexes {
            if key_moved(index) || rid != new_rid {
                let old_key = index.key_of(old_row);
                index.remove(&old_key, rid);
                index
                    .insert(index.key_of(new_row), new_rid)
                    .expect("uniqueness was pre-checked; insert cannot fail");
            }
        }
        self.stats.updates += 1;
        self.data_version += 1;
        Ok(new_rid)
    }

    /// Delete the row at `rid`. Returns the deleted row.
    pub fn delete(&mut self, rid: RowId) -> Result<Row> {
        let row = self.peek(rid)?;
        self.heap.delete(rid);
        for index in &mut self.indexes {
            let key = index.key_of(&row);
            index.remove(&key, rid);
        }
        self.stats.deletes += 1;
        self.data_version += 1;
        Ok(row)
    }

    /// Full scan over `(RowId, Row)` in RowId order. Decodes lazily.
    pub fn scan(&self) -> impl Iterator<Item = Result<(RowId, Row)>> + '_ {
        self.heap
            .iter()
            .map(|(rid, rec)| decode_row(rec).map(|row| (rid, row)))
    }

    /// RowIds matching an exact key on an index over `columns`.
    pub fn index_lookup(&self, columns: &[usize], key: &IndexKey) -> Option<Vec<RowId>> {
        self.index_on(columns).map(|i| i.lookup(key).to_vec())
    }

    /// Like [`Table::index_lookup`], but appends into a caller-owned
    /// buffer. Returns false (leaving `out` untouched) if no index over
    /// exactly `columns` exists.
    pub fn index_lookup_into(
        &self,
        columns: &[usize],
        key: &IndexKey,
        out: &mut Vec<RowId>,
    ) -> bool {
        match self.index_on(columns) {
            Some(i) => {
                out.extend_from_slice(i.lookup(key));
                true
            }
            None => false,
        }
    }

    /// RowIds within a key range on an index over `columns`.
    pub fn index_range(
        &self,
        columns: &[usize],
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> Option<Vec<RowId>> {
        self.index_on(columns).map(|i| i.range(lo, hi).collect())
    }

    /// Like [`Table::index_range`], but appends into a caller-owned
    /// buffer. Returns false (leaving `out` untouched) if no index over
    /// exactly `columns` exists.
    pub fn index_range_into(
        &self,
        columns: &[usize],
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
        out: &mut Vec<RowId>,
    ) -> bool {
        match self.index_on(columns) {
            Some(i) => {
                out.extend(i.range(lo, hi));
                true
            }
            None => false,
        }
    }

    /// Rebuild from snapshot parts (heap pages already loaded).
    pub(crate) fn from_parts(
        name: String,
        schema: Schema,
        heap: HeapFile,
        index_defs: Vec<IndexDef>,
        stats: TableStats,
    ) -> Result<Table> {
        let mut table = Table {
            name,
            schema,
            heap,
            indexes: Vec::new(),
            reads: AtomicU64::new(stats.reads),
            stats,
            ddl_version: fresh_ddl_version(),
            data_version: 0,
            dropped: false,
            old_row: Row::default(),
            record: Vec::new(),
        };
        for def in index_defs {
            let mut index = Index::new(def);
            for (rid, rec) in table.heap.iter() {
                let row = decode_row(rec)?;
                index.insert(index.key_of(&row), rid)?;
            }
            table.indexes.push(index);
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::{DataType, Value};

    fn movies() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("title", DataType::Text),
            Column::new("gross", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("movies", schema);
        t.create_index("movies_pk", &["id"], true).unwrap();
        t.create_index("movies_title", &["title"], false).unwrap();
        t
    }

    fn movie(id: i64, title: &str, gross: f64) -> Row {
        Row::new(vec![
            Value::Int(id),
            Value::Text(title.into()),
            Value::Float(gross),
        ])
    }

    #[test]
    fn insert_and_point_read() {
        let mut t = movies();
        let rid = t.insert(movie(1, "Spider-Man", 403.7e6)).unwrap();
        let row = t.get(rid).unwrap();
        assert_eq!(row.get(1), Some(&Value::Text("Spider-Man".into())));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().inserts, 1);
        assert_eq!(t.stats().reads, 1);
    }

    #[test]
    fn unique_index_enforced_without_side_effects() {
        let mut t = movies();
        t.insert(movie(1, "A", 1.0)).unwrap();
        let err = t.insert(movie(1, "B", 2.0)).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        assert_eq!(t.len(), 1, "failed insert must not leave a row");
        // Secondary index must not contain the phantom title either.
        let pos = t.schema().index_of("title").unwrap();
        let hits = t
            .index_lookup(&[pos], &vec![Value::Text("B".into())])
            .unwrap();
        assert!(hits.is_empty());
    }

    #[test]
    fn update_moves_index_entries() {
        let mut t = movies();
        let rid = t.insert(movie(1, "Old", 1.0)).unwrap();
        t.insert(movie(2, "Other", 2.0)).unwrap();
        let new_rid = t.update(rid, movie(1, "New", 3.0)).unwrap();
        let title_col = t.schema().index_of("title").unwrap();
        assert!(t
            .index_lookup(&[title_col], &vec![Value::Text("Old".into())])
            .unwrap()
            .is_empty());
        assert_eq!(
            t.index_lookup(&[title_col], &vec![Value::Text("New".into())])
                .unwrap(),
            vec![new_rid]
        );
    }

    #[test]
    fn update_unique_collision_rejected() {
        let mut t = movies();
        let _a = t.insert(movie(1, "A", 1.0)).unwrap();
        let b = t.insert(movie(2, "B", 2.0)).unwrap();
        let err = t.update(b, movie(1, "B2", 2.0)).unwrap_err();
        assert!(matches!(err, StorageError::UniqueViolation { .. }));
        // b unchanged
        assert_eq!(t.peek(b).unwrap().get(0), Some(&Value::Int(2)));
    }

    #[test]
    fn update_to_same_key_is_allowed() {
        let mut t = movies();
        let rid = t.insert(movie(1, "A", 1.0)).unwrap();
        let rid2 = t.update(rid, movie(1, "A", 9.0)).unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(t.peek(rid2).unwrap().get(2), Some(&Value::Float(9.0)));
    }

    #[test]
    fn delete_cleans_indexes() {
        let mut t = movies();
        let rid = t.insert(movie(1, "Gone", 1.0)).unwrap();
        let row = t.delete(rid).unwrap();
        assert_eq!(row.get(1), Some(&Value::Text("Gone".into())));
        assert_eq!(t.len(), 0);
        let id_col = t.schema().index_of("id").unwrap();
        assert!(t
            .index_lookup(&[id_col], &vec![Value::Int(1)])
            .unwrap()
            .is_empty());
        assert!(t.get(rid).is_err());
    }

    #[test]
    fn scan_returns_all_live_rows() {
        let mut t = movies();
        for i in 0..10 {
            t.insert(movie(i, &format!("m{i}"), i as f64)).unwrap();
        }
        let rows: Vec<Row> = t.scan().map(|r| r.unwrap().1).collect();
        assert_eq!(rows.len(), 10);
    }

    #[test]
    fn create_index_backfills() {
        let mut t = movies();
        for i in 0..5 {
            t.insert(movie(i, "same", i as f64)).unwrap();
        }
        t.create_index("by_gross", &["gross"], false).unwrap();
        let g = t.schema().index_of("gross").unwrap();
        let hits = t.index_lookup(&[g], &vec![Value::Float(3.0)]).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = movies();
        assert!(matches!(
            t.create_index("movies_pk", &["gross"], false),
            Err(StorageError::IndexExists(_))
        ));
    }

    #[test]
    fn ddl_version_changes_on_index_ddl_and_recreation() {
        let mut t = movies();
        let v0 = t.ddl_version();
        t.create_index("by_gross", &["gross"], false).unwrap();
        let v1 = t.ddl_version();
        assert_ne!(v0, v1);
        t.create_index("by_title_gross", &["title", "gross"], false)
            .unwrap();
        let v2 = t.ddl_version();
        assert_ne!(v1, v2);
        // A freshly built table never shares a version with an old one.
        assert_ne!(movies().ddl_version(), v2);
    }

    #[test]
    fn data_version_bumps_on_every_row_mutation() {
        let mut t = movies();
        let v0 = t.data_version();
        let rid = t.insert(movie(1, "Heat", 1.0)).unwrap();
        let v1 = t.data_version();
        assert!(v1 > v0);
        let rid = t.update(rid, movie(1, "Heat", 2.0)).unwrap();
        let v2 = t.data_version();
        assert!(v2 > v1);
        t.delete(rid).unwrap();
        assert!(t.data_version() > v2);
        // DDL does not bump the data version, and a failed insert leaves
        // it untouched.
        t.create_index("by_gross", &["gross"], false).unwrap();
        let v3 = t.data_version();
        t.insert(movie(7, "A", 1.0)).unwrap();
        let v4 = t.data_version();
        assert!(t.insert(movie(7, "B", 2.0)).is_err(), "unique violation");
        assert_eq!(t.data_version(), v4);
        assert!(v4 > v3);
    }

    #[test]
    fn peek_into_matches_peek() {
        let mut t = movies();
        let rid = t.insert(movie(1, "Spider-Man", 403.7e6)).unwrap();
        let mut row = Row::new(Vec::new());
        t.peek_into(rid, &mut row).unwrap();
        assert_eq!(row, t.peek(rid).unwrap());
    }

    #[test]
    fn index_into_variants_match_owned() {
        let mut t = movies();
        for i in 0..10 {
            t.insert(movie(i, &format!("m{i}"), i as f64)).unwrap();
        }
        let id_col = t.schema().index_of("id").unwrap();
        let lo = vec![Value::Int(3)];
        let hi = vec![Value::Int(6)];
        let owned = t
            .index_range(&[id_col], Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap();
        let mut buf = Vec::new();
        assert!(t.index_range_into(
            &[id_col],
            Bound::Included(&lo),
            Bound::Excluded(&hi),
            &mut buf
        ));
        assert_eq!(owned, buf);
        let key = vec![Value::Int(4)];
        let owned = t.index_lookup(&[id_col], &key).unwrap();
        buf.clear();
        assert!(t.index_lookup_into(&[id_col], &key, &mut buf));
        assert_eq!(owned, buf);
        // Missing index: false, buffer untouched.
        buf.clear();
        buf.push(RowId::from_raw(7));
        assert!(!t.index_lookup_into(&[2], &key, &mut buf));
        assert_eq!(buf, vec![RowId::from_raw(7)]);
    }

    #[test]
    fn index_range_scan() {
        let mut t = movies();
        for i in 0..10 {
            t.insert(movie(i, &format!("m{i}"), i as f64)).unwrap();
        }
        let id_col = t.schema().index_of("id").unwrap();
        let lo = vec![Value::Int(3)];
        let hi = vec![Value::Int(6)];
        let rids = t
            .index_range(&[id_col], Bound::Included(&lo), Bound::Excluded(&hi))
            .unwrap();
        assert_eq!(rids.len(), 3);
    }
}
