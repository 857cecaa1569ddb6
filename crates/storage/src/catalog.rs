//! The catalog: a named collection of tables, safe for concurrent use.

use crate::error::{Result, StorageError};
use crate::schema::Schema;
use crate::table::Table;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A handle to a table, shareable across threads. Readers and writers
/// synchronize on the per-table RwLock.
pub type TableRef = Arc<RwLock<Table>>;

/// A named collection of tables.
///
/// The catalog lock is only held to look up or modify the *set* of tables;
/// per-table operations take the table's own lock, so queries on different
/// tables never contend.
pub struct Catalog {
    tables: RwLock<BTreeMap<String, TableRef>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog {
            tables: RwLock::new(BTreeMap::new()),
        }
    }

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<TableRef> {
        let mut tables = self.tables.write();
        if tables.contains_key(name) {
            return Err(StorageError::TableExists(name.to_owned()));
        }
        let table = Arc::new(RwLock::new(Table::new(name, schema)));
        tables.insert(name.to_owned(), Arc::clone(&table));
        Ok(table)
    }

    /// Register an already-built table (snapshot loading).
    pub fn install_table(&self, table: Table) -> Result<TableRef> {
        let mut tables = self.tables.write();
        let name = table.name().to_owned();
        if tables.contains_key(&name) {
            return Err(StorageError::TableExists(name));
        }
        let table = Arc::new(RwLock::new(table));
        tables.insert(name, Arc::clone(&table));
        Ok(table)
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<TableRef> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))
    }

    /// Drop a table. Fails if absent. The table is marked dropped (under
    /// its write lock, once the catalog lock is released), so a handle
    /// kept past the drop can tell that its name no longer leads to it.
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let table = self
            .tables
            .write()
            .remove(name)
            .ok_or_else(|| StorageError::TableNotFound(name.to_owned()))?;
        table.write().mark_dropped();
        Ok(())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// Whether the catalog has no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Catalog")
            .field("tables", &self.table_names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn schema() -> Schema {
        Schema::new(vec![Column::not_null("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_lookup_drop() {
        let c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert!(c.table("t").is_ok());
        assert_eq!(c.table_names(), vec!["t".to_string()]);
        assert_eq!(c.len(), 1);
        let kept = c.table("t").unwrap();
        assert!(!kept.read().is_dropped());
        c.drop_table("t").unwrap();
        assert!(c.table("t").is_err());
        assert!(c.is_empty());
        assert!(kept.read().is_dropped(), "a kept handle sees the drop");
    }

    #[test]
    fn duplicate_name_rejected() {
        let c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert!(matches!(
            c.create_table("t", schema()),
            Err(StorageError::TableExists(_))
        ));
    }

    #[test]
    fn drop_missing_rejected() {
        let c = Catalog::new();
        assert!(matches!(
            c.drop_table("nope"),
            Err(StorageError::TableNotFound(_))
        ));
    }

    #[test]
    fn concurrent_access_different_tables() {
        use crate::row::Row;
        use crate::value::Value;
        let c = Arc::new(Catalog::new());
        c.create_table("a", schema()).unwrap();
        c.create_table("b", schema()).unwrap();
        let mut handles = Vec::new();
        for name in ["a", "b"] {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let t = c.table(name).unwrap();
                for i in 0..1000 {
                    t.write().insert(Row::new(vec![Value::Int(i)])).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.table("a").unwrap().read().len(), 1000);
        assert_eq!(c.table("b").unwrap().read().len(), 1000);
    }
}
