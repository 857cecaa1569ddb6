//! Secondary indexes: ordered B-tree maps from key values to RowIds.
//!
//! An index covers one or more columns of a table. Keys are composite
//! [`Value`] vectors ordered by the total order defined on [`Value`].
//! Non-unique indexes keep a sorted `Vec<RowId>` per key (postings list);
//! unique indexes reject duplicate keys at insert time.

use crate::error::{Result, StorageError};
use crate::row::{Row, RowId};
use crate::value::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A composite index key.
pub type IndexKey = Vec<Value>;

/// Definition of an index (persisted with the table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    /// Index name, unique within its table.
    pub name: String,
    /// Column positions (into the table schema) forming the key.
    pub columns: Vec<usize>,
    /// Whether duplicate keys are rejected.
    pub unique: bool,
}

/// An in-memory ordered index.
pub struct Index {
    def: IndexDef,
    map: BTreeMap<IndexKey, Vec<RowId>>,
    entries: usize,
}

impl Index {
    /// An empty index with the given definition.
    pub fn new(def: IndexDef) -> Index {
        Index {
            def,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// The index definition.
    pub fn def(&self) -> &IndexDef {
        &self.def
    }

    /// Number of indexed (key, rid) entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Extract this index's key from a full row.
    pub(crate) fn key_of(&self, row: &Row) -> IndexKey {
        self.def
            .columns
            .iter()
            .map(|&i| row.get(i).cloned().unwrap_or(Value::Null))
            .collect()
    }

    /// Insert an entry. For unique indexes, fails if the key already maps to
    /// a different RowId.
    pub fn insert(&mut self, key: IndexKey, rid: RowId) -> Result<()> {
        let postings = self.map.entry(key).or_default();
        if self.def.unique && !postings.is_empty() && postings[0] != rid {
            return Err(StorageError::UniqueViolation {
                index: self.def.name.clone(),
            });
        }
        match postings.binary_search(&rid) {
            Ok(_) => Ok(()), // already present; idempotent
            Err(pos) => {
                postings.insert(pos, rid);
                self.entries += 1;
                Ok(())
            }
        }
    }

    /// Remove an entry. Returns true if it was present.
    pub fn remove(&mut self, key: &IndexKey, rid: RowId) -> bool {
        let Some(postings) = self.map.get_mut(key) else {
            return false;
        };
        let Ok(pos) = postings.binary_search(&rid) else {
            return false;
        };
        postings.remove(pos);
        self.entries -= 1;
        if postings.is_empty() {
            self.map.remove(key);
        }
        true
    }

    /// Move `row`'s entry from `from` to `to`, for a row the heap moved
    /// with its key unchanged: the row id is swapped inside the key's
    /// postings list, which stays sorted. No key is built when the key's
    /// columns lie side by side in the row (a one-column index always).
    pub(crate) fn relocate(&mut self, row: &Row, from: RowId, to: RowId) {
        let cols = &self.def.columns;
        let adjacent = cols.iter().enumerate().all(|(i, &c)| c == cols[0] + i);
        let built;
        let key = match cols.first() {
            Some(&first) if adjacent && first + cols.len() <= row.arity() => {
                &row.values()[first..first + cols.len()]
            }
            _ => {
                built = self.key_of(row);
                &built[..]
            }
        };
        let Some(postings) = self.map.get_mut(key) else {
            return;
        };
        if let Ok(pos) = postings.binary_search(&from) {
            postings.remove(pos);
            let at = postings.binary_search(&to).unwrap_or_else(|at| at);
            postings.insert(at, to);
        }
    }

    /// RowIds exactly matching `key`.
    pub(crate) fn lookup(&self, key: &IndexKey) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &IndexKey) -> bool {
        self.map.contains_key(key)
    }

    /// RowIds whose keys fall within `(lo, hi)` bounds, in key order. An
    /// interval with its start above its end (`id >= 5 AND id < 3`)
    /// holds no keys.
    pub fn range(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> impl Iterator<Item = RowId> + '_ {
        // `BTreeMap::range` panics on such an interval, and on one that
        // excludes the same key at both ends.
        let empty = match (lo, hi) {
            (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
                a > b || (a == b && matches!((lo, hi), (Bound::Excluded(_), Bound::Excluded(_))))
            }
            _ => false,
        };
        (!empty)
            .then(|| self.map.range::<IndexKey, _>((lo, hi)))
            .into_iter()
            .flatten()
            .flat_map(|(_, v)| v.iter().copied())
    }

    /// Iterate all `(key, rid)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&IndexKey, RowId)> {
        self.map
            .iter()
            .flat_map(|(k, v)| v.iter().map(move |&rid| (k, rid)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(unique: bool) -> Index {
        Index::new(IndexDef {
            name: "by_id".into(),
            columns: vec![0],
            unique,
        })
    }

    fn k(v: i64) -> IndexKey {
        vec![Value::Int(v)]
    }

    #[test]
    fn insert_lookup_remove() {
        let mut i = idx(false);
        i.insert(k(1), RowId::new(0, 0)).unwrap();
        i.insert(k(1), RowId::new(0, 1)).unwrap();
        i.insert(k(2), RowId::new(0, 2)).unwrap();
        assert_eq!(i.len(), 3);
        assert_eq!(i.lookup(&k(1)), &[RowId::new(0, 0), RowId::new(0, 1)]);
        assert!(i.remove(&k(1), RowId::new(0, 0)));
        assert!(!i.remove(&k(1), RowId::new(0, 0)));
        assert_eq!(i.lookup(&k(1)), &[RowId::new(0, 1)]);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn unique_rejects_duplicates() {
        let mut i = idx(true);
        i.insert(k(1), RowId::new(0, 0)).unwrap();
        let r = i.insert(k(1), RowId::new(0, 1));
        assert!(matches!(r, Err(StorageError::UniqueViolation { .. })));
        // Same rid re-insert is idempotent, not a violation.
        i.insert(k(1), RowId::new(0, 0)).unwrap();
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_key_postings_are_pruned() {
        let mut i = idx(false);
        i.insert(k(5), RowId::new(1, 1)).unwrap();
        i.remove(&k(5), RowId::new(1, 1));
        assert!(!i.contains(&k(5)));
        assert_eq!(i.map.len(), 0);
        assert!(i.is_empty());
    }

    #[test]
    fn range_scans_in_order() {
        let mut i = idx(false);
        for v in [5i64, 1, 3, 2, 4] {
            i.insert(k(v), RowId::new(0, v as u16)).unwrap();
        }
        let lo = k(2);
        let hi = k(4);
        let got: Vec<u16> = i
            .range(Bound::Included(&lo), Bound::Included(&hi))
            .map(|r| r.slot())
            .collect();
        assert_eq!(got, vec![2, 3, 4]);
        let got: Vec<u16> = i
            .range(Bound::Excluded(&lo), Bound::Unbounded)
            .map(|r| r.slot())
            .collect();
        assert_eq!(got, vec![3, 4, 5]);
    }

    #[test]
    fn inverted_and_doubly_open_ranges_are_empty() {
        let mut i = idx(false);
        for v in 0..10i64 {
            i.insert(k(v), RowId::new(0, v as u16)).unwrap();
        }
        let (five, three) = (k(5), k(3));
        let empty = [
            (Bound::Included(&five), Bound::Excluded(&three)),
            (Bound::Excluded(&five), Bound::Included(&three)),
            (Bound::Excluded(&five), Bound::Excluded(&five)),
            (Bound::Included(&five), Bound::Excluded(&five)),
        ];
        for (lo, hi) in empty {
            assert_eq!(i.range(lo, hi).count(), 0, "{lo:?}..{hi:?}");
        }
        assert_eq!(
            i.range(Bound::Included(&five), Bound::Included(&five))
                .count(),
            1
        );
    }

    #[test]
    fn composite_keys() {
        let mut i = Index::new(IndexDef {
            name: "by_ab".into(),
            columns: vec![0, 1],
            unique: false,
        });
        let row = Row::new(vec![Value::Int(1), Value::Text("x".into()), Value::Null]);
        let key = i.key_of(&row);
        assert_eq!(key, vec![Value::Int(1), Value::Text("x".into())]);
        i.insert(key.clone(), RowId::new(0, 0)).unwrap();
        assert_eq!(i.lookup(&key), &[RowId::new(0, 0)]);
    }

    #[test]
    fn key_of_out_of_range_column_is_null() {
        let i = Index::new(IndexDef {
            name: "weird".into(),
            columns: vec![9],
            unique: false,
        });
        let row = Row::new(vec![Value::Int(1)]);
        assert_eq!(i.key_of(&row), vec![Value::Null]);
    }
}
