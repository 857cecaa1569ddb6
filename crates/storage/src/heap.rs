//! Heap files: an append-friendly collection of slotted pages.
//!
//! A heap file owns a vector of [`Page`]s and hands out [`RowId`]s. Inserts
//! fill existing pages first via a simple free-space hint (the lowest page
//! known to have room), falling back to appending a fresh page.

use crate::error::{Result, StorageError};
use crate::page::{Page, MAX_RECORD};
use crate::row::RowId;

/// A growable collection of slotted pages.
pub struct HeapFile {
    pages: Vec<Page>,
    /// Lowest page index that might have free space; insertion scans from
    /// here instead of from zero to keep inserts amortized O(1).
    hint: usize,
    live: usize,
}

impl HeapFile {
    /// An empty heap file.
    pub fn new() -> HeapFile {
        HeapFile {
            pages: Vec::new(),
            hint: 0,
            live: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the heap holds no live records.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Insert an encoded record, returning its new RowId.
    pub fn insert(&mut self, record: &[u8]) -> Result<RowId> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RowTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        // Try pages starting from the hint.
        for idx in self.hint..self.pages.len() {
            if let Some(slot) = self.pages[idx].insert(record) {
                self.live += 1;
                return Ok(RowId::new(idx as u32, slot));
            }
            // This page couldn't even fit this record; only advance the hint
            // past pages that look genuinely full for small records, so we
            // don't strand free space. A page with < 64 free bytes is
            // considered full for hint purposes.
            if idx == self.hint && self.pages[idx].total_free() < 64 {
                self.hint = idx + 1;
            }
        }
        let mut page = Page::new();
        let slot = page
            .insert(record)
            .expect("fresh page must fit a <= MAX_RECORD record");
        self.pages.push(page);
        self.live += 1;
        Ok(RowId::new((self.pages.len() - 1) as u32, slot))
    }

    /// Fetch the record for `rid`, if live.
    pub fn get(&self, rid: RowId) -> Option<&[u8]> {
        self.pages.get(rid.page() as usize)?.get(rid.slot())
    }

    /// Delete the record for `rid`. Returns true if it was live.
    pub fn delete(&mut self, rid: RowId) -> bool {
        let Some(page) = self.pages.get_mut(rid.page() as usize) else {
            return false;
        };
        let deleted = page.delete(rid.slot());
        if deleted {
            self.live -= 1;
            self.hint = self.hint.min(rid.page() as usize);
        }
        deleted
    }

    /// Update the record for `rid` in place within its page. Returns the
    /// RowId (possibly relocated to another page if the page is full).
    pub fn update(&mut self, rid: RowId, record: &[u8]) -> Result<RowId> {
        if record.len() > MAX_RECORD {
            return Err(StorageError::RowTooLarge {
                size: record.len(),
                max: MAX_RECORD,
            });
        }
        let page_idx = rid.page() as usize;
        let Some(page) = self.pages.get_mut(page_idx) else {
            return Err(StorageError::RowNotFound(rid.raw()));
        };
        if page.get(rid.slot()).is_none() {
            return Err(StorageError::RowNotFound(rid.raw()));
        }
        if page.update(rid.slot(), record) {
            return Ok(rid);
        }
        // Page-local update impossible: move the record to another page.
        page.delete(rid.slot());
        self.live -= 1;
        self.hint = self.hint.min(page_idx);
        self.insert(record)
    }

    /// Iterate `(RowId, record)` over all live records in RowId order.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &[u8])> {
        self.pages.iter().enumerate().flat_map(|(pidx, page)| {
            page.iter()
                .map(move |(slot, rec)| (RowId::new(pidx as u32, slot), rec))
        })
    }

    /// Same traversal as [`HeapFile::iter`], but as a nameable type so
    /// hot-path cursors can hold it without boxing.
    pub fn scan(&self) -> HeapScan<'_> {
        HeapScan {
            pages: &self.pages,
            pidx: 0,
            slot: 0,
        }
    }

    /// Access raw pages for snapshotting.
    pub(crate) fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Rebuild a heap from snapshot pages.
    pub(crate) fn from_pages(pages: Vec<Page>) -> HeapFile {
        let live = pages.iter().map(|p| p.live_count()).sum();
        HeapFile {
            pages,
            hint: 0,
            live,
        }
    }
}

impl Default for HeapFile {
    fn default() -> Self {
        HeapFile::new()
    }
}

/// A concrete, allocation-free live-record iterator over a heap file.
pub struct HeapScan<'a> {
    pages: &'a [Page],
    pidx: usize,
    slot: usize,
}

impl<'a> Iterator for HeapScan<'a> {
    type Item = (RowId, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(page) = self.pages.get(self.pidx) {
            while self.slot < page.num_slots() {
                let slot = self.slot;
                self.slot += 1;
                if let Some(rec) = page.get(slot as u16) {
                    return Some((RowId::new(self.pidx as u32, slot as u16), rec));
                }
            }
            self.pidx += 1;
            self.slot = 0;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_across_pages() {
        let mut h = HeapFile::new();
        let rec = vec![0xAB; 1000];
        let mut rids = Vec::new();
        for _ in 0..50 {
            rids.push(h.insert(&rec).unwrap());
        }
        assert!(h.pages.len() > 1, "1000-byte records must spill pages");
        assert_eq!(h.len(), 50);
        for rid in &rids {
            assert_eq!(h.get(*rid), Some(&rec[..]));
        }
    }

    #[test]
    fn delete_and_space_reuse() {
        let mut h = HeapFile::new();
        let rec = vec![1u8; 2000];
        let mut rids = Vec::new();
        for _ in 0..20 {
            rids.push(h.insert(&rec).unwrap());
        }
        let pages_before = h.pages.len();
        for rid in &rids {
            assert!(h.delete(*rid));
        }
        assert_eq!(h.len(), 0);
        // Re-inserting reuses the existing pages rather than growing.
        for _ in 0..20 {
            h.insert(&rec).unwrap();
        }
        assert_eq!(h.pages.len(), pages_before);
    }

    #[test]
    fn get_missing_is_none() {
        let h = HeapFile::new();
        assert_eq!(h.get(RowId::new(0, 0)), None);
        assert_eq!(h.get(RowId::new(7, 3)), None);
    }

    #[test]
    fn update_in_page_keeps_rid() {
        let mut h = HeapFile::new();
        let rid = h.insert(b"short").unwrap();
        let rid2 = h.update(rid, b"a bit longer record").unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(h.get(rid), Some(&b"a bit longer record"[..]));
    }

    #[test]
    fn update_relocates_when_page_full() {
        let mut h = HeapFile::new();
        let rid = h.insert(&[1u8; 100]).unwrap();
        // Fill page 0 completely.
        while h.pages.len() == 1 {
            h.insert(&[2u8; 500]).unwrap();
        }
        let n_before = h.len();
        let big = vec![3u8; 7000];
        let rid2 = h.update(rid, &big).unwrap();
        assert_ne!(rid.page(), rid2.page());
        assert_eq!(h.get(rid2), Some(&big[..]));
        assert_eq!(h.get(rid), None, "old location tombstoned");
        assert_eq!(h.len(), n_before, "live count unchanged by relocation");
    }

    #[test]
    fn update_missing_errors() {
        let mut h = HeapFile::new();
        assert!(matches!(
            h.update(RowId::new(0, 0), b"x"),
            Err(StorageError::RowNotFound(_))
        ));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = HeapFile::new();
        let r = h.insert(&vec![0u8; MAX_RECORD + 1]);
        assert!(matches!(r, Err(StorageError::RowTooLarge { .. })));
    }

    #[test]
    fn iter_in_rowid_order() {
        let mut h = HeapFile::new();
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        let c = h.insert(b"c").unwrap();
        h.delete(b);
        let rids: Vec<RowId> = h.iter().map(|(rid, _)| rid).collect();
        assert_eq!(rids, vec![a, c]);
    }

    #[test]
    fn scan_matches_iter() {
        let mut h = HeapFile::new();
        let mut rids = Vec::new();
        for i in 0..200u16 {
            rids.push(h.insert(&vec![i as u8; 40 + (i as usize % 60)]).unwrap());
        }
        for rid in rids.iter().step_by(3) {
            h.delete(*rid);
        }
        let a: Vec<(RowId, Vec<u8>)> = h.iter().map(|(r, b)| (r, b.to_vec())).collect();
        let b: Vec<(RowId, Vec<u8>)> = h.scan().map(|(r, b)| (r, b.to_vec())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut h = HeapFile::new();
        let rid = h.insert(b"keep").unwrap();
        let raw: Vec<Vec<u8>> = h.pages().iter().map(|p| p.as_bytes().to_vec()).collect();
        let pages: Vec<Page> = raw.iter().map(|r| Page::from_bytes(r).unwrap()).collect();
        let h2 = HeapFile::from_pages(pages);
        assert_eq!(h2.len(), 1);
        assert_eq!(h2.get(rid), Some(&b"keep"[..]));
    }
}
