//! Slotted pages: the unit of tuple storage.
//!
//! Layout of an 8 KiB page:
//!
//! ```text
//! +---------------------+----------------------+-----------+-----------+
//! | header (6 bytes)    | slot directory  -->  | free gap  | <-- cells |
//! +---------------------+----------------------+-----------+-----------+
//! header: num_slots:u16 | free_start:u16 | free_end:u16
//! slot:   offset:u16 | len:u16      (offset == 0 marks a dead slot)
//! ```
//!
//! The slot directory grows forward from the header; cell bodies grow
//! backward from the end of the page. `free_start..free_end` is the
//! contiguous free gap. Deleting a record tombstones its slot (offset = 0);
//! dead slots are reused by later inserts, and `Page::compact` reclaims
//! dead cell space by sliding live cells to the end of the page.
//!
//! The count of dead slots and the dead cell bytes they still record are
//! kept beside the page, outside its 8 KiB image, and rebuilt when an
//! image is loaded: an insert into a page with no dead slot reads no slot
//! entry at all, and only a page with one scans for the lowest.

use crate::error::{Result, StorageError};
use bytes::BytesMut;

/// Size of every page in bytes.
pub(crate) const PAGE_SIZE: usize = 8192;
/// Page header size: num_slots, free_start, free_end.
const HEADER: usize = 6;
/// Size of one slot directory entry.
const SLOT: usize = 4;
/// Largest record body a single page can hold (one slot, empty page).
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER - SLOT;

/// A single slotted page.
pub struct Page {
    buf: BytesMut,
    /// Dead slots in the directory.
    dead_slots: usize,
    /// Cell bytes the dead slots still record (reclaimed by compaction).
    dead_bytes: usize,
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Page {
        let mut buf = BytesMut::zeroed(PAGE_SIZE);
        write_u16(&mut buf, 0, 0); // num_slots
        write_u16(&mut buf, 2, HEADER as u16); // free_start
        write_u16(&mut buf, 4, PAGE_SIZE as u16); // free_end; PAGE_SIZE==8192 fits u16
        Page {
            buf,
            dead_slots: 0,
            dead_bytes: 0,
        }
    }

    /// Rebuild a page from its raw bytes (used by snapshot loading).
    pub fn from_bytes(raw: &[u8]) -> Result<Page> {
        if raw.len() != PAGE_SIZE {
            return Err(StorageError::CorruptPage(format!(
                "page must be {PAGE_SIZE} bytes, got {}",
                raw.len()
            )));
        }
        let mut page = Page {
            buf: BytesMut::from(raw),
            dead_slots: 0,
            dead_bytes: 0,
        };
        page.check()?;
        for s in 0..page.num_slots() {
            let (off, len) = page.slot_entry(s);
            if off == 0 {
                page.dead_slots += 1;
                page.dead_bytes += len;
            }
        }
        Ok(page)
    }

    /// Raw bytes of the page (for snapshotting).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of slot entries ever allocated (live or dead).
    pub(crate) fn num_slots(&self) -> usize {
        read_u16(&self.buf, 0) as usize
    }

    fn free_start(&self) -> usize {
        read_u16(&self.buf, 2) as usize
    }

    fn free_end(&self) -> usize {
        read_u16(&self.buf, 4) as usize
    }

    fn set_num_slots(&mut self, v: usize) {
        write_u16(&mut self.buf, 0, v as u16);
    }

    fn set_free_start(&mut self, v: usize) {
        write_u16(&mut self.buf, 2, v as u16);
    }

    fn set_free_end(&mut self, v: usize) {
        write_u16(&mut self.buf, 4, v as u16);
    }

    fn slot_entry(&self, slot: usize) -> (usize, usize) {
        let base = HEADER + slot * SLOT;
        (
            read_u16(&self.buf, base) as usize,
            read_u16(&self.buf, base + 2) as usize,
        )
    }

    /// Rewrite the entry of an existing slot, keeping the dead counts.
    fn set_slot_entry(&mut self, slot: usize, offset: usize, len: usize) {
        let (old_offset, old_len) = self.slot_entry(slot);
        if old_offset == 0 {
            self.dead_slots -= 1;
            self.dead_bytes -= old_len;
        }
        if offset == 0 {
            self.dead_slots += 1;
            self.dead_bytes += len;
        }
        self.write_slot_entry(slot, offset, len);
    }

    fn write_slot_entry(&mut self, slot: usize, offset: usize, len: usize) {
        let base = HEADER + slot * SLOT;
        write_u16(&mut self.buf, base, offset as u16);
        write_u16(&mut self.buf, base + 2, len as u16);
    }

    /// Contiguous free bytes between the slot directory and the cell area.
    pub(crate) fn contiguous_free(&self) -> usize {
        self.free_end() - self.free_start()
    }

    /// Free bytes recoverable by compaction (dead cells) plus the gap.
    pub(crate) fn total_free(&self) -> usize {
        self.contiguous_free() + self.dead_bytes
    }

    /// Number of live records.
    pub fn live_count(&self) -> usize {
        self.num_slots() - self.dead_slots
    }

    /// Whether a record of `len` bytes can be inserted (possibly after
    /// compaction).
    pub(crate) fn can_fit(&self, len: usize) -> bool {
        if len > MAX_RECORD {
            return false;
        }
        let slot_cost = if self.dead_slots > 0 { 0 } else { SLOT };
        self.total_free() >= len + slot_cost
    }

    /// The lowest dead slot; scans the directory only when there is one.
    fn first_dead_slot(&self) -> Option<usize> {
        if self.dead_slots == 0 {
            return None;
        }
        (0..self.num_slots()).find(|&s| self.slot_entry(s).0 == 0)
    }

    /// Insert a record into the lowest dead slot, else a new one,
    /// returning its slot index, or `None` if it cannot fit even after
    /// compaction.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if !self.can_fit(record.len()) {
            return None;
        }
        let reuse = self.first_dead_slot();
        let slot_cost = if reuse.is_some() { 0 } else { SLOT };
        if self.contiguous_free() < record.len() + slot_cost {
            self.compact();
        }
        debug_assert!(self.contiguous_free() >= record.len() + slot_cost);
        let new_end = self.free_end() - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        let slot = match reuse {
            Some(s) => {
                self.set_slot_entry(s, new_end, record.len());
                s
            }
            None => {
                let s = self.num_slots();
                self.set_num_slots(s + 1);
                self.set_free_start(self.free_start() + SLOT);
                // The gap held these bytes: there is no old entry to count.
                self.write_slot_entry(s, new_end, record.len());
                s
            }
        };
        Some(slot as u16)
    }

    /// Read the record in `slot`, if live.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        let slot = slot as usize;
        if slot >= self.num_slots() {
            return None;
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return None;
        }
        Some(&self.buf[off..off + len])
    }

    /// Tombstone the record in `slot`. Returns true if it was live.
    pub fn delete(&mut self, slot: u16) -> bool {
        let slot = slot as usize;
        if slot >= self.num_slots() {
            return false;
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 {
            return false;
        }
        // Keep the length so total_free() can account for the dead cell.
        self.set_slot_entry(slot, 0, len);
        true
    }

    /// Replace the record in `slot` with `record`, in place when possible.
    /// Returns false if the slot is dead or the new record cannot fit.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> bool {
        let s = slot as usize;
        if s >= self.num_slots() {
            return false;
        }
        let (off, len) = self.slot_entry(s);
        if off == 0 {
            return false;
        }
        if record.len() <= len {
            // Shrinking in place; leftover bytes become internal waste
            // reclaimed at the next compaction (we keep len as the cell
            // size so accounting stays simple).
            self.buf[off..off + record.len()].copy_from_slice(record);
            self.set_slot_entry(s, off, record.len());
            return true;
        }
        // Need to relocate: tombstone then insert, restoring on failure.
        self.set_slot_entry(s, 0, len);
        if !self.can_fit_in_slot(record.len()) {
            self.set_slot_entry(s, off, len);
            return false;
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let new_end = self.free_end() - record.len();
        self.buf[new_end..new_end + record.len()].copy_from_slice(record);
        self.set_free_end(new_end);
        self.set_slot_entry(s, new_end, record.len());
        true
    }

    /// can_fit variant that does not require a fresh slot (reusing `slot`).
    fn can_fit_in_slot(&self, len: usize) -> bool {
        len <= MAX_RECORD && self.total_free() >= len
    }

    /// Slide live cells to the end of the page, coalescing free space.
    pub(crate) fn compact(&mut self) {
        let n = self.num_slots();
        // Collect live cells (slot, offset, len), sorted by offset descending
        // so we can repack from the page end without overlap.
        let mut live: Vec<(usize, usize, usize)> = (0..n)
            .filter_map(|s| {
                let (off, len) = self.slot_entry(s);
                (off != 0).then_some((s, off, len))
            })
            .collect();
        live.sort_by_key(|&(_, off, _)| std::cmp::Reverse(off));
        let mut write_end = PAGE_SIZE;
        for (slot, off, len) in live {
            let new_off = write_end - len;
            self.buf.copy_within(off..off + len, new_off);
            self.set_slot_entry(slot, new_off, len);
            write_end = new_off;
        }
        // Dead slots lose their recorded length once the cell is reclaimed.
        for s in 0..n {
            let (off, _len) = self.slot_entry(s);
            if off == 0 {
                self.set_slot_entry(s, 0, 0);
            }
        }
        self.set_free_end(write_end);
    }

    /// Iterate over `(slot, record)` pairs of live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.num_slots()).filter_map(move |s| {
            let (off, len) = self.slot_entry(s);
            (off != 0).then(|| (s as u16, &self.buf[off..off + len]))
        })
    }

    /// Validate internal invariants; used when loading snapshots.
    fn check(&self) -> Result<()> {
        let n = self.num_slots();
        let fs = self.free_start();
        let fe = self.free_end();
        if fs != HEADER + n * SLOT {
            return Err(StorageError::CorruptPage(format!(
                "free_start {fs} inconsistent with {n} slots"
            )));
        }
        if fe < fs || fe > PAGE_SIZE {
            return Err(StorageError::CorruptPage(format!(
                "free_end {fe} out of range"
            )));
        }
        for s in 0..n {
            let (off, len) = self.slot_entry(s);
            if off == 0 {
                continue;
            }
            if off < fe || off + len > PAGE_SIZE {
                return Err(StorageError::CorruptPage(format!(
                    "slot {s} cell [{off}, {}) escapes cell area",
                    off + len
                )));
            }
        }
        Ok(())
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn delete_tombstones_and_slot_reuse() {
        let mut p = Page::new();
        let a = p.insert(b"aaa").unwrap();
        let _b = p.insert(b"bbb").unwrap();
        assert!(p.delete(a));
        assert!(!p.delete(a), "double delete is a no-op");
        assert_eq!(p.get(a), None);
        let c = p.insert(b"ccc").unwrap();
        assert_eq!(c, a, "dead slot should be reused");
        assert_eq!(p.get(c), Some(&b"ccc"[..]));
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8192 - 6 header; each record costs 100 + 4 slot bytes.
        assert_eq!(n, (PAGE_SIZE - HEADER) / 104);
        assert!(!p.can_fit(100));
        assert!(p.can_fit(10) || p.contiguous_free() < 14);
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut p = Page::new();
        let mut slots = Vec::new();
        let rec = [3u8; 512];
        while let Some(s) = p.insert(&rec) {
            slots.push(s);
        }
        // Delete every other record, then insert one bigger than the gap.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(*s);
            }
        }
        let big = [9u8; 1024];
        let s = p.insert(&big).expect("compaction should make room");
        assert_eq!(p.get(s), Some(&big[..]));
        // Survivors unchanged.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(p.get(*s), Some(&rec[..]));
            }
        }
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut p = Page::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        assert!(p.update(s, &[2u8; 32]), "shrink in place");
        assert_eq!(p.get(s), Some(&[2u8; 32][..]));
        assert!(p.update(s, &[3u8; 128]), "grow relocates");
        assert_eq!(p.get(s), Some(&[3u8; 128][..]));
    }

    #[test]
    fn update_too_large_restores_original() {
        let mut p = Page::new();
        let s = p.insert(&[1u8; 64]).unwrap();
        // Fill the page so the oversized update cannot fit.
        while p.insert(&[0u8; 256]).is_some() {}
        let huge = vec![9u8; MAX_RECORD + 1];
        assert!(!p.update(s, &huge));
        assert_eq!(p.get(s), Some(&[1u8; 64][..]), "original value intact");
    }

    #[test]
    fn empty_record_supported() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        // Slotted pages can't distinguish a live zero-offset record, so we
        // store empty records at a real offset: get must return Some.
        assert_eq!(p.get(s), Some(&b""[..]));
    }

    #[test]
    fn iter_yields_live_only() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b);
        let got: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, r)| (s, r.to_vec())).collect();
        assert_eq!(got, vec![(a, b"a".to_vec()), (c, b"c".to_vec())]);
    }

    #[test]
    fn snapshot_round_trip() {
        let mut p = Page::new();
        let a = p.insert(b"persist me").unwrap();
        p.insert(b"and me").unwrap();
        let raw = p.as_bytes().to_vec();
        let q = Page::from_bytes(&raw).unwrap();
        assert_eq!(q.get(a), Some(&b"persist me"[..]));
        assert_eq!(q.live_count(), 2);
    }

    #[test]
    fn from_bytes_rejects_bad_sizes_and_corruption() {
        assert!(Page::from_bytes(&[0u8; 10]).is_err());
        let mut raw = Page::new().as_bytes().to_vec();
        raw[0] = 0xFF; // absurd slot count
        raw[1] = 0xFF;
        assert!(Page::from_bytes(&raw).is_err());
    }

    /// Dead slots, dead bytes and the lowest dead slot, by scanning the
    /// directory.
    fn scan(p: &Page) -> (usize, usize, Option<usize>) {
        let dead: Vec<(usize, usize)> = (0..p.num_slots())
            .map(|s| (s, p.slot_entry(s)))
            .filter(|&(_, (off, _))| off == 0)
            .map(|(s, (_, len))| (s, len))
            .collect();
        let bytes = dead.iter().map(|&(_, len)| len).sum();
        (dead.len(), bytes, dead.first().map(|&(s, _)| s))
    }

    /// Random inserts, deletes, updates and compactions: the counts kept
    /// beside the page always equal a fresh scan, `can_fit` answers as
    /// the scan would, an insert takes the slot a scan picks (the lowest
    /// dead one, else a new one), and a reloaded image counts the same.
    #[test]
    fn cached_dead_counts_match_a_scan() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut p = Page::new();
        for step in 0..20_000 {
            let slots = p.num_slots().max(1);
            match next(10) {
                0..=3 => {
                    let len = next(700);
                    let (dead, dead_bytes, lowest) = scan(&p);
                    let fits = len <= MAX_RECORD
                        && p.contiguous_free() + dead_bytes
                            >= len + if dead > 0 { 0 } else { SLOT };
                    assert_eq!(p.can_fit(len), fits, "step {step}");
                    let want = lowest.unwrap_or(p.num_slots());
                    let got = p.insert(&vec![step as u8; len]);
                    assert_eq!(got, fits.then_some(want as u16), "step {step}");
                }
                4..=6 => {
                    p.delete(next(slots) as u16);
                }
                7 | 8 => {
                    let len = next(900);
                    p.update(next(slots) as u16, &vec![1; len]);
                }
                _ => p.compact(),
            }
            let (dead, dead_bytes, _) = scan(&p);
            assert_eq!(
                (p.dead_slots, p.dead_bytes),
                (dead, dead_bytes),
                "step {step}"
            );
            assert_eq!(p.live_count(), p.num_slots() - dead);
            if step % 1000 == 0 {
                let q = Page::from_bytes(p.as_bytes()).unwrap();
                assert_eq!((q.dead_slots, q.dead_bytes), (dead, dead_bytes));
            }
        }
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new();
        assert!(p.insert(&vec![0u8; MAX_RECORD + 1]).is_none());
        assert!(p.insert(&vec![0u8; MAX_RECORD]).is_some());
    }
}
