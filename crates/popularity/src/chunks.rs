//! Key-ordered chunk directories.
//!
//! Row keys are dense: a table's `RowId`s count slots up from zero within
//! each storage page (the page number sits above a 16-bit slot), and a
//! peer's rows fold in under one tagged prefix per origin
//! (`delayguard_core::replica`). Per-key state is therefore stored in
//! fixed runs of [`CHUNK_KEYS`] consecutive keys, one chunk per run that
//! holds at least one key, found through a [`KeyChunks`] directory
//! sorted by chunk id. When the chunk ids are evenly spaced — `0..len`,
//! or one chunk per storage page of a table — the directory finds a
//! chunk by interpolation, not searching.

/// log2 of [`CHUNK_KEYS`].
pub(crate) const CHUNK_BITS: u32 = 8;
/// Keys per chunk: a chunk holds keys `id << CHUNK_BITS ..` up to the
/// next multiple of this.
pub const CHUNK_KEYS: usize = 1 << CHUNK_BITS;

/// The chunk id holding `key`, and the key's slot inside that chunk.
#[inline]
pub fn split_key(key: u64) -> (u64, usize) {
    (key >> CHUNK_BITS, (key as usize) & (CHUNK_KEYS - 1))
}

/// Chunks of per-key state, sorted by chunk id.
#[derive(Debug, Clone)]
pub struct KeyChunks<T> {
    ids: Vec<u64>,
    items: Vec<T>,
}

impl<T> KeyChunks<T> {
    /// An empty directory.
    pub fn new() -> KeyChunks<T> {
        KeyChunks {
            ids: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the directory holds no chunk.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Position of chunk `id`: `Ok` where it is, `Err` where it would be
    /// inserted.
    #[inline]
    pub fn find(&self, id: u64) -> Result<usize, usize> {
        let (Some(&first), Some(&last)) = (self.ids.first(), self.ids.last()) else {
            return Err(0);
        };
        if first <= id && id <= last {
            // Evenly spaced ids (`0..len`, or one chunk per storage page)
            // put `id` exactly where linear interpolation says.
            let span = (last - first).max(1) as f64;
            let at = (id - first) as f64 / span * (self.ids.len() - 1) as f64;
            let guess = at.round() as usize;
            if self.ids.get(guess) == Some(&id) {
                return Ok(guess);
            }
        }
        self.ids.binary_search(&id)
    }

    /// Like [`KeyChunks::find`], but first tries position `hint` (a key
    /// stream in ascending order stays in one chunk for a while).
    #[inline]
    pub fn find_from(&self, id: u64, hint: usize) -> Result<usize, usize> {
        match self.ids.get(hint) {
            Some(&at) if at == id => Ok(hint),
            _ => self.find(id),
        }
    }

    /// The chunk holding `key`, with the key's slot in it.
    #[inline]
    pub fn get(&self, key: u64) -> Option<(&T, usize)> {
        let (id, slot) = split_key(key);
        self.find(id).ok().map(|i| (&self.items[i], slot))
    }

    /// The chunk at position `i`.
    #[inline]
    pub fn at(&self, i: usize) -> &T {
        &self.items[i]
    }

    /// The chunk at position `i`, mutably.
    #[inline]
    pub(crate) fn at_mut(&mut self, i: usize) -> &mut T {
        &mut self.items[i]
    }

    /// Insert chunk `id` at position `i` (as returned by a failed
    /// [`KeyChunks::find`]).
    pub fn insert(&mut self, i: usize, id: u64, item: T) {
        debug_assert!(i == 0 || self.ids[i - 1] < id);
        debug_assert!(i == self.ids.len() || self.ids[i] > id);
        self.ids.insert(i, id);
        self.items.insert(i, item);
    }

    /// Append chunk `id`, which must sort after every chunk held.
    pub fn push(&mut self, id: u64, item: T) {
        debug_assert!(self.ids.last().is_none_or(|&last| last < id));
        self.ids.push(id);
        self.items.push(item);
    }

    /// `(chunk id, chunk)` in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> + '_ {
        self.ids.iter().copied().zip(&self.items)
    }

    /// Every chunk, mutably, in ascending id order.
    pub(crate) fn items_mut(&mut self) -> impl Iterator<Item = &mut T> + '_ {
        self.items.iter_mut()
    }

    /// Heap bytes of the directory itself (not of what its items own).
    pub fn directory_bytes(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u64>()
            + self.items.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> Default for KeyChunks<T> {
    fn default() -> Self {
        KeyChunks::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_dense_and_sparse_ids() {
        let mut d = KeyChunks::new();
        for id in 0..4u64 {
            d.push(id, id * 10);
        }
        d.push(1 << 40, 99);
        assert_eq!(d.find(2), Ok(2));
        assert_eq!(d.find(1 << 40), Ok(4));
        assert_eq!(d.find(7), Err(4));
        assert_eq!(d.find_from(3, 3), Ok(3));
        assert_eq!(d.find_from(3, 0), Ok(3));
        d.insert(4, 7, 70);
        assert_eq!(d.get(7 << CHUNK_BITS | 5), Some((&70, 5)));
        assert_eq!(d.get(5 << CHUNK_BITS), None);
        let ids: Vec<u64> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 7, 1 << 40]);
    }

    #[test]
    fn finds_every_evenly_spaced_id_and_misses_the_gaps() {
        let mut d = KeyChunks::new();
        for page in 0..1000u64 {
            d.push(page * 256, page);
        }
        for page in 0..1000u64 {
            assert_eq!(d.find(page * 256), Ok(page as usize));
            assert_eq!(d.find(page * 256 + 1), Err(page as usize + 1));
        }
        assert_eq!(d.find(u64::MAX), Err(1000));
        assert_eq!(KeyChunks::<u8>::new().find(3), Err(0));
    }
}
