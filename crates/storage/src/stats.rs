//! Lightweight operation counters per table.

/// Counters of operations applied to a table since creation (or snapshot
/// load). Used by the overhead experiments and by the update-rate delay
/// policy to observe update traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows inserted.
    pub inserts: u64,
    /// Rows updated in place (including relocations).
    pub updates: u64,
    /// Rows deleted.
    pub deletes: u64,
    /// Point reads served (get by RowId).
    pub reads: u64,
}
