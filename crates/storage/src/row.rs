//! Rows and row identifiers.

use crate::value::Value;
use std::fmt;

/// A tuple: an ordered list of values matching some [`crate::schema::Schema`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at position `idx`.
    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Replace the value at position `idx`. Panics if out of range.
    pub fn set(&mut self, idx: usize, value: Value) {
        self.values[idx] = value;
    }

    /// Mutable access to the values, for decoders that refill a row in
    /// place. Callers are responsible for keeping the arity consistent
    /// with whatever schema the row is used against.
    pub fn values_mut(&mut self) -> &mut Vec<Value> {
        &mut self.values
    }

    /// Project into an existing row, reusing its per-slot allocations.
    pub fn project_into(&self, indices: &[usize], out: &mut Row) {
        let values = &mut out.values;
        values.truncate(indices.len());
        for (slot, &i) in values.iter_mut().zip(indices) {
            self.values[i].clone_into_slot(slot);
        }
        for &i in &indices[values.len()..] {
            values.push(self.values[i].clone());
        }
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

/// Stable identifier of a stored row: a (page, slot) pair packed into 64
/// bits. RowIds are never reused within a table's lifetime only if the slot
/// is not reclaimed; the heap reuses dead slots, so holders of a RowId must
/// not assume liveness across deletes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowId(u64);

impl RowId {
    /// Pack a page number and slot index.
    pub fn new(page: u32, slot: u16) -> RowId {
        RowId(((page as u64) << 16) | slot as u64)
    }

    /// The page number.
    pub fn page(self) -> u32 {
        (self.0 >> 16) as u32
    }

    /// The slot index within the page.
    pub fn slot(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Raw packed form (used in errors and as a popularity key).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild from the raw packed form.
    pub fn from_raw(raw: u64) -> RowId {
        RowId(raw)
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page(), self.slot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_basics() {
        let mut r = Row::new(vec![Value::Int(1), Value::Text("a".into())]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.get(0), Some(&Value::Int(1)));
        assert_eq!(r.get(9), None);
        r.set(0, Value::Int(5));
        assert_eq!(r.get(0), Some(&Value::Int(5)));
        assert_eq!(r.to_string(), "(5, 'a')");
    }

    #[test]
    fn row_projection() {
        let r = Row::new(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let mut p = Row::new(Vec::new());
        r.project_into(&[2, 0], &mut p);
        assert_eq!(p.values(), &[Value::Int(3), Value::Int(1)]);
    }

    #[test]
    fn rowid_packing_round_trips() {
        for (page, slot) in [(0u32, 0u16), (1, 2), (u32::MAX, u16::MAX), (12345, 678)] {
            let rid = RowId::new(page, slot);
            assert_eq!(rid.page(), page);
            assert_eq!(rid.slot(), slot);
            assert_eq!(RowId::from_raw(rid.raw()), rid);
        }
    }

    #[test]
    fn rowid_ordering_is_page_major() {
        assert!(RowId::new(0, 5) < RowId::new(1, 0));
        assert!(RowId::new(1, 0) < RowId::new(1, 1));
    }

    #[test]
    fn rowid_display() {
        assert_eq!(RowId::new(3, 7).to_string(), "3:7");
    }
}
