//! Table schemas: named, typed columns with nullability.

use crate::error::{Result, StorageError};
use crate::row::Row;
use crate::value::DataType;

/// A single column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (case-sensitive, unique within a schema).
    pub name: String,
    /// Declared type.
    pub dtype: DataType,
    /// Whether NULL values are rejected.
    pub not_null: bool,
}

impl Column {
    /// A nullable column.
    pub fn new(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            not_null: false,
        }
    }

    /// A NOT NULL column.
    pub fn not_null(name: impl Into<String>, dtype: DataType) -> Self {
        Column {
            name: name.into(),
            dtype,
            not_null: true,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Build a schema, validating that column names are unique and non-empty.
    pub fn new(columns: Vec<Column>) -> Result<Schema> {
        for (i, c) in columns.iter().enumerate() {
            if c.name.is_empty() {
                return Err(StorageError::ColumnNotFound(String::new()));
            }
            if columns[..i].iter().any(|p| p.name == c.name) {
                return Err(StorageError::TableExists(format!(
                    "duplicate column `{}`",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Index of the column named `name`.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StorageError::ColumnNotFound(name.to_owned()))
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&Column> {
        let idx = self.index_of(name)?;
        Ok(&self.columns[idx])
    }

    /// Validate that `row` conforms to this schema: arity, types, NOT NULL.
    pub fn validate(&self, row: &Row) -> Result<()> {
        if row.arity() != self.arity() {
            return Err(StorageError::ArityMismatch {
                expected: self.arity(),
                actual: row.arity(),
            });
        }
        for (col, val) in self.columns.iter().zip(row.values()) {
            if val.is_null() {
                if col.not_null {
                    return Err(StorageError::NullViolation(col.name.clone()));
                }
                continue;
            }
            if !val.fits(col.dtype) {
                return Err(StorageError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.dtype.name(),
                    actual: val.type_name(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn demo_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("title", DataType::Text),
            Column::new("rating", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let s = demo_schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.index_of("title").unwrap(), 1);
        assert_eq!(s.column("rating").unwrap().dtype, DataType::Float);
        assert!(s.index_of("nope").is_err());
        assert!(s.columns().get(2).is_some());
        assert!(s.columns().get(3).is_none());
    }

    #[test]
    fn duplicate_columns_rejected() {
        let r = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("a", DataType::Text),
        ]);
        assert!(r.is_err());
    }

    #[test]
    fn empty_name_rejected() {
        assert!(Schema::new(vec![Column::new("", DataType::Int)]).is_err());
    }

    #[test]
    fn validate_accepts_conforming_row() {
        let s = demo_schema();
        let row = Row::new(vec![Value::Int(1), Value::Text("Up".into()), Value::Null]);
        assert!(s.validate(&row).is_ok());
    }

    #[test]
    fn validate_rejects_arity() {
        let s = demo_schema();
        let row = Row::new(vec![Value::Int(1)]);
        assert!(matches!(
            s.validate(&row),
            Err(StorageError::ArityMismatch {
                expected: 3,
                actual: 1
            })
        ));
    }

    #[test]
    fn validate_rejects_type_mismatch() {
        let s = demo_schema();
        let row = Row::new(vec![
            Value::Text("one".into()),
            Value::Text("Up".into()),
            Value::Null,
        ]);
        assert!(matches!(
            s.validate(&row),
            Err(StorageError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_null_violation() {
        let s = demo_schema();
        let row = Row::new(vec![Value::Null, Value::Text("Up".into()), Value::Null]);
        assert!(matches!(s.validate(&row), Err(StorageError::NullViolation(c)) if c == "id"));
    }
}
