//! Error types for the storage engine.

use std::fmt;

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A table with this name already exists in the catalog.
    TableExists(String),
    /// No table with this name exists in the catalog.
    TableNotFound(String),
    /// No column with this name exists in the schema.
    ColumnNotFound(String),
    /// An index with this name already exists on the table.
    IndexExists(String),
    /// The row has the wrong number of columns for the schema.
    ArityMismatch { expected: usize, actual: usize },
    /// A value's type does not match the column's declared type.
    TypeMismatch {
        column: String,
        expected: &'static str,
        actual: &'static str,
    },
    /// A NULL was supplied for a NOT NULL column.
    NullViolation(String),
    /// A uniqueness constraint was violated.
    UniqueViolation { index: String },
    /// The row id does not refer to a live row.
    RowNotFound(u64),
    /// A tuple is too large to fit in a page.
    RowTooLarge { size: usize, max: usize },
    /// A page is internally inconsistent (corrupt slot directory, etc.).
    CorruptPage(String),
    /// A persisted snapshot failed validation (bad magic, version, CRC).
    CorruptSnapshot(String),
    /// An underlying I/O error, stringified for cloneability.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::TableExists(name) => write!(f, "table `{name}` already exists"),
            StorageError::TableNotFound(name) => write!(f, "table `{name}` not found"),
            StorageError::ColumnNotFound(name) => write!(f, "column `{name}` not found"),
            StorageError::IndexExists(name) => write!(f, "index `{name}` already exists"),
            StorageError::ArityMismatch { expected, actual } => {
                write!(
                    f,
                    "row arity mismatch: schema has {expected} columns, row has {actual}"
                )
            }
            StorageError::TypeMismatch {
                column,
                expected,
                actual,
            } => write!(
                f,
                "type mismatch for column `{column}`: expected {expected}, got {actual}"
            ),
            StorageError::NullViolation(column) => {
                write!(f, "NULL value for NOT NULL column `{column}`")
            }
            StorageError::UniqueViolation { index } => {
                write!(f, "unique constraint violated on index `{index}`")
            }
            StorageError::RowNotFound(rid) => write!(f, "row id {rid:#x} not found"),
            StorageError::RowTooLarge { size, max } => {
                write!(
                    f,
                    "row of {size} bytes exceeds page capacity of {max} bytes"
                )
            }
            StorageError::CorruptPage(msg) => write!(f, "corrupt page: {msg}"),
            StorageError::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
            StorageError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = StorageError::TypeMismatch {
            column: "title".into(),
            expected: "TEXT",
            actual: "INT",
        };
        let s = e.to_string();
        assert!(s.contains("title"));
        assert!(s.contains("TEXT"));
        assert!(s.contains("INT"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(e.to_string().contains("nope"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            StorageError::TableNotFound("t".into()),
            StorageError::TableNotFound("t".into())
        );
        assert_ne!(
            StorageError::TableNotFound("t".into()),
            StorageError::TableExists("t".into())
        );
    }
}
