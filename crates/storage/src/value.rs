//! Typed values and their total ordering.
//!
//! The engine supports a deliberately small set of scalar types that covers
//! the paper's workloads (directory records, movie records, web objects):
//! booleans, 64-bit integers, 64-bit floats, UTF-8 text, and raw bytes.
//!
//! [`Value`] implements a *total* order (`Ord`) so values can key B-tree
//! indexes. Floats are ordered via [`f64::total_cmp`]; values of different
//! types are ordered by a fixed type rank (`Null < Bool < Int < Float <
//! Text < Bytes`), except that `Int` and `Float` compare numerically so
//! mixed-type predicates behave intuitively.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Text,
    Bytes,
}

impl DataType {
    /// SQL-ish name of this type, used in error messages and `CREATE TABLE`.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bytes => "BYTES",
        }
    }

    /// Parse a type name as it appears in `CREATE TABLE` statements.
    pub fn parse(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "STRING" => Some(DataType::Text),
            "BYTES" | "BLOB" | "BINARY" => Some(DataType::Bytes),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single scalar value stored in a row.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Bytes(Vec<u8>),
}

impl Value {
    /// The runtime type of this value, or `None` for `Null` (which is a
    /// member of every type).
    pub(crate) fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Text(_) => Some(DataType::Text),
            Value::Bytes(_) => Some(DataType::Bytes),
        }
    }

    /// Name of this value's type for error messages.
    pub fn type_name(&self) -> &'static str {
        match self.data_type() {
            Some(dt) => dt.name(),
            None => "NULL",
        }
    }

    /// Whether this value is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Whether this value can be stored in a column of type `dt`.
    /// NULL is compatible with every type (NOT NULL is enforced separately).
    pub fn fits(&self, dt: DataType) -> bool {
        match self.data_type() {
            None => true,
            Some(t) => t == dt,
        }
    }

    /// Clone into an existing slot, reusing the slot's heap capacity
    /// when both sides are the same variable-width variant.
    pub(crate) fn clone_into_slot(&self, slot: &mut Value) {
        match (self, slot) {
            (Value::Text(s), Value::Text(dst)) => {
                dst.clear();
                dst.push_str(s);
            }
            (Value::Bytes(b), Value::Bytes(dst)) => {
                dst.clear();
                dst.extend_from_slice(b);
            }
            (v, dst) => *dst = v.clone(),
        }
    }

    /// Interpret as a float, widening integers.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Rank used to order values of different types.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2, // numerics interleave
            Value::Text(_) => 3,
            Value::Bytes(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            // Numeric cross-type comparison: compare as floats, falling back
            // to total_cmp semantics. i64 -> f64 may lose precision beyond
            // 2^53, which is acceptable for this engine's workloads.
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Eq treats Int(1) == Float(1.0), so all numerics must hash
            // identically when they compare equal: hash the f64 bit pattern.
            // (Distinct huge i64s may collide after widening; collisions are
            // allowed, only eq => same-hash is required.)
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(x) => {
                2u8.hash(state);
                x.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bytes(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bytes(b) => {
                f.write_str("x'")?;
                for byte in b {
                    write!(f, "{byte:02x}")?;
                }
                f.write_str("'")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_names_round_trip() {
        for dt in [
            DataType::Bool,
            DataType::Int,
            DataType::Float,
            DataType::Text,
            DataType::Bytes,
        ] {
            assert_eq!(DataType::parse(dt.name()), Some(dt));
        }
        assert_eq!(DataType::parse("varchar"), Some(DataType::Text));
        assert_eq!(DataType::parse("nope"), None);
    }

    #[test]
    fn ordering_within_types() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Text("a".into()) < Value::Text("b".into()));
        assert!(Value::Bool(false) < Value::Bool(true));
        assert!(Value::Bytes(vec![1]) < Value::Bytes(vec![1, 0]));
    }

    #[test]
    fn numeric_cross_type_ordering() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert!(Value::Int(3) < Value::Float(3.5));
        assert!(Value::Float(2.5) < Value::Int(3));
    }

    #[test]
    fn null_sorts_first() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Null < Value::Int(i64::MIN));
        assert!(Value::Null < Value::Text(String::new()));
    }

    #[test]
    fn nan_has_total_order() {
        let nan = Value::Float(f64::NAN);
        let inf = Value::Float(f64::INFINITY);
        // total_cmp puts NaN above +inf.
        assert!(nan > inf);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
    }

    #[test]
    fn fits_and_null() {
        assert!(Value::Null.fits(DataType::Int));
        assert!(Value::Int(1).fits(DataType::Int));
        assert!(!Value::Int(1).fits(DataType::Text));
        assert!(Value::Null.is_null());
        assert!(!Value::Int(0).is_null());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Text("hi".into()).to_string(), "'hi'");
        assert_eq!(Value::Bytes(vec![0xde, 0xad]).to_string(), "x'dead'");
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::Float(1.5).as_float(), Some(1.5));
    }

    #[test]
    fn hash_consistent_with_eq_for_numerics() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        // Int(1) == Float(1.0) must imply equal hashes.
        assert_eq!(Value::Int(1), Value::Float(1.0));
        assert_eq!(h(&Value::Int(1)), h(&Value::Float(1.0)));
        assert_eq!(h(&Value::Int(1)), h(&Value::Int(1)));
    }
}
