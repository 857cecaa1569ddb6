//! Abstract syntax tree for the SQL subset.

use delayguard_storage::{DataType, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [NOT NULL], ...)`
    CreateTable {
        name: String,
        columns: Vec<ColumnDef>,
    },
    /// `CREATE [UNIQUE] INDEX name ON table (col, ...)`
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    /// `DROP TABLE name`
    DropTable { name: String },
    /// `INSERT INTO table VALUES (...), (...)`
    Insert { table: String, rows: Vec<Vec<Expr>> },
    /// `SELECT ... FROM table [WHERE ...] [ORDER BY col [ASC|DESC]] [LIMIT n]`
    Select {
        table: String,
        projection: Projection,
        filter: Option<Expr>,
        order_by: Option<OrderBy>,
        limit: Option<u64>,
    },
    /// `UPDATE table SET col = expr, ... [WHERE ...]`
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE ...]`
    Delete { table: String, filter: Option<Expr> },
}

/// Column definition in `CREATE TABLE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub not_null: bool,
}

/// What a SELECT projects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`
    All,
    /// `SELECT a, b, c`
    Columns(Vec<String>),
}

/// `ORDER BY column [ASC|DESC]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    pub column: String,
    pub ascending: bool,
}

impl Statement {
    /// Replace every number and string literal of a `WHERE` clause, an
    /// INSERT's `VALUES` and an UPDATE's `SET` with [`Expr::Param`],
    /// appending the values to `out` in source order, so
    /// one prepared plan serves every statement of the same shape.
    /// `TRUE`/`FALSE`/`NULL` and the `LIMIT` count stay part of the shape:
    /// the planner treats `NULL` specially, and a count is not an
    /// expression. DDL is left as it is.
    pub(crate) fn lift_literals(&mut self, out: &mut Vec<Value>) {
        match self {
            Statement::Select { filter, .. } | Statement::Delete { filter, .. } => {
                filter.iter_mut().for_each(|f| f.lift_literals(out));
            }
            Statement::Insert { rows, .. } => {
                rows.iter_mut().flatten().for_each(|e| e.lift_literals(out));
            }
            Statement::Update {
                assignments,
                filter,
                ..
            } => {
                for (_, e) in assignments.iter_mut() {
                    e.lift_literals(out);
                }
                filter.iter_mut().for_each(|f| f.lift_literals(out));
            }
            Statement::CreateTable { .. }
            | Statement::CreateIndex { .. }
            | Statement::DropTable { .. } => {}
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// Positional parameter `n`: a literal lifted out of the statement by
    /// `Statement::lift_literals`, bound before each execution.
    Param(usize),
    /// A column reference.
    Column(String),
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for binary nodes.
    pub(crate) fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Convenience constructor `column op literal`.
    pub fn cmp(column: &str, op: BinOp, value: impl Into<Value>) -> Expr {
        Expr::binary(
            op,
            Expr::Column(column.to_owned()),
            Expr::Literal(value.into()),
        )
    }

    /// See `Statement::lift_literals`. Operands are visited left to
    /// right, which is the order their tokens appear in the source.
    fn lift_literals(&mut self, out: &mut Vec<Value>) {
        match self {
            Expr::Literal(v @ (Value::Int(_) | Value::Float(_) | Value::Text(_))) => {
                out.push(std::mem::replace(v, Value::Null));
                *self = Expr::Param(out.len() - 1);
            }
            Expr::Literal(_) | Expr::Param(_) | Expr::Column(_) => {}
            Expr::Unary { expr, .. } => expr.lift_literals(out),
            Expr::Binary { left, right, .. } => {
                left.lift_literals(out);
                right.lift_literals(out);
            }
        }
    }

    /// One more than the highest parameter index in this expression (0
    /// when it has none).
    pub(crate) fn param_count(&self) -> usize {
        match self {
            Expr::Param(i) => i + 1,
            Expr::Literal(_) | Expr::Column(_) => 0,
            Expr::Unary { expr, .. } => expr.param_count(),
            Expr::Binary { left, right, .. } => left.param_count().max(right.param_count()),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// Whether this operator is a comparison yielding a boolean.
    pub(crate) fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical NOT.
    Not,
    /// Arithmetic negation.
    Neg,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_helpers() {
        let e = Expr::cmp("id", BinOp::Eq, 42i64);
        match e {
            Expr::Binary { op, left, right } => {
                assert_eq!(op, BinOp::Eq);
                assert_eq!(*left, Expr::Column("id".into()));
                assert_eq!(*right, Expr::Literal(Value::Int(42)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lifting_replaces_number_and_string_literals_in_source_order() {
        let mut stmt = crate::parse(
            "SELECT a FROM t WHERE b = 'x' AND (c > -2.5 OR d = NULL) AND e != TRUE LIMIT 3",
        )
        .unwrap();
        let mut values = Vec::new();
        stmt.lift_literals(&mut values);
        assert_eq!(
            values,
            vec![Value::Text("x".into()), Value::Float(2.5)],
            "NULL, TRUE and the LIMIT count stay in the statement"
        );
        let Statement::Select { filter, limit, .. } = &stmt else {
            panic!("still a SELECT");
        };
        assert_eq!(*limit, Some(3));
        assert_eq!(filter.as_ref().unwrap().param_count(), 2);
        let again = crate::parse(
            "SELECT a FROM t WHERE b = 'y' AND (c > -7.0 OR d = NULL) AND e != TRUE LIMIT 3",
        )
        .map(|mut s| {
            s.lift_literals(&mut Vec::new());
            s
        })
        .unwrap();
        assert_eq!(stmt, again, "same shape, same lifted statement");
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::GtEq.is_comparison());
        assert!(!BinOp::And.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }
}
