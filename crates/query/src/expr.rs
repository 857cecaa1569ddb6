//! Expression binding and evaluation with SQL three-valued logic.
//!
//! Parsed [`Expr`]s reference columns by name; before execution they are
//! *bound* against a schema, resolving names to positions, so per-row
//! evaluation never does string lookups.

use crate::ast::{BinOp, Expr, UnaryOp};
use crate::error::{QueryError, Result};
use delayguard_storage::{Row, Schema, Value};
use std::cmp::Ordering;

/// An expression with column references resolved to positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Literal(Value),
    /// Parameter `n` and the value currently bound to it
    /// (`BoundExpr::bind_params` writes it; `NULL` until then).
    Param(usize, Value),
    Column(usize),
    Unary {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
}

/// Resolve column names in `expr` against `schema`.
pub fn bind(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Literal(v) => BoundExpr::Literal(v.clone()),
        Expr::Param(i) => BoundExpr::Param(*i, Value::Null),
        Expr::Column(name) => BoundExpr::Column(schema.index_of(name)?),
        Expr::Unary { op, expr } => BoundExpr::Unary {
            op: *op,
            expr: Box::new(bind(expr, schema)?),
        },
        Expr::Binary { op, left, right } => BoundExpr::Binary {
            op: *op,
            left: Box::new(bind(left, schema)?),
            right: Box::new(bind(right, schema)?),
        },
    })
}

impl BoundExpr {
    /// Write `params[n]` into every `Param(n, _)` slot of this tree.
    pub(crate) fn bind_params(&mut self, params: &[Value]) {
        match self {
            BoundExpr::Param(i, v) => v.clone_from(&params[*i]),
            BoundExpr::Literal(_) | BoundExpr::Column(_) => {}
            BoundExpr::Unary { expr, .. } => expr.bind_params(params),
            BoundExpr::Binary { left, right, .. } => {
                left.bind_params(params);
                right.bind_params(params);
            }
        }
    }
}

/// Evaluate a bound expression over a row.
///
/// SQL semantics: any comparison or arithmetic with a NULL operand yields
/// NULL; `AND`/`OR` use Kleene three-valued logic.
pub(crate) fn eval(expr: &BoundExpr, row: &Row) -> Result<Value> {
    match expr {
        BoundExpr::Literal(v) | BoundExpr::Param(_, v) => Ok(v.clone()),
        BoundExpr::Column(idx) => Ok(row.get(*idx).cloned().unwrap_or(Value::Null)),
        BoundExpr::Unary { op, expr } => {
            let v = eval(expr, row)?;
            match op {
                UnaryOp::Not => Ok(match v {
                    Value::Null => Value::Null,
                    Value::Bool(b) => Value::Bool(!b),
                    other => {
                        return Err(QueryError::Semantic(format!(
                            "NOT expects a boolean, got {}",
                            other.type_name()
                        )))
                    }
                }),
                UnaryOp::Neg => {
                    Ok(match v {
                        Value::Null => Value::Null,
                        Value::Int(i) => Value::Int(i.checked_neg().ok_or_else(|| {
                            QueryError::Semantic("integer negation overflow".into())
                        })?),
                        Value::Float(x) => Value::Float(-x),
                        other => {
                            return Err(QueryError::Semantic(format!(
                                "unary minus expects a number, got {}",
                                other.type_name()
                            )))
                        }
                    })
                }
            }
        }
        BoundExpr::Binary { op, left, right } => {
            if matches!(op, BinOp::And | BinOp::Or) {
                return eval_logic(*op, left, right, row);
            }
            let l = eval(left, row)?;
            let r = eval(right, row)?;
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            if op.is_comparison() {
                return Ok(eval_comparison(*op, &l, &r));
            }
            eval_arith(*op, l, r)
        }
    }
}

/// Evaluate a filter: NULL and FALSE both reject the row.
pub(crate) fn eval_filter(expr: &BoundExpr, row: &Row) -> Result<bool> {
    match eval(expr, row)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(QueryError::Semantic(format!(
            "WHERE clause must be boolean, got {}",
            other.type_name()
        ))),
    }
}

fn eval_logic(op: BinOp, left: &BoundExpr, right: &BoundExpr, row: &Row) -> Result<Value> {
    let l = as_tristate(eval(left, row)?)?;
    // Short-circuit where three-valued logic allows it.
    match (op, l) {
        (BinOp::And, Some(false)) => return Ok(Value::Bool(false)),
        (BinOp::Or, Some(true)) => return Ok(Value::Bool(true)),
        _ => {}
    }
    let r = as_tristate(eval(right, row)?)?;
    let out = match op {
        BinOp::And => match (l, r) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        },
        BinOp::Or => match (l, r) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        },
        _ => unreachable!("eval_logic called with non-logical op"),
    };
    Ok(match out {
        Some(b) => Value::Bool(b),
        None => Value::Null,
    })
}

fn as_tristate(v: Value) -> Result<Option<bool>> {
    match v {
        Value::Bool(b) => Ok(Some(b)),
        Value::Null => Ok(None),
        other => Err(QueryError::Semantic(format!(
            "logical operator expects booleans, got {}",
            other.type_name()
        ))),
    }
}

fn eval_comparison(op: BinOp, l: &Value, r: &Value) -> Value {
    let ord = l.cmp(r);
    let b = match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::NotEq => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::LtEq => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::GtEq => ord != Ordering::Less,
        _ => unreachable!("non-comparison op"),
    };
    Value::Bool(b)
}

fn eval_arith(op: BinOp, l: Value, r: Value) -> Result<Value> {
    use Value::*;
    match (l, r) {
        (Int(a), Int(b)) => {
            let out = match op {
                BinOp::Add => a.checked_add(b),
                BinOp::Sub => a.checked_sub(b),
                BinOp::Mul => a.checked_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return Err(QueryError::Semantic("division by zero".into()));
                    }
                    a.checked_div(b)
                }
                BinOp::Mod => {
                    if b == 0 {
                        return Err(QueryError::Semantic("modulo by zero".into()));
                    }
                    a.checked_rem(b)
                }
                _ => unreachable!(),
            };
            out.map(Int)
                .ok_or_else(|| QueryError::Semantic("integer overflow".into()))
        }
        (a, b) => {
            let (x, y) = match (a.as_float(), b.as_float()) {
                (Some(x), Some(y)) => (x, y),
                _ => {
                    return Err(QueryError::Semantic(format!(
                        "arithmetic expects numbers, got {} and {}",
                        a.type_name(),
                        b.type_name()
                    )))
                }
            };
            Ok(Float(match op {
                BinOp::Add => x + y,
                BinOp::Sub => x - y,
                BinOp::Mul => x * y,
                BinOp::Div => x / y,
                BinOp::Mod => x % y,
                _ => unreachable!(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use delayguard_storage::{Column, DataType};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Text),
            Column::new("score", DataType::Float),
        ])
        .unwrap()
    }

    fn row(id: i64, name: Option<&str>, score: Option<f64>) -> Row {
        Row::new(vec![
            Value::Int(id),
            name.map(Value::from).unwrap_or(Value::Null),
            score.map(Value::Float).unwrap_or(Value::Null),
        ])
    }

    fn ev(src: &str, r: &Row) -> Result<Value> {
        let e = bind(&parse_expr(src).unwrap(), &schema()).unwrap();
        eval(&e, r)
    }

    #[test]
    fn column_and_literal() {
        let r = row(7, Some("x"), Some(1.5));
        assert_eq!(ev("id", &r).unwrap(), Value::Int(7));
        assert_eq!(ev("42", &r).unwrap(), Value::Int(42));
        assert_eq!(ev("name", &r).unwrap(), Value::Text("x".into()));
    }

    #[test]
    fn comparisons() {
        let r = row(7, Some("x"), Some(1.5));
        assert_eq!(ev("id = 7", &r).unwrap(), Value::Bool(true));
        assert_eq!(ev("id != 7", &r).unwrap(), Value::Bool(false));
        assert_eq!(ev("id < 10", &r).unwrap(), Value::Bool(true));
        assert_eq!(ev("score >= 1.5", &r).unwrap(), Value::Bool(true));
        assert_eq!(ev("name = 'x'", &r).unwrap(), Value::Bool(true));
        // Cross-type numeric comparison works.
        assert_eq!(ev("id = 7.0", &r).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation() {
        let r = row(7, None, None);
        assert_eq!(ev("name = 'x'", &r).unwrap(), Value::Null);
        assert_eq!(ev("score + 1", &r).unwrap(), Value::Null);
        assert_eq!(ev("NOT name = 'x'", &r).unwrap(), Value::Null);
    }

    #[test]
    fn three_valued_logic() {
        let r = row(7, None, None);
        // NULL AND FALSE = FALSE; NULL OR TRUE = TRUE; NULL AND TRUE = NULL.
        assert_eq!(ev("name = 'x' AND id = 0", &r).unwrap(), Value::Bool(false));
        assert_eq!(ev("name = 'x' OR id = 7", &r).unwrap(), Value::Bool(true));
        assert_eq!(ev("name = 'x' AND id = 7", &r).unwrap(), Value::Null);
        assert_eq!(ev("name = 'x' OR id = 0", &r).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_does_not_mask_errors_on_left() {
        // Left FALSE short-circuits AND even when right would error.
        let r = row(1, Some("x"), Some(1.0));
        assert_eq!(ev("id = 0 AND id / 0 = 1", &r).unwrap(), Value::Bool(false));
        // Without short-circuit the division error surfaces.
        assert!(ev("id = 1 AND id / 0 = 1", &r).is_err());
    }

    #[test]
    fn filter_semantics() {
        let s = schema();
        let r = row(7, None, None);
        let pass = bind(&parse_expr("id = 7").unwrap(), &s).unwrap();
        let null = bind(&parse_expr("name = 'x'").unwrap(), &s).unwrap();
        assert!(eval_filter(&pass, &r).unwrap());
        assert!(!eval_filter(&null, &r).unwrap(), "NULL filter rejects");
        let not_bool = bind(&parse_expr("id + 1").unwrap(), &s).unwrap();
        assert!(eval_filter(&not_bool, &r).is_err());
    }

    #[test]
    fn arithmetic() {
        let r = row(7, Some("x"), Some(1.5));
        assert_eq!(ev("id + 1", &r).unwrap(), Value::Int(8));
        assert_eq!(ev("id * 2 - 4", &r).unwrap(), Value::Int(10));
        assert_eq!(ev("id % 4", &r).unwrap(), Value::Int(3));
        assert_eq!(ev("score * 2", &r).unwrap(), Value::Float(3.0));
        assert_eq!(ev("id / 2", &r).unwrap(), Value::Int(3), "integer division");
        assert_eq!(ev("-id", &r).unwrap(), Value::Int(-7));
    }

    #[test]
    fn arithmetic_errors() {
        let r = row(7, Some("x"), Some(1.5));
        assert!(ev("id / 0", &r).is_err());
        assert!(ev("id % 0", &r).is_err());
        assert!(ev("name + 1", &r).is_err());
        assert!(ev("9223372036854775807 + 1", &r).is_err());
        assert!(ev("NOT id", &r).is_err());
    }

    #[test]
    fn bind_unknown_column_fails() {
        let e = parse_expr("missing = 1").unwrap();
        assert!(bind(&e, &schema()).is_err());
    }
}
