//! A rule-based planner: picks an index access path from the WHERE clause.
//!
//! Strategy: split the WHERE clause into top-level conjuncts. If some
//! conjunct is `col = literal` and an index exists whose key is exactly
//! `[col]` (or all columns of a composite index are equality-constrained),
//! use an `AccessPath::IndexEq`. Otherwise, if range conjuncts
//! (`<`, `<=`, `>`, `>=`) constrain a single-column index, use an
//! `AccessPath::IndexRange`. Otherwise fall back to a full scan.
//!
//! The WHERE clause is kept as a residual filter unless the chosen access
//! path provably returns *exactly* the satisfying rows — every top-level
//! conjunct was absorbed into the probe, and nothing else constrains the
//! result. The proof leans on one invariant: index order and filter
//! comparisons both use [`Value`]'s total order (`Value::cmp`), so an
//! interval over index keys admits precisely the rows the comparisons
//! would. When coverage is exact the plan carries no filter at all, and
//! the executor skips a per-row expression walk on the hot path.
//!
//! A parameter ([`Expr::Param`]) is sargable like a literal, and the plan
//! records which probe-key part it supplies. The plan must then be right
//! for every binding, so the one choice that compares two values — which
//! of two bounds on one column is tighter — is not made when either is a
//! parameter: the first bound stays in the probe and the filter is kept
//! to apply the other.

use crate::ast::{BinOp, Expr, OrderBy, Projection};
use crate::error::{QueryError, Result};
use crate::expr::{bind, BoundExpr};
use crate::plan::{AccessPath, KeySlot, SelectPlan};
use delayguard_storage::{IndexDef, Schema, Table, Value};
use std::ops::Bound;

/// Build a plan for a SELECT's pieces against a table.
pub(crate) fn plan_select(
    table: &Table,
    projection: &Projection,
    filter: Option<&Expr>,
    order_by: Option<&OrderBy>,
    limit: Option<u64>,
) -> Result<SelectPlan> {
    let schema = table.schema();
    let (projection_idx, output_names) = resolve_projection(schema, projection)?;
    let bound_filter = filter.map(|f| bind(f, schema)).transpose()?;
    let Choice {
        access,
        exact,
        key_params,
    } = choose(schema, &table.index_defs(), filter);
    let order = order_by
        .map(|ob| Ok::<_, QueryError>((schema.index_of(&ob.column)?, ob.ascending)))
        .transpose()?;
    Ok(SelectPlan {
        access,
        key_params,
        filter: if exact { None } else { bound_filter },
        projection: projection_idx,
        output_names: output_names.into(),
        order_by: order,
        limit,
    })
}

fn resolve_projection(
    schema: &Schema,
    projection: &Projection,
) -> Result<(Vec<usize>, Vec<String>)> {
    match projection {
        Projection::All => Ok((
            (0..schema.arity()).collect(),
            schema.columns().iter().map(|c| c.name.clone()).collect(),
        )),
        Projection::Columns(names) => {
            let mut idx = Vec::with_capacity(names.len());
            for n in names {
                idx.push(schema.index_of(n)?);
            }
            Ok((idx, names.clone()))
        }
    }
}

/// What a sargable conjunct compares its column with.
#[derive(Debug, Clone, Copy)]
enum Operand<'a> {
    Literal(&'a Value),
    Param(usize),
}

impl<'a> Operand<'a> {
    fn literal(self) -> Option<&'a Value> {
        match self {
            Operand::Literal(v) => Some(v),
            Operand::Param(_) => None,
        }
    }

    /// The probe-key value for this operand at `slot`: the literal, or a
    /// placeholder the parameter's value is bound over (noted in
    /// `key_params`).
    fn key_part(self, slot: KeySlot, key_params: &mut Vec<(KeySlot, usize)>) -> Value {
        match self {
            Operand::Literal(v) => v.clone(),
            Operand::Param(i) => {
                key_params.push((slot, i));
                Value::Null
            }
        }
    }
}

/// A `col op operand` conjunct usable for index selection.
#[derive(Debug)]
struct Constraint<'a> {
    column: usize,
    op: BinOp,
    value: Operand<'a>,
}

/// The planner's decision: how rows are found, whether that finds
/// exactly the rows the WHERE clause admits, and which probe-key parts
/// parameters supply.
struct Choice {
    access: AccessPath,
    exact: bool,
    key_params: Vec<(KeySlot, usize)>,
}

/// Split `expr` into top-level AND conjuncts.
fn conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    let mut stack = vec![expr];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                stack.push(left);
                stack.push(right);
            }
            other => out.push(other),
        }
    }
    out
}

/// Extract a sargable constraint from a conjunct, normalizing
/// `literal op col` into `col op' literal`. A parameter counts as a
/// literal: the value bound to it is never `NULL`.
fn constraint_of<'a>(schema: &Schema, e: &'a Expr) -> Option<Constraint<'a>> {
    let Expr::Binary { op, left, right } = e else {
        return None;
    };
    if !op.is_comparison() || *op == BinOp::NotEq {
        return None;
    }
    let operand = |e: &'a Expr| match e {
        Expr::Literal(v) => Some(Operand::Literal(v)),
        Expr::Param(i) => Some(Operand::Param(*i)),
        _ => None,
    };
    let (column, value, op) = match (&**left, &**right) {
        (Expr::Column(c), other) => (c, operand(other)?, *op),
        (other, Expr::Column(c)) => (c, operand(other)?, flip(*op)),
        _ => return None,
    };
    if matches!(value, Operand::Literal(Value::Null)) {
        return None; // NULL comparisons never match; leave to the filter.
    }
    let idx = schema.index_of(column).ok()?;
    Some(Constraint {
        column: idx,
        op,
        value,
    })
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::LtEq => BinOp::GtEq,
        BinOp::Gt => BinOp::Lt,
        BinOp::GtEq => BinOp::LtEq,
        other => other,
    }
}

/// Choose the access path for `filter`: the best index probe, or a full
/// scan when no index applies.
fn choose(schema: &Schema, indexes: &[IndexDef], filter: Option<&Expr>) -> Choice {
    filter
        .and_then(|f| choose_access(schema, indexes, f))
        .unwrap_or(Choice {
            access: AccessPath::FullScan,
            exact: false,
            key_params: Vec::new(),
        })
}

/// Choose the best access path for `filter`, if any index applies.
///
/// [`Choice::exact`] reports *exact coverage*: the access path returns
/// precisely the rows satisfying the whole WHERE clause, so the caller
/// may drop the residual filter. Coverage is exact only when every
/// top-level conjunct became a [`Constraint`] (nothing else to check)
/// and the chosen probe absorbed all of them.
fn choose_access(schema: &Schema, indexes: &[IndexDef], filter: &Expr) -> Option<Choice> {
    let conj = conjuncts(filter);
    let cons: Vec<Constraint> = conj
        .iter()
        .filter_map(|e| constraint_of(schema, e))
        .collect();
    // Some conjunct the probe cannot see (non-sargable, NULL, unknown
    // column) means the filter must stay regardless of the path chosen.
    let all_sargable = cons.len() == conj.len();
    if cons.is_empty() {
        return None;
    }
    let mut key_params = Vec::new();
    // 1. Prefer full-equality composite or single-column index lookups.
    'index: for def in indexes {
        key_params.clear();
        let mut key = Vec::with_capacity(def.columns.len());
        for (part, &col) in def.columns.iter().enumerate() {
            match cons.iter().find(|c| c.column == col && c.op == BinOp::Eq) {
                Some(c) => key.push(c.value.key_part(KeySlot::Eq(part), &mut key_params)),
                None => continue 'index,
            }
        }
        // Exact iff the constraints are one equality per key column and
        // nothing more: a duplicate (`id = 5 AND id = 6`) or an extra
        // column's predicate still needs re-checking.
        let exact = all_sargable
            && cons.len() == def.columns.len()
            && cons
                .iter()
                .all(|c| c.op == BinOp::Eq && def.columns.contains(&c.column))
            && def
                .columns
                .iter()
                .all(|col| cons.iter().filter(|c| c.column == *col).count() == 1);
        return Some(Choice {
            access: AccessPath::IndexEq {
                columns: def.columns.clone(),
                key,
            },
            exact,
            key_params,
        });
    }
    // 2. Range scan on a single-column index.
    for def in indexes.iter().filter(|d| d.columns.len() == 1) {
        let col = def.columns[0];
        let mut lo = Bound::Unbounded;
        let mut hi = Bound::Unbounded;
        let mut any = false;
        // Whether every endpoint choice was decided by known values; a
        // choice between a parameter and another bound is not.
        let mut decided = true;
        for c in cons.iter().filter(|c| c.column == col) {
            any = true;
            decided &= match c.op {
                BinOp::Gt => narrow(&mut lo, Bound::Excluded(c.value), tighter_lo),
                BinOp::GtEq => narrow(&mut lo, Bound::Included(c.value), tighter_lo),
                BinOp::Lt => narrow(&mut hi, Bound::Excluded(c.value), tighter_hi),
                BinOp::LtEq => narrow(&mut hi, Bound::Included(c.value), tighter_hi),
                BinOp::Eq => {
                    narrow(&mut lo, Bound::Included(c.value), tighter_lo)
                        & narrow(&mut hi, Bound::Included(c.value), tighter_hi)
                }
                _ => true,
            };
        }
        if any && !(matches!(lo, Bound::Unbounded) && matches!(hi, Bound::Unbounded)) {
            // Conjoined intervals over one column intersect to exactly
            // `[lo, hi]` (tighter_* picks the narrower endpoint under the
            // same `Value` order the index sorts by), so coverage is
            // exact whenever every conjunct constrained this column and
            // no endpoint was left undecided.
            let exact = all_sargable && decided && cons.iter().all(|c| c.column == col);
            let mut key_params = Vec::new();
            return Some(Choice {
                access: AccessPath::IndexRange {
                    columns: def.columns.clone(),
                    lo: key_bound(lo, KeySlot::Lo, &mut key_params),
                    hi: key_bound(hi, KeySlot::Hi, &mut key_params),
                },
                exact,
                key_params,
            });
        }
    }
    None
}

fn key_bound(
    b: Bound<Operand<'_>>,
    slot: KeySlot,
    key_params: &mut Vec<(KeySlot, usize)>,
) -> Bound<Vec<Value>> {
    match b {
        Bound::Included(v) => Bound::Included(vec![v.key_part(slot, key_params)]),
        Bound::Excluded(v) => Bound::Excluded(vec![v.key_part(slot, key_params)]),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Picks the tighter of two bounds, or `None` when that depends on the
/// value of a parameter.
type Tighter = for<'a> fn(Bound<Operand<'a>>, Bound<Operand<'a>>) -> Option<Bound<Operand<'a>>>;

/// Narrow `cur` to the tighter of it and `new`. Returns false, keeping
/// `cur`, when the choice depends on a parameter's value.
fn narrow<'a>(cur: &mut Bound<Operand<'a>>, new: Bound<Operand<'a>>, tighter: Tighter) -> bool {
    match tighter(*cur, new) {
        Some(b) => {
            *cur = b;
            true
        }
        None => false,
    }
}

fn tighter_lo<'a>(a: Bound<Operand<'a>>, b: Bound<Operand<'a>>) -> Option<Bound<Operand<'a>>> {
    let (x, y) = match (a, b) {
        (Bound::Unbounded, _) => return Some(b),
        (_, Bound::Unbounded) => return Some(a),
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            (x.literal()?, y.literal()?)
        }
    };
    Some(if y > x {
        b
    } else if x > y {
        a
    } else if matches!(a, Bound::Excluded(_)) {
        // Equal endpoints: Excluded is tighter.
        a
    } else {
        b
    })
}

fn tighter_hi<'a>(a: Bound<Operand<'a>>, b: Bound<Operand<'a>>) -> Option<Bound<Operand<'a>>> {
    let (x, y) = match (a, b) {
        (Bound::Unbounded, _) => return Some(b),
        (_, Bound::Unbounded) => return Some(a),
        (Bound::Included(x) | Bound::Excluded(x), Bound::Included(y) | Bound::Excluded(y)) => {
            (x.literal()?, y.literal()?)
        }
    };
    Some(if y < x {
        b
    } else if x < y || matches!(a, Bound::Excluded(_)) {
        a
    } else {
        b
    })
}

/// Plan the row-location phase shared by UPDATE and DELETE.
pub(crate) fn plan_locate(
    table: &Table,
    filter: Option<&Expr>,
) -> Result<(AccessPath, Option<BoundExpr>)> {
    let schema = table.schema();
    let bound = filter.map(|f| bind(f, schema)).transpose()?;
    let Choice { access, exact, .. } = choose(schema, &table.index_defs(), filter);
    Ok((access, if exact { None } else { bound }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use delayguard_storage::{Column, DataType};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("title", DataType::Text),
            Column::new("gross", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("movies", schema);
        t.create_index("pk", &["id"], true).unwrap();
        t.create_index("by_title_gross", &["title", "gross"], false)
            .unwrap();
        t
    }

    fn access_for(t: &Table, filter: &str) -> AccessPath {
        access_and_coverage(t, filter).0
    }

    fn access_and_coverage(t: &Table, filter: &str) -> (AccessPath, bool) {
        let f = parse_expr(filter).unwrap();
        let c = choose(t.schema(), &t.index_defs(), Some(&f));
        (c.access, c.exact)
    }

    /// The plan of `filter` with its literals lifted into parameters.
    fn lifted_plan(t: &Table, filter: &str) -> SelectPlan {
        let mut stmt = crate::parse(&format!("SELECT * FROM movies WHERE {filter}")).unwrap();
        stmt.lift_literals(&mut Vec::new());
        let crate::ast::Statement::Select { filter, .. } = stmt else {
            unreachable!("parsed a SELECT");
        };
        plan_select(t, &Projection::All, filter.as_ref(), None, None).unwrap()
    }

    #[test]
    fn parameters_name_their_probe_key_parts() {
        let t = table();
        let point = lifted_plan(&t, "id = 5");
        assert_eq!(point.key_params, vec![(KeySlot::Eq(0), 0)]);
        assert!(point.filter.is_none(), "one equality on the key is exact");
        let both = lifted_plan(&t, "gross = 1.0 AND title = 'x'");
        assert_eq!(
            both.key_params,
            vec![(KeySlot::Eq(0), 1), (KeySlot::Eq(1), 0)],
            "composite key parts in index order, parameters in source order"
        );
        let range = lifted_plan(&t, "id >= 3 AND id < 9");
        assert_eq!(range.key_params, vec![(KeySlot::Lo, 0), (KeySlot::Hi, 1)]);
        assert!(range.filter.is_none(), "one bound per side is exact");
    }

    #[test]
    fn parameter_plans_keep_the_filter_when_bounds_compete() {
        let t = table();
        // Which lower bound is tighter depends on the values, so the
        // probe takes one and the filter applies the other.
        for filter in ["id > 3 AND id > 7", "id >= 3 AND id > 7 AND id < 9"] {
            let plan = lifted_plan(&t, filter);
            assert!(
                matches!(plan.access, AccessPath::IndexRange { .. }),
                "{filter}"
            );
            assert!(plan.filter.is_some(), "{filter}");
        }
        // The same shapes with literals still tighten and drop it.
        assert!(access_and_coverage(&t, "id > 3 AND id > 7").1);
    }

    #[test]
    fn bound_parameters_fill_the_probe_and_the_filter() {
        let t = table();
        let mut plan = lifted_plan(&t, "id > 3 AND id > 7");
        plan.bind_params(&[Value::Int(3), Value::Int(7)]);
        let AccessPath::IndexRange { lo, .. } = &plan.access else {
            panic!("range plan");
        };
        assert!(matches!(lo, Bound::Excluded(k) if k[0] == Value::Int(3) || k[0] == Value::Int(7)));
        let unbound = format!("{:?}", lifted_plan(&t, "id > 3 AND id > 7").filter);
        assert!(unbound.contains("Null"));
        let bound = format!("{:?}", plan.filter);
        assert!(
            bound.contains("Int(3)") && bound.contains("Int(7)"),
            "{bound}"
        );
    }

    #[test]
    fn picks_eq_lookup() {
        let t = table();
        let a = access_for(&t, "id = 5");
        assert_eq!(
            a,
            AccessPath::IndexEq {
                columns: vec![0],
                key: vec![Value::Int(5)]
            }
        );
    }

    #[test]
    fn picks_eq_through_conjunction_and_flipped_literal() {
        let t = table();
        let a = access_for(&t, "gross > 10 AND 5 = id");
        assert!(matches!(a, AccessPath::IndexEq { .. }));
    }

    #[test]
    fn picks_composite_when_fully_constrained() {
        let t = table();
        let a = access_for(&t, "title = 'x' AND gross = 1.0");
        assert_eq!(
            a,
            AccessPath::IndexEq {
                columns: vec![1, 2],
                key: vec![Value::Text("x".into()), Value::Float(1.0)]
            }
        );
    }

    #[test]
    fn picks_range_scan() {
        let t = table();
        let a = access_for(&t, "id > 3 AND id <= 9");
        match a {
            AccessPath::IndexRange { columns, lo, hi } => {
                assert_eq!(columns, vec![0]);
                assert_eq!(lo, Bound::Excluded(vec![Value::Int(3)]));
                assert_eq!(hi, Bound::Included(vec![Value::Int(9)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tightens_duplicate_bounds() {
        let t = table();
        let a = access_for(&t, "id > 3 AND id > 7 AND id >= 7");
        match a {
            AccessPath::IndexRange { lo, .. } => {
                assert_eq!(lo, Bound::Excluded(vec![Value::Int(7)]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exact_coverage_drops_the_residual_filter() {
        let t = table();
        // Fully absorbed probes: no filter left to run.
        assert!(access_and_coverage(&t, "id = 5").1);
        assert!(access_and_coverage(&t, "id > 3 AND id <= 9").1);
        assert!(access_and_coverage(&t, "id > 3 AND id > 7 AND id >= 7").1);
        assert!(access_and_coverage(&t, "title = 'x' AND gross = 1.0").1);
        // A conjunct the probe can't see keeps the filter.
        assert!(!access_and_coverage(&t, "id = 5 AND gross > 10").1);
        assert!(!access_and_coverage(&t, "id > 3 AND title = 'x'").1);
        // Contradictory equalities on the key column keep the filter (the
        // probe only honors one of them).
        assert!(!access_and_coverage(&t, "id = 5 AND id = 6").1);
        // And the plans themselves: covered WHERE => filter is None.
        let covered = plan_select(
            &t,
            &Projection::All,
            Some(&parse_expr("id > 3 AND id <= 9").unwrap()),
            None,
            None,
        )
        .unwrap();
        assert!(covered.filter.is_none());
        assert!(matches!(covered.access, AccessPath::IndexRange { .. }));
        let residual = plan_select(
            &t,
            &Projection::All,
            Some(&parse_expr("id > 3 AND gross > 10").unwrap()),
            None,
            None,
        )
        .unwrap();
        assert!(residual.filter.is_some());
    }

    #[test]
    fn falls_back_to_scan() {
        let t = table();
        assert_eq!(access_for(&t, "gross = 1.0"), AccessPath::FullScan);
        assert_eq!(access_for(&t, "id != 5"), AccessPath::FullScan);
        assert_eq!(access_for(&t, "id = 1 OR id = 2"), AccessPath::FullScan);
        assert_eq!(access_for(&t, "id = NULL"), AccessPath::FullScan);
    }

    #[test]
    fn plan_select_resolves_projection() {
        let t = table();
        let plan = plan_select(&t, &Projection::All, None, None, Some(3)).unwrap();
        assert_eq!(plan.projection, vec![0, 1, 2]);
        assert_eq!(*plan.output_names, ["id", "title", "gross"]);
        assert_eq!(plan.limit, Some(3));
        let plan = plan_select(
            &t,
            &Projection::Columns(vec!["gross".into(), "id".into()]),
            None,
            None,
            None,
        )
        .unwrap();
        assert_eq!(plan.projection, vec![2, 0]);
    }

    #[test]
    fn plan_select_rejects_unknown_columns() {
        let t = table();
        assert!(plan_select(
            &t,
            &Projection::Columns(vec!["nope".into()]),
            None,
            None,
            None
        )
        .is_err());
        let ob = OrderBy {
            column: "nope".into(),
            ascending: true,
        };
        assert!(plan_select(&t, &Projection::All, None, Some(&ob), None).is_err());
    }
}
