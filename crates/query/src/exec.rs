//! Plan execution against a single table.

use crate::error::{QueryError, Result};
use crate::expr::{eval, eval_filter, BoundExpr};
use crate::plan::{AccessPath, LocatePlan, SelectPlan};
use delayguard_storage::{Row, RowId, Table, Value};
use std::ops::Bound;
use std::sync::Arc;

/// Result of executing a SELECT: projected rows with their RowIds.
///
/// The RowIds are retained deliberately: the delay defense charges each
/// *returned tuple* to the requester's popularity ledger (§2.1 treats a
/// multi-tuple result as the aggregate of simple single-tuple queries).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectOutput {
    /// Output column names, shared with the plan that produced them.
    pub columns: Arc<[String]>,
    /// `(row id, projected row)` pairs in output order.
    pub rows: Vec<(RowId, Row)>,
}

impl SelectOutput {
    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Collect the RowIds of the rows `plan` locates.
fn locate(table: &Table, plan: &LocatePlan) -> Result<Vec<RowId>> {
    let filter = plan.filter.as_ref();
    let candidates = match &plan.access {
        AccessPath::FullScan => {
            let mut out = Vec::new();
            for item in table.scan() {
                let (rid, row) = item?;
                if passes(filter, &row)? {
                    out.push(rid);
                }
            }
            return Ok(out);
        }
        AccessPath::IndexEq { columns, key } => table.index_lookup(columns, key),
        AccessPath::IndexRange { columns, lo, hi } => {
            table.index_range(columns, as_ref_bound(lo), as_ref_bound(hi))
        }
    };
    let mut out =
        candidates.ok_or_else(|| QueryError::Semantic("planned index disappeared".into()))?;
    if let Some(filter) = filter {
        let mut kept = 0;
        for at in 0..out.len() {
            if eval_filter(filter, &table.peek(out[at])?)? {
                out[kept] = out[at];
                kept += 1;
            }
        }
        out.truncate(kept);
    }
    Ok(out)
}

fn as_ref_bound(b: &Bound<Vec<Value>>) -> Bound<&Vec<Value>> {
    match b {
        Bound::Included(k) => Bound::Included(k),
        Bound::Excluded(k) => Bound::Excluded(k),
        Bound::Unbounded => Bound::Unbounded,
    }
}

fn passes(filter: Option<&BoundExpr>, row: &Row) -> Result<bool> {
    match filter {
        Some(f) => eval_filter(f, row),
        None => Ok(true),
    }
}

/// Reusable executor scratch: the buffers a cursor borrows instead of
/// allocating per query. Recycle one per connection (or per bench
/// thread) and the steady-state open/pull path allocates nothing.
#[derive(Default)]
pub struct ExecScratch {
    /// Index-probe results (`IndexEq`/`IndexRange` access paths).
    rids: Vec<RowId>,
    /// Decode target when the projection is not the identity.
    row: Row,
}

impl ExecScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are then
    /// recycled.
    pub fn new() -> ExecScratch {
        ExecScratch::default()
    }
}

/// A caller-owned, recycled chunk of `(RowId, Row)` pairs.
///
/// `clear` only resets the logical length: the pairs (and the per-value
/// heap capacity inside each [`Row`]) stay allocated, so refilling a
/// `RowBuf` with rows of similar shape copies payload bytes but
/// allocates nothing.
#[derive(Default)]
pub struct RowBuf {
    rows: Vec<(RowId, Row)>,
    len: usize,
}

impl RowBuf {
    /// Fresh, empty buffer.
    pub fn new() -> RowBuf {
        RowBuf::default()
    }

    /// Logical length (rows filled since the last `clear`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The filled rows.
    pub fn rows(&self) -> &[(RowId, Row)] {
        &self.rows[..self.len]
    }

    /// Reset the logical length, keeping every allocation for reuse.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The next free slot, growing the pool if needed.
    fn slot(&mut self) -> &mut (RowId, Row) {
        if self.len == self.rows.len() {
            self.rows.push((RowId::from_raw(0), Row::new(Vec::new())));
        }
        &mut self.rows[self.len]
    }

    /// Commit the slot returned by the last `slot` call.
    fn commit(&mut self) {
        self.len += 1;
    }
}

/// Where the cursor's rows come from.
enum Src<'a> {
    /// Index probe: RowIds resolved at open into borrowed scratch.
    Rids { rids: &'a [RowId], pos: usize },
    /// Lazy full heap scan.
    Scan(delayguard_storage::heap::HeapScan<'a>),
    /// Sort output (the one pipeline breaker): owns its spill, already
    /// filtered and ordered.
    Sorted { rows: Vec<(RowId, Row)>, pos: usize },
}

/// An open SELECT pipeline: pull projected rows one at a time.
///
/// The pipeline is linear by construction (source → filter → \[sort\] →
/// limit → project), so instead of a tree of boxed operators the cursor
/// holds each stage inline: no allocation at open (for index paths) and
/// no virtual dispatch per row. `SortOp`'s role survives as the `Sorted`
/// source, the one stage allowed to own a spill buffer.
///
/// The cursor captures `table.len()` at open so the pricing layer can
/// read cardinality without re-acquiring the table lock mid-stream, and
/// counts yielded rows so the executor can charge `record_reads` for
/// exactly the rows a partially-consumed stream produced.
pub struct SelectCursor<'a> {
    table: &'a Table,
    src: Src<'a>,
    filter: Option<&'a BoundExpr>,
    /// `None` means the identity projection (all columns, schema order).
    projection: Option<&'a [usize]>,
    remaining: u64,
    /// Decode target when projecting (borrowed from [`ExecScratch`]).
    scratch: &'a mut Row,
    columns: &'a Arc<[String]>,
    table_rows: u64,
    yielded: u64,
}

impl SelectCursor<'_> {
    /// Pull the next projected row into `out` (reusing its allocations),
    /// returning its RowId, or `None` at end of stream.
    pub(crate) fn next_row_into(&mut self, out: &mut Row) -> Result<Option<RowId>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        // The sorted source is pre-filtered; rows are moved out of the
        // spill rather than copied.
        if let Src::Sorted { rows, pos } = &mut self.src {
            let Some((rid, row)) = rows.get_mut(*pos) else {
                self.remaining = 0;
                return Ok(None);
            };
            *pos += 1;
            match self.projection {
                None => std::mem::swap(out, row),
                Some(idx) => row.project_into(idx, out),
            }
            self.remaining -= 1;
            self.yielded += 1;
            return Ok(Some(*rid));
        }
        loop {
            // Identity projection decodes straight into the caller's row;
            // otherwise decode into scratch and project after the filter.
            let dst: &mut Row = match self.projection {
                None => &mut *out,
                Some(_) => &mut *self.scratch,
            };
            let rid = match &mut self.src {
                Src::Rids { rids, pos } => {
                    let Some(&rid) = rids.get(*pos) else {
                        return Ok(None);
                    };
                    *pos += 1;
                    self.table.peek_into(rid, dst)?;
                    rid
                }
                Src::Scan(scan) => {
                    let Some((rid, rec)) = scan.next() else {
                        return Ok(None);
                    };
                    delayguard_storage::codec::decode_row_into(rec, dst)?;
                    rid
                }
                Src::Sorted { .. } => unreachable!("handled above"),
            };
            if passes(self.filter, dst)? {
                if let Some(idx) = self.projection {
                    self.scratch.project_into(idx, out);
                }
                self.remaining -= 1;
                self.yielded += 1;
                return Ok(Some(rid));
            }
        }
    }

    /// Pull the next projected `(row id, row)` pair.
    pub fn next_row(&mut self) -> Result<Option<(RowId, Row)>> {
        let mut row = Row::new(Vec::new());
        Ok(self.next_row_into(&mut row)?.map(|rid| (rid, row)))
    }

    /// Pull up to `max_rows` rows into `buf` (cleared first), reusing its
    /// row slots. Returns the number of rows pulled.
    pub fn fill_chunk(&mut self, max_rows: usize, buf: &mut RowBuf) -> Result<usize> {
        buf.clear();
        while buf.len() < max_rows {
            let slot = buf.slot();
            match self.next_row_into(&mut slot.1)? {
                Some(rid) => {
                    slot.0 = rid;
                    buf.commit();
                }
                None => break,
            }
        }
        Ok(buf.len())
    }

    /// Output column names, in projection order.
    pub fn columns(&self) -> &Arc<[String]> {
        self.columns
    }

    /// Table cardinality captured when the cursor was opened.
    pub fn table_rows(&self) -> u64 {
        self.table_rows
    }

    /// Rows yielded so far.
    pub(crate) fn rows_yielded(&self) -> u64 {
        self.yielded
    }
}

/// Open a SELECT plan as a pull pipeline over `table`.
///
/// Index-path opens are allocation-free: probe results land in
/// `scratch.rids`, and per-row decoding reuses either the caller's row
/// (identity projection) or `scratch.row`. Only full scans (one lazy
/// iterator, still allocation-free here) and ORDER BY (spill) differ.
pub(crate) fn open_select<'a>(
    table: &'a Table,
    plan: &'a SelectPlan,
    scratch: &'a mut ExecScratch,
) -> Result<SelectCursor<'a>> {
    let ExecScratch { rids, row } = scratch;
    rids.clear();
    let mut src = match &plan.access {
        AccessPath::FullScan => Src::Scan(table.heap().scan()),
        AccessPath::IndexEq { columns, key } => {
            if !table.index_lookup_into(columns, key, rids) {
                return Err(QueryError::Semantic("planned index disappeared".into()));
            }
            Src::Rids { rids, pos: 0 }
        }
        AccessPath::IndexRange { columns, lo, hi } => {
            if !table.index_range_into(columns, as_ref_bound(lo), as_ref_bound(hi), rids) {
                return Err(QueryError::Semantic("planned index disappeared".into()));
            }
            Src::Rids { rids, pos: 0 }
        }
    };
    let mut filter = plan.filter.as_ref();
    if let Some((col, ascending)) = plan.order_by {
        // Pipeline breaker: drain source through the filter into an owned
        // spill, sort with the same stable comparator as always, and
        // serve rows from the spill. The filter is consumed here.
        let mut spill: Vec<(RowId, Row)> = Vec::new();
        match src {
            Src::Rids { rids, pos } => {
                for &rid in &rids[pos..] {
                    let row = table.peek(rid)?;
                    if passes(filter, &row)? {
                        spill.push((rid, row));
                    }
                }
            }
            Src::Scan(scan) => {
                for (rid, rec) in scan {
                    let row = delayguard_storage::codec::decode_row(rec)?;
                    if passes(filter, &row)? {
                        spill.push((rid, row));
                    }
                }
            }
            Src::Sorted { .. } => unreachable!("sort source cannot pre-exist"),
        }
        spill.sort_by(|(_, a), (_, b)| {
            let av = a.get(col).unwrap_or(&Value::Null);
            let bv = b.get(col).unwrap_or(&Value::Null);
            if ascending {
                av.cmp(bv)
            } else {
                bv.cmp(av)
            }
        });
        src = Src::Sorted {
            rows: spill,
            pos: 0,
        };
        filter = None;
    }
    let projection = if plan
        .projection
        .iter()
        .copied()
        .eq(0..table.schema().arity())
    {
        None
    } else {
        Some(plan.projection.as_slice())
    };
    Ok(SelectCursor {
        table,
        src,
        filter,
        projection,
        remaining: plan.limit.unwrap_or(u64::MAX),
        scratch: row,
        columns: &plan.output_names,
        table_rows: table.len() as u64,
        yielded: 0,
    })
}

/// Insert each row of `VALUES`, in order, returning their RowIds.
pub(crate) fn run_insert(table: &mut Table, rows: &[Vec<BoundExpr>]) -> Result<Vec<RowId>> {
    let empty = Row::new(Vec::new());
    let mut rids = Vec::with_capacity(rows.len());
    for exprs in rows {
        let values = exprs
            .iter()
            .map(|e| eval(e, &empty))
            .collect::<Result<_>>()?;
        rids.push(table.insert(Row::new(values))?);
    }
    Ok(rids)
}

/// Apply UPDATE assignments to located rows.
///
/// Assignment expressions are evaluated against the *old* row (SQL
/// semantics), so `SET a = a + 1, b = a` uses the original `a` for both.
pub(crate) fn run_update(
    table: &mut Table,
    plan: &LocatePlan,
    assignments: &[(usize, BoundExpr)],
) -> Result<Vec<RowId>> {
    let mut rids = locate(table, plan)?;
    for rid in &mut rids {
        *rid = table.update_with(*rid, |old| {
            // Assigned columns start as NULL rather than as copies of
            // their old values.
            let mut new: Vec<Value> = old
                .values()
                .iter()
                .enumerate()
                .map(|(col, v)| {
                    if assignments.iter().any(|(c, _)| *c == col) {
                        Value::Null
                    } else {
                        v.clone()
                    }
                })
                .collect();
            for (col, e) in assignments {
                new[*col] = eval(e, old)?;
            }
            Ok::<_, QueryError>(Row::new(new))
        })?;
    }
    Ok(rids)
}

/// Delete located rows, returning their RowIds.
pub(crate) fn run_delete(table: &mut Table, plan: &LocatePlan) -> Result<Vec<RowId>> {
    let rids = locate(table, plan)?;
    for rid in &rids {
        table.delete(*rid)?;
    }
    Ok(rids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;
    use crate::planner::plan_locate;
    use delayguard_storage::{Column, DataType, Schema};

    fn movies() -> Table {
        let schema = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::not_null("title", DataType::Text),
            Column::new("gross", DataType::Float),
        ])
        .unwrap();
        let mut t = Table::new("movies", schema);
        t.create_index("pk", &["id"], true).unwrap();
        for i in 0..20i64 {
            t.insert(Row::new(vec![
                Value::Int(i),
                Value::Text(format!("movie-{i}")),
                Value::Float((i * 10) as f64),
            ]))
            .unwrap();
        }
        t
    }

    /// Run `sql` through an engine over `movies()`: the one SELECT
    /// execution path.
    fn select(sql: &str) -> SelectOutput {
        let e = crate::Engine::new();
        e.catalog().install_table(movies()).unwrap();
        e.execute(sql).unwrap().rows().cloned().expect("a SELECT")
    }

    #[test]
    fn point_lookup_via_index() {
        let out = select("SELECT title FROM movies WHERE id = 7");
        assert_eq!(out.len(), 1);
        assert_eq!(out.rows[0].1.get(0), Some(&Value::Text("movie-7".into())));
    }

    #[test]
    fn range_scan_with_residual_filter() {
        let out = select("SELECT id FROM movies WHERE id >= 5 AND id < 10 AND gross > 60.0");
        let ids: Vec<i64> = out
            .rows
            .iter()
            .map(|(_, r)| match r.get(0) {
                Some(Value::Int(i)) => *i,
                v => panic!("not an int: {v:?}"),
            })
            .collect();
        assert_eq!(ids, vec![7, 8, 9]);
    }

    #[test]
    fn order_by_and_limit() {
        let out = select("SELECT id FROM movies ORDER BY id DESC LIMIT 3");
        let ids: Vec<i64> = out
            .rows
            .iter()
            .map(|(_, r)| match r.get(0) {
                Some(Value::Int(i)) => *i,
                v => panic!("not an int: {v:?}"),
            })
            .collect();
        assert_eq!(ids, vec![19, 18, 17]);
    }

    #[test]
    fn select_star_projects_all() {
        let out = select("SELECT * FROM movies WHERE id = 0");
        assert_eq!(*out.columns, ["id", "title", "gross"]);
        assert_eq!(out.rows[0].1.arity(), 3);
    }

    #[test]
    fn reads_recorded() {
        let e = crate::Engine::new();
        let t = e.catalog().install_table(movies()).unwrap();
        let before = t.read().stats().reads;
        e.execute("SELECT * FROM movies WHERE id < 5").unwrap();
        assert_eq!(t.read().stats().reads, before + 5);
        // A partly drained stream counts only the rows it pulled.
        let all = crate::parse("SELECT * FROM movies").unwrap();
        e.execute_stmt_streaming(&all, |s| {
            let crate::StreamedStatement::Rows(cursor) = s else {
                panic!("expected rows");
            };
            cursor.next_row().unwrap();
            cursor.next_row().unwrap();
        })
        .unwrap();
        assert_eq!(t.read().stats().reads, before + 7);
    }

    #[test]
    fn update_uses_old_row_values() {
        let mut t = movies();
        let filter = parse_expr("id = 3").unwrap();
        let plan = plan_locate(&t, Some(&filter)).unwrap();
        let schema = t.schema().clone();
        let gross_col = schema.index_of("gross").unwrap();
        // SET gross = gross + 1, then id stays keyed correctly.
        let assign_expr = crate::expr::bind(&parse_expr("gross + 1.0").unwrap(), &schema).unwrap();
        let rids = run_update(&mut t, &plan, &[(gross_col, assign_expr)]).unwrap();
        assert_eq!(rids.len(), 1);
        assert_eq!(
            t.peek(rids[0]).unwrap().get(gross_col),
            Some(&Value::Float(31.0))
        );
    }

    #[test]
    fn delete_removes_rows() {
        let mut t = movies();
        let filter = parse_expr("id >= 15").unwrap();
        let plan = plan_locate(&t, Some(&filter)).unwrap();
        let rids = run_delete(&mut t, &plan).unwrap();
        assert_eq!(rids.len(), 5);
        assert_eq!(t.len(), 15);
    }

    /// Evaluate an INSERT value as an INSERT plans and runs it.
    fn const_eval(e: &crate::ast::Expr) -> Result<Value> {
        let insert = crate::engine::WriteStatement::Insert(vec![vec![e.clone()]]);
        match crate::planner::plan_write(&movies(), &insert)? {
            crate::plan::WritePlan::Insert(rows) => eval(&rows[0][0], &Row::new(Vec::new())),
            other => panic!("an INSERT planned as {other:?}"),
        }
    }

    #[test]
    fn const_eval_folds_and_rejects_columns() {
        assert_eq!(
            const_eval(&parse_expr("1 + 2 * 3").unwrap()).unwrap(),
            Value::Int(7)
        );
        assert_eq!(
            const_eval(&parse_expr("-1.5").unwrap()).unwrap(),
            Value::Float(-1.5)
        );
        assert!(const_eval(&parse_expr("id + 1").unwrap()).is_err());
    }
}
