//! The query engine: parse → plan → execute against a shared catalog.

use crate::ast::{Expr, OrderBy, Projection, Statement};
use crate::error::{QueryError, Result};
use crate::exec::{
    open_select, run_delete, run_insert, run_update, ExecScratch, SelectCursor, SelectOutput,
};
use crate::parser::parse;
use crate::plan::{SelectPlan, WritePlan};
use crate::planner::{plan_select, plan_write};
use delayguard_storage::{Catalog, Column, RowId, Schema, TableRef, Value};
use std::ptr;
use std::sync::{Arc, Weak};

/// The outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementOutput {
    /// `CREATE TABLE` succeeded.
    TableCreated,
    /// `CREATE INDEX` succeeded.
    IndexCreated,
    /// `DROP TABLE` succeeded.
    TableDropped,
    /// Rows inserted, with their new RowIds.
    Inserted { rids: Vec<RowId> },
    /// Rows updated, with their (possibly relocated) RowIds.
    Updated { rids: Vec<RowId> },
    /// Rows deleted, with their former RowIds.
    Deleted { rids: Vec<RowId> },
    /// SELECT result set.
    Rows(SelectOutput),
}

impl StatementOutput {
    /// The SELECT output, if this was a SELECT.
    pub fn rows(&self) -> Option<&SelectOutput> {
        match self {
            StatementOutput::Rows(out) => Some(out),
            _ => None,
        }
    }
}

/// A statement being executed in streaming mode.
///
/// SELECTs expose an open [`SelectCursor`] to pull rows from; every other
/// statement runs to completion eagerly (DML has no row stream to speak
/// of) and hands back its finished output.
pub enum StreamedStatement<'a> {
    /// An open SELECT pipeline; pull rows with [`SelectCursor::next_row`].
    Rows(SelectCursor<'a>),
    /// A non-SELECT statement that already ran to completion.
    Finished(StatementOutput),
}

/// A SELECT parsed, bound, and planned once, for repeated execution.
///
/// The statement keeps the handle of the table it reads, so an execution
/// takes no catalog lock and writes no shared reference count: it locks
/// the table it already holds. A handle whose table was dropped (or one
/// kept from another engine's catalog) is replaced by a fresh lookup of
/// the name, which fails as an ad-hoc statement would once the table is
/// gone. The cached plan is validated against the table's DDL version on
/// every execution: one u64 compare in the common case, a transparent
/// replan when an index was created or dropped or the table was rebuilt
/// or replaced. Row
/// writes never make it stale — a plan holds no row ids, and every
/// execution probes its index afresh. Together with [`ExecScratch`],
/// repeated execution of a prepared statement is allocation-free on
/// index access paths.
///
/// A statement whose literals were lifted into parameters
/// (`Statement::lift_literals`) is planned once for every value:
/// [`PreparedSelect::bind`] writes each execution's values into the
/// plan's probe key and residual filter.
pub struct PreparedSelect {
    /// Shared with every access event a guarded execution emits, so
    /// recording an access never copies the name.
    table: Arc<str>,
    /// The table `table` named when last looked up, in `catalog`.
    source: TableRef,
    catalog: Weak<Catalog>,
    projection: Projection,
    filter: Option<Expr>,
    order_by: Option<OrderBy>,
    limit: Option<u64>,
    plan: SelectPlan,
    ddl_version: u64,
    /// The values bound to the parameters, kept so a replanned statement
    /// can be bound again. Empty for a statement without parameters.
    params: Vec<Value>,
    /// Whether `params` holds bound values (trivially so without any).
    bound: bool,
}

impl PreparedSelect {
    /// The table this statement reads.
    pub fn table(&self) -> &Arc<str> {
        &self.table
    }

    /// Bind `values` to the statement's parameters, in order, for every
    /// execution until the next `bind`. A parameter stands where a
    /// non-`NULL` literal stood, so `NULL` is refused.
    pub fn bind(&mut self, values: &[Value]) -> Result<()> {
        bind_values(&mut self.params, values)?;
        self.plan.bind_params(&self.params);
        self.bound = true;
        Ok(())
    }
}

/// Copy `values` over a statement's parameters, refusing a wrong count
/// and `NULL`: a parameter stands where a non-`NULL` literal stood.
fn bind_values(params: &mut [Value], values: &[Value]) -> Result<()> {
    if values.len() != params.len() {
        return Err(QueryError::Semantic(format!(
            "statement takes {} parameter value(s), {} given",
            params.len(),
            values.len()
        )));
    }
    if values.iter().any(Value::is_null) {
        return Err(QueryError::Semantic(
            "a parameter value cannot be NULL".into(),
        ));
    }
    params.clone_from_slice(values);
    Ok(())
}

/// The verb of a write statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationVerb {
    Insert,
    Update,
    Delete,
}

impl MutationVerb {
    /// The SQL keyword.
    pub fn name(self) -> &'static str {
        match self {
            MutationVerb::Insert => "INSERT",
            MutationVerb::Update => "UPDATE",
            MutationVerb::Delete => "DELETE",
        }
    }
}

/// The parts of a parsed write that its plan is made from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WriteStatement {
    /// `VALUES` rows.
    Insert(Vec<Vec<Expr>>),
    /// `SET` assignments and the `WHERE` clause.
    Update(Vec<(String, Expr)>, Option<Expr>),
    /// The `WHERE` clause.
    Delete(Option<Expr>),
}

/// An INSERT, UPDATE or DELETE parsed once, for repeated execution.
///
/// It keeps what a [`PreparedSelect`] keeps: the handle of the table it
/// writes, replaced by a fresh lookup once that table is dropped (or
/// when run over another engine's catalog); a plan validated against the
/// table's DDL version on every run, and made again when it moved; and
/// the values bound to its lifted parameters, written into the plan by
/// [`PreparedWrite::bind`]. Each run takes the table's write lock only
/// to check that version, locate its rows and apply the write.
///
/// It is planned on its first run, under that lock, so every error past
/// parsing (a missing table, an unknown column, a column named in
/// `VALUES`) is reported where an ad-hoc write reports it, on every run.
pub struct PreparedWrite {
    /// Shared with every update event a guarded execution emits.
    table: Arc<str>,
    statement: WriteStatement,
    /// The table `table` named when last looked up, in `catalog`; `None`
    /// before the first run.
    source: Option<TableRef>,
    catalog: Weak<Catalog>,
    /// `None` until the first run plans it.
    plan: Option<WritePlan>,
    ddl_version: u64,
    /// As [`PreparedSelect`]'s: kept so a replanned write can be bound
    /// again.
    params: Vec<Value>,
    bound: bool,
}

impl PreparedWrite {
    /// The table this statement writes.
    pub fn table(&self) -> &Arc<str> {
        &self.table
    }

    /// Which write this is.
    pub fn verb(&self) -> MutationVerb {
        match self.statement {
            WriteStatement::Insert(_) => MutationVerb::Insert,
            WriteStatement::Update(..) => MutationVerb::Update,
            WriteStatement::Delete(_) => MutationVerb::Delete,
        }
    }

    /// Bind `values` to the statement's parameters, in order, as
    /// [`PreparedSelect::bind`] does.
    pub fn bind(&mut self, values: &[Value]) -> Result<()> {
        bind_values(&mut self.params, values)?;
        if let Some(plan) = &mut self.plan {
            plan.bind_params(&self.params);
        }
        self.bound = true;
        Ok(())
    }
}

/// What [`Engine::run_select`] executes.
enum Select<'a> {
    Prepared(&'a mut PreparedSelect),
    /// A parsed SELECT, planned under the lock it runs under.
    AdHoc {
        table: &'a str,
        projection: &'a Projection,
        filter: Option<&'a Expr>,
        order_by: Option<&'a OrderBy>,
        limit: Option<u64>,
    },
}

/// A SQL engine bound to a catalog.
///
/// `Engine` is cheap to clone (it shares the catalog) and safe to use from
/// multiple threads; per-statement locking is at table granularity.
#[derive(Clone)]
pub struct Engine {
    catalog: Arc<Catalog>,
}

impl Engine {
    /// An engine over a fresh, empty catalog.
    pub fn new() -> Engine {
        Engine {
            catalog: Arc::new(Catalog::new()),
        }
    }

    /// An engine over an existing catalog (e.g. loaded from a snapshot).
    pub fn with_catalog(catalog: Arc<Catalog>) -> Engine {
        Engine { catalog }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> Result<StatementOutput> {
        match parse(sql)? {
            stmt @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                Ok(self.execute_write(&mut self.prepare_write(stmt)?)?.0)
            }
            stmt => self.execute_stmt(&stmt),
        }
    }

    /// Execute a pre-parsed statement (hot paths can cache the parse).
    pub fn execute_stmt(&self, stmt: &Statement) -> Result<StatementOutput> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let cols = columns
                    .iter()
                    .map(|c| Column {
                        name: c.name.clone(),
                        dtype: c.dtype,
                        not_null: c.not_null,
                    })
                    .collect();
                let schema = Schema::new(cols)?;
                self.catalog.create_table(name, schema)?;
                Ok(StatementOutput::TableCreated)
            }
            Statement::CreateIndex {
                name,
                table,
                columns,
                unique,
            } => {
                let t = self.catalog.table(table)?;
                let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
                t.write().create_index(name, &col_refs, *unique)?;
                Ok(StatementOutput::IndexCreated)
            }
            Statement::DropTable { name } => {
                self.catalog.drop_table(name)?;
                Ok(StatementOutput::TableDropped)
            }
            Statement::Select { .. } => self.execute_stmt_streaming(stmt, |streamed| {
                let StreamedStatement::Rows(cursor) = streamed else {
                    unreachable!("a SELECT opens a row stream");
                };
                let mut rows = Vec::new();
                while let Some(pair) = cursor.next_row()? {
                    rows.push(pair);
                }
                Ok(StatementOutput::Rows(SelectOutput {
                    columns: Arc::clone(cursor.columns()),
                    rows,
                }))
            })?,
            // A write is prepared and run once: write planning and
            // binding live in `execute_write` alone. The borrow forces
            // the clone; `Engine::execute` moves its own parse instead.
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                let mut prep = self.prepare_write(stmt.clone())?;
                Ok(self.execute_write(&mut prep)?.0)
            }
        }
    }

    /// Execute a statement in streaming mode: a SELECT is handed to `f`
    /// as an open [`SelectCursor`] instead of a materialized result set.
    ///
    /// A SELECT is planned and run where a prepared one runs
    /// (`Engine::run_select`), so it holds the table's
    /// *read* lock for the duration of `f`: readers of one table run in
    /// parallel, and a writer waits only for the readers in flight. `f`
    /// must not call back into this engine for the same table — even a
    /// nested read can deadlock, because it queues behind a writer that
    /// is itself waiting for `f`'s read lock. Rows read are recorded
    /// when `f` returns; a partially-consumed cursor charges only the
    /// rows it actually yielded.
    pub fn execute_stmt_streaming<R>(
        &self,
        stmt: &Statement,
        f: impl FnOnce(&mut StreamedStatement<'_>) -> R,
    ) -> Result<R> {
        match stmt {
            Statement::Select {
                table,
                projection,
                filter,
                order_by,
                limit,
            } => {
                let adhoc = Select::AdHoc {
                    table,
                    projection,
                    filter: filter.as_ref(),
                    order_by: order_by.as_ref(),
                    limit: *limit,
                };
                self.run_select(adhoc, &mut ExecScratch::new(), f)
            }
            other => {
                let out = self.execute_stmt(other)?;
                let mut streamed = StreamedStatement::Finished(out);
                Ok(f(&mut streamed))
            }
        }
    }

    /// Prepare a SELECT for repeated execution: parse, bind, and plan now
    /// so [`Engine::execute_prepared_streaming`] does neither per query.
    pub fn prepare_select(&self, sql: &str) -> Result<PreparedSelect> {
        self.prepare(parse(sql)?)
    }

    /// Prepare a parsed SELECT, which may carry parameters
    /// (`Statement::lift_literals`); bind them with
    /// [`PreparedSelect::bind`] before executing.
    pub fn prepare(&self, stmt: Statement) -> Result<PreparedSelect> {
        let Statement::Select {
            table,
            projection,
            filter,
            order_by,
            limit,
        } = stmt
        else {
            return Err(QueryError::Semantic(
                "only SELECT statements can be prepared".into(),
            ));
        };
        let source = self.catalog.table(&table)?;
        let (plan, ddl_version) = {
            let t = source.read();
            let plan = plan_select(&t, &projection, filter.as_ref(), order_by.as_ref(), limit)?;
            (plan, t.ddl_version())
        };
        let params = filter.as_ref().map_or(0, Expr::param_count);
        Ok(PreparedSelect {
            table: Arc::from(table),
            source,
            catalog: Arc::downgrade(&self.catalog),
            projection,
            filter,
            order_by,
            limit,
            plan,
            ddl_version,
            params: vec![Value::Null; params],
            bound: params == 0,
        })
    }

    /// Prepare a parsed INSERT, UPDATE or DELETE, which may carry
    /// parameters (`Statement::lift_literals`; bind them with
    /// [`PreparedWrite::bind`]). It is planned on its first run.
    pub fn prepare_write(&self, stmt: Statement) -> Result<PreparedWrite> {
        let (table, statement) = match stmt {
            Statement::Insert { table, rows } => (table, WriteStatement::Insert(rows)),
            Statement::Update {
                table,
                assignments,
                filter,
            } => (table, WriteStatement::Update(assignments, filter)),
            Statement::Delete { table, filter } => (table, WriteStatement::Delete(filter)),
            _ => {
                return Err(QueryError::Semantic(
                    "only INSERT, UPDATE and DELETE statements can be prepared as writes".into(),
                ))
            }
        };
        let params = statement.param_count();
        Ok(PreparedWrite {
            table: Arc::from(table),
            statement,
            source: None,
            catalog: Weak::new(),
            plan: None,
            ddl_version: 0,
            params: vec![Value::Null; params],
            bound: params == 0,
        })
    }

    /// Run a prepared write: its output, and the table's data version as
    /// this write's own commit left it.
    ///
    /// The write lock is held to check the plan against the table's DDL
    /// version (planning again when it moved), locate the rows and apply
    /// the write, and no longer.
    pub fn execute_write(&self, prep: &mut PreparedWrite) -> Result<(StatementOutput, u64)> {
        if !prep.bound {
            return Err(QueryError::Semantic(
                "statement parameters are not bound".into(),
            ));
        }
        let same_catalog = ptr::eq(prep.catalog.as_ptr(), Arc::as_ptr(&self.catalog));
        let source = match prep.source.take().filter(|_| same_catalog) {
            Some(source) => prep.source.insert(source),
            None => {
                prep.catalog = Arc::downgrade(&self.catalog);
                prep.source.insert(self.catalog.table(&prep.table)?)
            }
        };
        let mut t = source.write();
        if t.is_dropped() {
            drop(t);
            let source = prep.source.insert(self.catalog.table(&prep.table)?);
            t = source.write();
        }
        let plan = match &mut prep.plan {
            Some(plan) if t.ddl_version() == prep.ddl_version => plan,
            slot => {
                let plan = slot.insert(plan_write(&t, &prep.statement)?);
                plan.bind_params(&prep.params);
                prep.ddl_version = t.ddl_version();
                plan
            }
        };
        let output = match plan {
            WritePlan::Insert(rows) => StatementOutput::Inserted {
                rids: run_insert(&mut t, rows)?,
            },
            WritePlan::Update(locate, assignments) => StatementOutput::Updated {
                rids: run_update(&mut t, locate, assignments)?,
            },
            WritePlan::Delete(locate) => StatementOutput::Deleted {
                rids: run_delete(&mut t, locate)?,
            },
        };
        Ok((output, t.data_version()))
    }

    /// Execute a prepared SELECT in streaming mode.
    ///
    /// Locking and charging are as described on
    /// [`Engine::execute_stmt_streaming`]; the plan is reused (after a
    /// DDL-version check) and every buffer comes from `scratch`, so the
    /// steady-state path performs no parsing, no planning, and no
    /// allocation on index access paths.
    pub fn execute_prepared_streaming<R>(
        &self,
        prep: &mut PreparedSelect,
        scratch: &mut ExecScratch,
        f: impl FnOnce(&mut StreamedStatement<'_>) -> R,
    ) -> Result<R> {
        if !prep.bound {
            return Err(QueryError::Semantic(
                "statement parameters are not bound".into(),
            ));
        }
        self.run_select(Select::Prepared(prep), scratch, f)
    }

    /// The one place a SELECT executes: take the table's read lock, plan
    /// an ad-hoc statement (or re-plan a prepared one whose table's DDL
    /// moved), open the cursor for `f`, and count the rows it pulled.
    fn run_select<R>(
        &self,
        select: Select<'_>,
        scratch: &mut ExecScratch,
        f: impl FnOnce(&mut StreamedStatement<'_>) -> R,
    ) -> Result<R> {
        let looked_up;
        let adhoc;
        let (t, plan) = match select {
            Select::Prepared(prep) => {
                let mut t = prep.source.read();
                if t.is_dropped() || !ptr::eq(prep.catalog.as_ptr(), Arc::as_ptr(&self.catalog)) {
                    drop(t);
                    prep.source = self.catalog.table(&prep.table)?;
                    prep.catalog = Arc::downgrade(&self.catalog);
                    t = prep.source.read();
                }
                if t.ddl_version() != prep.ddl_version {
                    prep.plan = plan_select(
                        &t,
                        &prep.projection,
                        prep.filter.as_ref(),
                        prep.order_by.as_ref(),
                        prep.limit,
                    )?;
                    prep.plan.bind_params(&prep.params);
                    prep.ddl_version = t.ddl_version();
                }
                (t, &prep.plan)
            }
            Select::AdHoc {
                table,
                projection,
                filter,
                order_by,
                limit,
            } => {
                looked_up = self.catalog.table(table)?;
                let t = looked_up.read();
                adhoc = plan_select(&t, projection, filter, order_by, limit)?;
                (t, &adhoc)
            }
        };
        let mut streamed = StreamedStatement::Rows(open_select(&t, plan, scratch)?);
        let result = f(&mut streamed);
        if let StreamedStatement::Rows(cursor) = &streamed {
            t.record_reads(cursor.rows_yielded());
        }
        Ok(result)
    }
}

impl WriteStatement {
    /// One more than the highest parameter index in the statement.
    fn param_count(&self) -> usize {
        let (exprs, filter): (Vec<&Expr>, _) = match self {
            WriteStatement::Insert(rows) => (rows.iter().flatten().collect(), None),
            WriteStatement::Update(assignments, filter) => (
                assignments.iter().map(|(_, e)| e).collect(),
                filter.as_ref(),
            ),
            WriteStatement::Delete(filter) => (Vec::new(), filter.as_ref()),
        };
        exprs
            .into_iter()
            .chain(filter)
            .map(Expr::param_count)
            .max()
            .unwrap_or(0)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use delayguard_storage::{Row, Value};

    fn engine_with_movies() -> Engine {
        let e = Engine::new();
        e.execute("CREATE TABLE movies (id INT NOT NULL, title TEXT NOT NULL, gross FLOAT)")
            .unwrap();
        e.execute("CREATE UNIQUE INDEX movies_pk ON movies (id)")
            .unwrap();
        e.execute(
            "INSERT INTO movies VALUES \
             (1, 'Spider-Man', 403.7), (2, 'Two Towers', 339.8), (3, 'Attack of the Clones', 302.2)",
        )
        .unwrap();
        e
    }

    /// A SELECT's output; panics on any other statement.
    fn select(e: &Engine, sql: &str) -> SelectOutput {
        e.execute(sql).unwrap().rows().cloned().expect("a SELECT")
    }

    /// Rows a write statement touched.
    fn written(out: &StatementOutput) -> usize {
        match out {
            StatementOutput::Inserted { rids }
            | StatementOutput::Updated { rids }
            | StatementOutput::Deleted { rids } => rids.len(),
            other => panic!("not a write: {other:?}"),
        }
    }

    /// Stream one statement's output through `f`.
    fn stream<R>(e: &Engine, sql: &str, f: impl FnOnce(&mut StreamedStatement<'_>) -> R) -> R {
        e.execute_stmt_streaming(&parse(sql).unwrap(), f).unwrap()
    }

    #[test]
    fn end_to_end_select() {
        let e = engine_with_movies();
        let out = select(&e, "SELECT title FROM movies WHERE id = 2");
        assert_eq!(out.len(), 1);
        assert_eq!(
            out.rows[0].1.get(0),
            Some(&Value::Text("Two Towers".into()))
        );
    }

    #[test]
    fn insert_reports_rids() {
        let e = engine_with_movies();
        let out = e
            .execute("INSERT INTO movies VALUES (4, 'Signs', 228.0)")
            .unwrap();
        assert_eq!(written(&out), 1);
        assert!(matches!(out, StatementOutput::Inserted { .. }));
    }

    #[test]
    fn update_and_delete() {
        let e = engine_with_movies();
        let out = e
            .execute("UPDATE movies SET gross = gross + 1.0 WHERE id = 1")
            .unwrap();
        assert_eq!(written(&out), 1);
        let rows = select(&e, "SELECT gross FROM movies WHERE id = 1");
        assert_eq!(rows.rows[0].1.get(0), Some(&Value::Float(404.7)));
        let out = e.execute("DELETE FROM movies WHERE id = 3").unwrap();
        assert_eq!(written(&out), 1);
        assert_eq!(select(&e, "SELECT * FROM movies").len(), 2);
    }

    #[test]
    fn unique_violation_surfaces() {
        let e = engine_with_movies();
        let err = e
            .execute("INSERT INTO movies VALUES (1, 'Dup', 0.0)")
            .unwrap_err();
        assert!(err.to_string().contains("unique"));
    }

    #[test]
    fn null_and_not_null() {
        let e = engine_with_movies();
        e.execute("INSERT INTO movies VALUES (9, 'NoGross', NULL)")
            .unwrap();
        let err = e
            .execute("INSERT INTO movies VALUES (10, NULL, 1.0)")
            .unwrap_err();
        assert!(err.to_string().contains("NOT NULL"));
    }

    #[test]
    fn drop_table() {
        let e = engine_with_movies();
        e.execute("DROP TABLE movies").unwrap();
        assert!(e.execute("SELECT * FROM movies").is_err());
    }

    #[test]
    fn query_rejects_non_select() {
        let e = engine_with_movies();
        assert!(e.execute("DELETE FROM movies").unwrap().rows().is_none());
    }

    #[test]
    fn engine_is_cloneable_and_shares_state() {
        let e = engine_with_movies();
        let e2 = e.clone();
        e2.execute("INSERT INTO movies VALUES (5, 'Ice Age', 176.0)")
            .unwrap();
        assert_eq!(select(&e, "SELECT * FROM movies").len(), 4);
    }

    #[test]
    fn prepared_select_matches_adhoc_and_reuses_scratch() {
        let e = engine_with_movies();
        let mut prep = e
            .prepare_select("SELECT title FROM movies WHERE id >= 1 AND id < 3")
            .unwrap();
        let mut scratch = ExecScratch::new();
        let adhoc = select(&e, "SELECT title FROM movies WHERE id >= 1 AND id < 3");
        for _ in 0..3 {
            let rows = e
                .execute_prepared_streaming(&mut prep, &mut scratch, |s| {
                    let StreamedStatement::Rows(cursor) = s else {
                        panic!("expected rows");
                    };
                    let mut rows = Vec::new();
                    while let Some(pair) = cursor.next_row().unwrap() {
                        rows.push(pair);
                    }
                    rows
                })
                .unwrap();
            assert_eq!(rows, adhoc.rows);
        }
    }

    #[test]
    fn prepared_select_replans_after_ddl() {
        let e = engine_with_movies();
        let mut prep = e
            .prepare_select("SELECT id FROM movies WHERE title = 'Two Towers'")
            .unwrap();
        // A new index changes the best access path; the prepared statement
        // must notice and still return correct results.
        e.execute("CREATE INDEX movies_title ON movies (title)")
            .unwrap();
        let mut scratch = ExecScratch::new();
        let count = e
            .execute_prepared_streaming(&mut prep, &mut scratch, |s| {
                let StreamedStatement::Rows(cursor) = s else {
                    panic!("expected rows");
                };
                let mut n = 0;
                while cursor.next_row().unwrap().is_some() {
                    n += 1;
                }
                n
            })
            .unwrap();
        assert_eq!(count, 1);
        assert!(matches!(
            prep.plan.access,
            crate::plan::AccessPath::IndexEq { .. }
        ));
    }

    #[test]
    fn prepared_select_sees_rows_mutated_after_prepare() {
        let e = engine_with_movies();
        let mut prep = e
            .prepare_select("SELECT title FROM movies WHERE id = 9")
            .unwrap();
        let mut scratch = ExecScratch::new();
        let collect = |s: &mut StreamedStatement<'_>| {
            let StreamedStatement::Rows(cursor) = s else {
                panic!("expected rows");
            };
            let mut rows = Vec::new();
            while let Some(pair) = cursor.next_row().unwrap() {
                rows.push(pair);
            }
            rows
        };
        let before = e
            .execute_prepared_streaming(&mut prep, &mut scratch, collect)
            .unwrap();
        assert!(before.is_empty());
        // A row inserted after preparation must be visible on the next
        // execution without a replan: the plan holds no row ids, and
        // every execution probes the index afresh.
        e.execute("INSERT INTO movies VALUES (9, 'Late Arrival', 2004.0)")
            .unwrap();
        let after = e
            .execute_prepared_streaming(&mut prep, &mut scratch, collect)
            .unwrap();
        assert_eq!(after.len(), 1);
        // And a delete disappears the same way.
        e.execute("DELETE FROM movies WHERE id = 9").unwrap();
        let gone = e
            .execute_prepared_streaming(&mut prep, &mut scratch, collect)
            .unwrap();
        assert!(gone.is_empty());
    }

    #[test]
    fn prepared_select_reads_the_table_its_name_leads_to_now() {
        let e = engine_with_movies();
        let mut prep = e
            .prepare_select("SELECT title FROM movies WHERE id = 1")
            .unwrap();
        let mut scratch = ExecScratch::new();
        let mut titles = |e: &Engine| {
            e.execute_prepared_streaming(&mut prep, &mut scratch, collect)
                .map(|rows| {
                    rows.iter()
                        .map(|(_, r)| r.values()[0].clone())
                        .collect::<Vec<_>>()
                })
        };
        let title = |t: &str| vec![Value::Text(t.into())];
        assert_eq!(titles(&e).unwrap(), title("Spider-Man"));
        // Dropped: the error an ad-hoc statement gets; created again: the
        // new table's rows.
        e.execute("DROP TABLE movies").unwrap();
        let adhoc = e.execute("SELECT title FROM movies WHERE id = 1");
        assert_eq!(
            titles(&e).unwrap_err().to_string(),
            adhoc.unwrap_err().to_string()
        );
        let create = "CREATE TABLE movies (id INT NOT NULL, title TEXT NOT NULL, gross FLOAT)";
        e.execute(create).unwrap();
        e.execute("INSERT INTO movies VALUES (1, 'Remade', 2.0)")
            .unwrap();
        assert_eq!(titles(&e).unwrap(), title("Remade"));
        // Another engine's catalog: its own `movies`, then back.
        let other = Engine::new();
        other.execute(create).unwrap();
        other
            .execute("INSERT INTO movies VALUES (1, 'Elsewhere', 1.0)")
            .unwrap();
        assert_eq!(titles(&other).unwrap(), title("Elsewhere"));
        assert_eq!(titles(&e).unwrap(), title("Remade"));
    }

    /// Pull every row of a streamed SELECT.
    fn collect(s: &mut StreamedStatement<'_>) -> Vec<(RowId, Row)> {
        let StreamedStatement::Rows(cursor) = s else {
            panic!("expected rows");
        };
        let mut rows = Vec::new();
        while let Some(pair) = cursor.next_row().unwrap() {
            rows.push(pair);
        }
        rows
    }

    fn ids(rows: &[(RowId, Row)]) -> Vec<i64> {
        rows.iter()
            .map(|(_, r)| match r.get(0) {
                Some(Value::Int(i)) => *i,
                v => panic!("not an int: {v:?}"),
            })
            .collect()
    }

    #[test]
    fn prepared_range_sees_rows_written_inside_the_range_after_prepare() {
        let e = engine_with_movies();
        let mut prep = e
            .prepare_select("SELECT id FROM movies WHERE id >= 10 AND id < 20")
            .unwrap();
        let plan = prep.plan.clone();
        let mut scratch = ExecScratch::new();
        let mut run = || {
            ids(&e
                .execute_prepared_streaming(&mut prep, &mut scratch, collect)
                .unwrap())
        };
        assert!(run().is_empty());
        for id in [12, 15, 19, 20, 9] {
            e.execute(&format!("INSERT INTO movies VALUES ({id}, 'm{id}', 1.0)"))
                .unwrap();
        }
        assert_eq!(run(), vec![12, 15, 19], "bounds hold: 20 and 9 stay out");
        e.execute("DELETE FROM movies WHERE id = 15").unwrap();
        e.execute("UPDATE movies SET id = 11 WHERE id = 19")
            .unwrap();
        assert_eq!(run(), vec![11, 12]);
        assert_eq!(prep.plan, plan, "row writes never replan");
    }

    #[test]
    fn lifted_parameters_bind_per_execution_and_survive_a_replan() {
        let e = engine_with_movies();
        let mut stmt = parse("SELECT id FROM movies WHERE title = 'Two Towers'").unwrap();
        let mut values = Vec::new();
        stmt.lift_literals(&mut values);
        let mut prep = e.prepare(stmt).unwrap();
        let mut scratch = ExecScratch::new();
        assert!(
            e.execute_prepared_streaming(&mut prep, &mut scratch, collect)
                .is_err(),
            "unbound parameters refuse to run"
        );
        prep.bind(&values).unwrap();
        assert_eq!(
            ids(&e
                .execute_prepared_streaming(&mut prep, &mut scratch, collect)
                .unwrap()),
            vec![2]
        );
        prep.bind(&[Value::Text("Spider-Man".into())]).unwrap();
        // The new index replans the statement; the bound value carries
        // over into the new plan's probe key.
        e.execute("CREATE INDEX movies_title ON movies (title)")
            .unwrap();
        assert_eq!(
            ids(&e
                .execute_prepared_streaming(&mut prep, &mut scratch, collect)
                .unwrap()),
            vec![1]
        );
        assert!(matches!(
            prep.plan.access,
            crate::plan::AccessPath::IndexEq { .. }
        ));
        assert!(prep.bind(&[]).is_err(), "wrong arity");
        assert!(prep.bind(&[Value::Null]).is_err(), "NULL is not a literal");
    }

    /// `sql` parsed, its literals lifted, prepared as a write and bound
    /// to its own literals, as the statement cache prepares it.
    fn prepared_write(e: &Engine, sql: &str) -> PreparedWrite {
        let mut stmt = parse(sql).unwrap();
        let mut values = Vec::new();
        stmt.lift_literals(&mut values);
        let mut prep = e.prepare_write(stmt).unwrap();
        prep.bind(&values).unwrap();
        prep
    }

    #[test]
    fn a_write_reports_the_data_version_of_its_own_commit() {
        let e = engine_with_movies();
        let version = || e.catalog().table("movies").unwrap().read().data_version();
        let v0 = version();
        let mut insert = prepared_write(&e, "INSERT INTO movies VALUES (4, 'Signs', 228.0)");
        let mut update = prepared_write(&e, "UPDATE movies SET gross = 1.0 WHERE id >= 2");
        let mut miss = prepared_write(&e, "DELETE FROM movies WHERE id = 99");
        // Each run's version is the table's right after its commit, and
        // stays the one it returned whatever commits after it.
        let (_, inserted) = e.execute_write(&mut insert).unwrap();
        assert_eq!(inserted, v0 + 1);
        let (out, updated) = e.execute_write(&mut update).unwrap();
        assert_eq!(written(&out), 3);
        assert_eq!(updated, v0 + 4, "one bump per row written");
        assert_eq!(e.execute_write(&mut miss).unwrap().1, v0 + 4);
        assert_eq!(inserted, v0 + 1);
        assert_eq!(version(), v0 + 4);
        // A write that fails commits nothing and reports no version.
        assert!(e.execute_write(&mut insert).is_err(), "unique violation");
        assert_eq!(version(), v0 + 4);
    }

    #[test]
    fn a_prepared_write_binds_each_run_and_replans_after_ddl() {
        let e = engine_with_movies();
        let mut prep = prepared_write(&e, "UPDATE movies SET title = 'x' WHERE title = 'y'");
        assert_eq!(prep.verb(), MutationVerb::Update);
        assert!(prep.plan.is_none(), "planned on its first run");
        let run = |prep: &mut PreparedWrite, values: &[Value]| {
            prep.bind(values).unwrap();
            written(&e.execute_write(prep).unwrap().0)
        };
        let text = |s: &str| Value::Text(s.into());
        assert_eq!(run(&mut prep, &[text("Retitled"), text("Two Towers")]), 1);
        assert_eq!(run(&mut prep, &[text("Again"), text("Retitled")]), 1);
        e.execute("CREATE INDEX movies_title ON movies (title)")
            .unwrap();
        assert_eq!(run(&mut prep, &[text("Thrice"), text("Again")]), 1);
        assert!(matches!(
            prep.plan,
            Some(WritePlan::Update(ref locate, _))
                if matches!(locate.access, crate::plan::AccessPath::IndexEq { .. })
        ));
        assert_eq!(
            select(&e, "SELECT id FROM movies WHERE title = 'Thrice'").len(),
            1
        );
        assert!(prep.bind(&[]).is_err(), "wrong arity");
        assert!(
            prep.bind(&[Value::Null, text("a")]).is_err(),
            "NULL is not a literal"
        );
    }

    #[test]
    fn a_prepared_write_errors_where_an_adhoc_one_does_on_every_run() {
        let e = engine_with_movies();
        for sql in [
            "UPDATE movies SET nope = 1 WHERE id = 1",
            "UPDATE missing SET gross = 1.0 WHERE id = 1",
            "INSERT INTO movies VALUES (7, title, 1.0)",
            "INSERT INTO movies VALUES (8, NULL, 1.0)",
            "INSERT INTO movies VALUES ('nine', 'Nine', 1.0)",
            "DELETE FROM movies WHERE nope = 1",
        ] {
            let adhoc = e.execute(sql).unwrap_err().to_string();
            let mut prep = prepared_write(&e, sql);
            for _ in 0..2 {
                let err = e.execute_write(&mut prep).unwrap_err();
                assert_eq!(err.to_string(), adhoc, "{sql}");
            }
        }
        assert!(e
            .prepare_write(parse("SELECT * FROM movies").unwrap())
            .is_err());
        let mut stmt = parse("DELETE FROM movies WHERE id = 1").unwrap();
        stmt.lift_literals(&mut Vec::new());
        let mut unbound = e.prepare_write(stmt).unwrap();
        assert!(e.execute_write(&mut unbound).is_err(), "unbound parameters");
    }

    #[test]
    fn a_prepared_write_writes_the_table_its_name_leads_to_now() {
        let e = engine_with_movies();
        let mut prep = prepared_write(&e, "INSERT INTO movies VALUES (7, 'Seven', 7.0)");
        let create = "CREATE TABLE movies (id INT NOT NULL, title TEXT NOT NULL, gross FLOAT)";
        let count = |e: &Engine| select(e, "SELECT * FROM movies").len();
        assert_eq!(written(&e.execute_write(&mut prep).unwrap().0), 1);
        assert_eq!(count(&e), 4);
        e.execute("DROP TABLE movies").unwrap();
        let adhoc = e.execute("INSERT INTO movies VALUES (7, 'Seven', 7.0)");
        assert_eq!(
            e.execute_write(&mut prep).unwrap_err().to_string(),
            adhoc.unwrap_err().to_string()
        );
        e.execute(create).unwrap();
        assert_eq!(written(&e.execute_write(&mut prep).unwrap().0), 1);
        assert_eq!(count(&e), 1);
        let other = Engine::new();
        other.execute(create).unwrap();
        assert_eq!(written(&other.execute_write(&mut prep).unwrap().0), 1);
        assert_eq!((count(&other), count(&e)), (1, 1));
    }

    const RENDEZVOUS: std::time::Duration = std::time::Duration::from_secs(10);

    #[test]
    fn two_readers_stream_one_table_at_once() {
        use std::sync::mpsc;
        let e = engine_with_movies();
        let (a_in, a_seen) = mpsc::channel();
        let (b_in, b_seen) = mpsc::channel();
        // Each reader announces it is inside its SELECT closure and waits
        // there for the other. Under an exclusive lock the second could
        // never enter, and the first gives up when its wait times out.
        let reader = |announce: mpsc::Sender<()>, other: mpsc::Receiver<()>| {
            let e = e.clone();
            std::thread::spawn(move || {
                stream(&e, "SELECT * FROM movies WHERE id >= 1", |_| {
                    announce.send(()).unwrap();
                    other.recv_timeout(RENDEZVOUS).is_ok()
                })
            })
        };
        let a = reader(a_in, b_seen);
        let b = reader(b_in, a_seen);
        assert!(a.join().unwrap(), "reader A never saw B inside its SELECT");
        assert!(b.join().unwrap(), "reader B never saw A inside its SELECT");
    }

    #[test]
    fn a_writer_waits_for_the_reader_in_flight() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::mpsc;
        let e = engine_with_movies();
        let closed = Arc::new(AtomicBool::new(false));
        let (started_tx, started) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let writer = stream(&e, "SELECT * FROM movies", |_| {
            let (e, seen_closed) = (e.clone(), Arc::clone(&closed));
            let writer = std::thread::spawn(move || {
                started_tx.send(()).unwrap();
                e.execute("UPDATE movies SET gross = 0.0 WHERE id = 1")
                    .unwrap();
                // Whether the reader's closure had returned by the
                // time the UPDATE did.
                done_tx.send(seen_closed.load(Ordering::SeqCst)).unwrap();
            });
            started.recv_timeout(RENDEZVOUS).unwrap();
            assert!(
                done.recv_timeout(std::time::Duration::from_millis(200))
                    .is_err(),
                "the UPDATE finished while a SELECT held the table"
            );
            closed.store(true, Ordering::SeqCst);
            writer
        });
        assert!(done.recv_timeout(RENDEZVOUS).unwrap());
        writer.join().unwrap();
    }

    #[test]
    fn prepare_rejects_non_select() {
        let e = engine_with_movies();
        assert!(e.prepare_select("DELETE FROM movies").is_err());
        assert!(e.prepare_select("SELECT * FROM missing").is_err());
    }

    #[test]
    fn concurrent_queries() {
        let e = engine_with_movies();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let e = e.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let out = select(&e, "SELECT * FROM movies WHERE id = 1");
                    assert_eq!(out.len(), 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
