//! # delayguard-query
//!
//! A SQL-subset query engine over [`delayguard_storage`]: lexer, parser,
//! expression evaluator with SQL three-valued logic, a rule-based planner
//! that exploits B-tree indexes, and an executor.
//!
//! The dialect covers exactly what the paper's workloads need:
//!
//! * `CREATE TABLE` / `CREATE [UNIQUE] INDEX` / `DROP TABLE`
//! * `INSERT INTO t VALUES (...), (...)`
//! * `SELECT cols|* FROM t [WHERE ...] [ORDER BY col [ASC|DESC]] [LIMIT n]`
//! * `UPDATE t SET col = expr, ... [WHERE ...]`
//! * `DELETE FROM t [WHERE ...]`
//!
//! [`StatementCache`] keeps SELECT shapes prepared: text whose shape it
//! has seen is only bound to its literals, never lexed, parsed or
//! planned again.
//!
//! Crucially for the delay defense, [`exec::SelectOutput`] keeps the
//! [`delayguard_storage::RowId`] of every returned tuple so the guard layer
//! can charge per-tuple delays and maintain per-tuple popularity counts.
//!
//! ```
//! use delayguard_query::Engine;
//!
//! let e = Engine::new();
//! e.execute("CREATE TABLE t (id INT NOT NULL, name TEXT)").unwrap();
//! e.execute("CREATE UNIQUE INDEX t_pk ON t (id)").unwrap();
//! e.execute("INSERT INTO t VALUES (1, 'ann'), (2, 'bob')").unwrap();
//! let out = e.execute("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(out.rows().map(|rows| rows.len()), Some(1));
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod lexer;
pub mod parser;
pub mod plan;
pub mod planner;
pub mod stmt_cache;
pub mod token;

pub use engine::{Engine, PreparedSelect, StatementOutput, StreamedStatement};
pub use error::{QueryError, Result};
pub use exec::{ExecScratch, RowBuf, SelectCursor, SelectOutput};
pub use parser::parse;
pub use stmt_cache::{Prepared, StatementCache, STATEMENT_CACHE_CAPACITY};
