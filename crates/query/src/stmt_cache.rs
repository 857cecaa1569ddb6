//! The statement cache: SQL text in, a prepared SELECT, INSERT, UPDATE
//! or DELETE bound to that text's literals out.
//!
//! One scan of the SQL text (`normalize`) replaces each number and
//! string literal with a placeholder tagged with its kind and collects
//! the values in order, so `… WHERE id = 17` and `… WHERE id = 18` have
//! one key. The first statement of a shape is parsed, its literals are
//! lifted into parameters (`Statement::lift_literals`) and it is
//! prepared once (a SELECT is planned then, a write on its first run);
//! every later statement of that shape only writes its values into the
//! cached statement — no lexing, parsing or planning. Each call names the
//! [`StatementKind`] it runs: text of another kind, and DDL, is not
//! scanned, but parsed once and handed back to run as it is. An INSERT
//! of more than one row is prepared and run once, never cached: its
//! literals are the bulk of its text, and a loader's batches of varying
//! size would each hold a shape as long as the batch.
//!
//! Caching changes nothing a caller can observe. A miss parses the
//! caller's own text, so every error is the one parsing it directly
//! gives; errors are never cached, and the planner picks the same access
//! path for every value a shape's parameters can take. The cache is
//! bounded by [`STATEMENT_CACHE_CAPACITY`], a constant: an owner past it
//! evicts the shape it used least recently.
//!
//! A cache is single-owner (`&mut self`). The guarded database keeps
//! one for its SQL entry points, and every wire session keeps its own.

use crate::ast::Statement;
use crate::engine::{Engine, PreparedSelect, PreparedWrite};
use crate::error::Result;
use crate::exec::ExecScratch;
use crate::parser::parse;
use delayguard_storage::Value;
use std::collections::HashMap;

/// Statement shapes one cache keeps prepared.
pub const STATEMENT_CACHE_CAPACITY: usize = 64;

/// One prepared shape.
struct Entry {
    shape: Shape,
    /// [`StatementCache::uses`] at this entry's last use.
    last_used: u64,
}

enum Shape {
    /// A SELECT and the executor scratch its runs recycle.
    Select(PreparedSelect, ExecScratch),
    Write(PreparedWrite),
}

impl Shape {
    fn prepared(&mut self) -> Prepared<'_> {
        match self {
            Shape::Select(query, scratch) => Prepared::Select(query, scratch),
            Shape::Write(write) => Prepared::Write(write),
        }
    }
}

/// Prepared statement shapes, least recently used evicted first.
#[derive(Default)]
pub struct StatementCache {
    entries: Vec<Entry>,
    /// Key → position in `entries`.
    index: HashMap<Box<str>, usize>,
    /// Statements prepared through this cache so far (the LRU clock).
    uses: u64,
    /// The statement being prepared: its shape and its literal values.
    /// Kept between statements so a hit on a shape with only number
    /// literals allocates nothing.
    key: String,
    values: Vec<Value>,
    /// A statement whose literals did not lift one for one onto its
    /// shape, or a multi-row INSERT, runs from here, once, without being
    /// cached; the next `prepare` frees it.
    one_shot: Option<Entry>,
}

/// The statements a [`StatementCache::prepare`] call prepares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatementKind {
    Select,
    /// INSERT, UPDATE and DELETE.
    Write,
}

impl StatementKind {
    /// The kind of statement `sql` is, read from its first token as the
    /// lexer reads it (skipping spacing and comments); `None` for DDL and
    /// for text that opens with no statement keyword.
    pub fn of(sql: &str) -> Option<StatementKind> {
        let mut rest = sql.trim_start();
        while let Some(comment) = rest.strip_prefix("--") {
            rest = comment
                .split_once('\n')
                .map_or("", |(_, next)| next)
                .trim_start();
        }
        let bytes = rest.as_bytes();
        let end = bytes
            .iter()
            .position(|&b| !(b.is_ascii_alphanumeric() || b == b'_'))
            .unwrap_or(bytes.len());
        let is = |keyword: &[u8]| bytes[..end].eq_ignore_ascii_case(keyword);
        if is(b"SELECT") {
            Some(StatementKind::Select)
        } else if is(b"INSERT") || is(b"UPDATE") || is(b"DELETE") {
            Some(StatementKind::Write)
        } else {
            None
        }
    }

    fn of_statement(stmt: &Statement) -> Option<StatementKind> {
        match stmt {
            Statement::Select { .. } => Some(StatementKind::Select),
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. } => {
                Some(StatementKind::Write)
            }
            _ => None,
        }
    }
}

/// What [`StatementCache::prepare`] made of a statement's text.
pub enum Prepared<'a> {
    /// A SELECT bound to the text's literals, with the scratch its runs
    /// recycle: execute it with [`Engine::execute_prepared_streaming`].
    Select(&'a mut PreparedSelect, &'a mut ExecScratch),
    /// An INSERT, UPDATE or DELETE bound to the text's literals: execute
    /// it with [`Engine::execute_write`].
    Write(&'a mut PreparedWrite),
    /// A statement not of the kind asked for (DDL, whatever was asked),
    /// parsed once.
    Other(Statement),
}

impl StatementCache {
    pub fn new() -> StatementCache {
        StatementCache::default()
    }

    /// Shapes held prepared.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no shape is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Prepare `sql` over `engine` if it is a statement of `kind`: whether
    /// its shape was cached (a hit), and what it prepared to. Text of
    /// another kind is parsed and handed back as [`Prepared::Other`]. An
    /// `Err` is the error parsing `sql` (and, for a SELECT, planning it)
    /// directly reports.
    pub fn prepare(
        &mut self,
        engine: &Engine,
        sql: &str,
        kind: StatementKind,
    ) -> (bool, Result<Prepared<'_>>) {
        self.uses += 1;
        self.one_shot = None;
        let shaped =
            StatementKind::of(sql) == Some(kind) && normalize(sql, &mut self.key, &mut self.values);
        let cached = if shaped {
            self.index.get(self.key.as_str()).copied()
        } else {
            None
        };
        let prepared = match cached {
            Some(at) => self.bind(at),
            None => self.prepare_new(engine, sql, kind, shaped),
        };
        (cached.is_some(), prepared)
    }

    /// Bind the cached shape at `at` to the current literals.
    fn bind(&mut self, at: usize) -> Result<Prepared<'_>> {
        let entry = &mut self.entries[at];
        entry.last_used = self.uses;
        match &mut entry.shape {
            Shape::Select(query, _) => query.bind(&self.values)?,
            Shape::Write(write) => write.bind(&self.values)?,
        }
        Ok(entry.shape.prepared())
    }

    /// Parse `sql`; a statement of `kind` is prepared and, when
    /// `shaped`, lifted and bound to its own literals. It is cached under
    /// the current key when `shaped` and the lifted values are exactly
    /// the ones [`normalize`] collected.
    fn prepare_new(
        &mut self,
        engine: &Engine,
        sql: &str,
        kind: StatementKind,
        shaped: bool,
    ) -> Result<Prepared<'_>> {
        let mut stmt = parse(sql)?;
        if StatementKind::of_statement(&stmt) != Some(kind) {
            return Ok(Prepared::Other(stmt));
        }
        // Text that cannot be cached keeps its literals in place.
        let mut lifted = Vec::new();
        if shaped {
            lifted.reserve(self.values.len());
            stmt.lift_literals(&mut lifted);
        }
        let shape = match kind {
            StatementKind::Select => {
                let mut query = engine.prepare(stmt)?;
                query.bind(&lifted)?;
                Shape::Select(query, ExecScratch::new())
            }
            StatementKind::Write => {
                let mut write = engine.prepare_write(stmt)?;
                write.bind(&lifted)?;
                Shape::Write(write)
            }
        };
        let entry = Entry {
            shape,
            last_used: self.uses,
        };
        let entry = if shaped && lifted == self.values {
            self.insert(entry)
        } else {
            self.one_shot.insert(entry)
        };
        Ok(entry.shape.prepared())
    }

    /// Cache `entry` under the current key, evicting the least recently
    /// used shape when full.
    fn insert(&mut self, entry: Entry) -> &mut Entry {
        let at = if self.entries.len() < STATEMENT_CACHE_CAPACITY {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let at = (0..self.entries.len())
                .min_by_key(|&at| self.entries[at].last_used)
                .unwrap_or(0);
            self.entries[at] = entry;
            self.index.retain(|_, &mut held| held != at);
            at
        };
        self.index.insert(self.key.as_str().into(), at);
        &mut self.entries[at]
    }
}

/// Scan `sql` the way the lexer tokenizes it, writing its shape into
/// `key` — the text with each number and string literal replaced by a
/// placeholder tagged with its kind (`?i`, `?f`, `?s`) — and the
/// literal values into `values`, in order. A `LIMIT` count stays in the
/// shape, because it is not an expression the plan can take a parameter
/// for. Returns false for text the shape cannot stand for: a `?` (which
/// would read as a placeholder), an unterminated string or a number out
/// of range. The lexer rejects all three, so such text is never cached.
/// Returns false, too, at the second row of a multi-row INSERT (a comma
/// outside parentheses after `VALUES`), which is not cached either.
fn normalize(sql: &str, key: &mut String, values: &mut Vec<Value>) -> bool {
    key.clear();
    values.clear();
    let bytes = sql.as_bytes();
    // Whether the last token was the `LIMIT` keyword.
    let mut after_limit = false;
    // Whether `VALUES` was seen, and the parentheses open at this point.
    let mut after_values = false;
    let mut depth = 0usize;
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'-' if bytes.get(i + 1) == Some(&b'-') => {
                // A comment runs to the end of the line and is no token.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                key.push_str(&sql[start..i]);
                continue;
            }
            b'\'' => {
                let Some((text, end)) = string_literal(sql, start) else {
                    return false;
                };
                values.push(Value::Text(text));
                key.push_str("?s");
                i = end;
            }
            b'0'..=b'9' => {
                let (end, is_float) = number_end(bytes, start);
                let text = &sql[start..end];
                if after_limit {
                    key.push_str(text);
                } else {
                    let value = if is_float {
                        text.parse().ok().map(Value::Float)
                    } else {
                        text.parse().ok().map(Value::Int)
                    };
                    let Some(value) = value else {
                        return false;
                    };
                    values.push(value);
                    key.push_str(if is_float { "?f" } else { "?i" });
                }
                i = end;
            }
            b'?' => return false,
            b if b.is_ascii_alphabetic() || b == b'_' => {
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &sql[start..i];
                key.push_str(word);
                after_limit = word.eq_ignore_ascii_case("LIMIT");
                after_values |= word.eq_ignore_ascii_case("VALUES");
                continue;
            }
            b if b.is_ascii_whitespace() => {
                key.push(b as char);
                i += 1;
                continue;
            }
            _ => {
                // Punctuation, or a character the lexer rejects (and
                // then parsing reports it). Copied whole, UTF-8 or not.
                let Some(ch) = sql[start..].chars().next() else {
                    return false;
                };
                match ch {
                    '(' => depth += 1,
                    ')' => depth = depth.saturating_sub(1),
                    ',' if after_values && depth == 0 => return false,
                    _ => {}
                }
                key.push(ch);
                i += ch.len_utf8();
            }
        }
        after_limit = false;
    }
    true
}

/// The string literal opening at `open` with `''` escapes undone, and
/// the offset just past its closing quote; `None` if it never closes.
fn string_literal(sql: &str, open: usize) -> Option<(String, usize)> {
    let bytes = sql.as_bytes();
    let mut text = String::new();
    let mut from = open + 1;
    loop {
        let quote = from + bytes[from..].iter().position(|&b| b == b'\'')?;
        text.push_str(&sql[from..quote]);
        if bytes.get(quote + 1) == Some(&b'\'') {
            text.push('\'');
            from = quote + 2;
        } else {
            return Some((text, quote + 1));
        }
    }
}

/// Where the number starting at `start` ends, and whether the lexer
/// reads it as a float: digits, an optional `.` and digits, and an
/// optional exponent that counts only when a digit follows `e[+-]`.
fn number_end(bytes: &[u8], start: usize) -> (usize, bool) {
    let digits = |mut at: usize| {
        while at < bytes.len() && bytes[at].is_ascii_digit() {
            at += 1;
        }
        at
    };
    let mut end = digits(start);
    let mut is_float = false;
    if bytes.get(end) == Some(&b'.') {
        is_float = true;
        end = digits(end + 1);
    }
    if matches!(bytes.get(end), Some(b'e' | b'E')) {
        let mut exp = end + 1;
        if matches!(bytes.get(exp), Some(b'+' | b'-')) {
            exp += 1;
        }
        if bytes.get(exp).is_some_and(u8::is_ascii_digit) {
            is_float = true;
            end = digits(exp);
        }
    }
    (end, is_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(sql: &str) -> Option<(String, Vec<Value>)> {
        let (mut key, mut values) = (String::new(), Vec::new());
        normalize(sql, &mut key, &mut values).then_some((key, values))
    }

    #[test]
    fn literals_become_kind_tagged_placeholders() {
        let (key, values) = shape("SELECT id, body FROM t WHERE id = 17").unwrap();
        assert_eq!(key, "SELECT id, body FROM t WHERE id = ?i");
        assert_eq!(values, vec![Value::Int(17)]);
        assert_eq!(
            shape("SELECT id, body FROM t WHERE id = 18").unwrap().0,
            key
        );
        let (key, values) = shape("SELECT * FROM t WHERE a = 'it''s' AND b > -2.5e3").unwrap();
        assert_eq!(key, "SELECT * FROM t WHERE a = ?s AND b > -?f");
        assert_eq!(
            values,
            vec![Value::Text("it's".into()), Value::Float(2.5e3)]
        );
        // Kinds never share a shape.
        assert_ne!(
            shape("SELECT * FROM t WHERE a = 1").unwrap().0,
            shape("SELECT * FROM t WHERE a = 1.0").unwrap().0
        );
    }

    #[test]
    fn identifiers_keywords_comments_and_limit_stay_in_the_shape() {
        let (key, values) =
            shape("SELECT x9 FROM t1 WHERE c = NULL OR d = TRUE -- id = 5\nORDER BY x9 LIMIT 10")
                .unwrap();
        assert_eq!(
            key,
            "SELECT x9 FROM t1 WHERE c = NULL OR d = TRUE -- id = 5\nORDER BY x9 LIMIT 10"
        );
        assert!(values.is_empty());
        let (key, _) = shape("SELECT * FROM t LIMIT -- n\n 3").unwrap();
        assert!(key.ends_with("3"));
        // The lexer splits `5abc` and `1e` the same way.
        assert_eq!(shape("5abc 1e 1e+").unwrap().0, "?iabc ?ie ?ie+");
    }

    #[test]
    fn the_first_keyword_names_the_kind() {
        for sql in ["SELECT 1", "  select\n*", "-- a\n -- b\nSeLeCt(", "SELECT"] {
            assert_eq!(
                StatementKind::of(sql),
                Some(StatementKind::Select),
                "{sql:?}"
            );
        }
        for sql in [
            "INSERT INTO t VALUES (1)",
            "update t",
            "-- x\nDELETE(",
            "Delete",
        ] {
            assert_eq!(
                StatementKind::of(sql),
                Some(StatementKind::Write),
                "{sql:?}"
            );
        }
        for sql in [
            "SELECTED",
            "SELECT_x",
            "UPDATES",
            "CREATE TABLE t (id INT)",
            "DROP TABLE t",
            "-- SELECT",
            "",
            "é",
        ] {
            assert_eq!(StatementKind::of(sql), None, "{sql:?}");
        }
    }

    #[test]
    fn text_the_lexer_rejects_is_not_shaped() {
        assert!(shape("SELECT * FROM t WHERE id = ?i").is_none());
        assert!(shape("SELECT * FROM t WHERE s = 'open").is_none());
        assert!(shape("SELECT * FROM t WHERE id = 99999999999999999999").is_none());
        // Other stray characters are copied; parsing reports them.
        assert_eq!(shape("SELECT @ é").unwrap().0, "SELECT @ é");
    }

    #[test]
    fn one_insert_row_is_shaped_and_a_batch_is_not() {
        let (key, values) = shape("INSERT INTO t VALUES (1, 'a, b', (2))").unwrap();
        assert_eq!(key, "INSERT INTO t VALUES (?i, ?s, (?i))");
        assert_eq!(values.len(), 3);
        assert!(shape("INSERT INTO t VALUES (1, 'a'), (2, 'b')").is_none());
        assert!(shape("INSERT INTO t VALUES (1),(2)").is_none());

        let engine = Engine::new();
        engine
            .execute("CREATE TABLE t (id INT NOT NULL, name TEXT)")
            .unwrap();
        let mut cache = StatementCache::new();
        for sql in [
            "INSERT INTO t VALUES (1, 'a'), (2, 'b')",
            "INSERT INTO t VALUES (3, 'c'), (4, 'd')",
        ] {
            let (hit, prepared) = cache.prepare(&engine, sql, StatementKind::Write);
            assert!(!hit);
            let Ok(Prepared::Write(write)) = prepared else {
                panic!("a write prepares as one: {sql}");
            };
            let (out, _) = engine.execute_write(write).unwrap();
            assert!(matches!(out, crate::StatementOutput::Inserted { rids } if rids.len() == 2));
        }
        assert!(cache.is_empty(), "a batch holds no shape");
        let one_row = "INSERT INTO t VALUES (5, 'e')";
        assert!(cache
            .prepare(&engine, one_row, StatementKind::Write)
            .1
            .is_ok());
        assert_eq!(cache.len(), 1);
    }
}
