//! The statement cache: SQL text in, a prepared SELECT bound to that
//! text's literals out.
//!
//! One scan of the SQL text ([`normalize`]) replaces each number and
//! string literal with a placeholder tagged with its kind and collects
//! the values in order, so `… WHERE id = 17` and `… WHERE id = 18` have
//! one key. The first statement of a shape is parsed, its literals are
//! lifted into parameters (`Statement::lift_literals`) and it is
//! planned once; every later statement of that shape only writes its
//! values into the cached plan — no lexing, parsing or planning. Text
//! that does not open with `SELECT` is not scanned: it is parsed once and
//! handed back to run as it is.
//!
//! Caching changes nothing a caller can observe. A miss parses the
//! caller's own text, so every error is the one parsing it directly
//! gives; errors are never cached, and the planner picks the same access
//! path for every value a shape's parameters can take. The cache is
//! bounded by [`STATEMENT_CACHE_CAPACITY`], a constant: an owner past it
//! evicts the shape it used least recently.
//!
//! A cache is single-owner (`&mut self`). The guarded database keeps
//! one for its SQL entry points and every wire session keeps its own.

use crate::ast::Statement;
use crate::engine::{Engine, PreparedSelect};
use crate::error::Result;
use crate::exec::ExecScratch;
use crate::parser::parse;
use delayguard_storage::Value;
use std::collections::HashMap;

/// Statement shapes one cache keeps prepared.
pub const STATEMENT_CACHE_CAPACITY: usize = 64;

/// One prepared shape and the executor scratch its runs recycle.
struct Entry {
    query: PreparedSelect,
    scratch: ExecScratch,
    /// [`StatementCache::uses`] at this entry's last use.
    last_used: u64,
}

/// Prepared SELECT shapes, least recently used evicted first.
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
    /// A SELECT whose literals did not lift one for one onto its shape
    /// runs from here, once, without being cached.
    one_shot: Option<Entry>,
}

/// What [`StatementCache::prepare`] made of a statement's text.
pub enum Prepared<'a> {
    /// A SELECT bound to the text's literals, with the scratch its runs
    /// recycle: execute it with [`Engine::execute_prepared_streaming`].
    Select(&'a mut PreparedSelect, &'a mut ExecScratch),
    /// Any other statement, parsed once.
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

    /// Prepare `sql` over `engine`: whether its shape was cached (a hit),
    /// and what it prepared to. An `Err` is the error parsing and
    /// planning `sql` directly reports.
    pub fn prepare(&mut self, engine: &Engine, sql: &str) -> (bool, Result<Prepared<'_>>) {
        self.uses += 1;
        let shaped = leads_with_select(sql) && normalize(sql, &mut self.key, &mut self.values);
        let cached = if shaped {
            self.index.get(self.key.as_str()).copied()
        } else {
            None
        };
        let prepared = match cached {
            Some(at) => self.bind(at),
            None => self.prepare_new(engine, sql, shaped),
        };
        (cached.is_some(), prepared)
    }

    /// Bind the cached shape at `at` to the current literals.
    fn bind(&mut self, at: usize) -> Result<Prepared<'_>> {
        let entry = &mut self.entries[at];
        entry.query.bind(&self.values)?;
        entry.last_used = self.uses;
        Ok(Prepared::Select(&mut entry.query, &mut entry.scratch))
    }

    /// Parse `sql`; a SELECT is lifted, planned and bound to its own
    /// literals. It is cached under the current key when `shaped` and the
    /// lifted values are exactly the ones [`normalize`] collected.
    fn prepare_new(&mut self, engine: &Engine, sql: &str, shaped: bool) -> Result<Prepared<'_>> {
        let mut stmt = parse(sql)?;
        if !matches!(stmt, Statement::Select { .. }) {
            return Ok(Prepared::Other(stmt));
        }
        let mut lifted = Vec::with_capacity(self.values.len());
        stmt.lift_literals(&mut lifted);
        let mut query = engine.prepare(stmt)?;
        query.bind(&lifted)?;
        let entry = Entry {
            query,
            scratch: ExecScratch::new(),
            last_used: self.uses,
        };
        let entry = if shaped && lifted == self.values {
            self.insert(entry)
        } else {
            self.one_shot.insert(entry)
        };
        Ok(Prepared::Select(&mut entry.query, &mut entry.scratch))
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

/// Whether the first token of `sql` is the keyword `SELECT`, skipping
/// spacing and comments as the lexer does. Only such text is scanned for
/// a shape: the cache holds nothing else, and an `INSERT`'s literals are
/// the bulk of its text.
fn leads_with_select(sql: &str) -> bool {
    let mut rest = sql.trim_start();
    while let Some(comment) = rest.strip_prefix("--") {
        rest = comment
            .split_once('\n')
            .map_or("", |(_, next)| next)
            .trim_start();
    }
    rest.get(..6)
        .is_some_and(|word| word.eq_ignore_ascii_case("SELECT"))
        && !rest[6..].starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_')
}

/// Scan `sql` the way the lexer tokenizes it, writing its shape into
/// `key` — the text with each number and string literal replaced by a
/// placeholder tagged with its kind (`?i`, `?f`, `?s`) — and the
/// literal values into `values`, in order. A `LIMIT` count stays in the
/// shape, because it is not an expression the plan can take a parameter
/// for. Returns false for text the shape cannot stand for: a `?` (which
/// would read as a placeholder), an unterminated string or a number out
/// of range. The lexer rejects all three, so such text is never cached.
fn normalize(sql: &str, key: &mut String, values: &mut Vec<Value>) -> bool {
    key.clear();
    values.clear();
    let bytes = sql.as_bytes();
    // Whether the last token was the `LIMIT` keyword.
    let mut after_limit = false;
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
    fn only_text_opening_with_select_is_scanned() {
        for sql in ["SELECT 1", "  select\n*", "-- a\n -- b\nSeLeCt(", "SELECT"] {
            assert!(leads_with_select(sql), "{sql:?}");
        }
        for sql in [
            "SELECTED",
            "SELECT_x",
            "INSERT INTO t VALUES (1)",
            "-- SELECT",
            "",
            "é",
        ] {
            assert!(!leads_with_select(sql), "{sql:?}");
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
}
