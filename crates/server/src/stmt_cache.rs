//! The per-session statement cache: every `QUERY` frame's SELECT runs
//! prepared.
//!
//! One scan of the SQL text ([`normalize`]) replaces each number and
//! string literal with a placeholder tagged with its kind and collects
//! the values in order, so `… WHERE id = 17` and `… WHERE id = 18` have
//! one key. The first statement of a shape is parsed, its literals are
//! lifted into parameters
//! ([`delayguard_query::ast::Statement::lift_literals`]) and it is
//! planned once; every later statement of that shape only writes its
//! values into the cached plan — no lexing, parsing or planning.
//!
//! Caching changes nothing a client can observe. A miss parses the
//! client's own text, so every error message is the one parsing it
//! directly gives; errors are never cached, and the planner picks the
//! same access path for every value a shape's parameters can take. The
//! cache is bounded by [`STATEMENT_CACHE_CAPACITY`], a constant: a
//! session past it evicts the shape it used least recently.

use crate::metrics::ServerMetrics;
use delayguard_core::{ChargedChunk, GuardedDatabase, PreparedQuery};
use delayguard_query::{ExecScratch, RowBuf};
use delayguard_storage::Value;
use std::collections::HashMap;

/// Statement shapes one session keeps prepared.
pub const STATEMENT_CACHE_CAPACITY: usize = 64;

/// One prepared shape and the executor scratch its runs recycle.
struct Entry {
    query: PreparedQuery,
    scratch: ExecScratch,
    /// [`StatementCache::uses`] at this entry's last use.
    last_used: u64,
}

/// A session's prepared shapes plus the buffers every one of its
/// SELECTs streams through.
pub(crate) struct StatementCache {
    entries: Vec<Entry>,
    /// Key → position in `entries`.
    index: HashMap<Box<str>, usize>,
    /// Statements prepared through this cache so far (the LRU clock).
    uses: u64,
    /// The frame being handled: its shape and its literal values. Kept
    /// between frames so a hit on a shape with only number literals
    /// allocates nothing.
    key: String,
    values: Vec<Value>,
    /// A statement whose literals did not lift one for one onto its
    /// shape runs from here, once, without being cached.
    one_shot: Option<Box<Entry>>,
    rows: RowBuf,
    charged: ChargedChunk,
}

/// A bound statement ready to execute, and the chunk buffers its stream
/// recycles.
pub(crate) struct Ready<'a> {
    pub query: &'a mut PreparedQuery,
    pub scratch: &'a mut ExecScratch,
    pub rows: &'a mut RowBuf,
    pub charged: &'a mut ChargedChunk,
}

impl StatementCache {
    pub(crate) fn new() -> StatementCache {
        StatementCache {
            entries: Vec::new(),
            index: HashMap::new(),
            uses: 0,
            key: String::new(),
            values: Vec::new(),
            one_shot: None,
            rows: RowBuf::new(),
            charged: ChargedChunk::default(),
        }
    }

    /// Shapes held prepared.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The prepared form of the SELECT `sql`, bound to its literals,
    /// counting the lookup as a hit or a miss. An `Err` is the message
    /// the client gets, the same one parsing and planning `sql` directly
    /// reports.
    pub(crate) fn prepare(
        &mut self,
        db: &GuardedDatabase,
        sql: &str,
        metrics: &ServerMetrics,
    ) -> Result<Ready<'_>, String> {
        self.uses += 1;
        let shaped = normalize(sql, &mut self.key, &mut self.values);
        let cached = if shaped {
            self.index.get(self.key.as_str()).copied()
        } else {
            None
        };
        let entry = match cached {
            Some(at) => {
                metrics.stmt_cache_hits.inc();
                let entry = &mut self.entries[at];
                entry.query.bind(&self.values).map_err(|e| e.to_string())?;
                entry
            }
            None => {
                metrics.stmt_cache_misses.inc();
                match self.prepare_new(db, sql, shaped)? {
                    Shape::Cached(at) => &mut self.entries[at],
                    Shape::OneShot(entry) => &mut **self.one_shot.insert(entry),
                }
            }
        };
        entry.last_used = self.uses;
        Ok(Ready {
            query: &mut entry.query,
            scratch: &mut entry.scratch,
            rows: &mut self.rows,
            charged: &mut self.charged,
        })
    }

    /// Parse, lift and plan `sql` and bind its own literals
    /// ([`GuardedDatabase::prepare_shape`]). It is cached under the
    /// current key when `shaped` and the lifted values are exactly the
    /// ones [`normalize`] collected.
    fn prepare_new(
        &mut self,
        db: &GuardedDatabase,
        sql: &str,
        shaped: bool,
    ) -> Result<Shape, String> {
        let mut lifted = Vec::with_capacity(self.values.len());
        let mut query = match db.prepare_shape(sql, &mut lifted) {
            Ok(Some(query)) => query,
            Ok(None) => return Err("QUERY frames carry SELECT statements only".to_owned()),
            Err(e) => return Err(e.to_string()),
        };
        query.bind(&lifted).map_err(|e| e.to_string())?;
        let entry = Entry {
            query,
            scratch: ExecScratch::new(),
            last_used: self.uses,
        };
        if !(shaped && lifted == self.values) {
            return Ok(Shape::OneShot(Box::new(entry)));
        }
        let at = if self.entries.len() < STATEMENT_CACHE_CAPACITY {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let (at, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .ok_or("the statement cache has no capacity")?;
            self.entries[at] = entry;
            self.index.retain(|_, &mut held| held != at);
            at
        };
        self.index.insert(self.key.as_str().into(), at);
        Ok(Shape::Cached(at))
    }
}

/// Where [`StatementCache::prepare_new`] left a statement.
enum Shape {
    /// In the cache, at this position.
    Cached(usize),
    /// Not cacheable: run it once.
    OneShot(Box<Entry>),
}

/// Scan `sql` the way the lexer tokenizes it, writing its shape into
/// `key` — the text with each number and string literal replaced by a
/// placeholder tagged with its kind (`?i`, `?f`, `?s`) — and the
/// literal values into `values`, in order. A `LIMIT` count stays in the
/// shape, because it is not an expression the plan can take a parameter
/// for. Returns false for text the shape cannot stand for: a `?` (which
/// would read as a placeholder), an unterminated string or a number out
/// of range. The lexer rejects all three, so such text is never cached.
pub(crate) fn normalize(sql: &str, key: &mut String, values: &mut Vec<Value>) -> bool {
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
    fn text_the_lexer_rejects_is_not_shaped() {
        assert!(shape("SELECT * FROM t WHERE id = ?i").is_none());
        assert!(shape("SELECT * FROM t WHERE s = 'open").is_none());
        assert!(shape("SELECT * FROM t WHERE id = 99999999999999999999").is_none());
        // Other stray characters are copied; parsing reports them.
        assert_eq!(shape("SELECT @ é").unwrap().0, "SELECT @ é");
    }
}
