//! Token-level source scanner: separates each line of a Rust file into
//! its *code* and *comment* parts so the lint rules can match tokens
//! without being fooled by string literals or commented-out code.
//!
//! The scanner is a small character state machine, not a full lexer: it
//! understands line comments, nested block comments, string / raw-string
//! / byte-string / char literals, and lifetimes. Everything it classifies
//! as literal content is blanked (replaced by spaces) in the code view,
//! preserving line and column structure so findings point at real
//! coordinates.

/// One file, split into per-line code and comment views.
pub struct Scanned {
    /// Source lines with comments and the *contents* of string/char
    /// literals blanked out. Token matching happens here.
    pub code: Vec<String>,
    /// The comment text found on each line (both `//` and `/* */`).
    pub comments: Vec<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    /// Nested depth of `/* */`.
    BlockComment(u32),
    /// Inside `"…"` (escape-aware).
    Str,
    /// Inside a raw string; the payload is the number of `#`s that close it.
    RawStr(u32),
}

pub fn scan(src: &str) -> Scanned {
    let mut code = Vec::new();
    let mut comments = Vec::new();
    let mut code_line = String::new();
    let mut comment_line = String::new();
    let mut state = State::Code;

    let chars: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // Line comments end at the newline; everything else carries over.
            if state == State::LineComment {
                state = State::Code;
            }
            code.push(std::mem::take(&mut code_line));
            comments.push(std::mem::take(&mut comment_line));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    state = State::LineComment;
                    code_line.push_str("  ");
                    comment_line.push_str("//");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(1);
                    code_line.push_str("  ");
                    comment_line.push_str("/*");
                    i += 2;
                } else if c == '"' {
                    // Keep the quotes so `"…"` stays visibly a string.
                    state = State::Str;
                    code_line.push('"');
                    i += 1;
                } else if (c == 'r' || c == 'b') && !prev_is_ident(&chars, i) {
                    // r"…", r#"…"#, br#"…"#, b"…"
                    let (is_raw, hashes, len) = raw_string_intro(&chars, i);
                    if let Some(len) = len {
                        for _ in 0..len {
                            code_line.push(' ');
                        }
                        code_line.push('"');
                        state = if is_raw {
                            State::RawStr(hashes)
                        } else {
                            State::Str
                        };
                        i += len + 1;
                    } else {
                        code_line.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs lifetime.
                    if let Some(len) = char_literal_len(&chars, i) {
                        code_line.push('\'');
                        for _ in 0..len.saturating_sub(2) {
                            code_line.push(' ');
                        }
                        code_line.push('\'');
                        i += len;
                    } else {
                        code_line.push('\'');
                        i += 1;
                    }
                } else {
                    code_line.push(c);
                    i += 1;
                }
            }
            State::LineComment => {
                code_line.push(' ');
                comment_line.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    code_line.push_str("  ");
                    comment_line.push_str("*/");
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::BlockComment(depth + 1);
                    code_line.push_str("  ");
                    comment_line.push_str("/*");
                    i += 2;
                } else {
                    code_line.push(' ');
                    comment_line.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' && chars.get(i + 1) != Some(&'\n') {
                    code_line.push_str("  ");
                    i += 2;
                } else if c == '\\' {
                    // A line continuation: the newline still ends the line.
                    code_line.push(' ');
                    i += 1;
                } else if c == '"' {
                    state = State::Code;
                    code_line.push('"');
                    i += 1;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    state = State::Code;
                    code_line.push('"');
                    for _ in 0..hashes {
                        code_line.push(' ');
                    }
                    i += 1 + hashes as usize;
                } else {
                    code_line.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code_line.is_empty() || !comment_line.is_empty() {
        code.push(code_line);
        comments.push(comment_line);
    }
    Scanned { code, comments }
}

fn prev_is_ident(chars: &[char], i: usize) -> bool {
    i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_')
}

/// At `chars[i]` (an `r` or `b` not preceded by an identifier char),
/// detect a raw/byte string introducer. Returns (is_raw, closing hash
/// count, introducer length up to but not counting the opening quote's
/// replacement) — `None` if this is just an identifier.
fn raw_string_intro(chars: &[char], i: usize) -> (bool, u32, Option<usize>) {
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    let is_raw = chars.get(j) == Some(&'r');
    if is_raw {
        j += 1;
    }
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') && (is_raw || hashes == 0) && (is_raw || j > i) {
        (is_raw, hashes, Some(j - i))
    } else {
        (false, 0, None)
    }
}

fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Length of a char literal starting at `chars[i] == '\''`, or `None` if
/// this is a lifetime / loop label.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1) {
        Some('\\') => {
            // Escape: scan to the closing quote (bounded — escapes like
            // \u{1F600} are short).
            let mut j = i + 2;
            while j < chars.len() && j < i + 12 {
                if chars[j] == '\'' {
                    return Some(j - i + 1);
                }
                j += 1;
            }
            None
        }
        Some(_) if chars.get(i + 2) == Some(&'\'') => Some(3),
        _ => None,
    }
}

/// Per-line flag: is this line inside a `#[cfg(test)] mod …` block?
/// Detected by brace-counting from the `mod` item that follows the
/// attribute (test *functions* outside such a module are not skipped —
/// only the conventional unit-test module is).
pub fn test_mod_lines(code: &[String]) -> Vec<bool> {
    let mut in_test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].contains("#[cfg(test)]") {
            // Find the mod declaration within the next few lines (other
            // attributes may sit between).
            let mut j = i + 1;
            while j < code.len() && j <= i + 4 && !code[j].trim_start().starts_with("mod ") {
                j += 1;
            }
            if j < code.len() && code[j].trim_start().starts_with("mod ") {
                let mut depth = 0i32;
                let mut opened = false;
                for (k, line) in code.iter().enumerate().skip(j) {
                    for c in line.chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    in_test[k] = true;
                    if opened && depth <= 0 {
                        i = k;
                        break;
                    }
                }
            }
        }
        i += 1;
    }
    in_test
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let s = scan("let x = \"unsafe { }\"; // unsafe in comment\n");
        assert!(!s.code[0].contains("unsafe"), "code view: {:?}", s.code[0]);
        assert!(s.comments[0].contains("unsafe in comment"));
    }

    #[test]
    fn nested_block_comments() {
        let s = scan("a /* outer /* inner */ still comment */ b\n");
        assert!(s.code[0].contains('a') && s.code[0].contains('b'));
        assert!(!s.code[0].contains("still"));
        assert!(s.comments[0].contains("inner"));
    }

    #[test]
    fn raw_strings_and_chars() {
        let s = scan("let p = r#\"unsafe\"#; let c = '\\''; let l: &'static str = \"x\";\n");
        assert!(!s.code[0].contains("unsafe"));
        assert!(
            s.code[0].contains("'static"),
            "lifetime survives: {:?}",
            s.code[0]
        );
    }

    #[test]
    fn escaped_quote_does_not_end_string() {
        let s = scan("let x = \"a\\\"unsafe\"; unsafe {}\n");
        let code = &s.code[0];
        assert_eq!(code.matches("unsafe").count(), 1, "{code:?}");
    }

    #[test]
    fn string_continuation_keeps_line_numbers() {
        let s = scan("let x = \"a \\\n    b\";\nunsafe {}\n");
        assert_eq!(s.code.len(), 3);
        assert!(s.code[2].contains("unsafe"), "{:?}", s.code);
    }

    #[test]
    fn test_mod_span_detected() {
        let src =
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() { x.unwrap(); }\n}\nfn c() {}\n";
        let s = scan(src);
        let spans = test_mod_lines(&s.code);
        assert_eq!(spans, vec![false, false, true, true, true, false]);
    }
}
