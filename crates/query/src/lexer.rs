//! Hand-written lexer for the SQL subset.

use crate::error::{QueryError, Result};
use crate::token::{Keyword, Token, TokenKind};

/// Tokenize `input` into a vector ending with an `Eof` token.
pub(crate) fn lex(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        let start = i;
        match c {
            c if c.is_ascii_whitespace() => {
                i += 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                // -- line comment
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '*' => {
                tokens.push(Token {
                    kind: TokenKind::Star,
                    offset: start,
                });
                i += 1;
            }
            ';' => {
                tokens.push(Token {
                    kind: TokenKind::Semicolon,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: start,
                });
                i += 1;
            }
            '/' => {
                tokens.push(Token {
                    kind: TokenKind::Slash,
                    offset: start,
                });
                i += 1;
            }
            '%' => {
                tokens.push(Token {
                    kind: TokenKind::Percent,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(QueryError::Lex {
                        offset: start,
                        message: "expected `=` after `!`".into(),
                    });
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::LtEq,
                        offset: start,
                    });
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] == b'>' {
                    tokens.push(Token {
                        kind: TokenKind::NotEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b'=' {
                    tokens.push(Token {
                        kind: TokenKind::GtEq,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' => {
                // String literal; '' escapes a quote.
                let mut s = String::new();
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(QueryError::Lex {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    if bytes[i] == b'\'' {
                        if i + 1 < bytes.len() && bytes[i + 1] == b'\'' {
                            s.push('\'');
                            i += 2;
                        } else {
                            i += 1;
                            break;
                        }
                    } else {
                        // Consume one UTF-8 character.
                        let rest = &input[i..];
                        let ch = rest.chars().next().expect("non-empty");
                        s.push(ch);
                        i += ch.len_utf8();
                    }
                }
                tokens.push(Token {
                    kind: TokenKind::Str(s),
                    offset: start,
                });
            }
            c if c.is_ascii_digit() => {
                let mut end = i;
                let mut is_float = false;
                while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                    end += 1;
                }
                if end < bytes.len() && bytes[end] == b'.' {
                    is_float = true;
                    end += 1;
                    while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                        end += 1;
                    }
                }
                if end < bytes.len() && (bytes[end] == b'e' || bytes[end] == b'E') {
                    let mut j = end + 1;
                    if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                        is_float = true;
                        end = j;
                        while end < bytes.len() && (bytes[end] as char).is_ascii_digit() {
                            end += 1;
                        }
                    }
                }
                let text = &input[i..end];
                let kind = if is_float {
                    TokenKind::Float(text.parse().map_err(|e| QueryError::Lex {
                        offset: start,
                        message: format!("bad float literal `{text}`: {e}"),
                    })?)
                } else {
                    TokenKind::Int(text.parse().map_err(|e| QueryError::Lex {
                        offset: start,
                        message: format!("bad integer literal `{text}`: {e}"),
                    })?)
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = end;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut end = i;
                while end < bytes.len() {
                    let c = bytes[end] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[i..end];
                let kind = match Keyword::parse(word) {
                    Some(k) => TokenKind::Keyword(k),
                    None => TokenKind::Ident(word.to_owned()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = end;
            }
            other => {
                return Err(QueryError::Lex {
                    offset: start,
                    message: format!("unexpected character `{other}`"),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        offset: input.len(),
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_select() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT * FROM movies WHERE id = 42"),
            vec![
                Keyword(super::Keyword::Select),
                Star,
                Keyword(super::Keyword::From),
                Ident("movies".into()),
                Keyword(super::Keyword::Where),
                Ident("id".into()),
                Eq,
                Int(42),
                Eof
            ]
        );
    }

    #[test]
    fn operators() {
        use TokenKind::*;
        assert_eq!(
            kinds("= != <> < <= > >= + - * / %"),
            vec![Eq, NotEq, NotEq, Lt, LtEq, Gt, GtEq, Plus, Minus, Star, Slash, Percent, Eof]
        );
    }

    #[test]
    fn numbers() {
        use TokenKind::*;
        assert_eq!(
            kinds("1 2.5 3e2 4.25E-1 007"),
            vec![Int(1), Float(2.5), Float(300.0), Float(0.425), Int(7), Eof]
        );
    }

    #[test]
    fn strings_with_escapes_and_unicode() {
        use TokenKind::*;
        assert_eq!(
            kinds("'it''s' 'héllo'"),
            vec![Str("it's".into()), Str("héllo".into()), Eof]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("'oops").is_err());
    }

    #[test]
    fn comments_skipped() {
        use TokenKind::*;
        assert_eq!(
            kinds("SELECT -- everything\n1"),
            vec![Keyword(super::Keyword::Select), Int(1), Eof]
        );
    }

    #[test]
    fn bad_char_errors_with_offset() {
        match lex("SELECT @") {
            Err(QueryError::Lex { offset, .. }) => assert_eq!(offset, 7),
            other => panic!("expected lex error, got {other:?}"),
        }
    }

    #[test]
    fn bare_bang_errors() {
        assert!(lex("a ! b").is_err());
    }

    #[test]
    fn identifiers_with_underscores() {
        use TokenKind::*;
        assert_eq!(
            kinds("_tmp user_name x9"),
            vec![
                Ident("_tmp".into()),
                Ident("user_name".into()),
                Ident("x9".into()),
                Eof
            ]
        );
    }

    #[test]
    fn offsets_recorded() {
        let toks = lex("SELECT id").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 7);
    }
}
