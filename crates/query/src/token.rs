//! Tokens produced by the lexer.

use std::fmt;

/// SQL keywords recognized by the dialect (case-insensitive in source).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Keyword {
    Select,
    From,
    Where,
    Insert,
    Into,
    Values,
    Update,
    Set,
    Delete,
    Create,
    Drop,
    Table,
    Index,
    Unique,
    On,
    Not,
    Null,
    And,
    Or,
    True,
    False,
    Order,
    By,
    Asc,
    Desc,
    Limit,
}

/// Every keyword with its spelling, for case-insensitive lookup.
const KEYWORDS: [(&str, Keyword); 26] = [
    ("SELECT", Keyword::Select),
    ("FROM", Keyword::From),
    ("WHERE", Keyword::Where),
    ("INSERT", Keyword::Insert),
    ("INTO", Keyword::Into),
    ("VALUES", Keyword::Values),
    ("UPDATE", Keyword::Update),
    ("SET", Keyword::Set),
    ("DELETE", Keyword::Delete),
    ("CREATE", Keyword::Create),
    ("DROP", Keyword::Drop),
    ("TABLE", Keyword::Table),
    ("INDEX", Keyword::Index),
    ("UNIQUE", Keyword::Unique),
    ("ON", Keyword::On),
    ("NOT", Keyword::Not),
    ("NULL", Keyword::Null),
    ("AND", Keyword::And),
    ("OR", Keyword::Or),
    ("TRUE", Keyword::True),
    ("FALSE", Keyword::False),
    ("ORDER", Keyword::Order),
    ("BY", Keyword::By),
    ("ASC", Keyword::Asc),
    ("DESC", Keyword::Desc),
    ("LIMIT", Keyword::Limit),
];

impl Keyword {
    /// Parse a keyword from an identifier-shaped word. Compares in place
    /// (`eq_ignore_ascii_case` checks the length first), so recognizing
    /// a word allocates nothing.
    pub fn parse(word: &str) -> Option<Keyword> {
        KEYWORDS
            .iter()
            .find(|(spelling, _)| spelling.eq_ignore_ascii_case(word))
            .map(|&(_, k)| k)
    }
}

/// A lexical token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Token {
    pub kind: TokenKind,
    /// Byte offset of the token start in the input.
    pub offset: usize,
}

/// Token payloads.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TokenKind {
    Keyword(Keyword),
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    // punctuation / operators
    Comma,
    LParen,
    RParen,
    Star,
    Semicolon,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Slash,
    Percent,
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Keyword(k) => write!(f, "{k:?}"),
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Int(v) => write!(f, "integer {v}"),
            TokenKind::Float(v) => write!(f, "float {v}"),
            TokenKind::Str(s) => write!(f, "string '{s}'"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Semicolon => f.write_str("`;`"),
            TokenKind::Eq => f.write_str("`=`"),
            TokenKind::NotEq => f.write_str("`!=`"),
            TokenKind::Lt => f.write_str("`<`"),
            TokenKind::LtEq => f.write_str("`<=`"),
            TokenKind::Gt => f.write_str("`>`"),
            TokenKind::GtEq => f.write_str("`>=`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Percent => f.write_str("`%`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(Keyword::parse("select"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("SeLeCt"), Some(Keyword::Select));
        assert_eq!(Keyword::parse("selec"), None);
    }

    #[test]
    fn keyword_case_table() {
        let cases = [
            ("select", Some(Keyword::Select)),
            ("SELECT", Some(Keyword::Select)),
            ("SeLeCt", Some(Keyword::Select)),
            ("limit", Some(Keyword::Limit)),
            ("Order", Some(Keyword::Order)),
            ("by", Some(Keyword::By)),
            ("NuLl", Some(Keyword::Null)),
            ("on", Some(Keyword::On)),
            // Identifiers that start (or end) with a keyword are not one.
            ("selection", None),
            ("order_id", None),
            ("limits", None),
            ("byte", None),
            ("nullable", None),
            ("o", None),
            ("", None),
        ];
        for (word, want) in cases {
            assert_eq!(Keyword::parse(word), want, "{word:?}");
        }
        // Every keyword round-trips through its own spelling.
        for (spelling, k) in KEYWORDS {
            assert_eq!(Keyword::parse(spelling), Some(k));
            assert_eq!(Keyword::parse(&spelling.to_ascii_lowercase()), Some(k));
        }
    }

    #[test]
    fn display_does_not_panic() {
        for k in [
            TokenKind::Comma,
            TokenKind::Eof,
            TokenKind::Ident("x".into()),
            TokenKind::Int(3),
            TokenKind::Float(1.5),
            TokenKind::Str("s".into()),
            TokenKind::Keyword(Keyword::From),
        ] {
            assert!(!k.to_string().is_empty());
        }
    }
}
