//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! stmt      := select | insert | update | delete | create | drop
//! select    := SELECT (STAR | ident (, ident)*) FROM ident
//!              [WHERE expr] [ORDER BY ident [ASC|DESC]] [LIMIT int] [;]
//! insert    := INSERT INTO ident VALUES tuple (, tuple)* [;]
//! update    := UPDATE ident SET ident = expr (, ident = expr)* [WHERE expr] [;]
//! delete    := DELETE FROM ident [WHERE expr] [;]
//! create    := CREATE TABLE ident ( coldef (, coldef)* ) [;]
//!            | CREATE [UNIQUE] INDEX ident ON ident ( ident (, ident)* ) [;]
//! drop      := DROP TABLE ident [;]
//! expr      := or-expr with standard precedence:
//!              OR < AND < NOT < comparison < additive < multiplicative < unary
//! ```

use crate::ast::*;
use crate::error::{QueryError, Result};
use crate::lexer::lex;
use crate::token::{Keyword, Token, TokenKind};
use delayguard_storage::{DataType, Value};

/// Parse a single SQL statement.
pub fn parse(input: &str) -> Result<Statement> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_optional_semicolon();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse just an expression, for tests that build filters directly.
#[cfg(test)]
pub(crate) fn parse_expr(input: &str) -> Result<Expr> {
    let tokens = lex(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn advance(&mut self) -> TokenKind {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek() == &TokenKind::Keyword(k) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<()> {
        if self.eat_keyword(k) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "expected {k:?}, found {}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<()> {
        if self.eat(&kind) {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "expected {kind}, found {}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.advance();
                Ok(s)
            }
            other => Err(QueryError::Parse(format!(
                "expected identifier, found {other}"
            ))),
        }
    }

    fn eat_optional_semicolon(&mut self) {
        self.eat(&TokenKind::Semicolon);
    }

    fn expect_eof(&mut self) -> Result<()> {
        if self.peek() == &TokenKind::Eof {
            Ok(())
        } else {
            Err(QueryError::Parse(format!(
                "unexpected trailing input starting at {}",
                self.peek()
            )))
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            TokenKind::Keyword(Keyword::Select) => self.select(),
            TokenKind::Keyword(Keyword::Insert) => self.insert(),
            TokenKind::Keyword(Keyword::Update) => self.update(),
            TokenKind::Keyword(Keyword::Delete) => self.delete(),
            TokenKind::Keyword(Keyword::Create) => self.create(),
            TokenKind::Keyword(Keyword::Drop) => self.drop(),
            other => Err(QueryError::Parse(format!(
                "expected a statement, found {other}"
            ))),
        }
    }

    fn select(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Select)?;
        let projection = if self.eat(&TokenKind::Star) {
            Projection::All
        } else {
            let mut cols = vec![self.ident()?];
            while self.eat(&TokenKind::Comma) {
                cols.push(self.ident()?);
            }
            Projection::Columns(cols)
        };
        self.expect_keyword(Keyword::From)?;
        let table = self.ident()?;
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_keyword(Keyword::Order) {
            self.expect_keyword(Keyword::By)?;
            let column = self.ident()?;
            let ascending = if self.eat_keyword(Keyword::Desc) {
                false
            } else {
                self.eat_keyword(Keyword::Asc);
                true
            };
            Some(OrderBy { column, ascending })
        } else {
            None
        };
        let limit = if self.eat_keyword(Keyword::Limit) {
            match self.advance() {
                TokenKind::Int(n) if n >= 0 => Some(n as u64),
                other => {
                    return Err(QueryError::Parse(format!(
                        "LIMIT expects a non-negative integer, found {other}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Statement::Select {
            table,
            projection,
            filter,
            order_by,
            limit,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Insert)?;
        self.expect_keyword(Keyword::Into)?;
        let table = self.ident()?;
        self.expect_keyword(Keyword::Values)?;
        let mut rows = vec![self.value_tuple()?];
        while self.eat(&TokenKind::Comma) {
            rows.push(self.value_tuple()?);
        }
        Ok(Statement::Insert { table, rows })
    }

    fn value_tuple(&mut self) -> Result<Vec<Expr>> {
        self.expect(TokenKind::LParen)?;
        let mut exprs = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            exprs.push(self.expr()?);
        }
        self.expect(TokenKind::RParen)?;
        Ok(exprs)
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Update)?;
        let table = self.ident()?;
        self.expect_keyword(Keyword::Set)?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(TokenKind::Eq)?;
            let e = self.expr()?;
            assignments.push((col, e));
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            filter,
        })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Delete)?;
        self.expect_keyword(Keyword::From)?;
        let table = self.ident()?;
        let filter = if self.eat_keyword(Keyword::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Create)?;
        if self.eat_keyword(Keyword::Table) {
            let name = self.ident()?;
            self.expect(TokenKind::LParen)?;
            let mut columns = vec![self.column_def()?];
            while self.eat(&TokenKind::Comma) {
                columns.push(self.column_def()?);
            }
            self.expect(TokenKind::RParen)?;
            return Ok(Statement::CreateTable { name, columns });
        }
        let unique = self.eat_keyword(Keyword::Unique);
        self.expect_keyword(Keyword::Index)?;
        let name = self.ident()?;
        self.expect_keyword(Keyword::On)?;
        let table = self.ident()?;
        self.expect(TokenKind::LParen)?;
        let mut columns = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            columns.push(self.ident()?);
        }
        self.expect(TokenKind::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn column_def(&mut self) -> Result<ColumnDef> {
        let name = self.ident()?;
        let tname = self.ident()?;
        let dtype = DataType::parse(&tname)
            .ok_or_else(|| QueryError::Parse(format!("unknown type `{tname}`")))?;
        let not_null = if self.eat_keyword(Keyword::Not) {
            self.expect_keyword(Keyword::Null)?;
            true
        } else {
            false
        };
        Ok(ColumnDef {
            name,
            dtype,
            not_null,
        })
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect_keyword(Keyword::Drop)?;
        self.expect_keyword(Keyword::Table)?;
        let name = self.ident()?;
        Ok(Statement::DropTable { name })
    }

    // ---- expressions, by descending precedence ----

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword(Keyword::Or) {
            let right = self.and_expr()?;
            left = Expr::binary(BinOp::Or, left, right);
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword(Keyword::And) {
            let right = self.not_expr()?;
            left = Expr::binary(BinOp::And, left, right);
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword(Keyword::Not) {
            let inner = self.not_expr()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(inner),
            });
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::NotEq => BinOp::NotEq,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::LtEq => BinOp::LtEq,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::GtEq => BinOp::GtEq,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.additive()?;
        Ok(Expr::binary(op, left, right))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.unary()?;
            return Ok(Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(inner),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(v)))
            }
            TokenKind::Float(v) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(v)))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Text(s)))
            }
            TokenKind::Keyword(Keyword::True) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            TokenKind::Keyword(Keyword::False) => {
                self.advance();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            TokenKind::Keyword(Keyword::Null) => {
                self.advance();
                Ok(Expr::Literal(Value::Null))
            }
            TokenKind::Ident(name) => {
                self.advance();
                Ok(Expr::Column(name))
            }
            TokenKind::LParen => {
                self.advance();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(QueryError::Parse(format!(
                "expected an expression, found {other}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_select_star() {
        let s = parse("SELECT * FROM movies").unwrap();
        assert_eq!(
            s,
            Statement::Select {
                table: "movies".into(),
                projection: Projection::All,
                filter: None,
                order_by: None,
                limit: None,
            }
        );
    }

    #[test]
    fn parses_full_select() {
        let s = parse(
            "SELECT id, title FROM movies WHERE gross > 1000000 AND id != 3 \
             ORDER BY id DESC LIMIT 10;",
        )
        .unwrap();
        match s {
            Statement::Select {
                table,
                projection,
                filter,
                order_by,
                limit,
            } => {
                assert_eq!(table, "movies");
                assert_eq!(
                    projection,
                    Projection::Columns(vec!["id".into(), "title".into()])
                );
                assert!(filter.is_some());
                let ob = order_by.unwrap();
                assert_eq!(ob.column, "id");
                assert!(!ob.ascending);
                assert_eq!(limit, Some(10));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_insert_multi_row() {
        let s = parse("INSERT INTO t VALUES (1, 'a'), (2, 'b')").unwrap();
        match s {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[0].len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_update() {
        let s = parse("UPDATE t SET a = a + 1, b = 'x' WHERE id = 9").unwrap();
        match s {
            Statement::Update {
                table,
                assignments,
                filter,
            } => {
                assert_eq!(table, "t");
                assert_eq!(assignments.len(), 2);
                assert!(filter.is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete() {
        let s = parse("DELETE FROM t WHERE id = 1").unwrap();
        assert!(matches!(s, Statement::Delete { .. }));
        let s = parse("DELETE FROM t").unwrap();
        assert!(matches!(s, Statement::Delete { filter: None, .. }));
    }

    #[test]
    fn parses_create_table() {
        let s = parse("CREATE TABLE m (id INT NOT NULL, title TEXT, gross FLOAT)").unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "m");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].not_null);
                assert!(!columns[1].not_null);
                assert_eq!(columns[2].dtype, DataType::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_create_index() {
        let s = parse("CREATE UNIQUE INDEX pk ON m (id)").unwrap();
        assert_eq!(
            s,
            Statement::CreateIndex {
                name: "pk".into(),
                table: "m".into(),
                columns: vec!["id".into()],
                unique: true
            }
        );
        let s = parse("CREATE INDEX by_t ON m (title, gross)").unwrap();
        assert!(matches!(s, Statement::CreateIndex { unique: false, .. }));
    }

    #[test]
    fn parses_drop_table() {
        assert_eq!(
            parse("DROP TABLE m;").unwrap(),
            Statement::DropTable { name: "m".into() }
        );
    }

    #[test]
    fn precedence_or_and() {
        // a = 1 OR b = 2 AND c = 3  ==>  a=1 OR (b=2 AND c=3)
        let e = parse_expr("a = 1 OR b = 2 AND c = 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Or,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::And, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn precedence_arithmetic() {
        // 1 + 2 * 3 ==> 1 + (2*3)
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            Expr::Binary {
                op: BinOp::Add,
                right,
                ..
            } => {
                assert!(matches!(*right, Expr::Binary { op: BinOp::Mul, .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parens_override_precedence() {
        let e = parse_expr("(1 + 2) * 3").unwrap();
        assert!(matches!(e, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn unary_not_and_neg() {
        let e = parse_expr("NOT a = 1").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Not,
                ..
            }
        ));
        let e = parse_expr("-3").unwrap();
        assert!(matches!(
            e,
            Expr::Unary {
                op: UnaryOp::Neg,
                ..
            }
        ));
    }

    #[test]
    fn literals() {
        assert_eq!(parse_expr("NULL").unwrap(), Expr::Literal(Value::Null));
        assert_eq!(
            parse_expr("TRUE").unwrap(),
            Expr::Literal(Value::Bool(true))
        );
        assert_eq!(
            parse_expr("'s'").unwrap(),
            Expr::Literal(Value::Text("s".into()))
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("INSERT INTO t").is_err());
        assert!(parse("CREATE TABLE t (id WIBBLE)").is_err());
        assert!(parse("SELECT * FROM t LIMIT 'x'").is_err());
        assert!(parse("SELECT * FROM t extra").is_err());
        assert!(parse("").is_err());
    }
}
