//! Recursive-descent parser for MiniDB SQL.

use crate::error::{DbError, DbResult};
use crate::sql::ast::{CmpOp, Expr, SelectItem, SelectStmt, Statement};
use crate::sql::lexer::{tokenize, Sym, Token};
use crate::value::{ColumnType, Value};

/// Parses a single SQL statement (a trailing `;` is permitted).
pub fn parse_statement(sql: &str) -> DbResult<Statement> {
    parse_tokens(tokenize(sql)?)
}

/// Parses a lexed statement.
pub(crate) fn parse_tokens(tokens: Vec<Token>) -> DbResult<Statement> {
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_symbol(Sym::Semi); // Optional terminator.
    if p.pos != p.tokens.len() {
        return Err(DbError::Parse(format!(
            "trailing tokens after statement: {:?}",
            &p.tokens[p.pos..]
        )));
    }
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> DbResult<Token> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| DbError::Parse("unexpected end of statement".into()))?;
        self.pos += 1;
        Ok(t)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(t) if t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> DbResult<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected keyword {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(x)) if *x == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Sym) -> DbResult<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn identifier(&mut self) -> DbResult<String> {
        match self.next()? {
            Token::Word(w) => Ok(w.to_ascii_lowercase()),
            t => Err(DbError::Parse(format!("expected identifier, found {t:?}"))),
        }
    }

    fn statement(&mut self) -> DbResult<Statement> {
        if self.eat_kw("create") {
            if self.eat_kw("table") {
                return self.create_table();
            }
            if self.eat_kw("index") {
                return self.create_index();
            }
            return Err(DbError::Parse(
                "expected TABLE or INDEX after CREATE".into(),
            ));
        }
        if self.eat_kw("insert") {
            return self.insert();
        }
        if self.eat_kw("select") {
            return self.select().map(Statement::Select);
        }
        if self.eat_kw("explain") {
            if self.eat_kw("analyze") {
                // EXPLAIN ANALYZE accepts any statement and executes it.
                return self
                    .statement()
                    .map(|s| Statement::ExplainAnalyze(Box::new(s)));
            }
            self.expect_kw("select")?;
            return self.select().map(Statement::Explain);
        }
        if self.eat_kw("drop") {
            self.expect_kw("table")?;
            let name = self.identifier()?;
            return Ok(Statement::DropTable { name });
        }
        if self.eat_kw("update") {
            return self.update();
        }
        if self.eat_kw("delete") {
            return self.delete();
        }
        if self.eat_kw("begin") {
            return Ok(Statement::Begin);
        }
        if self.eat_kw("commit") {
            return Ok(Statement::Commit);
        }
        if self.eat_kw("rollback") {
            return Ok(Statement::Rollback);
        }
        Err(DbError::Parse(format!(
            "unrecognized statement start: {:?}",
            self.peek()
        )))
    }

    fn create_table(&mut self) -> DbResult<Statement> {
        let name = self.identifier()?;
        self.expect_symbol(Sym::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col = self.identifier()?;
            let ty_word = self.identifier()?;
            let ty = match ty_word.as_str() {
                "int" | "integer" | "bigint" => ColumnType::Int,
                "text" | "varchar" | "char" => ColumnType::Text,
                "bytes" | "blob" | "varbinary" => ColumnType::Bytes,
                other => return Err(DbError::Parse(format!("unknown type {other}"))),
            };
            let mut pk = false;
            if self.eat_kw("primary") {
                self.expect_kw("key")?;
                pk = true;
            }
            columns.push((col, ty, pk));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_symbol(Sym::RParen)?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> DbResult<Statement> {
        let name = self.identifier()?;
        self.expect_kw("on")?;
        let table = self.identifier()?;
        self.expect_symbol(Sym::LParen)?;
        let column = self.identifier()?;
        self.expect_symbol(Sym::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn insert(&mut self) -> DbResult<Statement> {
        self.expect_kw("into")?;
        let table = self.identifier()?;
        let columns = if self.eat_symbol(Sym::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.identifier()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("values")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol(Sym::LParen)?;
            let mut vals = Vec::new();
            loop {
                vals.push(self.literal()?);
                if !self.eat_symbol(Sym::Comma) {
                    break;
                }
            }
            self.expect_symbol(Sym::RParen)?;
            rows.push(vals);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn select(&mut self) -> DbResult<SelectStmt> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        self.expect_kw("from")?;
        let first = self.identifier()?;
        let (schema, table) = if self.eat_symbol(Sym::Dot) {
            (Some(first), self.identifier()?)
        } else {
            (None, first)
        };
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let col = self.identifier()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some((col, desc))
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            match self.next()? {
                Token::Int(n) if n >= 0 => Some(n as u64),
                t => return Err(DbError::Parse(format!("bad LIMIT operand {t:?}"))),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            schema,
            table,
            where_clause,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> DbResult<SelectItem> {
        if self.eat_symbol(Sym::Star) {
            return Ok(SelectItem::Star);
        }
        let word = self.identifier()?;
        if word == "count" && self.eat_symbol(Sym::LParen) {
            self.expect_symbol(Sym::Star)?;
            self.expect_symbol(Sym::RParen)?;
            return Ok(SelectItem::CountStar);
        }
        if self.eat_symbol(Sym::LParen) {
            // Aggregate over a single column: SUM(col), ASHE_SUM(col), …
            let col = self.identifier()?;
            self.expect_symbol(Sym::RParen)?;
            return Ok(SelectItem::Aggregate(word, col));
        }
        Ok(SelectItem::Column(word))
    }

    fn update(&mut self) -> DbResult<Statement> {
        let table = self.identifier()?;
        self.expect_kw("set")?;
        let mut sets = Vec::new();
        loop {
            let col = self.identifier()?;
            self.expect_symbol(Sym::Eq)?;
            sets.push((col, self.literal()?));
            if !self.eat_symbol(Sym::Comma) {
                break;
            }
        }
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            where_clause,
        })
    }

    fn delete(&mut self) -> DbResult<Statement> {
        self.expect_kw("from")?;
        let table = self.identifier()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete {
            table,
            where_clause,
        })
    }

    fn literal(&mut self) -> DbResult<Value> {
        match self.next()? {
            Token::Int(n) => Ok(Value::Int(n)),
            Token::Str(s) => Ok(Value::Text(s)),
            Token::Hex(b) => Ok(Value::Bytes(b)),
            Token::Symbol(Sym::Minus) => match self.next()? {
                Token::Int(n) => Ok(Value::Int(-n)),
                t => Err(DbError::Parse(format!(
                    "expected number after '-', got {t:?}"
                ))),
            },
            Token::Symbol(Sym::Plus) => match self.next()? {
                Token::Int(n) => Ok(Value::Int(n)),
                t => Err(DbError::Parse(format!(
                    "expected number after '+', got {t:?}"
                ))),
            },
            Token::Word(w) if w.eq_ignore_ascii_case("null") => Ok(Value::Null),
            t => Err(DbError::Parse(format!("expected literal, found {t:?}"))),
        }
    }

    /// Expression grammar: `or_expr` with standard precedence
    /// (OR < AND < NOT < comparison < primary).
    fn expr(&mut self) -> DbResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> DbResult<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> DbResult<Expr> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> DbResult<Expr> {
        let left = self.primary()?;
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(CmpOp::Eq),
            Some(Token::Symbol(Sym::Ne)) => Some(CmpOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(CmpOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(CmpOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(CmpOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.primary()?;
            Ok(Expr::Cmp(Box::new(left), op, Box::new(right)))
        } else {
            Ok(left)
        }
    }

    fn primary(&mut self) -> DbResult<Expr> {
        match self.peek().cloned() {
            Some(Token::Symbol(Sym::LParen)) => {
                self.pos += 1;
                let inner = self.expr()?;
                self.expect_symbol(Sym::RParen)?;
                Ok(inner)
            }
            Some(Token::Int(_))
            | Some(Token::Str(_))
            | Some(Token::Hex(_))
            | Some(Token::Symbol(Sym::Minus))
            | Some(Token::Symbol(Sym::Plus)) => Ok(Expr::Literal(self.literal()?)),
            Some(Token::Word(w)) => {
                if w.eq_ignore_ascii_case("null") {
                    self.pos += 1;
                    return Ok(Expr::Literal(Value::Null));
                }
                self.pos += 1;
                if self.eat_symbol(Sym::LParen) {
                    // Scalar function call with expression arguments.
                    let mut args = Vec::new();
                    if !self.eat_symbol(Sym::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_symbol(Sym::Comma) {
                                break;
                            }
                        }
                        self.expect_symbol(Sym::RParen)?;
                    }
                    Ok(Expr::Func(w.to_ascii_uppercase(), args))
                } else {
                    Ok(Expr::Column(w.to_ascii_lowercase()))
                }
            }
            t => Err(DbError::Parse(format!(
                "unexpected token in expression: {t:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_table() {
        let s = parse_statement("CREATE TABLE Customers (id INT PRIMARY KEY, state TEXT, age INT)")
            .unwrap();
        match s {
            Statement::CreateTable { name, columns } => {
                assert_eq!(name, "customers");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0], ("id".into(), ColumnType::Int, true));
                assert_eq!(columns[1], ("state".into(), ColumnType::Text, false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn insert_multi_row() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL), (3, X'ff')")
            .unwrap();
        match s {
            Statement::Insert {
                table,
                columns,
                rows,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(rows.len(), 3);
                assert_eq!(rows[1], vec![Value::Int(-2), Value::Null]);
                assert_eq!(rows[2][1], Value::Bytes(vec![0xFF]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_with_everything() {
        let s = parse_statement(
            "SELECT id, state FROM customers WHERE state = 'IN' AND age >= 25 \
             ORDER BY age DESC LIMIT 10",
        )
        .unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.table, "customers");
                assert_eq!(sel.order_by, Some(("age".into(), true)));
                assert_eq!(sel.limit, Some(10));
                assert!(matches!(sel.where_clause, Some(Expr::And(_, _))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn select_qualified_schema_table() {
        let s = parse_statement("SELECT * FROM performance_schema.threads").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(sel.schema.as_deref(), Some("performance_schema"));
                assert_eq!(sel.table, "threads");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn aggregates() {
        let s = parse_statement("SELECT COUNT(*) FROM t WHERE a = 10").unwrap();
        match s {
            Statement::Select(sel) => assert_eq!(sel.items, vec![SelectItem::CountStar]),
            other => panic!("{other:?}"),
        }
        let s = parse_statement("SELECT ASHE_SUM(c3) FROM t").unwrap();
        match s {
            Statement::Select(sel) => {
                assert_eq!(
                    sel.items,
                    vec![SelectItem::Aggregate("ashe_sum".into(), "c3".into())]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_precedence() {
        // a = 1 OR b = 2 AND c = 3  ==  a = 1 OR (b = 2 AND c = 3)
        let s = parse_statement("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        match sel.where_clause.unwrap() {
            Expr::Or(_, rhs) => assert!(matches!(*rhs, Expr::And(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn function_in_where() {
        let s = parse_statement("SELECT * FROM docs WHERE SWP_MATCH(body_idx, X'0a0b')").unwrap();
        let Statement::Select(sel) = s else { panic!() };
        match sel.where_clause.unwrap() {
            Expr::Func(name, args) => {
                assert_eq!(name, "SWP_MATCH");
                assert_eq!(args.len(), 2);
                assert_eq!(args[0], Expr::Column("body_idx".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_and_delete() {
        let s = parse_statement("UPDATE t SET a = 5, b = 'y' WHERE id = 1").unwrap();
        match s {
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                assert_eq!(table, "t");
                assert_eq!(sets.len(), 2);
                assert!(where_clause.is_some());
            }
            other => panic!("{other:?}"),
        }
        let s = parse_statement("DELETE FROM t").unwrap();
        assert!(matches!(
            s,
            Statement::Delete {
                where_clause: None,
                ..
            }
        ));
    }

    #[test]
    fn drop_table() {
        assert_eq!(
            parse_statement("DROP TABLE Customers").unwrap(),
            Statement::DropTable {
                name: "customers".into()
            }
        );
        assert!(parse_statement("DROP Customers").is_err());
    }

    #[test]
    fn explain_select() {
        let s = parse_statement("EXPLAIN SELECT * FROM t WHERE id = 5").unwrap();
        match s {
            Statement::Explain(sel) => assert_eq!(sel.table, "t"),
            other => panic!("{other:?}"),
        }
        assert!(parse_statement("EXPLAIN INSERT INTO t VALUES (1)").is_err());
    }

    #[test]
    fn txn_keywords() {
        assert_eq!(parse_statement("BEGIN").unwrap(), Statement::Begin);
        assert_eq!(parse_statement("COMMIT;").unwrap(), Statement::Commit);
        assert_eq!(parse_statement("rollback").unwrap(), Statement::Rollback);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_statement("").is_err());
        assert!(parse_statement("SELEC * FROM t").is_err());
        assert!(parse_statement("SELECT * FROM t garbage").is_err());
        assert!(parse_statement("INSERT INTO t VALUES").is_err());
        assert!(
            parse_statement("UPDATE t SET a = b").is_err(),
            "non-literal SET"
        );
        assert!(parse_statement("SELECT * FROM t LIMIT 'x'").is_err());
    }
}
