//! The predicate evaluator: a `WHERE` tree compiled once per statement
//! and evaluated against rows wherever they are — materialized
//! ([`Row`]) or still encoded in a page cell ([`EncodedRow`]).
//!
//! There is exactly one evaluator ([`Predicate::eval`] /
//! [`Predicate::holds`]) and one definition of comparison
//! ([`Value::sql_cmp`]); the two row forms differ only in how they
//! hand out a column ([`Columns`]). Compilation resolves column names
//! to ordinals and function names to their implementations, so the
//! per-row work is a tree walk with no string handling, and a
//! comparison of an INT column with a literal allocates nothing: the
//! column decodes to an inline `Value::Int`, the literal is borrowed.
//! That comparison is what nearly every filter is a conjunction of, so
//! it compiles to a leaf of its own ([`Predicate::ColumnCmp`]): same
//! column read, same `sql_cmp`, but straight-line code the compiler
//! keeps in registers instead of two `eval` calls returning through
//! memory — worth 3x on a full scan (`benches/scan.rs`, `full_eq`).
//!
//! What compilation must *not* change is when errors surface. An
//! unknown column or function has always been an error of the row that
//! reaches it (an empty table, or an `AND` whose left side is false,
//! never reports it), so both compile to nodes that fail on evaluation.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::engine::ScalarFn;
use crate::error::{DbError, DbResult};
use crate::row::{Row, ROW_HEADER_LEN};
use crate::schema::TableSchema;
use crate::sql::ast::{CmpOp, Expr};
use crate::value::Value;

/// A row a predicate can read columns from, by schema ordinal.
pub trait Columns {
    /// The value of column `idx`.
    fn column(&self, idx: usize) -> DbResult<Cow<'_, Value>>;
}

fn no_such_column(idx: usize) -> DbError {
    DbError::Storage(format!("row has no column {idx}"))
}

impl Columns for Row {
    #[inline]
    fn column(&self, idx: usize) -> DbResult<Cow<'_, Value>> {
        self.values
            .get(idx)
            .map(Cow::Borrowed)
            .ok_or_else(|| no_such_column(idx))
    }
}

/// A row in its encoded form ([`Row::encode`]'s image, as it sits in a
/// page cell), decoded one column at a time and only on request.
/// Values are variable-length, so reading column `i` steps over
/// `0..i` — a tag and a length each, no allocation, no validation.
pub struct EncodedRow<'a> {
    buf: &'a [u8],
    n_cols: usize,
}

impl<'a> EncodedRow<'a> {
    /// Wraps an encoded row, reading only its header.
    pub fn new(buf: &'a [u8]) -> DbResult<EncodedRow<'a>> {
        let n_cols = Row::decode_header(buf)?.1;
        Ok(EncodedRow { buf, n_cols })
    }
}

impl Columns for EncodedRow<'_> {
    // Forced, like the `Value` readers it calls: left to its own
    // judgement the compiler keeps them out of line behind 40-byte
    // `DbResult` returns, and a scan pays 17 -> 31 ns per row.
    #[inline(always)]
    fn column(&self, idx: usize) -> DbResult<Cow<'_, Value>> {
        if idx >= self.n_cols {
            return Err(no_such_column(idx));
        }
        let mut pos = ROW_HEADER_LEN;
        for _ in 0..idx {
            Value::skip(self.buf, &mut pos)?;
        }
        Value::decode(self.buf, &mut pos).map(Cow::Owned)
    }
}

/// A compiled `WHERE` tree.
pub enum Predicate {
    /// A literal value.
    Literal(Value),
    /// A column, by schema ordinal.
    Column(usize),
    /// A column name the schema does not have.
    UnknownColumn(String),
    /// Binary comparison.
    Cmp(Box<Predicate>, CmpOp, Box<Predicate>),
    /// A `Cmp` whose operands are a column and a literal, as one leaf.
    ColumnCmp {
        /// The column, by schema ordinal.
        col: usize,
        /// The operator, as written.
        op: CmpOp,
        /// The literal.
        lit: Value,
        /// Whether the literal is the left operand (`5 < a`).
        lit_on_left: bool,
    },
    /// Logical AND (short-circuit).
    And(Box<Predicate>, Box<Predicate>),
    /// Logical OR (short-circuit).
    Or(Box<Predicate>, Box<Predicate>),
    /// Logical NOT.
    Not(Box<Predicate>),
    /// Scalar function call; `None` when no such function is registered.
    Func(String, Option<ScalarFn>, Vec<Predicate>),
}

impl Predicate {
    /// Compiles `e` against `schema`, resolving function names in
    /// `functions`. Never fails: see the module docs.
    pub fn compile(
        e: &Expr,
        schema: &TableSchema,
        functions: &HashMap<String, ScalarFn>,
    ) -> Predicate {
        let sub = |e: &Expr| Box::new(Predicate::compile(e, schema, functions));
        match e {
            Expr::Literal(v) => Predicate::Literal(v.clone()),
            Expr::Column(c) => match schema.column_index(c) {
                Ok(idx) => Predicate::Column(idx),
                Err(_) => Predicate::UnknownColumn(c.clone()),
            },
            Expr::Cmp(l, op, r) => {
                let op = *op;
                match (*sub(l), *sub(r)) {
                    (Predicate::Column(col), Predicate::Literal(lit)) => Predicate::ColumnCmp {
                        col,
                        op,
                        lit,
                        lit_on_left: false,
                    },
                    (Predicate::Literal(lit), Predicate::Column(col)) => Predicate::ColumnCmp {
                        col,
                        op,
                        lit,
                        lit_on_left: true,
                    },
                    (l, r) => Predicate::Cmp(Box::new(l), op, Box::new(r)),
                }
            }
            Expr::And(l, r) => Predicate::And(sub(l), sub(r)),
            Expr::Or(l, r) => Predicate::Or(sub(l), sub(r)),
            Expr::Not(x) => Predicate::Not(sub(x)),
            Expr::Func(name, args) => Predicate::Func(
                name.clone(),
                functions.get(name).cloned(),
                args.iter()
                    .map(|a| Predicate::compile(a, schema, functions))
                    .collect(),
            ),
        }
    }

    /// Whether the predicate is true of `row` (SQL truth: a non-zero
    /// INT; NULL and every other value are not-true).
    pub fn holds(&self, row: &impl Columns) -> DbResult<bool> {
        Ok(match self {
            Predicate::ColumnCmp {
                col,
                op,
                lit,
                lit_on_left,
            } => {
                let col = row.column(*col)?;
                let ord = match lit_on_left {
                    true => lit.sql_cmp(&col),
                    false => col.sql_cmp(lit),
                };
                ord.is_some_and(|o| op.holds(o))
            }
            Predicate::Cmp(l, op, r) => {
                // NULL comparisons are not-true.
                let (l, r) = (l.eval(row)?, r.eval(row)?);
                l.sql_cmp(&r).is_some_and(|o| op.holds(o))
            }
            Predicate::And(l, r) => l.holds(row)? && r.holds(row)?,
            Predicate::Or(l, r) => l.holds(row)? || r.holds(row)?,
            Predicate::Not(x) => !x.holds(row)?,
            value => matches!(*value.eval(row)?, Value::Int(v) if v != 0),
        })
    }

    /// The predicate's value on `row`; logical nodes yield `Int(0|1)`.
    pub fn eval<'a>(&'a self, row: &'a impl Columns) -> DbResult<Cow<'a, Value>> {
        match self {
            Predicate::Literal(v) => Ok(Cow::Borrowed(v)),
            Predicate::Column(idx) => row.column(*idx),
            Predicate::UnknownColumn(c) => Err(DbError::UnknownColumn(c.clone())),
            Predicate::Func(name, f, args) => {
                let f = f
                    .as_ref()
                    .ok_or_else(|| DbError::UnknownFunction(name.clone()))?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(a.eval(row)?.into_owned());
                }
                f(&argv).map(Cow::Owned)
            }
            logical => Ok(Cow::Owned(Value::Int(logical.holds(row)? as i64))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::sql::{parse_statement, Statement};
    use crate::value::ColumnType;
    use std::sync::Arc;

    fn schema() -> TableSchema {
        let col = |name: &str, ty| ColumnDef {
            name: name.into(),
            ty,
            primary_key: false,
        };
        TableSchema::new(
            "t",
            vec![
                col("a", ColumnType::Int),
                col("s", ColumnType::Text),
                col("b", ColumnType::Int),
            ],
        )
        .unwrap()
    }

    fn compile(where_sql: &str, functions: &HashMap<String, ScalarFn>) -> Predicate {
        let Statement::Select(sel) =
            parse_statement(&format!("SELECT * FROM t WHERE {where_sql}")).unwrap()
        else {
            unreachable!()
        };
        Predicate::compile(&sel.where_clause.unwrap(), &schema(), functions)
    }

    /// Evaluates on both row forms and insists they agree.
    fn holds(p: &Predicate, row: &Row) -> DbResult<bool> {
        let bytes = row.encode();
        let on_bytes = p.holds(&EncodedRow::new(&bytes).unwrap());
        let on_row = p.holds(row);
        assert_eq!(on_bytes, on_row);
        on_row
    }

    fn row(a: Value, s: &str, b: Value) -> Row {
        Row {
            id: 1,
            values: vec![a, Value::Text(s.into()), b],
        }
    }

    #[test]
    fn both_row_forms_agree() {
        let none = HashMap::new();
        let r = row(Value::Int(5), "x", Value::Null);
        for (sql, want) in [
            ("a = 5", true),
            ("5 = a", true),
            ("a < 5 OR s = 'x'", true),
            ("b = 0 OR b != 0", false), // NULL compares are not-true
            ("NOT b = 0", true),
            ("a > 1 AND a >= 5 AND s >= 'x'", true),
            ("s = 5", false), // cross-type: ordered by type rank
            ("b > a OR a > b", false),
            ("a", true),
            ("s", false),
        ] {
            assert_eq!(holds(&compile(sql, &none), &r).unwrap(), want, "{sql}");
        }
    }

    #[test]
    fn unknown_names_fail_only_when_reached() {
        let none = HashMap::new();
        let r = row(Value::Int(5), "x", Value::Int(1));
        assert!(!holds(&compile("a = 0 AND nosuch = 1", &none), &r).unwrap());
        assert!(matches!(
            holds(&compile("a = 5 AND nosuch = 1", &none), &r),
            Err(DbError::UnknownColumn(_))
        ));
        assert!(holds(&compile("a = 5 OR nofn(a)", &none), &r).unwrap());
        // The function is looked up before its arguments are evaluated.
        assert!(matches!(
            holds(&compile("nofn(nosuch)", &none), &r),
            Err(DbError::UnknownFunction(_))
        ));
    }

    #[test]
    fn functions_see_owned_arguments() {
        let mut fns: HashMap<String, ScalarFn> = HashMap::new();
        fns.insert(
            "LEN_IS".into(),
            Arc::new(|args: &[Value]| match args {
                [Value::Text(s), Value::Int(n)] => Ok(Value::Int((s.len() as i64 == *n) as i64)),
                _ => Err(DbError::Eval("len_is(text, int)".into())),
            }),
        );
        let r = row(Value::Int(3), "abc", Value::Null);
        assert!(holds(&compile("len_is(s, a)", &fns), &r).unwrap());
        assert!(!holds(&compile("len_is(s, 2)", &fns), &r).unwrap());
        assert!(holds(&compile("len_is(s, b)", &fns), &r).is_err());
    }

    #[test]
    fn encoded_row_walks_columns_in_any_order() {
        let r = row(Value::Int(-1), "middle", Value::Int(9));
        let bytes = r.encode();
        let e = EncodedRow::new(&bytes).unwrap();
        for idx in [2, 0, 1, 1, 2, 0] {
            assert_eq!(*e.column(idx).unwrap(), r.values[idx]);
        }
        assert!(e.column(3).is_err());
        assert!(r.column(3).is_err());
        // A cell cut inside a column fails closed, at that column only.
        let cut = EncodedRow::new(&bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(*cut.column(1).unwrap(), r.values[1]);
        assert!(cut.column(2).is_err());
        assert!(EncodedRow::new(&bytes[..9]).is_err());
    }
}
