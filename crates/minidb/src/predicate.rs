//! The predicate evaluator: a `WHERE` tree compiled once per statement
//! and evaluated against rows wherever they are — materialized
//! ([`Row`]) or still encoded in a page cell ([`EncodedRow`]).
//!
//! There is exactly one evaluator ([`Predicate::eval`] /
//! [`Predicate::holds`]) and one definition of comparison
//! ([`Value::sql_cmp`], which answers on a column read in place as on
//! a decoded one); the two row forms differ only in how they hand out
//! a column ([`Columns`]). Compilation resolves column names to
//! ordinals and function names to their implementations, so the
//! per-row work is a tree walk with no string handling, and a
//! comparison of a column with a literal allocates nothing. That
//! comparison is what nearly every filter is a conjunction of, so it
//! compiles to a leaf of its own ([`Predicate::ColumnCmp`]): straight-line
//! code the compiler keeps in registers instead of two `eval` calls
//! returning through memory — worth 3x on a full scan (`benches/scan.rs`,
//! `full_eq`). On an encoded row the leaf compares the literal with the
//! column's bytes where they lie ([`Columns::cmp_column`]), so a TEXT
//! column builds no `String` per row; it orders, refuses and treats
//! NULL exactly as `sql_cmp` on the decoded column does.
//!
//! What compilation must *not* change is when errors surface. An
//! unknown column or function has always been an error of the row that
//! reaches it (an empty table, or an `AND` whose left side is false,
//! never reports it), so both compile to nodes that fail on evaluation.

// Predicates read cell bytes from pages: a bad cell is a typed error,
// never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

use crate::engine::ScalarFn;
use crate::error::{DbError, DbResult};
use crate::row::{Row, ROW_HEADER_LEN};
use crate::schema::TableSchema;
use crate::sql::ast::{CmpOp, Expr};
use crate::value::{self, Value, ValueRef};

/// A row a predicate can read columns from, by schema ordinal.
pub trait Columns {
    /// The value of column `idx`.
    fn column(&self, idx: usize) -> DbResult<Cow<'_, Value>>;

    /// How `lit` orders against column `idx` ([`Value::sql_cmp`]:
    /// `None` when either is NULL), failing where [`Self::column`]
    /// would.
    #[inline(always)]
    fn cmp_column(&self, lit: &Value, idx: usize) -> DbResult<Option<Ordering>> {
        Ok(lit.sql_cmp(&*self.column(idx)?))
    }
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
/// page cell), read one column at a time and only on request. Values
/// are variable-length, so column `i` is found by reading columns
/// `0..i` with the one value reader, each checked as [`Row::decode`]
/// checks it; nothing past column `i` is read, so a damaged later
/// column does not fail a predicate on an earlier one.
pub struct EncodedRow<'a> {
    cell: &'a [u8],
    n_cols: usize,
}

impl<'a> EncodedRow<'a> {
    /// Wraps an encoded row, reading only its header.
    // Forced, like the column readers below: out of line, its header
    // read returns through memory and `scan/full_eq` takes ~1.5x as long.
    #[inline(always)]
    pub fn new(cell: &'a [u8]) -> DbResult<EncodedRow<'a>> {
        let n_cols = Row::decode_header(cell)?.1;
        Ok(EncodedRow { cell, n_cols })
    }

    /// Column `idx`, read where it lies.
    #[inline(always)]
    fn value(&self, idx: usize) -> DbResult<ValueRef<'a>> {
        if idx >= self.n_cols {
            return Err(no_such_column(idx));
        }
        let mut pos = ROW_HEADER_LEN;
        for _ in 0..idx {
            pos = value::read(self.cell, pos)?.1;
        }
        Ok(value::read(self.cell, pos)?.0)
    }
}

impl Columns for EncodedRow<'_> {
    // Forced, like the readers it calls: left to its own judgement the
    // compiler keeps them out of line behind 40-byte `DbResult`
    // returns, and a scan pays 17 -> 31 ns per row.
    #[inline(always)]
    fn column(&self, idx: usize) -> DbResult<Cow<'_, Value>> {
        self.value(idx).map(|v| Cow::Owned(v.to_value()))
    }

    /// Compares in place (`ValueRef::sql_cmp`): no value is built,
    /// so a TEXT column costs no `String` per row.
    #[inline(always)]
    fn cmp_column(&self, lit: &Value, idx: usize) -> DbResult<Option<Ordering>> {
        Ok(lit.borrowed().sql_cmp(self.value(idx)?))
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
                // The literal's order against the column, turned round
                // when the column is the left operand.
                let ord = row.cmp_column(lit, *col)?;
                ord.map(|o| if *lit_on_left { o } else { o.reverse() })
                    .is_some_and(|o| op.holds(o))
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
    use crate::value::{ColumnType, RowBlock};
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
        // A TEXT column that is not UTF-8 fails closed at that column
        // and past it, and the columns before it still answer.
        let mut bad = bytes.clone();
        bad[ROW_HEADER_LEN + 9 + 5] = 0xFF;
        let bad = EncodedRow::new(&bad).unwrap();
        assert_eq!(*bad.column(0).unwrap(), r.values[0]);
        assert!(bad.column(1).is_err() && bad.column(2).is_err());
    }

    /// A seeded source of cells and literals over a small domain, so
    /// equal values, prefixes and NULLs meet often.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }

        fn pick<T: Clone>(&mut self, from: &[T]) -> T {
            from[self.next(from.len() as u64) as usize].clone()
        }

        fn value(&mut self) -> Value {
            match self.next(4) {
                0 => Value::Null,
                1 => Value::Int(self.next(5) as i64 - 2),
                2 => Value::Text(self.pick(&["", "a", "ab", "b", "\u{e9}"]).into()),
                _ => Value::Bytes(self.pick(&[&[][..], &[0], &[0, 1], &[0xff]]).to_vec()),
            }
        }

        /// One column's bytes: a value's encoding, a TEXT body that is
        /// not UTF-8, or an unknown tag.
        fn column(&mut self, out: &mut Vec<u8>) {
            match self.next(10) {
                0 => out.extend_from_slice(&[2, 2, 0, 0, 0, 0xc3, 0x28]),
                1 => out.extend_from_slice(&[4 + self.next(252) as u8, 0, 0]),
                _ => self.value().encode(out),
            }
        }
    }

    /// `ColumnCmp` on an encoded row compares in place; on every cell it
    /// must answer what decoding the column answers. Where the row
    /// decodes, the encoded and the decoded row agree; where the column
    /// cannot be read (truncated, unknown tag, bad UTF-8, past the
    /// column count), both fail, with the error decoding gives.
    #[test]
    fn in_place_comparison_answers_as_decoding_on_random_cells() {
        use CmpOp::*;
        let mut g = Gen(0x2545_f491_4f6c_dd1d);
        // Masks and projections come from a generator of their own, so
        // the cells are the same as without them.
        let mut m = Gen(0x9e37_79b9_7f4a_7c15);
        let mut spans = Vec::new();
        // Rows both forms answered, column reads both refused, and
        // rows only the encoded form can answer (a later column fails).
        let mut seen = [0u32; 3];
        for case in 0..30_000 {
            let width = g.next(4) as u16;
            // The header may claim one column more or fewer than follow.
            let claimed = (width + g.next(3) as u16).saturating_sub(1);
            let mut cell = Vec::new();
            cell.extend_from_slice(&g.next(1_000).to_le_bytes());
            cell.extend_from_slice(&claimed.to_le_bytes());
            for _ in 0..width {
                g.column(&mut cell);
            }
            if g.next(6) == 0 {
                cell.truncate(g.next(cell.len() as u64 + 1) as usize);
            }
            let (col, op, lit) = (
                g.next(u64::from(width) + 1) as usize,
                g.pick(&[Eq, Ne, Lt, Le, Gt, Ge]),
                g.value(),
            );
            let lit_on_left = g.next(2) == 0;
            let (l, r) = match lit_on_left {
                true => (Predicate::Literal(lit.clone()), Predicate::Column(col)),
                false => (Predicate::Column(col), Predicate::Literal(lit.clone())),
            };
            let decoding = Predicate::Cmp(Box::new(l), op, Box::new(r));
            let in_place = Predicate::ColumnCmp {
                col,
                op,
                lit,
                lit_on_left,
            };
            let decoded = Row::decode(&cell);
            // Decoding under a mask and copying under a projection read
            // the cell as `Row::decode` does: they answer with its
            // columns, or refuse with its error, and a refused copy
            // leaves the block as it was.
            let needed: Vec<bool> = (0..m.next(5)).map(|_| m.next(2) == 0).collect();
            let proj: Vec<usize> = (0..m.next(4)).map(|_| m.next(4) as usize).collect();
            let partial = Row::decode_partial(&cell, Some(&needed));
            let first = vec![Value::Int(case)];
            let mut block = RowBlock::from_rows(std::slice::from_ref(&first));
            let copied = Row::copy_columns(&cell, &proj, &mut spans, &mut block);
            match &decoded {
                Ok(row) => {
                    let wanted = |(i, v): (usize, &Value)| match needed.get(i) {
                        Some(true) => v.clone(),
                        _ => Value::Null,
                    };
                    let values = row.values.iter().enumerate().map(wanted).collect();
                    assert_eq!(partial, Ok(Row { id: row.id, values }), "case {case}");
                    let projected: Option<Vec<Value>> =
                        proj.iter().map(|&i| row.values.get(i).cloned()).collect();
                    match projected {
                        Some(projected) => {
                            assert_eq!(copied, Ok(()), "case {case}");
                            assert_eq!(block, RowBlock::from_rows(&[first, projected]));
                        }
                        None => {
                            assert!(matches!(copied, Err(DbError::Storage(_))), "case {case}");
                            assert_eq!(block, RowBlock::from_rows(&[first]), "case {case}");
                        }
                    }
                }
                Err(e) => {
                    assert_eq!(partial.as_ref().err(), Some(e), "case {case}");
                    assert_eq!(copied.as_ref().err(), Some(e), "case {case}");
                    assert_eq!(block, RowBlock::from_rows(&[first]), "case {case}");
                }
            }
            let Ok(enc) = EncodedRow::new(&cell) else {
                assert!(decoded.is_err(), "case {case}");
                continue;
            };
            let fast = in_place.holds(&enc);
            match enc.column(col) {
                Ok(_) => assert_eq!(fast, decoding.holds(&enc), "case {case}: {cell:?}"),
                Err(e) => {
                    assert_eq!(fast, Err(e), "case {case}: {cell:?}");
                    if let Ok(row) = &decoded {
                        assert!(in_place.holds(row).is_err(), "case {case}");
                    }
                    seen[1] += 1;
                }
            }
            match decoded {
                Ok(row) => {
                    assert_eq!(fast, in_place.holds(&row), "case {case}: {row:?}");
                    assert_eq!(fast, decoding.holds(&row), "case {case}: {row:?}");
                    seen[0] += 1;
                }
                Err(_) if fast.is_ok() => seen[2] += 1,
                Err(_) => {}
            }
        }
        assert!(seen.iter().all(|&n| n > 2_000), "{seen:?}");
    }
}
