//! Abstract syntax tree for MiniDB's SQL dialect.

use crate::value::{ColumnType, Value};

/// Comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an ordering of the two operands satisfies the operator.
    pub fn holds(self, o: core::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => o.is_eq(),
            CmpOp::Ne => o.is_ne(),
            CmpOp::Lt => o.is_lt(),
            CmpOp::Le => o.is_le(),
            CmpOp::Gt => o.is_gt(),
            CmpOp::Ge => o.is_ge(),
        }
    }
}

/// A scalar expression (used in `WHERE` and `SET`).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference (lower-cased).
    Column(String),
    /// Binary comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Logical AND.
    And(Box<Expr>, Box<Expr>),
    /// Logical OR.
    Or(Box<Expr>, Box<Expr>),
    /// Logical NOT.
    Not(Box<Expr>),
    /// Scalar function call, e.g. the SWP matching UDF the encrypted
    /// database layers register: `SWP_MATCH(body_index, X'…')`.
    Func(String, Vec<Expr>),
}

impl Expr {
    /// Returns the literal if this expression is one.
    pub fn as_literal(&self) -> Option<&Value> {
        match self {
            Expr::Literal(v) => Some(v),
            _ => None,
        }
    }
}

/// One item in a `SELECT` list.
#[derive(Clone, Debug, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// A plain column.
    Column(String),
    /// `COUNT(*)`
    CountStar,
    /// Aggregate function over a column, e.g. `SUM(age)` or the Seabed
    /// rewrite target `ASHE_SUM(c3)`.
    Aggregate(String, String),
}

/// A `SELECT` statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// Select list.
    pub items: Vec<SelectItem>,
    /// Source table; `schema` is `Some` for qualified names like
    /// `performance_schema.threads`.
    pub schema: Option<String>,
    /// Table name (lower-cased).
    pub table: String,
    /// Optional `WHERE` clause.
    pub where_clause: Option<Expr>,
    /// Optional `ORDER BY column [DESC]`.
    pub order_by: Option<(String, bool)>,
    /// Optional `LIMIT n`.
    pub limit: Option<u64>,
}

/// Any SQL statement MiniDB accepts.
#[derive(Clone, Debug, PartialEq)]
pub enum Statement {
    /// `CREATE TABLE name (col TYPE [PRIMARY KEY], …)`
    CreateTable {
        /// Table name.
        name: String,
        /// `(name, type, is_primary_key)` triples in declaration order.
        columns: Vec<(String, ColumnType, bool)>,
    },
    /// `CREATE INDEX name ON table (column)`
    CreateIndex {
        /// Index name.
        name: String,
        /// Indexed table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `INSERT INTO table [(cols)] VALUES (…), (…)`
    Insert {
        /// Target table.
        table: String,
        /// Explicit column list, if given.
        columns: Option<Vec<String>>,
        /// Rows of literal values.
        rows: Vec<Vec<Value>>,
    },
    /// A `SELECT`.
    Select(SelectStmt),
    /// `EXPLAIN SELECT …`: returns the access plan without executing.
    Explain(SelectStmt),
    /// `EXPLAIN ANALYZE <stmt>`: *executes* the statement (MySQL 8 /
    /// Postgres semantics) and returns its span tree with simulated
    /// stage timings and per-span attributes.
    ExplainAnalyze(Box<Statement>),
    /// `UPDATE table SET col = lit [, …] [WHERE …]`
    Update {
        /// Target table.
        table: String,
        /// Assignments.
        sets: Vec<(String, Value)>,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DELETE FROM table [WHERE …]`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter.
        where_clause: Option<Expr>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table to drop.
        name: String,
    },
    /// `BEGIN`
    Begin,
    /// `COMMIT`
    Commit,
    /// `ROLLBACK`
    Rollback,
}
