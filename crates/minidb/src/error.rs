//! Error type for the MiniDB engine.

use core::fmt;

/// Errors surfaced by the SQL engine and storage layers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// SQL text failed to lex or parse.
    Parse(String),
    /// Statement referenced an unknown table.
    UnknownTable(String),
    /// Statement referenced an unknown column.
    UnknownColumn(String),
    /// Schema violation: duplicate table, bad column count, type mismatch...
    Schema(String),
    /// Duplicate primary key on insert.
    DuplicateKey(String),
    /// A storage-layer invariant failed (corrupt page, bad slot).
    Storage(String),
    /// Unknown function in an expression.
    UnknownFunction(String),
    /// Expression evaluation failed (type error, bad argument).
    Eval(String),
    /// Transaction API misuse (nested BEGIN, COMMIT without BEGIN...).
    Txn(String),
    /// UPDATE/DELETE reached a row that another open transaction has
    /// written and not yet committed or rolled back (first updater
    /// wins); the statement is undone and may be retried once that
    /// transaction ends.
    WriteConflict(String),
    /// The engine was asked to run a statement after a simulated crash.
    Crashed,
    /// A write statement arrived on a read-only server (a replica); only
    /// the replication applier may modify it.
    ReadOnly,
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            DbError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::DuplicateKey(m) => write!(f, "duplicate key: {m}"),
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::UnknownFunction(m) => write!(f, "unknown function: {m}"),
            DbError::Eval(m) => write!(f, "evaluation error: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::WriteConflict(m) => write!(f, "write conflict: {m}"),
            DbError::Crashed => write!(f, "engine is in crashed state; recover first"),
            DbError::ReadOnly => {
                write!(f, "server is read-only (replica); writes go to the primary")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// Convenience alias used across the crate.
pub type DbResult<T> = Result<T, DbError>;

/// A short or malformed on-disk / on-wire record is a storage error.
impl From<mdb_trace::codec::ReadError> for DbError {
    fn from(e: mdb_trace::codec::ReadError) -> Self {
        DbError::Storage(e.to_string())
    }
}
