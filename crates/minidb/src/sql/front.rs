//! The statement front end: what the engine learns from a statement's
//! text alone, taken from one lexer pass. It reads no engine state, so
//! callers build it before they take the engine lock.

use crate::error::DbResult;
use crate::sql::ast::Statement;
use crate::sql::digest::{digest_tokens, INVALID_DIGEST};
use crate::sql::lexer::{tokenize, Token};
use crate::sql::parser::parse_tokens;

/// Statement-kind labels for per-kind latency histograms.
pub const STMT_KINDS: [&str; 7] = [
    "select", "insert", "update", "delete", "ddl", "txn", "other",
];

/// One statement's text, lexed once.
pub struct Front {
    /// The decoded string literals, in order: one heap buffer each (§5).
    pub literals: Vec<String>,
    /// The canonical digest text ([`crate::sql::digest_text`]).
    pub digest: String,
    /// Index into [`STMT_KINDS`].
    pub kind: usize,
    /// The parsed statement, or its lex or parse error.
    pub stmt: DbResult<Statement>,
}

/// Lexes `sql` once and takes the literals, the digest and the
/// statement from that one token vector.
pub fn front(sql: &str) -> Front {
    let tokens = tokenize(sql);
    let literals = tokens
        .iter()
        .flatten()
        .filter_map(|t| match t {
            Token::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    let digest = tokens
        .as_deref()
        .map_or_else(|_| INVALID_DIGEST.to_string(), digest_tokens);
    Front {
        literals,
        digest,
        kind: stmt_kind_index(sql),
        stmt: tokens.and_then(parse_tokens),
    }
}

/// Index into [`STMT_KINDS`] for a statement text, decided from the
/// leading keyword — cheap enough for the hot path, and deliberately the
/// same signal a latency side channel gives an observer.
fn stmt_kind_index(sql: &str) -> usize {
    let head = sql.trim_start();
    let word: String = head
        .chars()
        .take_while(|c| c.is_ascii_alphabetic())
        .map(|c| c.to_ascii_lowercase())
        .collect();
    match word.as_str() {
        "select" | "explain" => 0,
        "insert" => 1,
        "update" => 2,
        "delete" => 3,
        "create" | "drop" | "alter" => 4,
        "begin" | "commit" | "rollback" => 5,
        _ => 6,
    }
}
