//! Statement-digest canonicalization, mirroring MySQL's
//! `performance_schema` statement digests (§4 of the paper).
//!
//! The canonical form removes the *arguments* but preserves the
//! select-from-where structure and the attributes a query uses. As in
//! MySQL:
//!
//! * every literal becomes `?`;
//! * keywords are upper-cased, identifiers lower-cased;
//! * whitespace collapses to single spaces.
//!
//! So `SELECT * FROM CUSTOMERS WHERE STATE='IN'` and `… WHERE STATE='AZ'`
//! share a digest, while adding `AND AGE >= 25` produces a different one —
//! the paper's worked example, verified in this module's tests. This is
//! exactly the property that betrays SPLASHE: rewritten queries touch
//! different *column names*, which are identifiers, not literals, so each
//! plaintext value gets its own digest bucket.

use crate::sql::lexer::{tokenize, Sym, Token};

/// Keywords recognized for upper-casing in digest text.
const KEYWORDS: &[&str] = &[
    "select", "from", "where", "and", "or", "not", "insert", "into", "values", "update", "set",
    "delete", "create", "table", "index", "on", "order", "by", "asc", "desc", "limit", "primary",
    "key", "begin", "commit", "rollback", "null", "count",
];

/// The digest bucket of every unlexable statement.
pub(crate) const INVALID_DIGEST: &str = "(invalid)";

/// Computes the canonical digest text of a statement.
///
/// Unlexable statements canonicalize to the fixed bucket `"(invalid)"`,
/// matching MySQL's behaviour of still recording rejected statements.
pub fn digest_text(sql: &str) -> String {
    tokenize(sql)
        .as_deref()
        .map_or_else(|_| INVALID_DIGEST.to_string(), digest_tokens)
}

/// The canonical digest text of a lexed statement.
pub(crate) fn digest_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    let mut prev_joinable = false;
    let mut i = 0;
    while i < tokens.len() {
        let piece: String = match &tokens[i] {
            Token::Int(_) | Token::Str(_) | Token::Hex(_) => "?".to_string(),
            // A sign directly before a numeric literal folds into the `?`.
            Token::Symbol(Sym::Minus) | Token::Symbol(Sym::Plus)
                if matches!(tokens.get(i + 1), Some(Token::Int(_))) =>
            {
                i += 1;
                "?".to_string()
            }
            Token::Word(w) => {
                let lower = w.to_ascii_lowercase();
                if KEYWORDS.contains(&lower.as_str()) {
                    lower.to_ascii_uppercase()
                } else {
                    lower
                }
            }
            Token::Symbol(s) => symbol_text(*s).to_string(),
        };
        let joinable = !matches!(
            &tokens[i],
            Token::Symbol(Sym::LParen)
                | Token::Symbol(Sym::RParen)
                | Token::Symbol(Sym::Comma)
                | Token::Symbol(Sym::Dot)
                | Token::Symbol(Sym::Semi)
        );
        let tight = matches!(
            &tokens[i],
            Token::Symbol(Sym::Dot)
                | Token::Symbol(Sym::Comma)
                | Token::Symbol(Sym::Semi)
                | Token::Symbol(Sym::RParen)
        );
        if !out.is_empty() && prev_joinable && !tight {
            out.push(' ');
        }
        out.push_str(&piece);
        prev_joinable = joinable || matches!(&tokens[i], Token::Symbol(Sym::RParen));
        i += 1;
    }
    out
}

fn symbol_text(s: Sym) -> &'static str {
    match s {
        Sym::LParen => "(",
        Sym::RParen => ")",
        Sym::Comma => ",",
        Sym::Dot => ".",
        Sym::Semi => ";",
        Sym::Star => "*",
        Sym::Eq => "=",
        Sym::Ne => "!=",
        Sym::Lt => "<",
        Sym::Le => "<=",
        Sym::Gt => ">",
        Sym::Ge => ">=",
        Sym::Minus => "-",
        Sym::Plus => "+",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_worked_example() {
        // §4: the first two queries share a canonical form; the other two
        // differ from it and from each other.
        let q1 = digest_text("SELECT * FROM CUSTOMERS WHERE STATE='IN'");
        let q2 = digest_text("SELECT * FROM CUSTOMERS WHERE STATE='AZ'");
        let q3 = digest_text("SELECT * FROM CUSTOMERS WHERE AGE >=25");
        let q4 = digest_text("SELECT * FROM CUSTOMERS WHERE STATE='IN' AND AGE >=25");
        assert_eq!(q1, q2);
        assert_ne!(q1, q3);
        assert_ne!(q1, q4);
        assert_ne!(q3, q4);
    }

    #[test]
    fn literals_normalized() {
        assert_eq!(
            digest_text("SELECT * FROM t WHERE a = 5"),
            digest_text("select * from T where A = -17")
        );
        assert_eq!(
            digest_text("SELECT * FROM t WHERE a = 'x'"),
            digest_text("SELECT * FROM t WHERE a = 'very different literal'")
        );
        assert_eq!(
            digest_text("SELECT * FROM t WHERE a = X'00'"),
            digest_text("SELECT * FROM t WHERE a = X'ffff'")
        );
    }

    #[test]
    fn column_names_distinguish() {
        // The SPLASHE failure mode: distinct columns ⇒ distinct digests.
        let a = digest_text("SELECT ASHE_SUM(c3) FROM t");
        let b = digest_text("SELECT ASHE_SUM(c4) FROM t");
        assert_ne!(a, b);
    }

    #[test]
    fn whitespace_and_case_insensitive() {
        assert_eq!(
            digest_text("SELECT  *   FROM customers\nWHERE state = 'IN'"),
            digest_text("select * from CUSTOMERS where STATE = 'ZZ'")
        );
    }

    #[test]
    fn digest_text_shape() {
        assert_eq!(
            digest_text("SELECT * FROM Customers WHERE State = 'IN' AND Age >= 25"),
            "SELECT * FROM customers WHERE state = ? AND age >= ?"
        );
        assert_eq!(
            digest_text("INSERT INTO t VALUES (1, 'x')"),
            "INSERT INTO t VALUES (?,?)"
        );
    }

    #[test]
    fn invalid_statements_bucket() {
        assert_eq!(digest_text("€€€"), "(invalid)");
    }
}
