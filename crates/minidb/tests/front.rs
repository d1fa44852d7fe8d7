//! `sql::front` against the three passes it replaces. The engine lexes
//! a statement once, outside its lock, and takes the literal buffers,
//! the digest and the statement from that one token vector; each must
//! be exactly what the separate pass over the text gave — the literal
//! buffers and digest rows are what a snapshot reads (§4, §5), and the
//! statement, error included, is what the client gets back.

use minidb::sql::lexer::{tokenize, Token};
use minidb::sql::{digest_text, front, parse_statement, STMT_KINDS};
use proptest::prelude::*;

/// The parser's and digest's unit-test statements, the §4 worked
/// example, text the lexer rejects, and comment-led, `''`-escaped and
/// hex statements.
const FIXED: &[&str] = &[
    "CREATE TABLE Customers (id INT PRIMARY KEY, state TEXT, age INT)",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (-2, NULL), (3, X'ff')",
    "SELECT id, state FROM customers WHERE state = 'IN' AND age >= 25 ORDER BY age DESC LIMIT 10",
    "SELECT * FROM performance_schema.threads",
    "SELECT COUNT(*) FROM t WHERE a = 10",
    "SELECT ASHE_SUM(c3) FROM t",
    "SELECT ASHE_SUM(c4) FROM t",
    "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3",
    "SELECT * FROM docs WHERE SWP_MATCH(body_idx, X'0a0b')",
    "UPDATE t SET a = 5, b = 'y' WHERE id = 1",
    "DELETE FROM t",
    "DROP TABLE Customers",
    "DROP Customers",
    "EXPLAIN SELECT * FROM t WHERE id = 5",
    "EXPLAIN INSERT INTO t VALUES (1)",
    "EXPLAIN ANALYZE SELECT v FROM kv WHERE id = 3",
    "BEGIN",
    "COMMIT;",
    "rollback",
    "",
    "SELEC * FROM t",
    "SELECT * FROM t garbage",
    "INSERT INTO t VALUES",
    "UPDATE t SET a = b",
    "SELECT * FROM t LIMIT 'x'",
    "SELECT * FROM CUSTOMERS WHERE STATE='IN'",
    "SELECT * FROM CUSTOMERS WHERE STATE='AZ'",
    "SELECT * FROM CUSTOMERS WHERE AGE >=25",
    "SELECT * FROM CUSTOMERS WHERE STATE='IN' AND AGE >=25",
    "select * from T where A = -17",
    "SELECT * FROM t WHERE a = 'very different literal'",
    "SELECT * FROM t WHERE a = X'ffff'",
    "SELECT  *   FROM customers\nWHERE state = 'IN'",
    "'unterminated",
    "€",
    "€€€",
    "a ! b",
    "99999999999999999999",
    "SELECT * FROM t WHERE b = X'abc'",
    "SELECT * FROM t WHERE b = X'zz'",
    "-- who ran this?\nSELECT v FROM kv WHERE id = 'O''Brien'",
    "  -- only a comment",
    "INSERT INTO kv VALUES (1, 'it''s'), (2, ''''), (3, '')",
    "SELECT v FROM kv WHERE v = 'héllo' AND id <> +4",
    "INSERT INTO docs VALUES (7, X'0aFF', x'00')",
    "UPDATE kv SET v = 'a' WHERE id = 1; trailing",
];

/// Checks one statement: the front's literals, digest and statement
/// against `tokenize`, `digest_text` and `parse_statement`.
fn agrees(sql: &str) -> Result<(), TestCaseError> {
    let f = front(sql);
    let literals: Vec<String> = tokenize(sql)
        .map(|tokens| {
            tokens
                .into_iter()
                .filter_map(|t| match t {
                    Token::Str(s) => Some(s),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    prop_assert_eq!(&f.literals, &literals, "literals of {:?}", sql);
    prop_assert_eq!(&f.digest, &digest_text(sql), "digest of {:?}", sql);
    prop_assert_eq!(&f.stmt, &parse_statement(sql), "statement of {:?}", sql);
    Ok(())
}

#[test]
fn fixed_statements_agree_with_the_separate_passes() {
    for sql in FIXED {
        if let Err(e) = agrees(sql) {
            panic!("{e:?}");
        }
    }
}

#[test]
fn the_kind_is_the_leading_keyword() {
    for (sql, kind) in [
        ("  select 1", "select"),
        ("EXPLAIN ANALYZE SELECT * FROM t", "select"),
        ("INSERT INTO t VALUES (1)", "insert"),
        ("update t SET a = 1", "update"),
        ("DELETE FROM t", "delete"),
        ("CREATE TABLE t (a INT)", "ddl"),
        ("DROP TABLE t", "ddl"),
        ("ALTER whatever", "ddl"),
        ("BEGIN", "txn"),
        ("commit", "txn"),
        ("ROLLBACK", "txn"),
        ("-- comment\nSELECT 1", "other"),
        ("€", "other"),
        ("", "other"),
    ] {
        assert_eq!(STMT_KINDS[front(sql).kind], kind, "{sql:?}");
    }
}

/// One word of a generated statement: keywords, names, literals of
/// every lexer kind, operators, and bytes the lexer rejects.
fn arb_word() -> impl Strategy<Value = String> {
    prop_oneof![
        4 => prop_oneof![
            Just("SELECT"), Just("select"), Just("FROM"), Just("WHERE"), Just("AND"),
            Just("OR"), Just("NOT"), Just("INSERT"), Just("INTO"), Just("VALUES"),
            Just("UPDATE"), Just("SET"), Just("DELETE"), Just("ORDER"), Just("BY"),
            Just("LIMIT"), Just("NULL"), Just("COUNT"), Just("EXPLAIN"), Just("ANALYZE"),
            Just("BEGIN"), Just("COMMIT"), Just("kv"), Just("id"), Just("v"),
        ]
        .prop_map(str::to_string),
        3 => prop_oneof![
            Just("*"), Just("="), Just("!="), Just("<>"), Just("<"), Just("<="),
            Just(">"), Just(">="), Just("("), Just(")"), Just(","), Just("."),
            Just(";"), Just("-"), Just("+"),
        ]
        .prop_map(str::to_string),
        2 => (0i64..100_000).prop_map(|n| n.to_string()),
        2 => "[a-zA-Z é'❤]{0,12}".prop_map(|s| format!("'{}'", s.replace('\'', "''"))),
        1 => "[0-9a-fA-F]{0,3}".prop_map(|s| format!("X'{s}'")),
        1 => prop_oneof![
            Just("'open"), Just("!"), Just("€"), Just("99999999999999999999"),
            Just("-- trailing comment\n"), Just("X'g0'"),
        ]
        .prop_map(str::to_string),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn generated_statements_agree_with_the_separate_passes(
        words in proptest::collection::vec(arb_word(), 0..14),
    ) {
        agrees(&words.join(" "))?;
    }

    #[test]
    fn arbitrary_text_agrees_with_the_separate_passes(
        sql in "[a-zA-Z0-9 '=<>!(),.;*+_€\n-]{0,48}",
    ) {
        agrees(&sql)?;
    }
}
