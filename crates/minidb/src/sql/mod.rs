//! SQL front end: lexer, AST, recursive-descent parser, digest
//! canonicalizer, and [`front()`], which runs all three over one lexer pass.

pub mod ast;
pub mod digest;
pub mod front;
pub mod lexer;
pub mod parser;

pub use ast::{CmpOp, Expr, SelectItem, SelectStmt, Statement};
pub use digest::digest_text;
pub use front::{front, Front, STMT_KINDS};
pub use parser::parse_statement;
