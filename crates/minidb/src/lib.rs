//! # MiniDB
//!
//! A from-scratch embedded DBMS that reproduces the *systems* behaviour of
//! a commodity MySQL/InnoDB deployment — specifically, every mechanism the
//! HotOS 2017 paper *Why Your Encrypted Database Is Not Secure* shows to
//! leak information about past queries to a "snapshot" attacker:
//!
//! * **§3 logs on disk** — circular undo/redo logs with byte-level row
//!   images and LSNs ([`wal`]), a timestamped statement binlog, a slow
//!   query log, an optional general query log, and the buffer-pool LRU
//!   dump file ([`storage::shardpool`]).
//! * **§4 diagnostic tables** — `performance_schema` statement digests,
//!   per-thread statement history, and `information_schema.processlist`,
//!   all reachable through plain SQL ([`observability`]).
//! * **§5 in-memory structures** — a query cache, an adaptive hash index,
//!   per-page access counters, and a process heap with **no secure
//!   deletion** ([`heap`]).
//!
//! The engine is a real (small) database: slotted pages, a buffer pool,
//! B+ tree indexes, ARIES-style redo/undo crash recovery, transactions,
//! and a SQL dialect with scalar-UDF hooks that the encrypted-database
//! layers in the `edb` crate build on.
//!
//! ## Quick example
//!
//! ```
//! use minidb::engine::{Db, DbConfig};
//!
//! let db = Db::open(DbConfig::default());
//! let conn = db.connect("app");
//! conn.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)").unwrap();
//! conn.execute("INSERT INTO t VALUES (1, 'alice'), (2, 'bob')").unwrap();
//! let r = conn.execute("SELECT name FROM t WHERE id = 2").unwrap();
//! assert_eq!(r.rows[0][0].to_string(), "bob");
//! ```

// Library code fails closed: a typed error, never a panic on bytes it
// was handed. Tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod catalog;
pub mod engine;
pub mod error;
pub mod group_commit;
pub mod heap;
pub mod mvcc;
pub mod observability;
pub mod predicate;
pub mod row;
pub mod schema;
pub mod snapshot;
pub mod snapshot_io;
pub mod sql;
pub mod storage;
pub mod value;
pub mod vdisk;
pub mod wal;

pub use engine::{Answer, Connection, Db, DbConfig, QueryResult, ReplRole};
pub use error::{DbError, DbResult};
pub use snapshot::{DiskImage, MemoryImage, SystemImage};
pub use value::Value;
