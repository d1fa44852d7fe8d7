//! # mdb-server — the multi-client SQL front end
//!
//! A zero-dependency TCP server that turns the embedded [`minidb`]
//! engine into a networked DBMS: a nonblocking accept loop, one worker
//! thread per client connection, and a framed wire protocol
//! (`"MSRV" || len || payload || crc32`, [`wire`]) carrying SQL text
//! out and result rows back.
//!
//! Each session owns one engine [`minidb::engine::Connection`], so the
//! engine's transaction scoping applies unchanged: `BEGIN` pins an MVCC
//! snapshot, concurrent sessions read consistent row versions from the
//! version store, and a session that disconnects mid-transaction rolls
//! back.
//!
//! ## Why this crate is also a leakage surface
//!
//! The wire protocol is the plaintext channel the paper's §3–§5
//! machinery only ever sees *after* the fact: every statement crosses
//! it verbatim, framed exactly like a binlog record (magic + length +
//! CRC), so a passive capture of the TCP stream carves with the same
//! resync loop as a stolen log file. The MVCC layer the server leans on
//! adds its own persistent echo — superseded row versions in
//! `undo_versions.ibd` (experiment e18, `core::forensics::versions`).
//!
//! ## Quick example
//!
//! ```
//! use minidb::engine::{Db, DbConfig};
//! use mdb_server::{MdbClient, MdbServer, ServerOptions};
//!
//! let db = Db::open(DbConfig::default());
//! let srv = MdbServer::start(db, ServerOptions::default()).unwrap();
//! let mut c = MdbClient::connect(srv.local_addr(), "app").unwrap();
//! c.query("CREATE TABLE t (id INT PRIMARY KEY, v INT)").unwrap();
//! c.query("INSERT INTO t VALUES (1, 10)").unwrap();
//! let r = c.query("SELECT v FROM t").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! c.close().unwrap();
//! ```

// Library code fails closed: a typed error, never a panic on bytes it
// was handed. Tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{ClientError, MdbClient};
pub use server::{MdbServer, ServerOptions};
pub use wire::{answer_reply_frame, FrameDecoder, WireError, WireMessage, WireResultSet};

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};
    use minidb::value::Value;

    fn start() -> (Db, MdbServer) {
        let db = Db::open(DbConfig::default());
        let srv = MdbServer::start(db.clone(), ServerOptions::default()).unwrap();
        (db, srv)
    }

    #[test]
    fn ephemeral_port_resolves_to_real_address() {
        let (_db, srv) = start();
        let addr = srv.local_addr();
        assert_ne!(addr.port(), 0, "bound port must be concrete");
        assert!(addr.ip().is_loopback());
    }

    #[test]
    fn handshake_query_and_quit() {
        let (db, srv) = start();
        let mut c = MdbClient::connect(srv.local_addr(), "cli").unwrap();
        assert_eq!(c.server_name(), "minidb/0.1");
        assert!(c.session_id() > 0);
        c.query("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)")
            .unwrap();
        let r = c
            .query("INSERT INTO t VALUES (1, 'alice'), (2, 'bob')")
            .unwrap();
        assert_eq!(r.rows_affected, 2);
        let r = c.query("SELECT name FROM t ORDER BY id").unwrap();
        assert_eq!(r.columns, vec!["name"]);
        assert_eq!(r.rows[1][0], Value::Text("bob".into()));
        c.close().unwrap();
        // Server-side counters observed the session.
        let snap = db.metrics_snapshot();
        assert_eq!(snap.counter("server.connections"), Some(1));
        assert_eq!(snap.counter("server.statements"), Some(3));
    }

    #[test]
    fn statement_errors_keep_the_session_alive() {
        let (_db, srv) = start();
        let mut c = MdbClient::connect(srv.local_addr(), "cli").unwrap();
        let err = c.query("SELECT * FROM nope").unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        // The session still works after the error.
        c.query("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        c.close().unwrap();
    }

    #[test]
    fn oversized_requests_are_refused_before_the_write() {
        use crate::wire::MAX_FRAME_LEN;
        let (_db, srv) = start();
        let mut c = MdbClient::connect(srv.local_addr(), "cli").unwrap();
        // The server's decoder drops such a frame as garbage and never
        // answers: sending it would block this session forever.
        let big = "x".repeat(MAX_FRAME_LEN + 1);
        for result in [
            c.query(&big).map(|_| ()),
            c.prepare("p", &big),
            c.execute_prepared(&big).map(|_| ()),
        ] {
            let err = result.unwrap_err();
            assert!(
                matches!(err, ClientError::TooLarge(n) if n > MAX_FRAME_LEN),
                "{err}"
            );
        }
        // Nothing was sent, so the session is still in step.
        c.query("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        // A payload of exactly the limit goes out and is answered.
        c.set_tracing(false);
        let framing = WireMessage::Query { sql: String::new() }.encode().len();
        let err = c.query(&big[..MAX_FRAME_LEN - framing]).unwrap_err();
        assert!(matches!(err, ClientError::Server(_)), "{err}");
        c.close().unwrap();
    }

    #[test]
    fn prepared_text_cache_round_trip_and_cap() {
        let (_db, srv) = start();
        let mut c = MdbClient::connect(srv.local_addr(), "cli").unwrap();
        c.query("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        c.prepare("ins", "INSERT INTO t VALUES (1)").unwrap();
        c.prepare("all", "SELECT * FROM t").unwrap();
        c.execute_prepared("ins").unwrap();
        let r = c.execute_prepared("all").unwrap();
        assert_eq!(r.rows.len(), 1);
        for i in 2..server::PREPARED_CACHE_CAP {
            c.prepare(&format!("p{i}"), "SELECT 1").unwrap();
        }
        // Cap enforced; re-preparing an existing name is allowed.
        let err = c.prepare("one_too_many", "SELECT 1").unwrap_err();
        assert!(matches!(err, ClientError::Server(m) if m.contains("prepared cache full")));
        c.prepare("all", "SELECT id FROM t").unwrap();
        let err = c.execute_prepared("missing").unwrap_err();
        assert!(matches!(err, ClientError::Server(m) if m.contains("unknown prepared")));
        c.close().unwrap();
    }

    #[test]
    fn disconnect_mid_transaction_rolls_back() {
        let (db, srv) = start();
        let setup = db.connect("setup");
        setup
            .execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        setup.execute("INSERT INTO t VALUES (1, 10)").unwrap();
        {
            let mut c = MdbClient::connect(srv.local_addr(), "cli").unwrap();
            c.query("BEGIN").unwrap();
            c.query("UPDATE t SET v = 99 WHERE id = 1").unwrap();
            // Drop the client without COMMIT: the stream closes and the
            // server session's engine connection rolls the txn back.
        }
        // Wait for the server worker to notice the EOF and clean up.
        for _ in 0..200 {
            let r = setup.execute("SELECT v FROM t WHERE id = 1").unwrap();
            if r.rows[0][0] == Value::Int(10) && db.version_count() == 0 {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let r = setup.execute("SELECT v FROM t WHERE id = 1").unwrap();
        assert_eq!(
            r.rows[0][0],
            Value::Int(10),
            "txn rolled back on disconnect"
        );
    }

    #[test]
    fn two_sessions_see_snapshot_isolation_over_the_wire() {
        let (_db, srv) = start();
        let mut a = MdbClient::connect(srv.local_addr(), "a").unwrap();
        let mut b = MdbClient::connect(srv.local_addr(), "b").unwrap();
        a.query("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        a.query("INSERT INTO t VALUES (1, 100)").unwrap();
        b.query("BEGIN").unwrap();
        let r = b.query("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(100));
        a.query("UPDATE t SET v = 200 WHERE id = 1").unwrap();
        let r = b.query("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(100), "snapshot pinned at BEGIN");
        b.query("COMMIT").unwrap();
        let r = b.query("SELECT v FROM t").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(200));
        a.close().unwrap();
        b.close().unwrap();
    }
}
