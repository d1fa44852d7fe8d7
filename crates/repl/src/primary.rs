//! Primary-side binlog streaming.
//!
//! A [`PrimaryServer`] owns one session thread per attached replica. A
//! session waits for the replica's handshake, clamps the requested
//! position against the binlog purge horizon (announcing gaps with
//! [`WireMessage::Purged`]), then tails the binlog: batches of events
//! while there is fresh data, heartbeats carrying the primary's position
//! while the stream is idle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mdb_telemetry::Counter;
use minidb::Db;
use parking_lot::Mutex;

use crate::transport::Transport;
use crate::wire::{fit_events_to_frame, SequencedEvent, WireMessage};
use crate::{ReplError, ReplResult};

/// Max events shipped per [`WireMessage::Events`] batch.
const BATCH: usize = 64;

/// How long a session waits for a handshake before re-checking shutdown.
const HANDSHAKE_POLL: Duration = Duration::from_millis(20);

/// Idle delay between binlog polls when there is nothing to ship.
const IDLE_POLL: Duration = Duration::from_millis(1);

struct StreamMetrics {
    sessions: Counter,
    events_sent: Counter,
    heartbeats: Counter,
    bytes_sent: Counter,
}

/// The primary's replication front end: accepts transports (one per
/// replica) and streams the binlog down each.
pub struct PrimaryServer {
    db: Db,
    shutdown: Arc<AtomicBool>,
    sessions: Mutex<Vec<JoinHandle<()>>>,
    metrics: Arc<StreamMetrics>,
}

impl PrimaryServer {
    /// Creates a server for `db`. Sessions start on [`Self::serve`].
    pub fn new(db: Db) -> Self {
        let registry = db.telemetry();
        let metrics = Arc::new(StreamMetrics {
            sessions: registry.counter("repl.stream.sessions"),
            events_sent: registry.counter("repl.stream.events_sent"),
            heartbeats: registry.counter("repl.stream.heartbeats"),
            bytes_sent: registry.counter("repl.stream.bytes_sent"),
        });
        PrimaryServer {
            db,
            shutdown: Arc::new(AtomicBool::new(false)),
            sessions: Mutex::new(Vec::new()),
            metrics,
        }
    }

    /// The database this server streams from.
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Spawns a streaming session over `transport`. The session ends when
    /// the link drops or the server shuts down.
    pub fn serve(&self, mut transport: Box<dyn Transport>) {
        let db = self.db.clone();
        let shutdown = Arc::clone(&self.shutdown);
        let metrics = Arc::clone(&self.metrics);
        metrics.sessions.inc();
        let handle = std::thread::spawn(move || {
            let _ = session(&db, transport.as_mut(), &shutdown, &metrics);
        });
        self.sessions.lock().push(handle);
    }

    /// Stops every session and joins the threads.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let handles: Vec<_> = self.sessions.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for PrimaryServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn session(
    db: &Db,
    transport: &mut dyn Transport,
    shutdown: &AtomicBool,
    metrics: &StreamMetrics,
) -> ReplResult<()> {
    // Phase 1: wait for the replica to announce its resume position.
    let mut next = loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        match transport.recv_timeout(HANDSHAKE_POLL)? {
            Some(WireMessage::Handshake { next_seq, .. }) => break next_seq,
            Some(other) => {
                return Err(ReplError::Protocol(format!(
                    "expected handshake, got {other:?}"
                )));
            }
            None => continue,
        }
    };

    // Phase 2: tail the binlog.
    while !shutdown.load(Ordering::SeqCst) {
        // Announce purge gaps so the replica repositions instead of
        // treating the sequence jump as corruption.
        let purged = db.binlog_purged_seq();
        if next < purged {
            transport.send(&WireMessage::Purged { purged_to: purged })?;
            next = purged;
        }
        // Ship raw frame payloads: on an `encrypted_wal` primary these
        // are sealed records, so the stream is ciphertext end-to-end.
        let (events, _) = db.binlog_frames_from(next, BATCH);
        if events.is_empty() {
            transport.send(&WireMessage::Heartbeat {
                primary_seq: db.binlog_next_seq(),
                timestamp: db.now(),
            })?;
            metrics.heartbeats.inc();
            std::thread::sleep(IDLE_POLL);
            continue;
        }
        let mut batch: Vec<SequencedEvent> = events
            .into_iter()
            .map(|(seq, sealed, payload)| SequencedEvent {
                seq,
                sealed,
                payload,
            })
            .collect();
        // Large statements close the batch early; the rest ships next turn.
        let encoded_len = fit_events_to_frame(&mut batch);
        let n = batch.len() as u64;
        metrics.bytes_sent.add(encoded_len as u64);
        transport.send(&WireMessage::Events { events: batch })?;
        metrics.events_sent.add(n);
        next += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::duplex;
    use minidb::DbConfig;

    #[test]
    fn session_streams_and_heartbeats() {
        let db = Db::open(DbConfig::default());
        let conn = db.connect("root");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();

        let server = PrimaryServer::new(db.clone());
        let (primary_end, mut replica_end) = duplex();
        server.serve(Box::new(primary_end));

        replica_end
            .send(&WireMessage::Handshake {
                replica_id: 2,
                next_seq: 0,
            })
            .unwrap();

        let mut events = Vec::new();
        let mut saw_heartbeat = false;
        for _ in 0..200 {
            match replica_end.recv_timeout(Duration::from_millis(50)).unwrap() {
                Some(WireMessage::Events { events: batch }) => events.extend(batch),
                Some(WireMessage::Heartbeat { primary_seq, .. }) => {
                    assert_eq!(primary_seq, db.binlog_next_seq());
                    saw_heartbeat = true;
                }
                _ => {}
            }
            if !events.is_empty() && saw_heartbeat {
                break;
            }
        }
        assert!(saw_heartbeat, "idle stream should heartbeat");
        assert_eq!(events.len() as u64, db.binlog_next_seq());
        assert_eq!(events[0].seq, 0);
        assert!(events
            .iter()
            .filter_map(|e| e.decode_plain())
            .any(|ev| ev.statement.contains("INSERT")));
        server.shutdown();
    }

    #[test]
    fn session_announces_purge_gap() {
        let db = Db::open(DbConfig::default());
        let conn = db.connect("root");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        conn.execute("INSERT INTO t VALUES (1)").unwrap();
        db.purge_binlog();
        conn.execute("INSERT INTO t VALUES (2)").unwrap();

        let server = PrimaryServer::new(db.clone());
        let (primary_end, mut replica_end) = duplex();
        server.serve(Box::new(primary_end));

        // Ask for seq 0, which is behind the purge horizon.
        replica_end
            .send(&WireMessage::Handshake {
                replica_id: 2,
                next_seq: 0,
            })
            .unwrap();

        let mut purged_to = None;
        let mut first_event_seq = None;
        for _ in 0..200 {
            match replica_end.recv_timeout(Duration::from_millis(50)).unwrap() {
                Some(WireMessage::Purged { purged_to: p }) => purged_to = Some(p),
                Some(WireMessage::Events { events }) => {
                    first_event_seq = events.first().map(|e| e.seq);
                    break;
                }
                _ => {}
            }
        }
        assert_eq!(purged_to, Some(db.binlog_purged_seq()));
        assert_eq!(first_event_seq, Some(db.binlog_purged_seq()));
        server.shutdown();
    }
}
