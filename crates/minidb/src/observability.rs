//! Diagnostic schemas: `performance_schema` and `information_schema` (§4).
//!
//! Modern DBMS's keep rich, SQL-queryable statistics about *queries
//! themselves*: current statements per thread, a bounded per-thread
//! statement history, and per-digest aggregate counters since restart. A
//! SQL-injection attacker reads all of it with plain `SELECT`s; a memory
//! snapshot contains it wholesale. The engine exposes these tables under
//! the `performance_schema` and `information_schema` qualified names.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crate::heap::HeapPtr;
use crate::value::Value;

/// Default bound of `events_statements_history` per thread (MySQL: 10).
pub const DEFAULT_HISTORY_SIZE: usize = 10;

/// One replica's row in `information_schema.replicas` — published by the
/// replication layer (the `mdb-repl` crate) through
/// [`crate::engine::Db::set_replica_status_source`]. The engine itself
/// has no replication logic; it only renders whatever the layer above
/// reports, the same way MySQL's `SHOW REPLICA STATUS` reflects the
/// coordinator threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaStatus {
    /// Replica server id.
    pub replica_id: u64,
    /// Connection/apply state (`connecting`, `streaming`, `lagging`,
    /// `disconnected`, …).
    pub state: String,
    /// Next binlog sequence number the replica will apply.
    pub next_seq: u64,
    /// Primary end-of-binlog sequence at the last heartbeat.
    pub primary_seq: u64,
    /// Events behind the primary (`primary_seq - next_seq`).
    pub lag_events: u64,
    /// Stream errors survived via reconnect so far.
    pub retries: u64,
    /// Simulated UNIX time of the last heartbeat from the primary.
    pub last_heartbeat: i64,
}

/// One statement event, as recorded by the instrumentation.
#[derive(Clone, Debug, PartialEq)]
pub struct StatementEvent {
    /// Issuing thread (connection) id.
    pub thread_id: u64,
    /// Monotonic event id.
    pub event_id: u64,
    /// Verbatim statement text.
    pub sql_text: String,
    /// Canonical digest text.
    pub digest: String,
    /// UNIX timestamp (seconds) when the statement started.
    pub timestamp: i64,
    /// Rows the execution examined.
    pub rows_examined: u64,
    /// Rows returned to the client.
    pub rows_returned: u64,
    /// Arena copy of the statement text held by this event.
    pub text_ptr: Option<HeapPtr>,
}

/// Per-digest aggregate statistics
/// (`events_statements_summary_by_digest`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestStats {
    /// Canonical digest text.
    pub digest: String,
    /// Number of statements with this digest since restart.
    pub count_star: u64,
    /// Total rows examined.
    pub sum_rows_examined: u64,
    /// Total rows returned.
    pub sum_rows_returned: u64,
    /// First occurrence (UNIX seconds).
    pub first_seen: i64,
    /// Latest occurrence (UNIX seconds).
    pub last_seen: i64,
}

/// The `performance_schema` state.
pub struct PerfSchema {
    /// History ring size per thread.
    pub history_size: usize,
    current: HashMap<u64, StatementEvent>,
    history: HashMap<u64, VecDeque<StatementEvent>>,
    digests: BTreeMap<String, DigestStats>,
    next_event_id: u64,
}

impl PerfSchema {
    /// Creates empty instrumentation with the given history bound.
    pub fn new(history_size: usize) -> Self {
        PerfSchema {
            history_size: history_size.max(1),
            current: HashMap::new(),
            history: HashMap::new(),
            digests: BTreeMap::new(),
            next_event_id: 1,
        }
    }

    /// Records that `thread_id` began executing a statement.
    pub fn statement_start(
        &mut self,
        thread_id: u64,
        sql_text: &str,
        digest: &str,
        timestamp: i64,
        text_ptr: Option<HeapPtr>,
    ) {
        let ev = StatementEvent {
            thread_id,
            event_id: self.next_event_id,
            sql_text: sql_text.to_string(),
            digest: digest.to_string(),
            timestamp,
            rows_examined: 0,
            rows_returned: 0,
            text_ptr,
        };
        self.next_event_id += 1;
        self.current.insert(thread_id, ev);
    }

    /// Completes the thread's current statement, moving it into history.
    /// Returns the arena pointer of any history entry that fell off the
    /// ring (for the engine to free).
    #[must_use = "a statement text that fell off the ring must be freed"]
    pub fn statement_end(
        &mut self,
        thread_id: u64,
        rows_examined: u64,
        rows_returned: u64,
    ) -> Option<HeapPtr> {
        let mut ev = self.current.remove(&thread_id)?;
        ev.rows_examined = rows_examined;
        ev.rows_returned = rows_returned;
        let stats = self
            .digests
            .entry(ev.digest.clone())
            .or_insert_with(|| DigestStats {
                digest: ev.digest.clone(),
                count_star: 0,
                sum_rows_examined: 0,
                sum_rows_returned: 0,
                first_seen: ev.timestamp,
                last_seen: ev.timestamp,
            });
        stats.count_star += 1;
        stats.sum_rows_examined += rows_examined;
        stats.sum_rows_returned += rows_returned;
        stats.last_seen = ev.timestamp;
        let ring = self.history.entry(thread_id).or_default();
        ring.push_back(ev);
        if ring.len() > self.history_size {
            return ring.pop_front().and_then(|old| old.text_ptr);
        }
        None
    }

    /// Current statements, one per active thread.
    pub fn events_statements_current(&self) -> Vec<&StatementEvent> {
        let mut v: Vec<&StatementEvent> = self.current.values().collect();
        v.sort_by_key(|e| e.event_id);
        v
    }

    /// The bounded per-thread history (most recent `history_size` events
    /// per thread).
    pub fn events_statements_history(&self) -> Vec<&StatementEvent> {
        let mut v: Vec<&StatementEvent> = self.history.values().flatten().collect();
        v.sort_by_key(|e| e.event_id);
        v
    }

    /// Per-digest aggregates since restart.
    pub fn events_statements_summary_by_digest(&self) -> Vec<&DigestStats> {
        self.digests.values().collect()
    }

    /// Clears everything (the "since the database was last restarted"
    /// semantics); returns arena pointers to free.
    #[must_use = "the statement texts the history held must be freed"]
    pub fn clear(&mut self) -> Vec<HeapPtr> {
        let mut freed = Vec::new();
        for (_, ev) in self.current.drain() {
            freed.extend(ev.text_ptr);
        }
        for (_, ring) in self.history.drain() {
            for ev in ring {
                freed.extend(ev.text_ptr);
            }
        }
        self.digests.clear();
        freed
    }

    // --- SQL-table renderings -----------------------------------------

    /// Renders `events_statements_current` as rows.
    pub fn render_current(&self) -> (Vec<String>, Vec<Vec<Value>>) {
        let cols = vec![
            "thread_id".to_string(),
            "event_id".to_string(),
            "sql_text".to_string(),
            "digest_text".to_string(),
            "timer_start".to_string(),
        ];
        let rows = self
            .events_statements_current()
            .into_iter()
            .map(|e| {
                vec![
                    Value::Int(e.thread_id as i64),
                    Value::Int(e.event_id as i64),
                    Value::Text(e.sql_text.clone()),
                    Value::Text(e.digest.clone()),
                    Value::Int(e.timestamp),
                ]
            })
            .collect();
        (cols, rows)
    }

    /// Renders `events_statements_history` as rows.
    pub fn render_history(&self) -> (Vec<String>, Vec<Vec<Value>>) {
        let cols = vec![
            "thread_id".to_string(),
            "event_id".to_string(),
            "sql_text".to_string(),
            "digest_text".to_string(),
            "timer_start".to_string(),
            "rows_examined".to_string(),
            "rows_sent".to_string(),
        ];
        let rows = self
            .events_statements_history()
            .into_iter()
            .map(|e| {
                vec![
                    Value::Int(e.thread_id as i64),
                    Value::Int(e.event_id as i64),
                    Value::Text(e.sql_text.clone()),
                    Value::Text(e.digest.clone()),
                    Value::Int(e.timestamp),
                    Value::Int(e.rows_examined as i64),
                    Value::Int(e.rows_returned as i64),
                ]
            })
            .collect();
        (cols, rows)
    }

    /// Renders `events_statements_summary_by_digest` as rows.
    pub fn render_digest_summary(&self) -> (Vec<String>, Vec<Vec<Value>>) {
        let cols = vec![
            "digest_text".to_string(),
            "count_star".to_string(),
            "sum_rows_examined".to_string(),
            "sum_rows_sent".to_string(),
            "first_seen".to_string(),
            "last_seen".to_string(),
        ];
        let rows = self
            .events_statements_summary_by_digest()
            .into_iter()
            .map(|d| {
                vec![
                    Value::Text(d.digest.clone()),
                    Value::Int(d.count_star as i64),
                    Value::Int(d.sum_rows_examined as i64),
                    Value::Int(d.sum_rows_returned as i64),
                    Value::Int(d.first_seen),
                    Value::Int(d.last_seen),
                ]
            })
            .collect();
        (cols, rows)
    }
}

/// The `information_schema.processlist` registry.
#[derive(Default)]
pub struct ProcessList {
    conns: BTreeMap<u64, ProcessEntry>,
}

/// One connection's row in `processlist`.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessEntry {
    /// Connection id.
    pub id: u64,
    /// User name.
    pub user: String,
    /// Connect time (UNIX seconds).
    pub connect_time: i64,
    /// Currently executing statement, if any.
    pub current_query: Option<String>,
}

impl ProcessList {
    /// Registers a connection.
    pub fn connect(&mut self, id: u64, user: &str, now: i64) {
        self.conns.insert(
            id,
            ProcessEntry {
                id,
                user: user.to_string(),
                connect_time: now,
                current_query: None,
            },
        );
    }

    /// Removes a connection.
    pub fn disconnect(&mut self, id: u64) {
        self.conns.remove(&id);
    }

    /// Sets or clears the connection's current query.
    pub fn set_query(&mut self, id: u64, query: Option<String>) {
        if let Some(e) = self.conns.get_mut(&id) {
            e.current_query = query;
        }
    }

    /// All live entries.
    pub fn entries(&self) -> Vec<&ProcessEntry> {
        self.conns.values().collect()
    }

    /// Renders `processlist` as rows.
    pub fn render(&self, now: i64) -> (Vec<String>, Vec<Vec<Value>>) {
        let cols = vec![
            "id".to_string(),
            "user".to_string(),
            "time".to_string(),
            "info".to_string(),
        ];
        let rows = self
            .conns
            .values()
            .map(|e| {
                vec![
                    Value::Int(e.id as i64),
                    Value::Text(e.user.clone()),
                    Value::Int(now - e.connect_time),
                    match &e.current_query {
                        Some(q) => Value::Text(q.clone()),
                        None => Value::Null,
                    },
                ]
            })
            .collect();
        (cols, rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_ring_is_bounded_at_ten() {
        let mut ps = PerfSchema::new(DEFAULT_HISTORY_SIZE);
        for i in 0..25 {
            let sql = format!("SELECT {i}");
            ps.statement_start(1, &sql, "SELECT ?", 100 + i, None);
            let _ = ps.statement_end(1, 1, 1);
        }
        let hist = ps.events_statements_history();
        assert_eq!(hist.len(), 10);
        // The surviving events are the 10 most recent.
        assert_eq!(hist[0].sql_text, "SELECT 15");
        assert_eq!(hist[9].sql_text, "SELECT 24");
    }

    #[test]
    fn history_is_per_thread() {
        let mut ps = PerfSchema::new(2);
        for t in 1..=3u64 {
            for i in 0..5 {
                ps.statement_start(t, &format!("q{t}-{i}"), "d", 0, None);
                let _ = ps.statement_end(t, 0, 0);
            }
        }
        assert_eq!(ps.events_statements_history().len(), 6);
    }

    #[test]
    fn digest_summary_counts_by_type() {
        let mut ps = PerfSchema::new(10);
        for (sql, digest) in [
            (
                "SELECT * FROM c WHERE s='IN'",
                "SELECT * FROM c WHERE s = ?",
            ),
            (
                "SELECT * FROM c WHERE s='AZ'",
                "SELECT * FROM c WHERE s = ?",
            ),
            (
                "SELECT * FROM c WHERE a>=25",
                "SELECT * FROM c WHERE a >= ?",
            ),
        ] {
            ps.statement_start(1, sql, digest, 7, None);
            let _ = ps.statement_end(1, 10, 2);
        }
        let summary = ps.events_statements_summary_by_digest();
        assert_eq!(summary.len(), 2);
        let by_digest: std::collections::HashMap<&str, u64> = summary
            .iter()
            .map(|d| (d.digest.as_str(), d.count_star))
            .collect();
        assert_eq!(by_digest["SELECT * FROM c WHERE s = ?"], 2);
        assert_eq!(by_digest["SELECT * FROM c WHERE a >= ?"], 1);
    }

    #[test]
    fn current_shows_in_flight_statements() {
        let mut ps = PerfSchema::new(10);
        ps.statement_start(1, "SELECT sleep_long", "d", 5, None);
        assert_eq!(ps.events_statements_current().len(), 1);
        let _ = ps.statement_end(1, 0, 0);
        assert!(ps.events_statements_current().is_empty());
        assert_eq!(ps.events_statements_history().len(), 1);
    }

    #[test]
    fn rows_examined_recorded() {
        let mut ps = PerfSchema::new(10);
        ps.statement_start(1, "SELECT * FROM t", "d", 5, None);
        let _ = ps.statement_end(1, 1234, 7);
        let h = ps.events_statements_history();
        assert_eq!(h[0].rows_examined, 1234);
        assert_eq!(h[0].rows_returned, 7);
    }

    #[test]
    fn clear_resets_since_restart_semantics() {
        let mut ps = PerfSchema::new(10);
        ps.statement_start(1, "q", "d", 0, None);
        let _ = ps.statement_end(1, 1, 1);
        let _ = ps.clear();
        assert!(ps.events_statements_history().is_empty());
        assert!(ps.events_statements_summary_by_digest().is_empty());
    }

    #[test]
    fn processlist_lifecycle() {
        let mut pl = ProcessList::default();
        pl.connect(1, "app", 100);
        pl.connect(2, "attacker", 150);
        pl.set_query(1, Some("SELECT * FROM secrets".into()));
        let (_, rows) = pl.render(160);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][3], Value::Text("SELECT * FROM secrets".into()));
        assert_eq!(rows[0][2], Value::Int(60));
        assert_eq!(rows[1][3], Value::Null);
        pl.set_query(1, None);
        pl.disconnect(2);
        let (_, rows) = pl.render(200);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][3], Value::Null);
    }
}
