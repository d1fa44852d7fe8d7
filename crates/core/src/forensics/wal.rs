//! Reconstructing data-modifying queries from the circular undo/redo logs
//! (§3 "Inferring writes", after Frühwirt et al.).
//!
//! The attacker holds the raw bytes of `ib_logfile0` / `undo_001` from a
//! disk image and carves framed records by magic scan. Redo records yield
//! full row *after-images* (insert/update content); undo records yield
//! *before-images* (what updates and deletes destroyed). Together they
//! reconstruct the recent write history — bounded only by the circular
//! capacity, which is the paper's "16 days" arithmetic.

use minidb::row::Row;
use minidb::wal::{carve_frames, OpKind, RedoRecord, UndoRecord};

/// One write reconstructed from the redo log.
#[derive(Clone, Debug)]
pub struct ReconstructedWrite {
    /// Log sequence number.
    pub lsn: u64,
    /// Transaction id.
    pub txn: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Table id.
    pub table_id: u32,
    /// Decoded row after-image (inserts and in-place updates).
    pub row: Option<Row>,
}

/// One before-image reconstructed from the undo log.
#[derive(Clone, Debug)]
pub struct ReconstructedBefore {
    /// Log sequence number.
    pub lsn: u64,
    /// Transaction id.
    pub txn: u64,
    /// Operation the record belongs to.
    pub op: OpKind,
    /// Table id.
    pub table_id: u32,
    /// Row id.
    pub row_id: u64,
    /// Decoded row before-image (updates and deletes).
    pub before: Option<Row>,
}

/// Carves and decodes every intact redo record from raw log bytes.
pub fn reconstruct_writes(raw_redo: &[u8]) -> Vec<ReconstructedWrite> {
    let mut out: Vec<ReconstructedWrite> = carve_frames(raw_redo)
        .into_iter()
        .filter_map(|(_, payload)| RedoRecord::decode(payload).ok())
        .filter(|r| r.op != OpKind::Commit)
        .map(|r| ReconstructedWrite {
            lsn: r.lsn,
            txn: r.txn,
            op: r.op,
            table_id: r.table_id,
            row: if r.after.is_empty() {
                None
            } else {
                Row::decode(&r.after).ok()
            },
        })
        .collect();
    out.sort_by_key(|r| r.lsn);
    out
}

/// Carves and decodes every intact undo record from raw log bytes.
pub fn reconstruct_before_images(raw_undo: &[u8]) -> Vec<ReconstructedBefore> {
    let mut out: Vec<ReconstructedBefore> = carve_frames(raw_undo)
        .into_iter()
        .filter_map(|(_, payload)| UndoRecord::decode(payload).ok())
        .map(|r| ReconstructedBefore {
            lsn: r.lsn,
            txn: r.txn,
            op: r.op,
            table_id: r.table_id,
            row_id: r.row_id,
            before: if r.before.is_empty() {
                None
            } else {
                Row::decode(&r.before).ok()
            },
        })
        .collect();
    out.sort_by_key(|r| r.lsn);
    out
}

/// Statistics of a carved circular log: how much history it retains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogHistoryStats {
    /// Records currently recoverable.
    pub records: usize,
    /// Mean framed record size in bytes.
    pub mean_record_bytes: f64,
    /// Capacity of the log file in bytes.
    pub capacity_bytes: usize,
    /// Records the log can hold before wrapping.
    pub records_at_capacity: f64,
}

impl LogHistoryStats {
    /// §3 arithmetic: days of history at `writes_per_second`.
    pub fn days_of_history(&self, writes_per_second: f64) -> f64 {
        self.records_at_capacity / writes_per_second / 86_400.0
    }
}

/// Measures a carved log's retention characteristics.
pub fn history_stats(raw_log: &[u8], capacity_bytes: usize) -> LogHistoryStats {
    let frames = carve_frames(raw_log);
    let records = frames.len();
    let total: usize = frames.iter().map(|(_, p)| p.len() + 8).sum();
    let mean = if records == 0 {
        0.0
    } else {
        total as f64 / records as f64
    };
    LogHistoryStats {
        records,
        mean_record_bytes: mean,
        capacity_bytes,
        records_at_capacity: if mean == 0.0 {
            0.0
        } else {
            capacity_bytes as f64 / mean
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};
    use minidb::value::Value;
    use minidb::wal::{REDO_FILE, UNDO_FILE};

    fn small_db() -> Db {
        let config = DbConfig {
            redo_capacity: 1 << 18,
            undo_capacity: 1 << 18,
            ..DbConfig::default()
        };
        Db::open(config)
    }

    #[test]
    fn reconstructs_insert_update_delete() {
        let db = small_db();
        let conn = db.connect("app");
        conn.execute("CREATE TABLE p (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        conn.execute("INSERT INTO p VALUES (1, 'original-secret')")
            .unwrap();
        conn.execute("UPDATE p SET v = 'replaced-value!' WHERE id = 1")
            .unwrap();
        conn.execute("DELETE FROM p WHERE id = 1").unwrap();

        let disk = db.disk_image();
        let writes = reconstruct_writes(disk.file(REDO_FILE).unwrap());
        let kinds: Vec<OpKind> = writes.iter().map(|w| w.op).collect();
        assert_eq!(kinds, vec![OpKind::Insert, OpKind::Update, OpKind::Delete]);
        // The insert's full content is recoverable.
        let row = writes[0].row.as_ref().unwrap();
        assert_eq!(row.values[1], Value::Text("original-secret".into()));
        // The update's after-image too.
        let row = writes[1].row.as_ref().unwrap();
        assert_eq!(row.values[1], Value::Text("replaced-value!".into()));

        // Undo log: before-images of the update and delete.
        let befores = reconstruct_before_images(disk.file(UNDO_FILE).unwrap());
        let update_before = befores.iter().find(|b| b.op == OpKind::Update).unwrap();
        assert_eq!(
            update_before.before.as_ref().unwrap().values[1],
            Value::Text("original-secret".into())
        );
        let delete_before = befores.iter().find(|b| b.op == OpKind::Delete).unwrap();
        assert_eq!(
            delete_before.before.as_ref().unwrap().values[1],
            Value::Text("replaced-value!".into())
        );
    }

    #[test]
    fn circular_wrap_bounds_history() {
        let config = DbConfig {
            redo_capacity: 8 * 1024, // Tiny: forces wrap quickly.
            undo_capacity: 8 * 1024,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE p (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..500 {
            conn.execute(&format!(
                "INSERT INTO p VALUES ({i}, 'xxxxxxxxxxxxxxxxxxxx')"
            ))
            .unwrap();
        }
        let disk = db.disk_image();
        let writes = reconstruct_writes(disk.file(REDO_FILE).unwrap());
        assert!(writes.len() < 500, "wrap must have discarded old records");
        assert!(!writes.is_empty());
        // The newest insert survives; the oldest does not.
        let ids: Vec<i64> = writes
            .iter()
            .filter_map(|w| w.row.as_ref())
            .map(|r| match r.values[0] {
                Value::Int(i) => i,
                _ => -1,
            })
            .collect();
        assert!(ids.contains(&499));
        assert!(!ids.contains(&0));
    }

    #[test]
    fn history_stats_days_arithmetic() {
        let db = small_db();
        let conn = db.connect("app");
        conn.execute("CREATE TABLE p (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..100 {
            // 20-byte payload, the paper's example write.
            conn.execute(&format!("INSERT INTO p VALUES ({i}, '{:020}')", i))
                .unwrap();
        }
        let disk = db.disk_image();
        let stats = history_stats(disk.file(UNDO_FILE).unwrap(), 50_000_000);
        assert!(stats.records >= 100);
        assert!(stats.mean_record_bytes > 0.0);
        // With the paper's parameters (50 MB, 1 write/s), undo history is
        // on the order of two weeks.
        let days = stats.days_of_history(1.0);
        assert!(days > 5.0 && days < 40.0, "days = {days}");
    }

    #[test]
    fn empty_log_is_safe() {
        let stats = history_stats(&[], 1000);
        assert_eq!(stats.records, 0);
        assert_eq!(stats.days_of_history(1.0), 0.0);
        assert!(reconstruct_writes(&[]).is_empty());
    }
}
