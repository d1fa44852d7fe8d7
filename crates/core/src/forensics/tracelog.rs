//! Trace-log forensics: reconstructing a per-statement query timeline
//! from the engine's flight recorder.
//!
//! The query tracer (`mdb-trace`) is the most literal instance of the
//! paper's thesis this repo models: an *observability* feature whose
//! entire purpose is to remember what queries ran, when, and what they
//! touched. Two artifacts survive into a snapshot:
//!
//! * **slow.log** — a disk file of versioned, checksummed trace records
//!   ([`mdb_trace::record`]). Disk theft alone recovers every statement
//!   that ever crossed the slow threshold, text and timestamps intact.
//! * **the flight-recorder ring** — the last N statement traces in
//!   process memory, captured by a [`MemoryImage`]. It survives
//!   `Db::flush_diagnostics` (the perf-schema wipe E12 models) unless
//!   the operator opted into `telemetry_scrub_on_flush`.
//!
//! [`timeline`] merges both into one deduplicated, time-ordered query
//! history — experiment e15's reconstruction step.

use mdb_trace::StatementTrace;
use minidb::engine::SLOW_LOG_FILE;
use minidb::snapshot::{DiskImage, MemoryImage};

/// Where a timeline entry was recovered from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSource {
    /// Carved from the on-disk slow log only.
    SlowLog,
    /// Read from the in-memory flight-recorder ring only.
    FlightRecorder,
    /// Present in both artifacts.
    Both,
}

/// One reconstructed statement execution.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEntry {
    /// Statement start, simulated UNIX seconds.
    pub started: i64,
    /// Full statement text, literals included.
    pub statement: String,
    /// Normalized digest text.
    pub digest: String,
    /// Tables the statement touched (empty for minimal records).
    pub tables: Vec<String>,
    /// Modeled execution time in microseconds.
    pub duration_us: u64,
    /// Which artifact(s) the entry was recovered from.
    pub source: TraceSource,
}

/// Carves every intact trace record out of the on-disk slow log.
/// Returns records in file order (which is append order).
pub fn carve_slow_log(disk: &DiskImage) -> Vec<StatementTrace> {
    disk.file(SLOW_LOG_FILE)
        .map(|raw| {
            mdb_trace::record::carve(raw)
                .into_iter()
                .map(|c| c.trace)
                .collect()
        })
        .unwrap_or_default()
}

/// The flight-recorder ring captured in a memory image, oldest first.
pub fn flight_recorder(memory: &MemoryImage) -> &[StatementTrace] {
    &memory.query_traces
}

/// Reconstructs a deduplicated, time-ordered query timeline from
/// whichever artifacts the threat model yields. Entries are keyed by
/// (start time, statement text); when a statement appears in both the
/// slow log and the ring, the richer record (the one that kept its
/// table list) wins and the source is [`TraceSource::Both`].
pub fn timeline(disk: Option<&DiskImage>, memory: Option<&MemoryImage>) -> Vec<TimelineEntry> {
    let mut out: Vec<TimelineEntry> = Vec::new();
    let mut merge = |t: &StatementTrace, source: TraceSource| {
        if let Some(existing) = out
            .iter_mut()
            .find(|e| e.started == t.started_unix && e.statement == t.statement)
        {
            if existing.source != source {
                existing.source = TraceSource::Both;
            }
            if existing.tables.is_empty() && !t.tables.is_empty() {
                existing.tables = t.tables.clone();
            }
            return;
        }
        out.push(TimelineEntry {
            started: t.started_unix,
            statement: t.statement.clone(),
            digest: t.digest.clone(),
            tables: t.tables.clone(),
            duration_us: t.total_us,
            source,
        });
    };
    if let Some(d) = disk {
        for t in carve_slow_log(d) {
            merge(&t, TraceSource::SlowLog);
        }
    }
    if let Some(m) = memory {
        for t in flight_recorder(m) {
            merge(t, TraceSource::FlightRecorder);
        }
    }
    out.sort_by(|a, b| {
        a.started
            .cmp(&b.started)
            .then_with(|| a.statement.cmp(&b.statement))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};

    fn victim() -> Db {
        let config = DbConfig {
            slow_query_threshold_us: 100, // Everything with rows is slow.
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE patients (id INT PRIMARY KEY, dx TEXT)")
            .unwrap();
        conn.execute("INSERT INTO patients VALUES (1, 'flu'), (2, 'hiv')")
            .unwrap();
        conn.execute("SELECT * FROM patients WHERE dx = 'hiv'")
            .unwrap();
        db
    }

    #[test]
    fn slow_log_carves_statement_texts() {
        let db = victim();
        let carved = carve_slow_log(&db.disk_image());
        assert!(
            carved.iter().any(|t| t.statement.contains("dx = 'hiv'")),
            "{carved:?}"
        );
        let hit = carved
            .iter()
            .find(|t| t.statement.contains("dx = 'hiv'"))
            .unwrap();
        assert_eq!(hit.tables, vec!["patients".to_string()]);
        assert!(hit.total_us > 0);
    }

    #[test]
    fn timeline_merges_disk_and_memory_and_dedups() {
        let db = victim();
        let sys = db.system_image();
        // The select is slow (on disk) AND still in the ring: one entry.
        let tl = timeline(Some(&sys.disk), Some(&sys.memory));
        let selects: Vec<&TimelineEntry> = tl
            .iter()
            .filter(|e| e.statement.contains("dx = 'hiv'"))
            .collect();
        assert_eq!(selects.len(), 1);
        assert_eq!(selects[0].source, TraceSource::Both);
        assert_eq!(selects[0].tables, vec!["patients".to_string()]);
        // Ordered by start time.
        assert!(tl.windows(2).all(|w| w[0].started <= w[1].started));
    }

    #[test]
    fn timeline_from_memory_survives_diagnostics_flush() {
        let db = victim();
        db.flush_diagnostics(); // Wipes perf schema; ring survives.
        let mem = db.memory_image();
        assert!(mem.statements_history.is_empty());
        let tl = timeline(None, Some(&mem));
        assert!(tl.iter().any(|e| e.statement.contains("dx = 'hiv'")));
        assert!(tl.iter().all(|e| e.source == TraceSource::FlightRecorder));
    }
}
