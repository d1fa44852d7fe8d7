//! Two "the past never dies" integration tests:
//!
//! * dropped tables: `DROP TABLE` removes the files, but the circular
//!   logs and binlog keep the rows (Stahlberg et al.'s forensic threat,
//!   which §1 builds on);
//! * onion downgrades: CryptDB-style layer peeling is a logged write
//!   burst, so a snapshot proves *when* a column lost semantic security
//!   and hands over the before-images of the stronger layer.

use edb_repro::edb::onion::{OnionLevel, OnionTable};
use edb_repro::edb_crypto::Key;
use edb_repro::minidb::engine::{Db, DbConfig};
use edb_repro::minidb::value::Value;
use edb_repro::minidb::wal::{BINLOG_FILE, REDO_FILE, UNDO_FILE};
use edb_repro::snapshot_attack::forensics::{binlog, lsn_time, wal};
use edb_repro::snapshot_attack::threat::{capture, AttackVector};

fn small_db() -> Db {
    let config = DbConfig {
        redo_capacity: 2 << 20,
        undo_capacity: 2 << 20,
        ..DbConfig::default()
    };
    Db::open(config)
}

#[test]
fn dropped_table_rows_recoverable_from_logs() {
    let db = small_db();
    let conn = db.connect("app");
    conn.execute("CREATE TABLE秘密 (id INT PRIMARY KEY, note TEXT)")
        .unwrap_err(); // Non-ASCII identifiers rejected; sanity check.
    conn.execute("CREATE TABLE burn_after (id INT PRIMARY KEY, note TEXT)")
        .unwrap();
    conn.execute("INSERT INTO burn_after VALUES (1, 'incriminating-memo')")
        .unwrap();
    conn.execute("INSERT INTO burn_after VALUES (2, 'second-memo')")
        .unwrap();
    conn.execute("DROP TABLE burn_after").unwrap();

    // The table is gone from the engine and the disk file listing.
    assert!(conn.execute("SELECT * FROM burn_after").is_err());
    let disk = capture(&db, AttackVector::DiskTheft).persistent_db.unwrap();
    assert!(disk.file("table_burn_after.ibd").is_none());

    // But disk theft still recovers the rows: redo after-images...
    let writes = wal::reconstruct_writes(disk.file(REDO_FILE).unwrap());
    let texts: Vec<String> = writes
        .iter()
        .filter_map(|w| w.row.as_ref())
        .flat_map(|r| r.values.iter().map(|v| v.to_string()))
        .collect();
    assert!(texts.iter().any(|t| t == "incriminating-memo"), "{texts:?}");
    // ...and the binlog's verbatim INSERT statements.
    let events = binlog::parse_binlog(disk.file(BINLOG_FILE).unwrap());
    assert!(events
        .iter()
        .any(|e| e.statement.contains("incriminating-memo")));
}

#[test]
fn onion_downgrade_is_datable_and_reversible_by_the_attacker() {
    let db = small_db();
    let mut table = OnionTable::create(&db, &Key([0x51; 32]), "med", 9).unwrap();
    for v in ["flu", "flu", "diabetes"] {
        table.insert(v).unwrap();
    }
    assert_eq!(table.level(), OnionLevel::Rnd);
    // Time passes; then one equality query ratchets the column down.
    db.advance_time(86_400);
    table.select_eq("flu").unwrap();
    assert_eq!(table.level(), OnionLevel::Det);

    // ---- attacker: disk theft ----
    let disk = capture(&db, AttackVector::DiskTheft).persistent_db.unwrap();
    let events = binlog::parse_binlog(disk.file(BINLOG_FILE).unwrap());
    let peel_updates: Vec<_> = events
        .iter()
        .filter(|e| e.statement.starts_with("UPDATE med SET secret"))
        .collect();
    assert_eq!(peel_updates.len(), 3, "one rewrite per row");
    // Datable: the peel happened at least a day after the inserts.
    let insert_ts = events
        .iter()
        .filter(|e| e.statement.starts_with("INSERT INTO med"))
        .map(|e| e.timestamp)
        .max()
        .unwrap();
    assert!(peel_updates[0].timestamp - insert_ts >= 86_400);
    // The LSN-time fit orders the events correctly even on this bursty
    // workload (a steady rate gives second-level accuracy; see E3) —
    // the peel is placed firmly in the later epoch.
    let model = lsn_time::fit(&events).unwrap();
    let est_insert = model.estimate(events[0].lsn);
    let est_peel = model.estimate(peel_updates[0].lsn);
    assert!(
        est_peel - est_insert > 43_200.0,
        "peel must be dated well after the inserts: {est_insert} vs {est_peel}"
    );

    // The undo log hands back the *old RND cells*: proof the column was
    // RND, with before-images intact.
    let befores = wal::reconstruct_before_images(disk.file(UNDO_FILE).unwrap());
    let rnd_cells: Vec<_> = befores
        .iter()
        .filter(|b| b.op == edb_repro::minidb::wal::OpKind::Update)
        .filter_map(|b| b.before.as_ref())
        .collect();
    assert_eq!(rnd_cells.len(), 3);
    // After the peel, the DET histogram leaks from the redo log: take the
    // *latest* after-image per row (the peel rewrote every cell, logged as
    // a delete + reinsert since the cell shrank).
    let mut latest: std::collections::BTreeMap<u64, (u64, Vec<u8>)> = Default::default();
    for w in wal::reconstruct_writes(disk.file(REDO_FILE).unwrap()) {
        if let Some(row) = &w.row {
            if let Value::Bytes(ct) = &row.values[1] {
                let entry = latest.entry(row.id).or_insert((0, Vec::new()));
                if w.lsn >= entry.0 {
                    *entry = (w.lsn, ct.clone());
                }
            }
        }
    }
    let mut counts: std::collections::HashMap<Vec<u8>, usize> = Default::default();
    for (_, (_, ct)) in latest {
        *counts.entry(ct).or_default() += 1;
    }
    let mut hist: Vec<usize> = counts.values().copied().collect();
    hist.sort_unstable();
    assert_eq!(hist, vec![1, 2], "2x flu + 1x diabetes visible in DET");
}
