//! Disk theft forensics (§3): reconstruct the write history — full row
//! images with approximate timestamps — from nothing but the stolen disk.
//!
//! ```text
//! cargo run --release --example disk_theft_forensics
//! ```

use minidb::engine::{Db, DbConfig};
use minidb::wal::{BINLOG_FILE, REDO_FILE, UNDO_FILE};
use snapshot_attack::forensics::{binlog, lsn_time, wal};
use snapshot_attack::threat::{capture, AttackVector};

fn main() {
    let config = DbConfig {
        seconds_per_statement: 60, // One write a minute.
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("payroll");
    conn.execute("CREATE TABLE salaries (id INT PRIMARY KEY, name TEXT, amount INT)")
        .unwrap();
    conn.execute("INSERT INTO salaries VALUES (1, 'alice', 95000)")
        .unwrap();
    conn.execute("INSERT INTO salaries VALUES (2, 'bob', 72000)")
        .unwrap();
    conn.execute("UPDATE salaries SET amount = 105000 WHERE id = 1")
        .unwrap();
    conn.execute("DELETE FROM salaries WHERE id = 2").unwrap();

    // Admin hygiene: purge the binlog. (The circular redo/undo logs
    // cannot be purged -- ACID needs them.)
    let pre_purge = binlog::parse_binlog(db.disk_image().file(BINLOG_FILE).unwrap());
    db.purge_binlog();
    conn.execute("INSERT INTO salaries VALUES (3, 'carol', 88000)")
        .unwrap();
    conn.execute("INSERT INTO salaries VALUES (4, 'dave', 61000)")
        .unwrap();

    // --- the theft ---
    let obs = capture(&db, AttackVector::DiskTheft);
    let disk = obs.persistent_db.expect("disk theft yields the disk");
    println!("stolen files: {:?}\n", disk.file_names());

    println!("--- redo log: reconstructed writes (Fruhwirt-style carving) ---");
    let writes = wal::reconstruct_writes(disk.file(REDO_FILE).unwrap());
    let events = binlog::parse_binlog(disk.file(BINLOG_FILE).unwrap());
    let model = lsn_time::fit(&events);
    for w in &writes {
        let when = model
            .map(|m| format!("~t={}", m.estimate(w.lsn) as i64))
            .unwrap_or_else(|| "t=?".into());
        match &w.row {
            Some(row) => println!("  lsn {:>3} {when} {:?} row{:?}", w.lsn, w.op, row.values),
            None => println!("  lsn {:>3} {when} {:?} (tombstone)", w.lsn, w.op),
        }
    }

    println!("\n--- undo log: before-images (what updates/deletes destroyed) ---");
    for b in wal::reconstruct_before_images(disk.file(UNDO_FILE).unwrap()) {
        if let Some(row) = &b.before {
            println!("  lsn {:>3} {:?} was {:?}", b.lsn, b.op, row.values);
        }
    }

    println!("\n--- binlog (post-purge remnant): statements with timestamps ---");
    for e in &events {
        println!("  t={} {}", e.timestamp, e.statement);
    }
    println!(
        "\nNote: alice's old salary (95000) was only ever 'deleted' -- yet the\n\
         undo log hands it back. And the purged history ({} events) is still\n\
         datable through the LSN-time fit shown above.",
        pre_purge.len()
    );
}
