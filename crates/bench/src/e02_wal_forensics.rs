//! E2 — §3 "Inferring writes": reconstruct insert/update/delete queries
//! from the circular undo/redo logs, and reproduce the paper's retention
//! arithmetic ("with 1 write modifying a 20-byte field per second, the
//! undo and redo logs of default size (50 Mb) store 16 days' worth of
//! inserts").

use corpus::workload::{write_stream, Write, WriteStreamParams};
use minidb::engine::{Db, DbConfig};
use minidb::wal::{OpKind, DEFAULT_LOG_CAPACITY, REDO_FILE, UNDO_FILE};
use snapshot_attack::forensics::wal::{
    history_stats, reconstruct_before_images, reconstruct_writes,
};
use snapshot_attack::report::Table;

use crate::{f2, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let writes = if opts.quick { 500 } else { 5_000 };
    // Small logs so the run wraps; the retention *arithmetic* is then
    // extrapolated to the 50 MB default, as the paper does.
    let config = DbConfig {
        redo_capacity: 1 << 20,
        undo_capacity: 1 << 20,
        seconds_per_statement: 1, // 1 write per second.
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("oltp");
    conn.execute("CREATE TABLE ledger (id INT PRIMARY KEY, payload TEXT)")
        .unwrap();

    let stream = write_stream(&WriteStreamParams {
        count: writes,
        payload_len: 20, // The paper's 20-byte field.
        update_fraction: 0.2,
        delete_fraction: 0.05,
        seed: opts.seed,
    });
    let mut issued = (0usize, 0usize, 0usize);
    for w in &stream {
        match w {
            Write::Insert { id, payload } => {
                issued.0 += 1;
                conn.execute(&format!("INSERT INTO ledger VALUES ({id}, '{payload}')"))
                    .unwrap();
            }
            Write::Update { id, payload } => {
                issued.1 += 1;
                conn.execute(&format!(
                    "UPDATE ledger SET payload = '{payload}' WHERE id = {id}"
                ))
                .unwrap();
            }
            Write::Delete { id } => {
                issued.2 += 1;
                conn.execute(&format!("DELETE FROM ledger WHERE id = {id}"))
                    .unwrap();
            }
        }
    }

    // ---- attacker: disk only ----
    let disk = db.disk_image();
    let redo_raw = disk.file(REDO_FILE).unwrap();
    let undo_raw = disk.file(UNDO_FILE).unwrap();
    let recovered = reconstruct_writes(redo_raw);
    let befores = reconstruct_before_images(undo_raw);

    let count_op = |op: OpKind| recovered.iter().filter(|w| w.op == op).count();
    let mut t1 = Table::new(
        "E2a - write reconstruction from the redo log (1 MiB circular)",
        &["metric", "issued", "recovered from snapshot"],
    );
    t1.row(&[
        "INSERT".into(),
        issued.0.to_string(),
        count_op(OpKind::Insert).to_string(),
    ]);
    t1.row(&[
        "UPDATE".into(),
        issued.1.to_string(),
        // Moved updates log Delete+Insert; in-place ones log Update.
        count_op(OpKind::Update).to_string(),
    ]);
    t1.row(&[
        "DELETE".into(),
        issued.2.to_string(),
        count_op(OpKind::Delete).to_string(),
    ]);
    t1.row(&[
        "full row images decoded".into(),
        "-".into(),
        recovered
            .iter()
            .filter(|w| w.row.is_some())
            .count()
            .to_string(),
    ]);
    t1.row(&[
        "before-images (undo)".into(),
        "-".into(),
        befores.len().to_string(),
    ]);
    let kinds = [
        (issued.0, OpKind::Insert),
        (issued.1, OpKind::Update),
        (issued.2, OpKind::Delete),
    ];
    t1.claim(
        "no write kind is recovered more often than issued (+1)",
        kinds.iter().all(|&(n, op)| count_op(op) <= n + 1),
    );

    // Retention arithmetic extrapolated to the 50 MB default.
    let redo_stats = history_stats(redo_raw, DEFAULT_LOG_CAPACITY);
    let undo_stats = history_stats(undo_raw, DEFAULT_LOG_CAPACITY);
    let mut t2 = Table::new(
        "E2b - days of history in 50 MB at 1 write/sec (paper: ~16 days)",
        &[
            "log",
            "mean record bytes",
            "records at 50 MB",
            "days of history",
        ],
    );
    t2.row(&[
        "redo".into(),
        f2(redo_stats.mean_record_bytes),
        format!("{:.0}", redo_stats.records_at_capacity),
        f2(redo_stats.days_of_history(1.0)),
    ]);
    t2.row(&[
        "undo".into(),
        f2(undo_stats.mean_record_bytes),
        format!("{:.0}", undo_stats.records_at_capacity),
        f2(undo_stats.days_of_history(1.0)),
    ]);
    // The paper's arithmetic is for a pure-insert workload ("16 days'
    // worth of inserts"); insert undo records carry no before-image.
    let insert_undo_bytes = {
        use minidb::wal::{carve_frames, UndoRecord};
        let recs: Vec<usize> = carve_frames(undo_raw)
            .into_iter()
            .filter_map(|(_, p)| UndoRecord::decode(p).ok().map(|r| (r, p.len() + 8)))
            .filter(|(r, _)| r.op == OpKind::Insert)
            .map(|(_, sz)| sz)
            .collect();
        recs.iter().sum::<usize>() as f64 / recs.len().max(1) as f64
    };
    let insert_days = DEFAULT_LOG_CAPACITY as f64 / insert_undo_bytes / 86_400.0;
    t2.row(&[
        "undo, inserts only (paper's workload)".into(),
        f2(insert_undo_bytes),
        format!("{:.0}", DEFAULT_LOG_CAPACITY as f64 / insert_undo_bytes),
        f2(insert_days),
    ]);
    t2.row(&[
        "paper (either log)".into(),
        "-".into(),
        "-".into(),
        "16".into(),
    ]);
    let undo_days = undo_stats.days_of_history(1.0);
    t2.claim(
        "undo retention at 50 MB lands in the paper's order of magnitude (4-40 days)",
        undo_days > 4.0 && undo_days < 40.0,
    );
    opts.absorb_db(&db);
    vec![t1, t2]
}
