//! E3 — §3: the binlog yields statement text + timestamps; LSN–time
//! correlation dates undo/redo records that predate the binlog horizon
//! (here: an administrative `PURGE BINARY LOGS` wiped the early binlog).

use minidb::engine::{Db, DbConfig};
use minidb::wal::{BINLOG_FILE, REDO_FILE};
use snapshot_attack::forensics::{binlog, lsn_time, wal};
use snapshot_attack::report::Table;

use crate::{f2, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let n = if opts.quick { 300 } else { 2_000 };
    let config = DbConfig {
        redo_capacity: 8 << 20,
        undo_capacity: 8 << 20,
        seconds_per_statement: 3, // A write every 3 seconds.
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE events (id INT PRIMARY KEY, note TEXT)")
        .unwrap();

    // Phase 1: early history (will be purged from the binlog).
    for i in 0..n {
        conn.execute(&format!("INSERT INTO events VALUES ({i}, 'early-{i}')"))
            .unwrap();
    }
    // Ground truth for phase 1, taken from the binlog *before* the purge
    // (the attacker will never see this).
    let truth: Vec<(u64, i64)> = binlog::parse_binlog(db.disk_image().file(BINLOG_FILE).unwrap())
        .iter()
        .map(|e| (e.lsn, e.timestamp))
        .collect();

    db.purge_binlog(); // Admin housekeeping.

    // Phase 2: recent history, still in the binlog.
    for i in n..2 * n {
        conn.execute(&format!("INSERT INTO events VALUES ({i}, 'late-{i}')"))
            .unwrap();
    }

    // ---- attacker: disk only ----
    let disk = db.disk_image();
    let events = binlog::parse_binlog(disk.file(BINLOG_FILE).unwrap());
    let model = lsn_time::fit(&events).expect("enough binlog points");

    // The redo log still holds phase-1 records (it was not purged); the
    // attacker dates them with the fitted model.
    let redo = wal::reconstruct_writes(disk.file(REDO_FILE).unwrap());
    let horizon = events.first().map(|e| e.lsn).unwrap_or(u64::MAX);
    let mut err_sum = 0.0;
    let mut err_max: f64 = 0.0;
    let mut dated = 0usize;
    for w in redo.iter().filter(|w| w.lsn < horizon) {
        // Ground truth: the pre-purge binlog event of the same txn commit.
        if let Some((_, true_ts)) = truth.iter().min_by_key(|(l, _)| l.abs_diff(w.lsn)) {
            let est = model.estimate(w.lsn);
            let err = (est - *true_ts as f64).abs();
            err_sum += err;
            err_max = err_max.max(err);
            dated += 1;
        }
    }

    let span_secs = (2 * n) as f64 * 3.0;
    let mean_err = if dated == 0 {
        0.0
    } else {
        err_sum / dated as f64
    };
    let mut t = Table::new(
        "E3 - dating purged history via LSN-rate correlation",
        &["metric", "value"],
    );
    t.row(&[
        "binlog events visible (post-purge)".into(),
        events.len().to_string(),
    ]);
    t.row(&["fit slope (sec/LSN)".into(), format!("{:.4}", model.slope)]);
    t.row(&["purged redo records dated".into(), dated.to_string()]);
    t.row(&["mean dating error (sec)".into(), f2(mean_err)]);
    t.row(&["max dating error (sec)".into(), f2(err_max)]);
    t.row(&["workload span (sec)".into(), f2(span_secs)]);
    t.claim("the attacker finds purged redo records to date", dated > 0);
    // A steady write rate keeps the extrapolation error small.
    t.claim(
        "the mean dating error is under 5% of the workload span",
        mean_err < span_secs * 0.05,
    );
    opts.absorb_db(&db);
    vec![t]
}
