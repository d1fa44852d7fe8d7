//! E4 — §3 "Inferring reads": the buffer-pool dump file reveals the
//! B+ tree paths of recent `SELECT`s from persistent state alone.

use minidb::engine::{Db, DbConfig};
use minidb::storage::DUMP_FILE;
use minidb::value::Value;
use snapshot_attack::forensics::bufpool::{parse_dump, recently_read_ranges};
use snapshot_attack::report::Table;

use crate::{pct, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let rows = if opts.quick { 2_000 } else { 20_000 };
    let queries: &[(i64, i64)] = &[(100, 140), (9_000, 9_030), (15_000, 15_020)];

    let config = DbConfig {
        redo_capacity: 16 << 20,
        undo_capacity: 16 << 20,
        buffer_pool_pages: 96,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE s (k INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(200) {
        let values: Vec<String> = chunk.iter().map(|i| format!("({i}, 'v{i}')")).collect();
        conn.execute(&format!("INSERT INTO s VALUES {}", values.join(", ")))
            .unwrap();
    }
    // The victim's recent reads.
    for &(lo, hi) in queries {
        if hi < rows as i64 {
            conn.execute(&format!("SELECT * FROM s WHERE k >= {lo} AND k <= {hi}"))
                .unwrap();
        }
    }
    db.shutdown(); // Writes the LRU dump, like MySQL.

    // ---- attacker: disk only ----
    let disk = db.disk_image();
    let dump = parse_dump(disk.file(DUMP_FILE).unwrap());
    let ranges = recently_read_ranges(&dump, "index_s_k.ibd", disk.file("index_s_k.ibd").unwrap());

    // Which dumped leaves hold keys a victim query asked for.
    let ran: Vec<(i64, i64)> = queries
        .iter()
        .copied()
        .filter(|&(_, hi)| hi < rows as i64)
        .collect();
    let ranked: Vec<(u32, i64, i64, bool)> = ranges
        .iter()
        .filter_map(|(page, min, max)| {
            let (Value::Int(lo), Value::Int(hi)) = (min, max) else {
                return None;
            };
            let overlap = ran.iter().any(|&(qlo, qhi)| *lo <= qhi && *hi >= qlo);
            Some((*page, *lo, *hi, overlap))
        })
        .collect();

    let mut t = Table::new(
        "E4 - recently read key ranges from the buffer-pool dump",
        &["rank", "leaf page", "key range", "overlaps a victim query"],
    );
    for (rank, (page, lo, hi, overlap)) in ranked.iter().take(8).enumerate() {
        t.row(&[
            (rank + 1).to_string(),
            page.to_string(),
            format!("[{lo}, {hi}]"),
            if *overlap { "yes".into() } else { "no".into() },
        ]);
    }
    // The score is over what the victim touched, not a fixed top-N: how
    // many leaves a range covers depends on how full the leaves are.
    let touched = ranked.iter().filter(|(.., overlap)| *overlap).count();
    let leading = ranked.iter().take_while(|(.., overlap)| *overlap).count();
    t.claim(
        "the hottest dumped leaf holds keys a victim query read",
        ranked.first().is_some_and(|(.., overlap)| *overlap),
    );
    let mut summary = Table::new("E4 - summary", &["metric", "value"]);
    summary.row(&["leaf pages in dump".into(), ranked.len().to_string()]);
    summary.row(&[
        "victim-read leaves ranked ahead of every other leaf".into(),
        format!(
            "{leading}/{touched} ({})",
            pct(leading as f64 / touched.max(1) as f64)
        ),
    ]);
    summary.claim(
        "every leaf a victim query read outranks every leaf it did not",
        touched > 0 && leading == touched,
    );
    opts.absorb_db(&db);
    vec![t, summary]
}
