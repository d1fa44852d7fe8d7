//! E13 (extension) — quantifying the paper's thesis: how much of a
//! *persistent* attacker's view does a single realistic *snapshot*
//! already contain?
//!
//! A persistent attacker observes every statement as it executes. The
//! paper's §2 claim is that the "snapshot" model is a myth because one
//! static observation recovers much of that transcript. Here the same
//! victim workload is run once; a persistent observer records all
//! statements, then one VM-snapshot attacker reconstructs statements from
//! every channel it can reach. The overlap is the answer.

use minidb::engine::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::forensics::{binlog, memscan};
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::{pct, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let (writes, reads) = if opts.quick { (100, 200) } else { (800, 1_500) };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x13);

    let config = DbConfig {
        redo_capacity: 8 << 20,
        undo_capacity: 8 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
        .unwrap();

    // The persistent attacker's ground-truth transcript.
    let mut transcript: Vec<String> = Vec::new();
    for i in 0..writes {
        let stmt = format!(
            "INSERT INTO t VALUES ({i}, 'value-{}')",
            rng.gen_range(0..1000)
        );
        conn.execute(&stmt).unwrap();
        transcript.push(stmt);
    }
    for _ in 0..reads {
        let stmt = format!("SELECT * FROM t WHERE id = {}", rng.gen_range(0..writes));
        conn.execute(&stmt).unwrap();
        transcript.push(stmt);
    }

    // One snapshot.
    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let disk = obs.persistent_db.unwrap();
    let mem = obs.volatile_db.unwrap();

    // Channels: binlog (verbatim writes), statement history, query cache,
    // heap carving (verbatim statements), digest table (statement *types*
    // with counts).
    let mut recovered: std::collections::BTreeSet<String> = Default::default();
    for e in binlog::parse_binlog(disk.file(minidb::wal::BINLOG_FILE).unwrap()) {
        recovered.insert(e.statement);
    }
    for e in &mem.statements_history {
        recovered.insert(e.sql_text.clone());
    }
    for q in &mem.cached_queries {
        recovered.insert(q.clone());
    }
    for s in memscan::carve_sql(&mem.heap) {
        recovered.insert(s.text.clone());
    }

    let verbatim = transcript.iter().filter(|s| recovered.contains(*s)).count();
    let writes_recovered = transcript[..writes]
        .iter()
        .filter(|s| recovered.contains(*s))
        .count();
    let reads_recovered = verbatim - writes_recovered;
    // Digest coverage: every statement whose *type and count* the digest
    // table records (all of them — canonicalized).
    let digest_count: u64 = mem.digest_summary.iter().map(|d| d.count_star).sum();

    let mut t = Table::new(
        "E13 - one snapshot vs the persistent attacker's transcript",
        &["metric", "value"],
    );
    t.row(&[
        "statements in the persistent transcript".into(),
        transcript.len().to_string(),
    ]);
    t.row(&[
        "verbatim statements recovered from one snapshot".into(),
        format!(
            "{verbatim} ({})",
            pct(verbatim as f64 / transcript.len() as f64)
        ),
    ]);
    t.row(&[
        "  - writes recovered verbatim".into(),
        format!(
            "{writes_recovered}/{writes} ({})",
            pct(writes_recovered as f64 / writes as f64)
        ),
    ]);
    t.row(&[
        "  - reads recovered verbatim".into(),
        format!(
            "{reads_recovered}/{reads} ({})",
            pct(reads_recovered as f64 / reads as f64)
        ),
    ]);
    t.row(&[
        "statements covered by digest type+count records".into(),
        format!(
            "{digest_count} ({})",
            pct(digest_count as f64 / transcript.len() as f64)
        ),
    ]);
    t.claim(
        "every committed write is recovered verbatim (binlog)",
        writes_recovered as f64 / writes as f64 >= 0.999,
    );
    t.claim(
        "query cache, history and heap recover more than 10% of reads verbatim",
        reads_recovered as f64 / reads as f64 > 0.10,
    );
    opts.absorb_db(&db);
    vec![t]
}
