//! E10 — §6 "Arx": the read-repair protocol writes a transcript of every
//! range query into the transaction logs; structure + rank then recover
//! the encrypted index's values.

use edb::arx::ArxRangeIndex;
use edb_crypto::Key;
use minidb::engine::{Db, DbConfig};
use minidb::wal::BINLOG_FILE;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::attacks::arx_transcript::{
    reconstruct_transcripts, recover_values_by_rank, visit_frequencies,
};
use snapshot_attack::forensics::binlog::parse_binlog;
use snapshot_attack::report::Table;

use crate::{f2, pct, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let (n, q) = if opts.quick { (256, 20) } else { (2_048, 100) };
    let domain = 1_000_000u64;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xA3);

    let config = DbConfig {
        redo_capacity: 32 << 20,
        undo_capacity: 32 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let mut ix = ArxRangeIndex::create(&db, &Key([0x42; 32]), "arx_salary", opts.seed).unwrap();
    let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0..domain)).collect();
    for (row, &v) in values.iter().enumerate() {
        ix.insert(v, row as u64).unwrap();
    }
    // Victim range queries (uniform endpoints).
    let mut true_visits = Vec::new();
    for _ in 0..q {
        let a = rng.gen_range(0..domain);
        let b = rng.gen_range(0..domain);
        let (lo, hi) = (a.min(b), a.max(b));
        let matched = ix.range(lo, hi).unwrap();
        true_visits.push(matched.len());
    }

    // ---- attacker: persistent state only (disk theft) ----
    let disk = db.disk_image();
    let events = parse_binlog(disk.file(BINLOG_FILE).unwrap());
    let transcripts = reconstruct_transcripts(&events, "arx_salary");
    let freqs = visit_frequencies(&transcripts);

    // Rank-based value recovery with an independent auxiliary sample.
    let mut aux: Vec<u64> = (0..4 * n).map(|_| rng.gen_range(0..domain)).collect();
    aux.sort_unstable();
    let recovered = recover_values_by_rank(&ix.oracle_inorder(), &aux);
    let mut rel_err = 0.0;
    for (node, est) in &recovered {
        rel_err += (ix.oracle_value(*node) as f64 - *est as f64).abs() / domain as f64;
    }
    let mean_rel_err = rel_err / recovered.len().max(1) as f64;

    let mut t = Table::new(
        "E10 - Arx: range-query transcripts from the transaction logs",
        &["metric", "value", "paper"],
    );
    t.row(&["range queries issued".into(), q.to_string(), "-".into()]);
    t.row(&[
        "transcripts reconstructed from binlog".into(),
        transcripts.len().to_string(),
        "every query".into(),
    ]);
    t.row(&[
        "index nodes with visit counts leaked".into(),
        format!("{}/{}", freqs.len(), ix.len()),
        "-".into(),
    ]);
    let mean_path: f64 = transcripts
        .iter()
        .map(|t| t.visited.len() as f64)
        .sum::<f64>()
        / transcripts.len().max(1) as f64;
    t.row(&[
        "mean nodes visited per query".into(),
        f2(mean_path),
        "-".into(),
    ]);
    t.row(&[
        "mean relative error of rank-based value recovery".into(),
        pct(mean_rel_err),
        "-".into(),
    ]);
    t.row(&[
        "uniform-guess baseline error".into(),
        pct(1.0 / 3.0),
        "-".into(),
    ]);
    t.claim(
        "every range query leaves a transcript in the binlog",
        transcripts.len() == q,
    );
    t.claim(
        "rank-based recovery's mean relative error is under 5%",
        mean_rel_err < 0.05,
    );
    opts.absorb_db(&db);
    vec![t]
}
