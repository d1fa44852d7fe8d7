//! Golden disk image: the bytes a seeded statement stream leaves on
//! disk are part of the engine's contract.
//!
//! A cold disk image is what the paper's snapshot attacker (§2) reads,
//! and its richest artifacts (§3) are the circular redo and undo logs
//! and the binlog. This test runs one statement stream through four
//! engine configurations and pins, for every file of the disk image,
//! its name, length and FNV-1a hash, plus the `wal.*` counters. A change
//! to where the engine keeps its logs, how it frames them, or how it
//! wraps, purges or fences them that moves any byte fails here.
//!
//! Every engine gets 4 KiB rings so both wrap several times. The stream
//! covers autocommit INSERT/UPDATE/DELETE, a committed and a rolled-back
//! explicit transaction, a binlog purge, more writes, divergence
//! fencing, a crash with recovery, more writes on the recovered node,
//! and a clean shutdown. The crash wipes the counters with the rest of
//! process memory, so they are pinned both before it and at the end.
//! The traced engine's binlog events carry random trace ids, so for it
//! only file names, lengths and frame counts are pinned.
//!
//! The expected values were captured by running this file at `e367298`,
//! where the WAL still kept its logs outside the virtual disk. The one
//! later change is the `binlog.index` line of each image: since a
//! restarted process derives every log cursor from the disk, the purge
//! writes its horizon there, and that file is the only byte the change
//! moved — the post-crash rings, binlog and pages are as they were when
//! recovery still kept the crashed process's cursors.

use minidb::engine::{Db, DbConfig};
use minidb::wal::carve_all_frames;

mod common;
use common::{fnv, Rng};

#[derive(Clone, Copy, PartialEq)]
enum Engine {
    Plain,
    Encrypted,
    NoBinlog,
    Traced,
}

fn config(engine: Engine) -> DbConfig {
    DbConfig {
        redo_capacity: 4096,
        undo_capacity: 4096,
        binlog_enabled: engine != Engine::NoBinlog,
        trace_enabled: engine == Engine::Traced,
        encrypted_wal: engine == Engine::Encrypted,
        wal_key: (engine == Engine::Encrypted).then_some([0x3C; 32]),
        ..DbConfig::default()
    }
}

fn wal_counters(db: &Db) -> String {
    let snap = db.telemetry().snapshot();
    let mut out = String::new();
    for (name, v) in &snap.counters {
        if name.starts_with("wal.") {
            out += &format!("  {name} = {v}\n");
        }
    }
    out
}

/// Runs the stream and renders what it left behind.
fn render(engine: Engine) -> String {
    let db = Db::open(config(engine));
    let conn = db.connect("app");
    let mut rng = Rng(0x5EED_D15C);
    let run = |sql: String| {
        conn.execute(&sql).unwrap();
    };
    run("CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, bal INT)".into());
    let mut next_id = 0;
    for _ in 0..120 {
        next_id += 1;
        let owner = format!("owner-{:04}", rng.below(10_000));
        run(format!(
            "INSERT INTO acct VALUES ({next_id}, '{owner}', {})",
            rng.below(5_000)
        ));
    }
    let writes = |rng: &mut Rng, next_id: &mut i64, n: usize| {
        for _ in 0..n {
            let id = 1 + rng.below(*next_id as u64);
            match rng.below(4) {
                0 | 1 => run(format!(
                    "UPDATE acct SET bal = {} WHERE id = {id}",
                    rng.below(5_000)
                )),
                2 => run(format!("DELETE FROM acct WHERE id = {id}")),
                _ => {
                    *next_id += 1;
                    run(format!(
                        "INSERT INTO acct VALUES ({}, 'late-{:03}', {})",
                        *next_id,
                        rng.below(1_000),
                        rng.below(5_000)
                    ));
                }
            }
        }
    };
    writes(&mut rng, &mut next_id, 200);
    let txns = [
        ("UPDATE acct SET bal = 1 WHERE id = ", "COMMIT"),
        ("UPDATE acct SET bal = 0 WHERE id = ", "ROLLBACK"),
    ];
    for (i, (sql, end)) in txns.into_iter().enumerate() {
        conn.execute("BEGIN").unwrap();
        for _ in 0..3 {
            let id = 1 + rng.below(next_id as u64);
            conn.execute(&format!("{sql}{id}")).unwrap();
        }
        let id = next_id + 1 + i as i64;
        conn.execute(&format!("INSERT INTO acct VALUES ({id}, 'txn', 7)"))
            .unwrap();
        conn.execute(end).unwrap();
    }
    next_id += 1;
    db.purge_binlog();
    writes(&mut rng, &mut next_id, 80);
    let fenced = db.fence_divergent(db.binlog_next_seq().saturating_sub(5));
    let mut out = format!("fenced events: {}\nbefore crash:\n", fenced.len());
    out += &wal_counters(&db);
    db.crash();
    db.recover().unwrap();
    let rows = conn.execute("SELECT COUNT(*) FROM acct").unwrap();
    out += &format!("rows after recovery: {:?}\n", rows.rows[0][0]);
    // The recovered rings keep their write positions: promoted again,
    // the node appends where the crash left off.
    db.promote_to_primary();
    writes(&mut rng, &mut next_id, 40);
    db.shutdown();
    out += "after shutdown:\n";
    out += &wal_counters(&db);
    let image = db.disk_image();
    for name in image.file_names() {
        let bytes = image.file(name).unwrap();
        out += &if engine == Engine::Traced {
            let frames = carve_all_frames(bytes).count();
            format!("  {name} len={} frames={frames}\n", bytes.len())
        } else {
            format!("  {name} len={} fnv={:016x}\n", bytes.len(), fnv(bytes))
        };
    }
    out
}

fn check(engine: Engine, expected: &str) {
    let actual = render(engine);
    assert!(
        actual == expected,
        "disk image moved; now:\n{actual}\nexpected:\n{expected}"
    );
}

#[test]
fn plaintext_disk_image() {
    check(
        Engine::Plain,
        "\
fenced events: 5
before crash:
  wal.binlog.bytes = 5600
  wal.binlog.events = 75
  wal.fsyncs = 412
  wal.redo.bytes = 43422
  wal.redo.wraps = 10
  wal.undo.bytes = 22671
  wal.undo.wraps = 5
rows after recovery: Int(138)
after shutdown:
  wal.binlog.bytes = 3099
  wal.binlog.events = 40
  wal.fsyncs = 42
  wal.redo.bytes = 4263
  wal.redo.wraps = 1
  wal.undo.bytes = 2361
  wal.undo.wraps = 1
  binlog.000001 len=8699 fnv=9440ce76a285ff60
  binlog.divergent len=385 fnv=d5ead19bb8bb74dd
  binlog.index len=8 fnv=91e652d1ff14223b
  catalog len=90 fnv=aa1bc683f04bfa2b
  checkpoint len=12 fnv=3ee0c91a757b6a3f
  ib_buffer_pool len=137 fnv=378741560c67ab0d
  ib_logfile0 len=4096 fnv=eeecd86b4cc650db
  index_acct_id.ibd len=98304 fnv=dc9cb3c152d82831
  table_acct.ibd len=16384 fnv=5bc586a5f189c969
  undo_001 len=4096 fnv=864c4ab2e49b161d
  undo_versions.ibd len=16186 fnv=1dcb4f0f1d524d4a
",
    );
}

#[test]
fn encrypted_wal_disk_image() {
    check(
        Engine::Encrypted,
        "\
fenced events: 5
before crash:
  wal.binlog.bytes = 8075
  wal.binlog.events = 75
  wal.fsyncs = 419
  wal.redo.bytes = 68865
  wal.redo.wraps = 17
  wal.undo.bytes = 34848
  wal.undo.wraps = 8
rows after recovery: Int(138)
after shutdown:
  wal.binlog.bytes = 4419
  wal.binlog.events = 40
  wal.fsyncs = 42
  wal.redo.bytes = 6705
  wal.redo.wraps = 1
  wal.undo.bytes = 3483
  wal.undo.wraps = 1
  binlog.000001 len=12494 fnv=ce1c93f7cb5305d1
  binlog.divergent len=550 fnv=dcf04a255aa8e6a6
  binlog.index len=8 fnv=91e652d1ff14223b
  catalog len=90 fnv=aa1bc683f04bfa2b
  checkpoint len=12 fnv=3ee0c91a757b6a3f
  ib_buffer_pool len=137 fnv=378741560c67ab0d
  ib_logfile0 len=4096 fnv=a672abcda905711f
  index_acct_id.ibd len=98304 fnv=dc9cb3c152d82831
  table_acct.ibd len=16384 fnv=6f2833832a7306dc
  undo_001 len=4096 fnv=73246171668834af
  undo_versions.ibd len=16186 fnv=1dcb4f0f1d524d4a
",
    );
}

#[test]
fn binlog_disabled_disk_image() {
    check(
        Engine::NoBinlog,
        "\
fenced events: 0
before crash:
  wal.binlog.bytes = 0
  wal.binlog.events = 0
  wal.fsyncs = 412
  wal.redo.bytes = 43422
  wal.redo.wraps = 10
  wal.undo.bytes = 22671
  wal.undo.wraps = 5
rows after recovery: Int(138)
after shutdown:
  wal.binlog.bytes = 0
  wal.binlog.events = 0
  wal.fsyncs = 42
  wal.redo.bytes = 4263
  wal.redo.wraps = 1
  wal.undo.bytes = 2361
  wal.undo.wraps = 1
  binlog.000001 len=0 fnv=cbf29ce484222325
  binlog.index len=8 fnv=a8c7f832281a39c5
  catalog len=90 fnv=aa1bc683f04bfa2b
  checkpoint len=12 fnv=3ee0c91a757b6a3f
  ib_buffer_pool len=137 fnv=378741560c67ab0d
  ib_logfile0 len=4096 fnv=eeecd86b4cc650db
  index_acct_id.ibd len=98304 fnv=dc9cb3c152d82831
  table_acct.ibd len=16384 fnv=5bc586a5f189c969
  undo_001 len=4096 fnv=864c4ab2e49b161d
  undo_versions.ibd len=16186 fnv=1dcb4f0f1d524d4a
",
    );
}

#[test]
fn traced_disk_image_shape() {
    check(
        Engine::Traced,
        "\
fenced events: 5
before crash:
  wal.binlog.bytes = 7475
  wal.binlog.events = 75
  wal.fsyncs = 412
  wal.redo.bytes = 43422
  wal.redo.wraps = 10
  wal.undo.bytes = 22671
  wal.undo.wraps = 5
rows after recovery: Int(138)
after shutdown:
  wal.binlog.bytes = 4099
  wal.binlog.events = 40
  wal.fsyncs = 42
  wal.redo.bytes = 4263
  wal.redo.wraps = 1
  wal.undo.bytes = 2361
  wal.undo.wraps = 1
  binlog.000001 len=11574 frames=115
  binlog.divergent len=510 frames=5
  binlog.index len=8 frames=0
  catalog len=90 frames=0
  checkpoint len=12 frames=0
  ib_buffer_pool len=137 frames=0
  ib_logfile0 len=4096 frames=70
  index_acct_id.ibd len=98304 frames=0
  table_acct.ibd len=16384 frames=0
  undo_001 len=4096 frames=58
  undo_versions.ibd len=16186 frames=0
",
    );
}
