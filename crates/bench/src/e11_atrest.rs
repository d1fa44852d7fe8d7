//! E11 — §6 "At-rest encryption": a disk-only attacker learns nothing but
//! side channels (file sizes); any memory-seeing attacker recovers the
//! key from the process heap and decrypts everything.

use edb::atrest::{carve_keyring_key, AtRest};
use edb_crypto::Key;
use minidb::engine::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snapshot_attack::forensics::{binlog, memscan};
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::Options;

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let config = DbConfig {
        redo_capacity: 1 << 20,
        undo_capacity: 1 << 20,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let at_rest = AtRest::install(&db, &Key([0x0A; 32]));
    let conn = db.connect("app");
    conn.execute("CREATE TABLE vault (id INT PRIMARY KEY, secret TEXT)")
        .unwrap();
    for i in 0..30 {
        conn.execute(&format!(
            "INSERT INTO vault VALUES ({i}, 'classified-record-{i}')"
        ))
        .unwrap();
    }
    db.shutdown();

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let plain_disk = db.disk_image();
    let encrypted_disk = at_rest.encrypt_disk(&plain_disk, &mut rng);

    // ---- attacker 1: disk theft (encrypted disk) ----
    let stolen = &encrypted_disk;
    let plaintext_found = stolen.files.values().any(|data| {
        data.windows(b"classified-record".len())
            .any(|w| w == b"classified-record")
    });
    let binlog_readable = stolen
        .file(minidb::wal::BINLOG_FILE)
        .map(|raw| binlog::parse_binlog(raw).len())
        .unwrap_or(0);

    // ---- attacker 2: VM snapshot (memory + encrypted disk) ----
    let obs = capture(&db, AttackVector::VmSnapshotLeak);
    let mem = obs.volatile_db.unwrap();
    let carved = carve_keyring_key(&mem.heap);
    let decrypted = carved.as_ref().map(|key| {
        let attacker = AtRest::from_key(key.clone());
        attacker.decrypt_disk(&encrypted_disk)
    });
    let (full_recovery, recovered_binlog) = match decrypted {
        Some(Ok(disk)) => {
            let stmts = disk
                .file(minidb::wal::BINLOG_FILE)
                .map(|raw| binlog::parse_binlog(raw).len())
                .unwrap_or(0);
            let secrets = disk.files.values().any(|d| {
                d.windows(b"classified-record".len())
                    .any(|w| w == b"classified-record")
            });
            (secrets, stmts)
        }
        _ => (false, 0),
    };
    // The memory image alone also holds query history (heap SQL).
    let heap_sql = memscan::carve_sql(&mem.heap).len();

    let mut t = Table::new(
        "E11 - at-rest (tablespace) encryption per attack vector",
        &["attacker", "plaintext data", "binlog statements", "notes"],
    );
    t.row(&[
        "disk theft (encrypted disk)".into(),
        if plaintext_found { "LEAKED" } else { "none" }.into(),
        binlog_readable.to_string(),
        format!(
            "only file names/sizes visible ({} files)",
            stolen.files.len()
        ),
    ]);
    t.row(&[
        "VM snapshot (memory + disk)".into(),
        if full_recovery {
            "ALL (key carved from heap)"
        } else {
            "none"
        }
        .into(),
        recovered_binlog.to_string(),
        format!("plus {heap_sql} SQL strings straight from the heap"),
    ]);
    t.claim(
        "the encrypted disk shows no plaintext and no readable binlog",
        !plaintext_found && binlog_readable == 0,
    );
    t.claim(
        "the key carved from the heap decrypts everything, 30+ binlog statements included",
        full_recovery && recovered_binlog >= 30,
    );
    opts.absorb_db(&db);
    vec![t]
}
