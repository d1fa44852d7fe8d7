//! E20 (extension) — sealed log records: closing the log-forensics
//! channels (E2 redo/undo, E3 binlog, E14 relay).
//!
//! The experiment re-runs the keyless carvers from E2/E3/E14 against two
//! cold images of the same workload: a stock plaintext engine and one with
//! `DbConfig::encrypted_wal` (BigFoot-style AEAD-sealed log records,
//! nonce = stream ‖ LSN). The plaintext image reconstructs the write
//! history verbatim; the encrypted image yields **zero** statements,
//! zero row images, and zero timestamps — the attacker sees only sealed
//! frames (lengths and stream ids, the residual metadata leak).
//! Replication is measured the same way: an encrypted fleet relays
//! ciphertext, so the E14 "snapshot any replica" move also goes dark.
//! The key holder still opens every sealed frame (E20b). What sealing
//! costs is priced end to end by the benchmark: `oltp_repl_hardened`
//! (sealed logs plus group commit) against `oltp_repl_seed`.

use mdb_repl::router::{ReplicaSet, ReplicaSetConfig};
use minidb::engine::{Db, DbConfig};
use minidb::wal::{carve_enc_frames, BINLOG_FILE, REDO_FILE, UNDO_FILE};
use snapshot_attack::forensics::{binlog, relay, wal};
use snapshot_attack::report::Table;

use crate::Options;

/// The log key every encrypted node in the experiment shares.
const KEY: [u8; 32] = [0xE2; 32];

/// A sensitive value the carvers hunt for as a raw byte window.
const SECRET: &[u8] = b"dx-oncology";

fn encrypted_config() -> DbConfig {
    DbConfig {
        encrypted_wal: true,
        wal_key: Some(KEY),
        group_commit: true,
        ..DbConfig::default()
    }
}

/// Runs the single-node workload and returns the database.
fn run_workload(db: &Db, writes: usize) {
    let conn = db.connect("oltp");
    conn.execute("CREATE TABLE visits (id INT PRIMARY KEY, diagnosis TEXT)")
        .unwrap();
    for i in 0..writes {
        conn.execute(&format!(
            "INSERT INTO visits VALUES ({i}, 'dx-oncology-{i}')"
        ))
        .unwrap();
    }
    for i in (0..writes).step_by(4) {
        conn.execute(&format!(
            "UPDATE visits SET diagnosis = 'dx-remission-{i}' WHERE id = {i}"
        ))
        .unwrap();
    }
}

/// Counts raw byte windows of [`SECRET`] in an image file.
fn secret_windows(raw: &[u8]) -> usize {
    raw.windows(SECRET.len()).filter(|w| *w == SECRET).count()
}

/// Builds a 1-primary / 2-replica fleet, runs writes, purges the
/// primary's binlog, and returns the E14 relay carve count from replica
/// 0 plus the sealed-frame count in the same relay file.
fn fleet_relay_carve(base: DbConfig, writes: usize) -> (usize, usize, usize) {
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        base,
        ..ReplicaSetConfig::default()
    })
    .expect("fleet starts");
    set.write("CREATE TABLE visits (id INT PRIMARY KEY, diagnosis TEXT)")
        .unwrap();
    for i in 0..writes {
        set.write(&format!(
            "INSERT INTO visits VALUES ({i}, 'dx-oncology-{i}')"
        ))
        .unwrap();
    }
    assert!(set.wait_for_sync(std::time::Duration::from_secs(30)));
    set.primary().purge_binlog();
    let image = set.replica(0).system_image();
    let carved = relay::carve_relay(&image.disk).len();
    let relay_raw = relay::relay_files(&image.disk)
        .first()
        .and_then(|name| image.disk.file(name))
        .unwrap_or(&[]);
    let sealed = carve_enc_frames(relay_raw).len();
    let windows = secret_windows(relay_raw);
    set.shutdown();
    (carved, sealed, windows)
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let writes = if opts.quick { 120 } else { 600 };
    let fleet_writes = if opts.quick { 24 } else { 120 };

    let plain_db = Db::open(DbConfig::default());
    run_workload(&plain_db, writes);
    let enc_db = Db::open(encrypted_config());
    run_workload(&enc_db, writes);

    let plain_disk = plain_db.disk_image();
    let enc_disk = enc_db.disk_image();
    let file = |disk: &minidb::DiskImage, name: &str| -> Vec<u8> {
        disk.file(name).unwrap_or(&[]).to_vec()
    };

    let mut carvers = Table::new(
        "E20a - keyless log carvers vs encrypted_wal (same workload)",
        &[
            "channel",
            "carver",
            "plaintext image",
            "encrypted image",
            "sealed frames",
            "secret windows (enc)",
        ],
    );
    let e_redo = file(&enc_disk, REDO_FILE);
    // Each channel: what its carver recovers from the plaintext and the
    // encrypted image, the sealed frames and secret windows in the latter.
    let log = |name: &str, carve: fn(&[u8]) -> usize| {
        let (plain, enc) = (file(&plain_disk, name), file(&enc_disk, name));
        let sealed = carve_enc_frames(&enc).len();
        (carve(&plain), carve(&enc), sealed, secret_windows(&enc))
    };
    let channels = [
        (
            "redo log",
            "E2 reconstruct_writes",
            log(REDO_FILE, |raw| wal::reconstruct_writes(raw).len()),
        ),
        (
            "undo log",
            "E2 before-images",
            log(UNDO_FILE, |raw| wal::reconstruct_before_images(raw).len()),
        ),
        (
            "binlog",
            "E3 parse_binlog",
            log(BINLOG_FILE, |raw| binlog::parse_binlog(raw).len()),
        ),
        (
            "relay log (replica 0, primary purged)",
            "E14 carve_relay",
            {
                let (plain, ..) = fleet_relay_carve(DbConfig::default(), fleet_writes);
                let (enc, sealed, windows) = fleet_relay_carve(encrypted_config(), fleet_writes);
                (plain, enc, sealed, windows)
            },
        ),
    ];
    for (channel, carver, (plain, enc, sealed, windows)) in channels {
        carvers.row(&[
            channel.into(),
            carver.into(),
            plain.to_string(),
            enc.to_string(),
            sealed.to_string(),
            windows.to_string(),
        ]);
    }
    carvers.claim(
        "every keyless carver recovers from the plaintext image and nothing from the sealed one",
        channels
            .iter()
            .all(|(.., (plain, enc, ..))| *plain > 0 && *enc == 0),
    );
    carvers.claim(
        "the sealed frames stay visible, with no secret byte window",
        channels
            .iter()
            .all(|(.., (_, _, sealed, windows))| *sealed > 0 && *windows == 0),
    );

    // The key holder still recovers everything (recovery must work).
    let mut recovery = Table::new(
        "E20b - key-holder recovery from the encrypted image",
        &["metric", "value"],
    );
    // The origin passed here only affects *sealing*; open() reads each
    // frame's origin from its authenticated header, so any key holder
    // opens any node's records.
    let crypto = minidb::wal::WalCrypto::new(KEY, 0);
    let opened = carve_enc_frames(&e_redo)
        .iter()
        .filter(|(_, sealed)| crypto.open(sealed).is_some())
        .count();
    recovery.row(&[
        "sealed redo frames opened with key".into(),
        opened.to_string(),
    ]);
    let readable = enc_db
        .connect("audit")
        .execute("SELECT COUNT(*) FROM visits")
        .unwrap()
        .rows[0][0]
        .clone();
    recovery.row(&["rows readable through engine".into(), readable.to_string()]);
    recovery.claim(
        "the key holder opens the sealed frames and reads every row",
        opened > 0 && readable == minidb::value::Value::Int(writes as i64),
    );

    opts.absorb_db(&plain_db);
    opts.absorb_db(&enc_db);
    vec![carvers, recovery]
}
