//! Divergent-tail forensics: the failover quarantine file, carved from a
//! **deposed primary's** image.
//!
//! When a fleet fails over, the old primary's binlog tail past the
//! promoted cursor — every write it acked but never replicated — is
//! fenced into the `binlog.divergent` sidecar. Operationally that is
//! the *safe* move (the acked data is preserved instead of silently
//! truncated), but it concentrates exactly the most interesting
//! secrets in one small file: data recent enough to be unreplicated is
//! data written moments before the crash. A cold image of the corpse —
//! the disk of a machine that, by definition, just failed and is
//! awaiting repair — yields the whole tail to the same keyless
//! `carve_frames` scan as a stolen binlog. With `encrypted_wal`, the
//! sidecar inherits the binlog's sealed frames: the keyless carve
//! recovers nothing, while the key holder still decodes the quarantined
//! writes in full (that is the point of quarantining instead of
//! deleting).

use minidb::snapshot::DiskImage;
use minidb::wal::{carve_all_frames, BinlogEvent, DIVERGENT_FILE};
use minidb::Db;

use super::binlog::parse_binlog;

/// Raw bytes of the quarantine sidecar, if the imaged node was fenced.
pub fn divergent_file(disk: &DiskImage) -> Option<&[u8]> {
    disk.file(DIVERGENT_FILE)
}

/// Keyless carve: every plaintext statement recoverable from the
/// sidecar. On a plaintext fleet this is the deposed primary's entire
/// unreplicated tail; on an `encrypted_wal` fleet it is empty.
pub fn carve_divergent(disk: &DiskImage) -> Vec<BinlogEvent> {
    divergent_file(disk).map(parse_binlog).unwrap_or_default()
}

/// `(total, sealed)` frame counts in the sidecar — the attacker can
/// always see how *many* writes diverged, even when every frame is
/// sealed (size-and-count metadata is not hidden by the AEAD).
pub fn frame_census(disk: &DiskImage) -> (usize, usize) {
    let Some(raw) = divergent_file(disk) else {
        return (0, 0);
    };
    carve_all_frames(raw).fold((0, 0), |(total, sealed), (_, s, _)| {
        (total + 1, sealed + usize::from(s))
    })
}

/// Key-holder recovery: decodes every sidecar frame with `key_holder`'s
/// log key (each frame under the codec its magic declares). This is the
/// legitimate operator path for re-injecting quarantined writes after a
/// failover post-mortem.
pub fn recover_with_key(disk: &DiskImage, key_holder: &Db) -> Vec<BinlogEvent> {
    let Some(raw) = divergent_file(disk) else {
        return Vec::new();
    };
    carve_all_frames(raw)
        .filter_map(|(_, sealed, p)| key_holder.decode_binlog_frame(sealed, p).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::DbConfig;

    fn fenced_db(config: DbConfig) -> Db {
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        conn.execute("INSERT INTO t VALUES (1, 'replicated')")
            .unwrap();
        conn.execute("INSERT INTO t VALUES (2, 'secret-unreplicated')")
            .unwrap();
        // Failover happened elsewhere with the promoted cursor at 2:
        // the second INSERT never replicated.
        let fenced = db.fence_divergent(2);
        assert_eq!(fenced.len(), 1);
        db
    }

    #[test]
    fn carves_the_quarantined_tail_from_a_cold_image() {
        let db = fenced_db(DbConfig::default());
        let disk = db.disk_image();
        let carved = carve_divergent(&disk);
        assert_eq!(carved.len(), 1);
        assert!(carved[0].statement.contains("secret-unreplicated"));
        assert_eq!(frame_census(&disk), (1, 0));
        // And the truncated binlog no longer holds the secret.
        let binlog = parse_binlog(disk.file(minidb::wal::BINLOG_FILE).unwrap());
        assert!(binlog.iter().all(|e| !e.statement.contains("secret")));
    }

    #[test]
    fn sealed_sidecar_defeats_keyless_carving_but_not_the_key_holder() {
        let key = [9u8; 32];
        let db = fenced_db(DbConfig {
            encrypted_wal: true,
            wal_key: Some(key),
            ..DbConfig::default()
        });
        let disk = db.disk_image();
        assert!(
            carve_divergent(&disk).is_empty(),
            "keyless carve must recover nothing from a sealed sidecar"
        );
        let (total, sealed) = frame_census(&disk);
        assert_eq!(total, sealed);
        assert!(sealed > 0, "the fenced frames are present, just sealed");
        let recovered = recover_with_key(&disk, &db);
        assert_eq!(recovered.len(), 1);
        assert!(recovered[0].statement.contains("secret-unreplicated"));
    }

    #[test]
    fn unfenced_image_has_no_sidecar() {
        let db = Db::open(DbConfig::default());
        let disk = db.disk_image();
        assert!(divergent_file(&disk).is_none());
        assert!(carve_divergent(&disk).is_empty());
        assert_eq!(frame_census(&disk), (0, 0));
    }
}
