//! Version-chain forensics: recovering a row's *edit history* from the
//! MVCC version store (experiment e18).
//!
//! Snapshot isolation makes the engine an archivist: every UPDATE and
//! DELETE appends the superseded row image to `undo_versions.ibd`, with
//! `(xmin, xmax)` commit stamps that totally order the supersessions.
//! The paper's §3 observation about undo logs applies with force — the
//! version store is an undo log that *never wraps*: until vacuum runs,
//! a cold disk image replays the full history of a secret column, one
//! committed value per record, in commit order. And a *tombstoning*
//! vacuum (the default) only flips a state byte: the payload bytes
//! stay carvable. Only `DbConfig::scrub_before_images` makes vacuum
//! physically rewrite the file.
//!
//! Like every carver here, this reads raw bytes with public knowledge
//! of the record format and no live engine: each record is read by
//! minidb's own record codec ([`VersionRecord::parse`]), the one reader
//! of the layout, so the carver and the engine cannot disagree on it.

use std::collections::BTreeMap;

use minidb::mvcc::{VersionRecord, STATE_COMMITTED, STATE_PENDING, STATE_VACUUMED, VERSIONS_FILE};
use minidb::snapshot::{DiskImage, MemoryImage};
use minidb::value::Value;

/// One version record carved from raw bytes.
#[derive(Clone, Debug, PartialEq)]
pub struct CarvedVersion {
    /// Table the row belonged to.
    pub table: String,
    /// Row id whose before-image this is.
    pub row_id: u64,
    /// CSN that created the image (0 = predates tracking).
    pub xmin: u64,
    /// CSN that superseded it (0 = still pending at capture).
    pub xmax: u64,
    /// Lifecycle state byte (`minidb::mvcc::STATE_*`).
    pub state: u8,
    /// Supersession kind (`minidb::mvcc::OP_*`).
    pub op: u8,
    /// The recovered before-image values.
    pub values: Vec<Value>,
    /// Byte offset of the record in the carved file.
    pub offset: usize,
}

impl CarvedVersion {
    /// Whether the engine still considers this version live history
    /// (pending or committed). Aborted and vacuumed records are dead to
    /// the engine — and exactly as readable to the carver.
    pub fn engine_live(&self) -> bool {
        self.state == STATE_PENDING || self.state == STATE_COMMITTED
    }
}

/// Carves every version record out of a raw byte buffer (the
/// `undo_versions.ibd` contents, or any slab that embeds them). Scans
/// for the record magic and resyncs past corruption, so a partially
/// scrubbed or truncated file still yields its survivors.
pub fn carve_bytes(data: &[u8]) -> Vec<CarvedVersion> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < data.len() {
        let parsed = VersionRecord::parse(data, pos);
        let Some((rec, len, row)) =
            parsed.and_then(|(rec, len)| Some((rec, len, rec.decode_row()?)))
        else {
            pos += 1;
            continue;
        };
        out.push(CarvedVersion {
            table: rec.table.to_string(),
            row_id: rec.row_id,
            xmin: rec.xmin,
            xmax: rec.xmax,
            state: rec.state,
            op: rec.op,
            values: row.values,
            offset: pos,
        });
        pos += len;
    }
    out
}

/// Carves the version store out of a disk image.
pub fn carve_disk(disk: &DiskImage) -> Vec<CarvedVersion> {
    disk.file(VERSIONS_FILE).map_or_else(Vec::new, carve_bytes)
}

/// Reads the in-memory version chains out of a memory image — the same
/// history, no byte carving required.
pub fn from_memory(memory: &MemoryImage) -> Vec<CarvedVersion> {
    memory
        .version_chains
        .iter()
        .flat_map(|c| {
            c.versions.iter().map(|v| CarvedVersion {
                table: c.table.clone(),
                row_id: c.row_id,
                xmin: v.xmin,
                xmax: v.xmax,
                state: v.state,
                op: v.op,
                values: v.row.values.clone(),
                offset: v.offset,
            })
        })
        .collect()
}

/// Groups carved versions into per-row supersession histories, ordered
/// by append position (which is write order — the file is append-only).
/// The returned map is the attacker's reconstruction of every row's
/// edit timeline.
pub fn chains(versions: &[CarvedVersion]) -> BTreeMap<(String, u64), Vec<CarvedVersion>> {
    let mut by_row: BTreeMap<(String, u64), Vec<CarvedVersion>> = BTreeMap::new();
    for v in versions {
        by_row
            .entry((v.table.clone(), v.row_id))
            .or_default()
            .push(v.clone());
    }
    for chain in by_row.values_mut() {
        chain.sort_by_key(|v| v.offset);
    }
    by_row
}

/// The recovered edit history of one row's column: the sequence of
/// superseded values of column `col`, in supersession order, restricted
/// to committed (or tombstoned-after-commit) records. This is the E18
/// payoff: for a victim that UPDATEd a secret K times, the carve
/// returns the K historical values in order.
pub fn column_history(
    versions: &[CarvedVersion],
    table: &str,
    row_id: u64,
    col: usize,
) -> Vec<Value> {
    let mut chain: Vec<(usize, &Value)> = versions
        .iter()
        .filter(|v| v.table == table && v.row_id == row_id)
        .filter(|v| v.state == STATE_COMMITTED || v.state == STATE_VACUUMED)
        .filter_map(|v| Some((v.offset, v.values.get(col)?)))
        .collect();
    chain.sort_by_key(|(offset, _)| *offset);
    chain.into_iter().map(|(_, value)| value.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};

    fn victim(scrub: bool) -> Db {
        let db = Db::open(DbConfig {
            scrub_before_images: scrub,
            ..DbConfig::default()
        });
        let conn = db.connect("victim");
        conn.execute("CREATE TABLE vault (id INT PRIMARY KEY, secret INT)")
            .unwrap();
        conn.execute("INSERT INTO vault VALUES (1, 100)").unwrap();
        for k in 1..=6i64 {
            conn.execute(&format!("UPDATE vault SET secret = {}", 100 + k))
                .unwrap();
        }
        db
    }

    #[test]
    fn carves_full_update_history_from_disk() {
        let db = victim(false);
        let disk = db.disk_image();
        let carved = carve_disk(&disk);
        assert_eq!(carved.len(), 6, "one before-image per UPDATE");
        let history = column_history(&carved, "vault", 1, 1);
        assert_eq!(
            history,
            (0..6).map(|k| Value::Int(100 + k)).collect::<Vec<_>>(),
            "the secret's edit timeline, in commit order"
        );
        // xmax stamps strictly increase along the chain.
        let ch = chains(&carved);
        let chain = &ch[&("vault".to_string(), 1)];
        assert!(chain.windows(2).all(|w| w[0].xmax < w[1].xmax));
    }

    #[test]
    fn tombstoning_vacuum_leaves_history_carvable() {
        let db = victim(false);
        let (reclaimed, _) = db.vacuum();
        assert_eq!(reclaimed, 6);
        assert_eq!(db.version_count(), 0, "engine forgot the versions");
        let carved = carve_disk(&db.disk_image());
        assert_eq!(carved.len(), 6, "carver did not");
        assert!(carved.iter().all(|v| v.state == STATE_VACUUMED));
        assert!(carved.iter().all(|v| !v.engine_live()));
        assert_eq!(column_history(&carved, "vault", 1, 1).len(), 6);
    }

    #[test]
    fn scrubbing_vacuum_destroys_history() {
        let db = victim(true);
        db.vacuum();
        let carved = carve_disk(&db.disk_image());
        assert!(carved.is_empty(), "scrub rewrote the file: {carved:?}");
    }

    #[test]
    fn memory_image_replays_the_same_chains() {
        let db = victim(false);
        let mem = db.memory_image();
        let from_mem = from_memory(&mem);
        let from_disk = carve_disk(&db.disk_image());
        assert_eq!(from_mem.len(), from_disk.len());
        assert_eq!(
            column_history(&from_mem, "vault", 1, 1),
            column_history(&from_disk, "vault", 1, 1)
        );
    }

    #[test]
    fn resyncs_past_garbage_and_rejects_corrupt_records() {
        let db = victim(false);
        let clean = db.disk_image().file(VERSIONS_FILE).unwrap().to_vec();
        // Prepend garbage, corrupt one record's op byte mid-file.
        let mut dirty = vec![0xA5; 17];
        dirty.extend_from_slice(&clean);
        let base = carve_bytes(&dirty);
        assert_eq!(base.len(), 6, "prefix garbage skipped");
        let mut corrupt = dirty.clone();
        corrupt[base[1].offset + 5] = 0xFF; // invalid op byte
        let carved = carve_bytes(&corrupt);
        assert_eq!(carved.len(), 5, "the corrupt record is dropped");
        assert!(carve_bytes(&[]).is_empty());
        assert!(carve_bytes(b"MVERxxxx").is_empty());
    }
}
