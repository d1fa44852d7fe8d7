//! Relay-log persistence on the replica.
//!
//! Each received event is framed **byte-identically to the primary's
//! binlog** and appended to `relay-bin.000001` on the replica's virtual
//! disk *before* the statement replays. This is the MySQL relay-log
//! discipline — and the crux of the multiplied-surface leak: the relay
//! file sits inside every replica disk snapshot and carves with the same
//! `carve_frames` scan as a stolen binlog, even after the primary's
//! binlog is purged.
//!
//! A tiny sidecar index (`relay-bin.index`) maps byte offsets to global
//! sequence numbers so a restarted replica recovers its resume position
//! from its own disk, without asking the primary.

use mdb_trace::codec::{self, put_u64, Reader};
use minidb::wal::{carve_all_frames, frame, frame_enc};
use minidb::Db;

use crate::wire::SequencedEvent;

/// Relay log file name on the replica's virtual disk (MySQL-style).
pub const RELAY_FILE: &str = "relay-bin.000001";

/// Sidecar index: `(start_seq: u64 le, byte_offset: u64 le)` pairs, one
/// appended at attach time and after every purge-gap reposition.
pub const RELAY_INDEX: &str = "relay-bin.index";

/// Applied-position mark (MySQL's `relay-log.info`): 16 bytes —
/// `(applied_next_seq: u64 le, own_binlog_next: u64 le)` — overwritten
/// after every successful apply. See [`applied_position`] for why the
/// second field makes the non-atomic mark exact anyway.
pub const RELAY_INFO: &str = "relay.info";

/// Appends one event to the relay log, preserving the primary's framing:
/// the event's explicit `sealed` bit — set by the primary from the
/// frame's on-disk magic and carried across the wire — selects the plain
/// or sealed frame magic. (Classifying by whether the payload *parses*
/// as a plaintext [`BinlogEvent`] would misfile a sealed ciphertext that
/// coincidentally parses.) With `encrypted_wal` on the primary, the
/// relay file therefore stays ciphertext and the keyless `carve_frames`
/// scan recovers nothing from it.
pub fn append_event(db: &Db, ev: &SequencedEvent) -> usize {
    let framed = if ev.sealed {
        frame_enc(&ev.payload)
    } else {
        frame(&ev.payload)
    };
    let len = framed.len();
    db.append_server_file(RELAY_FILE, &framed);
    len
}

/// Records that relay-log byte offset `offset` holds sequence `seq`.
/// Called when a stream (re)positions: initial attach and purge gaps.
pub fn append_index_entry(db: &Db, seq: u64, offset: u64) {
    let mut rec = Vec::with_capacity(16);
    put_u64(&mut rec, seq);
    put_u64(&mut rec, offset);
    db.append_server_file(RELAY_INDEX, &rec);
}

/// The last complete `(start_seq, byte_offset)` entry of the index.
fn last_anchor(db: &Db) -> Option<(u64, u64)> {
    let index = db.read_server_file(RELAY_INDEX)?;
    let last = (index.len() / 16).checked_sub(1)? * 16;
    let mut r = Reader::new(&index[last..]);
    Some((r.u64().ok()?, r.u64().ok()?))
}

/// Recovers `(next_seq, relay_len)` from the replica's own disk: the last
/// index entry anchors a sequence number at a byte offset; counting the
/// frames carved past that offset yields the next sequence to request.
/// Returns `None` when no index entry exists (fresh replica).
pub fn recover_position(db: &Db) -> Option<(u64, u64)> {
    let (anchor_seq, anchor_off) = last_anchor(db)?;
    let relay = db.read_server_file(RELAY_FILE).unwrap_or_default();
    let tail = relay.get(anchor_off as usize..).unwrap_or(&[]);
    // Count every frame the replica can decode: plaintext events and —
    // when this replica holds the log key — sealed records too. Each
    // frame is decoded under the codec its own magic declares.
    let applied = carve_all_frames(tail)
        .filter(|(_, sealed, p)| db.decode_binlog_frame(*sealed, p).is_ok())
        .count() as u64;
    Some((anchor_seq + applied, relay.len() as u64))
}

/// Truncates a torn tail off the relay log, returning the bytes
/// removed (0 when the log ends on a frame boundary).
///
/// A replica killed mid-`relay_append` leaves a partial frame at the
/// tail. Left in place it is worse than wasted bytes: once the resumed
/// stream appends more frames after it, the torn frame's length field
/// may suddenly "cover" the bytes of a later complete frame, making the
/// resyncing carve swallow both. Because the relay log is strictly
/// append-only, a sequential walk from offset 0 is exact — the first
/// position that is not a complete, sane frame is where the tear
/// starts, and everything after it is discarded. The handshake's resume
/// cursor then re-fetches the torn event exactly once.
pub fn repair_torn_tail(db: &Db) -> usize {
    let Some(raw) = db.read_server_file(RELAY_FILE) else {
        return 0;
    };
    let end = codec::walk(&codec::RELAY, &raw).last().map_or(0, |f| f.end);
    let torn = raw.len() - end;
    if torn > 0 {
        db.write_server_file(RELAY_FILE, &raw[..end]);
    }
    torn
}

/// Overwrites the applied-position mark: `applied_next` is the global
/// sequence the SQL thread needs next; the replica's *own* binlog
/// position rides along as the tiebreaker [`applied_position`] uses.
pub fn write_applied_mark(db: &Db, applied_next: u64) {
    let mut rec = Vec::with_capacity(16);
    put_u64(&mut rec, applied_next);
    put_u64(&mut rec, db.binlog_next_seq());
    db.write_server_file(RELAY_INFO, &rec);
}

/// The global sequence of the next event the engine still needs, exact
/// even though the mark itself is written non-atomically *after* each
/// apply. A crash can land between apply and mark, leaving the mark one
/// event stale — but each apply also advances the replica's own binlog
/// (a replica executes only replicated statements), so the drift is
/// recoverable: `true_applied = marked + (own_binlog_now - own_binlog_at_mark)`.
/// Returns `None` until the first mark is written.
pub fn applied_position(db: &Db) -> Option<u64> {
    let raw = db.read_server_file(RELAY_INFO)?;
    let mut r = Reader::new(&raw);
    let (marked, own_at_mark) = (r.u64().ok()?, r.u64().ok()?);
    if r.remaining() != 0 {
        return None;
    }
    Some(marked + db.binlog_next_seq().saturating_sub(own_at_mark))
}

/// Re-applies relayed-but-unapplied events after a crash, returning how
/// many replayed. The relay-first discipline means a crash between
/// relay-append and apply leaves frames on disk that the engine never
/// executed; without this replay, [`recover_position`] would count them
/// as applied and the resume handshake would skip them for good — a
/// silently diverged replica. The unapplied events are exactly the last
/// `relay_next - applied_next` decodable frames past the last anchor
/// (relay-first, in-order apply), so the walk is positional, not
/// content-guessing.
pub fn replay_unapplied(db: &Db) -> usize {
    let Some((relay_next, _)) = recover_position(db) else {
        return 0;
    };
    let Some(applied_next) = applied_position(db) else {
        return 0; // No mark yet: nothing was ever applied via the loop.
    };
    if applied_next >= relay_next {
        return 0;
    }
    let missing = (relay_next - applied_next) as usize;
    let anchor_off = last_anchor(db).map_or(0, |(_, off)| off);
    let relay = db.read_server_file(RELAY_FILE).unwrap_or_default();
    let tail = relay.get(anchor_off as usize..).unwrap_or(&[]);
    let decoded: Vec<_> = carve_all_frames(tail)
        .filter_map(|(_, sealed, p)| db.decode_binlog_frame(sealed, p).ok())
        .collect();
    let mut replayed = 0usize;
    for event in decoded.iter().skip(decoded.len().saturating_sub(missing)) {
        if db
            .apply_replicated_ctx(&event.statement, event.timestamp, event.ctx)
            .is_err()
        {
            break; // Halt like the SQL thread would; position stays exact.
        }
        replayed += 1;
    }
    write_applied_mark(db, applied_next + replayed as u64);
    replayed
}

/// Current relay-log length in bytes (0 when absent).
pub fn relay_len(db: &Db) -> u64 {
    db.read_server_file(RELAY_FILE)
        .map(|b| b.len() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::wal::{carve_frames, BinlogEvent};
    use minidb::DbConfig;

    fn ev(seq: u64) -> SequencedEvent {
        SequencedEvent::plain(
            seq,
            &BinlogEvent {
                lsn: seq,
                txn: seq,
                timestamp: 100 + seq as i64,
                statement: format!("INSERT INTO t VALUES ({seq})"),
                ctx: None,
            },
        )
    }

    #[test]
    fn position_recovers_from_disk_alone() {
        let db = Db::open(DbConfig::default());
        assert_eq!(recover_position(&db), None);
        append_index_entry(&db, 10, 0);
        for s in 10..15 {
            append_event(&db, &ev(s));
        }
        let (next, len) = recover_position(&db).unwrap();
        assert_eq!(next, 15);
        assert_eq!(len, relay_len(&db));
    }

    #[test]
    fn reposition_after_gap_uses_last_anchor() {
        let db = Db::open(DbConfig::default());
        append_index_entry(&db, 0, 0);
        for s in 0..3 {
            append_event(&db, &ev(s));
        }
        // Primary purged 3..20 away; replica repositions at 20.
        append_index_entry(&db, 20, relay_len(&db));
        for s in 20..22 {
            append_event(&db, &ev(s));
        }
        let (next, _) = recover_position(&db).unwrap();
        assert_eq!(next, 22);
    }

    #[test]
    fn relayed_but_unapplied_tail_replays_on_restart() {
        let db = Db::open(DbConfig {
            server_id: 2,
            read_only: true,
            ..DbConfig::default()
        });
        append_index_entry(&db, 0, 0);
        let stmts = [
            "CREATE TABLE t (id INT PRIMARY KEY)",
            "INSERT INTO t VALUES (1)",
            "INSERT INTO t VALUES (2)",
        ];
        // Events 0 and 1: relay, apply, mark — the normal loop.
        for seq in 0..2u64 {
            let e = SequencedEvent::plain(
                seq,
                &BinlogEvent {
                    lsn: seq,
                    txn: seq,
                    timestamp: 100,
                    statement: stmts[seq as usize].to_string(),
                    ctx: None,
                },
            );
            append_event(&db, &e);
            db.apply_replicated_ctx(stmts[seq as usize], 100, None)
                .unwrap();
            write_applied_mark(&db, seq + 1);
        }
        // Event 2: relayed, then the crash lands before the apply.
        append_event(
            &db,
            &SequencedEvent::plain(
                2,
                &BinlogEvent {
                    lsn: 2,
                    txn: 2,
                    timestamp: 100,
                    statement: stmts[2].to_string(),
                    ctx: None,
                },
            ),
        );
        assert_eq!(applied_position(&db), Some(2));
        let (relay_next, _) = recover_position(&db).unwrap();
        assert_eq!(relay_next, 3, "relay holds the unapplied frame");

        // Restart-time replay executes exactly the missing event.
        assert_eq!(replay_unapplied(&db), 1);
        assert_eq!(applied_position(&db), Some(3));
        let rows = db.connect("check").execute("SELECT id FROM t").unwrap();
        assert_eq!(rows.rows.len(), 2);

        // Idempotent: a second restart replays nothing.
        assert_eq!(replay_unapplied(&db), 0);
        assert_eq!(rows.rows.len(), 2);
    }

    #[test]
    fn applied_mark_tolerates_crash_after_apply_before_mark() {
        // The inverse window: apply succeeded, mark write was lost. The
        // own-binlog tiebreaker must prevent a double replay.
        let db = Db::open(DbConfig {
            server_id: 2,
            read_only: true,
            ..DbConfig::default()
        });
        append_index_entry(&db, 0, 0);
        let e = SequencedEvent::plain(
            0,
            &BinlogEvent {
                lsn: 0,
                txn: 0,
                timestamp: 100,
                statement: "CREATE TABLE t (id INT PRIMARY KEY)".to_string(),
                ctx: None,
            },
        );
        append_event(&db, &e);
        write_applied_mark(&db, 0); // Mark as of *before* the apply.
        db.apply_replicated_ctx("CREATE TABLE t (id INT PRIMARY KEY)", 100, None)
            .unwrap();
        // Own binlog advanced past the mark: position is still exact.
        assert_eq!(applied_position(&db), Some(1));
        assert_eq!(replay_unapplied(&db), 0);
    }

    #[test]
    fn relay_bytes_carve_like_a_binlog() {
        let db = Db::open(DbConfig::default());
        for s in 0..4 {
            append_event(&db, &ev(s));
        }
        let raw = db.read_server_file(RELAY_FILE).unwrap();
        let carved: Vec<BinlogEvent> = carve_frames(&raw)
            .iter()
            .filter_map(|(_, p)| BinlogEvent::decode(p).ok())
            .collect();
        assert_eq!(carved.len(), 4);
        assert_eq!(carved[3].statement, "INSERT INTO t VALUES (3)");
    }

    #[test]
    fn sealed_payloads_relay_as_ciphertext() {
        // An encrypted primary/replica pair shares the log key; the relay
        // file must carve to zero plaintext events but still yield a
        // recoverable position for the key holder.
        let key = [7u8; 32];
        let primary = Db::open(DbConfig {
            encrypted_wal: true,
            wal_key: Some(key),
            ..DbConfig::default()
        });
        let pconn = primary.connect("root");
        pconn
            .execute("CREATE TABLE t (id INT PRIMARY KEY)")
            .unwrap();
        pconn.execute("INSERT INTO t VALUES (1)").unwrap();
        let (frames, _) = primary.binlog_frames_from(0, 16);
        assert!(!frames.is_empty());

        let replica = Db::open(DbConfig {
            server_id: 2,
            encrypted_wal: true,
            wal_key: Some(key),
            ..DbConfig::default()
        });
        append_index_entry(&replica, 0, 0);
        for (seq, sealed, payload) in &frames {
            assert!(*sealed, "encrypted primary must ship sealed frames");
            append_event(
                &replica,
                &SequencedEvent {
                    seq: *seq,
                    sealed: *sealed,
                    payload: payload.clone(),
                },
            );
        }
        let raw = replica.read_server_file(RELAY_FILE).unwrap();
        let plaintext_hits = carve_frames(&raw)
            .iter()
            .filter(|(_, p)| BinlogEvent::decode(p).is_ok())
            .count();
        assert_eq!(plaintext_hits, 0, "relay log must not carve in the clear");
        let (next, _) = recover_position(&replica).unwrap();
        assert_eq!(next, frames.len() as u64);
    }
}
