//! MVCC version chains: snapshot-isolation reads, and the before-image
//! leakage surface they create.
//!
//! Writers never overwrite history. Every UPDATE/DELETE appends the
//! *old* row image — stamped with `(xmin, xmax)` commit-sequence
//! numbers — to an append-only version store ([`VERSIONS_FILE`]), and
//! readers inside an explicit transaction pin a snapshot CSN at BEGIN
//! and resolve each row against the chain, exactly like InnoDB's undo
//! tablespaces or Postgres's dead tuples.
//!
//! That is the whole point of E18: the version store is an un-scrubbed
//! copy of every value a secret column has ever held. `UPDATE secrets
//! SET balance = x` run K times leaves K-1 plaintext before-images
//! (order-preserved, CSN-stamped) in a file the encryption layer above
//! never sees. [`VersionStore::vacuum`] models the two deployment
//! realities: the default pass merely *tombstones* reclaimed versions
//! (state byte flips to [`STATE_VACUUMED`], payload bytes stay — like
//! marking pages free), while `scrub=true`
//! ([`crate::engine::DbConfig::scrub_before_images`]) rewrites the file
//! so reclaimed images are physically gone.
//!
//! ## On-disk record format (`undo_versions.ibd`)
//!
//! ```text
//! magic    b"MVER"   0..4
//! state    u8        4          0 pending | 1 committed | 2 aborted | 3 vacuumed
//! op       u8        5          1 update-superseded | 2 deleted
//! xmin     u64 LE    6..14      CSN that created this image
//! xmax     u64 LE    14..22     CSN that superseded it (0 = pending)
//! row_id   u64 LE    22..30
//! name_len u16 LE    30..32
//! row_len  u32 LE    32..36
//! name     bytes     36..36+name_len      table name
//! row      bytes     ..                   encoded Row (the before-image)
//! ```
//!
//! Commit stamps CSNs *in place* (`write_at` on the state/xmin/xmax
//! fields), so a record's lifecycle is visible in the file itself — a
//! carver can distinguish pending, committed, aborted, and tombstoned
//! history without any engine cooperation.

// The version file is read off disk at every open: a record that lies
// ends the read, never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::collections::{HashMap, HashSet};

use mdb_trace::codec::Reader;

use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::vdisk::VDisk;

/// The version store's tablespace file.
pub const VERSIONS_FILE: &str = "undo_versions.ibd";

/// Record magic (`b"MVER"`).
pub const VERSION_MAGIC: &[u8; 4] = b"MVER";

/// Version created/superseded by a still-open transaction.
pub const STATE_PENDING: u8 = 0;
/// Supersession committed; `(xmin, xmax)` are final.
pub const STATE_COMMITTED: u8 = 1;
/// The superseding transaction rolled back; image is not history.
pub const STATE_ABORTED: u8 = 2;
/// Reclaimed by a non-scrubbing vacuum: dead to the engine, but the
/// payload bytes are still in the file.
pub const STATE_VACUUMED: u8 = 3;

/// The image was superseded by an UPDATE.
pub const OP_UPDATE: u8 = 1;
/// The image was removed by a DELETE.
pub const OP_DELETE: u8 = 2;

const STATE_OFF: usize = 4;
const XMIN_OFF: usize = 6;
const XMAX_OFF: usize = 14;
const HEADER_LEN: usize = 36;
/// Sanity bounds: a table name over 4 KiB or a row over 16 MiB is
/// garbage, not a record.
const MAX_NAME: usize = 4096;
const MAX_ROW: usize = 16 * 1024 * 1024;

/// One record of [`VERSIONS_FILE`] (layout in the module docs), its
/// name and row borrowed from the bytes it was read from: the one codec
/// of the format. The store writes records with its `encode`; restart
/// ([`max_csn`]) and the version-store carver read them with `parse`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VersionRecord<'a> {
    /// Lifecycle state (`STATE_*`).
    pub state: u8,
    /// How the image was superseded (`OP_*`).
    pub op: u8,
    /// CSN that created the image (0 = predates tracking).
    pub xmin: u64,
    /// CSN that superseded it (0 = still pending).
    pub xmax: u64,
    /// Row id whose before-image this is.
    pub row_id: u64,
    /// Table the row belongs to.
    pub table: &'a str,
    /// The before-image, as [`Row::encode`] wrote it.
    pub row: &'a [u8],
}

impl<'a> VersionRecord<'a> {
    /// The bytes of the record of `v`, a version of a row of `table`.
    fn encode(table: &str, v: &Version) -> Vec<u8> {
        let (name, row) = (table.as_bytes(), v.row.encode());
        let mut out = Vec::with_capacity(HEADER_LEN + name.len() + row.len());
        out.extend_from_slice(VERSION_MAGIC);
        out.extend_from_slice(&[v.state, v.op]);
        for field in [v.xmin, v.xmax, v.row.id] {
            out.extend_from_slice(&field.to_le_bytes());
        }
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(&(row.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&row);
        out
    }

    /// The record at `buf[pos..]` and its length, or `None` unless the
    /// magic, a known state and op, a name and row within the sanity
    /// bounds, both inside `buf`, and a UTF-8 name are all there. The
    /// row image is not decoded ([`Self::decode_row`] does that).
    pub fn parse(buf: &'a [u8], pos: usize) -> Option<(VersionRecord<'a>, usize)> {
        let mut r = Reader::new(buf.get(pos..)?);
        if r.take(VERSION_MAGIC.len()).ok()? != VERSION_MAGIC {
            return None;
        }
        let (state, op) = (r.u8().ok()?, r.u8().ok()?);
        if state > STATE_VACUUMED || !(OP_UPDATE..=OP_DELETE).contains(&op) {
            return None;
        }
        let (xmin, xmax, row_id) = (r.u64().ok()?, r.u64().ok()?, r.u64().ok()?);
        let name_len = usize::from(r.u16().ok()?);
        let row_len = r.u32().ok()? as usize;
        if name_len > MAX_NAME || row_len > MAX_ROW {
            return None;
        }
        let table = std::str::from_utf8(r.take(name_len).ok()?).ok()?;
        let row = r.take(row_len).ok()?;
        let record = VersionRecord {
            state,
            op,
            xmin,
            xmax,
            row_id,
            table,
            row,
        };
        Some((record, r.pos()))
    }

    /// The before-image decoded, or `None` unless it decodes and
    /// carries the record's row id.
    pub fn decode_row(&self) -> Option<Row> {
        Row::decode(self.row)
            .ok()
            .filter(|row| row.id == self.row_id)
    }
}

/// One archived row version in a chain.
#[derive(Clone, Debug, PartialEq)]
pub struct Version {
    /// CSN that created this image (0 = predates tracking).
    pub xmin: u64,
    /// CSN that superseded it (0 = superseding txn still pending).
    pub xmax: u64,
    /// Lifecycle state (`STATE_*`).
    pub state: u8,
    /// How it was superseded (`OP_*`).
    pub op: u8,
    /// The before-image itself.
    pub row: Row,
    /// Byte offset of this record in [`VERSIONS_FILE`].
    pub offset: usize,
}

type Key = (String, u64);

enum Pending {
    /// A before-image awaiting its xmax stamp at commit.
    Supersede {
        key: Key,
        offset: usize,
        op: u8,
        /// The displaced image was itself written by this same
        /// transaction: no reader but that transaction ever sees it —
        /// not while pending ([`VersionStore::chain_visible`]), and at
        /// commit its window collapses to empty.
        intra_txn: bool,
    },
    /// A freshly inserted heap row awaiting its xmin at commit.
    NewRow { key: Key },
}

/// Version chains plus the commit bookkeeping that stamps them.
#[derive(Default)]
pub struct VersionStore {
    /// Archived versions per row, oldest first.
    chains: HashMap<Key, Vec<Version>>,
    /// Committed xmin of each row's *current* heap image.
    row_xmin: HashMap<Key, u64>,
    /// Rows whose current heap image was written by a still-open
    /// transaction (its id) — invisible to other snapshots.
    pending_owner: HashMap<Key, u64>,
    /// Per-transaction stamps to apply at commit/abort.
    pending: HashMap<u64, Vec<Pending>>,
}

/// The highest CSN stamped into any record of [`VERSIONS_FILE`] (0 when
/// there is none): a restarted process numbers its commits past it.
/// A commit that superseded nothing (an INSERT-only one) stamps no
/// record, so this can trail the dead process's counter — harmlessly:
/// no byte on disk carries the CSNs in between, and a restarted
/// process's chains start empty, so every row it reads is visible.
/// Records are read up to the first that does not parse; no row is decoded.
pub fn max_csn(vdisk: &VDisk) -> u64 {
    let raw = vdisk.read(VERSIONS_FILE).unwrap_or_default();
    let (mut pos, mut max) = (0, 0);
    while let Some((rec, len)) = VersionRecord::parse(raw, pos) {
        max = max.max(rec.xmin).max(rec.xmax);
        pos += len;
    }
    max
}

impl VersionStore {
    /// Number of stamps queued for `txn` — the statement-rollback mark
    /// ([`Self::abort_from`]).
    pub fn pending_mark(&self, txn: u64) -> usize {
        self.pending.get(&txn).map_or(0, |v| v.len())
    }

    /// Archives `old_row` as a before-image: the current heap image of
    /// `(table, old_row.id)` is being superseded by `txn` via `op`.
    ///
    /// First updater wins: when that image is another open
    /// transaction's uncommitted write, nothing is recorded and the
    /// caller must leave the row alone — superseding it would archive a
    /// dirty image as history, and the owner's rollback would then
    /// restore its pre-image over this (acknowledged) write.
    pub fn record_supersession(
        &mut self,
        vdisk: &mut VDisk,
        table: &str,
        old_row: &Row,
        op: u8,
        txn: u64,
    ) -> DbResult<()> {
        // Write no record that `VersionRecord::parse` refuses.
        if table.len() > MAX_NAME {
            return Err(DbError::Storage(format!(
                "table name over {MAX_NAME} bytes: no version record holds it"
            )));
        }
        let key = (table.to_string(), old_row.id);
        let intra_txn = match self.pending_owner.get(&key) {
            Some(&owner) if owner != txn => {
                return Err(DbError::WriteConflict(format!(
                    "row {} of {table} has an uncommitted write by transaction {owner}",
                    old_row.id
                )))
            }
            owner => owner.is_some(),
        };
        let xmin = self.row_xmin.get(&key).copied().unwrap_or(0);
        let offset = vdisk.len(VERSIONS_FILE);
        let version = Version {
            xmin,
            xmax: 0,
            state: STATE_PENDING,
            op,
            row: old_row.clone(),
            offset,
        };
        vdisk.append(VERSIONS_FILE, &VersionRecord::encode(table, &version));
        self.chains.entry(key.clone()).or_default().push(version);
        self.pending
            .entry(txn)
            .or_default()
            .push(Pending::Supersede {
                key: key.clone(),
                offset,
                op,
                intra_txn,
            });
        self.pending_owner.insert(key, txn);
        Ok(())
    }

    /// Notes a freshly inserted heap row: its xmin is stamped at commit,
    /// and until then the row belongs to `txn`'s snapshot only.
    pub fn record_insert(&mut self, table: &str, row_id: u64, txn: u64) {
        let key = (table.to_string(), row_id);
        self.pending
            .entry(txn)
            .or_default()
            .push(Pending::NewRow { key: key.clone() });
        self.pending_owner.insert(key, txn);
    }

    fn find_version(&mut self, key: &Key, offset: usize) -> Option<&mut Version> {
        self.chains
            .get_mut(key)?
            .iter_mut()
            .find(|v| v.offset == offset)
    }

    /// Stamps everything `txn` wrote with its commit CSN.
    pub fn commit(&mut self, vdisk: &mut VDisk, txn: u64, csn: u64) {
        let Some(stamps) = self.pending.remove(&txn) else {
            return;
        };
        for stamp in stamps {
            match stamp {
                Pending::Supersede {
                    key,
                    offset,
                    op,
                    intra_txn,
                } => {
                    if let Some(v) = self.find_version(&key, offset) {
                        if intra_txn {
                            v.xmin = csn;
                            vdisk.write_at(VERSIONS_FILE, offset + XMIN_OFF, &csn.to_le_bytes());
                        }
                        v.xmax = csn;
                        v.state = STATE_COMMITTED;
                    }
                    vdisk.write_at(VERSIONS_FILE, offset + XMAX_OFF, &csn.to_le_bytes());
                    vdisk.write_at(VERSIONS_FILE, offset + STATE_OFF, &[STATE_COMMITTED]);
                    match op {
                        OP_DELETE => {
                            self.row_xmin.remove(&key);
                        }
                        _ => {
                            self.row_xmin.insert(key.clone(), csn);
                        }
                    }
                    self.pending_owner.remove(&key);
                }
                Pending::NewRow { key } => {
                    self.row_xmin.insert(key.clone(), csn);
                    self.pending_owner.remove(&key);
                }
            }
        }
    }

    /// Aborts every stamp of `txn` (full rollback).
    pub fn abort(&mut self, vdisk: &mut VDisk, txn: u64) {
        self.abort_from(vdisk, txn, 0);
    }

    /// Aborts `txn`'s stamps from `mark` on (statement-level rollback:
    /// mark = [`Self::pending_mark`] taken before the statement ran).
    pub fn abort_from(&mut self, vdisk: &mut VDisk, txn: u64, mark: usize) {
        let Some(stamps) = self.pending.get_mut(&txn) else {
            return;
        };
        let undone: Vec<Pending> = stamps.drain(mark..).collect();
        if stamps.is_empty() {
            self.pending.remove(&txn);
        }
        for stamp in undone.into_iter().rev() {
            match stamp {
                Pending::Supersede {
                    key,
                    offset,
                    intra_txn,
                    ..
                } => {
                    let restored = self.find_version(&key, offset).map(|v| {
                        v.state = STATE_ABORTED;
                        v.xmin
                    });
                    vdisk.write_at(VERSIONS_FILE, offset + STATE_OFF, &[STATE_ABORTED]);
                    // The old image is back in the heap (undo restored
                    // it); its committed xmin is unchanged.
                    if let Some(xmin) = restored {
                        if xmin > 0 {
                            self.row_xmin.insert(key.clone(), xmin);
                        }
                    }
                    // A statement rollback may undo only the later of
                    // the transaction's writes to this row; the restored
                    // image is then still its own uncommitted one.
                    if !intra_txn {
                        self.pending_owner.remove(&key);
                    }
                }
                Pending::NewRow { key } => {
                    self.row_xmin.remove(&key);
                    self.pending_owner.remove(&key);
                }
            }
        }
    }

    /// Whether the pending version at `offset` archived an image its
    /// own transaction had written — the transaction's stamp list
    /// knows; the version record (and so the `MVER` bytes) does not.
    fn displaced_own_write(&self, key: &Key, offset: usize) -> bool {
        let stamps = self
            .pending_owner
            .get(key)
            .and_then(|owner| self.pending.get(owner));
        stamps.into_iter().flatten().any(
            |s| matches!(s, Pending::Supersede { offset: o, intra_txn: true, .. } if *o == offset),
        )
    }

    /// The image of `key` a reader at `snapshot` sees in the chain. Of a
    /// chain's pending versions only the oldest — the one the open
    /// transaction's *first* write displaced — is a committed image;
    /// the later ones are that transaction's own intermediate images.
    fn chain_visible(&self, key: &Key, snapshot: u64) -> Option<Row> {
        for v in self.chains.get(key)?.iter().rev() {
            if v.state == STATE_ABORTED || v.state == STATE_VACUUMED {
                continue;
            }
            if v.state == STATE_PENDING && self.displaced_own_write(key, v.offset) {
                continue;
            }
            if v.xmin <= snapshot && (v.xmax == 0 || v.xmax > snapshot) {
                return Some(v.row.clone());
            }
        }
        None
    }

    /// Resolves a *current heap row* against snapshot `snapshot` for
    /// reader `txn`: the row itself, an older chained image, or nothing.
    pub fn visible_row(&self, table: &str, row: Row, snapshot: u64, txn: u64) -> Option<Row> {
        let key = (table.to_string(), row.id);
        match self.pending_owner.get(&key) {
            // Read-your-own-writes.
            Some(&owner) if owner == txn => Some(row),
            // Another transaction's uncommitted image sits in the heap;
            // the version visible to us (if any) is in the chain.
            Some(_) => self.chain_visible(&key, snapshot),
            None => {
                let xmin = self.row_xmin.get(&key).copied().unwrap_or(0);
                if xmin <= snapshot {
                    Some(row)
                } else {
                    self.chain_visible(&key, snapshot)
                }
            }
        }
    }

    /// Rows deleted from the heap but still visible at `snapshot`
    /// (their last image lives only in the chain).
    pub fn resurrect_deleted(
        &self,
        table: &str,
        live_ids: &HashSet<u64>,
        snapshot: u64,
        txn: u64,
    ) -> Vec<Row> {
        let mut out = Vec::new();
        for (key, _) in self.chains.iter() {
            if key.0 != table || live_ids.contains(&key.1) {
                continue;
            }
            // Our own delete is immediately invisible to us.
            if self.pending_owner.get(key) == Some(&txn) {
                continue;
            }
            if let Some(row) = self.chain_visible(key, snapshot) {
                out.push(row);
            }
        }
        out
    }

    /// Reclaims versions no active snapshot can still need: committed
    /// supersessions with `xmax <= horizon`, plus aborted images.
    ///
    /// Without `scrub`, reclamation is a *tombstone*: the record's state
    /// byte flips to [`STATE_VACUUMED`] and every payload byte stays in
    /// the file — dead to the engine, alive to a carver. With `scrub`,
    /// the file is rewritten holding only surviving records.
    ///
    /// Returns `(reclaimed, remaining)` version counts.
    pub fn vacuum(&mut self, vdisk: &mut VDisk, horizon: u64, scrub: bool) -> (usize, usize) {
        let mut reclaimed = 0usize;
        for versions in self.chains.values_mut() {
            versions.retain(|v| {
                let dead = v.state == STATE_ABORTED
                    || (v.state == STATE_COMMITTED && v.xmax != 0 && v.xmax <= horizon);
                if dead {
                    reclaimed += 1;
                    if !scrub {
                        vdisk.write_at(VERSIONS_FILE, v.offset + STATE_OFF, &[STATE_VACUUMED]);
                    }
                }
                !dead
            });
        }
        self.chains.retain(|_, v| !v.is_empty());
        if scrub {
            self.rewrite_file(vdisk);
        }
        let remaining = self.chains.values().map(Vec::len).sum();
        (reclaimed, remaining)
    }

    /// Rewrites [`VERSIONS_FILE`] with only the surviving in-memory
    /// versions — reclaimed before-images are physically erased.
    fn rewrite_file(&mut self, vdisk: &mut VDisk) {
        let mut survivors: Vec<(&Key, &mut Version)> = self
            .chains
            .iter_mut()
            .flat_map(|(k, vs)| vs.iter_mut().map(move |v| (k, v)))
            .collect();
        survivors.sort_by_key(|(_, v)| v.offset);
        let mut file = Vec::new();
        let mut remap: HashMap<usize, usize> = HashMap::new();
        for ((table, _), v) in survivors {
            remap.insert(v.offset, file.len());
            v.offset = file.len();
            file.extend_from_slice(&VersionRecord::encode(table, v));
        }
        for stamps in self.pending.values_mut() {
            for s in stamps.iter_mut() {
                if let Pending::Supersede { offset, .. } = s {
                    if let Some(new) = remap.get(offset) {
                        *offset = *new;
                    }
                }
            }
        }
        vdisk.write(VERSIONS_FILE, file);
    }

    /// Forgets all chain state of `table` (DROP TABLE). The disk records
    /// are *not* reclaimed — like real engines, dropping a table does
    /// not chase its undo history; only vacuum-with-scrub does.
    pub fn purge_table(&mut self, table: &str) {
        self.chains.retain(|(t, _), _| t != table);
        self.row_xmin.retain(|(t, _), _| t != table);
        self.pending_owner.retain(|(t, _), _| t != table);
    }

    /// The uncommitted overlay of `table`: every row whose current heap
    /// image (or absence from the heap) is an open transaction's write,
    /// with its last *committed* image — `None` for an uncommitted
    /// INSERT, the pre-image for an uncommitted UPDATE or DELETE.
    /// Read-committed is the latest heap minus this overlay. Ordered by
    /// row id; empty (and allocation-free) when no transaction has
    /// written to `table`.
    pub fn uncommitted(&self, table: &str) -> Vec<(u64, Option<Row>)> {
        let mut overlay: Vec<_> = self
            .pending_owner
            .keys()
            .filter(|key| key.0 == table)
            .map(|key| (key.1, self.chain_visible(key, u64::MAX)))
            .collect();
        overlay.sort_unstable_by_key(|(id, _)| *id);
        overlay
    }

    /// Total archived versions across all chains.
    pub fn version_count(&self) -> usize {
        self.chains.values().map(Vec::len).sum()
    }

    /// The chains themselves, for snapshotting
    /// (`MemoryImage::version_chains`).
    pub fn chains(&self) -> &HashMap<Key, Vec<Version>> {
        &self.chains
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn row(id: u64, n: i64) -> Row {
        Row {
            id,
            values: vec![Value::Int(n)],
        }
    }

    #[test]
    fn records_parse_as_they_were_encoded() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 4);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        vs.commit(&mut vd, 11, 9);
        vs.record_supersession(&mut vd, "accounts", &row(7, -5), OP_DELETE, 12)
            .unwrap();
        let raw = vd.read(VERSIONS_FILE).unwrap().to_vec();
        let (first, len) = VersionRecord::parse(&raw, 0).unwrap();
        let encoded = row(1, 100).encode();
        let want = VersionRecord {
            state: STATE_COMMITTED,
            op: OP_UPDATE,
            xmin: 4,
            xmax: 9,
            row_id: 1,
            table: "t",
            row: &encoded,
        };
        assert_eq!(first, want);
        assert_eq!(
            len,
            VersionRecord::encode("t", &vs.chains()[&("t".into(), 1)][0]).len()
        );
        assert_eq!(first.decode_row(), Some(row(1, 100)));
        let (second, end) = VersionRecord::parse(&raw, len).unwrap();
        assert_eq!(
            (second.table, second.state, len + end),
            ("accounts", STATE_PENDING, raw.len())
        );
        assert_eq!(max_csn(&vd), 9);
        // Every truncation, and a state or op out of range, is refused;
        // `max_csn` reads up to the first record that does not parse.
        assert!((0..len).all(|cut| VersionRecord::parse(&raw[..cut], 0).is_none()));
        for (at, v) in [(0, b'm'), (STATE_OFF, STATE_VACUUMED + 1), (5, 0), (5, 3)] {
            let mut bad = raw.clone();
            bad[at] = v;
            assert_eq!(VersionRecord::parse(&bad, 0), None, "byte {at} = {v}");
            vd.write(VERSIONS_FILE, bad);
            assert_eq!(max_csn(&vd), 0);
        }
        // A row image under another row id does not decode as this one.
        let moved = VersionRecord { row_id: 2, ..want };
        assert_eq!(moved.decode_row(), None);
        let long = "t".repeat(MAX_NAME + 1);
        let err = vs.record_supersession(&mut vd, &long, &row(1, 1), OP_UPDATE, 13);
        assert!(matches!(err, Err(DbError::Storage(_))), "{err:?}");
    }

    #[test]
    fn supersession_commit_stamps_window() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        // Row created at CSN 1.
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        // Superseded at CSN 2.
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        vs.commit(&mut vd, 11, 2);
        let chain = &vs.chains()[&("t".to_string(), 1)];
        assert_eq!(chain.len(), 1);
        assert_eq!((chain[0].xmin, chain[0].xmax), (1, 2));
        assert_eq!(chain[0].state, STATE_COMMITTED);
        // Snapshot 1 sees the old image; snapshot 2 sees the heap row.
        let visible = vs.visible_row("t", row(1, 200), 1, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(100));
        let visible = vs.visible_row("t", row(1, 200), 2, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(200));
    }

    #[test]
    fn uncommitted_insert_invisible_to_others() {
        let mut vs = VersionStore::default();
        vs.record_insert("t", 5, 10);
        assert!(vs.visible_row("t", row(5, 1), 100, 99).is_none());
        // ... but visible to its own transaction.
        assert!(vs.visible_row("t", row(5, 1), 100, 10).is_some());
    }

    #[test]
    fn abort_restores_and_marks() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        vs.abort(&mut vd, 11);
        // The heap row (restored to the old image by undo) is visible
        // again at any snapshot >= 1.
        let visible = vs.visible_row("t", row(1, 100), 1, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(100));
        let raw = vd.read(VERSIONS_FILE).unwrap();
        assert_eq!(raw[STATE_OFF], STATE_ABORTED, "disk record marked");
    }

    #[test]
    fn deleted_row_resurrects_for_old_snapshot() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        vs.record_supersession(&mut vd, "t", &row(1, 7), OP_DELETE, 11)
            .unwrap();
        vs.commit(&mut vd, 11, 2);
        let live = HashSet::new();
        let back = vs.resurrect_deleted("t", &live, 1, 99);
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].values[0], Value::Int(7));
        assert!(vs.resurrect_deleted("t", &live, 2, 99).is_empty());
    }

    #[test]
    fn vacuum_tombstones_but_scrub_erases() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        for (i, n) in [(0u64, 100i64), (1, 200), (2, 300)] {
            vs.record_supersession(&mut vd, "t", &row(1, n), OP_UPDATE, 20 + i)
                .unwrap();
            vs.commit(&mut vd, 20 + i, 2 + i);
        }
        assert_eq!(vs.version_count(), 3);
        let before = vd.len(VERSIONS_FILE);
        let (reclaimed, remaining) = vs.vacuum(&mut vd, u64::MAX, false);
        assert_eq!((reclaimed, remaining), (3, 0));
        // Tombstoned: same length, payloads intact, states flipped.
        assert_eq!(vd.len(VERSIONS_FILE), before);
        assert_eq!(vd.read(VERSIONS_FILE).unwrap()[STATE_OFF], STATE_VACUUMED);
        // Scrub: the file physically shrinks to nothing.
        let (_, _) = vs.vacuum(&mut vd, u64::MAX, true);
        assert_eq!(vd.len(VERSIONS_FILE), 0);
    }

    #[test]
    fn vacuum_respects_horizon() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        vs.commit(&mut vd, 11, 2);
        vs.record_supersession(&mut vd, "t", &row(1, 200), OP_UPDATE, 12)
            .unwrap();
        vs.commit(&mut vd, 12, 3);
        // A snapshot at CSN 2 still needs the second image (xmax 3).
        let (reclaimed, remaining) = vs.vacuum(&mut vd, 2, false);
        assert_eq!((reclaimed, remaining), (1, 1));
        assert_eq!(
            vs.chains()[&("t".to_string(), 1)][0].xmax,
            3,
            "the still-needed image survives"
        );
    }

    #[test]
    fn intra_txn_images_never_visible() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        // One txn updates the row twice: the intermediate image's
        // window must collapse at commit.
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        vs.record_supersession(&mut vd, "t", &row(1, 150), OP_UPDATE, 11)
            .unwrap();
        // While pending, too: both records are `(xmin 1, xmax 0)`, but
        // only the older one is a committed image.
        let visible = vs.visible_row("t", row(1, 200), 1, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(100));
        assert_eq!(vs.uncommitted("t"), vec![(1, Some(row(1, 100)))]);
        vs.commit(&mut vd, 11, 2);
        assert!(vs.uncommitted("t").is_empty());
        // Snapshot 1: the original image, not the intermediate.
        let visible = vs.visible_row("t", row(1, 200), 1, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(100));
    }

    #[test]
    fn overlay_holds_the_last_committed_image_per_table() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        for id in [1, 2] {
            vs.record_insert("t", id, 10);
        }
        vs.record_insert("other", 1, 10);
        vs.commit(&mut vd, 10, 1);
        assert!(vs.uncommitted("t").is_empty());
        // One open transaction: an insert it then updates, an update, a
        // delete; another table's rows are not this table's overlay.
        vs.record_insert("t", 3, 11);
        vs.record_supersession(&mut vd, "t", &row(3, 30), OP_UPDATE, 11)
            .unwrap();
        vs.record_supersession(&mut vd, "t", &row(2, 20), OP_UPDATE, 11)
            .unwrap();
        vs.record_supersession(&mut vd, "t", &row(1, 10), OP_DELETE, 11)
            .unwrap();
        vs.record_supersession(&mut vd, "other", &row(1, 5), OP_UPDATE, 12)
            .unwrap();
        assert_eq!(
            vs.uncommitted("t"),
            vec![(1, Some(row(1, 10))), (2, Some(row(2, 20))), (3, None)]
        );
        vs.abort(&mut vd, 11);
        assert!(vs.uncommitted("t").is_empty());
        assert_eq!(vs.uncommitted("other").len(), 1);
    }

    #[test]
    fn first_updater_wins() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        let len = vd.len(VERSIONS_FILE);
        let err = vs.record_supersession(&mut vd, "t", &row(1, 200), OP_UPDATE, 12);
        assert!(matches!(err, Err(DbError::WriteConflict(_))), "{err:?}");
        assert_eq!(
            vd.len(VERSIONS_FILE),
            len,
            "a refused write archives nothing"
        );
        assert_eq!(vs.pending_mark(12), 0);
        vs.abort(&mut vd, 11);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 12)
            .unwrap();
    }

    #[test]
    fn statement_rollback_keeps_the_transactions_earlier_write_owned() {
        let mut vs = VersionStore::default();
        let mut vd = VDisk::new();
        vs.record_insert("t", 1, 10);
        vs.commit(&mut vd, 10, 1);
        vs.record_supersession(&mut vd, "t", &row(1, 100), OP_UPDATE, 11)
            .unwrap();
        let mark = vs.pending_mark(11);
        vs.record_supersession(&mut vd, "t", &row(1, 150), OP_UPDATE, 11)
            .unwrap();
        vs.abort_from(&mut vd, 11, mark);
        // The heap holds 150 again: still transaction 11's, not history.
        let visible = vs.visible_row("t", row(1, 150), 1, 99).unwrap();
        assert_eq!(visible.values[0], Value::Int(100));
        assert_eq!(vs.uncommitted("t"), vec![(1, Some(row(1, 100)))]);
    }
}
