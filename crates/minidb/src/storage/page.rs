//! Slotted pages: the unit of storage, caching, and redo.
//!
//! Layout (little-endian):
//!
//! ```text
//! 0..8    page_lsn      LSN of the last change applied to this page
//! 8..10   n_slots       number of slot-directory entries
//! 10..12  free_end      offset where the cell area begins (cells grow down)
//! 12..13  syn_valid     1 = the synopsis below covers every live cell
//! 13..14  syn_ncols     number of synopsis entries in use
//! 14..16  syn_rows      live row count the synopsis reflects
//! 16..88  synopsis      4 × (col u16, min i64, max i64) zone-map entries
//! 88..    slot dir      n_slots × u16 cell offsets (0 = tombstone)
//! ...     free space
//! ...     cells         each cell: u16 length + payload, packed at the end
//! ```
//!
//! One view, [`Page`], reads and edits these bytes in place: over the
//! `[u8; PAGE_SIZE]` a buffer-pool frame holds, shared for reads and
//! `&mut` for the mutators too, so fixed header fields are in bounds by
//! type. What the page says about itself (slot count, `free_end`, slot
//! offsets, cell lengths) is checked where it is read; a lie is a
//! [`DbError::Storage`], never a panic. Pages carry no checksum, so a
//! damaged header that stays plausible still reads, with wrong rows.
//!
//! The synopsis is the page's **zone map**: per-column min/max over the
//! INT values of the live rows, plus a live-row count. The scan executor
//! uses it to skip pages that cannot match a range predicate without
//! decoding them. It is deliberately *conservative*: deletes and
//! narrowing updates leave the bounds wider than the live data, which is
//! always sound for pruning. Byte-level mutators ([`Page::insert`],
//! [`Page::insert_at`], [`Page::update_in_place`], [`Page::delete`])
//! know nothing about row encodings, so they clear `syn_valid`; the
//! value-aware table-heap layer restores it, and scans lazily rebuild
//! synopses that raw paths (redo replay) left invalid.
//!
//! Forensics note (§3/§5 of the paper): the synopsis is plaintext page
//! metadata. Every flushed heap page hands an attacker the min/max of
//! its rows' indexable columns — even when the row payload cells
//! themselves carry ciphertext.

// Page bytes come from disk: a page that lies is a typed error, never
// a panic.
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

use std::ops::{Bound, Deref, DerefMut, Range};

use crate::error::{DbError, DbResult};

/// Page size in bytes, matching InnoDB's default.
pub const PAGE_SIZE: usize = 16 * 1024;

const HDR_LSN: usize = 0;
const HDR_NSLOTS: usize = 8;
const HDR_FREE_END: usize = 10;
const HDR_SYN_VALID: usize = 12;
const HDR_SYN_NCOLS: usize = 13;
const HDR_SYN_ROWS: usize = 14;
const HDR_SYN_ENTRIES: usize = 16;
/// Bytes per synopsis entry: column ordinal + min + max.
const SYN_ENTRY_SIZE: usize = 2 + 8 + 8;
/// Maximum number of columns a page synopsis tracks (the first
/// [`SYN_MAX_COLS`] INT columns that appear in this page's rows).
pub const SYN_MAX_COLS: usize = 4;
const HDR_SIZE: usize = HDR_SYN_ENTRIES + SYN_MAX_COLS * SYN_ENTRY_SIZE;

/// Slot index within a page.
pub type SlotNo = u16;

/// Min/max statistics for one column within one page.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column ordinal in schema order.
    pub col: u16,
    /// Smallest live INT value seen (conservative lower bound).
    pub min: i64,
    /// Largest live INT value seen (conservative upper bound).
    pub max: i64,
}

impl ColumnStats {
    fn decode(e: &[u8; SYN_ENTRY_SIZE]) -> ColumnStats {
        let [c0, c1, n0, n1, n2, n3, n4, n5, n6, n7, x0, x1, x2, x3, x4, x5, x6, x7] = *e;
        ColumnStats {
            col: u16::from_le_bytes([c0, c1]),
            min: i64::from_le_bytes([n0, n1, n2, n3, n4, n5, n6, n7]),
            max: i64::from_le_bytes([x0, x1, x2, x3, x4, x5, x6, x7]),
        }
    }

    fn encode(&self) -> [u8; SYN_ENTRY_SIZE] {
        let mut e = [0; SYN_ENTRY_SIZE];
        e[..2].copy_from_slice(&self.col.to_le_bytes());
        e[2..10].copy_from_slice(&self.min.to_le_bytes());
        e[10..].copy_from_slice(&self.max.to_le_bytes());
        e
    }
}

/// A decoded page synopsis (zone map): live-row count plus per-column
/// min/max bounds, held inline (at most [`SYN_MAX_COLS`] of them), so
/// reading one off a page allocates nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageSynopsis {
    /// Live rows on the page.
    pub rows: u16,
    /// Bounds in use: `cols[..ncols]`. The rest stay default, so equal
    /// synopses compare equal.
    ncols: u8,
    cols: [ColumnStats; SYN_MAX_COLS],
}

impl PageSynopsis {
    /// A synopsis of `rows` live rows with the first [`SYN_MAX_COLS`]
    /// of `cols` as its bounds.
    pub fn new(rows: u16, cols: &[ColumnStats]) -> PageSynopsis {
        let mut syn = PageSynopsis {
            rows,
            ncols: cols.len().min(SYN_MAX_COLS) as u8,
            cols: [ColumnStats::default(); SYN_MAX_COLS],
        };
        for (slot, c) in syn.cols.iter_mut().zip(cols) {
            *slot = *c;
        }
        syn
    }

    /// Per-column bounds, in first-seen order.
    pub fn cols(&self) -> &[ColumnStats] {
        let n = usize::from(self.ncols).min(SYN_MAX_COLS);
        self.cols.split_at(n).0
    }

    /// Stats for one column, if tracked.
    pub fn stats(&self, col: u16) -> Option<&ColumnStats> {
        self.cols().iter().find(|c| c.col == col)
    }

    /// Whether the page provably holds no row with `col` inside
    /// `(lo, hi)`. Untracked columns never exclude (the column may be
    /// non-INT, all-NULL, or beyond the synopsis capacity).
    pub fn excludes(&self, col: u16, lo: &Bound<i64>, hi: &Bound<i64>) -> bool {
        if self.rows == 0 {
            return true;
        }
        let Some(s) = self.stats(col) else {
            return false;
        };
        let below = match lo {
            Bound::Included(v) => s.max < *v,
            Bound::Excluded(v) => s.max <= *v,
            Bound::Unbounded => false,
        };
        let above = match hi {
            Bound::Included(v) => s.min > *v,
            Bound::Excluded(v) => s.min >= *v,
            Bound::Unbounded => false,
        };
        below || above
    }
}

fn damaged(what: String) -> DbError {
    DbError::Storage(format!("damaged page: {what}"))
}

/// Where slot `slot`'s directory entry starts.
fn slot_at(slot: SlotNo) -> usize {
    HDR_SIZE + 2 * usize::from(slot)
}

/// The `u16` at `b[at..]`, if two bytes are left there.
fn u16_at(b: &[u8], at: usize) -> Option<usize> {
    let v = b.get(at..)?.first_chunk()?;
    Some(usize::from(u16::from_le_bytes(*v)))
}

/// A view over one page's bytes providing slotted-record operations:
/// `B` is `&[u8; PAGE_SIZE]` for reads, `&mut [u8; PAGE_SIZE]` for the
/// mutators too.
///
/// The page does not own its buffer; the buffer pool does. All mutations
/// are in-place byte edits, which is what makes redo records replayable
/// and the forensic story byte-accurate.
pub struct Page<B> {
    buf: B,
}

impl<B: Deref<Target = [u8; PAGE_SIZE]>> Page<B> {
    /// Wraps a page buffer.
    pub fn new(buf: B) -> Page<B> {
        Page { buf }
    }

    fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.buf
    }

    /// The page's LSN (last change).
    pub fn lsn(&self) -> u64 {
        let mut lsn = [0; 8];
        lsn.copy_from_slice(&self.bytes()[HDR_LSN..HDR_LSN + 8]);
        u64::from_le_bytes(lsn)
    }

    /// `(n_slots, free_end)` as the header states them, checked: the
    /// slot directory ends at or before `free_end`, which is at most
    /// [`PAGE_SIZE`].
    fn dir(&self) -> DbResult<(SlotNo, usize)> {
        let b = self.bytes();
        let n_slots = u16::from_le_bytes([b[HDR_NSLOTS], b[HDR_NSLOTS + 1]]);
        let free_end = usize::from(u16::from_le_bytes([b[HDR_FREE_END], b[HDR_FREE_END + 1]]));
        if slot_at(n_slots) > free_end || free_end > PAGE_SIZE {
            let what = format!("{n_slots} slots overlap the cell area at {free_end}");
            return Err(damaged(what));
        }
        Ok((n_slots, free_end))
    }

    /// Number of slots (including tombstones).
    pub fn n_slots(&self) -> DbResult<SlotNo> {
        Ok(self.dir()?.0)
    }

    /// Free bytes between the slot directory and the cell area.
    pub fn free_space(&self) -> DbResult<usize> {
        let (n_slots, free_end) = self.dir()?;
        Ok(free_end - slot_at(n_slots))
    }

    /// Whether a cell of `len` payload bytes fits (including a new slot).
    pub fn fits(&self, len: usize) -> DbResult<bool> {
        // 2 bytes cell length prefix + 2 bytes for a new slot entry.
        Ok(self.free_space()? >= len + 4)
    }

    /// The payload range of the cell in `slot`, or `None` for a tombstone
    /// or a slot past the directory.
    fn cell(&self, slot: SlotNo) -> DbResult<Option<Range<usize>>> {
        let (n_slots, free_end) = self.dir()?;
        if slot >= n_slots {
            return Ok(None);
        }
        let lie = |what: &str| damaged(format!("slot {slot} {what}"));
        let b = self.bytes();
        let off = u16_at(b, slot_at(slot)).ok_or_else(|| lie("is past the page"))?;
        if off == 0 {
            return Ok(None);
        }
        if off < free_end {
            return Err(lie("points outside the cell area"));
        }
        let len = u16_at(b, off).ok_or_else(|| lie("has a cell with no length"))?;
        if off + 2 + len > PAGE_SIZE {
            return Err(lie("has a cell that overruns the page"));
        }
        Ok(Some(off + 2..off + 2 + len))
    }

    /// Reads the record in `slot`, or `None` for tombstones.
    pub fn get(&self, slot: SlotNo) -> DbResult<Option<&[u8]>> {
        // In bounds: `cell` checked the range.
        Ok(self.cell(slot)?.and_then(|r| self.bytes().get(r)))
    }

    /// Iterates live `(slot, payload)` pairs. A header that lies yields
    /// one error and no cell; a slot that lies yields an error in its
    /// place.
    pub fn iter(&self) -> impl Iterator<Item = DbResult<(SlotNo, &[u8])>> + '_ {
        let (n_slots, head) = match self.n_slots() {
            Ok(n) => (n, None),
            Err(e) => (0, Some(Err(e))),
        };
        let cells = (0..n_slots).map(move |s| Ok(self.get(s)?.map(|c| (s, c))));
        head.into_iter().chain(cells.filter_map(Result::transpose))
    }

    // ---------------- synopsis (zone map) ----------------

    /// Whether the persisted synopsis covers every live cell. Raw byte
    /// mutators clear this; the value-aware heap layer restores it.
    pub fn synopsis_valid(&self) -> bool {
        self.bytes()[HDR_SYN_VALID] == 1
    }

    fn syn_rows(&self) -> u16 {
        let b = self.bytes();
        u16::from_le_bytes([b[HDR_SYN_ROWS], b[HDR_SYN_ROWS + 1]])
    }

    /// Decodes the synopsis, or `None` when it is invalid or lies (more
    /// than [`SYN_MAX_COLS`] columns, or a `min > max`): no heap write
    /// leaves that, so such bounds never prune, nor are they carved.
    pub fn synopsis(&self) -> Option<PageSynopsis> {
        if !self.synopsis_valid() {
            return None;
        }
        let b = self.bytes();
        let ncols = usize::from(b[HDR_SYN_NCOLS]);
        if ncols > SYN_MAX_COLS {
            return None;
        }
        let entries = b[HDR_SYN_ENTRIES..HDR_SIZE].as_chunks().0.iter();
        let mut cols = [ColumnStats::default(); SYN_MAX_COLS];
        for (slot, e) in cols.iter_mut().zip(entries).take(ncols) {
            *slot = ColumnStats::decode(e);
            if slot.min > slot.max {
                return None;
            }
        }
        Some(PageSynopsis {
            rows: self.syn_rows(),
            ncols: ncols as u8,
            cols,
        })
    }
}

impl<B: DerefMut<Target = [u8; PAGE_SIZE]>> Page<B> {
    fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.buf
    }

    /// Formats the page as empty (with an empty, valid synopsis: zero
    /// rows, zero tracked columns).
    pub fn format(&mut self) {
        let b = self.bytes_mut();
        b.fill(0);
        b[HDR_FREE_END..HDR_FREE_END + 2].copy_from_slice(&(PAGE_SIZE as u16).to_le_bytes());
        b[HDR_SYN_VALID] = 1;
    }

    /// Sets the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.bytes_mut()[HDR_LSN..HDR_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Points `slot`'s directory entry at `off`, and clears `syn_valid`.
    fn put_slot(&mut self, slot: SlotNo, off: usize) -> DbResult<()> {
        let b = self.bytes_mut();
        b[HDR_SYN_VALID] = 0;
        let entry = b.get_mut(slot_at(slot)..slot_at(slot) + 2);
        let entry = entry.ok_or_else(|| damaged(format!("slot {slot} is past the page")))?;
        entry.copy_from_slice(&(off as u16).to_le_bytes());
        Ok(())
    }

    /// Inserts a record, returning its slot.
    pub fn insert(&mut self, payload: &[u8]) -> DbResult<SlotNo> {
        let slot = self.n_slots()?;
        self.insert_at(slot, payload)?;
        Ok(slot)
    }

    /// The one cell writer: places `payload` in a fresh cell below the
    /// cell area and points `slot` at it. `slot` is the next fresh slot
    /// (the directory grows by one) or, in redo replay reproducing the
    /// original placement, a tombstone.
    pub fn insert_at(&mut self, slot: SlotNo, payload: &[u8]) -> DbResult<()> {
        let (n_slots, free_end) = self.dir()?;
        let fresh = slot == n_slots;
        if slot > n_slots {
            return Err(DbError::Storage("redo insert skipped a slot".into()));
        }
        if !fresh && self.cell(slot)?.is_some() {
            return Err(DbError::Storage("redo insert into occupied slot".into()));
        }
        let len = u16::try_from(payload.len())
            .map_err(|_| DbError::Storage("record too large for a page".into()))?;
        // The cell, and a directory entry if the slot is fresh.
        let dir_end = slot_at(n_slots) + if fresh { 2 } else { 0 };
        let at = free_end.checked_sub(payload.len() + 2);
        let Some(at) = at.filter(|&at| at >= dir_end) else {
            return Err(DbError::Storage("page full".into()));
        };
        let b = self.bytes_mut();
        let cell = b
            .get_mut(at..free_end)
            .and_then(|c| c.split_first_chunk_mut());
        let (prefix, body) = cell.ok_or_else(|| damaged(format!("no cell fits at {at}")))?;
        *prefix = len.to_le_bytes();
        body.copy_from_slice(payload);
        b[HDR_FREE_END..HDR_FREE_END + 2].copy_from_slice(&(at as u16).to_le_bytes());
        if fresh {
            b[HDR_NSLOTS..HDR_NSLOTS + 2].copy_from_slice(&(slot + 1).to_le_bytes());
        }
        self.put_slot(slot, at)
    }

    /// Tombstones `slot`. The cell bytes are *not* erased — MiniDB, like
    /// InnoDB, performs no secure deletion, so deleted row images remain on
    /// the page until the space is reused (a §3/§5 leakage channel).
    pub fn delete(&mut self, slot: SlotNo) -> DbResult<()> {
        if self.cell(slot)?.is_none() {
            return Err(DbError::Storage("delete of missing slot".into()));
        }
        self.put_slot(slot, 0)
    }

    /// Overwrites the record in `slot` in place. The new payload must have
    /// exactly the old length (callers fall back to delete+insert
    /// otherwise).
    pub fn update_in_place(&mut self, slot: SlotNo, payload: &[u8]) -> DbResult<()> {
        let cell = self.cell(slot)?;
        let cell = cell.ok_or_else(|| DbError::Storage("update of missing slot".into()))?;
        let b = self.bytes_mut();
        match b.get_mut(cell) {
            Some(old) if old.len() == payload.len() => old.copy_from_slice(payload),
            _ => return Err(DbError::Storage("in-place update length mismatch".into())),
        }
        b[HDR_SYN_VALID] = 0;
        Ok(())
    }

    // ---------------- synopsis (zone map) maintenance ----------------

    /// Marks the synopsis valid (or not). Only the table-heap layer,
    /// which knows the row values, may set this to `true`.
    pub fn set_synopsis_valid(&mut self, valid: bool) {
        self.bytes_mut()[HDR_SYN_VALID] = valid as u8;
    }

    fn set_syn_rows(&mut self, rows: u16) {
        self.bytes_mut()[HDR_SYN_ROWS..HDR_SYN_ROWS + 2].copy_from_slice(&rows.to_le_bytes());
    }

    /// Resets the synopsis to empty-and-valid (start of a rebuild).
    pub fn synopsis_reset(&mut self) {
        let b = self.bytes_mut();
        b[HDR_SYN_VALID] = 1;
        b[HDR_SYN_NCOLS] = 0;
        self.set_syn_rows(0);
    }

    /// Accounts for an in-place update: widens bounds by the new values.
    /// The old values stay inside the bounds — conservative but sound.
    pub fn synopsis_note_update(&mut self, cols: &[(u16, i64)]) {
        let b = self.bytes_mut();
        for &(col, v) in cols {
            let ncols = usize::from(b[HDR_SYN_NCOLS]);
            let entries = b[HDR_SYN_ENTRIES..HDR_SIZE].as_chunks_mut().0;
            let mut tracked = entries
                .iter_mut()
                .take(ncols)
                .map(|e| (ColumnStats::decode(e), e));
            if let Some((s, e)) = tracked.find(|(s, _)| s.col == col) {
                let (min, max) = (s.min.min(v), s.max.max(v));
                *e = ColumnStats { min, max, ..s }.encode();
            } else if let Some(e) = entries.get_mut(ncols) {
                *e = ColumnStats {
                    col,
                    min: v,
                    max: v,
                }
                .encode();
                b[HDR_SYN_NCOLS] = (ncols + 1) as u8;
            }
            // Columns past the capacity simply go untracked (and can
            // therefore never prune).
        }
    }

    /// Accounts for one inserted row: widens the tracked bounds by its
    /// INT values and bumps the live-row count.
    pub fn synopsis_note_insert(&mut self, cols: &[(u16, i64)]) {
        self.synopsis_note_update(cols);
        self.set_syn_rows(self.syn_rows().saturating_add(1));
    }

    /// Accounts for one deleted row: the bounds stay (a superset is
    /// sound), only the live-row count drops.
    pub fn synopsis_note_delete(&mut self) {
        self.set_syn_rows(self.syn_rows().saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        let mut buf = Box::new([0xAA; PAGE_SIZE]);
        Page::new(&mut *buf).format();
        buf
    }

    #[test]
    fn insert_get_round_trip() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap().unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap().unwrap(), b"world!");
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn delete_leaves_bytes_behind() {
        let mut buf = fresh();
        {
            let mut p = Page::new(&mut *buf);
            let s = p.insert(b"SECRET-ROW-IMAGE").unwrap();
            p.delete(s).unwrap();
            assert!(p.get(s).unwrap().is_none());
            assert_eq!(p.iter().count(), 0);
            assert!(p.delete(s).is_err());
        }
        // The ghost of the record is still in the raw page bytes.
        let raw = buf.windows(16).any(|w| w == b"SECRET-ROW-IMAGE");
        assert!(raw, "deleted record image must remain on the page");
    }

    #[test]
    fn update_in_place_same_length_only() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        let s = p.insert(b"aaaa").unwrap();
        p.update_in_place(s, b"bbbb").unwrap();
        assert_eq!(p.get(s).unwrap().unwrap(), b"bbbb");
        assert!(p.update_in_place(s, b"ccc").is_err());
        assert!(p.update_in_place(s + 1, b"bbbb").is_err());
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        let payload = vec![7u8; 1000];
        let mut count = 0;
        while p.fits(payload.len()).unwrap() {
            p.insert(&payload).unwrap();
            count += 1;
        }
        assert!(count >= 15, "a 16K page should hold >= 15 1K records");
        assert!(p.insert(&payload).is_err());
        // Small records may still fit, down to the last byte.
        assert!(p.fits(4).unwrap());
        while p.insert(b"").is_ok() {}
        assert_eq!(p.insert(b""), Err(DbError::Storage("page full".into())));
        assert!(p.free_space().unwrap() < 4);
    }

    #[test]
    fn insert_at_replays_tombstoned_slot() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        let a = p.insert(b"one").unwrap();
        p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        p.insert_at(a, b"one-again").unwrap();
        assert_eq!(p.get(a).unwrap().unwrap(), b"one-again");
        assert!(p.insert_at(a, b"occupied").is_err());
        assert!(p.insert_at(99, b"gap").is_err());
        p.insert_at(2, b"three").unwrap();
        assert_eq!(p.n_slots().unwrap(), 3);
    }

    #[test]
    fn lsn_round_trip() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        assert_eq!(p.lsn(), 0);
        p.set_lsn(0xABCD_EF01);
        assert_eq!(p.lsn(), 0xABCD_EF01);
    }

    #[test]
    fn rejects_oversized_record() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
        assert!(p.insert(&vec![0u8; 1 << 16]).is_err());
    }

    #[test]
    fn raw_mutations_invalidate_synopsis() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        assert!(p.synopsis_valid(), "fresh page starts valid and empty");
        let s = p.insert(b"row").unwrap();
        assert!(!p.synopsis_valid(), "raw insert must invalidate");
        p.set_synopsis_valid(true);
        p.update_in_place(s, b"ROW").unwrap();
        assert!(!p.synopsis_valid(), "raw update must invalidate");
        p.set_synopsis_valid(true);
        p.delete(s).unwrap();
        assert!(!p.synopsis_valid(), "raw delete must invalidate");
    }

    #[test]
    fn synopsis_tracks_min_max_and_rows() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        p.insert(b"a").unwrap();
        p.synopsis_note_insert(&[(0, 50), (1, -3)]);
        p.set_synopsis_valid(true);
        p.insert(b"b").unwrap();
        p.synopsis_note_insert(&[(0, 10), (1, 7)]);
        p.set_synopsis_valid(true);
        let syn = p.synopsis().expect("valid");
        assert_eq!(syn.rows, 2);
        assert_eq!(
            syn.stats(0).unwrap(),
            &ColumnStats {
                col: 0,
                min: 10,
                max: 50
            }
        );
        assert_eq!(
            syn.stats(1).unwrap(),
            &ColumnStats {
                col: 1,
                min: -3,
                max: 7
            }
        );
        // Update widens, delete only drops the count.
        p.synopsis_note_update(&[(0, 99)]);
        p.synopsis_note_delete();
        let syn = p.synopsis().unwrap();
        assert_eq!(syn.rows, 1);
        assert_eq!(syn.stats(0).unwrap().max, 99);
        assert_eq!(syn.stats(0).unwrap().min, 10);
    }

    #[test]
    fn synopsis_capacity_caps_tracked_columns() {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        let cols: Vec<(u16, i64)> = (0..8).map(|i| (i as u16, i)).collect();
        p.synopsis_note_insert(&cols);
        let syn = p.synopsis().unwrap();
        assert_eq!(syn.cols().len(), SYN_MAX_COLS);
        assert!(syn.stats(7).is_none(), "columns past capacity go untracked");
        // Untracked columns never exclude.
        use std::ops::Bound::*;
        assert!(!syn.excludes(7, &Included(100), &Unbounded));
    }

    #[test]
    fn a_synopsis_that_lies_reads_as_none() {
        let mut buf = fresh();
        Page::new(&mut *buf).synopsis_note_insert(&[(0, 3), (1, 8)]);
        assert_eq!(Page::new(&*buf).synopsis().unwrap().cols().len(), 2);
        // More columns than the header holds.
        buf[HDR_SYN_NCOLS] = SYN_MAX_COLS as u8 + 1;
        assert_eq!(Page::new(&*buf).synopsis(), None);
        // The second column's min above its max.
        buf[HDR_SYN_NCOLS] = 2;
        let min = HDR_SYN_ENTRIES + SYN_ENTRY_SIZE + 2;
        buf[min..min + 8].copy_from_slice(&9i64.to_le_bytes());
        assert_eq!(Page::new(&*buf).synopsis(), None);
    }

    #[test]
    fn excludes_respects_bound_kinds() {
        use std::ops::Bound::*;
        let syn = PageSynopsis::new(
            5,
            &[ColumnStats {
                col: 0,
                min: 10,
                max: 20,
            }],
        );
        // Disjoint above and below.
        assert!(syn.excludes(0, &Included(21), &Unbounded));
        assert!(syn.excludes(0, &Unbounded, &Included(9)));
        // Touching endpoints: inclusive overlaps, exclusive does not.
        assert!(!syn.excludes(0, &Included(20), &Unbounded));
        assert!(syn.excludes(0, &Excluded(20), &Unbounded));
        assert!(!syn.excludes(0, &Unbounded, &Included(10)));
        assert!(syn.excludes(0, &Unbounded, &Excluded(10)));
        // Overlapping range keeps the page.
        assert!(!syn.excludes(0, &Included(15), &Included(30)));
        // Empty pages always prune.
        let empty = PageSynopsis::new(0, &[]);
        assert!(empty.excludes(0, &Unbounded, &Unbounded));
    }

    #[test]
    fn a_shared_view_reads_what_the_mutable_view_wrote() {
        let mut buf = fresh();
        {
            let mut p = Page::new(&mut *buf);
            p.insert(b"alpha").unwrap();
            let s = p.insert(b"beta").unwrap();
            p.insert(b"gamma").unwrap();
            p.delete(s).unwrap();
            p.synopsis_reset();
            p.synopsis_note_insert(&[(0, 4)]);
            p.synopsis_note_insert(&[(0, 9)]);
        }
        let r = Page::new(&*buf);
        assert_eq!(r.n_slots().unwrap(), 3);
        let live: Vec<&[u8]> = r.iter().map(|c| c.unwrap().1).collect();
        assert_eq!(live, vec![b"alpha".as_ref(), b"gamma".as_ref()]);
        assert!(r.synopsis_valid());
        assert_eq!(r.synopsis().unwrap().stats(0).unwrap().max, 9);
    }

    /// A page of three cells with `edit` applied to its bytes.
    fn edited(edit: impl FnOnce(&mut [u8; PAGE_SIZE])) -> Box<[u8; PAGE_SIZE]> {
        let mut buf = fresh();
        let mut p = Page::new(&mut *buf);
        for cell in [b"one".as_ref(), b"two", b"three"] {
            p.insert(cell).unwrap();
        }
        edit(&mut buf);
        buf
    }

    /// Every reader and mutator of a page that lies about itself.
    fn every_access_fails(buf: &mut [u8; PAGE_SIZE], slot: SlotNo) {
        let storage = |r: DbResult<()>| assert!(matches!(r, Err(DbError::Storage(_))), "{r:?}");
        let mut p = Page::new(buf);
        assert!(p.iter().any(|c| c.is_err()));
        storage(p.get(slot).map(drop));
        storage(p.update_in_place(slot, b"xyz").map(drop));
        storage(p.delete(slot));
        storage(p.insert_at(slot, b"xyz"));
    }

    #[test]
    fn a_header_that_lies_is_a_storage_error() {
        let set = |at: usize, v: u16| {
            move |b: &mut [u8; PAGE_SIZE]| b[at..at + 2].copy_from_slice(&v.to_le_bytes())
        };
        // The slot directory runs past the page, or into the cells.
        for n in [0xFFFF, 8_149, 8_140] {
            let mut buf = edited(set(HDR_NSLOTS, n));
            every_access_fails(&mut buf, 0);
            let p = Page::new(&*buf);
            assert!(p.n_slots().is_err() && p.free_space().is_err() && p.fits(1).is_err());
        }
        // The cell area starts inside the header, or past the page.
        for free_end in [0, 87, PAGE_SIZE as u16 + 1, 0xFFFF] {
            let mut buf = edited(set(HDR_FREE_END, free_end));
            every_access_fails(&mut buf, 1);
            assert!(Page::new(&mut *buf).insert(b"x").is_err());
        }
        // A slot points past the page, into the directory, or at a cell
        // whose length runs off the end.
        for off in [0xFFF0, PAGE_SIZE as u16 - 1, 40] {
            every_access_fails(&mut edited(set(HDR_SIZE, off)), 0);
        }
        let last_cell = PAGE_SIZE - 5;
        every_access_fails(&mut edited(set(last_cell, 6)), 0);
        every_access_fails(&mut edited(set(last_cell, 0xFFFF)), 0);
        // A plausible lie still reads: shorter cells, as bytes.
        let buf = edited(set(last_cell, 1));
        assert_eq!(Page::new(&*buf).get(0).unwrap().unwrap(), b"o");
    }
}
