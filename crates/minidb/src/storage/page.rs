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

use std::ops::Bound;

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
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column ordinal in schema order.
    pub col: u16,
    /// Smallest live INT value seen (conservative lower bound).
    pub min: i64,
    /// Largest live INT value seen (conservative upper bound).
    pub max: i64,
}

/// A decoded page synopsis (zone map): live-row count plus per-column
/// min/max bounds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageSynopsis {
    /// Live rows on the page.
    pub rows: u16,
    /// Per-column bounds, in first-seen order.
    pub cols: Vec<ColumnStats>,
}

impl PageSynopsis {
    /// Stats for one column, if tracked.
    pub fn stats(&self, col: u16) -> Option<&ColumnStats> {
        self.cols.iter().find(|c| c.col == col)
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

fn syn_decode(buf: &[u8]) -> Option<PageSynopsis> {
    if buf[HDR_SYN_VALID] != 1 {
        return None;
    }
    let ncols = (buf[HDR_SYN_NCOLS] as usize).min(SYN_MAX_COLS);
    let rows = u16::from_le_bytes([buf[HDR_SYN_ROWS], buf[HDR_SYN_ROWS + 1]]);
    let mut cols = Vec::with_capacity(ncols);
    for i in 0..ncols {
        let off = HDR_SYN_ENTRIES + i * SYN_ENTRY_SIZE;
        cols.push(ColumnStats {
            col: u16::from_le_bytes([buf[off], buf[off + 1]]),
            min: i64::from_le_bytes(*buf[off + 2..].first_chunk()?),
            max: i64::from_le_bytes(*buf[off + 10..].first_chunk()?),
        });
    }
    Some(PageSynopsis { rows, cols })
}

/// A view over one page's bytes providing slotted-record operations.
///
/// The page does not own its buffer; the buffer pool does. All mutations
/// are in-place byte edits, which is what makes redo records replayable
/// and the forensic story byte-accurate.
pub struct Page<'a> {
    buf: &'a mut [u8],
}

impl<'a> Page<'a> {
    /// Wraps a page-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly [`PAGE_SIZE`] bytes.
    pub fn new(buf: &'a mut [u8]) -> Page<'a> {
        assert_eq!(buf.len(), PAGE_SIZE, "page buffer size");
        Page { buf }
    }

    /// Formats the buffer as an empty page (with an empty, valid
    /// synopsis: zero rows, zero tracked columns).
    pub fn format(buf: &mut [u8]) {
        assert_eq!(buf.len(), PAGE_SIZE);
        buf[..HDR_SIZE].fill(0);
        let free_end = PAGE_SIZE as u16;
        buf[HDR_FREE_END..HDR_FREE_END + 2].copy_from_slice(&free_end.to_le_bytes());
        buf[HDR_SYN_VALID] = 1;
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    fn read_u64(&self, off: usize) -> u64 {
        let mut b = [0; 8];
        b.copy_from_slice(&self.buf[off..off + 8]);
        u64::from_le_bytes(b)
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// The page's LSN (last change).
    pub fn lsn(&self) -> u64 {
        self.read_u64(HDR_LSN)
    }

    /// Sets the page LSN.
    pub fn set_lsn(&mut self, lsn: u64) {
        self.buf[HDR_LSN..HDR_LSN + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Number of slots (including tombstones).
    pub fn n_slots(&self) -> u16 {
        self.read_u16(HDR_NSLOTS)
    }

    fn free_end(&self) -> u16 {
        self.read_u16(HDR_FREE_END)
    }

    fn slot_offset(&self, slot: SlotNo) -> u16 {
        self.read_u16(HDR_SIZE + slot as usize * 2)
    }

    fn set_slot_offset(&mut self, slot: SlotNo, off: u16) {
        self.write_u16(HDR_SIZE + slot as usize * 2, off);
    }

    /// Free bytes between the slot directory and the cell area.
    pub fn free_space(&self) -> usize {
        let dir_end = HDR_SIZE + self.n_slots() as usize * 2;
        self.free_end() as usize - dir_end
    }

    /// Whether a cell of `len` payload bytes fits (including a new slot).
    pub fn fits(&self, len: usize) -> bool {
        // 2 bytes cell length prefix + 2 bytes for a new slot entry.
        self.free_space() >= len + 4
    }

    /// Inserts a record, returning its slot.
    pub fn insert(&mut self, payload: &[u8]) -> DbResult<SlotNo> {
        if payload.len() > u16::MAX as usize {
            return Err(DbError::Storage("record too large for a page".into()));
        }
        if !self.fits(payload.len()) {
            return Err(DbError::Storage("page full".into()));
        }
        let cell_len = payload.len() + 2;
        let new_end = self.free_end() as usize - cell_len;
        self.buf[new_end..new_end + 2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        self.buf[new_end + 2..new_end + 2 + payload.len()].copy_from_slice(payload);
        self.write_u16(HDR_FREE_END, new_end as u16);
        let slot = self.n_slots();
        self.write_u16(HDR_NSLOTS, slot + 1);
        self.set_slot_offset(slot, new_end as u16);
        self.buf[HDR_SYN_VALID] = 0;
        Ok(slot)
    }

    /// Inserts at a *specific* slot (used by redo replay to reproduce the
    /// original placement). The slot must be the next fresh slot or a
    /// tombstone.
    pub fn insert_at(&mut self, slot: SlotNo, payload: &[u8]) -> DbResult<()> {
        if slot == self.n_slots() {
            let got = self.insert(payload)?;
            debug_assert_eq!(got, slot);
            return Ok(());
        }
        if slot > self.n_slots() {
            return Err(DbError::Storage("redo insert skipped a slot".into()));
        }
        if self.slot_offset(slot) != 0 {
            return Err(DbError::Storage("redo insert into occupied slot".into()));
        }
        // Re-use the tombstoned slot with a fresh cell.
        let cell_len = payload.len() + 2;
        if self.free_space() < cell_len {
            return Err(DbError::Storage("page full".into()));
        }
        let new_end = self.free_end() as usize - cell_len;
        self.buf[new_end..new_end + 2].copy_from_slice(&(payload.len() as u16).to_le_bytes());
        self.buf[new_end + 2..new_end + 2 + payload.len()].copy_from_slice(payload);
        self.write_u16(HDR_FREE_END, new_end as u16);
        self.set_slot_offset(slot, new_end as u16);
        self.buf[HDR_SYN_VALID] = 0;
        Ok(())
    }

    /// Reads the record in `slot`, or `None` for tombstones.
    pub fn get(&self, slot: SlotNo) -> Option<&[u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let off = self.slot_offset(slot) as usize;
        if off == 0 {
            return None;
        }
        let len = u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize;
        Some(&self.buf[off + 2..off + 2 + len])
    }

    /// Tombstones `slot`. The cell bytes are *not* erased — MiniDB, like
    /// InnoDB, performs no secure deletion, so deleted row images remain on
    /// the page until the space is reused (a §3/§5 leakage channel).
    pub fn delete(&mut self, slot: SlotNo) -> DbResult<()> {
        if slot >= self.n_slots() || self.slot_offset(slot) == 0 {
            return Err(DbError::Storage("delete of missing slot".into()));
        }
        self.set_slot_offset(slot, 0);
        self.buf[HDR_SYN_VALID] = 0;
        Ok(())
    }

    /// Overwrites the record in `slot` in place. The new payload must have
    /// exactly the old length (callers fall back to delete+insert
    /// otherwise).
    pub fn update_in_place(&mut self, slot: SlotNo, payload: &[u8]) -> DbResult<()> {
        let off = if slot < self.n_slots() {
            self.slot_offset(slot) as usize
        } else {
            0
        };
        if off == 0 {
            return Err(DbError::Storage("update of missing slot".into()));
        }
        let len = u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize;
        if len != payload.len() {
            return Err(DbError::Storage("in-place update length mismatch".into()));
        }
        self.buf[off + 2..off + 2 + len].copy_from_slice(payload);
        self.buf[HDR_SYN_VALID] = 0;
        Ok(())
    }

    /// Iterates live `(slot, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotNo, &[u8])> {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|p| (s, p)))
    }

    // ---------------- synopsis (zone map) maintenance ----------------

    /// Whether the persisted synopsis covers every live cell. Raw byte
    /// mutators clear this; the value-aware heap layer restores it.
    pub fn synopsis_valid(&self) -> bool {
        self.buf[HDR_SYN_VALID] == 1
    }

    /// Marks the synopsis valid (or not). Only the table-heap layer,
    /// which knows the row values, may set this to `true`.
    pub fn set_synopsis_valid(&mut self, valid: bool) {
        self.buf[HDR_SYN_VALID] = valid as u8;
    }

    /// Decodes the synopsis, or `None` when it is invalid.
    pub fn synopsis(&self) -> Option<PageSynopsis> {
        syn_decode(self.buf)
    }

    /// Resets the synopsis to empty-and-valid (start of a rebuild).
    pub fn synopsis_reset(&mut self) {
        self.buf[HDR_SYN_VALID] = 1;
        self.buf[HDR_SYN_NCOLS] = 0;
        self.write_u16(HDR_SYN_ROWS, 0);
    }

    fn synopsis_widen(&mut self, cols: &[(u16, i64)]) {
        for &(col, v) in cols {
            let ncols = self.buf[HDR_SYN_NCOLS] as usize;
            let mut found = false;
            for i in 0..ncols.min(SYN_MAX_COLS) {
                let off = HDR_SYN_ENTRIES + i * SYN_ENTRY_SIZE;
                if self.read_u16(off) == col {
                    let min = self.read_u64(off + 2) as i64;
                    let max = self.read_u64(off + 10) as i64;
                    if v < min {
                        self.buf[off + 2..off + 10].copy_from_slice(&v.to_le_bytes());
                    }
                    if v > max {
                        self.buf[off + 10..off + 18].copy_from_slice(&v.to_le_bytes());
                    }
                    found = true;
                    break;
                }
            }
            if !found && ncols < SYN_MAX_COLS {
                let off = HDR_SYN_ENTRIES + ncols * SYN_ENTRY_SIZE;
                self.write_u16(off, col);
                self.buf[off + 2..off + 10].copy_from_slice(&v.to_le_bytes());
                self.buf[off + 10..off + 18].copy_from_slice(&v.to_le_bytes());
                self.buf[HDR_SYN_NCOLS] = (ncols + 1) as u8;
            }
            // Columns past the capacity simply go untracked (and can
            // therefore never prune).
        }
    }

    /// Accounts for one inserted row: widens the tracked bounds by its
    /// INT values and bumps the live-row count.
    pub fn synopsis_note_insert(&mut self, cols: &[(u16, i64)]) {
        self.synopsis_widen(cols);
        let rows = self.read_u16(HDR_SYN_ROWS).saturating_add(1);
        self.write_u16(HDR_SYN_ROWS, rows);
    }

    /// Accounts for an in-place update: widens bounds by the new values.
    /// The old values stay inside the bounds — conservative but sound.
    pub fn synopsis_note_update(&mut self, cols: &[(u16, i64)]) {
        self.synopsis_widen(cols);
    }

    /// Accounts for one deleted row: the bounds stay (a superset is
    /// sound), only the live-row count drops.
    pub fn synopsis_note_delete(&mut self) {
        let rows = self.read_u16(HDR_SYN_ROWS).saturating_sub(1);
        self.write_u16(HDR_SYN_ROWS, rows);
    }
}

/// A read-only view over a page buffer. Unlike [`Page`], it borrows the
/// bytes immutably, so scan paths can decode straight out of the buffer
/// pool frame without copying the page first.
pub struct PageRef<'a> {
    buf: &'a [u8],
}

impl<'a> PageRef<'a> {
    /// Wraps a page-sized buffer.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly [`PAGE_SIZE`] bytes.
    pub fn new(buf: &'a [u8]) -> PageRef<'a> {
        assert_eq!(buf.len(), PAGE_SIZE, "page buffer size");
        PageRef { buf }
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.buf[off], self.buf[off + 1]])
    }

    /// Number of slots (including tombstones).
    pub fn n_slots(&self) -> u16 {
        self.read_u16(HDR_NSLOTS)
    }

    /// Reads the record in `slot`, or `None` for tombstones.
    pub fn get(&self, slot: SlotNo) -> Option<&'a [u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let off = self.read_u16(HDR_SIZE + slot as usize * 2) as usize;
        if off == 0 {
            return None;
        }
        let len = u16::from_le_bytes([self.buf[off], self.buf[off + 1]]) as usize;
        Some(&self.buf[off + 2..off + 2 + len])
    }

    /// Iterates live `(slot, payload)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SlotNo, &'a [u8])> + '_ {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|p| (s, p)))
    }

    /// Free bytes between the slot directory and the cell area.
    pub fn free_space(&self) -> usize {
        let dir_end = HDR_SIZE + self.n_slots() as usize * 2;
        self.read_u16(HDR_FREE_END) as usize - dir_end
    }

    /// Whether a cell of `len` payload bytes fits (including a new slot).
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + 4
    }

    /// Whether the persisted synopsis covers every live cell.
    pub fn synopsis_valid(&self) -> bool {
        self.buf[HDR_SYN_VALID] == 1
    }

    /// Decodes the synopsis, or `None` when it is invalid.
    pub fn synopsis(&self) -> Option<PageSynopsis> {
        syn_decode(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        Page::format(&mut buf);
        buf
    }

    #[test]
    fn insert_get_round_trip() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        assert_eq!(p.iter().count(), 2);
    }

    #[test]
    fn delete_leaves_bytes_behind() {
        let mut buf = fresh();
        {
            let mut p = Page::new(&mut buf);
            let s = p.insert(b"SECRET-ROW-IMAGE").unwrap();
            p.delete(s).unwrap();
            assert!(p.get(s).is_none());
            assert_eq!(p.iter().count(), 0);
        }
        // The ghost of the record is still in the raw page bytes.
        let raw = buf.windows(16).any(|w| w == b"SECRET-ROW-IMAGE");
        assert!(raw, "deleted record image must remain on the page");
    }

    #[test]
    fn update_in_place_same_length_only() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let s = p.insert(b"aaaa").unwrap();
        p.update_in_place(s, b"bbbb").unwrap();
        assert_eq!(p.get(s).unwrap(), b"bbbb");
        assert!(p.update_in_place(s, b"ccc").is_err());
    }

    #[test]
    fn fills_up_and_reports_full() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let payload = vec![7u8; 1000];
        let mut count = 0;
        while p.fits(payload.len()) {
            p.insert(&payload).unwrap();
            count += 1;
        }
        assert!(count >= 15, "a 16K page should hold >= 15 1K records");
        assert!(p.insert(&payload).is_err());
        // Small records may still fit.
        assert!(p.fits(4));
    }

    #[test]
    fn insert_at_replays_tombstoned_slot() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        let a = p.insert(b"one").unwrap();
        p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        p.insert_at(a, b"one-again").unwrap();
        assert_eq!(p.get(a).unwrap(), b"one-again");
        assert!(p.insert_at(a, b"occupied").is_err());
        assert!(p.insert_at(99, b"gap").is_err());
    }

    #[test]
    fn lsn_round_trip() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        assert_eq!(p.lsn(), 0);
        p.set_lsn(0xABCD_EF01);
        assert_eq!(p.lsn(), 0xABCD_EF01);
    }

    #[test]
    fn rejects_oversized_record() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
        assert!(p.insert(&vec![0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn raw_mutations_invalidate_synopsis() {
        let mut buf = fresh();
        let mut p = Page::new(&mut buf);
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
        let mut p = Page::new(&mut buf);
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
        let mut p = Page::new(&mut buf);
        let cols: Vec<(u16, i64)> = (0..8).map(|i| (i as u16, i)).collect();
        p.synopsis_note_insert(&cols);
        let syn = p.synopsis().unwrap();
        assert_eq!(syn.cols.len(), SYN_MAX_COLS);
        assert!(syn.stats(7).is_none(), "columns past capacity go untracked");
        // Untracked columns never exclude.
        use std::ops::Bound::*;
        assert!(!syn.excludes(7, &Included(100), &Unbounded));
    }

    #[test]
    fn excludes_respects_bound_kinds() {
        use std::ops::Bound::*;
        let syn = PageSynopsis {
            rows: 5,
            cols: vec![ColumnStats {
                col: 0,
                min: 10,
                max: 20,
            }],
        };
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
        let empty = PageSynopsis {
            rows: 0,
            cols: vec![],
        };
        assert!(empty.excludes(0, &Unbounded, &Unbounded));
    }

    #[test]
    fn page_ref_reads_match_page() {
        let mut buf = fresh();
        {
            let mut p = Page::new(&mut buf);
            p.insert(b"alpha").unwrap();
            let s = p.insert(b"beta").unwrap();
            p.insert(b"gamma").unwrap();
            p.delete(s).unwrap();
            p.synopsis_reset();
            p.synopsis_note_insert(&[(0, 4)]);
            p.synopsis_note_insert(&[(0, 9)]);
        }
        let r = PageRef::new(&buf);
        assert_eq!(r.n_slots(), 3);
        let live: Vec<&[u8]> = r.iter().map(|(_, b)| b).collect();
        assert_eq!(live, vec![b"alpha".as_ref(), b"gamma".as_ref()]);
        assert!(r.synopsis_valid());
        assert_eq!(r.synopsis().unwrap().stats(0).unwrap().max, 9);
    }
}
