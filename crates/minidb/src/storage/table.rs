//! Table heaps: rows stored in slotted pages, addressed by row id.
//!
//! The heap is the layer that understands row *values*, so it owns
//! zone-map (page synopsis) maintenance: raw page mutators invalidate
//! the persisted synopsis, and the heap — which knows each row's INT
//! column values — immediately restores it on insert/update/delete.
//! Pages whose synopses went stale through value-blind paths (redo
//! replay) are rebuilt lazily the first time a pruning scan consults
//! them. The heap also keeps an in-memory mirror of every synopsis it
//! has touched ([`TableHeap::zone_map`]), a `Vec` indexed by page
//! number; pruning reads the mirror first, so a skipped page costs an
//! index, not a buffer-pool page load. That mirror is itself snapshot
//! state — see `snapshot::MemoryImage::zone_maps`.
//!
//! The row locator is dense too, in chunks: `Locator` keeps the
//! `(page, slot)` of 256 consecutive row ids in one array, so a lookup
//! hashes a chunk number and indexes, and a run of consecutive ids
//! reads one array. A chunk is freed with its last live row, so memory
//! follows the live rows (at most one 2 KiB chunk each), not the
//! largest id ever allocated or read from a page. A row id read from
//! bytes (a page, a redo or undo image) is refused when it is
//! `RowId::MAX`, the one id row id allocation cannot move past.

// Row ids, page numbers and cells come from pages and logs: a bad one is
// a typed error, never a panic.
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

use std::ops::Bound;

use crate::error::{DbError, DbResult};
use crate::predicate::{EncodedRow, Predicate};
use crate::row::{Row, RowId};
use crate::storage::page::{Page, PageSynopsis, SlotNo, PAGE_SIZE};
use crate::storage::shardpool::{KeyMap, ShardedBufferPool};
use crate::value::{RowBlock, Value};
use crate::vdisk::VDisk;

/// Row ids per [`Locator`] chunk.
const CHUNK_IDS: u64 = 256;

/// Locator entry of a row id that names no live row.
const ABSENT: (u32, SlotNo) = (u32::MAX, SlotNo::MAX);

/// Row id → `(page, slot)` of every live row, in chunks of
/// [`CHUNK_IDS`] consecutive ids keyed by chunk number.
#[derive(Debug, Default, PartialEq)]
struct Locator {
    chunks: KeyMap<u64, Chunk>,
    /// Live rows across all chunks.
    live: usize,
}

#[derive(Debug, PartialEq)]
struct Chunk {
    /// Entries of `slots` that are not [`ABSENT`].
    live: u32,
    slots: Box<[(u32, SlotNo)]>,
}

/// The chunk number of `row_id` and its entry's index in the chunk.
fn chunk_of(row_id: RowId) -> (u64, usize) {
    (row_id / CHUNK_IDS, (row_id % CHUNK_IDS) as usize)
}

impl Locator {
    fn get(&self, row_id: RowId) -> Option<(u32, SlotNo)> {
        let (n, i) = chunk_of(row_id);
        let loc = *self.chunks.get(&n)?.slots.get(i)?;
        Some(loc).filter(|&loc| loc != ABSENT)
    }

    fn insert(&mut self, row_id: RowId, loc: (u32, SlotNo)) {
        let (n, i) = chunk_of(row_id);
        let chunk = self.chunks.entry(n).or_insert_with(|| Chunk {
            live: 0,
            slots: vec![ABSENT; CHUNK_IDS as usize].into_boxed_slice(),
        });
        // A chunk holds every index `chunk_of` gives.
        if let Some(entry) = chunk.slots.get_mut(i) {
            if *entry == ABSENT {
                chunk.live += 1;
                self.live += 1;
            }
            *entry = loc;
        }
    }

    /// Forgets `row_id`, freeing its chunk if it was the chunk's last.
    fn remove(&mut self, row_id: RowId) {
        let (n, i) = chunk_of(row_id);
        let Some(chunk) = self.chunks.get_mut(&n) else {
            return;
        };
        let Some(entry) = chunk.slots.get_mut(i).filter(|e| **e != ABSENT) else {
            return;
        };
        *entry = ABSENT;
        chunk.live -= 1;
        self.live -= 1;
        if chunk.live == 0 {
            self.chunks.remove(&n);
        }
    }
}

/// Where an update landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdatePlacement {
    /// The new image overwrote the old bytes (same length).
    InPlace {
        /// Page holding the row.
        page_no: u32,
        /// Slot within the page.
        slot: SlotNo,
    },
    /// The row moved: tombstoned at `from`, re-inserted at `to`.
    Moved {
        /// Old location.
        from: (u32, SlotNo),
        /// New location.
        to: (u32, SlotNo),
    },
}

fn tombstone() -> DbError {
    DbError::Storage("locator points at tombstone".into())
}

/// The INT columns of a row as `(ordinal, value)` pairs — the facts a
/// page synopsis tracks. NULLs are skipped: a NULL never satisfies a
/// comparison, so bounds that ignore it are still sound for pruning.
fn int_cols(row: &Row) -> Vec<(u16, i64)> {
    row.values
        .iter()
        .enumerate()
        .filter_map(|(i, v)| match v {
            Value::Int(n) => Some((i as u16, *n)),
            _ => None,
        })
        .collect()
}

/// Where a scan's rows go: the filter a row must pass, what to keep of
/// the rows that do, and how many to stop at. Both kernels
/// ([`TableHeap::scan_into`], [`TableHeap::fetch_into`]) offer it
/// encoded cells; a survivor is either decoded into [`Self::rows`] or,
/// for a sink made by [`Self::copying`], copied as bytes into a
/// [`RowBlock`].
pub struct ScanSink<'a> {
    pred: Option<&'a Predicate>,
    needed: Option<&'a [bool]>,
    limit: Option<usize>,
    copy: Option<Copying<'a>>,
    /// Rows that passed the filter, in the order offered (none for a
    /// copying sink).
    pub rows: Vec<Row>,
    /// Rows offered, passed or not (`rows_examined`).
    pub examined: u64,
}

/// A copying sink's projection and the block it fills.
struct Copying<'a> {
    proj: &'a [usize],
    /// Each column's byte span in the cell at hand, reused across rows.
    spans: Vec<(usize, usize)>,
    block: RowBlock,
}

impl<'a> ScanSink<'a> {
    /// A sink keeping the rows `pred` holds of (`None` = all), with the
    /// columns flagged in `needed` materialized and the rest left NULL
    /// (`None` = all), up to `limit` rows (`None` = no limit).
    pub fn new(
        pred: Option<&'a Predicate>,
        needed: Option<&'a [bool]>,
        limit: Option<usize>,
    ) -> ScanSink<'a> {
        ScanSink {
            pred,
            needed,
            limit,
            copy: None,
            rows: Vec::new(),
            examined: 0,
        }
    }

    /// A sink copying the columns `proj` lists (schema ordinals, in
    /// that order, repeats allowed) of the rows `pred` holds of into one
    /// [`RowBlock`], up to `limit` rows. No survivor is decoded, but
    /// each is checked as [`Self::new`]'s sink would decode it
    /// ([`Row::copy_columns`]).
    pub fn copying(
        pred: Option<&'a Predicate>,
        proj: &'a [usize],
        limit: Option<usize>,
    ) -> ScanSink<'a> {
        ScanSink {
            copy: Some(Copying {
                proj,
                spans: Vec::new(),
                block: RowBlock::new(),
            }),
            ..ScanSink::new(pred, None, limit)
        }
    }

    /// The block a copying sink filled (`None` for a decoding sink).
    pub fn into_block(self) -> Option<RowBlock> {
        self.copy.map(|c| c.block)
    }

    /// Whether the limit is reached; a full sink must be offered nothing.
    pub fn full(&self) -> bool {
        self.limit.is_some_and(|l| self.kept() >= l)
    }

    /// Rows kept so far.
    fn kept(&self) -> usize {
        match &self.copy {
            Some(c) => c.block.len(),
            None => self.rows.len(),
        }
    }

    /// Examines one encoded row: evaluates the filter on its bytes and
    /// keeps it only if it passes.
    fn offer(&mut self, cell: &[u8]) -> DbResult<()> {
        self.examined += 1;
        let keep = match self.pred {
            Some(p) => p.holds(&EncodedRow::new(cell)?)?,
            None => true,
        };
        if !keep {
            return Ok(());
        }
        match &mut self.copy {
            Some(c) => Row::copy_columns(cell, c.proj, &mut c.spans, &mut c.block),
            None => {
                self.rows.push(Row::decode_partial(cell, self.needed)?);
                Ok(())
            }
        }
    }
}

/// A table heap plus its in-memory row locator (rebuilt on open).
pub struct TableHeap {
    /// Tablespace file name.
    pub file: String,
    /// Row id → `(page, slot)` of every live row.
    locations: Locator,
    next_row_id: RowId,
    /// Whether this heap maintains page synopses (`DbConfig::zone_maps_enabled`).
    zone_maps: bool,
    /// In-memory mirror of page synopses, by page number. Populated by
    /// DML maintenance and by pruning scans (header adopt / lazy
    /// rebuild); entries drop whenever a page's persisted synopsis goes
    /// invalid through a value-blind path.
    zonemap: Vec<Option<PageSynopsis>>,
}

impl TableHeap {
    /// Creates a new empty heap with one allocated page.
    pub fn create(
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        file: &str,
    ) -> DbResult<TableHeap> {
        bufpool.allocate_page(vdisk, file);
        Ok(TableHeap::empty(file))
    }

    fn empty(file: &str) -> TableHeap {
        TableHeap {
            file: file.to_string(),
            locations: Locator::default(),
            next_row_id: 1,
            zone_maps: true,
            zonemap: Vec::new(),
        }
    }

    /// Opens an existing heap, rebuilding the locator by scanning pages
    /// (also the recovery path — locator state is volatile). Each cell
    /// is checked whole, but only its id is read.
    pub fn open(bufpool: &ShardedBufferPool, vdisk: &mut VDisk, file: &str) -> DbResult<TableHeap> {
        let mut heap = TableHeap::empty(file);
        let n_pages = ShardedBufferPool::page_count(vdisk, file);
        for page_no in 0..n_pages {
            bufpool.with_page(vdisk, file, page_no, |buf| {
                for cell in Page::new(buf).iter() {
                    let (slot, bytes) = cell?;
                    heap.set_location(Row::checked_id(bytes)?, (page_no, slot))?;
                }
                Ok::<_, DbError>(())
            })??;
        }
        Ok(heap)
    }

    /// Enables or disables synopsis maintenance. Disabling clears the
    /// mirror; pages touched while disabled stay invalid on disk, and
    /// re-enabling relies on lazy rebuild to recover them.
    pub fn set_zone_maps(&mut self, enabled: bool) {
        self.zone_maps = enabled;
        if !enabled {
            self.zonemap.clear();
        }
    }

    /// The in-memory zone-map mirror: `(page number, synopsis)` in page
    /// order.
    pub fn zone_map(&self) -> impl Iterator<Item = (u32, &PageSynopsis)> {
        self.zonemap
            .iter()
            .enumerate()
            .filter_map(|(page_no, syn)| Some((page_no as u32, syn.as_ref()?)))
    }

    /// The mirror's synopsis of `page_no`, if it holds one.
    fn mirrored(&self, page_no: u32) -> Option<&PageSynopsis> {
        self.zonemap.get(page_no as usize)?.as_ref()
    }

    /// Records the outcome of a page mutation in the mirror: a valid
    /// synopsis replaces the entry, an invalid one drops it.
    fn note_page(&mut self, page_no: u32, syn: Option<PageSynopsis>) {
        let syn = syn.filter(|_| self.zone_maps);
        let i = page_no as usize;
        if i >= self.zonemap.len() {
            if syn.is_none() {
                return;
            }
            self.zonemap.resize(i + 1, None);
        }
        if let Some(entry) = self.zonemap.get_mut(i) {
            *entry = syn;
        }
    }

    /// Allocates the next row id.
    pub fn allocate_row_id(&mut self) -> RowId {
        let id = self.next_row_id;
        self.next_row_id += 1;
        id
    }

    /// Number of live rows.
    pub fn row_count(&self) -> usize {
        self.locations.live
    }

    /// Location of a row, if it exists.
    pub fn locate(&self, row_id: RowId) -> Option<(u32, SlotNo)> {
        self.locations.get(row_id)
    }

    /// Moves row id allocation past `row_id`, refusing the one id it
    /// cannot move past.
    fn note_row_id(&mut self, row_id: RowId) -> DbResult<()> {
        let next = row_id
            .checked_add(1)
            .ok_or_else(|| DbError::Storage("row id out of range".into()))?;
        self.next_row_id = self.next_row_id.max(next);
        Ok(())
    }

    /// Points `row_id` at `loc` and moves row id allocation past it.
    fn set_location(&mut self, row_id: RowId, loc: (u32, SlotNo)) -> DbResult<()> {
        self.note_row_id(row_id)?;
        self.locations.insert(row_id, loc);
        Ok(())
    }

    fn located(&self, row_id: RowId) -> DbResult<(u32, SlotNo)> {
        self.locate(row_id)
            .ok_or_else(|| DbError::Storage(format!("row {row_id} not found")))
    }

    /// Inserts an encoded row, returning its placement. The row's id must
    /// be fresh (allocate via [`Self::allocate_row_id`]).
    pub fn insert(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        row: &Row,
    ) -> DbResult<(u32, SlotNo)> {
        self.note_row_id(row.id)?;
        if self.locate(row.id).is_some() {
            return Err(DbError::Storage(format!(
                "row id {} already exists",
                row.id
            )));
        }
        let bytes = row.encode();
        let last = ShardedBufferPool::page_count(vdisk, &self.file).saturating_sub(1);
        let fits = bufpool.with_page(vdisk, &self.file, last, |buf| {
            Page::new(buf).fits(bytes.len())
        })??;
        let page_no = if fits {
            last
        } else {
            bufpool.allocate_page(vdisk, &self.file)
        };
        let zm = self.zone_maps;
        let cols = if zm { int_cols(row) } else { Vec::new() };
        let (slot, syn) = bufpool.with_page_mut(vdisk, &self.file, page_no, |buf| {
            let mut p = Page::new(buf);
            let was_valid = p.synopsis_valid();
            let slot = p.insert(&bytes)?;
            if zm && was_valid {
                p.synopsis_note_insert(&cols);
                p.set_synopsis_valid(true);
            }
            Ok::<_, DbError>((slot, p.synopsis()))
        })??;
        self.note_page(page_no, syn);
        self.set_location(row.id, (page_no, slot))?;
        Ok((page_no, slot))
    }

    /// Reads a row by id.
    pub fn read(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        row_id: RowId,
    ) -> DbResult<Row> {
        let (page_no, slot) = self.located(row_id)?;
        bufpool.with_page(vdisk, &self.file, page_no, |buf| {
            Row::decode(Page::new(buf).get(slot)?.ok_or_else(tombstone)?)
        })?
    }

    /// Tombstones `(page_no, slot)`, maintaining the synopsis, and
    /// returns the page's resulting synopsis state to the mirror.
    fn page_delete(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        slot: SlotNo,
    ) -> DbResult<()> {
        let zm = self.zone_maps;
        let syn = bufpool.with_page_mut(vdisk, &self.file, page_no, |buf| {
            let mut p = Page::new(buf);
            let was_valid = p.synopsis_valid();
            p.delete(slot)?;
            if zm && was_valid {
                p.synopsis_note_delete();
                p.set_synopsis_valid(true);
            }
            Ok::<_, DbError>(p.synopsis())
        })??;
        self.note_page(page_no, syn);
        Ok(())
    }

    /// Replaces a row's image, in place when possible.
    pub fn update(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        row: &Row,
    ) -> DbResult<UpdatePlacement> {
        let (page_no, slot) = self.located(row.id)?;
        let bytes = row.encode();
        let zm = self.zone_maps;
        let cols = if zm { int_cols(row) } else { Vec::new() };
        let (in_place, syn) = bufpool.with_page_mut(vdisk, &self.file, page_no, |buf| {
            let mut p = Page::new(buf);
            let was_valid = p.synopsis_valid();
            if p.update_in_place(slot, &bytes).is_err() {
                return (false, None);
            }
            if zm && was_valid {
                // The old values stay inside the bounds (superset — sound);
                // the new ones widen them.
                p.synopsis_note_update(&cols);
                p.set_synopsis_valid(true);
            }
            (true, p.synopsis())
        })?;
        if in_place {
            self.note_page(page_no, syn);
            return Ok(UpdatePlacement::InPlace { page_no, slot });
        }
        // Length changed: tombstone and re-insert.
        self.page_delete(bufpool, vdisk, page_no, slot)?;
        self.locations.remove(row.id);
        let to = self.insert(bufpool, vdisk, row)?;
        Ok(UpdatePlacement::Moved {
            from: (page_no, slot),
            to,
        })
    }

    /// Deletes a row, returning where it lived.
    pub fn delete(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        row_id: RowId,
    ) -> DbResult<(u32, SlotNo)> {
        let (page_no, slot) = self.located(row_id)?;
        self.page_delete(bufpool, vdisk, page_no, slot)?;
        self.locations.remove(row_id);
        Ok((page_no, slot))
    }

    /// Every live row, fully materialized, in (page, slot) order.
    pub fn scan(&mut self, bufpool: &ShardedBufferPool, vdisk: &mut VDisk) -> DbResult<Vec<Row>> {
        let mut sink = ScanSink::new(None, None, None);
        self.scan_into(bufpool, vdisk, None, &mut sink)?;
        Ok(sink.rows)
    }

    /// The heap-order scan kernel: visits pages in order, one
    /// `with_page` each, and offers every live cell to `sink` in slot
    /// order, stopping once the sink is full. With a `prune` spec
    /// (`(column, lo, hi)` over an INT column) the zone map is consulted
    /// first and excluded pages are never loaded. Returns
    /// `(pages_pruned, pages_decoded)`.
    pub fn scan_into(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        prune: Option<&(u16, Bound<i64>, Bound<i64>)>,
        sink: &mut ScanSink<'_>,
    ) -> DbResult<(u64, u64)> {
        let (mut pruned, mut decoded) = (0, 0);
        for page_no in 0..ShardedBufferPool::page_count(vdisk, &self.file) {
            if sink.full() {
                break;
            }
            if let Some((col, lo, hi)) = prune {
                if self.page_prunable(bufpool, vdisk, page_no, *col, lo, hi)? {
                    pruned += 1;
                    continue;
                }
            }
            decoded += 1;
            bufpool.with_page(vdisk, &self.file, page_no, |buf| {
                for cell in Page::new(buf).iter() {
                    sink.offer(cell?.1)?;
                    if sink.full() {
                        break;
                    }
                }
                Ok::<_, DbError>(())
            })??;
        }
        Ok((pruned, decoded))
    }

    /// The index-order fetch kernel: offers the rows `row_ids` name to
    /// `sink`, in that order, stopping once the sink is full. Each run
    /// of consecutive ids that live on one page costs one
    /// [`ShardedBufferPool::with_page_run`], accounted for as one access
    /// per row fetched — what a `read` per row leaves behind.
    pub fn fetch_into(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        row_ids: &[RowId],
        sink: &mut ScanSink<'_>,
    ) -> DbResult<()> {
        let mut ids = row_ids.iter().copied().peekable();
        while let Some(&first) = ids.peek() {
            if sink.full() {
                break;
            }
            let (page_no, _) = self.located(first)?;
            bufpool.with_page_run(vdisk, &self.file, page_no, |buf| {
                let page = Page::new(buf);
                let mut fetched = 0;
                // An id that is not (or no longer) on this page ends the
                // run; the outer loop deals with it.
                while let Some((_, slot)) = ids
                    .peek()
                    .and_then(|id| self.locate(*id))
                    .filter(|(p, _)| *p == page_no)
                {
                    ids.next();
                    fetched += 1;
                    let offered = page
                        .get(slot)
                        .and_then(|cell| cell.ok_or_else(tombstone))
                        .and_then(|cell| sink.offer(cell));
                    if offered.is_err() || sink.full() {
                        return (offered, fetched);
                    }
                }
                (Ok(()), fetched)
            })??;
        }
        Ok(())
    }

    /// Whether the zone map proves `page_no` holds no row with INT
    /// column `col` inside `(lo, hi)`. Resolution order: in-memory
    /// mirror (no page load at all) → persisted page synopsis → lazy
    /// rebuild from the page's rows (persists the repaired synopsis).
    /// Always `false` when zone maps are disabled — never prune without
    /// a synopsis to justify it.
    pub fn page_prunable(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        col: u16,
        lo: &Bound<i64>,
        hi: &Bound<i64>,
    ) -> DbResult<bool> {
        if !self.zone_maps {
            return Ok(false);
        }
        if let Some(s) = self.mirrored(page_no) {
            return Ok(s.excludes(col, lo, hi));
        }
        let syn = bufpool.with_page(vdisk, &self.file, page_no, |buf| Page::new(buf).synopsis())?;
        let syn = match syn {
            Some(s) => s,
            None => self.rebuild_page_synopsis(bufpool, vdisk, page_no)?,
        };
        let excluded = syn.excludes(col, lo, hi);
        self.note_page(page_no, Some(syn));
        Ok(excluded)
    }

    /// Rebuilds a page's synopsis from its live rows and persists it
    /// (the page is marked dirty). This repairs pages whose synopses
    /// were invalidated by value-blind writes — redo replay, or DML
    /// executed while zone maps were disabled.
    pub fn rebuild_page_synopsis(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
    ) -> DbResult<PageSynopsis> {
        let syn = bufpool.with_page_mut(vdisk, &self.file, page_no, |buf| {
            let mut p = Page::new(buf);
            let rows = p
                .iter()
                .map(|cell| Row::decode(cell?.1))
                .collect::<DbResult<Vec<_>>>()?;
            p.synopsis_reset();
            for row in &rows {
                p.synopsis_note_insert(&int_cols(row));
            }
            let invalid = || DbError::Storage(format!("page {page_no}: no synopsis after reset"));
            p.synopsis().ok_or_else(invalid)
        })??;
        self.note_page(page_no, Some(syn));
        Ok(syn)
    }

    // ------------------------------------------------------------------
    // Redo-replay entry points: apply a logged physical change to a page
    // iff the page has not already seen it (pageLSN check), then stamp the
    // record's LSN. These are value-blind byte ops, so a record that
    // applies leaves the page synopsis invalid (and drops the mirror
    // entry); the first pruning scan after recovery rebuilds it. A
    // record the page has seen leaves both alone. The locator follows the
    // pages: `open` read it off them, so a record changes it only when it
    // changes its page.
    // ------------------------------------------------------------------

    /// Applies `change` to page `page_no` (allocated if the file is
    /// shorter) iff the page has not seen `lsn`, then stamps `lsn` and
    /// drops the page's mirror entry. `None` when the page had seen it.
    fn replay<T>(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        lsn: u64,
        page_no: u32,
        change: impl FnOnce(&mut Page<&mut [u8; PAGE_SIZE]>) -> DbResult<T>,
    ) -> DbResult<Option<T>> {
        while ShardedBufferPool::page_count(vdisk, &self.file) <= page_no {
            bufpool.allocate_page(vdisk, &self.file);
        }
        let applied =
            bufpool.with_page_mut(vdisk, &self.file, page_no, |buf| -> DbResult<_> {
                let mut p = Page::new(buf);
                if p.lsn() >= lsn {
                    return Ok(None);
                }
                let out = change(&mut p)?;
                p.set_lsn(lsn);
                Ok(Some(out))
            })??;
        if applied.is_some() {
            self.note_page(page_no, None);
        }
        Ok(applied)
    }

    /// Decodes a replayed row image, refusing a doctored row id before
    /// any page is touched, and moves row id allocation past it.
    fn replayed_row_id(&mut self, row_bytes: &[u8]) -> DbResult<RowId> {
        let row = Row::decode(row_bytes)?;
        self.note_row_id(row.id)?;
        Ok(row.id)
    }

    /// Replays an insert at a recorded placement.
    pub fn replay_insert(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        lsn: u64,
        page_no: u32,
        slot: SlotNo,
        row_bytes: &[u8],
    ) -> DbResult<()> {
        let row_id = self.replayed_row_id(row_bytes)?;
        let applied = self.replay(bufpool, vdisk, lsn, page_no, |p| {
            p.insert_at(slot, row_bytes)
        })?;
        if applied.is_some() {
            self.set_location(row_id, (page_no, slot))?;
        }
        Ok(())
    }

    /// Replays an in-place update.
    pub fn replay_update(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        lsn: u64,
        page_no: u32,
        slot: SlotNo,
        row_bytes: &[u8],
    ) -> DbResult<()> {
        let row_id = self.replayed_row_id(row_bytes)?;
        let applied = self.replay(bufpool, vdisk, lsn, page_no, |p| {
            p.update_in_place(slot, row_bytes)
        })?;
        if applied.is_some() {
            self.set_location(row_id, (page_no, slot))?;
        }
        Ok(())
    }

    /// Replays a delete (tombstone) of a recorded placement. A redo
    /// delete carries no row image, so the row it removes is named by
    /// the cell it tombstones.
    pub fn replay_delete(
        &mut self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        lsn: u64,
        page_no: u32,
        slot: SlotNo,
    ) -> DbResult<()> {
        let gone = self.replay(bufpool, vdisk, lsn, page_no, |p| {
            // The slot may already be missing if the delete raced a
            // crash; tolerate that (idempotent replay).
            let Some(cell) = p.get(slot)? else {
                return Ok(None);
            };
            let gone = Row::decode_header(cell).ok().map(|(row_id, _)| row_id);
            p.delete(slot)?;
            Ok(gone)
        })?;
        if let Some(row_id) = gone
            .flatten()
            .filter(|&id| self.locate(id) == Some((page_no, slot)))
        {
            self.locations.remove(row_id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn setup() -> (ShardedBufferPool, VDisk, TableHeap) {
        let bp = ShardedBufferPool::new(32, 4);
        let mut vd = VDisk::new();
        let h = TableHeap::create(&bp, &mut vd, "t.ibd").unwrap();
        (bp, vd, h)
    }

    fn row(id: RowId, n: i64) -> Row {
        Row {
            id,
            values: vec![Value::Int(n), Value::Text(format!("payload-{n}"))],
        }
    }

    #[test]
    fn insert_read_round_trip() {
        let (bp, mut vd, mut h) = setup();
        let id = h.allocate_row_id();
        h.insert(&bp, &mut vd, &row(id, 5)).unwrap();
        assert_eq!(h.read(&bp, &mut vd, id).unwrap(), row(id, 5));
        assert_eq!(h.row_count(), 1);
        assert!(h.read(&bp, &mut vd, 999).is_err());
    }

    #[test]
    fn spans_pages() {
        let (bp, mut vd, mut h) = setup();
        for i in 0..2000 {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, i)).unwrap();
        }
        assert!(ShardedBufferPool::page_count(&vd, "t.ibd") > 1);
        assert_eq!(h.scan(&bp, &mut vd).unwrap().len(), 2000);
    }

    #[test]
    fn update_in_place_vs_moved() {
        let (bp, mut vd, mut h) = setup();
        let id = h.allocate_row_id();
        h.insert(&bp, &mut vd, &row(id, 7)).unwrap();
        // Same-length payload: in place.
        let p = h.update(&bp, &mut vd, &row(id, 8)).unwrap();
        assert!(matches!(p, UpdatePlacement::InPlace { .. }));
        // Longer payload: moved.
        let longer = Row {
            id,
            values: vec![
                Value::Int(8),
                Value::Text("much longer payload here".into()),
            ],
        };
        let p = h.update(&bp, &mut vd, &longer).unwrap();
        assert!(matches!(p, UpdatePlacement::Moved { .. }));
        assert_eq!(h.read(&bp, &mut vd, id).unwrap(), longer);
    }

    #[test]
    fn delete_then_reopen() {
        let (bp, mut vd, mut h) = setup();
        let keep = h.allocate_row_id();
        h.insert(&bp, &mut vd, &row(keep, 1)).unwrap();
        let gone = h.allocate_row_id();
        h.insert(&bp, &mut vd, &row(gone, 2)).unwrap();
        h.delete(&bp, &mut vd, gone).unwrap();
        bp.flush_all(&mut vd);
        let h2 = TableHeap::open(&bp, &mut vd, "t.ibd").unwrap();
        assert_eq!(h2.row_count(), 1);
        assert!(h2.locate(keep).is_some());
        assert!(h2.locate(gone).is_none());
        // Row id allocation continues past the highest seen.
        let mut h2 = h2;
        assert!(h2.allocate_row_id() > keep);
    }

    #[test]
    fn replay_is_idempotent() {
        let (bp, mut vd, mut h) = setup();
        let bytes = row(1, 42).encode();
        h.replay_insert(&bp, &mut vd, 10, 0, 0, &bytes).unwrap();
        // Replaying the same LSN again is a no-op.
        h.replay_insert(&bp, &mut vd, 10, 0, 0, &bytes).unwrap();
        assert_eq!(h.row_count(), 1);
        assert_eq!(h.read(&bp, &mut vd, 1).unwrap(), row(1, 42));
        // A later delete replays once.
        h.replay_delete(&bp, &mut vd, 11, 0, 0).unwrap();
        h.replay_delete(&bp, &mut vd, 11, 0, 0).unwrap();
        assert_eq!(h.row_count(), 0);
    }

    #[test]
    fn replay_rebuilds_the_locator_across_a_reused_slot() {
        // Row 1 is inserted and deleted; row 2 reuses its slot.
        let history = |h: &mut TableHeap, bp: &ShardedBufferPool, vd: &mut VDisk| {
            h.replay_insert(bp, vd, 1, 0, 0, &row(1, 1).encode())
                .unwrap();
            h.replay_delete(bp, vd, 2, 0, 0).unwrap();
            h.replay_insert(bp, vd, 3, 0, 0, &row(2, 2).encode())
                .unwrap();
        };
        let (bp, mut vd, mut live) = setup();
        history(&mut live, &bp, &mut vd);
        assert_eq!((live.locate(1), live.locate(2)), (None, Some((0, 0))));
        assert_eq!(live.row_count(), 1);
        // Restart: the heap opened from the flushed pages replays the
        // same records, every one already applied, and ends equal.
        bp.flush_all(&mut vd);
        let bp = ShardedBufferPool::new(32, 4);
        let mut h = TableHeap::open(&bp, &mut vd, "t.ibd").unwrap();
        history(&mut h, &bp, &mut vd);
        assert_eq!(h.row_count(), live.row_count());
        for id in [1, 2] {
            assert_eq!(h.locate(id), live.locate(id));
        }
        assert_eq!(h.allocate_row_id(), live.allocate_row_id());
    }

    #[test]
    fn doctored_row_id_fails_closed() {
        let (bp, mut vd, mut h) = setup();
        let doctored = row(RowId::MAX, 1).encode();
        let err = h
            .replay_insert(&bp, &mut vd, 1, 0, 0, &doctored)
            .unwrap_err();
        assert_eq!(err, DbError::Storage("row id out of range".into()));
        assert_eq!(h.row_count(), 0);
        // The page was never touched.
        let slots = bp
            .with_page(&mut vd, "t.ibd", 0, |buf| Page::new(buf).n_slots())
            .unwrap()
            .unwrap();
        assert_eq!(slots, 0);
        assert!(h.insert(&bp, &mut vd, &row(RowId::MAX, 1)).is_err());
        assert_eq!(h.allocate_row_id(), 1);
    }

    #[test]
    fn sparse_row_ids_survive_restart() {
        // Live rows far past a run of deleted ids, and ids that step by
        // 2^24 on one page: the locator holds one chunk per live row, and
        // the chunk of the deleted row 1 is gone.
        let history = |h: &mut TableHeap, bp: &ShardedBufferPool, vd: &mut VDisk| {
            h.replay_insert(bp, vd, 1, 0, 0, &row(1, 0).encode())
                .unwrap();
            for i in 1..40u16 {
                let id = (u64::from(i) << 24) + 7;
                h.replay_insert(bp, vd, 1 + u64::from(i), 0, i, &row(id, 0).encode())
                    .unwrap();
            }
            h.replay_delete(bp, vd, 100, 0, 0).unwrap();
        };
        let (bp, mut vd, mut live) = setup();
        history(&mut live, &bp, &mut vd);
        assert_eq!((live.row_count(), live.locate(1)), (39, None));
        bp.flush_all(&mut vd);
        let bp = ShardedBufferPool::new(32, 4);
        let mut h = TableHeap::open(&bp, &mut vd, "t.ibd").unwrap();
        history(&mut h, &bp, &mut vd);
        assert_eq!(h.locations, live.locations);
        assert_eq!(h.locations.chunks.len(), 39);
        assert_eq!(h.allocate_row_id(), (39 << 24) + 8);
    }

    #[test]
    fn replay_update_respects_page_lsn() {
        let (bp, mut vd, mut h) = setup();
        h.replay_insert(&bp, &mut vd, 5, 0, 0, &row(1, 1).encode())
            .unwrap();
        h.replay_update(&bp, &mut vd, 6, 0, 0, &row(1, 2).encode())
            .unwrap();
        // A pruning check rebuilds the page's synopsis into the mirror.
        h.page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(50), &Bound::Unbounded)
            .unwrap();
        let mirror: Vec<_> = h.zone_map().map(|(p, s)| (p, *s)).collect();
        assert_eq!(mirror.len(), 1);
        // Stale update (lower LSN) must not regress the page, and a stale
        // update or delete leaves the page, so the mirror keeps its entry.
        h.replay_update(&bp, &mut vd, 4, 0, 0, &row(1, 9).encode())
            .unwrap();
        h.replay_delete(&bp, &mut vd, 6, 0, 0).unwrap();
        assert_eq!(h.read(&bp, &mut vd, 1).unwrap(), row(1, 2));
        assert!(h.zone_map().map(|(p, s)| (p, *s)).eq(mirror));
    }

    #[test]
    fn dml_maintains_page_synopsis() {
        let (bp, mut vd, mut h) = setup();
        for n in [30i64, 10, 20] {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, n)).unwrap();
        }
        let syn = *h.mirrored(0).expect("mirror populated");
        assert_eq!(syn.rows, 3);
        assert_eq!(syn.stats(0).unwrap().min, 10);
        assert_eq!(syn.stats(0).unwrap().max, 30);
        // The persisted synopsis agrees with the mirror.
        let on_page = bp
            .with_page(&mut vd, "t.ibd", 0, |buf| Page::new(buf).synopsis())
            .unwrap()
            .expect("valid on page");
        assert_eq!(on_page, syn);
        // In-place update widens; delete drops the count but not bounds.
        h.update(&bp, &mut vd, &row(1, 99)).unwrap();
        h.delete(&bp, &mut vd, 2).unwrap();
        let syn = h.mirrored(0).unwrap();
        assert_eq!(syn.rows, 2);
        assert_eq!(syn.stats(0).unwrap().max, 99);
        assert_eq!(syn.stats(0).unwrap().min, 10);
    }

    #[test]
    fn prune_check_uses_bounds() {
        let (bp, mut vd, mut h) = setup();
        for n in 0..10 {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, n)).unwrap();
        }
        // Values are 0..=9 in column 0; [50, ∞) must prune, [5, ∞) must not.
        assert!(h
            .page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(50), &Bound::Unbounded)
            .unwrap());
        assert!(!h
            .page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(5), &Bound::Unbounded)
            .unwrap());
        // Column 1 is TEXT — untracked, never prunable.
        assert!(!h
            .page_prunable(&bp, &mut vd, 0, 1, &Bound::Included(50), &Bound::Unbounded)
            .unwrap());
    }

    #[test]
    fn replay_invalidates_and_scan_rebuilds() {
        let (bp, mut vd, mut h) = setup();
        let id = h.allocate_row_id();
        h.insert(&bp, &mut vd, &row(id, 5)).unwrap();
        // A redo replay is value-blind: synopsis goes invalid everywhere.
        h.replay_insert(&bp, &mut vd, 100, 0, 1, &row(77, 500).encode())
            .unwrap();
        assert!(h.mirrored(0).is_none(), "mirror dropped");
        let valid = bp
            .with_page(&mut vd, "t.ibd", 0, |buf| Page::new(buf).synopsis_valid())
            .unwrap();
        assert!(!valid, "persisted synopsis invalid after replay");
        // First prune consult rebuilds from live rows — and must see the
        // replayed value 500 (pruning on it would be unsound otherwise).
        assert!(!h
            .page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(500), &Bound::Unbounded)
            .unwrap());
        let syn = h.mirrored(0).expect("rebuilt into mirror");
        assert_eq!(syn.rows, 2);
        assert_eq!(syn.stats(0).unwrap().max, 500);
        // The rebuild persisted: a fresh heap sees a valid synopsis.
        let valid = bp
            .with_page(&mut vd, "t.ibd", 0, |buf| Page::new(buf).synopsis_valid())
            .unwrap();
        assert!(valid);
    }

    #[test]
    fn zone_maps_disabled_never_prunes() {
        let (bp, mut vd, mut h) = setup();
        h.set_zone_maps(false);
        for n in 0..5 {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, n)).unwrap();
        }
        assert_eq!(h.zone_map().count(), 0);
        assert!(!h
            .page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(900), &Bound::Unbounded)
            .unwrap());
        // Re-enable: lazy rebuild recovers the stale page.
        h.set_zone_maps(true);
        assert!(h
            .page_prunable(&bp, &mut vd, 0, 0, &Bound::Included(900), &Bound::Unbounded)
            .unwrap());
    }

    #[test]
    fn sink_projects_and_stops_at_its_limit() {
        let (bp, mut vd, mut h) = setup();
        for n in 0..3 {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, n)).unwrap();
        }
        let mut sink = ScanSink::new(None, Some(&[true, false]), Some(2));
        let pages = h.scan_into(&bp, &mut vd, None, &mut sink).unwrap();
        assert_eq!(pages, (0, 1));
        assert_eq!(sink.examined, 2, "the third row is never looked at");
        for (i, r) in sink.rows.iter().enumerate() {
            assert_eq!(r.values[0], Value::Int(i as i64));
            assert_eq!(r.values[1], Value::Null, "unneeded column not materialized");
        }
        // A copying sink stops at the same row, with the first column
        // of each survivor copied twice.
        let mut sink = ScanSink::copying(None, &[0, 0], Some(2));
        h.scan_into(&bp, &mut vd, None, &mut sink).unwrap();
        assert_eq!(sink.examined, 2);
        let twice = |i| vec![Value::Int(i), Value::Int(i)];
        let want = RowBlock::from_rows(&[twice(0), twice(1)]);
        assert_eq!(sink.into_block(), Some(want));
        // A sink that starts full touches no page.
        let before = bp.access_count("t.ibd", 0);
        for mut none in [
            ScanSink::new(None, None, Some(0)),
            ScanSink::copying(None, &[1], Some(0)),
        ] {
            h.scan_into(&bp, &mut vd, None, &mut none).unwrap();
            h.fetch_into(&bp, &mut vd, &[1, 2, 3], &mut none).unwrap();
            assert_eq!((none.examined, bp.access_count("t.ibd", 0)), (0, before));
        }
    }

    #[test]
    fn fetch_batches_runs_but_counts_rows() {
        let (bp, mut vd, mut h) = setup();
        for n in 0..1500 {
            let id = h.allocate_row_id();
            h.insert(&bp, &mut vd, &row(id, n)).unwrap();
        }
        let last = h.row_count() as RowId;
        assert_ne!(h.locate(1).unwrap().0, h.locate(last).unwrap().0);
        // Page 0, page N, page 0 again: three runs, five accesses, and
        // index order (not page order) in the output.
        let ids = [1, 2, last, 3, 4];
        let (p0, pn) = (h.locate(1).unwrap().0, h.locate(last).unwrap().0);
        let before = (bp.access_count("t.ibd", p0), bp.access_count("t.ibd", pn));
        let mut sink = ScanSink::new(None, None, None);
        h.fetch_into(&bp, &mut vd, &ids, &mut sink).unwrap();
        let got: Vec<RowId> = sink.rows.iter().map(|r| r.id).collect();
        assert_eq!(got, ids);
        assert_eq!(sink.examined, 5);
        assert_eq!(bp.access_count("t.ibd", p0), before.0 + 4);
        assert_eq!(bp.access_count("t.ibd", pn), before.1 + 1);
        // An unknown id fails the fetch, after the rows before it.
        let mut sink = ScanSink::new(None, None, None);
        assert!(h
            .fetch_into(&bp, &mut vd, &[1, 9_999, 2], &mut sink)
            .is_err());
        assert_eq!(sink.examined, 1);
    }
}
