//! The buffer pool: an LRU page cache with a persistent dump file,
//! latch-partitioned into N independent shards, each with its own
//! `Mutex`, selected by `hash(page) % N`.
//!
//! Two properties matter for the paper:
//!
//! * **The dump file** (`ib_buffer_pool`): like MySQL, MiniDB persists the
//!   list of cached pages in LRU order on shutdown and periodically during
//!   operation, to avoid a cold-cache warm-up after restart. §3 observes
//!   that this file reveals the pages — hence the B+ tree paths — touched
//!   by recent `SELECT`s.
//! * **Access counters**: per-page counters feed the adaptive hash index
//!   (§5), another volatile structure that betrays access patterns.
//!
//! A single-latch pool serializes every page access behind one lock —
//! fine for a single-session library, fatal for a multi-client server
//! where eight connections fault pages concurrently. Sharding the frame
//! table partitions that latch: two accesses contend only when their
//! pages hash to the same shard, and a fault, eviction or write-back
//! holds only its own shard's latch while the other shards keep serving.
//! `shards = 1` is the single-latch discipline.
//!
//! The leakage surfaces are global, not per shard: the LRU dump file
//! renders the global recency order (ticks come from one atomic clock),
//! the per-page access counters feed the adaptive hash index, and
//! per-shard telemetry (`bufpool.shard{i}.{hits,misses,evictions}`) sits
//! beside the global `bufpool.*` counters, making the *partition* of the
//! access load — a coarse page-distribution histogram — one more
//! snapshot-visible surface.
//!
//! Inside a shard a page is an integer. Each shard interns tablespace
//! names to a `u32` under its latch, so a page key is
//! `(file_id << 32) | page_no`: a hit hashes one `u64` and allocates
//! nothing. An interned name is never freed, not even by
//! [`ShardedBufferPool::purge_file`], which keeps a dropped table's id
//! for the next table of that name: a shard holds one name per distinct
//! tablespace name it has ever seen. Frames live in a per-shard slab
//! threaded by an intrusive doubly-linked recency list. A shard takes
//! its ticks under its latch, so the list is sorted by tick: its head
//! is the eviction victim, and a touch moves a frame to the tail in
//! O(1). The `(file, page)` form of a key ([`PageKey`]) is rebuilt only
//! on the cold paths that show it: [`ShardedBufferPool::lru_order`], the
//! dump and the access-count snapshot.
//!
//! A frame is the pool's accounting of a page, not a copy of it. A clean
//! page is read where it lies in the backing ([`PageBacking::page`]), so
//! a fault is the miss, eviction, write-back, tick and access count it
//! always was, and copies nothing. A frame holds a buffer of its own
//! only once [`ShardedBufferPool::with_page_mut`] writes to it — dirty
//! implies resident — and gives it up when the page is written back
//! (eviction, [`ShardedBufferPool::flush_all`]) or released. A given-up
//! buffer waits in the shard for the next page dirtied, so a shard never
//! holds more page buffers than it has frames, and its steady state
//! allocates nothing.
//!
//! Callers that touch one page many times in a row (a run of index hits
//! on one heap page) use [`ShardedBufferPool::with_page_run`]: one latch
//! acquisition, accounted for as the `n` accesses it stands for, so
//! every surface above is what `n` separate calls would have left.

// Slot and name indices are the pool's own, and a page it cannot find
// is a typed error: no panic outside tests.
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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use mdb_telemetry::{Counter, Registry};
use parking_lot::{Mutex, MutexGuard};

use crate::error::{DbError, DbResult};
use crate::storage::page::{Page, PAGE_SIZE};
use crate::vdisk::VDisk;

/// Identifies a page: tablespace file name + page number.
pub type PageKey = (String, u32);

/// Name of the persisted LRU dump file (InnoDB's `ib_buffer_pool`).
pub const DUMP_FILE: &str = "ib_buffer_pool";

/// Upper bound on the access-count entries across all shards. The
/// counters outlive eviction on purpose (they feed the adaptive hash
/// index), which made the map grow without bound on large scans: one
/// entry per page *ever touched*. At the cap, admitting a new page drops
/// the coldest entry (smallest lifetime count, ties to the smallest
/// `(file, page)`) — the page least likely to matter to the AHI. 65536
/// entries covers a 1 GiB hot set at 16 KiB pages, far above anything
/// the experiments touch, while bounding snapshot bloat.
pub const ACCESS_COUNTS_CAP: usize = 65_536;

/// Default shard count ([`crate::engine::DbConfig::bufpool_shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// The storage a pool reads pages from and writes dirty pages back to.
///
/// The engine's backing is the [`VDisk`]; the pool's unit tests
/// substitute a synthetic backing so many threads can fault concurrently
/// without sharing one `&mut VDisk`.
pub trait PageBacking {
    /// Page `page_no` of `file` where it lies; `None` if the page does
    /// not exist.
    fn page(&self, file: &str, page_no: u32) -> Option<&[u8; PAGE_SIZE]>;
    /// Writes a page back (eviction write-back / flush).
    fn write_page(&mut self, file: &str, page_no: u32, data: &[u8; PAGE_SIZE]);
    /// Current length of `file` in bytes (for page allocation).
    fn file_len(&mut self, file: &str) -> usize;
}

impl PageBacking for VDisk {
    fn page(&self, file: &str, page_no: u32) -> Option<&[u8; PAGE_SIZE]> {
        let off = page_no as usize * PAGE_SIZE;
        self.read(file)?.get(off..)?.first_chunk()
    }

    fn write_page(&mut self, file: &str, page_no: u32, data: &[u8; PAGE_SIZE]) {
        self.write_at(file, page_no as usize * PAGE_SIZE, data);
    }

    fn file_len(&mut self, file: &str) -> usize {
        self.len(file)
    }
}

/// The error for a page the backing does not hold.
fn missing(file: &str, page_no: u32) -> DbError {
    DbError::Storage(format!("page {page_no} of {file} does not exist on disk"))
}

/// A page inside a shard: `(interned file id << 32) | page_no`.
type FrameKey = u64;

fn frame_key(file_id: u32, page_no: u32) -> FrameKey {
    ((file_id as u64) << 32) | page_no as u64
}

fn file_id(key: FrameKey) -> usize {
    (key >> 32) as usize
}

/// The tablespace name of `key` among a shard's interned `names`.
#[allow(clippy::indexing_slicing)] // a key's file id is an index `Shard::key` pushed; names are never removed
fn name_of(names: &[String], key: FrameKey) -> &str {
    &names[file_id(key)]
}

/// The frame in `slot` of a shard's slab.
#[allow(clippy::indexing_slicing)] // slots come from the table, the free list and the recency links, which hold only indices the slab has pushed; it never shrinks
fn frame_at(slab: &mut [Frame], slot: u32) -> &mut Frame {
    &mut slab[slot as usize]
}

/// FNV-1a over bytes (shard selection, interned names), one
/// multiply-mix for an integer key (the shard maps, the heap's row
/// locator). Keys are interned ids, page numbers and row ids, so
/// SipHash's flooding resistance buys nothing here.
pub(crate) struct KeyHasher(u64);

impl Default for KeyHasher {
    fn default() -> Self {
        KeyHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` keyed through [`KeyHasher`].
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// The end of a recency list (no neighbour).
const NIL: u32 = u32::MAX;

/// A page's own buffer.
type PageBuf = Box<[u8; PAGE_SIZE]>;

struct Frame {
    key: FrameKey,
    /// The page's bytes from the first write until write-back: the frame
    /// is dirty exactly when it holds them. A clean frame's page is read
    /// where it lies in the backing.
    dirty: Option<PageBuf>,
    last_access: u64,
    /// Recency neighbours (slab indices): older and newer.
    prev: u32,
    next: u32,
}

/// Per-shard telemetry handles (`bufpool.shard{i}.*`).
struct ShardCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

/// One latch partition, guarded by the shard's `Mutex` in
/// [`ShardedBufferPool::shards`].
struct Shard {
    capacity: usize,
    /// Interned tablespace names: `names[id]` and its inverse.
    names: Vec<String>,
    ids: KeyMap<String, u32>,
    /// Frame slab: `table` maps a key to its frame, `free` lists the
    /// slots whose page left.
    slab: Vec<Frame>,
    table: KeyMap<FrameKey, u32>,
    free: Vec<u32>,
    /// Buffers given up by frames written back or released, for the
    /// next page dirtied. There are never more buffers than frames, and
    /// the list has room for as many.
    spare: Vec<PageBuf>,
    /// Recency list ends: `head` is the least recently used frame (the
    /// next victim), `tail` the most recent.
    head: u32,
    tail: u32,
    /// Lifetime access counts (survive eviction; feed the AHI). Bounded
    /// by a per-shard slice of [`ACCESS_COUNTS_CAP`].
    access_counts: KeyMap<FrameKey, u64>,
    access_cap: usize,
    counters: Option<ShardCounters>,
}

impl Shard {
    fn new(capacity: usize, access_cap: usize) -> Shard {
        Shard {
            capacity,
            names: Vec::new(),
            ids: KeyMap::default(),
            slab: Vec::new(),
            table: KeyMap::default(),
            free: Vec::new(),
            spare: Vec::new(),
            head: NIL,
            tail: NIL,
            access_counts: KeyMap::default(),
            access_cap,
            counters: None,
        }
    }

    /// The key of a page, interning its file name on first sight.
    fn key(&mut self, file: &str, page_no: u32) -> FrameKey {
        let id = match self.ids.get(file) {
            Some(&id) => id,
            None => {
                let id = self.names.len() as u32;
                self.names.push(file.to_string());
                self.ids.insert(file.to_string(), id);
                id
            }
        };
        frame_key(id, page_no)
    }

    /// The key of a page whose file this shard has seen, if any.
    fn known_key(&self, file: &str, page_no: u32) -> Option<FrameKey> {
        self.ids.get(file).map(|&id| frame_key(id, page_no))
    }

    fn page_key(&self, key: FrameKey) -> PageKey {
        (name_of(&self.names, key).to_string(), key as u32)
    }

    fn frame(&mut self, slot: u32) -> &mut Frame {
        frame_at(&mut self.slab, slot)
    }

    fn unlink(&mut self, slot: u32) {
        let f = self.frame(slot);
        let (prev, next) = (f.prev, f.next);
        match prev {
            NIL => self.head = next,
            p => self.frame(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frame(n).prev = prev,
        }
    }

    /// Stamps a linked-out frame with `tick` and makes it the most
    /// recent. Ticks are drawn under the latch, so the list stays sorted.
    fn push_tail(&mut self, slot: u32, tick: u64) {
        let tail = self.tail;
        let f = self.frame(slot);
        f.last_access = tick;
        f.prev = tail;
        f.next = NIL;
        match tail {
            NIL => self.head = slot,
            t => self.frame(t).next = slot,
        }
        self.tail = slot;
    }

    fn touch(&mut self, slot: u32, tick: u64) {
        self.unlink(slot);
        self.push_tail(slot, tick);
    }

    /// Makes the free (so clean) frame `slot` hold page `key`, most
    /// recent.
    fn install(&mut self, slot: u32, key: FrameKey, tick: u64) {
        self.frame(slot).key = key;
        self.table.insert(key, slot);
        self.push_tail(slot, tick);
    }

    /// A free slot: a freed one, or a new one at the end of the slab.
    fn free_slot(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slab.push(Frame {
                key: 0,
                dirty: None,
                last_access: 0,
                prev: NIL,
                next: NIL,
            });
            // Room for every frame's buffer: giving one up allocates
            // nothing.
            self.spare
                .reserve(self.slab.len().saturating_sub(self.spare.len()));
            (self.slab.len() - 1) as u32
        })
    }

    /// Writes the frame at `slot` back if it is dirty, leaving it clean
    /// and its buffer spare; whether it was dirty.
    fn write_back(&mut self, slot: u32, backing: &mut impl PageBacking) -> bool {
        let frame = frame_at(&mut self.slab, slot);
        let Some(buf) = frame.dirty.take() else {
            return false;
        };
        backing.write_page(name_of(&self.names, frame.key), frame.key as u32, &buf);
        self.spare.push(buf);
        true
    }

    /// Drops the frame at `slot` without writing it back; its slot waits
    /// on the free list, its buffer (if any) with the spares.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        let f = self.frame(slot);
        let (key, dirty) = (f.key, f.dirty.take());
        self.spare.extend(dirty);
        self.table.remove(&key);
        self.free.push(slot);
    }

    /// The page `slot` holds: its own buffer while dirty, else the
    /// backing's bytes.
    fn page<'a>(
        &'a self,
        slot: u32,
        backing: &'a impl PageBacking,
        file: &str,
        page_no: u32,
    ) -> DbResult<&'a [u8; PAGE_SIZE]> {
        match self
            .slab
            .get(slot as usize)
            .and_then(|f| f.dirty.as_deref())
        {
            Some(buf) => Ok(buf),
            None => backing
                .page(file, page_no)
                .ok_or_else(|| missing(file, page_no)),
        }
    }

    /// Dirties the frame at `slot`: unless it is dirty already, its page
    /// is copied out of the backing into a spare (or new) buffer.
    fn page_mut(
        &mut self,
        slot: u32,
        backing: &impl PageBacking,
        file: &str,
        page_no: u32,
    ) -> DbResult<&mut [u8; PAGE_SIZE]> {
        let frame = frame_at(&mut self.slab, slot);
        let buf = match frame.dirty.take() {
            Some(buf) => buf,
            None => {
                let page = backing
                    .page(file, page_no)
                    .ok_or_else(|| missing(file, page_no))?;
                let mut buf = self.spare.pop().unwrap_or_else(|| Box::new([0; PAGE_SIZE]));
                buf.copy_from_slice(page);
                buf
            }
        };
        Ok(frame.dirty.insert(buf))
    }

    /// Frames from least to most recent.
    fn recency(&self) -> impl Iterator<Item = &Frame> + '_ {
        let at = |s: u32| self.slab.get(s as usize);
        std::iter::successors(at(self.head), move |f| at(f.next))
    }

    /// Counts `n` accesses of `key`. At the cap, admitting a new page
    /// first drops the coldest entry, the smallest `(file, page)` among
    /// equals.
    fn count_access(&mut self, key: FrameKey, n: u64) {
        if let Some(count) = self.access_counts.get_mut(&key) {
            *count += n;
            return;
        }
        if self.access_counts.len() >= self.access_cap {
            let names = &self.names;
            if let Some(victim) = self
                .access_counts
                .iter()
                .min_by_key(|(&k, &c)| (c, name_of(names, k), k as u32))
                .map(|(&k, _)| k)
            {
                self.access_counts.remove(&victim);
            }
        }
        self.access_counts.insert(key, n);
    }
}

struct PoolMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writebacks: Counter,
    flushed_pages: Counter,
    dumps: Counter,
}

/// The latch-partitioned LRU page cache.
pub struct ShardedBufferPool {
    shards: Vec<Mutex<Shard>>,
    /// Global monotonic access clock shared by every shard.
    tick: AtomicU64,
    capacity: usize,
    metrics: Option<PoolMetrics>,
}

impl ShardedBufferPool {
    /// Creates a pool of `shards` partitions holding at most `capacity`
    /// pages in total (each shard gets `ceil(capacity / shards)`).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `shards == 0`.
    pub fn new(capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let per_shard = capacity.div_ceil(shards).max(1);
        let access_cap = (ACCESS_COUNTS_CAP / shards).max(1);
        ShardedBufferPool {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard, access_cap)))
                .collect(),
            tick: AtomicU64::new(0),
            capacity,
            metrics: None,
        }
    }

    /// Registers the pool's counters on `registry`: the global
    /// `bufpool.*` family plus `bufpool.shard{i}.{hits,misses,evictions}`
    /// per shard.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = Some(PoolMetrics {
            hits: registry.counter("bufpool.hits"),
            misses: registry.counter("bufpool.misses"),
            evictions: registry.counter("bufpool.evictions"),
            writebacks: registry.counter("bufpool.writebacks"),
            flushed_pages: registry.counter("bufpool.flushed_pages"),
            dumps: registry.counter("bufpool.dumps"),
        });
        for (i, shard) in self.shards.iter_mut().enumerate() {
            shard.get_mut().counters = Some(ShardCounters {
                hits: registry.counter(&format!("bufpool.shard{i}.hits")),
                misses: registry.counter(&format!("bufpool.shard{i}.misses")),
                evictions: registry.counter(&format!("bufpool.shard{i}.evictions")),
            });
        }
    }

    /// Total page capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Which shard a page hashes to (FNV-1a over file name + page_no).
    pub fn shard_of(&self, file: &str, page_no: u32) -> usize {
        let mut h = KeyHasher::default();
        h.write(file.as_bytes());
        h.write(&page_no.to_le_bytes());
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// The shard a page hashes to, latched.
    #[allow(clippy::indexing_slicing)] // `shard_of` is a hash modulo `shards.len()`
    fn lock(&self, file: &str, page_no: u32) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_of(file, page_no)].lock()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the frame holding `key` in `shard`, faulting page
    /// `page_no` of `file` in from `backing` on a miss: the page must
    /// exist there, but stays where it lies. Counts the hit/miss on both
    /// metric families.
    fn load(
        &self,
        shard: &mut Shard,
        backing: &mut impl PageBacking,
        key: FrameKey,
        file: &str,
        page_no: u32,
    ) -> DbResult<u32> {
        if let Some(&slot) = shard.table.get(&key) {
            if let Some(m) = &self.metrics {
                m.hits.inc();
            }
            if let Some(c) = &shard.counters {
                c.hits.inc();
            }
            return Ok(slot);
        }
        if let Some(m) = &self.metrics {
            m.misses.inc();
        }
        if let Some(c) = &shard.counters {
            c.misses.inc();
        }
        let slot = self.free_frame(shard, backing);
        if backing.page(file, page_no).is_none() {
            shard.free.push(slot);
            return Err(missing(file, page_no));
        }
        shard.install(slot, key, self.next_tick());
        Ok(slot)
    }

    /// A frame for an incoming page, unlinked, clean and out of the
    /// table: evicts the least recent frame when the shard is full
    /// (writing it back if dirty), reuses a freed slot, or grows the
    /// slab.
    fn free_frame(&self, shard: &mut Shard, backing: &mut impl PageBacking) -> u32 {
        if shard.table.len() >= shard.capacity {
            let victim = shard.head;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
            }
            if let Some(c) = &shard.counters {
                c.evictions.inc();
            }
            if shard.write_back(victim, backing) {
                if let Some(m) = &self.metrics {
                    m.writebacks.inc();
                }
            }
            shard.release(victim);
        }
        shard.free_slot()
    }

    /// Runs `f` over an immutable view of the page.
    pub fn with_page<R>(
        &self,
        backing: &mut impl PageBacking,
        file: &str,
        page_no: u32,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> R,
    ) -> DbResult<R> {
        self.with_page_run(backing, file, page_no, |buf| (f(buf), 1))
    }

    /// Runs `f` once over an immutable view of the page, on behalf of
    /// the `n >= 1` back-to-back [`Self::with_page`] calls it replaces;
    /// `f` returns `n` beside its result. The first access is the hit
    /// or miss it is, the other `n - 1` are hits; the clock advances by
    /// `n` and the page is stamped with the last tick; its access count
    /// grows by `n`. Nothing else can touch the pool between accesses
    /// `f` makes under the latch, so recency order, counters and dump
    /// are exactly what `n` separate calls leave.
    pub fn with_page_run<R>(
        &self,
        backing: &mut impl PageBacking,
        file: &str,
        page_no: u32,
        f: impl FnOnce(&[u8; PAGE_SIZE]) -> (R, u64),
    ) -> DbResult<R> {
        let mut guard = self.lock(file, page_no);
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        let slot = self.load(shard, backing, key, file, page_no)?;
        let (out, n) = f(shard.page(slot, &*backing, file, page_no)?);
        debug_assert!(n >= 1, "a run stands for at least one access");
        if let Some(m) = &self.metrics {
            m.hits.add(n - 1);
        }
        if let Some(c) = &shard.counters {
            c.hits.add(n - 1);
        }
        let tick = self.tick.fetch_add(n, Ordering::Relaxed) + n;
        shard.touch(slot, tick);
        shard.count_access(key, n);
        Ok(out)
    }

    /// Runs `f` over a mutable view of the page and marks it dirty.
    pub fn with_page_mut<R>(
        &self,
        backing: &mut impl PageBacking,
        file: &str,
        page_no: u32,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> DbResult<R> {
        let mut guard = self.lock(file, page_no);
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        let slot = self.load(shard, backing, key, file, page_no)?;
        let out = f(shard.page_mut(slot, &*backing, file, page_no)?);
        shard.touch(slot, self.next_tick());
        shard.count_access(key, 1);
        Ok(out)
    }

    /// Allocates a fresh formatted page at the end of `file`, returning
    /// its page number. Write-through, cached clean.
    pub fn allocate_page(&self, backing: &mut impl PageBacking, file: &str) -> u32 {
        let page_no = (backing.file_len(file) / PAGE_SIZE) as u32;
        let mut guard = self.lock(file, page_no);
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        // A frame left by a file removed without a purge is stale.
        if let Some(&stale) = shard.table.get(&key) {
            shard.release(stale);
        }
        let slot = self.free_frame(shard, backing);
        let mut page = [0; PAGE_SIZE];
        Page::new(&mut page).format();
        backing.write_page(file, page_no, &page);
        shard.install(slot, key, self.next_tick());
        shard.count_access(key, 1);
        page_no
    }

    /// Number of pages `file` holds on disk.
    pub fn page_count(vdisk: &VDisk, file: &str) -> u32 {
        (vdisk.len(file) / PAGE_SIZE) as u32
    }

    /// Writes every dirty frame back to the backing (checkpoint /
    /// shutdown); each is clean after, and reads its page there.
    pub fn flush_all(&self, backing: &mut impl PageBacking) {
        let mut flushed = 0u64;
        for shard in &self.shards {
            let mut shard = shard.lock();
            for slot in 0..shard.slab.len() as u32 {
                flushed += u64::from(shard.write_back(slot, backing));
            }
        }
        if let Some(m) = &self.metrics {
            m.flushed_pages.add(flushed);
        }
    }

    /// Cached pages most-recently-used first, globally ordered across
    /// shards (the shared tick clock makes shard-local ticks comparable).
    pub fn lru_order(&self) -> Vec<PageKey> {
        let mut entries: Vec<(u64, PageKey)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            entries.extend(
                shard
                    .recency()
                    .map(|f| (f.last_access, shard.page_key(f.key))),
            );
        }
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        entries.into_iter().map(|(_, k)| k).collect()
    }

    /// Writes the LRU dump file (`ib_buffer_pool`): one `file page_no`
    /// line per cached page, most recent first — the format the
    /// forensic carver (`core::forensics::bufpool`) parses.
    pub fn dump(&self, backing: &mut VDisk) {
        if let Some(m) = &self.metrics {
            m.dumps.inc();
        }
        let mut text = String::new();
        for (file, page_no) in self.lru_order() {
            text.push_str(&file);
            text.push(' ');
            text.push_str(&page_no.to_string());
            text.push('\n');
        }
        backing.write(DUMP_FILE, text.into_bytes());
    }

    /// Lifetime access count of a page.
    pub fn access_count(&self, file: &str, page_no: u32) -> u64 {
        let shard = self.lock(file, page_no);
        shard
            .known_key(file, page_no)
            .and_then(|key| shard.access_counts.get(&key).copied())
            .unwrap_or(0)
    }

    /// All per-page access counters, sorted (for the adaptive hash index
    /// and the memory snapshot).
    pub fn access_counters_snapshot(&self) -> Vec<(PageKey, u64)> {
        let mut out: Vec<(PageKey, u64)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock();
            out.extend(
                shard
                    .access_counts
                    .iter()
                    .map(|(&k, &c)| (shard.page_key(k), c)),
            );
        }
        out.sort();
        out
    }

    /// Discards every cached frame and counter of `file` without
    /// flushing (`DROP TABLE`). The name stays interned.
    pub fn purge_file(&self, file: &str) {
        for shard in &self.shards {
            let mut shard = shard.lock();
            let Some(&id) = shard.ids.get(file) else {
                continue;
            };
            let stale: Vec<u32> = shard
                .table
                .iter()
                .filter(|(&k, _)| file_id(k) == id as usize)
                .map(|(_, &slot)| slot)
                .collect();
            for slot in stale {
                shard.release(slot);
            }
            shard
                .access_counts
                .retain(|&k, _| file_id(k) != id as usize);
        }
    }

    /// Number of frames currently cached across all shards.
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().table.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (ShardedBufferPool, VDisk) {
        (ShardedBufferPool::new(8, 4), VDisk::new())
    }

    #[test]
    fn allocate_and_rw() {
        let (bp, mut vd) = setup();
        assert_eq!(bp.allocate_page(&mut vd, "t.ibd"), 0);
        assert_eq!(bp.allocate_page(&mut vd, "t.ibd"), 1);
        bp.with_page_mut(&mut vd, "t.ibd", 0, |b| b[100] = 42)
            .unwrap();
        let v = bp.with_page(&mut vd, "t.ibd", 0, |b| b[100]).unwrap();
        assert_eq!(v, 42);
        assert_eq!(ShardedBufferPool::page_count(&vd, "t.ibd"), 2);
    }

    #[test]
    fn missing_page_errors() {
        let (bp, mut vd) = setup();
        assert!(bp.with_page(&mut vd, "none.ibd", 0, |_| ()).is_err());
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        // One shard of capacity 4: deterministic eviction pressure.
        let bp = ShardedBufferPool::new(4, 1);
        let mut vd = VDisk::new();
        for _ in 0..4 {
            bp.allocate_page(&mut vd, "t.ibd");
        }
        bp.with_page_mut(&mut vd, "t.ibd", 0, |b| b[50] = 7)
            .unwrap();
        for _ in 0..4 {
            bp.allocate_page(&mut vd, "t.ibd");
        }
        assert!(bp.cached_pages() <= 4);
        let v = bp.with_page(&mut vd, "t.ibd", 0, |b| b[50]).unwrap();
        assert_eq!(v, 7, "dirty page survived via write-back");
    }

    #[test]
    fn dropped_pool_loses_unflushed_changes() {
        let (bp, mut vd) = setup();
        bp.allocate_page(&mut vd, "t.ibd");
        bp.with_page_mut(&mut vd, "t.ibd", 0, |b| b[60] = 9)
            .unwrap();
        // A crash: the pool dies with the process, and the next one
        // starts empty on the same disk.
        drop(bp);
        let bp = ShardedBufferPool::new(8, 4);
        let v = bp.with_page(&mut vd, "t.ibd", 0, |b| b[60]).unwrap();
        assert_eq!(v, 0, "dirty page must be lost on crash");
    }

    #[test]
    fn flush_makes_changes_durable() {
        let (bp, mut vd) = setup();
        bp.allocate_page(&mut vd, "t.ibd");
        bp.with_page_mut(&mut vd, "t.ibd", 0, |b| b[60] = 9)
            .unwrap();
        bp.flush_all(&mut vd);
        drop(bp);
        let bp = ShardedBufferPool::new(8, 4);
        let v = bp.with_page(&mut vd, "t.ibd", 0, |b| b[60]).unwrap();
        assert_eq!(v, 9);
    }

    #[test]
    fn lru_order_global_across_shards() {
        let (bp, mut vd) = setup();
        // Pages land on different shards; the order must still be the
        // global access order, most recent first.
        for _ in 0..4 {
            bp.allocate_page(&mut vd, "t.ibd");
        }
        bp.with_page(&mut vd, "t.ibd", 1, |_| ()).unwrap();
        bp.with_page(&mut vd, "t.ibd", 3, |_| ()).unwrap();
        bp.with_page(&mut vd, "t.ibd", 0, |_| ()).unwrap();
        let order = bp.lru_order();
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], ("t.ibd".to_string(), 0));
        assert_eq!(order[1], ("t.ibd".to_string(), 3));
        assert_eq!(order[2], ("t.ibd".to_string(), 1));
    }

    /// The dump format is frozen: the forensic carver parses it.
    #[test]
    fn dump_file_golden() {
        let (bp, mut vd) = setup();
        bp.allocate_page(&mut vd, "a.ibd");
        bp.allocate_page(&mut vd, "b.ibd");
        bp.allocate_page(&mut vd, "a.ibd");
        bp.with_page(&mut vd, "b.ibd", 0, |_| ()).unwrap();
        bp.with_page(&mut vd, "a.ibd", 0, |_| ()).unwrap();
        bp.dump(&mut vd);
        assert_eq!(
            vd.read(DUMP_FILE).unwrap(),
            b"a.ibd 0\nb.ibd 0\na.ibd 1\n".as_slice()
        );
    }

    #[test]
    fn access_counters_bounded() {
        // One shard, so the whole cap is that shard's slice.
        let bp = ShardedBufferPool::new(4, 1);
        let mut vd = VDisk::new();
        bp.allocate_page(&mut vd, "hot.ibd");
        // Heat one page well past everything else.
        for _ in 0..10 {
            bp.with_page(&mut vd, "hot.ibd", 0, |_| ()).unwrap();
        }
        // Fill to the cap with cold synthetic entries (avoids allocating
        // 65k real pages just to trigger the overflow path).
        {
            let mut shard = bp.shards[0].lock();
            let mut page = 0u32;
            while shard.access_counts.len() < ACCESS_COUNTS_CAP {
                let key = shard.key("cold.ibd", page);
                shard.access_counts.insert(key, 2);
                page += 1;
            }
        }
        // Admitting new pages at the cap evicts a coldest entry each time
        // (the newest admission, at count 1, is itself the next victim).
        bp.allocate_page(&mut vd, "new-a.ibd");
        bp.allocate_page(&mut vd, "new-b.ibd");
        assert!(bp.shards[0].lock().access_counts.len() <= ACCESS_COUNTS_CAP);
        assert_eq!(bp.access_count("new-b.ibd", 0), 1);
        // The hot page's counter survived the overflow evictions.
        assert_eq!(bp.access_count("hot.ibd", 0), 11);
    }

    #[test]
    fn access_count_eviction_is_deterministic() {
        // Every page is touched once or twice, so the cap drops among
        // many equal counts; the tie-break to the smallest (file, page)
        // makes the survivors independent of any hash seed.
        let feed = || {
            let bp = ShardedBufferPool::new(64, 64);
            let mut backing = Blank(Box::new([0; PAGE_SIZE]));
            for page in 0..(ACCESS_COUNTS_CAP as u32 + 4_000) {
                for _ in 0..1 + page % 3 / 2 {
                    bp.with_page(&mut backing, "s.ibd", page, |_| ()).unwrap();
                }
            }
            bp.access_counters_snapshot()
        };
        let first = feed();
        assert!(first.len() <= ACCESS_COUNTS_CAP, "the cap dropped entries");
        assert_eq!(first, feed());
    }

    /// Everything a snapshot can see of a pool.
    fn surfaces(bp: &ShardedBufferPool, registry: &Registry) -> String {
        let snap = registry.snapshot();
        let counters: Vec<_> = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("bufpool."))
            .collect();
        format!(
            "{counters:?} {:?} {:?} {}",
            bp.lru_order(),
            bp.access_counters_snapshot(),
            bp.tick.load(Ordering::Relaxed)
        )
    }

    #[test]
    fn a_run_is_accounted_as_its_separate_accesses() {
        // Same access sequence, once call by call and once with each
        // maximal same-page run batched: misses, evictions, hits, ticks,
        // recency and counts must all agree.
        let accesses: [u32; 12] = [0, 0, 0, 5, 5, 1, 0, 0, 6, 6, 6, 6];
        let pool = || {
            let registry = Registry::new();
            let mut bp = ShardedBufferPool::new(4, 2);
            bp.attach_telemetry(&registry);
            let mut vd = VDisk::new();
            for _ in 0..8 {
                bp.allocate_page(&mut vd, "t.ibd");
            }
            (bp, vd, registry)
        };
        let (one, mut vd1, reg1) = pool();
        for &p in &accesses {
            one.with_page(&mut vd1, "t.ibd", p, |_| ()).unwrap();
        }
        let (run, mut vd2, reg2) = pool();
        for chunk in accesses.chunk_by(|a, b| a == b) {
            run.with_page_run(&mut vd2, "t.ibd", chunk[0], |_| ((), chunk.len() as u64))
                .unwrap();
        }
        assert_eq!(surfaces(&one, &reg1), surfaces(&run, &reg2));
    }

    #[test]
    fn purge_file_removes_stale_frames() {
        let (bp, mut vd) = setup();
        bp.allocate_page(&mut vd, "t.ibd");
        bp.with_page_mut(&mut vd, "t.ibd", 0, |b| b[20] = 9)
            .unwrap();
        bp.purge_file("t.ibd");
        vd.remove("t.ibd");
        bp.allocate_page(&mut vd, "t.ibd");
        let v = bp.with_page(&mut vd, "t.ibd", 0, |b| b[20]).unwrap();
        assert_eq!(v, 0);
        assert_eq!(bp.access_count("t.ibd", 0), 2);
    }

    #[test]
    fn access_counters_accumulate() {
        let (bp, mut vd) = setup();
        bp.allocate_page(&mut vd, "t.ibd");
        for _ in 0..5 {
            bp.with_page(&mut vd, "t.ibd", 0, |_| ()).unwrap();
        }
        assert_eq!(bp.access_count("t.ibd", 0), 6);
        let snap = bp.access_counters_snapshot();
        assert_eq!(snap, vec![(("t.ibd".to_string(), 0), 6)]);
    }

    #[test]
    fn per_shard_metrics_register() {
        let registry = Registry::new();
        let mut bp = ShardedBufferPool::new(8, 4);
        bp.attach_telemetry(&registry);
        let mut vd = VDisk::new();
        bp.allocate_page(&mut vd, "t.ibd");
        bp.with_page(&mut vd, "t.ibd", 0, |_| ()).unwrap();
        let snap = registry.snapshot();
        let hit_total: u64 = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("bufpool.shard") && n.ends_with(".hits"))
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(hit_total, 1, "the touch after allocation is a shard hit");
        assert_eq!(snap.counter("bufpool.hits"), Some(1));
        // All four shards registered all three counters.
        let shard_counters = snap
            .counters
            .iter()
            .filter(|(n, _)| n.starts_with("bufpool.shard"))
            .count();
        assert_eq!(shard_counters, 12);
    }

    /// Every page number reads one shared blank page (a backing for
    /// more pages than the test wants to hold).
    struct Blank(Box<[u8; PAGE_SIZE]>);

    impl PageBacking for Blank {
        fn page(&self, _file: &str, _page_no: u32) -> Option<&[u8; PAGE_SIZE]> {
            Some(&self.0)
        }
        fn write_page(&mut self, _file: &str, _page_no: u32, _data: &[u8; PAGE_SIZE]) {}
        fn file_len(&mut self, _file: &str) -> usize {
            0
        }
    }

    /// A backing of real pages, one thread's own, so many threads can
    /// fault without sharing one `&mut VDisk`. A page's first four bytes
    /// are its number, and a written-back page must still carry it.
    struct Synthetic(Vec<Box<[u8; PAGE_SIZE]>>);

    impl Synthetic {
        fn new(pages: u32) -> Synthetic {
            let page = |n: u32| {
                let mut buf = Box::new([0; PAGE_SIZE]);
                buf[..4].copy_from_slice(&n.to_le_bytes());
                buf
            };
            Synthetic((0..pages).map(page).collect())
        }
    }

    fn page_no_of(b: &[u8; PAGE_SIZE]) -> u32 {
        u32::from_le_bytes(b[..4].try_into().unwrap())
    }

    impl PageBacking for Synthetic {
        fn page(&self, _file: &str, page_no: u32) -> Option<&[u8; PAGE_SIZE]> {
            self.0.get(page_no as usize).map(|b| &**b)
        }
        fn write_page(&mut self, _file: &str, page_no: u32, data: &[u8; PAGE_SIZE]) {
            assert_eq!(page_no_of(data), page_no, "no torn frame written back");
            self.0[page_no as usize].copy_from_slice(data);
        }
        fn file_len(&mut self, _file: &str) -> usize {
            self.0.len() * PAGE_SIZE
        }
    }

    #[test]
    fn concurrent_access_from_many_threads() {
        // 64 frames for 128 pages: eviction runs all along, and every
        // fourth access dirties its frame, so evictions write back.
        let registry = Registry::new();
        let mut pool = ShardedBufferPool::new(64, 8);
        pool.attach_telemetry(&registry);
        let pool = Arc::new(pool);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let mut backing = Synthetic::new(128);
                    for i in 0..200u32 {
                        let page = (t * 37 + i) % 128;
                        let got = if i.is_multiple_of(4) {
                            pool.with_page_mut(&mut backing, "s.ibd", page, |b| {
                                b[8] = b[8].wrapping_add(1);
                                page_no_of(b)
                            })
                        } else {
                            pool.with_page(&mut backing, "s.ibd", page, page_no_of)
                        };
                        assert_eq!(got.unwrap(), page, "no torn frames under concurrency");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert!(registry.snapshot().counter("bufpool.writebacks").unwrap() > 0);
        assert!(pool.cached_pages() <= 64);
        let order = pool.lru_order();
        assert_eq!(order.len(), pool.cached_pages(), "one LRU entry per frame");
    }

    /// The pool reads through to its backing: a seeded interleaving of
    /// every operation on a 4-frame, 2-shard pool over a real `VDisk`,
    /// checked against a model of each file's page images. Every read
    /// sees the model's page, and after `flush_all` the disk is the
    /// model byte for byte.
    #[test]
    fn reads_and_flushes_match_a_model_of_page_images() {
        let registry = Registry::new();
        let mut bp = ShardedBufferPool::new(4, 2);
        bp.attach_telemetry(&registry);
        let mut vd = VDisk::new();
        let mut formatted = Box::new([0; PAGE_SIZE]);
        Page::new(&mut *formatted).format();
        let files = ["a.ibd", "b.ibd"];
        let mut model: HashMap<&str, Vec<Box<[u8; PAGE_SIZE]>>> = HashMap::new();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        let (mut flushes, mut purges) = (0, 0);
        for step in 0..4_000 {
            let file = files[next(2) as usize];
            let pages = model.get(file).map_or(0, Vec::len) as u64;
            let op = if pages == 0 { 0 } else { next(100) };
            match op {
                0..=5 => {
                    let page_no = bp.allocate_page(&mut vd, file);
                    let pages = model.entry(file).or_default();
                    assert_eq!(page_no as usize, pages.len(), "step {step}");
                    pages.push(formatted.clone());
                }
                6..=37 => {
                    let page_no = next(pages) as u32;
                    let want = &model[file][page_no as usize];
                    let same = bp.with_page(&mut vd, file, page_no, |b| b == &**want);
                    assert!(same.unwrap(), "step {step}: read {file} {page_no}");
                }
                38..=52 => {
                    let page_no = next(pages) as u32;
                    let n = 1 + next(5);
                    let want = &model[file][page_no as usize];
                    let same = bp.with_page_run(&mut vd, file, page_no, |b| (b == &**want, n));
                    assert!(same.unwrap(), "step {step}: run on {file} {page_no}");
                }
                53..=89 => {
                    let page_no = next(pages) as u32;
                    let (at, byte) = (next(PAGE_SIZE as u64) as usize, next(256) as u8);
                    let want = &mut model.get_mut(file).unwrap()[page_no as usize];
                    let same = bp.with_page_mut(&mut vd, file, page_no, |b| {
                        let same = b == &**want;
                        b[at] = byte;
                        same
                    });
                    assert!(same.unwrap(), "step {step}: write {file} {page_no}");
                    want[at] = byte;
                }
                90..=97 => {
                    bp.flush_all(&mut vd);
                    flushes += 1;
                    for (file, pages) in &model {
                        let disk: Vec<u8> = pages.iter().flat_map(|p| p.iter().copied()).collect();
                        assert_eq!(vd.read(file), Some(&disk[..]), "step {step}: {file}");
                    }
                }
                _ => {
                    // DROP TABLE, then a new table of the same name.
                    bp.purge_file(file);
                    vd.remove(file);
                    model.remove(file);
                    purges += 1;
                    assert_eq!(bp.allocate_page(&mut vd, file), 0, "step {step}");
                    model.insert(file, vec![formatted.clone()]);
                }
            }
            assert!(bp.cached_pages() <= 4, "step {step}");
        }
        let snap = registry.snapshot();
        assert!(snap.counter("bufpool.evictions").unwrap() > 600);
        assert!(
            snap.counter("bufpool.writebacks").unwrap() > 200,
            "evictions wrote back"
        );
        assert!(
            flushes > 50 && purges > 50,
            "{flushes} flushes, {purges} purges"
        );
    }
}
