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
//! O(1). A fault copies the page into the evicted (or freed) frame's
//! buffer, so a shard never holds more page buffers than its capacity.
//! The `(file, page)` form of a key ([`PageKey`]) is rebuilt only on the
//! cold paths that show it: [`ShardedBufferPool::lru_order`], the dump
//! and the access-count snapshot.
//!
//! Callers that touch one page many times in a row (a run of index hits
//! on one heap page) use [`ShardedBufferPool::with_page_run`]: one latch
//! acquisition, accounted for as the `n` accesses it stands for, so
//! every surface above is what `n` separate calls would have left.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use mdb_telemetry::{Counter, Registry};
use parking_lot::Mutex;

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

/// The storage a pool faults pages from and writes dirty pages back to.
///
/// The engine's backing is the [`VDisk`]; the pool's unit tests
/// substitute a synthetic backing so many threads can fault concurrently
/// without sharing one `&mut VDisk`.
pub trait PageBacking {
    /// Copies page `page_no` of `file` into `buf`; `false` if the page
    /// does not exist.
    fn read_page(&mut self, file: &str, page_no: u32, buf: &mut [u8; PAGE_SIZE]) -> bool;
    /// Writes a page back (eviction write-back / flush).
    fn write_page(&mut self, file: &str, page_no: u32, data: &[u8; PAGE_SIZE]);
    /// Current length of `file` in bytes (for page allocation).
    fn file_len(&mut self, file: &str) -> usize;
}

impl PageBacking for VDisk {
    fn read_page(&mut self, file: &str, page_no: u32, buf: &mut [u8; PAGE_SIZE]) -> bool {
        let off = page_no as usize * PAGE_SIZE;
        match self
            .read(file)
            .and_then(|bytes| bytes.get(off..off + PAGE_SIZE))
        {
            Some(page) => {
                buf.copy_from_slice(page);
                true
            }
            None => false,
        }
    }

    fn write_page(&mut self, file: &str, page_no: u32, data: &[u8; PAGE_SIZE]) {
        self.write_at(file, page_no as usize * PAGE_SIZE, data);
    }

    fn file_len(&mut self, file: &str) -> usize {
        self.len(file)
    }
}

/// A page inside a shard: `(interned file id << 32) | page_no`.
type FrameKey = u64;

fn frame_key(file_id: u32, page_no: u32) -> FrameKey {
    ((file_id as u64) << 32) | page_no as u64
}

fn file_id(key: FrameKey) -> usize {
    (key >> 32) as usize
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

struct Frame {
    key: FrameKey,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    last_access: u64,
    /// Recency neighbours (slab indices): older and newer.
    prev: u32,
    next: u32,
}

/// One latch partition, guarded by the shard's `Mutex` in
/// [`ShardedBufferPool::shards`].
struct Shard {
    capacity: usize,
    /// Interned tablespace names: `names[id]` and its inverse.
    names: Vec<String>,
    ids: KeyMap<String, u32>,
    /// Frame slab: `table` maps a key to its frame, `free` lists the
    /// slots whose page left; their buffers wait for the next fault.
    slab: Vec<Frame>,
    table: KeyMap<FrameKey, u32>,
    free: Vec<u32>,
    /// Recency list ends: `head` is the least recently used frame (the
    /// next victim), `tail` the most recent.
    head: u32,
    tail: u32,
    /// Lifetime access counts (survive eviction; feed the AHI). Bounded
    /// by a per-shard slice of [`ACCESS_COUNTS_CAP`].
    access_counts: KeyMap<FrameKey, u64>,
    access_cap: usize,
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
            head: NIL,
            tail: NIL,
            access_counts: KeyMap::default(),
            access_cap,
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
        (self.names[file_id(key)].clone(), key as u32)
    }

    fn unlink(&mut self, slot: u32) {
        let f = &self.slab[slot as usize];
        let (prev, next) = (f.prev, f.next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Stamps a linked-out frame with `tick` and makes it the most
    /// recent. Ticks are drawn under the latch, so the list stays sorted.
    fn push_tail(&mut self, slot: u32, tick: u64) {
        let f = &mut self.slab[slot as usize];
        f.last_access = tick;
        f.prev = self.tail;
        f.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.slab[t as usize].next = slot,
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
        self.slab[slot as usize].key = key;
        self.table.insert(key, slot);
        self.push_tail(slot, tick);
    }

    /// Drops the frame at `slot` without writing it back; its buffer
    /// waits on the free list, clean.
    fn release(&mut self, slot: u32) {
        self.unlink(slot);
        let f = &mut self.slab[slot as usize];
        f.dirty = false;
        self.table.remove(&f.key);
        self.free.push(slot);
    }

    /// Frame slots from least to most recent.
    fn recency(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors(Some(self.head).filter(|&s| s != NIL), |&s| {
            Some(self.slab[s as usize].next).filter(|&n| n != NIL)
        })
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
                .min_by_key(|(&k, &c)| (c, names[file_id(k)].as_str(), k as u32))
                .map(|(&k, _)| k)
            {
                self.access_counts.remove(&victim);
            }
        }
        self.access_counts.insert(key, n);
    }
}

/// Per-shard telemetry handles (`bufpool.shard{i}.*`).
struct ShardCounters {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

struct PoolMetrics {
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    writebacks: Counter,
    flushed_pages: Counter,
    dumps: Counter,
    per_shard: Vec<ShardCounters>,
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
            per_shard: (0..self.shards.len())
                .map(|i| ShardCounters {
                    hits: registry.counter(&format!("bufpool.shard{i}.hits")),
                    misses: registry.counter(&format!("bufpool.shard{i}.misses")),
                    evictions: registry.counter(&format!("bufpool.shard{i}.evictions")),
                })
                .collect(),
        });
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

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the frame holding `key` in `shard`, faulting page
    /// `page_no` of `file` in from `backing` on a miss. Counts the
    /// hit/miss on both metric families.
    fn load(
        &self,
        shard: &mut Shard,
        shard_idx: usize,
        backing: &mut impl PageBacking,
        key: FrameKey,
        file: &str,
        page_no: u32,
    ) -> DbResult<u32> {
        if let Some(&slot) = shard.table.get(&key) {
            if let Some(m) = &self.metrics {
                m.hits.inc();
                m.per_shard[shard_idx].hits.inc();
            }
            return Ok(slot);
        }
        if let Some(m) = &self.metrics {
            m.misses.inc();
            m.per_shard[shard_idx].misses.inc();
        }
        let slot = self.free_frame(shard, shard_idx, backing);
        if !backing.read_page(file, page_no, &mut shard.slab[slot as usize].data) {
            shard.free.push(slot);
            return Err(DbError::Storage(format!(
                "page {page_no} of {file} does not exist on disk"
            )));
        }
        shard.install(slot, key, self.next_tick());
        Ok(slot)
    }

    /// A frame for an incoming page, unlinked and out of the table:
    /// evicts the least recent frame when the shard is full (writing it
    /// back if dirty), reuses a freed slot, or grows the slab.
    fn free_frame(
        &self,
        shard: &mut Shard,
        shard_idx: usize,
        backing: &mut impl PageBacking,
    ) -> u32 {
        if shard.table.len() >= shard.capacity {
            let victim = shard.head;
            if let Some(m) = &self.metrics {
                m.evictions.inc();
                m.per_shard[shard_idx].evictions.inc();
            }
            let frame = &shard.slab[victim as usize];
            if frame.dirty {
                if let Some(m) = &self.metrics {
                    m.writebacks.inc();
                }
                let file = &shard.names[file_id(frame.key)];
                backing.write_page(file, frame.key as u32, &frame.data);
            }
            shard.release(victim);
        }
        shard.free.pop().unwrap_or_else(|| {
            shard.slab.push(Frame {
                key: 0,
                data: Box::new([0; PAGE_SIZE]),
                dirty: false,
                last_access: 0,
                prev: NIL,
                next: NIL,
            });
            (shard.slab.len() - 1) as u32
        })
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
        let idx = self.shard_of(file, page_no);
        let mut guard = self.shards[idx].lock();
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        let slot = self.load(shard, idx, backing, key, file, page_no)?;
        let (out, n) = f(&shard.slab[slot as usize].data);
        debug_assert!(n >= 1, "a run stands for at least one access");
        if let Some(m) = &self.metrics {
            m.hits.add(n - 1);
            m.per_shard[idx].hits.add(n - 1);
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
        let idx = self.shard_of(file, page_no);
        let mut guard = self.shards[idx].lock();
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        let slot = self.load(shard, idx, backing, key, file, page_no)?;
        shard.touch(slot, self.next_tick());
        shard.count_access(key, 1);
        let frame = &mut shard.slab[slot as usize];
        frame.dirty = true;
        Ok(f(&mut frame.data))
    }

    /// Allocates a fresh formatted page at the end of `file`, returning
    /// its page number. Write-through, cached clean.
    pub fn allocate_page(&self, backing: &mut impl PageBacking, file: &str) -> u32 {
        let page_no = (backing.file_len(file) / PAGE_SIZE) as u32;
        let idx = self.shard_of(file, page_no);
        let mut guard = self.shards[idx].lock();
        let shard = &mut *guard;
        let key = shard.key(file, page_no);
        // A frame left by a file removed without a purge is stale.
        if let Some(&stale) = shard.table.get(&key) {
            shard.release(stale);
        }
        let slot = self.free_frame(shard, idx, backing);
        let buf = &mut *shard.slab[slot as usize].data;
        Page::new(&mut *buf).format();
        backing.write_page(file, page_no, buf);
        shard.install(slot, key, self.next_tick());
        shard.count_access(key, 1);
        page_no
    }

    /// Number of pages `file` holds on disk.
    pub fn page_count(vdisk: &VDisk, file: &str) -> u32 {
        (vdisk.len(file) / PAGE_SIZE) as u32
    }

    /// Flushes every dirty frame to the backing (checkpoint/shutdown).
    pub fn flush_all(&self, backing: &mut impl PageBacking) {
        let mut flushed = 0u64;
        for shard in &self.shards {
            let mut guard = shard.lock();
            let shard = &mut *guard;
            for frame in &mut shard.slab {
                if frame.dirty {
                    let file = &shard.names[file_id(frame.key)];
                    backing.write_page(file, frame.key as u32, &frame.data);
                    frame.dirty = false;
                    flushed += 1;
                }
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
            entries.extend(shard.recency().map(|s| {
                let f = &shard.slab[s as usize];
                (f.last_access, shard.page_key(f.key))
            }));
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
        let shard = self.shards[self.shard_of(file, page_no)].lock();
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
                .recency()
                .filter(|&s| file_id(shard.slab[s as usize].key) == id as usize)
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
            let mut backing = Synthetic;
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

    /// A backing that synthesizes pages on demand — lets many threads
    /// fault without sharing one `&mut VDisk`. A page's first four bytes
    /// are its number, and a written-back page must still carry it.
    struct Synthetic;

    fn page_no_of(b: &[u8; PAGE_SIZE]) -> u32 {
        u32::from_le_bytes(b[..4].try_into().unwrap())
    }

    impl PageBacking for Synthetic {
        fn read_page(&mut self, _file: &str, page_no: u32, buf: &mut [u8; PAGE_SIZE]) -> bool {
            buf.fill(0);
            buf[..4].copy_from_slice(&page_no.to_le_bytes());
            true
        }
        fn write_page(&mut self, _file: &str, page_no: u32, data: &[u8; PAGE_SIZE]) {
            assert_eq!(page_no_of(data), page_no, "no torn frame written back");
        }
        fn file_len(&mut self, _file: &str) -> usize {
            0
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
                    let mut backing = Synthetic;
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
}
