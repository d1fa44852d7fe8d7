//! A simulated process heap with **no secure deletion** (§5).
//!
//! Every query string and cached result the engine handles is copied into
//! this arena. `free` only returns the block to a size-class freelist —
//! the bytes stay in place until some later allocation of the same size
//! class overwrites them. Size classes reuse blocks LIFO, so a block freed
//! *early* in the process lifetime sinks to the bottom of its class stack
//! and is effectively never reused — exactly why the paper's marker query
//! was still found in MySQL's heap after 102,000 subsequent queries.

use mdb_telemetry::{Counter, Registry};

/// Handle to an allocated block.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HeapPtr {
    /// Byte offset within the arena.
    pub offset: usize,
    /// Size-class capacity of the block.
    pub capacity: usize,
    /// Live payload length.
    pub len: usize,
}

/// Size classes (bytes). Like glibc's fastbins/tcache, small classes are
/// spaced 16 bytes apart, so two strings reuse each other's blocks only
/// when their lengths are close; larger classes grow geometrically.
/// Allocations round up to the nearest class; anything larger gets an
/// exact-size "huge" block.
const CLASSES: [usize; 20] = [
    16, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256, 512, 1024, 4096,
    16384,
];

/// Pre-resolved telemetry handles; absent until a registry is attached.
struct HeapMetrics {
    allocs: Counter,
    frees: Counter,
    reused: Counter,
    alloc_bytes: Counter,
}

/// The arena allocator.
pub struct HeapArena {
    buf: Vec<u8>,
    /// Per-class LIFO freelists of block offsets.
    free: Vec<Vec<usize>>,
    /// Freelist for huge blocks: (offset, capacity).
    free_huge: Vec<(usize, usize)>,
    /// Statistics: total allocations ever.
    pub total_allocs: u64,
    /// Statistics: allocations served by reusing a freed block.
    pub reused_allocs: u64,
    /// Hardening knob (off by default, as in every real DBMS): zero a
    /// block on free. Used by the mitigation-ablation experiment.
    pub secure_delete: bool,
    metrics: Option<HeapMetrics>,
}

impl Default for HeapArena {
    fn default() -> Self {
        Self::new()
    }
}

impl HeapArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        HeapArena {
            buf: Vec::new(),
            free: vec![Vec::new(); CLASSES.len()],
            free_huge: Vec::new(),
            total_allocs: 0,
            reused_allocs: 0,
            secure_delete: false,
            metrics: None,
        }
    }

    /// Registers this arena's counters on `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = Some(HeapMetrics {
            allocs: registry.counter("heap.allocs"),
            frees: registry.counter("heap.frees"),
            reused: registry.counter("heap.reused_allocs"),
            alloc_bytes: registry.counter("heap.alloc_bytes"),
        });
    }

    fn class_of(len: usize) -> Option<usize> {
        CLASSES.iter().position(|&c| len <= c)
    }

    /// Copies `data` into the arena and returns its handle.
    pub fn alloc(&mut self, data: &[u8]) -> HeapPtr {
        self.total_allocs += 1;
        let reused_before = self.reused_allocs;
        let (offset, capacity) = match Self::class_of(data.len()) {
            Some(class) => {
                let cap = CLASSES[class];
                if let Some(off) = self.free[class].pop() {
                    self.reused_allocs += 1;
                    (off, cap)
                } else {
                    let off = self.buf.len();
                    self.buf.resize(off + cap, 0);
                    (off, cap)
                }
            }
            None => {
                if let Some(pos) = self
                    .free_huge
                    .iter()
                    .rposition(|&(_, cap)| cap >= data.len())
                {
                    let (off, cap) = self.free_huge.remove(pos);
                    self.reused_allocs += 1;
                    (off, cap)
                } else {
                    let off = self.buf.len();
                    self.buf.resize(off + data.len(), 0);
                    (off, data.len())
                }
            }
        };
        if let Some(m) = &self.metrics {
            m.allocs.inc();
            m.alloc_bytes.add(data.len() as u64);
            if self.reused_allocs > reused_before {
                m.reused.inc();
            }
        }
        // Deliberately only the payload prefix is written: the remainder
        // of a reused block keeps its previous contents (heap residue).
        self.buf[offset..offset + data.len()].copy_from_slice(data);
        HeapPtr {
            offset,
            capacity,
            len: data.len(),
        }
    }

    /// Convenience: allocate a UTF-8 string.
    pub fn alloc_str(&mut self, s: &str) -> HeapPtr {
        self.alloc(s.as_bytes())
    }

    /// Frees a block. **The bytes are not cleared** (unless the
    /// `secure_delete` hardening knob is on) — that is the point.
    pub fn free(&mut self, ptr: HeapPtr) {
        if let Some(m) = &self.metrics {
            m.frees.inc();
        }
        if self.secure_delete {
            self.buf[ptr.offset..ptr.offset + ptr.capacity].fill(0);
        }
        match CLASSES.iter().position(|&c| c == ptr.capacity) {
            Some(class) => self.free[class].push(ptr.offset),
            None => self.free_huge.push((ptr.offset, ptr.capacity)),
        }
    }

    /// Frees each block, in order.
    pub fn free_all(&mut self, ptrs: impl IntoIterator<Item = HeapPtr>) {
        ptrs.into_iter().for_each(|p| self.free(p));
    }

    /// Reads a live block's payload.
    pub fn read(&self, ptr: HeapPtr) -> &[u8] {
        &self.buf[ptr.offset..ptr.offset + ptr.len]
    }

    /// A byte-exact image of the whole arena — what a memory snapshot of
    /// the DB process contains.
    pub fn dump(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Arena size in bytes.
    pub fn size(&self) -> usize {
        self.buf.len()
    }

    /// Counts non-overlapping occurrences of `needle` in the arena — the
    /// §5 experiment's measurement.
    pub fn count_occurrences(&self, needle: &[u8]) -> usize {
        if needle.is_empty() || needle.len() > self.buf.len() {
            return 0;
        }
        let mut count = 0;
        let mut i = 0;
        while i + needle.len() <= self.buf.len() {
            if &self.buf[i..i + needle.len()] == needle {
                count += 1;
                i += needle.len();
            } else {
                i += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_round_trip() {
        let mut h = HeapArena::new();
        let p = h.alloc(b"SELECT * FROM t");
        assert_eq!(h.read(p), b"SELECT * FROM t");
    }

    #[test]
    fn free_leaves_bytes_in_place() {
        let mut h = HeapArena::new();
        let p = h.alloc_str("SELECT secret_marker FROM t");
        h.free(p);
        assert_eq!(h.count_occurrences(b"secret_marker"), 1);
    }

    #[test]
    fn reuse_overwrites_prefix_only() {
        let mut h = HeapArena::new();
        let p = h.alloc_str("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"); // 30 bytes → class 32.
        h.free(p);
        let q = h.alloc_str("BB"); // Class 16... different class, no reuse.
        assert_ne!(q.offset, p.offset);
        let r = h.alloc_str("CCCCCCCCCCCCCCCCCC"); // 18 bytes → class 32: reuses p.
        assert_eq!(r.offset, p.offset);
        // Residue: the tail of the old block is still readable in the dump.
        let dump = h.dump();
        let tail = &dump[p.offset + 18..p.offset + 30];
        assert_eq!(tail, b"AAAAAAAAAAAA");
    }

    #[test]
    fn lifo_reuse_buries_early_frees() {
        let mut h = HeapArena::new();
        let early = h.alloc_str("EARLY-FREED-QUERY-TEXT-........"); // Class 32.
        h.free(early);
        // Churn: many alloc/free pairs in the same class reuse each other,
        // not the early block... after the first one grabs it.
        let first = h.alloc_str("CHURN-0........................");
        for i in 1..1000 {
            let p = h.alloc_str(&format!("CHURN-{i:<25}"));
            h.free(p);
        }
        // `first` took the early block; all subsequent churn recycled one
        // hot block. Verify reuse efficiency.
        assert_eq!(first.offset, early.offset);
        assert!(h.reused_allocs >= 999);
        assert!(h.size() < 32 * 8, "arena must not grow under churn");
    }

    #[test]
    fn huge_blocks() {
        let mut h = HeapArena::new();
        let big = vec![7u8; 100_000];
        let p = h.alloc(&big);
        assert_eq!(h.read(p), &big[..]);
        h.free(p);
        let q = h.alloc(&vec![8u8; 90_000]);
        assert_eq!(q.offset, p.offset, "huge freelist reuse");
    }

    #[test]
    fn count_occurrences_is_exact() {
        let mut h = HeapArena::new();
        h.alloc(b"xx MARKER yy");
        h.alloc(b"zz MARKER ww MARKER");
        assert_eq!(h.count_occurrences(b"MARKER"), 3);
        assert_eq!(h.count_occurrences(b"ABSENT"), 0);
        assert_eq!(h.count_occurrences(b""), 0);
    }

    #[test]
    fn secure_delete_zeroes_on_free() {
        let mut h = HeapArena::new();
        h.secure_delete = true;
        let p = h.alloc_str("SELECT zeroized_marker FROM t");
        h.free(p);
        assert_eq!(h.count_occurrences(b"zeroized_marker"), 0);
        // Live allocations are untouched.
        let q = h.alloc_str("still_alive_marker");
        assert_eq!(h.count_occurrences(b"still_alive_marker"), 1);
        h.free(q);
    }
}
