//! The buffer pool's steady state allocates nothing: a hit, a run of
//! hits and a fault that evicts all reuse what the shard already holds
//! (interned file ids, the frame slab and its page buffers, the frame
//! table). A counting global allocator checks it, per thread, so other
//! test threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdb_telemetry::Registry;
use minidb::storage::ShardedBufferPool;
use minidb::vdisk::VDisk;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only counts allocations on the calling thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const FILE: &str = "t.ibd";

#[test]
fn hits_runs_and_evicting_faults_allocate_nothing() {
    // One shard of four frames over eight pages.
    let registry = Registry::new();
    let mut pool = ShardedBufferPool::new(4, 1);
    pool.attach_telemetry(&registry);
    let mut disk = VDisk::new();
    for _ in 0..8 {
        pool.allocate_page(&mut disk, FILE);
    }
    // Warm-up: every page has an access count and has been faulted
    // through the full shard, dirty frames included.
    for page in (0..8).cycle().take(32) {
        pool.with_page_mut(&mut disk, FILE, page, |b| b[0] = 1)
            .unwrap();
    }

    let mut sum = 0u64;
    let hits = allocations(|| {
        for _ in 0..1_000 {
            sum += pool.with_page(&mut disk, FILE, 7, |b| b[0] as u64).unwrap();
        }
    });
    assert_eq!((hits, sum), (0, 1_000), "1,000 pool hits");

    let run = allocations(|| {
        pool.with_page_run(&mut disk, FILE, 7, |b| (b[0], 50))
            .unwrap();
    });
    assert_eq!(run, 0, "a run of 50 accesses under one latch");

    // Eight pages round-robin through four frames: every access misses
    // and evicts the least recent frame, every other one dirty.
    let before = registry.snapshot();
    let faults = allocations(|| {
        for page in (0..8u32).cycle().take(64) {
            if page % 2 == 0 {
                pool.with_page_mut(&mut disk, FILE, page, |b| b[1] = b[1].wrapping_add(1))
                    .unwrap();
            } else {
                pool.with_page(&mut disk, FILE, page, |_| ()).unwrap();
            }
        }
    });
    let after = registry.snapshot();
    let delta = |name| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert_eq!(
        (delta("bufpool.misses"), delta("bufpool.evictions")),
        (64, 64),
        "every access faulted and evicted"
    );
    assert!(delta("bufpool.writebacks") > 0);
    assert_eq!(faults, 0, "64 faults that evict, on a full shard");
}
