//! A B+ tree lookup and an insert that does not split read and edit
//! nodes where they lie in the pool frame, so what they allocate does
//! not grow with the tree: the search result's two vectors, and the
//! newcomer's encoded entry. A counting global allocator (as in
//! `pool_alloc.rs`) checks it, per thread, on a warm tree of three
//! levels and on one of a single leaf.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minidb::storage::{BTree, ShardedBufferPool};
use minidb::value::Value;
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

/// Allocations of a `search_eq` hit and of an insert into a leaf with
/// room, on a tree of `keys` ascending INT keys `0, 2, 4, …` of
/// `depth` levels, every page in the pool.
fn counts(keys: i64, depth: usize) -> (u64, u64) {
    let pool = ShardedBufferPool::new(256, 4);
    let mut disk = VDisk::new();
    let tree = BTree::create(&pool, &mut disk, FILE).unwrap();
    for k in 0..keys {
        tree.insert(&pool, &mut disk, &Value::Int(2 * k), k as u64)
            .unwrap();
    }
    let stats = tree.check(&pool, &mut disk).unwrap();
    assert_eq!(stats.depth, depth, "{stats:?}");
    // The last leaf is not full, so an insert there does not split.
    assert!(stats.entries < stats.leaf_pages * 32, "{stats:?}");
    // Warm-up: every page on both paths has an access count.
    let hit = Value::Int(2 * (keys - 1));
    tree.search_eq(&pool, &mut disk, &hit).unwrap();
    tree.insert(&pool, &mut disk, &Value::Int(2 * keys + 1), 0)
        .unwrap();

    let mut found = Vec::new();
    let search = allocations(|| {
        found = tree.search_eq(&pool, &mut disk, &hit).unwrap().row_ids;
    });
    assert_eq!(found, vec![keys as u64 - 1]);
    let insert = allocations(|| {
        tree.insert(&pool, &mut disk, &Value::Int(2 * keys - 1), 1)
            .unwrap();
    });
    assert_eq!(
        tree.check(&pool, &mut disk).unwrap().entries,
        keys as usize + 2
    );
    (search, insert)
}

#[test]
fn a_lookup_and_an_insert_allocate_the_same_at_every_depth() {
    // Result row ids and the pages visited; the encoded entry.
    assert_eq!(counts(2_000, 3), (2, 1), "a warm three-level tree");
    assert_eq!(counts(10, 1), (2, 1), "a single leaf");
}
