//! Opening a heap costs allocations per page, not per row: the locator
//! is rebuilt from each cell's id, read off a cell that is checked
//! whole but never decoded into values. A counting global allocator
//! checks it, per thread, so other test threads cannot disturb the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minidb::row::Row;
use minidb::storage::{ShardedBufferPool, TableHeap};
use minidb::vdisk::VDisk;
use minidb::Value;

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

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const FILE: &str = "t.ibd";

/// A flushed heap of `rows` rows, each with two TEXT values.
fn heap(rows: u64) -> VDisk {
    let pool = ShardedBufferPool::new(64, 1);
    let mut disk = VDisk::new();
    let mut heap = TableHeap::create(&pool, &mut disk, FILE).unwrap();
    for i in 0..rows {
        let row = Row {
            id: heap.allocate_row_id(),
            values: vec![
                Value::Int(i as i64),
                Value::Text(format!("name-{i:08}")),
                Value::Text(format!("note-{i:024}")),
            ],
        };
        heap.insert(&pool, &mut disk, &row).unwrap();
    }
    pool.flush_all(&mut disk);
    disk
}

/// Allocations of opening `disk`'s heap on a cold pool, and its page
/// count.
fn open_cost(mut disk: VDisk, rows: u64) -> (u64, u64) {
    let pool = ShardedBufferPool::new(64, 1);
    let pages = ShardedBufferPool::page_count(&disk, FILE) as u64;
    let (allocs, heap) = allocations(|| TableHeap::open(&pool, &mut disk, FILE).unwrap());
    assert_eq!(heap.row_count() as u64, rows);
    (allocs, pages)
}

#[test]
fn opening_a_text_table_allocates_per_page_not_per_row() {
    let (small, small_pages) = open_cost(heap(200), 200);
    let (large, large_pages) = open_cost(heap(2_000), 2_000);
    assert!(
        large_pages >= 8 * small_pages,
        "{small_pages} → {large_pages} pages"
    );
    // Per page: the pool's frame and the locator's chunk of 256 ids.
    // Decoding each row would cost three allocations a row (its value
    // vector and two strings): 6,000 here.
    assert!(
        large <= small + 3 * large_pages,
        "2,000 rows on {large_pages} pages: {large} allocations (200 rows: {small})"
    );
}
