//! A scan costs allocations per statement, not per page or per row: a
//! zone-map-pruned scan skips pages from the in-memory mirror and reads
//! the ones it keeps where they lie, and a TEXT equality compares the
//! literal with each row's bytes without building a `String`. A
//! counting global allocator checks it, per thread, so other test
//! threads cannot disturb the count: the same statement over a table
//! of 10 pages and over one of 100 must allocate the same.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minidb::engine::{Connection, Db, DbConfig};
use minidb::storage::{ColumnStats, Page, PAGE_SIZE};

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

fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A table of `pages` heap pages: `ts` ascends with `id`, so each page
/// holds its own `ts` range, and `note` is a TEXT column zone maps do
/// not track. Query cache off: every SELECT runs the scan.
fn table(pages: usize) -> (Db, Connection) {
    let db = Db::open(DbConfig {
        query_cache_enabled: false,
        ..DbConfig::default()
    });
    let conn = db.connect("app");
    conn.execute("CREATE TABLE ev (id INT PRIMARY KEY, ts INT, note TEXT)")
        .unwrap();
    let heap_pages = || db.read_server_file("table_ev.ibd").unwrap().len() / PAGE_SIZE;
    let mut id = 0i64;
    while heap_pages() < pages {
        let rows: Vec<String> = (id..id + 100)
            .map(|i| format!("({i}, {}, 'note-{i:024}')", i * 10))
            .collect();
        conn.execute(&format!("INSERT INTO ev VALUES {}", rows.join(", ")))
            .unwrap();
        id += 100;
    }
    assert_eq!(heap_pages(), pages, "the table fills {pages} pages");
    (db, conn)
}

/// Allocations of one run of `sql`, after warm-up runs have brought
/// the statement history, digests and zone-map mirror to their steady
/// state. The statement keeps `rows` rows.
fn steady(conn: &Connection, sql: &str, rows: usize) -> u64 {
    for _ in 0..20 {
        conn.execute_encoded(sql, None).unwrap();
    }
    allocations(|| {
        let answer = conn.execute_encoded(sql, None).unwrap();
        assert_eq!(answer.rows.len(), rows, "{sql}");
    })
}

#[test]
fn pruned_and_text_equality_scans_allocate_per_statement() {
    let (_small_db, small) = table(10);
    let (_large_db, large) = table(100);
    // `ts` is unindexed: the zone maps keep one page of 10 or of 100.
    let pruned = "SELECT id, ts FROM ev WHERE ts >= 1000 AND ts < 1500";
    // Nothing prunes a TEXT equality: every row's `note` is compared.
    let text_eq = "SELECT id FROM ev WHERE note = 'note-000000000000000000000123'";
    for (sql, rows) in [(pruned, 50), (text_eq, 1)] {
        let (a, b) = (steady(&small, sql, rows), steady(&large, sql, rows));
        assert_eq!(a, b, "10 pages: {a} allocations, 100 pages: {b}: {sql}");
    }
}

#[test]
fn a_page_synopsis_is_read_without_allocating() {
    let mut buf = Box::new([0; PAGE_SIZE]);
    let mut page = Page::new(&mut *buf);
    page.format();
    page.synopsis_note_insert(&[(0, 5), (1, -3), (2, 9), (3, 1), (4, 7)]);
    let page = Page::new(&*buf);
    let mut syn = None;
    assert_eq!(allocations(|| syn = page.synopsis()), 0);
    let syn = syn.unwrap();
    assert_eq!(syn.rows, 1);
    assert_eq!(
        syn.cols().len(),
        4,
        "columns past the capacity go untracked"
    );
    assert_eq!(
        syn.stats(2),
        Some(&ColumnStats {
            col: 2,
            min: 9,
            max: 9
        })
    );
}
