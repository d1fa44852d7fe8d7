//! A range SELECT's reply costs allocations per statement, not per
//! row: the scan copies each survivor's columns into one row block,
//! the query cache shares that block, and the server splices it into
//! the `Result` frame without decoding a row. A counting global
//! allocator checks it, per thread, so other test threads cannot
//! disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mdb_server::wire::answer_reply_frame;
use minidb::engine::{Db, DbConfig};

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

#[test]
fn a_range_reply_allocates_per_statement_not_per_row() {
    let db = Db::open(DbConfig::default());
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v INT)")
        .unwrap();
    for chunk in (0..1_000).collect::<Vec<i64>>().chunks(100) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, 'name-{i:040}', {})", i * 7))
            .collect();
        conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
    }
    // Each text runs once: a cache miss, so the scan builds the block.
    let reply = |lo: i64, n: i64| {
        allocations(|| {
            let sql = format!("SELECT * FROM t WHERE id >= {lo} AND id < {}", lo + n);
            let answer = conn.execute_encoded(&sql, None).unwrap();
            assert_eq!(answer.rows.len() as i64, n);
            std::hint::black_box(answer_reply_frame(&answer));
        })
    };
    // Warm up to the steady state: every heap and index page resident,
    // and the query cache, the statement history and the digest table
    // full, so a statement only replaces what an earlier one left.
    for i in 0..200 {
        reply(i * 4, 1 + i % 50);
    }
    let (small, large) = (reply(100, 20), reply(300, 200));
    assert!(
        large.abs_diff(small) < 16,
        "20 rows: {small} allocations, 200 rows: {large}"
    );
}
