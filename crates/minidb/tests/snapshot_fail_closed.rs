//! `SystemImage::from_bytes` fails closed. Fed a real traced image cut
//! at every length, with seeded single-byte flips, and with a `u32` or
//! `u64` of all ones written over every offset (which inflates every
//! count and length field in turn), it returns an error or an image:
//! it never panics, and no allocation it makes is larger than the
//! input could hold. A counting global allocator records the largest
//! request per thread, so other test threads cannot disturb it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use minidb::engine::{Db, DbConfig};
use minidb::snapshot::SystemImage;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards unchanged to the system allocator; the
// wrapper only records the largest request on the calling thread.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = LARGEST.try_with(|n| n.set(n.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Largest = Largest;

/// The widest an in-memory value gets over its wire bytes: an empty
/// string is 8 wire bytes and a 24-byte `String`, and a growing `Vec`
/// can hold twice what it has used.
const EXPANSION: usize = 8;

/// Small fixed allocations (error messages, a first `Vec` block) that
/// even the shortest input may cause.
const SLACK: usize = 4096;

/// A traced primary with every section the engine fills: rows, an
/// UPDATE's version chain, a DELETE, zone maps, hot index keys, traces.
fn traced_image() -> Vec<u8> {
    let db = Db::open(DbConfig {
        redo_capacity: 1 << 12,
        undo_capacity: 1 << 12,
        ..DbConfig::default()
    });
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v TEXT, b BYTES)")
        .unwrap();
    for i in 0..12 {
        conn.execute(&format!("INSERT INTO t VALUES ({i}, 'v{i}', X'{i:02x}')"))
            .unwrap();
    }
    conn.execute("UPDATE t SET v = 'w' WHERE id = 1").unwrap();
    conn.execute("DELETE FROM t WHERE id = 2").unwrap();
    for i in 1..=9 {
        let pad = " ".repeat(i);
        conn.execute(&format!("SELECT * FROM t WHERE id ={pad}3"))
            .unwrap();
    }
    let mut img = db.system_image();
    assert!(!img.memory.query_traces.is_empty() && !img.memory.version_chains.is_empty());
    // The container carries a file's bytes as one opaque run, so each
    // file keeps only its first 256 bytes: every length and count stays
    // in place, and the quadratic passes below take a third as long.
    for data in img.disk.files.values_mut() {
        data.truncate(256);
    }
    img.to_bytes()
}

/// Parses `bytes`, panicking if the parser asked for an allocation
/// larger than the input could hold. Returns whether it parsed.
fn parse(bytes: &[u8], what: &str) -> bool {
    LARGEST.with(|n| n.set(0));
    let ok = SystemImage::from_bytes(bytes).is_ok();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= EXPANSION * bytes.len() + SLACK,
        "{what}: a {largest}-byte allocation from {} input bytes",
        bytes.len()
    );
    ok
}

#[test]
fn from_bytes_fails_closed() {
    let image = traced_image();
    assert!(parse(&image, "the image"));

    for len in 0..image.len() {
        assert!(!parse(&image[..len], "prefix"), "prefix of {len} parsed");
    }

    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut buf = image.clone();
    for _ in 0..4_096 {
        let at = rng.gen_range(0..buf.len());
        let flip = rng.gen_range(1..=255u8);
        buf[at] ^= flip;
        parse(&buf, "flip");
        buf[at] ^= flip;
    }

    for width in [4, 8] {
        for at in 0..=image.len() - width {
            buf[at..at + width].fill(0xff);
            parse(&buf, "inflated field");
            buf[at..at + width].copy_from_slice(&image[at..at + width]);
        }
    }
}
