//! Heap pages fail closed. A flushed four-page table has a page damaged
//! on disk while the buffer pool does not hold it: page 0, then page 3,
//! the last, where an INSERT lands. Every header and slot-directory byte
//! is set to `0x00`, to `0xFF` and to a seeded value in turn, and so are
//! the length prefixes of seeded cells. After each damage a heap scan,
//! an index range fetch, an INSERT and crash + recovery each return `Ok`
//! or `DbError::Storage`: none panics, in debug or release.
//!
//! The page layout is read here from its bytes (`n_slots` at 8, the slot
//! directory at 88, a `u16` length before each cell), as an attacker
//! holding the file would.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use minidb::engine::{Db, DbConfig};
use minidb::storage::PAGE_SIZE;
use minidb::DbError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HEAP: &str = "table_t.ibd";
const NSLOTS: usize = 8;
const FREE_END: usize = 10;
const HDR_SIZE: usize = 88;
/// Rows of about 1 KiB: 15 to a page, so a case costs little.
const NAME_LEN: usize = 1_000;

fn u16_at(page: &[u8], at: usize) -> usize {
    u16::from_le_bytes([page[at], page[at + 1]]) as usize
}

fn set_u16(page: &mut [u8], at: usize, v: u16) {
    page[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// An engine over a flushed table `t` of exactly four heap pages, the
/// last with room left, and the disk's files as they were flushed.
struct Fixture {
    db: Db,
    disk: BTreeMap<String, Vec<u8>>,
}

impl Fixture {
    fn new() -> Fixture {
        // One frame: after recovery it holds an index page, so every
        // heap page a statement reads comes from disk. Logs of 256 KiB,
        // not 50 MB, keep a case at a few milliseconds.
        let db = Db::open(DbConfig {
            buffer_pool_pages: 1,
            bufpool_shards: 1,
            redo_capacity: 1 << 18,
            undo_capacity: 1 << 18,
            ..DbConfig::default()
        });
        let conn = db.connect("setup");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT, v INT)")
            .unwrap();
        let pages = || db.read_server_file(HEAP).unwrap().len() / PAGE_SIZE;
        let insert = |id: usize| {
            let name = format!("{id:0width$}", width = NAME_LEN);
            conn.execute(&format!(
                "INSERT INTO t VALUES ({id}, '{name}', {})",
                id % 7
            ))
            .unwrap();
        };
        let mut id = 0;
        while pages() < 4 {
            insert(id);
            id += 1;
        }
        (id..id + 4).for_each(insert);
        assert_eq!(pages(), 4);
        db.shutdown();
        let disk = db.disk_image().files;
        Fixture { db, disk }
    }

    /// Page `page_no` of the heap as flushed.
    fn page(&self, page_no: usize) -> Vec<u8> {
        self.disk[HEAP][page_no * PAGE_SIZE..][..PAGE_SIZE].to_vec()
    }

    /// Restores the flushed disk and recovers on it, then writes `page`
    /// over heap page `page_no` on disk.
    fn damage(&self, page_no: usize, page: &[u8]) {
        self.db.crash();
        for (name, bytes) in &self.disk {
            self.db.write_server_file(name, bytes);
        }
        self.db.recover().unwrap();
        let mut heap = self.db.read_server_file(HEAP).unwrap();
        heap[page_no * PAGE_SIZE..][..PAGE_SIZE].copy_from_slice(page);
        self.db.write_server_file(HEAP, &heap);
    }
}

/// The outcomes of the four probes: a heap scan, an index range fetch
/// over the ids on page `page_no`, an INSERT and crash + recovery.
/// Panics, naming `case`, if any is neither `Ok` nor a storage error.
fn probe(fx: &Fixture, case: &str, page_no: usize, ids: (i64, i64)) -> [bool; 4] {
    let conn = fx.db.connect("app");
    let name = "x".repeat(NAME_LEN);
    let statements = [
        "SELECT id, v FROM t WHERE v >= 0".to_string(),
        format!("SELECT * FROM t WHERE id >= {} AND id <= {}", ids.0, ids.1),
        format!("INSERT INTO t VALUES (1000000, '{name}', 1)"),
    ];
    let mut ok = [false; 4];
    for (i, sql) in statements.iter().enumerate() {
        let got = catch_unwind(AssertUnwindSafe(|| conn.execute(sql).map(drop)));
        ok[i] = outcome(case, page_no, &sql[..sql.len().min(60)], got);
    }
    let got = catch_unwind(AssertUnwindSafe(|| {
        fx.db.crash();
        fx.db.recover()
    }));
    ok[3] = outcome(case, page_no, "crash + recover", got);
    ok
}

fn outcome(
    case: &str,
    page_no: usize,
    what: &str,
    got: std::thread::Result<Result<(), DbError>>,
) -> bool {
    match got {
        Ok(Ok(())) => true,
        Ok(Err(DbError::Storage(_))) => false,
        Ok(Err(e)) => panic!("page {page_no}, {case}: {what}: {e:?}"),
        Err(_) => panic!("page {page_no}, {case}: {what} panicked"),
    }
}

/// The smallest and largest row id on a flushed page.
fn ids_on(page: &[u8]) -> (i64, i64) {
    let ids = (0..u16_at(page, NSLOTS)).map(|s| {
        let off = u16_at(page, HDR_SIZE + 2 * s);
        // The `id` column: after the length, the row header and a tag.
        let at = off + 2 + 10 + 1;
        i64::from_le_bytes(page[at..at + 8].try_into().unwrap())
    });
    let ids: Vec<i64> = ids.collect();
    (*ids.iter().min().unwrap(), *ids.iter().max().unwrap())
}

/// Damages page `page_no` with `edit` and returns the probes' outcomes.
fn probe_edited(page_no: usize, case: &str, edit: impl FnOnce(&mut [u8])) -> [bool; 4] {
    let fx = Fixture::new();
    let mut page = fx.page(page_no);
    edit(&mut page);
    fx.damage(page_no, &page);
    probe(&fx, case, page_no, ids_on(&fx.page(page_no)))
}

#[test]
fn a_slot_count_past_the_page_fails_closed() {
    let ok = probe_edited(0, "n_slots = 0xFFFF", |p| set_u16(p, NSLOTS, 0xFFFF));
    // The INSERT lands on page 3.
    assert_eq!(ok, [false, false, true, false]);
}

#[test]
fn a_slot_offset_past_the_page_fails_closed() {
    let ok = probe_edited(0, "slot 0 at 0xFFF0", |p| set_u16(p, HDR_SIZE, 0xFFF0));
    assert_eq!(ok, [false, false, true, false]);
}

#[test]
fn an_insert_below_free_end_zero_fails_closed() {
    let ok = probe_edited(3, "free_end = 0", |p| set_u16(p, FREE_END, 0));
    assert_eq!(ok, [false; 4]);
}

#[test]
fn every_header_byte_and_seeded_cell_length_fails_closed() {
    let fx = Fixture::new();
    let mut rng = StdRng::seed_from_u64(0x9a6e);
    // Per probe: cases it read as `Ok`, and as a storage error.
    let mut seen = [[0; 2]; 4];
    let mut count = |ok: [bool; 4]| {
        for (n, ok) in seen.iter_mut().zip(ok) {
            n[usize::from(!ok)] += 1;
        }
    };
    for page_no in [0, 3] {
        let flushed = fx.page(page_no);
        let ids = ids_on(&flushed);
        let n_slots = u16_at(&flushed, NSLOTS);
        for at in 0..HDR_SIZE + 2 * n_slots {
            for v in [0x00, 0xFF, rng.gen::<u8>()] {
                if flushed[at] == v {
                    continue;
                }
                let mut page = flushed.clone();
                page[at] = v;
                fx.damage(page_no, &page);
                count(probe(&fx, &format!("byte {at} = {v:#04x}"), page_no, ids));
            }
        }
        for _ in 0..4 {
            let slot = rng.gen_range(0..n_slots);
            let off = u16_at(&flushed, HDR_SIZE + 2 * slot);
            let len = u16_at(&flushed, off) as u16;
            for v in [0, 0xFFFF, rng.gen(), len - 1, len + 1] {
                let mut page = flushed.clone();
                set_u16(&mut page, off, v);
                fx.damage(page_no, &page);
                count(probe(
                    &fx,
                    &format!("slot {slot}'s length = {v}"),
                    page_no,
                    ids,
                ));
            }
        }
    }
    // Every probe read damaged pages both ways: the damage reached it.
    assert!(seen.iter().all(|n| n[0] > 0 && n[1] > 0), "{seen:?}");
}

/// Recovery rebuilds each index from heap rows by the ordinal the
/// catalog names: an ordinal past the table, or a well-formed row
/// narrower than its schema, is a storage error.
#[test]
fn recovery_refuses_an_index_column_it_cannot_read() {
    let fx = Fixture::new();
    let mut doctored = fx.disk["catalog"].clone();
    // The catalog ends with the last index's column ordinal.
    let at = doctored.len() - 2;
    set_u16(&mut doctored, at, 3);
    fx.db.crash();
    fx.db.write_server_file("catalog", &doctored);
    let got = catch_unwind(AssertUnwindSafe(|| fx.db.recover()));
    assert!(matches!(got, Ok(Err(DbError::Storage(_)))), "{got:?}");

    // Slot 0 of page 0 rewritten as the same row id with no columns.
    let mut page = fx.page(0);
    let off = u16_at(&page, HDR_SIZE);
    set_u16(&mut page, off, 10);
    set_u16(&mut page, off + 2 + 8, 0);
    fx.damage(0, &page);
    fx.db.crash();
    let got = catch_unwind(AssertUnwindSafe(|| fx.db.recover()));
    assert!(matches!(got, Ok(Err(DbError::Storage(_)))), "{got:?}");
}
