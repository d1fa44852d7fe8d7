//! The carvers fail closed. A heap page, an index leaf, an internal
//! node and a small `undo_versions.ibd` are flushed by the engine; then
//! every byte of the page's synopsis area, of each node (its length
//! prefix too) and of the version file is XORed in turn with `0xFF`,
//! `0x01`, `0x80` and a seeded nonzero mask. After each flip the carvers
//! that read those formats through minidb's readers run on the result:
//! `zonemap::carve_page`, `bufpool::carve_index_file`,
//! `versions::carve_bytes` and `mvcc::max_csn`. None may panic, and no
//! carved synopsis may have `min > max` or more than `SYN_MAX_COLS`
//! columns.
//!
//! The byte ranges are found from the page bytes (the synopsis area at
//! 12..88, a node's `u16` length at 12), as an attacker holding the
//! file would.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use minidb::engine::{Db, DbConfig};
use minidb::mvcc::{max_csn, VERSIONS_FILE};
use minidb::storage::{PAGE_SIZE, SYN_MAX_COLS};
use minidb::vdisk::VDisk;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::forensics::{bufpool, versions, zonemap};

const HEAP: &str = "table_t.ibd";
const INDEX: &str = "index_t_id.ibd";
const SYNOPSIS: Range<usize> = 12..88;
const NODE_LEN: usize = 12;

/// The files of a flushed table `t` of 40 rows (so its primary-key
/// tree has an internal root over two leaves), after four UPDATEs and
/// a DELETE.
fn flushed() -> BTreeMap<String, Vec<u8>> {
    let db = Db::open(DbConfig {
        redo_capacity: 1 << 18,
        undo_capacity: 1 << 18,
        ..DbConfig::default()
    });
    let conn = db.connect("app");
    conn.execute("CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, note TEXT)")
        .unwrap();
    let rows: Vec<String> = (0..40)
        .map(|i| format!("({i}, {}, {}, 'n{i}')", i * 7 - 50, 1000 - i))
        .collect();
    conn.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    for i in 0..4 {
        conn.execute(&format!("UPDATE t SET a = {} WHERE id = {i}", 500 + i))
            .unwrap();
    }
    conn.execute("DELETE FROM t WHERE id = 39").unwrap();
    db.shutdown();
    db.disk_image().files
}

/// The masks byte `at` is XORed with.
fn masks(rng: &mut StdRng) -> [u8; 4] {
    [0xFF, 0x01, 0x80, rng.gen_range(1..=255)]
}

/// Runs `carve` after flipping each byte of `range` in `bytes` with each
/// mask, restoring the byte after each run; a panic names the byte.
fn flip_each(
    bytes: &mut [u8],
    range: Range<usize>,
    rng: &mut StdRng,
    mut carve: impl FnMut(&[u8]),
) {
    for at in range {
        for mask in masks(rng) {
            bytes[at] ^= mask;
            let run = catch_unwind(AssertUnwindSafe(|| carve(bytes)));
            bytes[at] ^= mask;
            assert!(run.is_ok(), "byte {at} ^ {mask:#04x} panicked");
        }
    }
}

fn check_synopsis(page: &[u8]) {
    if let Some(syn) = zonemap::carve_page(page) {
        assert!(syn.cols().len() <= SYN_MAX_COLS, "{syn:?}");
        assert!(syn.cols().iter().all(|c| c.min <= c.max), "{syn:?}");
    }
}

#[test]
fn every_byte_flip_of_a_synopsis_carves_sound_bounds_or_nothing() {
    let files = flushed();
    let mut page = files[HEAP][..PAGE_SIZE].to_vec();
    let syn = zonemap::carve_page(&page).expect("a valid synopsis");
    assert!(syn.rows > 0 && syn.cols().len() >= 2, "{syn:?}");
    let mut rng = StdRng::seed_from_u64(44);
    flip_each(&mut page, SYNOPSIS, &mut rng, check_synopsis);
}

#[test]
fn every_byte_flip_of_an_index_node_carves_without_panicking() {
    let files = flushed();
    let mut file = files[INDEX].clone();
    let nodes = bufpool::carve_index_file(&file);
    let leaf = nodes.iter().find(|n| n.is_leaf).expect("a leaf").page_no;
    let internal = nodes
        .iter()
        .find(|n| !n.is_leaf)
        .expect("an internal node")
        .page_no;
    let mut rng = StdRng::seed_from_u64(45);
    for page_no in [leaf, internal] {
        let start = page_no as usize * PAGE_SIZE;
        let len = u16::from_le_bytes([file[start + NODE_LEN], file[start + NODE_LEN + 1]]);
        let node = start + NODE_LEN..start + NODE_LEN + 2 + len as usize;
        flip_each(&mut file, node, &mut rng, |file| {
            let carved = bufpool::carve_index_file(file);
            assert!(carved.len() <= nodes.len(), "{} nodes", carved.len());
        });
    }
}

#[test]
fn every_byte_flip_of_a_version_file_carves_without_panicking() {
    let files = flushed();
    let mut file = files[VERSIONS_FILE].clone();
    let clean = versions::carve_bytes(&file);
    assert_eq!(clean.len(), 5, "four UPDATEs and a DELETE");
    let mut vdisk = VDisk::new();
    vdisk.write(VERSIONS_FILE, file.clone());
    assert!(max_csn(&vdisk) > 0);
    let mut rng = StdRng::seed_from_u64(46);
    let whole = 0..file.len();
    flip_each(&mut file, whole, &mut rng, |file| {
        let carved = versions::carve_bytes(file);
        assert!(carved.len() <= clean.len(), "{} records", carved.len());
        vdisk.write(VERSIONS_FILE, file.to_vec());
        max_csn(&vdisk);
    });
}
