//! The B+ tree's shape is a contract twice over: the leaf count per key
//! range is what the buffer-pool dump and the page-access counters leak
//! (paper §3), and the node bytes are what `core::forensics::bufpool`
//! carves without this crate's decoder. This file pins both — how many
//! keys land on a page for each insert order, the invariants every
//! order must leave, the bytes of a leaf and an internal node — and
//! shows that a doctored index page is an error, not a panic or a spin.

use std::collections::BTreeMap;
use std::ops::Bound;

use minidb::error::DbError;
use minidb::storage::{BTree, ShardedBufferPool, TreeStats, PAGE_SIZE};
use minidb::value::Value;
use minidb::vdisk::VDisk;

mod common;
use common::Rng;

const FILE: &str = "idx.ibd";

struct Fixture {
    pool: ShardedBufferPool,
    disk: VDisk,
    tree: BTree,
}

impl Fixture {
    fn new() -> Fixture {
        let pool = ShardedBufferPool::new(256, 4);
        let mut disk = VDisk::new();
        let tree = BTree::create(&pool, &mut disk, FILE).unwrap();
        Fixture { pool, disk, tree }
    }

    fn insert(&mut self, key: i64) {
        self.tree
            .insert(&self.pool, &mut self.disk, &Value::Int(key), key as u64)
            .unwrap();
    }

    /// Inserts `keys` in the order given and checks what they left.
    fn filled(keys: impl IntoIterator<Item = i64>) -> (Fixture, TreeStats) {
        let mut f = Fixture::new();
        let mut n = 0;
        for key in keys {
            f.insert(key);
            n += 1;
        }
        let stats = f.check();
        assert_eq!(stats.entries, n);
        (f, stats)
    }

    fn check(&mut self) -> TreeStats {
        self.tree.check(&self.pool, &mut self.disk).unwrap()
    }

    fn range(&mut self, lo: i64, hi: i64) -> Result<Vec<u64>, DbError> {
        self.tree
            .search_range(
                &self.pool,
                &mut self.disk,
                Bound::Included(Value::Int(lo)),
                Bound::Included(Value::Int(hi)),
            )
            .map(|r| r.row_ids)
    }

    /// The tree as a cold start sees it: everything on disk, nothing in
    /// the pool.
    fn flushed(mut self) -> Fixture {
        self.pool.flush_all(&mut self.disk);
        self.pool = ShardedBufferPool::new(256, 4);
        self
    }

    /// The node bytes of `page_no`, as the carver slices them.
    fn node_bytes(&self, page_no: u32) -> &[u8] {
        let page = &self.disk.read(FILE).unwrap()[page_no as usize * PAGE_SIZE..][..PAGE_SIZE];
        let len = u16::from_le_bytes([page[12], page[13]]) as usize;
        &page[14..14 + len]
    }

    /// Overwrites the node of `page_no` on disk.
    fn doctor(&mut self, page_no: u32, node: &[u8]) {
        let mut bytes = (node.len() as u16).to_le_bytes().to_vec();
        bytes.extend_from_slice(node);
        self.disk
            .write_at(FILE, page_no as usize * PAGE_SIZE + 12, &bytes);
    }
}

fn per_leaf(stats: TreeStats) -> f64 {
    stats.entries as f64 / stats.leaf_pages as f64
}

fn per_page(stats: TreeStats) -> f64 {
    stats.entries as f64 / (stats.leaf_pages + stats.internal_pages) as f64
}

const KEYS: i64 = 100_000;

#[test]
fn ascending_keys_fill_their_leaves() {
    let (f, stats) = Fixture::filled(0..KEYS);
    // Every leaf but the last is full, and so is every internal node's
    // left sibling: 3,125 leaves under 98 + 4 + 1 internal pages, where
    // the 50/50 split left 6,249 under 391.
    assert_eq!(stats.leaf_pages, 3_125, "{stats:?}");
    assert_eq!(stats.internal_pages, 103, "{stats:?}");
    assert_eq!(stats.depth, 4);
    assert!(per_leaf(stats) >= 31.0);
    // Nothing is allocated that the root does not reach.
    let pages = ShardedBufferPool::page_count(&f.disk, FILE) as usize;
    assert_eq!(pages, stats.leaf_pages + stats.internal_pages);
}

#[test]
fn descending_keys_split_in_half_as_before() {
    // Every key lands at the front of the leftmost leaf: never an
    // append, so exactly the parent commit's tree.
    let (_, stats) = Fixture::filled((0..KEYS).rev());
    assert_eq!(
        (stats.leaf_pages, stats.internal_pages),
        (5_882, 367),
        "{stats:?}"
    );
    assert!((per_page(stats) - 16.0).abs() < 0.01, "{stats:?}");
}

#[test]
fn random_order_keeps_its_fill() {
    // One overflow in 33 is an append; the rest split 50/50 as before.
    // The parent commit measured 21.3 keys per index page here.
    let mut rng = Rng(0x5EED_0016);
    let mut keys: Vec<i64> = (0..KEYS).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let (_, stats) = Fixture::filled(keys);
    assert!(per_page(stats) >= 20.0, "{stats:?}");
    assert!(per_page(stats) >= 21.3 * 0.95, "{stats:?}");
}

#[test]
fn two_interleaved_cursors_are_the_order_the_rule_does_not_help() {
    // Evens ascending, odds ascending 500 keys behind. The leading
    // cursor appends, so its leaves are full when the lagging one
    // arrives and every one of them splits in half; at the parent the
    // leading cursor left half-full leaves that the lagging one topped
    // up (30.1 keys per page against 20.3 here).
    let lead = (0..KEYS / 2).map(|i| i * 2);
    let keys = lead.flat_map(|even| {
        let odd = even - 1_000 + 1;
        std::iter::once(even).chain((odd > 0).then_some(odd))
    });
    let tail = (KEYS / 2 - 500..KEYS / 2).map(|i| i * 2 + 1);
    let (_, stats) = Fixture::filled(keys.chain(tail));
    assert!(
        (19.0..22.0).contains(&per_page(stats)),
        "{} {stats:?}",
        per_page(stats)
    );
}

#[test]
fn a_descending_run_behind_a_full_leaf_does_not_get_a_leaf_per_key() {
    // 0..64 ascending leaves two full leaves; 1_000 starts a third.
    // Keys descending from 999 all sort after the full leaf's last key:
    // were the append split's separator the newcomer, each would be
    // sent back to the full leaf, appended, and split off alone.
    let run = (500..1_000).rev();
    let (_, stats) = Fixture::filled((0..64).chain([1_000]).chain(run));
    assert!(per_leaf(stats) >= 16.0, "{stats:?}");
}

#[test]
fn mixed_inserts_and_deletes_with_duplicates_match_a_model() {
    // 12k operations over 3k distinct keys: ascending bursts, descending
    // bursts, uniform noise, duplicates, and deletes of present and
    // absent entries. More than 33 leaves, so internal nodes split —
    // which the 120-operation proptest never reaches.
    let mut f = Fixture::new();
    let mut model: BTreeMap<i64, Vec<u64>> = BTreeMap::new();
    let mut rng = Rng(0x5EED_B7EE);
    let mut next_rid = 0u64;
    let mut inserts = 0;
    for burst in 0..240 {
        let base = rng.below(3_000) as i64;
        for i in 0..50i64 {
            let key = match burst % 4 {
                0 => base + i,
                1 => base - i,
                2 => rng.below(3_000) as i64,
                _ => base,
            };
            if rng.below(4) == 0 {
                let rid = model
                    .get(&key)
                    .and_then(|rids| rids.first().copied())
                    .unwrap_or(u64::MAX);
                let removed = f
                    .tree
                    .delete(&f.pool, &mut f.disk, &Value::Int(key), rid)
                    .unwrap();
                let expected = model.get_mut(&key).is_some_and(|rids| {
                    let at = rids.iter().position(|r| *r == rid);
                    at.map(|at| rids.remove(at)).is_some()
                });
                assert_eq!(removed, expected, "delete ({key}, {rid})");
            } else {
                f.tree
                    .insert(&f.pool, &mut f.disk, &Value::Int(key), next_rid)
                    .unwrap();
                model.entry(key).or_default().push(next_rid);
                next_rid += 1;
                inserts += 1;
            }
        }
        if burst % 40 == 39 {
            f.check();
        }
    }
    assert!(inserts >= 5_000, "{inserts}");
    let stats = f.check();
    assert!(stats.depth >= 3 && stats.internal_pages > 2, "{stats:?}");
    assert_eq!(
        stats.entries,
        model.values().map(Vec::len).sum::<usize>(),
        "{stats:?}"
    );
    assert_eq!(f.tree.root, 0, "the catalog stores the root page once");

    let sorted = |mut rids: Vec<u64>| {
        rids.sort_unstable();
        rids
    };
    let everything = f.range(i64::MIN, i64::MAX).unwrap();
    assert_eq!(
        sorted(everything),
        sorted(model.values().flatten().copied().collect())
    );
    for _ in 0..300 {
        let lo = rng.below(3_100) as i64 - 50;
        let hi = lo + rng.below(80) as i64;
        let want = model.range(lo..=hi).flat_map(|(_, r)| r.iter().copied());
        assert_eq!(
            sorted(f.range(lo, hi).unwrap()),
            sorted(want.collect()),
            "[{lo}, {hi}]"
        );
    }
}

/// `(key, row id)` pairs as a leaf stores them.
fn leaf_bytes(next: u32, entries: &[(i64, u64)]) -> Vec<u8> {
    let mut out = vec![2];
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    out.extend_from_slice(&next.to_le_bytes());
    for (key, rid) in entries {
        out.push(1);
        out.extend_from_slice(&key.to_le_bytes());
        out.extend_from_slice(&rid.to_le_bytes());
    }
    out
}

#[test]
fn node_bytes_are_the_carvers_contract() {
    // 33 ascending keys: the root (page 0) becomes an internal node over
    // the copied-out left leaf (page 2) and the new right leaf (page 1).
    let (f, _) = Fixture::filled((0..33).map(|i| i * 3));
    let f = f.flushed();
    #[rustfmt::skip]
    let internal: &[u8] = &[
        1,                          // tag: internal
        1, 0,                       // one separator
        2, 0, 0, 0,                 // children: page 2,
        1, 0, 0, 0,                 //           page 1
        1, 93, 0, 0, 0, 0, 0, 0, 0, // separator: INT 93, the left leaf's last key
    ];
    assert_eq!(f.node_bytes(0), internal);
    #[rustfmt::skip]
    let right_leaf: &[u8] = &[
        2,                          // tag: leaf
        1, 0,                       // one entry
        0xFF, 0xFF, 0xFF, 0xFF,     // no next leaf
        1, 96, 0, 0, 0, 0, 0, 0, 0, // key: INT 96
        96, 0, 0, 0, 0, 0, 0, 0,    // row id
    ];
    assert_eq!(f.node_bytes(1), right_leaf);
    let left: Vec<(i64, u64)> = (0..32).map(|i| (i * 3, i as u64 * 3)).collect();
    assert_eq!(f.node_bytes(2), leaf_bytes(1, &left));
}

fn storage_error<T: std::fmt::Debug>(r: Result<T, DbError>) -> String {
    match r {
        Err(DbError::Storage(msg)) => msg,
        other => panic!("expected a storage error, got {other:?}"),
    }
}

#[test]
fn a_node_length_past_the_page_is_an_error() {
    let (f, _) = Fixture::filled(0..100);
    let mut f = f.flushed();
    f.disk
        .write_at(FILE, 12, &(PAGE_SIZE as u16 + 1_000).to_le_bytes());
    storage_error(f.range(0, 10));
    storage_error(f.tree.insert(&f.pool, &mut f.disk, &Value::Int(5), 5));
    storage_error(f.tree.delete(&f.pool, &mut f.disk, &Value::Int(5), 5));
    storage_error(f.tree.check(&f.pool, &mut f.disk));
}

#[test]
fn a_node_count_no_split_leaves_is_an_error() {
    let (f, _) = Fixture::filled(0..100);
    let mut f = f.flushed();
    let mut node = f.node_bytes(0).to_vec();
    node[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
    f.doctor(0, &node);
    let msg = storage_error(f.range(0, 10));
    assert!(msg.contains("65535 entries"), "{msg}");
}

#[test]
fn a_leaf_chain_that_loops_is_an_error() {
    // 100 ascending keys: leaves 2 → 1 → 3 → 4 under the root. Point
    // the last one back at the first.
    let (f, _) = Fixture::filled(0..100);
    let mut f = f.flushed();
    let last = leaf_bytes(2, &[(96, 96), (97, 97), (98, 98), (99, 99)]);
    assert_eq!(
        f.node_bytes(4),
        leaf_bytes(u32::MAX, &[(96, 96), (97, 97), (98, 98), (99, 99)])
    );
    f.doctor(4, &last);
    // A bounded range stops at its upper bound before the loop ...
    assert_eq!(f.range(10, 20).unwrap(), (10..=20).collect::<Vec<u64>>());
    // ... an open one, and a delete of an entry that is not there, used
    // to walk it forever.
    let msg = storage_error(f.range(50, i64::MAX));
    assert!(msg.contains("leaf chain"), "{msg}");
    // All of a looping chain's keys sort before this one.
    let mut g = Fixture::filled(0..100).0.flushed();
    let low: Vec<(i64, u64)> = (96..100).map(|k| (k - 1_000, k as u64)).collect();
    g.doctor(4, &leaf_bytes(2, &low));
    let gone = g.tree.delete(&g.pool, &mut g.disk, &Value::Int(200), 0);
    assert!(storage_error(gone).contains("leaf chain"));
    storage_error(f.tree.check(&f.pool, &mut f.disk));
}

#[test]
fn a_child_pointer_that_loops_is_an_error() {
    let (f, _) = Fixture::filled(0..100);
    let mut f = f.flushed();
    // The root's first child becomes the root itself.
    let mut node = f.node_bytes(0).to_vec();
    node[3..7].copy_from_slice(&0u32.to_le_bytes());
    f.doctor(0, &node);
    assert!(storage_error(f.range(0, 10)).contains("deeper"));
    let grown = f.tree.insert(&f.pool, &mut f.disk, &Value::Int(-1), 0);
    assert!(storage_error(grown).contains("deeper"));
    storage_error(f.tree.check(&f.pool, &mut f.disk));
}

#[test]
fn the_checker_sees_what_a_lookup_would_miss() {
    // Keys out of order inside one leaf.
    let mut f = Fixture::filled(0..100).0.flushed();
    f.doctor(4, &leaf_bytes(u32::MAX, &[(97, 97), (96, 96)]));
    assert!(storage_error(f.tree.check(&f.pool, &mut f.disk)).contains("out of order"));
    // A key on the wrong side of its separator.
    let mut f = Fixture::filled(0..100).0.flushed();
    f.doctor(4, &leaf_bytes(u32::MAX, &[(5, 5), (99, 99)]));
    assert!(storage_error(f.tree.check(&f.pool, &mut f.disk)).contains("separators"));
    // A chain that skips a leaf.
    let mut f = Fixture::filled(0..100).0.flushed();
    let first: Vec<(i64, u64)> = (0..32).map(|k| (k, k as u64)).collect();
    assert_eq!(f.node_bytes(2), leaf_bytes(1, &first));
    f.doctor(2, &leaf_bytes(3, &first));
    assert!(storage_error(f.tree.check(&f.pool, &mut f.disk)).contains("chain"));
}

/// TEXT key `i`, so a key has a length prefix to damage.
fn text(i: &str) -> Value {
    Value::Text(format!("key-{i}"))
}

/// The outcomes of four probes on `clean` with `bytes` written over the
/// index file at `at`, each on its own copy through a cold pool: a full
/// range scan, an insert of `key` and a delete of `(gone, row id)`,
/// both landing in the damaged node's subtree, and the checker. Panics,
/// naming `case`, if any is neither `Ok` nor a storage error.
fn probe_damaged(
    tree: &BTree,
    clean: &VDisk,
    (at, bytes): (usize, &[u8]),
    (key, gone): (&str, u64),
    case: &str,
) -> [bool; 4] {
    let mut ok = [false; 4];
    for (i, ok) in ok.iter_mut().enumerate() {
        let mut disk = clean.clone();
        disk.write_at(FILE, at, bytes);
        let pool = ShardedBufferPool::new(256, 4);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match i {
            0 => tree
                .search_range(&pool, &mut disk, Bound::Unbounded, Bound::Unbounded)
                .map(drop),
            1 => tree.insert(&pool, &mut disk, &text(key), 1_000),
            2 => tree
                .delete(&pool, &mut disk, &text(&format!("{gone:03}")), gone)
                .map(drop),
            _ => tree.check(&pool, &mut disk).map(drop),
        }));
        *ok = match got {
            Ok(Ok(())) => true,
            Ok(Err(DbError::Storage(_))) => false,
            Ok(Err(e)) => panic!("{case}: probe {i}: {e:?}"),
            Err(_) => panic!("{case}: probe {i} panicked"),
        };
    }
    ok
}

/// Index pages fail closed, as heap pages do (`heap_fail_closed.rs`).
/// On a flushed tree of 100 TEXT keys — the root, internal, over four
/// leaves — every byte of the root's and of the last leaf's length and
/// header is set to `0x00`, to `0xFF` and to a seeded value in turn,
/// and seeded keys get a bad tag or a bad length. After each damage a
/// range scan, an insert, a delete and the checker each return `Ok` or
/// `DbError::Storage`: none panics, in debug or release.
#[test]
fn every_header_byte_and_seeded_key_fails_closed() {
    let mut f = Fixture::new();
    for i in 0..100 {
        let key = text(&format!("{i:03}"));
        f.tree.insert(&f.pool, &mut f.disk, &key, i).unwrap();
    }
    let f = f.flushed();
    let mut rng = Rng(0x1DE5_FA11);
    // Per probe: cases it read as `Ok`, and as a storage error.
    let mut seen = [[0; 2]; 4];
    // The root's insert splits the full first leaf, so the root takes
    // a separator in place; the last leaf has room for its insert.
    for (page, shape, key, gone) in [(0, (1, 3), "010a", 10), (4, (2, 4), "097a", 97)] {
        let node = f.node_bytes(page).to_vec();
        let n = u16::from_le_bytes([node[1], node[2]]) as usize;
        assert_eq!((node[0], n), shape, "page {page}: (tag, entries)");
        // Past the tag and the count: the children or the next leaf.
        let (body, width) = match node[0] {
            1 => (3 + 4 * (n + 1), 12),
            _ => (7, 12 + 8),
        };
        let at = page as usize * PAGE_SIZE + 12;
        let mut cases: Vec<(String, usize, Vec<u8>)> = Vec::new();
        let old = &f.disk.read(FILE).unwrap()[at..at + 2 + body];
        for (i, &was) in old.iter().enumerate() {
            for v in [0x00, 0xFF, rng.next() as u8] {
                if v != was {
                    cases.push((format!("byte {i} = {v:#04x}"), at + i, vec![v]));
                }
            }
        }
        for _ in 0..4 {
            let i = rng.index(n);
            let key_at = at + 2 + body + width * i;
            for tag in [0, 1, 3, 4, 0xFF] {
                cases.push((format!("key {i}'s tag = {tag}"), key_at, vec![tag]));
            }
            for len in [0, 6, 8, u32::MAX, rng.next() as u32] {
                let bytes = len.to_le_bytes().to_vec();
                cases.push((format!("key {i}'s length = {len}"), key_at + 1, bytes));
            }
        }
        for (case, at, bytes) in cases {
            let case = format!("page {page}, {case}");
            let ok = probe_damaged(&f.tree, &f.disk, (at, &bytes), (key, gone), &case);
            for (n, ok) in seen.iter_mut().zip(ok) {
                n[usize::from(!ok)] += 1;
            }
        }
    }
    // Every probe read damaged nodes both ways: the damage reached it.
    assert!(seen.iter().all(|n| n[0] > 0 && n[1] > 0), "{seen:?}");
}
