//! A page-based B+ tree index.
//!
//! One node per page, serialized after the page-LSN header. Leaves are
//! chained for range scans. Every traversal goes through the buffer pool,
//! so index reads leave exactly the traces the paper cares about: LRU
//! recency (dumped to `ib_buffer_pool`) and per-page access counters
//! (feeding the adaptive hash index).
//!
//! Duplicate keys are supported; equality and range searches descend
//! left-on-equality and walk the leaf chain.
//!
//! A node that overflows by an append — the newcomer is its last entry —
//! splits where the newcomer landed, so keys arriving in order leave
//! full leaves; every other overflow splits in half. DESIGN.md, *B+
//! tree density*, has what that does for each insert order.

use std::ops::Bound;

use mdb_trace::codec::Reader;

use crate::error::{DbError, DbResult};
use crate::row::RowId;
use crate::storage::page::PAGE_SIZE;
use crate::storage::shardpool::ShardedBufferPool;
use crate::value::Value;
use crate::vdisk::VDisk;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 32;

/// Maximum encoded key size accepted into an index (in the spirit of
/// MySQL's 767-byte index prefix limit; sized so a full node of maximal
/// keys still fits in one page).
pub const MAX_KEY_BYTES: usize = 400;

/// Offset of node data within a page (past the page-LSN header).
const NODE_OFF: usize = 12;

const SENTINEL: u32 = u32::MAX;

/// Nodes on any root-to-leaf path, at most: every internal node has at
/// least two children, so a deeper tree would need more pages than a
/// `u32` numbers. A descent that runs longer is following a cycle
/// someone wrote into the file.
const MAX_DEPTH: usize = 32;

fn too_deep() -> DbError {
    DbError::Storage(format!("btree descent deeper than {MAX_DEPTH} nodes"))
}

fn chain_loops() -> DbError {
    DbError::Storage("btree leaf chain longer than its file".into())
}

/// Result of an index search: the matching row ids plus the pages the
/// traversal touched, in visit order (the access-path leakage).
#[derive(Clone, Debug, Default)]
pub struct SearchResult {
    /// Matching row ids in key order.
    pub row_ids: Vec<RowId>,
    /// Pages visited root→leaf (then across the leaf chain).
    pub pages: Vec<u32>,
}

#[derive(Clone, Debug, PartialEq)]
enum Node {
    Internal {
        keys: Vec<Value>,
        children: Vec<u32>,
    },
    Leaf {
        entries: Vec<(Value, RowId)>,
        next: Option<u32>,
    },
}

impl Node {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Node::Internal { keys, children } => {
                out.push(1);
                out.extend_from_slice(&(keys.len() as u16).to_le_bytes());
                for c in children {
                    out.extend_from_slice(&c.to_le_bytes());
                }
                for k in keys {
                    k.encode(&mut out);
                }
            }
            Node::Leaf { entries, next } => {
                out.push(2);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                out.extend_from_slice(&next.unwrap_or(SENTINEL).to_le_bytes());
                for (k, rid) in entries {
                    k.encode(&mut out);
                    out.extend_from_slice(&rid.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses a node. The bytes come off a page an attacker with the
    /// disk may have rewritten, so every field is bounds-checked and a
    /// count no split can leave behind is refused before it sizes an
    /// allocation. Fixed-width fields go through the codec's cursor;
    /// [`Value`] owns the key encoding and reads at a byte offset, so the
    /// keys are parsed at `pos` and a row id behind one gets a cursor of
    /// its own.
    fn decode(buf: &[u8]) -> DbResult<Node> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let n = r.u16()? as usize;
        if n > MAX_ENTRIES {
            return Err(DbError::Storage(format!(
                "btree node claims {n} entries (max {MAX_ENTRIES})"
            )));
        }
        match tag {
            1 => {
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    children.push(r.u32()?);
                }
                let mut pos = r.pos();
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(Value::decode(buf, &mut pos)?);
                }
                Ok(Node::Internal { keys, children })
            }
            2 => {
                let next_raw = r.u32()?;
                let next = (next_raw != SENTINEL).then_some(next_raw);
                let mut pos = r.pos();
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let key = Value::decode(buf, &mut pos)?;
                    let row_id = Reader::new(buf.get(pos..).unwrap_or_default()).u64()?;
                    pos += 8;
                    entries.push((key, row_id));
                }
                Ok(Node::Leaf { entries, next })
            }
            t => Err(DbError::Storage(format!("unknown btree node tag {t}"))),
        }
    }
}

/// What [`BTree::check`] counted on its way through a sound tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Nodes on every root-to-leaf path.
    pub depth: usize,
    /// Internal pages reachable from the root.
    pub internal_pages: usize,
    /// Leaf pages reachable from the root.
    pub leaf_pages: usize,
    /// `(key, row id)` entries in the leaves.
    pub entries: usize,
}

/// A B+ tree rooted at a fixed page of an index file. The root page number
/// never changes (root splits copy the old root out), so the catalog can
/// store it once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BTree {
    /// Index file name on the virtual disk.
    pub file: String,
    /// Root page number.
    pub root: u32,
}

impl BTree {
    /// Creates an empty tree in `file`, allocating the root page.
    pub fn create(bufpool: &ShardedBufferPool, vdisk: &mut VDisk, file: &str) -> DbResult<BTree> {
        let root = bufpool.allocate_page(vdisk, file);
        let tree = BTree {
            file: file.to_string(),
            root,
        };
        tree.store_node(
            bufpool,
            vdisk,
            root,
            &Node::Leaf {
                entries: Vec::new(),
                next: None,
            },
        )?;
        Ok(tree)
    }

    fn load_node(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
    ) -> DbResult<Node> {
        bufpool.with_page(vdisk, &self.file, page_no, |b| {
            let mut r = Reader::new(&b[NODE_OFF..]);
            let len = r.u16()? as usize;
            Node::decode(r.take(len)?)
        })?
    }

    fn store_node(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        node: &Node,
    ) -> DbResult<()> {
        let bytes = node.encode();
        if NODE_OFF + 2 + bytes.len() > PAGE_SIZE {
            return Err(DbError::Storage("btree node exceeds page".into()));
        }
        bufpool.with_page_mut(vdisk, &self.file, page_no, |b| {
            b[NODE_OFF..NODE_OFF + 2].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
            b[NODE_OFF + 2..NODE_OFF + 2 + bytes.len()].copy_from_slice(&bytes);
        })
    }

    /// Inserts `(key, row_id)`. Duplicate keys are allowed.
    pub fn insert(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: &Value,
        row_id: RowId,
    ) -> DbResult<()> {
        let mut probe = Vec::new();
        key.encode(&mut probe);
        if probe.len() > MAX_KEY_BYTES {
            return Err(DbError::Storage(format!(
                "index key too large ({} > {MAX_KEY_BYTES} bytes)",
                probe.len()
            )));
        }
        let split = self.insert_rec(bufpool, vdisk, self.root, key, row_id, MAX_DEPTH - 1)?;
        if let Some((split_key, right)) = split {
            // Root split: copy the (already-halved) root node into a fresh
            // left page and rebuild the root as an internal node, keeping
            // the root page number stable.
            let old_root = self.load_node(bufpool, vdisk, self.root)?;
            let left = bufpool.allocate_page(vdisk, &self.file);
            self.store_node(bufpool, vdisk, left, &old_root)?;
            self.store_node(
                bufpool,
                vdisk,
                self.root,
                &Node::Internal {
                    keys: vec![split_key],
                    children: vec![left, right],
                },
            )?;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, right_page))` when the
    /// child at `page_no` split.
    fn insert_rec(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        key: &Value,
        row_id: RowId,
        levels_left: usize,
    ) -> DbResult<Option<(Value, u32)>> {
        match self.load_node(bufpool, vdisk, page_no)? {
            Node::Leaf { mut entries, next } => {
                let pos = entries.partition_point(|(k, _)| k <= key);
                entries.insert(pos, (key.clone(), row_id));
                if entries.len() <= MAX_ENTRIES {
                    self.store_node(bufpool, vdisk, page_no, &Node::Leaf { entries, next })?;
                    return Ok(None);
                }
                // An append splits where it lands: the full leaf stays
                // full and the newcomer starts the right one, so keys
                // arriving in order pack MAX_ENTRIES to a page, not half.
                // Its separator is the left leaf's last key, not the
                // newcomer: whatever later falls between the two must go
                // right, or a descending run into that gap would append
                // to the full leaf again and again, one leaf per key.
                let append = pos == MAX_ENTRIES;
                let mid = if append { pos } else { entries.len() / 2 };
                let right_entries: Vec<_> = entries.split_off(mid);
                let split_key = if append {
                    entries[mid - 1].0.clone()
                } else {
                    right_entries[0].0.clone()
                };
                let right_page = bufpool.allocate_page(vdisk, &self.file);
                self.store_node(
                    bufpool,
                    vdisk,
                    right_page,
                    &Node::Leaf {
                        entries: right_entries,
                        next,
                    },
                )?;
                self.store_node(
                    bufpool,
                    vdisk,
                    page_no,
                    &Node::Leaf {
                        entries,
                        next: Some(right_page),
                    },
                )?;
                Ok(Some((split_key, right_page)))
            }
            Node::Internal {
                mut keys,
                mut children,
            } => {
                // Right-on-equality keeps inserts simple; searches descend
                // left-on-equality and walk the leaf chain instead.
                let levels_left = levels_left.checked_sub(1).ok_or_else(too_deep)?;
                let idx = keys.partition_point(|k| k <= key);
                let child = children[idx];
                let split = self.insert_rec(bufpool, vdisk, child, key, row_id, levels_left)?;
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() <= MAX_ENTRIES {
                        self.store_node(
                            bufpool,
                            vdisk,
                            page_no,
                            &Node::Internal { keys, children },
                        )?;
                        return Ok(None);
                    }
                    // Same rule one level up: when the separator that
                    // overflows the node is its last, promote the one
                    // before it, so the right node starts with the
                    // newcomer and its two children.
                    let mid = if idx == MAX_ENTRIES {
                        idx - 1
                    } else {
                        keys.len() / 2
                    };
                    let promote = keys[mid].clone();
                    let right_keys: Vec<_> = keys.split_off(mid + 1);
                    keys.pop(); // Remove the promoted key from the left.
                    let right_children: Vec<_> = children.split_off(mid + 1);
                    let right_page = bufpool.allocate_page(vdisk, &self.file);
                    self.store_node(
                        bufpool,
                        vdisk,
                        right_page,
                        &Node::Internal {
                            keys: right_keys,
                            children: right_children,
                        },
                    )?;
                    self.store_node(bufpool, vdisk, page_no, &Node::Internal { keys, children })?;
                    return Ok(Some((promote, right_page)));
                }
                Ok(None)
            }
        }
    }

    /// Descends to the leaf that may contain the *leftmost* occurrence of
    /// `key` (the leftmost leaf for `None`), recording the path.
    fn descend_left(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: Option<&Value>,
        path: &mut Vec<u32>,
    ) -> DbResult<u32> {
        let mut page_no = self.root;
        for _ in 0..MAX_DEPTH {
            path.push(page_no);
            match self.load_node(bufpool, vdisk, page_no)? {
                Node::Leaf { .. } => return Ok(page_no),
                Node::Internal { keys, children } => {
                    let idx = key.map_or(0, |key| keys.partition_point(|k| k < key));
                    page_no = children[idx];
                }
            }
        }
        Err(too_deep())
    }

    /// Finds all row ids with exactly `key`.
    pub fn search_eq(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: &Value,
    ) -> DbResult<SearchResult> {
        self.search_range(
            bufpool,
            vdisk,
            Bound::Included(key.clone()),
            Bound::Included(key.clone()),
        )
    }

    /// Finds all row ids with keys in the given bounds, in key order.
    pub fn search_range(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> DbResult<SearchResult> {
        let mut result = SearchResult::default();
        // Starting leaf: leftmost for unbounded, else descend on the bound.
        let start = match &lo {
            Bound::Unbounded => None,
            Bound::Included(k) | Bound::Excluded(k) => Some(k),
        };
        let mut leaf = self.descend_left(bufpool, vdisk, start, &mut result.pages)?;
        let in_lo = |k: &Value| match &lo {
            Bound::Unbounded => true,
            Bound::Included(b) => k >= b,
            Bound::Excluded(b) => k > b,
        };
        let above_hi = |k: &Value| match &hi {
            Bound::Unbounded => false,
            Bound::Included(b) => k > b,
            Bound::Excluded(b) => k >= b,
        };
        for _ in 0..ShardedBufferPool::page_count(vdisk, &self.file) {
            let node = self.load_node(bufpool, vdisk, leaf)?;
            let Node::Leaf { entries, next } = node else {
                return Err(DbError::Storage("descend ended on internal node".into()));
            };
            for (k, rid) in &entries {
                if above_hi(k) {
                    return Ok(result);
                }
                if in_lo(k) {
                    result.row_ids.push(*rid);
                }
            }
            match next {
                Some(n) => {
                    leaf = n;
                    result.pages.push(n);
                }
                None => return Ok(result),
            }
        }
        Err(chain_loops())
    }

    /// Removes one `(key, row_id)` entry. Returns whether an entry was
    /// removed. No rebalancing (lazy deletion, like many real engines).
    pub fn delete(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: &Value,
        row_id: RowId,
    ) -> DbResult<bool> {
        let mut path = Vec::new();
        let mut leaf = self.descend_left(bufpool, vdisk, Some(key), &mut path)?;
        for _ in 0..ShardedBufferPool::page_count(vdisk, &self.file) {
            let node = self.load_node(bufpool, vdisk, leaf)?;
            let Node::Leaf { mut entries, next } = node else {
                return Err(DbError::Storage("descend ended on internal node".into()));
            };
            if let Some(pos) = entries.iter().position(|(k, r)| k == key && *r == row_id) {
                entries.remove(pos);
                self.store_node(bufpool, vdisk, leaf, &Node::Leaf { entries, next })?;
                return Ok(true);
            }
            // If every entry is already past the key, it does not exist.
            if entries.iter().all(|(k, _)| k > key) {
                return Ok(false);
            }
            match next {
                Some(n) => leaf = n,
                None => return Ok(false),
            }
        }
        Err(chain_loops())
    }
}

/// One [`BTree::check`] walk.
struct Check<'a> {
    tree: &'a BTree,
    bufpool: &'a ShardedBufferPool,
    vdisk: &'a mut VDisk,
    stats: TreeStats,
    /// `(page, next)` of every leaf, in the order the descent meets them.
    leaves: Vec<(u32, Option<u32>)>,
}

impl Check<'_> {
    /// Checks the subtree at `page_no`, whose keys the separators above
    /// it confine to `lo..=hi`.
    fn node(
        &mut self,
        page_no: u32,
        lo: Option<&Value>,
        hi: Option<&Value>,
        depth: usize,
    ) -> DbResult<()> {
        let broken = |what: &str| DbError::Storage(format!("btree page {page_no}: {what}"));
        if depth > MAX_DEPTH {
            return Err(too_deep());
        }
        let node = self.tree.load_node(self.bufpool, self.vdisk, page_no)?;
        let keys: Vec<&Value> = match &node {
            Node::Internal { keys, .. } => keys.iter().collect(),
            Node::Leaf { entries, .. } => entries.iter().map(|(k, _)| k).collect(),
        };
        if keys.windows(2).any(|w| w[0] > w[1]) {
            return Err(broken("keys out of order"));
        }
        if lo.is_some_and(|lo| keys.first().is_some_and(|k| *k < lo))
            || hi.is_some_and(|hi| keys.last().is_some_and(|k| *k > hi))
        {
            return Err(broken("key outside its separators"));
        }
        match &node {
            Node::Leaf { entries, next } => {
                if self.stats.leaf_pages > 0 && self.stats.depth != depth {
                    return Err(broken("leaf at another depth than the first"));
                }
                self.stats.depth = depth;
                self.stats.leaf_pages += 1;
                self.stats.entries += entries.len();
                self.leaves.push((page_no, *next));
            }
            Node::Internal { keys, children } => {
                if keys.is_empty() {
                    return Err(broken("internal node without a separator"));
                }
                self.stats.internal_pages += 1;
                for (i, &child) in children.iter().enumerate() {
                    let lo = i.checked_sub(1).map(|i| &keys[i]).or(lo);
                    self.node(child, lo, keys.get(i).or(hi), depth + 1)?;
                }
            }
        }
        Ok(())
    }
}

impl BTree {
    /// Walks the whole tree and fails on the first broken invariant:
    /// keys sorted within a node, every key inside the separators above
    /// it (so leaves are sorted across each other too), every leaf at
    /// one depth, no internal node without a separator, and the leaf
    /// chain threading exactly the leaves the descent reaches, in key
    /// order, each once. For tests and offline checks: it reads every
    /// page through the pool, so it rewrites the recency order.
    pub fn check(&self, bufpool: &ShardedBufferPool, vdisk: &mut VDisk) -> DbResult<TreeStats> {
        let mut check = Check {
            tree: self,
            bufpool,
            vdisk,
            stats: TreeStats::default(),
            leaves: Vec::new(),
        };
        check.node(self.root, None, None, 1)?;
        let chained = check.leaves.iter().map(|&(_, next)| next);
        let reached = check.leaves.iter().skip(1).map(|&(page, _)| Some(page));
        if !chained.eq(reached.chain([None])) {
            return Err(DbError::Storage(
                "btree leaf chain is not its leaves in key order".into(),
            ));
        }
        Ok(check.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (ShardedBufferPool, VDisk, BTree) {
        let bp = ShardedBufferPool::new(64, 4);
        let mut vd = VDisk::new();
        let t = BTree::create(&bp, &mut vd, "idx.ibd").unwrap();
        (bp, vd, t)
    }

    #[test]
    fn insert_and_point_lookup() {
        let (bp, mut vd, t) = setup();
        for i in 0..200i64 {
            t.insert(&bp, &mut vd, &Value::Int(i * 2), i as u64)
                .unwrap();
        }
        let hit = t.search_eq(&bp, &mut vd, &Value::Int(100)).unwrap();
        assert_eq!(hit.row_ids, vec![50]);
        let miss = t.search_eq(&bp, &mut vd, &Value::Int(101)).unwrap();
        assert!(miss.row_ids.is_empty());
        assert!(!hit.pages.is_empty());
    }

    #[test]
    fn range_scan_ordered() {
        let (bp, mut vd, t) = setup();
        // Insert shuffled.
        for i in (0..500i64).map(|i| (i * 37) % 500) {
            t.insert(&bp, &mut vd, &Value::Int(i), i as u64).unwrap();
        }
        let r = t
            .search_range(
                &bp,
                &mut vd,
                Bound::Included(Value::Int(100)),
                Bound::Excluded(Value::Int(110)),
            )
            .unwrap();
        assert_eq!(r.row_ids, (100u64..110).collect::<Vec<_>>());
        // Unbounded scan returns everything in order.
        let all = t
            .search_range(&bp, &mut vd, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        assert_eq!(all.row_ids.len(), 500);
        assert!(all.row_ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn duplicates_found_across_leaves() {
        let (bp, mut vd, t) = setup();
        // 100 duplicates of one key, interleaved with others, forces the
        // duplicates across multiple leaves.
        for i in 0..100u64 {
            t.insert(&bp, &mut vd, &Value::Int(7), 1000 + i).unwrap();
            t.insert(&bp, &mut vd, &Value::Int(i as i64 * 10), i)
                .unwrap();
        }
        let r = t.search_eq(&bp, &mut vd, &Value::Int(7)).unwrap();
        assert_eq!(r.row_ids.len(), 100);
        let mut rids = r.row_ids.clone();
        rids.sort_unstable();
        assert_eq!(rids, (1000u64..1100).collect::<Vec<_>>());
    }

    #[test]
    fn delete_specific_entry() {
        let (bp, mut vd, t) = setup();
        for i in 0..50u64 {
            t.insert(&bp, &mut vd, &Value::Int(5), i).unwrap();
        }
        assert!(t.delete(&bp, &mut vd, &Value::Int(5), 25).unwrap());
        assert!(!t.delete(&bp, &mut vd, &Value::Int(5), 25).unwrap());
        assert!(!t.delete(&bp, &mut vd, &Value::Int(6), 0).unwrap());
        let r = t.search_eq(&bp, &mut vd, &Value::Int(5)).unwrap();
        assert_eq!(r.row_ids.len(), 49);
        assert!(!r.row_ids.contains(&25));
    }

    #[test]
    fn text_keys() {
        let (bp, mut vd, t) = setup();
        let words = ["delta", "alpha", "echo", "bravo", "charlie"];
        for (i, w) in words.iter().enumerate() {
            t.insert(&bp, &mut vd, &Value::Text(w.to_string()), i as u64)
                .unwrap();
        }
        let r = t
            .search_range(
                &bp,
                &mut vd,
                Bound::Included(Value::Text("b".into())),
                Bound::Excluded(Value::Text("d".into())),
            )
            .unwrap();
        // bravo (3), charlie (4).
        assert_eq!(r.row_ids, vec![3, 4]);
    }

    #[test]
    fn huge_key_rejected() {
        let (bp, mut vd, t) = setup();
        let big = Value::Text("x".repeat(600));
        assert!(t.insert(&bp, &mut vd, &big, 0).is_err());
    }

    #[test]
    fn root_page_number_stable_across_splits() {
        let (bp, mut vd, t) = setup();
        let root_before = t.root;
        for i in 0..2000i64 {
            t.insert(&bp, &mut vd, &Value::Int(i), i as u64).unwrap();
        }
        assert_eq!(t.root, root_before);
        // Multi-level now: search path longer than 1.
        let hit = t.search_eq(&bp, &mut vd, &Value::Int(1999)).unwrap();
        assert!(
            hit.pages.len() >= 3,
            "expected depth >= 3, path {:?}",
            hit.pages
        );
        assert_eq!(hit.row_ids, vec![1999]);
    }

    #[test]
    fn access_path_is_recorded() {
        let (bp, mut vd, t) = setup();
        for i in 0..2000i64 {
            t.insert(&bp, &mut vd, &Value::Int(i), i as u64).unwrap();
        }
        let r = t.search_eq(&bp, &mut vd, &Value::Int(123)).unwrap();
        assert_eq!(r.pages[0], t.root, "path starts at the root");
        // The visited pages got LRU-touched in the buffer pool.
        let order = bp.lru_order();
        let last = r.pages.last().unwrap();
        assert!(order
            .iter()
            .take(4)
            .any(|(f, p)| f == "idx.ibd" && p == last));
    }

    #[test]
    fn survives_flush_and_reload() {
        let (bp, mut vd, t) = setup();
        for i in 0..300i64 {
            t.insert(&bp, &mut vd, &Value::Int(i), i as u64).unwrap();
        }
        bp.flush_all(&mut vd);
        // A cold pool reading from disk sees the same tree.
        let cold = ShardedBufferPool::new(8, 4);
        let r = t.search_eq(&cold, &mut vd, &Value::Int(250)).unwrap();
        assert_eq!(r.row_ids, vec![250]);
    }
}
