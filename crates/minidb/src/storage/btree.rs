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

use std::ops::Bound;

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

    fn decode(buf: &[u8]) -> DbResult<Node> {
        let mut pos = 0;
        let tag = *buf
            .get(pos)
            .ok_or_else(|| DbError::Storage("empty btree node".into()))?;
        pos += 1;
        let n = u16::from_le_bytes(
            buf.get(pos..pos + 2)
                .ok_or_else(|| DbError::Storage("truncated node count".into()))?
                .try_into()
                .unwrap(),
        ) as usize;
        pos += 2;
        match tag {
            1 => {
                let mut children = Vec::with_capacity(n + 1);
                for _ in 0..=n {
                    let c = u32::from_le_bytes(
                        buf.get(pos..pos + 4)
                            .ok_or_else(|| DbError::Storage("truncated child".into()))?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 4;
                    children.push(c);
                }
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    keys.push(Value::decode(buf, &mut pos)?);
                }
                Ok(Node::Internal { keys, children })
            }
            2 => {
                let next_raw = u32::from_le_bytes(
                    buf.get(pos..pos + 4)
                        .ok_or_else(|| DbError::Storage("truncated next ptr".into()))?
                        .try_into()
                        .unwrap(),
                );
                pos += 4;
                let next = (next_raw != SENTINEL).then_some(next_raw);
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = Value::decode(buf, &mut pos)?;
                    let rid = u64::from_le_bytes(
                        buf.get(pos..pos + 8)
                            .ok_or_else(|| DbError::Storage("truncated row id".into()))?
                            .try_into()
                            .unwrap(),
                    );
                    pos += 8;
                    entries.push((k, rid));
                }
                Ok(Node::Leaf { entries, next })
            }
            t => Err(DbError::Storage(format!("unknown btree node tag {t}"))),
        }
    }
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
            let len = u16::from_le_bytes([b[NODE_OFF], b[NODE_OFF + 1]]) as usize;
            Node::decode(&b[NODE_OFF + 2..NODE_OFF + 2 + len])
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
        if let Some((split_key, right)) = self.insert_rec(bufpool, vdisk, self.root, key, row_id)? {
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
    ) -> DbResult<Option<(Value, u32)>> {
        match self.load_node(bufpool, vdisk, page_no)? {
            Node::Leaf { mut entries, next } => {
                let pos = entries.partition_point(|(k, _)| k <= key);
                entries.insert(pos, (key.clone(), row_id));
                if entries.len() <= MAX_ENTRIES {
                    self.store_node(bufpool, vdisk, page_no, &Node::Leaf { entries, next })?;
                    return Ok(None);
                }
                let mid = entries.len() / 2;
                let right_entries: Vec<_> = entries.split_off(mid);
                let split_key = right_entries[0].0.clone();
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
                let idx = keys.partition_point(|k| k <= key);
                let child = children[idx];
                if let Some((sep, right)) = self.insert_rec(bufpool, vdisk, child, key, row_id)? {
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
                    let mid = keys.len() / 2;
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
    /// `key`, recording the path.
    fn descend_left(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: &Value,
        path: &mut Vec<u32>,
    ) -> DbResult<u32> {
        let mut page_no = self.root;
        loop {
            path.push(page_no);
            match self.load_node(bufpool, vdisk, page_no)? {
                Node::Leaf { .. } => return Ok(page_no),
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|k| k < key);
                    page_no = children[idx];
                }
            }
        }
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
        let mut leaf = match &lo {
            Bound::Unbounded => self.leftmost_leaf(bufpool, vdisk, &mut result.pages)?,
            Bound::Included(k) | Bound::Excluded(k) => {
                self.descend_left(bufpool, vdisk, k, &mut result.pages)?
            }
        };
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
        loop {
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
    }

    fn leftmost_leaf(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        path: &mut Vec<u32>,
    ) -> DbResult<u32> {
        let mut page_no = self.root;
        loop {
            path.push(page_no);
            match self.load_node(bufpool, vdisk, page_no)? {
                Node::Leaf { .. } => return Ok(page_no),
                Node::Internal { children, .. } => page_no = children[0],
            }
        }
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
        let mut leaf = self.descend_left(bufpool, vdisk, key, &mut path)?;
        loop {
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
