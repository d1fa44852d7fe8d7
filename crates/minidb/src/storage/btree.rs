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
//!
//! Nodes are read and edited where they lie in the pool frame
//! (`NodeRef`): a descent, a search and a delete compare the probe
//! with each key read in place by the value reader every row and
//! predicate reads through ([`Value::cmp_encoded`]), and an insert that
//! fits, or a delete, shifts the node's tail inside the frame. A split
//! never decodes a node either: the read that finds a node full copies
//! its bytes out, and the split writes each half from those entries'
//! byte ranges. Either way a node visited is one pool read and a node
//! changed one pool write, as when every node was decoded: the access
//! path is the leak, and it is unchanged.

// Node bytes come from disk: a node that lies is a typed error, never
// a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::cmp::Ordering;
use std::ops::Bound;

use mdb_trace::codec::Reader;

use crate::error::{DbError, DbResult};
use crate::row::RowId;
use crate::storage::page::PAGE_SIZE;
use crate::storage::shardpool::ShardedBufferPool;
use crate::value::{self, Value, ValueRef};
use crate::vdisk::VDisk;

/// Maximum entries per node before a split.
const MAX_ENTRIES: usize = 32;

/// Maximum encoded key size accepted into an index (in the spirit of
/// MySQL's 767-byte index prefix limit; sized so a full node of maximal
/// keys still fits in one page).
pub const MAX_KEY_BYTES: usize = 400;

/// Offset of node data within a page (past the page-LSN header): a
/// `u16` length, then the node.
const NODE_OFF: usize = 12;

/// Offset of the node itself, past its length.
const NODE: usize = NODE_OFF + 2;

/// Bytes a node may take.
const NODE_MAX: usize = PAGE_SIZE - NODE;

/// Offset within a node of its first child (internal) or its next-leaf
/// pointer (leaf): past the tag and the entry count.
const NODE_HDR: usize = 3;

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

fn too_big() -> DbError {
    DbError::Storage("btree node exceeds page".into())
}

fn not_a_leaf() -> DbError {
    DbError::Storage("descend ended on internal node".into())
}

fn no_child(idx: usize) -> DbError {
    DbError::Storage(format!("btree node has no child {idx}"))
}

/// A split of a node that holds nothing to split: past `MAX_ENTRIES`
/// entries it cannot be, so a lying node never gets here.
fn empty_split() -> DbError {
    DbError::Storage("btree split of an empty node".into())
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

/// The node bytes in a pool frame.
fn node_bytes(page: &[u8; PAGE_SIZE]) -> DbResult<&[u8]> {
    let mut r = Reader::new(&page[NODE_OFF..]);
    let len = r.u16()? as usize;
    Ok(r.take(len)?)
}

/// A node read where it lies. The bytes come off a page an attacker
/// with the disk may have rewritten: parsing checks the header (the
/// tag, a count no split can leave behind, every child pointer), and
/// the entries are checked one by one as a [`Walk`] reaches them. Every
/// reader walks to the node's end, so a node with one bad entry is
/// refused wherever the probe lands.
enum NodeRef<'a> {
    Internal {
        /// `n + 1` child page numbers.
        children: &'a [[u8; 4]],
        keys: Walk<'a>,
    },
    Leaf {
        next: Option<u32>,
        entries: Walk<'a>,
    },
}

impl<'a> NodeRef<'a> {
    fn parse(node: &'a [u8]) -> DbResult<NodeRef<'a>> {
        let mut r = Reader::new(node);
        let tag = r.u8()?;
        let n = r.u16()? as usize;
        if n > MAX_ENTRIES {
            return Err(DbError::Storage(format!(
                "btree node claims {n} entries (max {MAX_ENTRIES})"
            )));
        }
        let walk = |pos, leaf| Walk {
            node,
            pos,
            n,
            done: 0,
            leaf,
        };
        match tag {
            1 => {
                let (children, _) = r.take(4 * (n + 1))?.as_chunks();
                Ok(NodeRef::Internal {
                    children,
                    keys: walk(r.pos(), false),
                })
            }
            2 => {
                let next = r.u32()?;
                Ok(NodeRef::Leaf {
                    next: (next != SENTINEL).then_some(next),
                    entries: walk(r.pos(), true),
                })
            }
            t => Err(DbError::Storage(format!("unknown btree node tag {t}"))),
        }
    }

    /// The node in a pool frame.
    fn read(page: &'a [u8; PAGE_SIZE]) -> DbResult<NodeRef<'a>> {
        NodeRef::parse(node_bytes(page)?)
    }
}

/// Child `idx` of an internal node.
fn child(children: &[[u8; 4]], idx: usize) -> DbResult<u32> {
    let child = children.get(idx).copied().map(u32::from_le_bytes);
    child.ok_or_else(|| no_child(idx))
}

/// Child page numbers, as an internal node stores them.
fn pages(children: &[[u8; 4]]) -> Vec<u32> {
    children.iter().map(|c| u32::from_le_bytes(*c)).collect()
}

/// A cursor over a node's entries where they lie: each key is read at
/// its offset ([`value::read`]), and a leaf's row id behind it.
struct Walk<'a> {
    node: &'a [u8],
    /// Offset of the next entry.
    pos: usize,
    /// Entries (keys, on an internal node) in the node.
    n: usize,
    /// Entries stepped past.
    done: usize,
    /// Whether a row id follows each key.
    leaf: bool,
}

impl<'a> Walk<'a> {
    /// Steps past the next entry: its key, and a leaf's row id (an
    /// internal node's reads as 0). `None` once every entry is read.
    #[inline(always)]
    fn step(&mut self) -> DbResult<Option<(ValueRef<'a>, RowId)>> {
        if self.done == self.n {
            return Ok(None);
        }
        self.done += 1;
        let (key, end) = value::read(self.node, self.pos)?;
        self.pos = end;
        if !self.leaf {
            return Ok(Some((key, 0)));
        }
        let row_id = Reader::new(self.node.get(self.pos..).unwrap_or_default()).u64()?;
        self.pos += 8;
        Ok(Some((key, row_id)))
    }

    /// `partition_point` over the keys: steps to the first entry whose
    /// key `k` fails `pred(probe.cmp(k))`, and past it, returning its
    /// index and offset (`n` and the end when every key passes).
    fn partition_point(
        &mut self,
        probe: &Value,
        pred: impl Fn(Ordering) -> bool,
    ) -> DbResult<(usize, usize)> {
        let probe = probe.borrowed();
        loop {
            let at = (self.done, self.pos);
            match self.step()? {
                Some((key, _)) if pred(probe.cmp(&key)) => {}
                _ => return Ok(at),
            }
        }
    }

    /// Checks the entries left and returns where the last one ends: the
    /// length of the node's canonical encoding.
    fn end(mut self) -> DbResult<usize> {
        while self.step()?.is_some() {}
        Ok(self.pos)
    }

    /// The keys left, owned, in order.
    fn keys(mut self) -> DbResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(self.n - self.done);
        while let Some((key, _)) = self.step()? {
            keys.push(key.to_value());
        }
        Ok(keys)
    }

    /// The bytes of each entry left (a key, and a leaf's row id), in
    /// order, with room for one more.
    fn entries(mut self) -> DbResult<Vec<&'a [u8]>> {
        let mut out = Vec::with_capacity(self.n + 1);
        loop {
            let at = self.pos;
            if self.step()?.is_none() {
                return Ok(out);
            }
            out.push(self.node.get(at..self.pos).unwrap_or_default());
        }
    }
}

/// Whether the node in `page` is a leaf, and its keys: an internal
/// node's separators, a leaf's entry keys. The node is checked as the
/// tree reads it (`NodeRef`, `Walk`), so a node that lies is a
/// [`DbError::Storage`]. The index-page carver reads pages through
/// this, not through a copy of the layout.
pub fn node_keys(page: &[u8; PAGE_SIZE]) -> DbResult<(bool, Vec<Value>)> {
    Ok(match NodeRef::read(page)? {
        NodeRef::Internal { keys, .. } => (false, keys.keys()?),
        NodeRef::Leaf { entries, .. } => (true, entries.keys()?),
    })
}

/// A node's bytes: the tag (1 internal, 2 leaf), the entry count, the
/// links (an internal node's children, a leaf's next page) and the
/// entries, copied as they are. Entries [`Walk`] read are canonical, so
/// these are the bytes encoding the node's values would give.
fn node_of(tag: u8, links: &[u32], entries: &[&[u8]]) -> Vec<u8> {
    let len = entries.iter().map(|e| e.len()).sum::<usize>();
    let mut out = Vec::with_capacity(NODE_HDR + 4 * links.len() + len);
    out.push(tag);
    out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
    for link in links {
        out.extend_from_slice(&link.to_le_bytes());
    }
    for entry in entries {
        out.extend_from_slice(entry);
    }
    out
}

/// Opens `bytes.len()` bytes at offset `at` of the node in `page`, whose
/// entries end at `end`, by moving the tail right, and writes `bytes`
/// there. Returns the new end. Past it lie the bytes that were there.
fn splice(page: &mut [u8; PAGE_SIZE], at: usize, end: usize, bytes: &[u8]) -> DbResult<usize> {
    let node = &mut page[NODE..];
    let grown = end + bytes.len();
    if at > end || grown > node.len() {
        return Err(too_big());
    }
    node.copy_within(at..end, at + bytes.len());
    let hole = node.get_mut(at..at + bytes.len()).ok_or_else(too_big)?;
    hole.copy_from_slice(bytes);
    Ok(grown)
}

/// Writes a node's entry count and length into its frame.
fn set_size(page: &mut [u8; PAGE_SIZE], n: usize, len: usize) {
    page[NODE_OFF..NODE].copy_from_slice(&(len as u16).to_le_bytes());
    page[NODE + 1..NODE + 3].copy_from_slice(&(n as u16).to_le_bytes());
}

/// Where an insert lands in a node that has room for it.
struct Room {
    /// Index the newcomer takes among the entries (or separators).
    idx: usize,
    /// Offset of the entry it goes before, or the end.
    at: usize,
    /// Entries in the node now.
    n: usize,
    /// Where the last entry ends.
    end: usize,
}

/// What an insert's one read of a node found.
enum Landing {
    /// A leaf with room: the newcomer goes in place.
    Leaf(Room),
    /// An internal node with room: the child to descend into, and where
    /// its separator goes should it split.
    Internal { child: u32, room: Room },
    /// A full node, its bytes copied out of the frame: anything that
    /// lands in it splits it, at index `idx`.
    Full { node: Vec<u8>, idx: usize },
}

/// What a delete's read of one leaf found.
enum Found {
    /// The entry is at `at` and takes `len` bytes.
    At {
        at: usize,
        len: usize,
        n: usize,
        end: usize,
    },
    /// Not here; look in the next leaf.
    Next(u32),
    /// Not in the tree.
    Absent,
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
        tree.store_bytes(bufpool, vdisk, root, &node_of(2, &[SENTINEL], &[]))?;
        Ok(tree)
    }

    fn store_bytes(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        bytes: &[u8],
    ) -> DbResult<()> {
        if bytes.len() > NODE_MAX {
            return Err(too_big());
        }
        bufpool.with_page_mut(vdisk, &self.file, page_no, |b| {
            let node = b[NODE..].get_mut(..bytes.len()).ok_or_else(too_big)?;
            node.copy_from_slice(bytes);
            b[NODE_OFF..NODE].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
            Ok(())
        })?
    }

    /// Inserts `(key, row_id)`. Duplicate keys are allowed.
    pub fn insert(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        key: &Value,
        row_id: RowId,
    ) -> DbResult<()> {
        if key.encoded_len() > MAX_KEY_BYTES {
            return Err(DbError::Storage(format!(
                "index key too large ({} > {MAX_KEY_BYTES} bytes)",
                key.encoded_len()
            )));
        }
        let mut entry = Vec::with_capacity(key.encoded_len() + 8);
        key.encode(&mut entry);
        entry.extend_from_slice(&row_id.to_le_bytes());
        let split = self.insert_rec(bufpool, vdisk, self.root, key, &entry, MAX_DEPTH - 1)?;
        if let Some((split_key, right)) = split {
            // Root split: copy the (already-halved) root node into a fresh
            // left page and rebuild the root as an internal node, keeping
            // the root page number stable.
            let old_root = bufpool.with_page(vdisk, &self.file, self.root, |b| {
                node_bytes(b).map(<[u8]>::to_vec)
            })??;
            let left = bufpool.allocate_page(vdisk, &self.file);
            self.store_bytes(bufpool, vdisk, left, &old_root)?;
            let root = node_of(1, &[left, right], &[&split_key]);
            self.store_bytes(bufpool, vdisk, self.root, &root)?;
        }
        Ok(())
    }

    /// Reads the node at `page_no` once for an insert of `key`: where it
    /// lands, and the node's bytes if it is full.
    fn land(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        key: &Value,
    ) -> DbResult<Landing> {
        bufpool.with_page(vdisk, &self.file, page_no, |b| {
            let node = node_bytes(b)?;
            let (children, mut walk) = match NodeRef::parse(node)? {
                NodeRef::Internal { children, keys } => (Some(children), keys),
                NodeRef::Leaf { entries, .. } => (None, entries),
            };
            // Right-on-equality keeps inserts simple; searches descend
            // left-on-equality and walk the leaf chain instead.
            let (idx, at) = walk.partition_point(key, |o| o != Ordering::Less)?;
            let n = walk.n;
            let end = walk.end()?;
            if n == MAX_ENTRIES {
                return Ok(Landing::Full {
                    node: node.to_vec(),
                    idx,
                });
            }
            let room = Room { idx, at, n, end };
            Ok(match children {
                Some(children) => Landing::Internal {
                    child: child(children, idx)?,
                    room,
                },
                None => Landing::Leaf(room),
            })
        })?
    }

    /// Recursive insert of `key`, whose leaf entry (the key's encoding,
    /// then the row id) is `entry`; returns `Some((separator, right_page))`,
    /// the separator encoded, when the node at `page_no` split.
    fn insert_rec(
        &self,
        bufpool: &ShardedBufferPool,
        vdisk: &mut VDisk,
        page_no: u32,
        key: &Value,
        entry: &[u8],
        levels_left: usize,
    ) -> DbResult<Option<(Vec<u8>, u32)>> {
        match self.land(bufpool, vdisk, page_no, key)? {
            Landing::Leaf(room) => {
                if room.end + entry.len() > NODE_MAX {
                    return Err(too_big());
                }
                bufpool.with_page_mut(vdisk, &self.file, page_no, |b| {
                    let end = splice(b, room.at, room.end, entry)?;
                    set_size(b, room.n + 1, end);
                    Ok(None)
                })?
            }
            Landing::Internal { child, room } => {
                let levels_left = levels_left.checked_sub(1).ok_or_else(too_deep)?;
                let split = self.insert_rec(bufpool, vdisk, child, key, entry, levels_left)?;
                let Some((sep, right)) = split else {
                    return Ok(None);
                };
                // The separator goes before key `idx`, its right child
                // after child `idx`.
                if room.end + sep.len() + 4 > NODE_MAX {
                    return Err(too_big());
                }
                bufpool.with_page_mut(vdisk, &self.file, page_no, |b| {
                    let end = splice(b, room.at, room.end, &sep)?;
                    let end = splice(b, NODE_HDR + 4 * (room.idx + 1), end, &right.to_le_bytes())?;
                    set_size(b, room.n + 1, end);
                    Ok(None)
                })?
            }
            Landing::Full { node, idx } => match NodeRef::parse(&node)? {
                NodeRef::Leaf { next, entries } => {
                    let mut entries = entries.entries()?;
                    entries.insert(idx, entry);
                    // An append splits where it lands: the full leaf
                    // stays full and the newcomer starts the right one,
                    // so keys arriving in order pack MAX_ENTRIES to a
                    // page, not half. Its separator is the left leaf's
                    // last key, not the newcomer: whatever later falls
                    // between the two must go right, or a descending run
                    // into that gap would append to the full leaf again
                    // and again, one leaf per key.
                    let append = idx == MAX_ENTRIES;
                    let mid = if append { idx } else { entries.len() / 2 };
                    let (left, right) = entries.split_at_checked(mid).ok_or_else(empty_split)?;
                    let split_entry = if append { left.last() } else { right.first() };
                    // The separator is the entry without its row id.
                    let split_key = split_entry
                        .and_then(|e| e.get(..e.len().checked_sub(8)?))
                        .ok_or_else(empty_split)?;
                    let right_page = bufpool.allocate_page(vdisk, &self.file);
                    let next = next.unwrap_or(SENTINEL);
                    self.store_bytes(bufpool, vdisk, right_page, &node_of(2, &[next], right))?;
                    self.store_bytes(bufpool, vdisk, page_no, &node_of(2, &[right_page], left))?;
                    Ok(Some((split_key.to_vec(), right_page)))
                }
                NodeRef::Internal { children, keys } => {
                    let levels_left = levels_left.checked_sub(1).ok_or_else(too_deep)?;
                    let child = child(children, idx)?;
                    let split = self.insert_rec(bufpool, vdisk, child, key, entry, levels_left)?;
                    let Some((sep, right)) = split else {
                        return Ok(None);
                    };
                    let (mut keys, mut children) = (keys.entries()?, pages(children));
                    keys.insert(idx, &sep);
                    children.insert(idx + 1, right);
                    // Same rule one level up: when the separator that
                    // overflows the node is its last, promote the one
                    // before it, so the right node starts with the
                    // newcomer and its two children.
                    let mid = if idx == MAX_ENTRIES {
                        idx - 1
                    } else {
                        keys.len() / 2
                    };
                    let (left_keys, rest) = keys.split_at_checked(mid).ok_or_else(empty_split)?;
                    let (promote, right_keys) = rest.split_first().ok_or_else(empty_split)?;
                    let (left_children, right_children) =
                        children.split_at_checked(mid + 1).ok_or_else(empty_split)?;
                    let right_page = bufpool.allocate_page(vdisk, &self.file);
                    let right_node = node_of(1, right_children, right_keys);
                    self.store_bytes(bufpool, vdisk, right_page, &right_node)?;
                    let left_node = node_of(1, left_children, left_keys);
                    self.store_bytes(bufpool, vdisk, page_no, &left_node)?;
                    Ok(Some((promote.to_vec(), right_page)))
                }
            },
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
            let down = bufpool.with_page(vdisk, &self.file, page_no, |b| {
                let NodeRef::Internal { children, mut keys } = NodeRef::read(b)? else {
                    return Ok(None);
                };
                let idx = match key {
                    Some(key) => keys.partition_point(key, |o| o == Ordering::Greater)?.0,
                    None => 0,
                };
                keys.end()?;
                child(children, idx).map(Some)
            })??;
            match down {
                Some(child) => page_no = child,
                None => return Ok(page_no),
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
        let lo = lo.as_ref().map(Value::borrowed);
        let hi = hi.as_ref().map(Value::borrowed);
        for _ in 0..ShardedBufferPool::page_count(vdisk, &self.file) {
            let row_ids = &mut result.row_ids;
            let next = bufpool.with_page(vdisk, &self.file, leaf, |b| {
                let NodeRef::Leaf { next, mut entries } = NodeRef::read(b)? else {
                    return Err(not_a_leaf());
                };
                while let Some((key, rid)) = entries.step()? {
                    // `b.cmp(&key)` orders the bound against the key.
                    let above_hi = match &hi {
                        Bound::Unbounded => false,
                        Bound::Included(b) => b.cmp(&key) == Ordering::Less,
                        Bound::Excluded(b) => b.cmp(&key) != Ordering::Greater,
                    };
                    if above_hi {
                        entries.end()?;
                        return Ok(None);
                    }
                    let in_lo = match &lo {
                        Bound::Unbounded => true,
                        Bound::Included(b) => b.cmp(&key) != Ordering::Greater,
                        Bound::Excluded(b) => b.cmp(&key) == Ordering::Less,
                    };
                    if in_lo {
                        row_ids.push(rid);
                    }
                }
                Ok(next)
            })??;
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
            let found = bufpool.with_page(vdisk, &self.file, leaf, |b| {
                let NodeRef::Leaf { next, mut entries } = NodeRef::read(b)? else {
                    return Err(not_a_leaf());
                };
                let n = entries.n;
                let mut hit = None;
                // If every entry is already past the key, it does not
                // exist.
                let mut all_past = true;
                loop {
                    let at = entries.pos;
                    let Some((k, rid)) = entries.step()? else {
                        break;
                    };
                    let ord = key.borrowed().cmp(&k);
                    all_past &= ord == Ordering::Less;
                    if hit.is_none() && ord == Ordering::Equal && rid == row_id {
                        hit = Some((at, entries.pos - at));
                    }
                }
                let end = entries.pos;
                Ok(match (hit, next) {
                    (Some((at, len)), _) => Found::At { at, len, n, end },
                    (None, Some(next)) if !all_past => Found::Next(next),
                    (None, _) => Found::Absent,
                })
            })??;
            match found {
                Found::At { at, len, n, end } => {
                    bufpool.with_page_mut(vdisk, &self.file, leaf, |b| {
                        let node = &mut b[NODE..];
                        if at + len > end || end > node.len() {
                            return Err(too_big());
                        }
                        node.copy_within(at + len..end, at);
                        set_size(b, n - 1, end - len);
                        Ok(())
                    })??;
                    return Ok(true);
                }
                Found::Next(next) => leaf = next,
                Found::Absent => return Ok(false),
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
        // The node's keys, decoded, and its children (`None` for a leaf)
        // or its next leaf.
        let file = &self.tree.file;
        let (keys, children, next) = self.bufpool.with_page(self.vdisk, file, page_no, |b| {
            let (children, next, walk) = match NodeRef::read(b)? {
                NodeRef::Internal { children, keys } => (Some(pages(children)), None, keys),
                NodeRef::Leaf { next, entries } => (None, next, entries),
            };
            Ok::<_, DbError>((walk.keys()?, children, next))
        })??;
        if !keys.is_sorted() {
            return Err(broken("keys out of order"));
        }
        if lo.is_some_and(|lo| keys.first().is_some_and(|k| k < lo))
            || hi.is_some_and(|hi| keys.last().is_some_and(|k| k > hi))
        {
            return Err(broken("key outside its separators"));
        }
        match children {
            None => {
                if self.stats.leaf_pages > 0 && self.stats.depth != depth {
                    return Err(broken("leaf at another depth than the first"));
                }
                self.stats.depth = depth;
                self.stats.leaf_pages += 1;
                self.stats.entries += keys.len();
                self.leaves.push((page_no, next));
            }
            Some(children) => {
                if keys.is_empty() {
                    return Err(broken("internal node without a separator"));
                }
                self.stats.internal_pages += 1;
                for (i, &child) in children.iter().enumerate() {
                    let lo = i.checked_sub(1).and_then(|i| keys.get(i)).or(lo);
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
    use std::collections::BTreeMap;

    use super::*;

    /// A node decoded: the reference the in-place reads and the byte
    /// copying splits are held to.
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

        /// Parses a node: its header as [`NodeRef::parse`] checks it,
        /// then every entry.
        fn decode(node: &[u8]) -> DbResult<Node> {
            Ok(match NodeRef::parse(node)? {
                NodeRef::Internal { children, keys } => Node::Internal {
                    keys: keys.keys()?,
                    children: pages(children),
                },
                NodeRef::Leaf { next, mut entries } => {
                    let mut out = Vec::with_capacity(entries.n);
                    while let Some((key, rid)) = entries.step()? {
                        out.push((key.to_value(), rid));
                    }
                    Node::Leaf { entries: out, next }
                }
            })
        }
    }

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

    /// Every node in `t`'s file, read through the pool, is the
    /// canonical encoding of what it decodes to: an edit in place wrote
    /// exactly what encoding the edited node would have.
    fn assert_canonical(bp: &ShardedBufferPool, vd: &mut VDisk, t: &BTree, after: &str) {
        for page in 0..ShardedBufferPool::page_count(vd, &t.file) {
            bp.with_page(vd, &t.file, page, |b| {
                let node = node_bytes(b).unwrap();
                let canonical = Node::decode(node).unwrap().encode();
                assert!(canonical == node, "page {page} after {after}");
            })
            .unwrap();
        }
    }

    #[test]
    fn keys_of_every_width_are_edited_in_canonical_bytes() {
        let (bp, mut vd, t) = setup();
        let mut model: BTreeMap<Value, Vec<RowId>> = BTreeMap::new();
        let mut state = 0x5EED_0039u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        // NULL, a few INTs, and TEXT and BYTES of 0 to 150 bytes: a
        // small enough domain that keys repeat, across leaves too.
        let key = |r: u64| {
            let width = (r >> 8) as usize % 151;
            match r % 5 {
                0 => Value::Null,
                1 => Value::Int((r >> 8) as i64 % 40 - 20),
                2 => Value::Text(format!("{:é>width$}", (r >> 24) % 8)),
                3 => Value::Bytes(vec![(r >> 24) as u8 % 3; width]),
                _ => Value::Text("k".repeat(width % 4)),
            }
        };
        let mut next_rid = 0;
        for op in 0..3_000 {
            let r = next();
            let what = if r % 4 == 0 && !model.is_empty() {
                // A present entry, or now and then one that is not.
                let (k, rids) = model.iter().nth((r >> 8) as usize % model.len()).unwrap();
                let (k, rid) = (k.clone(), if r % 3 == 0 { RowId::MAX } else { rids[0] });
                let removed = t.delete(&bp, &mut vd, &k, rid).unwrap();
                let rids = model.get_mut(&k).unwrap();
                let expected = rids
                    .iter()
                    .position(|x| *x == rid)
                    .map(|at| rids.remove(at));
                if rids.is_empty() {
                    model.remove(&k);
                }
                assert_eq!(removed, expected.is_some(), "delete ({k:?}, {rid})");
                format!("op {op}: delete ({k:?}, {rid})")
            } else {
                let k = key(next());
                t.insert(&bp, &mut vd, &k, next_rid).unwrap();
                model.entry(k.clone()).or_default().push(next_rid);
                next_rid += 1;
                format!("op {op}: insert {k:?}")
            };
            assert_canonical(&bp, &mut vd, &t, &what);
            if op % 300 == 299 {
                t.check(&bp, &mut vd).unwrap();
            }
        }
        let stats = t.check(&bp, &mut vd).unwrap();
        assert!(stats.internal_pages >= 4, "internal nodes split: {stats:?}");
        assert_eq!(stats.entries, model.values().map(Vec::len).sum::<usize>());

        // Duplicates come back in the order they went in.
        let all = t
            .search_range(&bp, &mut vd, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        let want: Vec<RowId> = model.values().flatten().copied().collect();
        assert_eq!(all.row_ids, want);
        for (k, rids) in &model {
            assert_eq!(
                &t.search_eq(&bp, &mut vd, k).unwrap().row_ids,
                rids,
                "{k:?}"
            );
        }
        let keys: Vec<&Value> = model.keys().collect();
        for _ in 0..200 {
            let (a, b) = (next() as usize % keys.len(), next() as usize % keys.len());
            let bound = |k: &Value, r: u64| match r % 3 {
                0 => Bound::Included(k.clone()),
                1 => Bound::Excluded(k.clone()),
                _ => Bound::Unbounded,
            };
            let (lo, mut hi) = (bound(keys[a.min(b)], next()), bound(keys[a.max(b)], next()));
            if a == b && matches!((&lo, &hi), (Bound::Excluded(_), Bound::Excluded(_))) {
                // An empty range `BTreeMap::range` refuses.
                hi = Bound::Included(keys[a].clone());
            }
            let got = t
                .search_range(&bp, &mut vd, lo.clone(), hi.clone())
                .unwrap();
            let want: Vec<RowId> = model.range((lo, hi)).flat_map(|(_, r)| r.clone()).collect();
            assert_eq!(got.row_ids, want);
        }
    }

    /// Every read in place walks a node to its end, so it refuses a
    /// node exactly when `Node::decode` does: for every byte of a leaf
    /// and of an internal node with keys of each type, set to each of a
    /// few values, whether the probe lands early, late or not at all.
    /// [`node_keys`] reads the keys `Node::decode` reads, or refuses.
    #[test]
    fn reads_in_place_refuse_what_decode_refuses() {
        let keys = [
            Value::Null,
            Value::Int(-3),
            Value::Text("héllo".into()),
            Value::Bytes(vec![0, 1, 2]),
        ];
        let nodes = [
            Node::Leaf {
                entries: keys.iter().cloned().zip(10..).collect(),
                next: Some(7),
            },
            Node::Internal {
                keys: keys.to_vec(),
                children: vec![1, 2, 3, 4, 5],
            },
        ];
        let probes = [
            None,
            Some(Value::Null),
            Some(Value::Int(0)),
            Some(Value::Bytes(vec![9])),
        ];
        let mut page = Box::new([0u8; PAGE_SIZE]);
        for node in nodes {
            let clean = node.encode();
            page[NODE_OFF..NODE].copy_from_slice(&(clean.len() as u16).to_le_bytes());
            for at in 0..clean.len() {
                for v in [0x00, 0x01, 0x02, 0x04, 0x7F, 0xC3, 0xFF] {
                    let mut bytes = clean.clone();
                    bytes[at] = v;
                    let decoded = Node::decode(&bytes).ok().map(|node| match node {
                        Node::Internal { keys, .. } => (false, keys),
                        Node::Leaf { entries, .. } => {
                            (true, entries.into_iter().map(|e| e.0).collect())
                        }
                    });
                    page[NODE..NODE + bytes.len()].copy_from_slice(&bytes);
                    assert_eq!(node_keys(&page).ok(), decoded, "byte {at} = {v}");
                    let refused = decoded.is_none();
                    for probe in &probes {
                        let walk = || -> DbResult<usize> {
                            let mut walk = match NodeRef::parse(&bytes)? {
                                NodeRef::Internal { keys, .. } => keys,
                                NodeRef::Leaf { entries, .. } => entries,
                            };
                            if let Some(probe) = probe {
                                walk.partition_point(probe, |o| o == Ordering::Greater)?;
                            }
                            walk.end()
                        };
                        assert_eq!(walk().is_err(), refused, "byte {at} = {v}, {probe:?}");
                    }
                }
            }
        }
    }

    /// A TEXT key that is not UTF-8 fails every read of its node.
    #[test]
    fn a_text_key_that_is_not_utf8_is_refused() {
        let (bp, mut vd, t) = setup();
        for (rid, k) in ["ant", "bee", "cat"].into_iter().enumerate() {
            t.insert(&bp, &mut vd, &Value::Text(k.into()), rid as u64)
                .unwrap();
        }
        bp.with_page_mut(&mut vd, &t.file, t.root, |b| {
            let at = b.windows(3).position(|w| w == b"bee").unwrap();
            b[at] = 0xFF;
        })
        .unwrap();
        let ant = Value::Text("ant".into());
        assert!(t.search_eq(&bp, &mut vd, &ant).is_err());
        assert!(t.delete(&bp, &mut vd, &ant, 0).is_err());
        assert!(t.insert(&bp, &mut vd, &ant, 3).is_err());
        assert!(t.check(&bp, &mut vd).is_err());
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
