//! Volatile caches: the query cache and the adaptive hash index (§5).

use std::collections::HashMap;
use std::sync::Arc;

use crate::heap::HeapPtr;
use crate::storage::PageKey;
use crate::value::RowBlock;

/// Query cache capacity of an engine, in entries.
pub const QUERY_CACHE_ENTRIES: usize = 64;
/// Adaptive-hash-index hotness threshold of an engine, in page accesses.
pub const ADAPTIVE_HASH_THRESHOLD: u64 = 8;

/// A cached result set. Its rows are the statement's own row block,
/// shared: byte for byte the rows of a `Result` reply. Caching a result
/// and hitting it are each a refcount bump; nothing is encoded or
/// decoded under the engine lock.
#[derive(Debug)]
pub struct CachedResult {
    /// Result column names.
    pub columns: Vec<String>,
    /// The rows.
    pub rows: Arc<RowBlock>,
}

struct CacheEntry {
    result: CachedResult,
    /// Tables the query read (for invalidation).
    tables: Vec<String>,
    /// Arena copy of the query text (freed on eviction — leaving residue).
    text_ptr: HeapPtr,
    last_used: u64,
}

/// The MySQL-style query cache: an internal map from `SELECT` text to its
/// full result set. It is strictly internal — not reachable through any
/// SQL interface — but is plainly visible to a whole-memory snapshot
/// attacker, queries and results both (§5).
pub struct QueryCache {
    /// Whether caching is enabled.
    pub enabled: bool,
    capacity: usize,
    entries: HashMap<String, CacheEntry>,
    tick: u64,
    /// Statistics: cache hits.
    pub hits: u64,
    /// Statistics: cache misses.
    pub misses: u64,
}

impl QueryCache {
    /// Creates a cache holding at most `capacity` entries.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        QueryCache {
            enabled,
            capacity: capacity.max(1),
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up a cached result for the exact query text.
    pub fn get(&mut self, sql: &str) -> Option<&CachedResult> {
        if !self.enabled {
            return None;
        }
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(sql) {
            Some(e) => {
                e.last_used = tick;
                self.hits += 1;
                Some(&e.result)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts a result; returns the arena pointers of any evicted entries
    /// so the engine can free them (not zero them!). A disabled cache
    /// keeps nothing.
    #[must_use = "the evicted statement texts must be freed"]
    pub fn insert(
        &mut self,
        sql: &str,
        tables: Vec<String>,
        columns: &[String],
        rows: Arc<RowBlock>,
        text_ptr: HeapPtr,
    ) -> Vec<HeapPtr> {
        if !self.enabled {
            return vec![text_ptr];
        }
        let result = CachedResult {
            columns: columns.to_vec(),
            rows,
        };
        self.tick += 1;
        let mut freed = Vec::new();
        if let Some(old) = self.entries.remove(sql) {
            freed.push(old.text_ptr);
        }
        while self.entries.len() >= self.capacity {
            let oldest = self.entries.iter().min_by_key(|(_, e)| e.last_used);
            let Some(victim) = oldest.map(|(k, _)| k.clone()) else {
                break;
            };
            freed.extend(self.entries.remove(&victim).map(|e| e.text_ptr));
        }
        self.entries.insert(
            sql.to_string(),
            CacheEntry {
                result,
                tables,
                text_ptr,
                last_used: self.tick,
            },
        );
        freed
    }

    /// Invalidates every entry that read `table`; returns freed pointers.
    #[must_use = "the invalidated statement texts must be freed"]
    pub fn invalidate_table(&mut self, table: &str) -> Vec<HeapPtr> {
        let keys: Vec<String> = self
            .entries
            .iter()
            .filter(|(_, e)| e.tables.iter().any(|t| t == table))
            .map(|(k, _)| k.clone())
            .collect();
        keys.iter()
            .filter_map(|k| self.entries.remove(k))
            .map(|e| e.text_ptr)
            .collect()
    }

    /// Cached query texts (what a memory snapshot reveals).
    pub fn cached_queries(&self) -> Vec<String> {
        let mut v: Vec<String> = self.entries.keys().cloned().collect();
        v.sort();
        v
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops everything (restart); returns freed pointers.
    #[must_use = "the cached statement texts must be freed"]
    pub fn clear(&mut self) -> Vec<HeapPtr> {
        self.entries.drain().map(|(_, e)| e.text_ptr).collect()
    }
}

/// The adaptive hash index: InnoDB builds a hash index over the values of
/// pages that are accessed often, so a memory snapshot reveals *which key
/// values were searched frequently* (§5).
pub struct AdaptiveHash {
    /// Accesses of one page before its searched keys get indexed.
    pub threshold: u64,
    counts: HashMap<PageKey, u64>,
    /// Encoded search key → the page it resolved to.
    index: HashMap<Vec<u8>, PageKey>,
}

impl AdaptiveHash {
    /// Creates the structure with an access-count threshold.
    pub fn new(threshold: u64) -> Self {
        AdaptiveHash {
            threshold: threshold.max(1),
            counts: HashMap::new(),
            index: HashMap::new(),
        }
    }

    /// Records that a search for `key_bytes` landed on `page`. Once the
    /// page is hot (≥ threshold accesses), the searched key is indexed.
    pub fn record_search(&mut self, page: PageKey, key_bytes: &[u8]) {
        let c = self.counts.entry(page.clone()).or_insert(0);
        *c += 1;
        if *c >= self.threshold {
            self.index.insert(key_bytes.to_vec(), page);
        }
    }

    /// The indexed (hot) keys — pure leakage to a memory snapshot.
    pub fn indexed_keys(&self) -> Vec<(&[u8], &PageKey)> {
        let mut v: Vec<(&[u8], &PageKey)> =
            self.index.iter().map(|(k, p)| (k.as_slice(), p)).collect();
        v.sort_by(|a, b| a.0.cmp(b.0));
        v
    }

    /// Access count of a page.
    pub fn page_count(&self, page: &PageKey) -> u64 {
        self.counts.get(page).copied().unwrap_or(0)
    }

    /// Drops everything (restart).
    pub fn clear(&mut self) {
        self.counts.clear();
        self.index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapArena;
    use crate::value::Value;

    fn cols() -> Vec<String> {
        vec!["a".into()]
    }

    fn rows() -> Arc<RowBlock> {
        Arc::new(RowBlock::from_rows(&[vec![Value::Int(1)]]))
    }

    #[test]
    fn hit_and_miss() {
        let mut h = HeapArena::new();
        let mut qc = QueryCache::new(true, 4);
        assert!(qc.get("SELECT 1").is_none());
        let ptr = h.alloc_str("SELECT 1");
        let block = rows();
        let _ = qc.insert(
            "SELECT 1",
            vec!["t".into()],
            &cols(),
            Arc::clone(&block),
            ptr,
        );
        let hit = qc.get("SELECT 1").unwrap();
        assert_eq!(hit.columns, cols());
        assert!(Arc::ptr_eq(&hit.rows, &block), "a hit shares the block");
        assert_eq!((qc.hits, qc.misses), (1, 1));
    }

    #[test]
    fn disabled_cache_frees_immediately() {
        let mut h = HeapArena::new();
        let mut qc = QueryCache::new(false, 4);
        let ptr = h.alloc_str("SELECT 1");
        let freed = qc.insert("SELECT 1", vec![], &cols(), rows(), ptr);
        assert_eq!(freed, vec![ptr]);
        assert!(qc.get("SELECT 1").is_none());
    }

    #[test]
    fn lru_eviction_returns_pointers() {
        let mut h = HeapArena::new();
        let mut qc = QueryCache::new(true, 2);
        let p1 = h.alloc_str("q1");
        let p2 = h.alloc_str("q2");
        let p3 = h.alloc_str("q3");
        let _ = qc.insert("q1", vec![], &cols(), rows(), p1);
        let _ = qc.insert("q2", vec![], &cols(), rows(), p2);
        qc.get("q1"); // q1 now more recent than q2.
        let freed = qc.insert("q3", vec![], &cols(), rows(), p3);
        assert_eq!(freed, vec![p2]);
        assert_eq!(qc.cached_queries(), vec!["q1", "q3"]);
    }

    #[test]
    fn table_invalidation() {
        let mut h = HeapArena::new();
        let mut qc = QueryCache::new(true, 8);
        let p1 = h.alloc_str("SELECT * FROM a");
        let p2 = h.alloc_str("SELECT * FROM b");
        let _ = qc.insert("SELECT * FROM a", vec!["a".into()], &cols(), rows(), p1);
        let _ = qc.insert("SELECT * FROM b", vec!["b".into()], &cols(), rows(), p2);
        let freed = qc.invalidate_table("a");
        assert_eq!(freed, vec![p1]);
        assert!(qc.get("SELECT * FROM a").is_none());
        assert!(qc.get("SELECT * FROM b").is_some());
    }

    #[test]
    fn adaptive_hash_indexes_hot_keys() {
        let mut ah = AdaptiveHash::new(3);
        let page = ("idx.ibd".to_string(), 5u32);
        ah.record_search(page.clone(), b"key-A");
        ah.record_search(page.clone(), b"key-A");
        assert!(ah.indexed_keys().is_empty(), "below threshold");
        ah.record_search(page.clone(), b"key-A");
        let keys = ah.indexed_keys();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, b"key-A");
        assert_eq!(ah.page_count(&page), 3);
        ah.clear();
        assert!(ah.indexed_keys().is_empty());
    }
}
