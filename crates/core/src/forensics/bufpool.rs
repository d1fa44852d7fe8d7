//! Buffer-pool dump forensics (§3 "Inferring reads").
//!
//! MySQL persists the buffer pool's page list in LRU order so restarts
//! skip the cache warm-up. The attacker parses this file from a disk
//! image, reconstructs the B+ tree from the (also on-disk) index file,
//! and reads off *which key ranges recent `SELECT`s traversed* — read
//! queries leaking from persistent state alone.

use minidb::storage::btree::node_keys;
use minidb::storage::PAGE_SIZE;
use minidb::value::Value;

/// One parsed dump line: a page reference in LRU order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DumpEntry {
    /// Tablespace file.
    pub file: String,
    /// Page number.
    pub page_no: u32,
}

/// Parses the `ib_buffer_pool` dump (most-recently-used first).
pub fn parse_dump(raw: &[u8]) -> Vec<DumpEntry> {
    let Ok(text) = std::str::from_utf8(raw) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|line| {
            let (file, page) = line.rsplit_once(' ')?;
            Some(DumpEntry {
                file: file.to_string(),
                page_no: page.parse().ok()?,
            })
        })
        .collect()
}

/// A reconstructed B+ tree node, as carved from an index file.
#[derive(Clone, Debug)]
pub struct CarvedNode {
    /// Page number within the index file.
    pub page_no: u32,
    /// Whether this is a leaf.
    pub is_leaf: bool,
    /// Keys present on the page (routing keys for internal nodes, entry
    /// keys for leaves).
    pub keys: Vec<Value>,
}

impl CarvedNode {
    /// Smallest key on the page.
    pub fn min_key(&self) -> Option<&Value> {
        self.keys.first()
    }

    /// Largest key on the page.
    pub fn max_key(&self) -> Option<&Value> {
        self.keys.last()
    }
}

/// Carves every B+ tree node out of a raw index file. Each page is read
/// by minidb's own node reader ([`node_keys`]): the layout is public
/// knowledge (the forensic analogue of InnoDB page carving), and a page
/// that holds no node, or a damaged one, is skipped.
pub fn carve_index_file(raw: &[u8]) -> Vec<CarvedNode> {
    let (pages, _) = raw.as_chunks::<PAGE_SIZE>();
    pages
        .iter()
        .enumerate()
        .filter_map(|(page_no, page)| {
            let (is_leaf, keys) = node_keys(page).ok()?;
            Some(CarvedNode {
                page_no: page_no as u32,
                is_leaf,
                keys,
            })
        })
        .collect()
}

/// The §3 read-inference attack: given the LRU dump and the raw index
/// file, report the key ranges of recently touched leaf pages, most
/// recent first.
pub fn recently_read_ranges(
    dump: &[DumpEntry],
    index_file_name: &str,
    index_file_raw: &[u8],
) -> Vec<(u32, Value, Value)> {
    let nodes = carve_index_file(index_file_raw);
    let by_page: std::collections::HashMap<u32, &CarvedNode> =
        nodes.iter().map(|n| (n.page_no, n)).collect();
    dump.iter()
        .filter(|e| e.file == index_file_name)
        .filter_map(|e| {
            let node = by_page.get(&e.page_no).filter(|n| n.is_leaf)?;
            let (min, max) = (node.min_key()?, node.max_key()?);
            Some((e.page_no, min.clone(), max.clone()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};
    use minidb::storage::DUMP_FILE;

    fn db_with_index() -> Db {
        let config = DbConfig {
            redo_capacity: 1 << 18,
            undo_capacity: 1 << 18,
            // Small pool: recency is meaningful.
            buffer_pool_pages: 64,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE s (k INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for chunk in (0..2000i64).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk.iter().map(|i| format!("({i}, 'v{i}')")).collect();
            conn.execute(&format!("INSERT INTO s VALUES {}", values.join(", ")))
                .unwrap();
        }
        db
    }

    #[test]
    fn parse_dump_round_trip() {
        let entries = parse_dump(b"a.ibd 3\nb.ibd 0\n");
        assert_eq!(
            entries,
            vec![
                DumpEntry {
                    file: "a.ibd".into(),
                    page_no: 3
                },
                DumpEntry {
                    file: "b.ibd".into(),
                    page_no: 0
                },
            ]
        );
        assert!(parse_dump(b"garbage without spaces\n").is_empty());
        assert!(parse_dump(&[0xFF, 0xFE]).is_empty());
    }

    #[test]
    fn carve_reconstructs_the_tree() {
        let db = db_with_index();
        db.shutdown();
        let disk = db.disk_image();
        let raw = disk.file("index_s_k.ibd").unwrap();
        let nodes = carve_index_file(raw);
        assert!(nodes.len() > 10, "expected a multi-page tree");
        let leaves: Vec<&CarvedNode> = nodes.iter().filter(|n| n.is_leaf).collect();
        // Every key 0..2000 appears in exactly one leaf.
        let mut all_keys: Vec<i64> = leaves
            .iter()
            .flat_map(|l| l.keys.iter())
            .map(|k| match k {
                Value::Int(i) => *i,
                _ => panic!("unexpected key type"),
            })
            .collect();
        all_keys.sort_unstable();
        assert_eq!(all_keys, (0..2000).collect::<Vec<i64>>());
    }

    #[test]
    fn dump_reveals_recent_select_ranges() {
        let db = db_with_index();
        let conn = db.connect("app");
        // Flood the pool with unrelated reads, then touch one narrow range.
        conn.execute("SELECT * FROM s WHERE v = 'none'").unwrap(); // Full scan.
        conn.execute("SELECT * FROM s WHERE k >= 1500 AND k <= 1510")
            .unwrap();
        db.shutdown();

        let disk = db.disk_image();
        let dump = parse_dump(disk.file(DUMP_FILE).unwrap());
        let ranges =
            recently_read_ranges(&dump, "index_s_k.ibd", disk.file("index_s_k.ibd").unwrap());
        assert!(!ranges.is_empty());
        // The most recent index leaf covers the queried range.
        let (_, min, max) = &ranges[0];
        let (Value::Int(lo), Value::Int(hi)) = (min, max) else {
            panic!()
        };
        assert!(
            *lo <= 1510 && *hi >= 1500,
            "hottest leaf [{lo}, {hi}] should overlap the queried range"
        );
    }
}
