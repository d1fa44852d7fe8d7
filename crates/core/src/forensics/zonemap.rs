//! Zone-map forensics (§3 "reading the metadata, not the data").
//!
//! The scan pruner persists a per-page synopsis — min/max per indexable
//! column plus a live-row count — in every heap page header, and keeps
//! an in-memory mirror of the same. Both surfaces leak: the page header
//! rides in any disk image, the mirror in any memory image. Crucially
//! the bounds are *plaintext even when the row payloads are not*: a
//! CryptDB-style deployment that stores ciphertext cells still lets the
//! engine zone-map the range-queryable column, so an attacker with a
//! cold snapshot brackets the column's values page by page without
//! touching a single ciphertext.

use std::collections::BTreeMap;

use minidb::snapshot::{DiskImage, MemoryImage};
use minidb::storage::{Page, PageSynopsis, PAGE_SIZE};

/// Where a recovered synopsis was carved from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneMapSource {
    /// Parsed out of a flushed heap page header in the disk image.
    Disk,
    /// Read from the heap's in-memory mirror in the memory image.
    Memory,
    /// Present in both, byte-for-byte agreeing or not.
    Both,
}

/// One page's recovered zone map.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredZoneMap {
    /// Tablespace file the page belongs to.
    pub file: String,
    /// Page number within the file.
    pub page_no: u32,
    /// Live rows the synopsis reflects.
    pub rows: u64,
    /// Per-column `(ordinal, min, max)` plaintext bounds.
    pub columns: Vec<(u16, i64, i64)>,
    /// Which snapshot surface(s) yielded it.
    pub source: ZoneMapSource,
}

/// Carves the synopsis out of one raw 16 KiB page, if the valid bit is
/// set and the entries pass sanity checks (`ncols` within capacity,
/// `min <= max` per entry). The header is read by minidb's own page
/// reader ([`Page::synopsis`]): the layout is public knowledge, and
/// one reader of it is the one the engine prunes with.
pub fn carve_page(page: &[u8]) -> Option<PageSynopsis> {
    Page::new(<&[u8; PAGE_SIZE]>::try_from(page).ok()?).synopsis()
}

/// Carves every valid page synopsis out of the heap tablespace files in
/// a disk image (`table_*.ibd`; index files use a different layout and
/// are skipped).
pub fn carve_disk(disk: &DiskImage) -> Vec<RecoveredZoneMap> {
    let mut out = Vec::new();
    for (name, data) in &disk.files {
        if !name.starts_with("table_") || !name.ends_with(".ibd") {
            continue;
        }
        for (page_no, page) in data.chunks(PAGE_SIZE).enumerate() {
            if let Some(syn) = carve_page(page) {
                out.push(RecoveredZoneMap {
                    file: name.clone(),
                    page_no: page_no as u32,
                    rows: u64::from(syn.rows),
                    columns: syn.cols().iter().map(|c| (c.col, c.min, c.max)).collect(),
                    source: ZoneMapSource::Disk,
                });
            }
        }
    }
    out
}

/// Reads the heaps' in-memory zone-map mirrors out of a memory image.
pub fn from_memory(memory: &MemoryImage) -> Vec<RecoveredZoneMap> {
    memory
        .zone_maps
        .iter()
        .map(|z| RecoveredZoneMap {
            file: z.file.clone(),
            page_no: z.page_no,
            rows: z.rows,
            columns: z.columns.clone(),
            source: ZoneMapSource::Memory,
        })
        .collect()
}

/// Recovers zone maps from whatever surfaces the attacker holds,
/// deduplicated by `(file, page)`. A page present in both surfaces is
/// reported once with [`ZoneMapSource::Both`], preferring the memory
/// mirror's bounds (it reflects un-flushed DML the disk page missed).
pub fn recover(disk: Option<&DiskImage>, memory: Option<&MemoryImage>) -> Vec<RecoveredZoneMap> {
    let mut by_page: BTreeMap<(String, u32), RecoveredZoneMap> = BTreeMap::new();
    if let Some(d) = disk {
        for r in carve_disk(d) {
            by_page.insert((r.file.clone(), r.page_no), r);
        }
    }
    if let Some(m) = memory {
        for mut r in from_memory(m) {
            let key = (r.file.clone(), r.page_no);
            if by_page.contains_key(&key) {
                r.source = ZoneMapSource::Both;
            }
            by_page.insert(key, r);
        }
    }
    by_page.into_values().collect()
}

/// Merges closed intervals `[lo, hi]` into a sorted, disjoint union.
pub fn union_intervals(mut intervals: Vec<(i64, i64)>) -> Vec<(i64, i64)> {
    intervals.sort_unstable();
    let mut out: Vec<(i64, i64)> = Vec::new();
    for (lo, hi) in intervals {
        match out.last_mut() {
            // `hi + 1`: adjacent intervals merge too ([0,4] + [5,9]).
            Some(last) if lo <= last.1.saturating_add(1) => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

/// The fraction of a value domain of `domain_size` points that the
/// recovered synopses bracket for column `col`: the measure of the union
/// of all per-page `[min, max]` ranges, over the domain size. This is
/// the attacker's *direct plaintext recovery* from metadata alone — no
/// ciphertexts consulted, no query workload needed.
pub fn bracket_fraction(pages: &[RecoveredZoneMap], col: u16, domain_size: u128) -> f64 {
    if domain_size == 0 {
        return 0.0;
    }
    let intervals: Vec<(i64, i64)> = pages
        .iter()
        .filter(|p| p.rows > 0)
        .flat_map(|p| p.columns.iter())
        .filter(|(c, _, _)| *c == col)
        .map(|&(_, min, max)| (min, max))
        .collect();
    let covered: u128 = union_intervals(intervals)
        .iter()
        .map(|&(lo, hi)| (hi as i128 - lo as i128 + 1) as u128)
        .sum();
    (covered.min(domain_size) as f64) / (domain_size as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::engine::{Db, DbConfig};

    fn db_with_rows() -> Db {
        let config = DbConfig {
            redo_capacity: 1 << 18,
            undo_capacity: 1 << 18,
            ..DbConfig::default()
        };
        let db = Db::open(config);
        let conn = db.connect("app");
        conn.execute("CREATE TABLE m (id INT PRIMARY KEY, ts INT, note TEXT)")
            .unwrap();
        for chunk in (0..800i64).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk
                .iter()
                .map(|i| format!("({i}, {}, 'n{i}')", i * 10))
                .collect();
            conn.execute(&format!("INSERT INTO m VALUES {}", values.join(", ")))
                .unwrap();
        }
        db
    }

    #[test]
    fn carves_flushed_heap_pages() {
        let db = db_with_rows();
        db.shutdown();
        let disk = db.disk_image();
        let pages = carve_disk(&disk);
        assert!(
            pages.len() >= 2,
            "expected a multi-page heap, got {}",
            pages.len()
        );
        // Column 1 (ts) spans 0..=7990 across the recovered pages.
        let lo = pages
            .iter()
            .flat_map(|p| p.columns.iter())
            .filter(|(c, _, _)| *c == 1)
            .map(|&(_, min, _)| min)
            .min()
            .unwrap();
        let hi = pages
            .iter()
            .flat_map(|p| p.columns.iter())
            .filter(|(c, _, _)| *c == 1)
            .map(|&(_, _, max)| max)
            .max()
            .unwrap();
        assert_eq!((lo, hi), (0, 7990));
    }

    #[test]
    fn memory_mirror_matches_disk_after_flush() {
        let db = db_with_rows();
        db.shutdown();
        let mem = db.memory_image();
        let disk = db.disk_image();
        let merged = recover(Some(&disk), Some(&mem));
        assert!(!merged.is_empty());
        // Everything was flushed, so every page shows up on both surfaces.
        assert!(merged.iter().all(|p| p.source == ZoneMapSource::Both));
    }

    #[test]
    fn memory_only_capture_still_recovers() {
        let db = db_with_rows();
        // No shutdown/checkpoint: dirty pages may never have hit disk,
        // but the mirror leaks through the memory image regardless.
        let mem = db.memory_image();
        let pages = recover(None, Some(&mem));
        assert!(!pages.is_empty());
        assert!(pages.iter().all(|p| p.source == ZoneMapSource::Memory));
    }

    #[test]
    fn union_merges_overlap_and_adjacency() {
        assert_eq!(
            union_intervals(vec![(5, 9), (0, 4), (20, 30), (25, 40)]),
            vec![(0, 9), (20, 40)]
        );
        assert!(union_intervals(vec![]).is_empty());
    }

    #[test]
    fn bracket_fraction_measures_recovered_ranges() {
        let pages = vec![RecoveredZoneMap {
            file: "table_m.ibd".into(),
            page_no: 0,
            rows: 10,
            columns: vec![(1, 0, (1 << 31) - 1)],
            source: ZoneMapSource::Disk,
        }];
        let f = bracket_fraction(&pages, 1, 1u128 << 32);
        assert!((f - 0.5).abs() < 1e-9, "got {f}");
        // Untracked column: nothing bracketed.
        assert_eq!(bracket_fraction(&pages, 7, 1u128 << 32), 0.0);
        // Empty pages don't count.
        let empty = vec![RecoveredZoneMap {
            rows: 0,
            ..pages[0].clone()
        }];
        assert_eq!(bracket_fraction(&empty, 1, 1u128 << 32), 0.0);
    }

    #[test]
    fn rejects_garbage_pages() {
        const HDR_SYN_VALID: usize = 12;
        const HDR_SYN_NCOLS: usize = 13;
        const HDR_SYN_ENTRIES: usize = 16;
        assert!(carve_page(&[0u8; 32]).is_none());
        let mut page = vec![0u8; PAGE_SIZE];
        page[HDR_SYN_VALID] = 1;
        page[HDR_SYN_NCOLS] = 9; // Over capacity.
        assert!(carve_page(&page).is_none());
        page[HDR_SYN_NCOLS] = 1;
        // min > max in the first entry.
        page[HDR_SYN_ENTRIES + 2..HDR_SYN_ENTRIES + 10].copy_from_slice(&5i64.to_le_bytes());
        page[HDR_SYN_ENTRIES + 10..HDR_SYN_ENTRIES + 18].copy_from_slice(&1i64.to_le_bytes());
        assert!(carve_page(&page).is_none());
    }
}
