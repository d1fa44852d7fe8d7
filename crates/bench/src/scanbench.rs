//! Shared scan-benchmark fixture: the workload behind `benches/scan.rs`
//! and E16's pruned-scan table.
//!
//! One table, rows inserted in `ts` order so consecutive pages hold
//! disjoint `ts` ranges (the clustered-by-arrival shape zone maps are
//! built for — think an events or audit table), then 1%-selectivity
//! range scans over the unindexed `ts` column. The pruned run consults
//! the page synopses; the full run (`zone_maps_enabled = false`)
//! decodes every page.

use std::time::Instant;

use minidb::engine::{Db, DbConfig};
use minidb::storage::PAGE_SIZE;

/// Gap between consecutive `ts` values (a sparse, monotone key, like
/// millisecond timestamps).
pub const STEP: i64 = 10;

/// Builds the scan fixture: `rows` rows of `(id, ts, note)` with
/// `ts = id * STEP`, inserted in batches, query cache off so every
/// SELECT exercises the executor.
pub fn build_db(rows: usize, zone_maps: bool) -> Db {
    build_db_pooled(rows, zone_maps, 2048)
}

/// Buffer-pool pages of the cold fixture: fewer than the primary-key
/// index holds at 10k rows (~320), so a [`pk_range_query`] faults
/// nearly every page it reads.
pub const COLD_POOL_PAGES: usize = 64;

/// [`build_db`] with a buffer pool of `pool_pages` pages.
pub fn build_db_pooled(rows: usize, zone_maps: bool, pool_pages: usize) -> Db {
    let config = DbConfig {
        redo_capacity: 16 << 20,
        undo_capacity: 16 << 20,
        buffer_pool_pages: pool_pages,
        query_cache_enabled: false,
        zone_maps_enabled: zone_maps,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("bench");
    conn.execute("CREATE TABLE events (id INT PRIMARY KEY, ts INT, note TEXT)")
        .unwrap();
    for chunk in (0..rows as i64).collect::<Vec<_>>().chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {}, 'evt-{i}')", i * STEP))
            .collect();
        conn.execute(&format!("INSERT INTO events VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// The `q`-th 1%-selectivity range predicate over the fixture's `ts`
/// domain, rotating the window so runs don't hit a warmed page set.
pub fn query(rows: usize, q: usize) -> String {
    let span = rows as i64 * STEP;
    let width = span / 100;
    let lo = (q as i64 * 37 * width) % (span - width);
    format!(
        "SELECT id, ts FROM events WHERE ts >= {lo} AND ts < {}",
        lo + width
    )
}

/// The `q`-th equality predicate over `ts`: one row out of `rows`. On
/// the zone-maps-off fixture nothing can prune it, so every row's `ts`
/// is compared — the per-row cost of the predicate evaluator, with no
/// result to materialize.
pub fn eq_query(rows: usize, q: usize) -> String {
    let hit = (q * 7919 % rows) as i64 * STEP;
    format!("SELECT id, ts FROM events WHERE ts = {hit}")
}

/// The `q`-th TEXT equality over `note` that no row satisfies: every
/// row's `note` is compared and none kept — the evaluator's per-row
/// cost on a TEXT column.
pub fn text_eq_query(q: usize) -> String {
    format!("SELECT id FROM events WHERE note = 'evt-none-{q}'")
}

/// Keys per page of the fixture's primary-key index file, leaves and
/// internal nodes alike. `id` arrives in ascending order, so every leaf
/// but the last is full: 32 / (1 + 1/32 + …) ≈ 31.
pub fn index_keys_per_page(db: &Db, rows: usize) -> f64 {
    let index = db
        .read_server_file("index_events_id.ibd")
        .unwrap_or_default();
    rows as f64 / (index.len() / PAGE_SIZE).max(1) as f64
}

/// Rows a [`pk_range_query`] returns.
pub const PK_RANGE_ROWS: usize = 200;

/// The `q`-th [`PK_RANGE_ROWS`]-row primary-key range: a B+ tree descent
/// and leaf walk, then the heap rows, which sit on one or two pages.
pub fn pk_range_query(rows: usize, q: usize) -> String {
    let lo = q * 7919 % (rows - PK_RANGE_ROWS);
    format!(
        "SELECT id, ts, note FROM events WHERE id >= {lo} AND id < {}",
        lo + PK_RANGE_ROWS
    )
}

/// One measured scan configuration.
#[derive(Clone, Debug)]
pub struct ScanMeasurement {
    /// Logical scan throughput: table rows × queries / wall time.
    pub rows_per_sec: f64,
    /// Pages the zone maps let the executor skip, summed over queries.
    pub pages_pruned: u64,
    /// Pages actually decoded, summed over queries.
    pub pages_decoded: u64,
    /// Rows returned, summed over queries (a correctness cross-check).
    pub rows_returned: u64,
}

/// Runs `queries` range scans against `db` and reads the pruning
/// counters off the engine's telemetry registry.
pub fn measure(db: &Db, rows: usize, queries: usize) -> ScanMeasurement {
    let conn = db.connect("bench");
    let before = db.metrics_snapshot();
    let mut rows_returned = 0u64;
    let start = Instant::now();
    for q in 0..queries {
        rows_returned += conn.execute(&query(rows, q)).unwrap().rows.len() as u64;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let after = db.metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
    ScanMeasurement {
        rows_per_sec: (rows as f64 * queries as f64) / elapsed.max(1e-9),
        pages_pruned: delta("scan.pages_pruned"),
        pages_decoded: delta("scan.pages_decoded"),
        rows_returned,
    }
}

/// Full-vs-pruned comparison over a fresh pair of fixtures.
#[derive(Clone, Debug)]
pub struct ScanComparison {
    /// The materialize-everything baseline (`zone_maps_enabled = false`).
    pub full: ScanMeasurement,
    /// The zone-map-pruned run.
    pub pruned: ScanMeasurement,
    /// [`index_keys_per_page`] of the fixture.
    pub index_keys_per_page: f64,
}

impl ScanComparison {
    /// Pruned-over-full throughput ratio.
    pub fn speedup(&self) -> f64 {
        self.pruned.rows_per_sec / self.full.rows_per_sec.max(1e-9)
    }

    /// Fraction of consulted pages the zone maps skipped.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.pruned.pages_pruned + self.pruned.pages_decoded;
        if total == 0 {
            return 0.0;
        }
        self.pruned.pages_pruned as f64 / total as f64
    }
}

/// Builds both fixtures, runs both variants, and checks they return the
/// same rows.
pub fn compare(rows: usize, queries: usize) -> ScanComparison {
    let full_db = build_db(rows, false);
    let full = measure(&full_db, rows, queries);
    let pruned_db = build_db(rows, true);
    let pruned = measure(&pruned_db, rows, queries);
    assert_eq!(
        full.rows_returned, pruned.rows_returned,
        "pruned scan must return exactly the full scan's rows"
    );
    ScanComparison {
        full,
        pruned,
        index_keys_per_page: index_keys_per_page(&pruned_db, rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruned_matches_full_and_skips_pages() {
        let cmp = compare(5_000, 6);
        assert!(cmp.pruned.rows_returned > 0);
        assert_eq!(cmp.full.pages_pruned, 0, "zone maps off: nothing pruned");
        assert!(cmp.pruned.pages_pruned > 0, "{cmp:?}");
        assert!(
            cmp.pruned_fraction() > 0.5,
            "1% selectivity should skip most pages: {cmp:?}"
        );
        assert!(cmp.index_keys_per_page >= 30.0, "{cmp:?}");
    }
}
