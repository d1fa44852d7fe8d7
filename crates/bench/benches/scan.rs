//! Scan-path benchmarks over the `scanbench` fixture, one per access
//! path of the scan kernel: full scans vs zone-map-pruned scans at 1%
//! selectivity over an unindexed column, an equality nothing can prune
//! (every row filtered, one kept: the evaluator's per-row cost), a TEXT
//! equality that keeps nothing (the same on a TEXT column), and a
//! 200-row primary-key range (index walk + page-batched heap fetch),
//! warm and on a pool smaller than the index, where nearly every page
//! it reads faults. Then the buffer pool alone: a hit, a run of 50
//! same-page accesses under one latch, and a fault that evicts from a
//! full shard.

use bench::{scanbench, timeit};
use minidb::storage::ShardedBufferPool;
use minidb::vdisk::VDisk;

fn main() {
    for rows in [10_000usize, 100_000] {
        let full_db = scanbench::build_db(rows, false);
        let full_conn = full_db.connect("bench");
        // Rotating literals defeat any caching between runs.
        let mut q = 0usize;
        timeit(&format!("scan/full/{rows}"), || {
            full_conn.execute(&scanbench::query(rows, q)).unwrap();
            q += 1;
        });
        timeit(&format!("scan/full_eq/{rows}"), || {
            full_conn.execute(&scanbench::eq_query(rows, q)).unwrap();
            q += 1;
        });
        timeit(&format!("scan/full_text_eq/{rows}"), || {
            full_conn.execute(&scanbench::text_eq_query(q)).unwrap();
            q += 1;
        });

        let pruned_db = scanbench::build_db(rows, true);
        let pruned_conn = pruned_db.connect("bench");
        timeit(&format!("scan/pruned/{rows}"), || {
            pruned_conn.execute(&scanbench::query(rows, q)).unwrap();
            q += 1;
        });
        timeit(&format!("scan/pk_range/{rows}"), || {
            let sql = scanbench::pk_range_query(rows, q);
            pruned_conn.execute(&sql).unwrap();
            q += 1;
        });

        let cold_db = scanbench::build_db_pooled(rows, true, scanbench::COLD_POOL_PAGES);
        let cold_conn = cold_db.connect("bench");
        timeit(&format!("scan/pk_range_cold/{rows}"), || {
            let sql = scanbench::pk_range_query(rows, q);
            cold_conn.execute(&sql).unwrap();
            q += 1;
        });
    }

    // One shard of four frames over eight pages: page 0 stays hot for
    // the hits, and a round-robin over all eight misses every time.
    const FILE: &str = "t.ibd";
    let pool = ShardedBufferPool::new(4, 1);
    let mut disk = VDisk::new();
    for _ in 0..8 {
        pool.allocate_page(&mut disk, FILE);
    }
    timeit("pool/hit", || {
        pool.with_page(&mut disk, FILE, 0, |b| b[0]).unwrap()
    });
    timeit("pool/run", || {
        pool.with_page_run(&mut disk, FILE, 0, |b| (b[0], 50))
            .unwrap()
    });
    let mut page = 0;
    timeit("pool/fault", || {
        page = (page + 1) % 8;
        pool.with_page(&mut disk, FILE, page, |b| b[0]).unwrap()
    });
}
