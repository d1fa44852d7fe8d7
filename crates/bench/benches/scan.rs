//! Scan-path benchmarks over the `scanbench` fixture, one per access
//! path of the scan kernel: full scans vs zone-map-pruned scans at 1%
//! selectivity over an unindexed column, an equality nothing can prune
//! (every row filtered, one kept: the evaluator's per-row cost), and a
//! 200-row primary-key range (index walk + page-batched heap fetch).

use bench::{scanbench, timeit};

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
    }
}
