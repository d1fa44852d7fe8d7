//! Scan-path benchmarks over the `scanbench` fixture, one per access
//! path of the scan kernel: full scans vs zone-map-pruned scans at 1%
//! selectivity over an unindexed column, an equality nothing can prune
//! (every row filtered, one kept: the evaluator's per-row cost), and a
//! 200-row primary-key range (index walk + page-batched heap fetch).

use std::time::Duration;

use bench::scanbench;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("scan");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(3));
    g.warm_up_time(Duration::from_millis(500));

    for &rows in &[10_000usize, 100_000] {
        let full_db = scanbench::build_db(rows, false);
        let full_conn = full_db.connect("bench");
        let mut q = 0usize;
        g.bench_with_input(BenchmarkId::new("full", rows), &rows, |b, &rows| {
            b.iter(|| {
                // Rotating literals defeat any caching between runs.
                full_conn.execute(&scanbench::query(rows, q)).unwrap();
                q += 1;
            });
        });

        let mut q = 0usize;
        g.bench_with_input(BenchmarkId::new("full_eq", rows), &rows, |b, &rows| {
            b.iter(|| {
                full_conn.execute(&scanbench::eq_query(rows, q)).unwrap();
                q += 1;
            });
        });

        let pruned_db = scanbench::build_db(rows, true);
        let pruned_conn = pruned_db.connect("bench");
        let mut q = 0usize;
        g.bench_with_input(BenchmarkId::new("pruned", rows), &rows, |b, &rows| {
            b.iter(|| {
                pruned_conn.execute(&scanbench::query(rows, q)).unwrap();
                q += 1;
            });
        });

        let mut q = 0usize;
        g.bench_with_input(BenchmarkId::new("pk_range", rows), &rows, |b, &rows| {
            b.iter(|| {
                let sql = scanbench::pk_range_query(rows, q);
                pruned_conn.execute(&sql).unwrap();
                q += 1;
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_scan);
criterion_main!(benches);
