//! Telemetry overhead benchmarks.
//!
//! The design target: a *disabled* registry's record path is one relaxed
//! atomic load, and an *enabled* counter increment is one relaxed
//! fetch-add — so instrumenting the engine hot paths costs well under 5%
//! even for cache-hit point queries. The `engine` group measures that
//! end-to-end: the same query workload against `telemetry_enabled` on
//! vs off.

use bench::timeit;
use mdb_telemetry::Registry;
use minidb::engine::{Db, DbConfig};

fn bench_record_path() {
    let enabled = Registry::new();
    let disabled = Registry::new_disabled();
    let c_on = enabled.counter("bench.c");
    let c_off = disabled.counter("bench.c");
    let h_on = enabled.histogram("bench.h");
    let h_off = disabled.histogram("bench.h");

    timeit("telemetry/record/counter/enabled", || c_on.inc());
    timeit("telemetry/record/counter/disabled", || c_off.inc());
    let mut i = 0u64;
    timeit("telemetry/record/histogram/enabled", || {
        i = i.wrapping_add(2_654_435_761);
        h_on.record(i & 0xFFFF);
    });
    timeit("telemetry/record/histogram/disabled", || {
        i = i.wrapping_add(2_654_435_761);
        h_off.record(i & 0xFFFF);
    });
}

fn query_db(telemetry_enabled: bool) -> Db {
    let config = DbConfig {
        redo_capacity: 1 << 20,
        undo_capacity: 1 << 20,
        telemetry_enabled,
        ..DbConfig::default()
    };
    let db = Db::open(config);
    let conn = db.connect("bench");
    conn.execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    for i in 0..64 {
        conn.execute(&format!("INSERT INTO kv VALUES ({i}, 'value-{i}')"))
            .unwrap();
    }
    db
}

fn bench_engine_overhead() {
    for (label, enabled) in [("enabled", true), ("disabled", false)] {
        let db = query_db(enabled);
        let conn = db.connect("bench");
        let mut i = 0u64;
        timeit(&format!("telemetry/engine/point-select/{label}"), || {
            i = (i + 1) % 64;
            conn.execute(&format!("SELECT * FROM kv WHERE id = {i}"))
                .unwrap()
        });
    }
}

fn bench_snapshot_export() {
    let r = Registry::new();
    for i in 0..100 {
        r.counter(&format!("bench.counter.{i}")).add(i);
    }
    for i in 0..10 {
        let h = r.histogram(&format!("bench.hist.{i}"));
        for v in 0..1000u64 {
            h.record(v * v);
        }
    }
    timeit("telemetry/export/snapshot", || r.snapshot());
    let snap = r.snapshot();
    timeit("telemetry/export/to_json", || snap.to_json());
}

fn main() {
    bench_record_path();
    bench_engine_overhead();
    bench_snapshot_export();
}
