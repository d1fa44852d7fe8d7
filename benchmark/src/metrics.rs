//! The metric names and units the benchmark reports, and the report
//! itself. `BENCHMARK.json` lists the same names (a test holds the two
//! together) and adds direction and bound.

use std::collections::BTreeMap;

use mdb_telemetry::json::Writer;

/// End-to-end metrics: `(name, unit)`. Measured with spans off and
/// printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p75_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
    ("log_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics: `(name, unit)`, the prefix naming the module.
/// Printed by `--trace 1`; a layer the workload does not exercise
/// reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("client.latency_p50_us", "us"),
    ("client.latency_p90_us", "us"),
    ("client.latency_p99_us", "us"),
    ("client.latency_p999_us", "us"),
    ("client.samples", "count"),
    ("client.read_p50_us", "us"),
    ("client.write_p50_us", "us"),
    ("client.txn_p50_us", "us"),
    ("server.wire.encode_req_ns", "ns"),
    ("server.wire.decode_req_ns", "ns"),
    ("server.wire.encode_res_ns", "ns"),
    ("server.wire.decode_res_ns", "ns"),
    ("server.wire.res_bytes_per_op", "bytes"),
    ("server.session.residual_us", "us"),
    ("server.scaling_efficiency", "ratio"),
    ("minidb.sql.parse_ns", "ns"),
    ("minidb.sql.query_cache_hit_ratio", "ratio"),
    ("minidb.engine.execute_us", "us"),
    ("minidb.engine.execute_self_us", "us"),
    ("minidb.engine.rows_examined_per_row", "ratio"),
    ("minidb.storage.bufpool_hit_ratio", "ratio"),
    ("minidb.storage.bufpool_misses_per_op", "count"),
    ("minidb.storage.bufpool_evictions_per_op", "count"),
    ("minidb.storage.bufpool_writebacks_per_op", "count"),
    ("minidb.storage.scan_pages_decoded_per_op", "count"),
    ("minidb.storage.scan_pages_pruned_ratio", "ratio"),
    ("minidb.wal.redo_bytes_per_op", "bytes"),
    ("minidb.wal.undo_bytes_per_op", "bytes"),
    ("minidb.wal.binlog_bytes_per_op", "bytes"),
    ("minidb.wal.fsyncs_per_commit", "ratio"),
    ("minidb.wal.redo_wraps", "count"),
    ("minidb.group_commit.batch_size_mean", "count"),
    ("minidb.group_commit.waits_per_commit", "ratio"),
    ("crypto.logenc.seal_ns_per_byte", "ns"),
    ("crypto.logenc.open_ns_per_byte", "ns"),
    ("minidb.mvcc.versions_per_write", "ratio"),
    ("minidb.mvcc.vacuum_us", "us"),
    ("minidb.heap.allocs_per_op", "count"),
    ("minidb.heap.alloc_bytes_per_op", "bytes"),
    ("repl.stream_bytes_per_write", "bytes"),
    ("repl.relay_bytes_per_write", "bytes"),
    ("repl.apply_us", "us"),
    ("repl.apply_latency_p50_us", "us"),
    ("repl.apply_latency_p99_us", "us"),
    ("repl.lag_events_max", "count"),
    ("repl.catchup_ms", "ms"),
    ("repl.retries", "count"),
    ("repl.apply_errors", "count"),
    ("core.forensics.carve_mb_s", "MB/s"),
    ("core.forensics.recovered_fraction", "ratio"),
    ("trace.always_on_overhead_ratio", "ratio"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.trace_statements", "count"),
    ("bench.stream_hash", "hash32"),
    ("bench.measured_s", "s"),
    ("bench.parallelism", "count"),
];

/// Values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one run found.
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Statements sent in the measured phase (and the traced replay).
    pub attempted: u64,
    /// Statements that failed or returned a wrong result, plus one per
    /// gate violation.
    pub failed: u64,
    /// Gate violations, one line each.
    pub violations: Vec<String>,
    /// End-to-end values.
    pub end_to_end: Values,
    /// Per-layer values; empty unless the run was traced.
    pub per_layer: Values,
}

impl Report {
    /// Whether every statement and every gate passed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of one plane with their units, in declaration order;
    /// a name the run did not set reads 0.
    pub fn plane(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let (defs, values): (&[(&str, &str)], _) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        defs.iter()
            .map(|(name, unit)| (*name, values.get(name).copied().unwrap_or(0.0), *unit))
            .collect()
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the metrics of the chosen plane.
    pub fn to_json(&self, traced: bool) -> String {
        let mut w = Writer::new();
        w.obj_open();
        w.key("correct");
        w.bool(self.correct());
        w.key("attempted");
        w.u64(self.attempted.max(1));
        w.key("failed");
        w.u64(self.failed);
        w.key("metrics");
        w.obj_open();
        for (name, value, unit) in self.plane(traced) {
            w.key(name);
            w.obj_open();
            w.key("value");
            // Every digit as measured, not the writer's six decimals.
            w.raw(&if value.is_finite() {
                format!("{value}")
            } else {
                "0".into()
            });
            w.key("unit");
            w.string(unit);
            w.obj_close();
        }
        w.obj_close();
        w.obj_close();
        w.into_string()
    }
}
