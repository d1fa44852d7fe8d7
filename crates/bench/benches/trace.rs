//! Tracing overhead benchmarks.
//!
//! The design target (ISSUE acceptance criterion): with tracing
//! disabled, the entire per-statement cost of the tracer is a single
//! relaxed atomic load — `Recorder::is_enabled` — plus one `Option`
//! check per stage hook. The `engine` group measures the end-to-end
//! difference on cache-hit point selects; the `record` group pins down
//! the primitive itself. The `codec` and `wire` cases time the frame
//! layer every trace record and reply goes through.

use std::hint::black_box;

use bench::timeit;
use mdb_server::{FrameDecoder, WireMessage, WireResultSet};
use mdb_trace::{codec, Recorder, TraceBuilder};
use minidb::engine::{Db, DbConfig};
use minidb::value::Value;

fn bench_gate_and_builder() {
    // The disabled-path primitive: one relaxed load.
    let armed = Recorder::new(64);
    let disarmed = Recorder::new_disabled(64);
    timeit("trace/record/is_enabled/armed", || armed.is_enabled());
    timeit("trace/record/is_enabled/disarmed", || disarmed.is_enabled());

    // The enabled path: build a representative 5-span statement trace
    // and deposit it in the ring.
    timeit("trace/record/build+record", || {
        let mut t = TraceBuilder::new(1, 1_500_000_000, "SELECT * FROM kv WHERE id = 7", "d");
        t.begin("parse");
        t.end(37);
        t.begin("plan");
        t.attr("index_used", 1);
        t.end(37);
        t.begin("scan");
        t.attr("rows_examined", 1);
        t.begin("bufpool");
        t.attr("pages_hit", 1);
        t.end(0);
        t.table("kv");
        t.end_elastic();
        armed.record(t.finish(300))
    });
}

fn query_db(trace_enabled: bool) -> Db {
    let config = DbConfig {
        redo_capacity: 1 << 20,
        undo_capacity: 1 << 20,
        trace_enabled,
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
        timeit(&format!("trace/engine/point-select/{label}"), || {
            i = (i + 1) % 64;
            conn.execute(&format!("SELECT * FROM kv WHERE id = {i}"))
                .unwrap()
        });
    }
}

fn bench_chrome_export() {
    let db = query_db(true);
    let conn = db.connect("bench");
    for i in 0..64 {
        conn.execute(&format!("SELECT * FROM kv WHERE id = {}", i % 64))
            .unwrap();
    }
    let traces = db.query_traces();
    timeit("trace/export/to_chrome_json/64", || {
        mdb_trace::chrome::to_chrome_json(&traces)
    });
}

/// The reply path of a `range_scan_cold` statement without the
/// end-to-end benchmark: the CRC over one reply's bytes, and one
/// 200-row result framed by the server and decoded by the client.
fn bench_reply_codec() {
    let reply = WireMessage::Result(WireResultSet {
        columns: vec!["id".into(), "k".into(), "v".into()],
        rows: (0..200)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i * 7),
                    Value::Text(format!("payload-{i:032}")),
                ]
            })
            .collect(),
        rows_examined: 200,
        rows_affected: 0,
    });
    let bytes: Vec<u8> = (0..12_455u32).map(|i| (i * 31) as u8).collect();
    timeit("codec/crc32/12455B", || codec::crc32(black_box(&bytes)));
    let mut decoder = FrameDecoder::default();
    timeit("wire/reply/200-rows encode+decode", || {
        decoder.feed(&black_box(&reply).to_reply_frame());
        decoder.next_message().expect("own frame decodes")
    });
}

fn main() {
    bench_gate_and_builder();
    bench_engine_overhead();
    bench_chrome_export();
    bench_reply_codec();
}
