//! The benchmark's own tests: inputs follow the seed, every workload
//! passes its gates at the small `--smoke` size and keeps the character
//! it was chosen for, and `BENCHMARK.json` names what the binary prints.

use std::process::Command;

use mdb_benchmark::metrics::{Report, END_TO_END, PER_LAYER};
use mdb_benchmark::run::{run, trace_path, Args};
use mdb_benchmark::workload::{stream_hash, Workload, ALL};

fn smoke(workload: Workload, trace: bool) -> Report {
    let report = run(Args {
        workload,
        seed: 7,
        seconds: 0.6,
        trace,
        smoke: true,
    });
    assert!(
        report.correct(),
        "{}: {} failed, violations {:?}",
        report.workload,
        report.failed,
        report.violations
    );
    report
}

#[test]
fn the_statement_stream_is_a_function_of_the_seed() {
    for w in ALL {
        assert_eq!(
            stream_hash(w, 11, true),
            stream_hash(w, 11, true),
            "{}",
            w.name()
        );
        assert_ne!(
            stream_hash(w, 11, true),
            stream_hash(w, 12, true),
            "{}",
            w.name()
        );
    }
    // The hardened fleet replays the seed fleet's stream byte for byte.
    assert_eq!(
        stream_hash(Workload::OltpReplSeed, 11, true),
        stream_hash(Workload::OltpReplHardened, 11, true)
    );
}

/// All five workloads, traced, one after the other: the process-wide
/// CPU and memory readings would mix if they ran side by side.
#[test]
fn every_workload_passes_its_gates_and_keeps_its_character() {
    for w in ALL {
        let report = smoke(w, true);
        let layer = |name: &str| report.per_layer.get(name).copied().unwrap_or(0.0);
        let logged = layer("minidb.wal.redo_bytes_per_op")
            + layer("minidb.wal.undo_bytes_per_op")
            + layer("minidb.wal.binlog_bytes_per_op");
        match w {
            Workload::PointReadHot => {
                assert!(
                    layer("minidb.storage.bufpool_hit_ratio") >= 0.95,
                    "table fits the pool"
                );
                assert_eq!(logged, 0.0, "reads log nothing, so nothing is fsynced");
                assert!(layer("server.scaling_efficiency") > 0.0);
                assert!(layer("trace.always_on_overhead_ratio") > 0.0);
            }
            Workload::RangeScanCold => {
                assert!(
                    layer("minidb.storage.bufpool_misses_per_op") > 1.0,
                    "table exceeds the pool"
                );
                assert!(
                    layer("minidb.storage.scan_pages_pruned_ratio") > 0.0,
                    "zone maps prune"
                );
                assert_eq!(logged, 0.0, "reads log nothing, so nothing is fsynced");
            }
            Workload::OltpReplSeed => {
                assert!(layer("core.forensics.recovered_fraction") >= 0.95);
                assert!(layer("repl.relay_bytes_per_write") > 0.0);
                assert_eq!(layer("crypto.logenc.seal_ns_per_byte"), 0.0);
                assert_eq!(layer("minidb.group_commit.batch_size_mean"), 0.0);
            }
            Workload::OltpReplHardened => {
                assert_eq!(layer("core.forensics.recovered_fraction"), 0.0);
                assert!(layer("crypto.logenc.seal_ns_per_byte") > 0.0);
                assert!(layer("minidb.group_commit.batch_size_mean") >= 1.0);
                assert_eq!(
                    layer("minidb.sql.query_cache_hit_ratio"),
                    0.0,
                    "query cache is off"
                );
            }
            Workload::TxnMvcc => {
                assert!(layer("minidb.mvcc.versions_per_write") > 0.0);
                assert!(layer("client.txn_p50_us") > 0.0);
                assert!(logged > 0.0);
            }
        }
        assert_eq!(w.replicated(), layer("repl.apply_us") > 0.0, "{}", w.name());
        // The in-process layers cannot take longer than the statement
        // that crosses them and a socket besides.
        assert!(layer("server.session.residual_us") >= 0.0, "{}", w.name());
        assert!(layer("bench.trace_overhead_ratio") > 0.0);

        let trace = std::fs::read_to_string(trace_path(w)).expect("chrome trace written");
        assert!(trace.starts_with("{\"traceEvents\":["), "{}", w.name());
        assert!(trace.contains("\"name\":\"minidb.engine.execute\""));
        assert!(trace.trim_end().ends_with("]}"));

        let json = report.to_json(true);
        for (name, _) in PER_LAYER {
            assert!(
                json.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing"
            );
        }
    }
}

#[test]
fn the_untraced_run_reports_every_end_to_end_metric_above_zero() {
    let report = smoke(Workload::TxnMvcc, false);
    for (name, _) in END_TO_END {
        assert!(report.end_to_end[name] > 0.0, "{name}");
    }
}

/// The names between `"section": [` and its closing bracket.
fn names_in(doc: &str, section: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &doc[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.split('"')
                .nth(1)
                .expect("name is a string")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let own = |defs: &[(&str, &str)]| defs.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
    assert_eq!(names_in(&doc, "end_to_end"), own(&END_TO_END));
    assert_eq!(names_in(&doc, "per_layer"), own(&PER_LAYER));
    assert_eq!(
        names_in(&doc, "workloads"),
        ALL.iter().map(|w| w.name().to_string()).collect::<Vec<_>>()
    );
}

#[test]
fn the_command_line_prints_one_result_object_last() {
    let out = Command::new(env!("CARGO_BIN_EXE_mdb-benchmark"))
        .args(["--workload", "point_read_hot", "--seed", "3"])
        .args(["--seconds", "0.3", "--trace", "0", "--smoke"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\":true,\"attempted\":"),
        "{last}"
    );
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\":{{\"value\":")),
            "{name} missing"
        );
        assert!(
            stdout.contains(&format!(" {unit}\n")),
            "{name} printed with its unit"
        );
    }

    let bad = Command::new(env!("CARGO_BIN_EXE_mdb-benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("binary runs");
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty(), "no result on a usage error");
}
