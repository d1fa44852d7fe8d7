//! One benchmark run, start to finish: set up, measure, gate, and —
//! when traced — the side passes and the span replay.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use mdb_telemetry::MetricsSnapshot;
use minidb::DbConfig;

use crate::driver::{self, closed_loop, Cluster, LoopOptions, Phase, Snapshot};
use crate::gates;
use crate::layers::{self, percentile, span};
use crate::metrics::{Report, Values};
use crate::workload::{self, Expected, Workload, CONNECTIONS};

/// An untraced run sets up at least [`SETUP_REPEATS`].0 times, and
/// where set-up is cheap keeps going up to .1 times or
/// [`SETUP_BUDGET_S`] seconds in all; `setup_s` is the median.
const SETUP_REPEATS: (usize, usize) = (3, 9);
const SETUP_BUDGET_S: f64 = 2.0;

/// Statements whose spans the Chrome trace file holds (the medians use
/// every span).
const TRACE_FILE_STATEMENTS: u32 = 2_000;

/// Statements the span replay covers at most.
const REPLAY_STATEMENTS: u64 = 20_000;

/// What `--workload … --seed … --seconds … --trace …` asks for.
#[derive(Clone, Copy, Debug)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// The small size the tests run.
    pub smoke: bool,
}

/// Where the traced run writes its Chrome trace.
pub fn trace_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("{}.trace.json", workload.name()))
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// `after - before` of one counter (0 where it is not registered).
fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let get = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

/// `after - before` of one histogram's `(count, sum)`.
fn histogram_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> (f64, f64) {
    let get = |s: &MetricsSnapshot| s.histogram(name).map_or((0, 0), |h| (h.count, h.sum));
    let (b, a) = (get(before), get(after));
    (
        a.0.saturating_sub(b.0) as f64,
        a.1.saturating_sub(b.1) as f64,
    )
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Bytes every log of the deployment holds: redo, undo and binlog on
/// the primary, relay logs on the replicas.
fn log_bytes(s: &Snapshot) -> f64 {
    let primary: u64 = ["wal.redo.bytes", "wal.undo.bytes", "wal.binlog.bytes"]
        .iter()
        .map(|n| s.primary.counter(n).unwrap_or(0))
        .sum();
    let relay: u64 = s
        .replicas
        .iter()
        .map(|r| r.counter("repl.relay.bytes").unwrap_or(0))
        .sum();
    (primary + relay) as f64
}

/// Runs one workload once.
pub fn run(args: Args) -> Report {
    let Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    } = args;
    let config = workload.config();

    // Set-up: the traced run needs one; the untraced run repeats it so
    // `setup_s` is a median, and measures on the last.
    let mut setup_s = Vec::new();
    let mut cluster = None;
    loop {
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(Cluster::set_up(workload, config.clone(), seed, smoke));
        setup_s.push(started.elapsed().as_secs_f64());
        let (n, spent) = (setup_s.len(), setup_s.iter().sum::<f64>());
        if trace || n >= SETUP_REPEATS.1 || (n >= SETUP_REPEATS.0 && spent >= SETUP_BUDGET_S) {
            break;
        }
    }
    let cluster = cluster.expect("set up at least once");

    let phase = closed_loop(
        &cluster,
        workload,
        seed,
        smoke,
        &driver::default_options(seconds),
    );
    // Before the gates copy log files around.
    let rss_peak_mb = driver::rss_peak_mb();
    let catchup_started = Instant::now();
    let synced = cluster.sync();
    let catchup = catchup_started.elapsed();
    // Replica apply is part of what the writes cost, so CPU and log
    // bytes are read once the replicas have caught up.
    let after = Snapshot::take(&cluster);

    let mut violations = Vec::new();
    if !synced {
        violations.push("replicas did not catch up".to_string());
    }
    let Phase {
        mut stats,
        wall,
        before,
        lag_events_max,
        generators,
    } = phase;
    let ops = stats.stmt_ns.len() as f64;
    let throughput = ops / wall.as_secs_f64();
    let latency_p50_us = percentile(&mut stats.stmt_ns, 0.5) / 1e3;
    // Of the phase that wrote: the measured one, or on a read workload
    // the load — so the ratio is defined, and gated, everywhere.
    let (logged, user_bytes) = if stats.user_bytes > 0 {
        (log_bytes(&after) - log_bytes(&before), stats.user_bytes)
    } else {
        (
            log_bytes(&after),
            workload::load_user_bytes(workload, seed, smoke),
        )
    };

    let mut e2e = Values::new();
    e2e.insert("setup_s", median(&mut setup_s));
    e2e.insert("throughput_ops_s", throughput);
    e2e.insert("latency_p75_us", percentile(&mut stats.stmt_ns, 0.75) / 1e3);
    e2e.insert(
        "cpu_us_per_op",
        ratio((after.cpu_us - before.cpu_us) as f64, ops),
    );
    e2e.insert("rss_peak_mb", rss_peak_mb);
    e2e.insert("log_bytes_per_user_byte", ratio(logged, user_bytes as f64));

    let mut layer = Values::new();
    counts(&mut layer, &before, &after, &stats);
    for (name, q) in [
        ("client.latency_p50_us", 0.5),
        ("client.latency_p90_us", 0.9),
        ("client.latency_p99_us", 0.99),
        ("client.latency_p999_us", 0.999),
    ] {
        layer.insert(name, percentile(&mut stats.stmt_ns, q) / 1e3);
    }
    for (name, samples) in [
        ("client.read_p50_us", &mut stats.read_ns),
        ("client.write_p50_us", &mut stats.write_ns),
        ("client.txn_p50_us", &mut stats.txn_ns),
    ] {
        layer.insert(name, percentile(samples, 0.5) / 1e3);
    }
    layer.insert("client.samples", ops);
    layer.insert("bench.measured_s", wall.as_secs_f64());
    layer.insert(
        "bench.parallelism",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    if workload.replicated() {
        layer.insert("repl.lag_events_max", lag_events_max as f64);
        layer.insert("repl.catchup_ms", catchup.as_secs_f64() * 1e3);
    }

    let versions = cluster.primary.version_count() as f64;
    layer.insert(
        "minidb.mvcc.versions_per_write",
        ratio(versions, stats.writes as f64),
    );
    let vacuum_started = Instant::now();
    cluster.primary.vacuum();
    layer.insert(
        "minidb.mvcc.vacuum_us",
        vacuum_started.elapsed().as_secs_f64() * 1e6,
    );
    if let (true, Some(key)) = (trace, workload.wal_key()) {
        let (seal, open) = layers::logenc_ns_per_byte(&cluster.primary, key);
        layer.insert("crypto.logenc.seal_ns_per_byte", seal);
        layer.insert("crypto.logenc.open_ns_per_byte", open);
    }

    let leak = gates::leakage(&cluster, workload, &stats.write_sql);
    layer.insert("core.forensics.carve_mb_s", leak.carve_mb_s);
    layer.insert("core.forensics.recovered_fraction", leak.recovered_fraction);
    violations.extend(leak.violations);

    let expected = if workload.writes() {
        let mut model = HashMap::new();
        for g in generators {
            model.extend(g.into_model());
        }
        Expected::Model(model)
    } else {
        Expected::Initial {
            workload,
            seed,
            rows: workload.rows(smoke),
        }
    };
    violations.extend(gates::correctness(&cluster, workload, &expected));
    drop(cluster);

    let mut attempted = stats.stmt_ns.len() as u64;
    let mut failed = stats.failed;
    if trace {
        if workload == Workload::PointReadHot {
            side_passes(&mut layer, args);
        }
        let (a, f) = span_replay(&mut layer, args, latency_p50_us);
        attempted += a;
        failed += f;
        layer.insert(
            "bench.stream_hash",
            workload::stream_hash(workload, seed, smoke) as f64,
        );
    }

    failed += violations.len() as u64;
    Report {
        workload: workload.name(),
        attempted,
        failed,
        violations,
        end_to_end: e2e,
        per_layer: layer,
    }
}

/// Rounds of side passes; each ratio is the median over the rounds.
const SIDE_ROUNDS: usize = 3;

/// Side passes on the read-mostly workload, a quarter of the run in all
/// and outside every end-to-end number. Each round measures the shipped
/// configuration at two connections (the reference), at one connection
/// (what does the second add, under one engine mutex?), and with the
/// always-on tracing off at both ends (the budget ROADMAP item 1 has);
/// a ratio compares passes of one round, taken moments apart, so that
/// drift of the machine cancels.
fn side_passes(layer: &mut Values, args: Args) {
    let Args {
        workload,
        seed,
        seconds,
        smoke,
        ..
    } = args;
    let pass = Duration::from_secs_f64(seconds * 0.25 / (3 * SIDE_ROUNDS) as f64);
    let options = LoopOptions {
        warmup: pass / 10,
        measure: pass,
        ..driver::default_options(seconds)
    };
    let rate = |cluster: &Cluster, options: &LoopOptions| {
        let phase = closed_loop(cluster, workload, seed, smoke, options);
        phase.stats.stmt_ns.len() as f64 / phase.wall.as_secs_f64()
    };
    let shipped = Cluster::set_up(workload, workload.config(), seed, smoke);
    let quiet = Cluster::set_up(
        workload,
        DbConfig {
            trace_enabled: false,
            ..workload.config()
        },
        seed,
        smoke,
    );
    let (mut scaling, mut overhead) = (Vec::new(), Vec::new());
    for _ in 0..SIDE_ROUNDS {
        let reference = rate(&shipped, &options);
        let one = rate(
            &shipped,
            &LoopOptions {
                connections: 1,
                ..options
            },
        );
        let untraced = rate(
            &quiet,
            &LoopOptions {
                client_tracing: false,
                ..options
            },
        );
        scaling.push(ratio(reference, CONNECTIONS as f64 * one));
        overhead.push(ratio(untraced, reference));
    }
    layer.insert("server.scaling_efficiency", median(&mut scaling));
    layer.insert("trace.always_on_overhead_ratio", median(&mut overhead));
}

/// Layer counts: deltas of the engine's own telemetry around the
/// measured phase, per statement (`ops`) or per write.
fn counts(layer: &mut Values, before: &Snapshot, after: &Snapshot, stats: &driver::ConnStats) {
    let ops = stats.stmt_ns.len() as f64;
    let (b, a) = (&before.primary, &after.primary);
    let d = |name: &str| counter_delta(b, a, name);
    let (hits, misses) = (d("bufpool.hits"), d("bufpool.misses"));
    let (pruned, decoded) = (d("scan.pages_pruned"), d("scan.pages_decoded"));
    let (_, examined) = histogram_delta(b, a, "sql.rows_examined");
    let (_, returned) = histogram_delta(b, a, "sql.rows_returned");
    let (batches, batched) = histogram_delta(b, a, "wal.group_commit_batch_size");
    let (writes, commits) = (stats.writes as f64, stats.commits as f64);
    let replicas = |name: &str| -> f64 {
        before
            .replicas
            .iter()
            .zip(&after.replicas)
            .map(|(b, a)| counter_delta(b, a, name))
            .fold(0.0, |sum, d| sum + d)
    };
    for (name, value) in [
        (
            "minidb.sql.query_cache_hit_ratio",
            ratio(d("sql.query_cache_hits"), stats.reads as f64),
        ),
        (
            "minidb.engine.rows_examined_per_row",
            ratio(examined, returned),
        ),
        (
            "minidb.storage.bufpool_hit_ratio",
            ratio(hits, hits + misses),
        ),
        ("minidb.storage.bufpool_misses_per_op", ratio(misses, ops)),
        (
            "minidb.storage.bufpool_evictions_per_op",
            ratio(d("bufpool.evictions"), ops),
        ),
        (
            "minidb.storage.bufpool_writebacks_per_op",
            ratio(d("bufpool.writebacks"), ops),
        ),
        (
            "minidb.storage.scan_pages_decoded_per_op",
            ratio(decoded, ops),
        ),
        (
            "minidb.storage.scan_pages_pruned_ratio",
            ratio(pruned, pruned + decoded),
        ),
        (
            "minidb.wal.redo_bytes_per_op",
            ratio(d("wal.redo.bytes"), ops),
        ),
        (
            "minidb.wal.undo_bytes_per_op",
            ratio(d("wal.undo.bytes"), ops),
        ),
        (
            "minidb.wal.binlog_bytes_per_op",
            ratio(d("wal.binlog.bytes"), ops),
        ),
        (
            "minidb.wal.fsyncs_per_commit",
            ratio(d("wal.fsyncs"), commits),
        ),
        ("minidb.wal.redo_wraps", d("wal.redo.wraps")),
        (
            "minidb.group_commit.batch_size_mean",
            ratio(batched, batches),
        ),
        (
            "minidb.group_commit.waits_per_commit",
            ratio(d("wal.group_commit_waits"), commits),
        ),
        ("minidb.heap.allocs_per_op", ratio(d("heap.allocs"), ops)),
        (
            "minidb.heap.alloc_bytes_per_op",
            ratio(d("heap.alloc_bytes"), ops),
        ),
        (
            "repl.stream_bytes_per_write",
            ratio(d("repl.stream.bytes_sent"), writes),
        ),
        (
            "repl.relay_bytes_per_write",
            ratio(replicas("repl.relay.bytes"), writes),
        ),
        ("repl.retries", replicas("repl.retries")),
        ("repl.apply_errors", replicas("repl.apply_errors")),
    ] {
        layer.insert(name, value);
    }
    // The replicas' own apply-latency histogram: log-scale bucket upper
    // bounds over the whole run, load included.
    if let Some(h) = after
        .replicas
        .first()
        .and_then(|r| r.histogram("repl.apply_latency_us"))
    {
        layer.insert("repl.apply_latency_p50_us", h.p50() as f64);
        layer.insert("repl.apply_latency_p99_us", h.p99() as f64);
    }
}

/// The traced replay and its span-free twin: per-layer medians, the
/// Chrome trace, what the spans themselves cost, and what is left of
/// the end-to-end median once the in-process layers are taken out.
/// Returns `(attempted, failed)` of the traced replay.
fn span_replay(layer: &mut Values, args: Args, latency_p50_us: f64) -> (u64, u64) {
    let Args {
        workload,
        seed,
        seconds,
        smoke,
        ..
    } = args;
    let cap = Duration::from_secs_f64(seconds * 0.2);
    let traced = layers::replay(workload, seed, smoke, REPLAY_STATEMENTS, cap, true);
    let plain = layers::replay(
        workload,
        seed,
        smoke,
        traced.statements,
        Duration::MAX,
        false,
    );
    let p50 = layers::span_p50_ns(&traced.spans);
    let ns = |name: &str| p50.get(name).copied().unwrap_or(0.0);
    let (execute, parse) = (ns(span::EXECUTE), ns(span::PARSE));
    for (name, value) in [
        ("server.wire.encode_req_ns", ns(span::ENCODE_REQ)),
        ("server.wire.decode_req_ns", ns(span::DECODE_REQ)),
        ("server.wire.encode_res_ns", ns(span::ENCODE_RES)),
        ("server.wire.decode_res_ns", ns(span::DECODE_RES)),
        (
            "server.wire.res_bytes_per_op",
            ratio(traced.res_bytes as f64, traced.statements as f64),
        ),
        (
            "server.session.residual_us",
            latency_p50_us - layers::blocking_p50_us(&p50),
        ),
        ("minidb.sql.parse_ns", parse),
        ("minidb.engine.execute_us", execute / 1e3),
        ("minidb.engine.execute_self_us", (execute - parse) / 1e3),
        ("repl.apply_us", ns(span::APPLY) / 1e3),
        (
            "bench.trace_overhead_ratio",
            ratio(traced.wall.as_secs_f64(), plain.wall.as_secs_f64()),
        ),
        ("bench.trace_statements", traced.statements as f64),
    ] {
        layer.insert(name, value);
    }
    let kept = traced
        .spans
        .partition_point(|s| s.stmt < TRACE_FILE_STATEMENTS);
    if let Err(e) = layers::write_chrome_trace(&trace_path(workload), &traced.spans[..kept]) {
        eprintln!("warning: chrome trace not written: {e}");
    }
    (traced.statements, traced.failed + plain.failed)
}
