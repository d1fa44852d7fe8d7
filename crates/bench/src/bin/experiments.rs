//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--json <path>] [--trace <dir>]
//!             [--bench-json <path>] [--obs-bench-json <path>]
//!             [--server-bench-json <path>] [--xtrace-bench-json <path>]
//!             [--wal-bench-json <path>] [--chaos-bench-json <path>]
//!             [e1 e2 … | all]
//! ```
//!
//! Tables always go to stdout; `--json <path>` additionally writes a
//! machine-readable report (per-experiment wall time, tables, and the
//! engine telemetry each experiment absorbed); `--trace <dir>` writes
//! one Chrome `trace_event` JSON per experiment (load in
//! `chrome://tracing` / Perfetto) from the statement traces the
//! experiment's engines recorded; `--bench-json <path>` runs the scan
//! micro-benchmark (full vs zone-map-pruned range scans) and writes its
//! rows/sec and pruning counters as JSON; `--obs-bench-json <path>`
//! runs the scrape-plane benchmark (exposition shape + scrape/encode/
//! parse timing) and writes it as JSON; `--server-bench-json <path>`
//! runs the sharded-buffer-pool benchmark (8-thread mixed scan/write
//! throughput, single latch vs latch-partitioned) and writes it as
//! JSON; `--xtrace-bench-json <path>` runs the cross-node tracing
//! benchmark (attribution rates, probe lanes, tracing overhead) and
//! writes it as JSON plus the merged Chrome trace as `<path>.trace.json`;
//! `--wal-bench-json <path>` runs the group-commit / encrypted-WAL
//! write-path benchmark (plaintext vs sealed, per-statement fsync vs
//! group commit, at 1/4/8 connections) and writes it as JSON;
//! `--chaos-bench-json <path>` replays the deterministic chaos schedule
//! over the seed battery (odd seeds kill and fail over the primary),
//! audits every history with the consistency checker, probes the
//! deposed primary's divergent sidecar on plaintext and `encrypted_wal`
//! fleets, and writes the verdicts as JSON.

use bench::{ExperimentReport, Options, ALL};

/// What one `--*-bench-json` run hands back: the JSON for `<path>`,
/// plus `(suffix, what, contents)` side files written as `<path><suffix>`.
type BenchOutput = (String, Vec<(&'static str, &'static str, String)>);

/// A benchmark: takes `quick`, prints its own parameter and summary
/// lines to stderr.
type BenchRun = fn(bool) -> BenchOutput;

/// The benchmark flags: `(flag, name, run)`.
const BENCHES: [(&str, &str, BenchRun); 6] = [
    ("--bench-json", "scan", scan_bench),
    ("--obs-bench-json", "obs", obs_bench),
    ("--server-bench-json", "server", server_bench),
    ("--xtrace-bench-json", "xtrace", xtrace_bench),
    ("--wal-bench-json", "wal", wal_bench),
    ("--chaos-bench-json", "chaos", chaos_bench),
];

fn scan_bench(quick: bool) -> BenchOutput {
    let (rows, queries) = if quick { (20_000, 8) } else { (100_000, 20) };
    eprintln!("[experiments] scan bench: {rows} rows, {queries} queries per variant");
    let cmp = bench::scanbench::compare(rows, queries);
    eprintln!(
        "[experiments] full {:.0} rows/s, pruned {:.0} rows/s ({:.2}x), {} of {} pages pruned",
        cmp.full.rows_per_sec,
        cmp.pruned.rows_per_sec,
        cmp.speedup(),
        cmp.pruned.pages_pruned,
        cmp.pruned.pages_pruned + cmp.pruned.pages_decoded,
    );
    (cmp.to_json(), Vec::new())
}

fn obs_bench(quick: bool) -> BenchOutput {
    let (rows, queries) = if quick { (2_000, 8) } else { (10_000, 20) };
    eprintln!("[experiments] obs bench: {rows} rows, {queries} queries");
    let b = bench::obsbench::run(rows, queries);
    eprintln!(
        "[experiments] {} series / {} bytes per scrape (scrubbed: {} / {}), round-trip {:.0} us",
        b.series, b.body_bytes, b.scrub_series, b.scrub_body_bytes, b.scrape_roundtrip_us,
    );
    (b.to_json(), Vec::new())
}

fn server_bench(quick: bool) -> BenchOutput {
    let ops = if quick { 400 } else { 2_000 };
    eprintln!("[experiments] server bench: 8 threads, {ops} page ops each");
    let b = bench::serverbench::run(8, ops);
    eprintln!(
        "[experiments] single latch {:.0} ops/s, {} shards {:.0} ops/s ({:.2}x)",
        b.single.ops_per_sec,
        b.sharded.shards,
        b.sharded.ops_per_sec,
        b.speedup(),
    );
    (b.to_json(), Vec::new())
}

fn xtrace_bench(quick: bool) -> BenchOutput {
    let writes = if quick { 24 } else { 120 };
    eprintln!("[experiments] xtrace bench: {writes} writes per variant");
    let b = bench::xtracebench::run(writes);
    eprintln!(
        "[experiments] attribution {:.0}% traced / {:.0}% hashed, {} probe lanes, {:.2}x tracing overhead",
        b.traced_attribution * 100.0,
        b.hashed_attribution * 100.0,
        b.traced_probe_lanes,
        b.tracing_overhead(),
    );
    let json = b.to_json();
    let trace = (".trace.json", "merged trace", b.merged_chrome_json);
    (json, vec![trace])
}

fn wal_bench(quick: bool) -> BenchOutput {
    // Same inserts-per-connection in both modes: the gated ratios
    // (buyback, crypto tax) shift systematically with batch
    // amortization, and the perf-trajectory job diffs a quick regen
    // against the full-mode committed baseline. Quick only drops
    // the middle connection count.
    let (conns, inserts): (&[usize], usize) = if quick {
        (&[1, 8], 100)
    } else {
        (&[1, 4, 8], 100)
    };
    eprintln!("[experiments] wal bench: {inserts} inserts per connection at {conns:?} connections");
    let b = bench::walbench::run(conns, inserts);
    let max_conns = conns.iter().copied().max().unwrap_or(1);
    eprintln!(
        "[experiments] buyback {:.2}x at {max_conns} connections, crypto tax {:.2}x at 1, {:.3} fsyncs/stmt",
        b.buyback_at(max_conns),
        b.crypto_tax_at(1),
        b.fsyncs_per_stmt_at(max_conns),
    );
    (b.to_json(), Vec::new())
}

fn chaos_bench(quick: bool) -> BenchOutput {
    // The same seed battery in both modes; quick only shortens each
    // run's schedule. Every gate key is a deterministic verdict
    // (violation counts, promotion counts, coverage ratios), so the
    // perf-trajectory job can diff a quick regen against the
    // full-mode committed baseline exactly.
    let seeds = bench::chaosbench::SEEDS;
    eprintln!(
        "[experiments] chaos bench: seeds {seeds:?}{}",
        if quick { " (quick)" } else { "" }
    );
    let b = bench::chaosbench::run(&seeds, quick);
    eprintln!(
        "[experiments] {} violations across {} seeds, {}/{} kill seeds promoted, \
         plaintext carve {:.0}%, sealed carve {} stmts ({} sealed frames), key holder {:.0}%",
        b.violations_total(),
        b.runs.len(),
        b.kill_seeds_promoted(),
        b.kill_seeds(),
        b.probe("plaintext").map_or(0.0, |p| p.carve_coverage) * 100.0,
        b.probe("encrypted_wal").map_or(0, |p| p.carved_statements),
        b.probe("encrypted_wal").map_or(0, |p| p.frames_sealed),
        b.probe("encrypted_wal")
            .map_or(0.0, |p| p.keyholder_coverage)
            * 100.0,
    );
    (b.to_json(), Vec::new())
}

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let path_flag = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .map(|i| match args.get(i + 1) {
                Some(p) if !p.starts_with("--") => p.clone(),
                _ => {
                    eprintln!("{flag} requires a path argument");
                    std::process::exit(2);
                }
            })
    };
    let json_path = path_flag("--json");
    let trace_dir = path_flag("--trace");
    let bench_paths = BENCHES.map(|(flag, ..)| path_flag(flag));
    let takes_path =
        |a: &str| a == "--json" || a == "--trace" || BENCHES.iter().any(|(flag, ..)| a == *flag);
    // Everything that isn't a flag (or a flag's path argument) is an id.
    let mut ids = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
        } else if takes_path(a) {
            skip_next = true;
        } else if !a.starts_with("--") {
            ids.push(a.clone());
        }
    }
    // With a bench flag and no explicit ids, run only the benchmark.
    let ids: Vec<String> = if ids.is_empty() && bench_paths.iter().any(Option::is_some) {
        Vec::new()
    } else if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ALL.iter().map(|s| s.to_string()).collect()
    } else {
        ids
    };
    let opts = Options {
        quick,
        ..Default::default()
    };
    if let Some(dir) = &trace_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create trace dir {dir}: {e}");
            std::process::exit(1);
        }
    }
    let mut reports: Vec<ExperimentReport> = Vec::new();
    for id in &ids {
        eprintln!(
            "[experiments] running {id}{}",
            if quick { " (quick)" } else { "" }
        );
        match bench::run_report(id, &opts) {
            Some(report) => {
                for t in &report.tables {
                    println!("{t}");
                }
                eprintln!(
                    "[experiments] {id} done in {:.1} ms",
                    report.wall_time_us as f64 / 1000.0
                );
                if let Some(dir) = &trace_dir {
                    let path = format!("{dir}/{id}.trace.json");
                    let json = mdb_trace::chrome::to_chrome_json(&report.traces);
                    write_or_exit(&path, &json);
                    eprintln!(
                        "[experiments] wrote {} trace events to {path}",
                        report.traces.len()
                    );
                }
                reports.push(report);
            }
            None => {
                eprintln!("unknown experiment id {id}; known: {ALL:?}");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = json_path {
        write_or_exit(&path, &bench::reports_to_json(&reports, &opts));
        eprintln!("[experiments] wrote JSON report to {path}");
    }
    for ((_, name, run), path) in BENCHES.iter().zip(bench_paths) {
        let Some(path) = path else { continue };
        let (json, side_files) = run(quick);
        write_or_exit(&path, &json);
        let mut also = String::new();
        for (suffix, what, contents) in side_files {
            let side_path = format!("{path}{suffix}");
            write_or_exit(&side_path, &contents);
            also = format!(" (+ {what} {side_path})");
        }
        eprintln!("[experiments] wrote {name} bench JSON to {path}{also}");
    }
}
