//! Regenerates the paper's tables and figures.
//!
//! ```text
//! experiments [--quick] [--json <path>] [--trace <dir>] [e1 e2 … | all]
//! ```
//!
//! Tables always go to stdout; `--json <path>` additionally writes a
//! machine-readable report (per-experiment wall time, tables, and the
//! engine telemetry each experiment absorbed); `--trace <dir>` writes
//! one Chrome `trace_event` JSON per experiment (load in
//! `chrome://tracing` / Perfetto) from the statement traces the
//! experiment's engines recorded — E19's holds the merged client,
//! primary and replica lanes. Any other `--flag` is an error (exit 2).
//! Each table prints its claims under its rows; when any claim reads
//! `FAIL`, the run exits 1 after printing everything and writing the
//! reports. The `--quick` cells and claims are pinned by
//! `EXPERIMENTS.golden`.

use bench::{ExperimentReport, Options, ALL};

/// The flags `experiments` accepts.
const FLAGS: [&str; 3] = ["--quick", "--json", "--trace"];

fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !FLAGS.contains(&a.as_str()))
    {
        eprintln!("unknown flag {bad}; known: {FLAGS:?}");
        std::process::exit(2);
    }
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
    // Everything that isn't a flag (or a flag's path argument) is an id.
    let mut ids = Vec::new();
    let mut skip_next = false;
    for a in &args {
        if skip_next {
            skip_next = false;
        } else if a == "--json" || a == "--trace" {
            skip_next = true;
        } else if !a.starts_with("--") {
            ids.push(a.clone());
        }
    }
    let ids: Vec<String> = if ids.is_empty() || ids.iter().any(|i| i == "all") {
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
    let failed = bench::failed_claims(&reports);
    if !failed.is_empty() {
        for claim in &failed {
            eprintln!("[experiments] FAIL {claim}");
        }
        std::process::exit(1);
    }
}
