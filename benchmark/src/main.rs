//! `mdb-benchmark [run] --workload <name|all> --seed <u64> --seconds <s>
//! --trace <0|1> [--smoke] [--out <path>]`
//!
//! Prints every metric of the chosen plane as `name value unit`, then
//! one JSON object as the last line of standard output. Exits non-zero
//! when a statement failed or a gate was violated.

use std::process::ExitCode;

use mdb_benchmark::run::{run, Args};
use mdb_benchmark::workload::{Workload, ALL};

const USAGE: &str = "usage: mdb-benchmark [run] --workload <name|all> [--seed <u64>] \
                     [--seconds <s>] [--trace <0|1>] [--smoke] [--out <path>]";

/// Seed and length used when the command line names none.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}\n{USAGE}\nworkloads:");
    for w in ALL {
        eprintln!("  {}", w.name());
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter().map(String::as_str).peekable();
    if it.peek() == Some(&"run") {
        it.next();
    }
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        if flag == "--traced" {
            trace = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag {
            "--workload" => {
                workload = Some(value);
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v| seconds = v)
                .is_ok_and(|()| seconds > 0.0 && seconds <= 60.0),
            "--trace" => match value {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            "--out" => {
                out = Some(value);
                true
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !parsed {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }
    let Some(name) = workload else {
        return usage("--workload is required");
    };
    if name == "all" {
        return run_all(&argv);
    }
    let Some(workload) = Workload::from_name(name) else {
        return usage(&format!("unknown workload {name}"));
    };

    let report = run(Args {
        workload,
        seed,
        seconds,
        trace,
        smoke,
    });
    println!("workload {}", report.workload);
    for (name, value, unit) in report.plane(trace) {
        println!("{name} {value} {unit}");
    }
    println!("ops_attempted {} count", report.attempted);
    println!("ops_failed {} count", report.failed);
    for v in &report.violations {
        println!("violation: {v}");
    }
    let json = report.to_json(trace);
    if let Some(path) = out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one process per workload, so that peak memory and
/// CPU time belong to one workload each.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("own path is known");
    let mut code = ExitCode::SUCCESS;
    for w in ALL {
        let mut args = argv.to_vec();
        let at = args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        args[at + 1] = w.name().to_string();
        // `--out` names one file; suffix it per workload.
        if let Some(o) = args.iter().position(|a| a == "--out") {
            args[o + 1] = format!("{}.{}", args[o + 1], w.name());
        }
        let status = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .expect("child process starts");
        if !status.success() {
            code = ExitCode::FAILURE;
        }
    }
    code
}
