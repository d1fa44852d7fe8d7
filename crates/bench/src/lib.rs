//! Experiment harness: regenerates every figure, table, and in-text
//! quantitative claim of the paper's evaluation.
//!
//! Each `e*` module reproduces one experiment from DESIGN.md's index and
//! returns [`snapshot_attack::report::Table`]s, each with the claims the
//! experiment judges on its own values ([`Table::claim`]); the
//! `experiments` binary prints them, [`golden`] renders their `--quick`
//! cells and claims as the committed contract `EXPERIMENTS.golden`, and
//! the benches under `benches/` time the scan path and the telemetry and
//! tracing overheads with [`timeit`].
//!
//! | id  | paper | what it reproduces |
//! |-----|-------|--------------------|
//! | e1  | Fig 1 | attack vector × revealed-state matrix |
//! | e2  | §3    | redo/undo write reconstruction, "16 days in 50 MB" |
//! | e3  | §3    | binlog timestamps + LSN-rate dating of purged history |
//! | e4  | §3    | buffer-pool dump → recently read B+ tree ranges |
//! | e5  | §4    | diagnostic tables via SQL injection, digest example |
//! | e6  | §5    | heap persistence of a marker query (102k-query run) |
//! | e7  | §6    | count attack on SWP tokens, 63%-unique statistic |
//! | e8  | §6    | Lewi–Wu bit leakage: 12%/19%/25% at 5/25/50 queries |
//! | e9  | §6    | Seabed: digest histogram + frequency analysis; ORE |
//! | e10 | §6    | Arx: transaction-log transcripts, rank recovery |
//! | e11 | §6    | at-rest encryption: disk-only vs memory attacker |
//! | e12 | §7    | (ext) mitigation ablation: no single knob helps |
//! | e13 | §2    | (ext) snapshot coverage of the persistent transcript |
//! | e14 | §2    | (ext) replication: relay logs survive binlog purge |
//! | e15 | §4    | (ext) flight recorder: query timeline survives wipe |
//! | e16 | §3    | (ext) zone maps: scan pruning speedup + page-range leak |
//! | e17 | §4    | (ext) scrape channel: remote volume recovery off `/metrics` |
//! | e18 | §3/§6 | (ext) version chains: MVCC archives the victim's edit history |
//! | e19 | §3/§4 | (ext) xtrace: trace ids join replica images to client sessions |
//! | e20 | §3/§7 | (ext) sealed WAL: E2/E3/E14 go dark, the key holder still reads |
//! | e21 | §3/§7 | (ext) chaos failover: fenced divergent tail leaks; `encrypted_wal` seals it |

pub mod chaosbench;
pub mod e01_figure1;
pub mod e02_wal_forensics;
pub mod e03_lsn_time;
pub mod e04_bufpool_reads;
pub mod e05_diagnostics;
pub mod e06_heap_marker;
pub mod e07_count_attack;
pub mod e08_lewi_wu;
pub mod e09_seabed;
pub mod e10_arx;
pub mod e11_atrest;
pub mod e12_mitigations;
pub mod e13_snapshot_vs_persistent;
pub mod e14_replication;
pub mod e15_tracelog;
pub mod e16_zonemap;
pub mod e17_obs;
pub mod e18_versions;
pub mod e19_xtrace;
pub mod e20_encwal;
pub mod e21_chaos;
pub mod scanbench;

use mdb_telemetry::{json, MetricsSnapshot, Registry};
use mdb_trace::{Recorder, StatementTrace};
use snapshot_attack::report::{verdict, Table};

/// Shared experiment options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Reduced parameters for quick runs (CI); full parameters otherwise.
    pub quick: bool,
    /// Base RNG seed.
    pub seed: u64,
    /// Harness-side telemetry registry. Each experiment absorbs its
    /// engines' final metrics into it (see [`Options::absorb_db`]), so a
    /// run's report carries the engine counters alongside wall time.
    pub telemetry: Registry,
    /// Harness-side trace collector: each experiment's statement traces
    /// land here (via [`Options::absorb_db`]) so a run can be exported
    /// as a Chrome `trace_event` file (`--trace <dir>`).
    pub traces: Recorder,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            seed: 0x5EED,
            telemetry: Registry::new(),
            traces: Recorder::new(4096),
        }
    }
}

impl Options {
    /// Folds a database's telemetry and statement traces into the
    /// harness collectors. Call once per engine, when the experiment is
    /// done with it.
    pub fn absorb_db(&self, db: &minidb::engine::Db) {
        self.telemetry.absorb(&db.metrics_snapshot());
        self.traces.absorb(db.query_traces());
    }
}

/// Runs one experiment by id (`"e1"`–`"e21"`, see [`ALL`]), returning
/// its tables.
pub fn run(id: &str, opts: &Options) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(e01_figure1::run(opts)),
        "e2" => Some(e02_wal_forensics::run(opts)),
        "e3" => Some(e03_lsn_time::run(opts)),
        "e4" => Some(e04_bufpool_reads::run(opts)),
        "e5" => Some(e05_diagnostics::run(opts)),
        "e6" => Some(e06_heap_marker::run(opts)),
        "e7" => Some(e07_count_attack::run(opts)),
        "e8" => Some(e08_lewi_wu::run(opts)),
        "e9" => Some(e09_seabed::run(opts)),
        "e10" => Some(e10_arx::run(opts)),
        "e11" => Some(e11_atrest::run(opts)),
        "e12" => Some(e12_mitigations::run(opts)),
        "e13" => Some(e13_snapshot_vs_persistent::run(opts)),
        "e14" => Some(e14_replication::run(opts)),
        "e15" => Some(e15_tracelog::run(opts)),
        "e16" => Some(e16_zonemap::run(opts)),
        "e17" => Some(e17_obs::run(opts)),
        "e18" => Some(e18_versions::run(opts)),
        "e19" => Some(e19_xtrace::run(opts)),
        "e20" => Some(e20_encwal::run(opts)),
        "e21" => Some(e21_chaos::run(opts)),
        _ => None,
    }
}

/// All experiment ids in order. `e12`–`e21` are extensions beyond the
/// paper: the §7 mitigation ablation, the snapshot-vs-persistent
/// coverage comparison, the replication relay-log surface, the
/// query-flight-recorder surface, the zone-map surface, the
/// metrics-scrape surface, the MVCC version-chain surface, the
/// cross-node trace-correlation surface, the sealed-WAL surface, and the
/// chaos-failover divergent-tail surface.
pub const ALL: [&str; 21] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21",
];

/// One experiment's full result: its tables plus the telemetry the
/// harness gathered while running it.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment id (`"e1"`…).
    pub id: String,
    /// Wall-clock duration of the whole experiment.
    pub wall_time_us: u64,
    /// The result tables (what the binary prints).
    pub tables: Vec<Table>,
    /// Engine metrics absorbed from the experiment's databases.
    pub metrics: MetricsSnapshot,
    /// Statement traces absorbed from the experiment's databases (the
    /// raw material for the `--trace` Chrome export; not serialized
    /// into the `--json` report).
    pub traces: Vec<StatementTrace>,
}

/// Runs one experiment with a fresh harness registry, recording wall
/// time and the engine metrics it absorbed.
pub fn run_report(id: &str, opts: &Options) -> Option<ExperimentReport> {
    let opts = Options {
        telemetry: Registry::new(),
        traces: Recorder::new(4096),
        ..opts.clone()
    };
    let start = std::time::Instant::now();
    let tables = run(id, &opts)?;
    Some(ExperimentReport {
        id: id.to_string(),
        wall_time_us: start.elapsed().as_micros() as u64,
        tables,
        metrics: opts.telemetry.snapshot(),
        traces: opts.traces.traces(),
    })
}

fn table_to_json(w: &mut json::Writer, t: &Table) {
    w.obj_open();
    w.key("title");
    w.string(&t.title);
    w.key("headers");
    w.arr_open();
    for h in &t.headers {
        w.string(h);
    }
    w.arr_close();
    w.key("rows");
    w.arr_open();
    for row in &t.rows {
        w.arr_open();
        for cell in row {
            w.string(cell);
        }
        w.arr_close();
    }
    w.arr_close();
    w.obj_close();
}

/// Serializes a set of experiment reports as one JSON document (the
/// `--json` output of the `experiments` binary).
pub fn reports_to_json(reports: &[ExperimentReport], opts: &Options) -> String {
    let mut w = json::Writer::new();
    w.obj_open();
    w.key("quick");
    w.bool(opts.quick);
    w.key("seed");
    w.u64(opts.seed);
    w.key("experiments");
    w.arr_open();
    for r in reports {
        w.obj_open();
        w.key("id");
        w.string(&r.id);
        w.key("wall_time_us");
        w.u64(r.wall_time_us);
        w.key("tables");
        w.arr_open();
        for t in &r.tables {
            table_to_json(&mut w, t);
        }
        w.arr_close();
        w.key("metrics");
        w.raw(&r.metrics.to_json());
        w.obj_close();
    }
    w.arr_close();
    w.obj_close();
    w.into_string()
}

/// Renders the experiment contract: one `id | table | row | header |
/// value` line per cell, rows numbered from 0 and measured cells shown as
/// `~`, then one `id | table | claim | text | PASS` (or `FAIL`) line per
/// claim. `tests/experiments_golden.rs` compares the `--quick` rendering
/// of every experiment against the committed `EXPERIMENTS.golden`.
pub fn golden(reports: &[ExperimentReport]) -> String {
    let mut out = String::new();
    for r in reports {
        for t in &r.tables {
            for (i, row) in t.rows.iter().enumerate() {
                for (j, cell) in row.iter().enumerate() {
                    let header = t.headers.get(j).map_or("", String::as_str);
                    let value = if t.is_measured(i, j) { "~" } else { cell };
                    out.push_str(&format!(
                        "{} | {} | {i} | {header} | {value}\n",
                        r.id, t.title
                    ));
                }
            }
            for (text, holds) in &t.claims {
                out.push_str(&format!(
                    "{} | {} | claim | {text} | {}\n",
                    r.id,
                    t.title,
                    verdict(*holds)
                ));
            }
        }
    }
    out
}

/// Every claim that does not hold, as `id | table | text`.
pub fn failed_claims(reports: &[ExperimentReport]) -> Vec<String> {
    reports
        .iter()
        .flat_map(|r| {
            r.tables.iter().flat_map(move |t| {
                t.claims
                    .iter()
                    .filter(|(_, holds)| !holds)
                    .map(move |(text, _)| format!("{} | {} | {text}", r.id, t.title))
            })
        })
        .collect()
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Times `f` for the `harness = false` mains under `benches/`: warms up
/// for 0.3 s while sizing a batch of calls to ~0.2 s, times 10 such
/// batches, and prints the per-call min / mean / max in nanoseconds.
pub fn timeit<O>(name: &str, mut f: impl FnMut() -> O) {
    use std::hint::black_box;
    use std::time::{Duration, Instant};

    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < Duration::from_millis(300) {
        black_box(f());
        calls += 1;
    }
    let per_call_s = start.elapsed().as_secs_f64() / calls as f64;
    let batch = ((0.2 / per_call_s) as u64).clamp(1, 1_000_000);
    let samples: Vec<f64> = (0..10)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(0.0, f64::max);
    println!("{name:<40} ns/call: min {min:>12.1}  mean {mean:>12.1}  max {max:>12.1}");
}
