//! `forensic` — standalone snapshot analysis, the attacker's offline
//! toolbox: point it at a captured `EDBSNAP6` image and carve.
//!
//! ```text
//! forensic <image-file> <command> [primary-image]
//! ```
//!
//! Run it without arguments for the commands; `COMMANDS` lists them
//! once, for `usage` and dispatch alike. An image is the bytes of
//! `minidb::snapshot::SystemImage::to_bytes`. The test
//! `crates/core/tests/forensic_cli.rs` writes a primary's, a replica's
//! and a fenced primary's image that way and runs every command on
//! them.

use minidb::snapshot::SystemImage;
use minidb::storage::DUMP_FILE;
use minidb::wal::{BinlogEvent, BINLOG_FILE, REDO_FILE, UNDO_FILE};
use snapshot_attack::forensics::{
    binlog, bufpool, divergent, memscan, relay, telemetry, tracelog, versions, wal, xtrace, zonemap,
};

/// A command's handler: the image, and the optional argument after the
/// command.
type Handler = fn(&SystemImage, Option<&str>);

/// Every command: its name, one line of help, and its handler.
#[rustfmt::skip]
const COMMANDS: &[(&str, &str, Handler)] = &[
    ("summary",   "what the image contains", |i, _| summary(i)),
    ("writes",    "data-modifying statements reconstructed from the redo log", |i, _| writes(i)),
    ("undo",      "before-images from the undo log", |i, _| undo(i)),
    ("binlog",    "statements with timestamps (mysqlbinlog-alike)", |i, _| binlog_cmd(i)),
    ("relay",     "a replica's relay logs; they survive a primary-side PURGE BINARY LOGS", |i, _| relay_cmd(i)),
    ("divergent", "a fenced primary's quarantine: writes acked but never replicated", |i, _| divergent_cmd(i)),
    ("strings",   "SQL statements carved from the heap dump", |i, _| strings(i)),
    ("tokens",    "hex tokens (trapdoors, ORE tokens, DET cts) in carved SQL", |i, _| tokens(i)),
    ("digests",   "performance_schema digest histogram", |i, _| digests(i)),
    ("bufpool",   "recently-read index key ranges from the LRU dump", |i, _| bufpool_cmd(i)),
    ("metrics",   "telemetry registry: per-table access distribution etc.", |i, _| metrics_cmd(i)),
    ("tracelog",  "query timeline from the slow log + flight recorder", |i, _| tracelog_cmd(i)),
    ("zonemap",   "per-page plaintext min/max ranges from heap synopses", |i, _| zonemap_cmd(i)),
    ("versions",  "per-row edit history carved from the MVCC version store", |i, _| versions_cmd(i)),
    ("xtrace",    "trace ids carved from a replica; [primary-image] maps them to sessions", xtrace_cmd),
];

fn usage() -> String {
    let mut out =
        String::from("usage: forensic <image-file> <command> [primary-image]\n\ncommands:\n");
    for (name, help, _) in COMMANDS {
        out += &format!("  {name:<10} {help}\n");
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(path), Some(cmd)) = (args.first(), args.get(1)) else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    let Some((_, _, handler)) = COMMANDS.iter().find(|(name, ..)| name == cmd) else {
        eprint!("forensic: unknown command {cmd}\n{}", usage());
        std::process::exit(2);
    };
    handler(&load(path), args.get(2).map(String::as_str));
}

/// Reads and parses an image, or exits 1 saying why it cannot.
fn load(path: &str) -> SystemImage {
    let image = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|b| {
            SystemImage::from_bytes(&b).map_err(|e| format!("not a valid EDBSNAP6 image: {e}"))
        });
    image.unwrap_or_else(|e| {
        eprintln!("forensic: cannot load {path}: {e}");
        std::process::exit(1);
    })
}

fn summary(image: &SystemImage) {
    println!("captured_at: {}", image.captured_at);
    println!("disk files ({}):", image.disk.files.len());
    for (name, data) in &image.disk.files {
        println!("  {name:<24} {:>10} bytes", data.len());
    }
    let m = &image.memory;
    println!("memory:");
    println!("  heap dump            {:>10} bytes", m.heap.len());
    println!("  cached queries       {:>10}", m.cached_queries.len());
    println!("  cached pages (LRU)   {:>10}", m.cached_pages.len());
    println!("  statement history    {:>10}", m.statements_history.len());
    println!("  digest rows          {:>10}", m.digest_summary.len());
    println!("  processlist entries  {:>10}", m.processlist.len());
    println!("  adaptive-hash keys   {:>10}", m.adaptive_hash_keys.len());
    println!(
        "  telemetry            {:>10} counters, {} histograms",
        m.metrics.counters.len(),
        m.metrics.histograms.len()
    );
    println!("  query traces (ring)  {:>10}", m.query_traces.len());
    println!("  zone-map mirrors     {:>10}", m.zone_maps.len());
    println!(
        "  version chains       {:>10} rows, {} archived versions",
        m.version_chains.len(),
        m.version_chains
            .iter()
            .map(|c| c.versions.len())
            .sum::<usize>()
    );
}

fn zonemap_cmd(image: &SystemImage) {
    let pages = zonemap::recover(Some(&image.disk), Some(&image.memory));
    if pages.is_empty() {
        println!("no page synopses recovered (zone maps disabled?)");
        return;
    }
    for p in &pages {
        let src = match p.source {
            zonemap::ZoneMapSource::Disk => "disk",
            zonemap::ZoneMapSource::Memory => "mem",
            zonemap::ZoneMapSource::Both => "both",
        };
        let cols: Vec<String> = p
            .columns
            .iter()
            .map(|(c, min, max)| format!("col{c} [{min} .. {max}]"))
            .collect();
        println!(
            "{} page {:<6} [{src}] rows={:<5} {}",
            p.file,
            p.page_no,
            p.rows,
            cols.join("  ")
        );
    }
    let mut cols: Vec<u16> = pages
        .iter()
        .flat_map(|p| p.columns.iter().map(|c| c.0))
        .collect();
    cols.sort_unstable();
    cols.dedup();
    for c in cols {
        let f = zonemap::bracket_fraction(&pages, c, 1u128 << 32);
        eprintln!("col{c}: {:.4}% of the 32-bit space bracketed", f * 100.0);
    }
    eprintln!("{} pages recovered", pages.len());
}

fn versions_cmd(image: &SystemImage) {
    // Prefer the raw file carve (it sees tombstoned records the engine
    // already forgot); fall back to the memory image's chains.
    let mut carved = versions::carve_disk(&image.disk);
    if carved.is_empty() {
        carved = versions::from_memory(&image.memory);
    }
    if carved.is_empty() {
        println!("no version records recovered (vacuumed with scrub, or no updates)");
        return;
    }
    let state_name = |s: u8| match s {
        minidb::mvcc::STATE_PENDING => "pending",
        minidb::mvcc::STATE_COMMITTED => "committed",
        minidb::mvcc::STATE_ABORTED => "aborted",
        _ => "vacuumed",
    };
    for ((table, row_id), chain) in versions::chains(&carved) {
        println!("{table} row {row_id}: {} superseded versions", chain.len());
        for v in &chain {
            let op = if v.op == minidb::mvcc::OP_DELETE {
                "DELETE"
            } else {
                "UPDATE"
            };
            println!(
                "  xmin={:<6} xmax={:<6} [{}/{op}] {:?}",
                v.xmin,
                v.xmax,
                state_name(v.state),
                v.values
            );
        }
    }
    eprintln!("{} version records recovered", carved.len());
}

fn tracelog_cmd(image: &SystemImage) {
    let tl = tracelog::timeline(Some(&image.disk), Some(&image.memory));
    if tl.is_empty() {
        println!("no trace records in image (tracer disabled and nothing slow)");
        return;
    }
    for e in &tl {
        let src = match e.source {
            tracelog::TraceSource::SlowLog => "disk",
            tracelog::TraceSource::FlightRecorder => "mem",
            tracelog::TraceSource::Both => "both",
        };
        println!(
            "t={} [{src}] {:>8}us tables=[{}] {}",
            e.started,
            e.duration_us,
            e.tables.join(","),
            e.statement
        );
    }
    eprintln!("{} timeline entries", tl.len());
}

fn metrics_cmd(image: &SystemImage) {
    let ms = &image.memory.metrics;
    if ms.is_zero() && ms.counters.is_empty() {
        println!("no telemetry in image (registry disabled or scrubbed)");
        return;
    }
    println!(
        "statements observed: {}",
        telemetry::statements_observed(ms)
    );
    let dist = telemetry::table_access_distribution(ms);
    if !dist.is_empty() {
        println!("table access distribution (the victim's query targets):");
        for d in &dist {
            println!(
                "  {:<24} {:>8}  {:>5.1}%",
                d.table,
                d.count,
                d.share * 100.0
            );
        }
    }
    let mix = telemetry::statement_mix(ms);
    if !mix.is_empty() {
        println!("statement mix:");
        for (kind, n) in &mix {
            println!("  {kind:<24} {n:>8}");
        }
    }
    if telemetry::onion_was_peeled(ms) {
        println!("onion downgrade events present: a column was ratcheted to DET");
    }
}

fn xtrace_cmd(image: &SystemImage, primary_path: Option<&str>) {
    let carved = xtrace::carve_replica_trace_ids(&image.disk);
    if carved.is_empty() {
        println!("no trace ids in image (tracing off, sampled out, or id-hashed)");
        return;
    }
    for c in &carved {
        let src = match c.source {
            xtrace::XtraceSource::RelayLog => "relay",
            xtrace::XtraceSource::SlowLog => "slow",
        };
        println!(
            "t={} [{src:<5}] trace={:032x} {}",
            c.timestamp, c.trace_id, c.statement
        );
    }
    eprintln!("{} trace ids carved", carved.len());
    let Some(path) = primary_path else {
        eprintln!("(pass a primary image to attribute statements to sessions)");
        return;
    };
    let primary = load(path);
    let index = xtrace::primary_session_index(&primary.disk);
    let a = xtrace::attribute(&carved, &index);
    for hit in &a.attributed {
        println!(
            "session {:<4} trace={:032x} {}",
            hit.session_id, hit.trace_id, hit.primary_statement
        );
    }
    eprintln!(
        "attribution: {}/{} distinct trace ids ({:.1}%)",
        a.matched,
        a.carved,
        a.rate() * 100.0
    );
}

fn writes(image: &SystemImage) {
    let Some(raw) = image.disk.file(REDO_FILE) else {
        eprintln!("no redo log in image");
        return;
    };
    for w in wal::reconstruct_writes(raw) {
        match &w.row {
            Some(row) => println!(
                "lsn {:>8} txn {:>6} {:?} {:?}",
                w.lsn, w.txn, w.op, row.values
            ),
            None => println!("lsn {:>8} txn {:>6} {:?} (no image)", w.lsn, w.txn, w.op),
        }
    }
}

fn undo(image: &SystemImage) {
    let Some(raw) = image.disk.file(UNDO_FILE) else {
        eprintln!("no undo log in image");
        return;
    };
    for b in wal::reconstruct_before_images(raw) {
        match &b.before {
            Some(row) => println!(
                "lsn {:>8} txn {:>6} {:?} row {} was {:?}",
                b.lsn, b.txn, b.op, b.row_id, row.values
            ),
            None => println!(
                "lsn {:>8} txn {:>6} {:?} row {}",
                b.lsn, b.txn, b.op, b.row_id
            ),
        }
    }
}

fn binlog_cmd(image: &SystemImage) {
    let Some(raw) = image.disk.file(BINLOG_FILE) else {
        eprintln!("no binlog in image");
        return;
    };
    print_events(binlog::parse_binlog(raw));
}

fn relay_cmd(image: &SystemImage) {
    let files = relay::relay_files(&image.disk);
    if files.is_empty() {
        eprintln!("no relay logs in image (not a replica, or logs rotated away)");
        return;
    }
    eprintln!("relay files: {}", files.join(", "));
    print_events(relay::carve_relay(&image.disk));
}

fn divergent_cmd(image: &SystemImage) {
    if divergent::divergent_file(&image.disk).is_none() {
        eprintln!("no divergent sidecar in image (node was never fenced)");
        return;
    }
    let (total, sealed) = divergent::frame_census(&image.disk);
    eprintln!("{total} quarantined frames ({sealed} sealed)");
    print_events(divergent::carve_divergent(&image.disk));
}

/// One line per replication event: the binlog, relay and divergent
/// carves print alike.
fn print_events(events: Vec<BinlogEvent>) {
    for e in events {
        println!(
            "t={} lsn={} txn={} {}",
            e.timestamp, e.lsn, e.txn, e.statement
        );
    }
}

fn strings(image: &SystemImage) {
    for s in memscan::carve_sql(&image.memory.heap) {
        println!("heap@{:<8} {}", s.offset, s.text);
    }
}

fn tokens(image: &SystemImage) {
    let mut seen = std::collections::BTreeSet::new();
    // Tokens hide in heap SQL, history texts, cached queries, and the
    // binlog statements alike.
    let mut texts: Vec<String> = memscan::carve_sql(&image.memory.heap)
        .into_iter()
        .map(|s| s.text)
        .collect();
    texts.extend(image.memory.cached_queries.iter().cloned());
    texts.extend(
        image
            .memory
            .statements_history
            .iter()
            .map(|e| e.sql_text.clone()),
    );
    if let Some(raw) = image.disk.file(BINLOG_FILE) {
        texts.extend(binlog::parse_binlog(raw).into_iter().map(|e| e.statement));
    }
    for t in &texts {
        for tok in binlog::extract_hex_literals(t) {
            if seen.insert(tok.clone()) {
                let hex: String = tok.iter().take(24).map(|b| format!("{b:02x}")).collect();
                println!(
                    "{:>5} bytes  {hex}{}",
                    tok.len(),
                    if tok.len() > 24 { "…" } else { "" }
                );
            }
        }
    }
    eprintln!("{} distinct tokens", seen.len());
}

fn digests(image: &SystemImage) {
    let mut rows = image.memory.digest_summary.clone();
    rows.sort_by_key(|d| std::cmp::Reverse(d.count_star));
    for d in rows {
        println!(
            "{:>8}x  rows_examined={:<8} {}",
            d.count_star, d.sum_rows_examined, d.digest
        );
    }
}

fn bufpool_cmd(image: &SystemImage) {
    let Some(dump_raw) = image.disk.file(DUMP_FILE) else {
        eprintln!("no buffer-pool dump in image (did the victim shut down cleanly?)");
        return;
    };
    let dump = bufpool::parse_dump(dump_raw);
    // Analyse every index file present.
    for (name, data) in &image.disk.files {
        if !name.starts_with("index_") {
            continue;
        }
        let ranges = bufpool::recently_read_ranges(&dump, name, data);
        if ranges.is_empty() {
            continue;
        }
        println!("{name}:");
        for (page, min, max) in ranges.iter().take(10) {
            println!("  leaf {page:<6} keys [{min} .. {max}]");
        }
    }
}
