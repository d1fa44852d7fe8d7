//! E15 (extension) — the query flight recorder as a forensic surface.
//!
//! E12 shows the textbook hygiene step — `TRUNCATE performance_schema.*`
//! / `FLUSH STATUS` — and E5/E12 already demonstrate that the telemetry
//! registry survives it. This experiment closes the loop on the newest
//! observability layer: the per-statement tracer. After the wipe, a VM
//! snapshot still holds (a) the in-memory flight-recorder ring and (b)
//! the on-disk slow log of versioned trace records. Merging the two
//! ([`snapshot_attack::forensics::tracelog::timeline`]) reconstructs the
//! victim's query timeline — statement texts, start timestamps, and the
//! tables each statement touched.
//!
//! Mitigation variants show the knobs' partial reach, mirroring E12:
//! `telemetry_scrub_on_flush` empties the ring but not the disk records;
//! `trace_enabled = false` degrades slow-log records to text+timing but
//! still leaks every slow statement verbatim.

use minidb::engine::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::forensics::tracelog::{self, TraceSource};
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::{pct, Options};

/// One executed statement the attacker should recover.
struct Expected {
    started: i64,
    statement: String,
    table: &'static str,
}

/// Runs the victim workload: distinct, literal-bearing statements over
/// three tables, every one slow enough to cross the slow-log threshold.
fn workload(db: &Db, per_table: usize, rng: &mut StdRng) -> Vec<Expected> {
    let conn = db.connect("app");
    conn.execute("CREATE TABLE patients (id INT PRIMARY KEY, dx TEXT)")
        .unwrap();
    conn.execute("CREATE TABLE billing (id INT PRIMARY KEY, amount INT)")
        .unwrap();
    conn.execute("CREATE TABLE staff (id INT PRIMARY KEY, role TEXT)")
        .unwrap();
    for i in 0..8 {
        conn.execute(&format!("INSERT INTO patients VALUES ({i}, 'dx-{i}')"))
            .unwrap();
        conn.execute(&format!("INSERT INTO billing VALUES ({i}, {})", i * 100))
            .unwrap();
        conn.execute(&format!("INSERT INTO staff VALUES ({i}, 'role-{i}')"))
            .unwrap();
    }
    let mut expected = Vec::new();
    for i in 0..per_table {
        for table in ["patients", "billing", "staff"] {
            // Distinct literals per statement: no query-cache hits, and
            // each recovered text identifies one victim action.
            let probe: u32 = rng.gen_range(0..1_000_000);
            let statement = format!("SELECT * FROM {table} WHERE id = {}", probe + i as u32);
            conn.execute(&statement).unwrap();
            // The clock ticks once per statement before stamping it, so
            // the post-execute clock equals the statement's start time.
            let started = db.now();
            expected.push(Expected {
                started,
                statement,
                table,
            });
        }
    }
    expected
}

/// Recovery stats for one variant.
struct Recovery {
    /// Entries whose text + start timestamp match an executed statement.
    text_and_time: usize,
    /// ... and whose table list names the touched table (full recovery).
    full: usize,
    /// Entries found in memory (ring), on disk (slow log), or both.
    from_disk: usize,
    from_mem: usize,
}

fn recover(expected: &[Expected], entries: &[tracelog::TimelineEntry]) -> Recovery {
    let mut r = Recovery {
        text_and_time: 0,
        full: 0,
        from_disk: 0,
        from_mem: 0,
    };
    for e in expected {
        let Some(hit) = entries
            .iter()
            .find(|t| t.statement == e.statement && t.started == e.started)
        else {
            continue;
        };
        r.text_and_time += 1;
        if hit.tables.iter().any(|t| t == e.table) {
            r.full += 1;
        }
        match hit.source {
            TraceSource::SlowLog => r.from_disk += 1,
            TraceSource::FlightRecorder => r.from_mem += 1,
            TraceSource::Both => {
                r.from_disk += 1;
                r.from_mem += 1;
            }
        }
    }
    r
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let per_table = if opts.quick { 10 } else { 80 };

    let mut table = Table::new(
        "E15 - query timeline reconstruction after the performance_schema wipe",
        &[
            "variant",
            "statements",
            "perf-schema rows left",
            "text+timestamp",
            "full (with tables)",
            "from disk / from memory",
        ],
    );

    let variants: [(&str, DbConfig); 3] = [
        (
            "default",
            DbConfig {
                // Base cost 300us: every statement crosses this threshold,
                // so the workload above is exactly the slow-log contents.
                slow_query_threshold_us: 100,
                trace_ring_capacity: 4096,
                ..DbConfig::default()
            },
        ),
        (
            "telemetry_scrub_on_flush",
            DbConfig {
                slow_query_threshold_us: 100,
                trace_ring_capacity: 4096,
                telemetry_scrub_on_flush: true,
                ..DbConfig::default()
            },
        ),
        (
            "trace_enabled = false",
            DbConfig {
                slow_query_threshold_us: 100,
                trace_ring_capacity: 4096,
                trace_enabled: false,
                ..DbConfig::default()
            },
        ),
    ];

    // Per variant: perf-schema rows left after the wipe, and what the
    // attacker recovered.
    let mut outcomes = Vec::new();
    for (name, config) in variants {
        let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x15);
        let db = Db::open(config);
        let expected = workload(&db, per_table, &mut rng);

        // The hygiene step: wipe the statement history and digests
        // (plus, per config, the registry and the ring).
        db.flush_diagnostics();

        // The attack: a leaked full-state VM image.
        let obs = capture(&db, AttackVector::VmSnapshotLeak);
        let disk = obs.persistent_db.as_ref().unwrap();
        let mem = obs.volatile_db.as_ref().unwrap();
        let entries = tracelog::timeline(Some(disk), Some(mem));
        let r = recover(&expected, &entries);
        let left = mem.statements_history.len() + mem.digest_summary.len();

        table.row(&[
            name.into(),
            expected.len().to_string(),
            left.to_string(),
            pct(r.text_and_time as f64 / expected.len() as f64),
            pct(r.full as f64 / expected.len() as f64),
            format!("{} / {}", r.from_disk, r.from_mem),
        ]);
        outcomes.push((left, r));

        opts.absorb_db(&db);
    }

    let [(_, default), (_, scrub), (_, off)] = &outcomes[..] else {
        unreachable!("three variants")
    };
    // Every variant runs the same workload of 3 * per_table statements.
    let most = |n: usize| n as f64 >= 0.9 * (3 * per_table) as f64;
    table.claim(
        "every variant's wipe leaves no perf-schema rows",
        outcomes.iter().all(|(left, _)| *left == 0),
    );
    table.claim(
        "default: >= 90% of slow statements recovered in full (text, timestamp, table)",
        most(default.text_and_time) && most(default.full),
    );
    table.claim(
        "scrub-on-flush empties the ring, but disk records still give >= 90% in full",
        scrub.from_mem == 0 && most(scrub.full),
    );
    table.claim(
        "tracer off: >= 90% still leak text and timing, with no table lists",
        most(off.text_and_time) && off.full == 0,
    );

    vec![table]
}
