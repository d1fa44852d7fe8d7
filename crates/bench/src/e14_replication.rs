//! E14 (extension) — replication as a *multiplied* snapshot surface.
//!
//! A 1-primary / 2-replica `ReplicaSet` runs a write workload with
//! concurrent routed reads and an injected mid-stream disconnect. After
//! the fleet syncs, the primary performs the textbook hygiene step —
//! `PURGE BINARY LOGS` — and the attacker snapshots a *replica* instead:
//! the relay log yields the executed write statements, verbatim and
//! timestamped. The experiment also shows the surface multiplying again:
//! each replica re-executes shipped statements through its own engine,
//! so its *own* binlog re-logs the history a third time.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use mdb_repl::router::{ReadTarget, ReplicaSet, ReplicaSetConfig};
use minidb::engine::DbConfig;
use minidb::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snapshot_attack::forensics::{binlog, relay};
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture_replicated, AttackVector, CaptureSite};

use crate::{pct, Options};

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let writes = if opts.quick { 60 } else { 400 };
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x14);

    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 2,
        max_read_lag: 1_000,
        base: DbConfig {
            redo_capacity: 8 << 20,
            undo_capacity: 8 << 20,
            ..DbConfig::default()
        },
        ..ReplicaSetConfig::default()
    })
    .expect("replica set starts");

    set.write("CREATE TABLE visits (id INT PRIMARY KEY, patient TEXT, ward INT)")
        .unwrap();

    // Concurrent routed reads while the writes run.
    let stop = AtomicBool::new(false);
    let mut executed: Vec<String> = Vec::with_capacity(writes);
    let (read_attempts, reads_total, reads_on_replicas, max_lag_seen, retries) =
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut attempts = 0u64;
                let mut total = 0u64;
                let mut on_replicas = 0u64;
                let mut max_lag = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    attempts += 1;
                    if matches!(set.route_read(), ReadTarget::Replica(_)) {
                        on_replicas += 1;
                    }
                    // An early routed read can fail while the replica is
                    // still behind the CREATE TABLE — that is lag, not loss.
                    if set.read("SELECT COUNT(*) FROM visits").is_ok() {
                        total += 1;
                    }
                    for st in set.status() {
                        max_lag = max_lag.max(st.lag_events);
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                (attempts, total, on_replicas, max_lag)
            });

            for i in 0..writes {
                let stmt = format!(
                    "INSERT INTO visits VALUES ({i}, 'patient-{}', {})",
                    rng.gen_range(0..10_000),
                    rng.gen_range(0..20)
                );
                set.write(&stmt).unwrap();
                executed.push(stmt);
                if i == writes / 2 {
                    // Cut replica 0's link mid-stream; it must reconnect and
                    // resume without losing or duplicating events. A cut
                    // only severs a live link, so on a loaded box wait for
                    // replica 0's first attach rather than cut nothing.
                    for _ in 0..2_500 {
                        if set.status()[0].state == "streaming" {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    set.inject_disconnect(0);
                }
            }
            let synced = set.wait_for_sync(Duration::from_secs(30));
            assert!(synced, "replicas catch up after the injected disconnect");
            stop.store(true, Ordering::SeqCst);
            let (attempts, total, on_replicas, max_lag) = reader.join().unwrap();
            let retries: u64 = set.status().iter().map(|st| st.retries).sum();
            (attempts, total, on_replicas, max_lag, retries)
        });

    // Row counts agree everywhere: nothing lost, nothing duplicated.
    let rows_on = |db: &minidb::engine::Db| {
        db.connect("audit")
            .execute("SELECT COUNT(*) FROM visits")
            .unwrap()
            .rows[0][0]
            .clone()
    };
    let mut topology = Table::new(
        "E14 - replicated topology under concurrent load",
        &["metric", "value"],
    );
    topology.row(&["write statements on primary".into(), writes.to_string()]);
    let mut counts = vec![rows_on(set.primary())];
    topology.row(&["rows on primary".into(), counts[0].to_string()]);
    for i in 0..set.replica_count() {
        counts.push(rows_on(set.replica(i)));
        topology.row(&[format!("rows on replica {i}"), counts[i + 1].to_string()]);
    }
    topology.claim(
        "the primary and every replica hold each written row once, across the injected cut",
        counts.iter().all(|n| *n == Value::Int(writes as i64)),
    );
    // How many reads the readers fit beside the writer, and how far the
    // replicas lag while they do, is a race.
    topology
        .row(&["concurrent reads served".into(), reads_total.to_string()])
        .measured(&[1]);
    topology
        .row(&[
            "reads routed to replicas".into(),
            format!(
                "{reads_on_replicas} of {read_attempts} ({})",
                pct(reads_on_replicas as f64 / read_attempts.max(1) as f64)
            ),
        ])
        .measured(&[1]);
    topology
        .row(&[
            "max replication lag seen (events)".into(),
            max_lag_seen.to_string(),
        ])
        .measured(&[1]);
    topology.row(&["stream retries (injected cut)".into(), retries.to_string()]);
    topology.claim(
        "concurrent routed reads are served beside the writes",
        reads_total >= 1,
    );
    topology.claim("the injected cut forces a stream retry", retries >= 1);

    // Lag is an ordinary SQL query away on the primary.
    let admin = set.primary().connect("admin");
    let is_rows = admin
        .execute("SELECT replica_id, state, lag_events FROM information_schema.replicas")
        .unwrap();
    topology.row(&[
        "information_schema.replicas rows".into(),
        is_rows.rows.len().to_string(),
    ]);
    topology.claim(
        "information_schema.replicas lists every replica",
        is_rows.rows.len() == set.replica_count(),
    );

    // ===== the attack: purge the primary's binlog, snapshot the fleet =====
    set.primary().purge_binlog();
    let replicas: Vec<&minidb::engine::Db> =
        (0..set.replica_count()).map(|i| set.replica(i)).collect();
    let observations = capture_replicated(set.primary(), &replicas, AttackVector::DiskTheft);

    let mut recovery = Table::new(
        "E14 - write-statement recovery after primary PURGE BINARY LOGS",
        &[
            "snapshot site",
            "channel",
            "events",
            "write coverage",
            "timestamped",
        ],
    );
    let mut primary_events = None;
    let mut relays_recover = true;
    for obs in &observations {
        let disk = obs.observation.persistent_db.as_ref().unwrap();
        // Channel 1: the host's own binlog.
        let binlog_events = disk
            .file(minidb::wal::BINLOG_FILE)
            .map(binlog::parse_binlog)
            .unwrap_or_default();
        let cov = relay::coverage(&binlog_events, &executed);
        if matches!(obs.site, CaptureSite::Primary) {
            primary_events = Some(binlog_events.len());
        }
        recovery.row(&[
            obs.site.name(),
            "binlog".into(),
            binlog_events.len().to_string(),
            pct(cov),
            binlog_events.iter().all(|e| e.timestamp > 0).to_string(),
        ]);
        // Channel 2: relay logs (replicas only).
        if matches!(obs.site, CaptureSite::Replica(_)) {
            let relay_events = relay::carve_relay(disk);
            let cov = relay::coverage(&relay_events, &executed);
            let stamped = relay_events.iter().all(|e| e.timestamp > 0);
            relays_recover &= cov >= 0.95 && stamped;
            recovery.row(&[
                obs.site.name(),
                "relay log".into(),
                relay_events.len().to_string(),
                pct(cov),
                stamped.to_string(),
            ]);
        }
    }
    recovery.claim(
        "the purged primary binlog yields nothing",
        primary_events == Some(0),
    );
    recovery.claim(
        "each replica's relay log recovers >= 95% of the executed writes, timestamped",
        relays_recover,
    );
    opts.absorb_db(set.primary());
    for i in 0..set.replica_count() {
        opts.absorb_db(set.replica(i));
    }
    set.shutdown();
    vec![topology, recovery]
}
