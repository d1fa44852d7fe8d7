//! E1 — Figure 1: what each attack vector reveals, demonstrated against a
//! live workload rather than asserted — including the replicated-topology
//! extension: the same vector aimed at a *replica* recovers the shipped
//! statement history from its relay log.

use mdb_repl::router::{ReplicaSet, ReplicaSetConfig};
use minidb::engine::DbConfig;
use snapshot_attack::forensics::{binlog, memscan, relay};
use snapshot_attack::report::Table;
use snapshot_attack::threat::{capture, AttackVector};

use crate::Options;

fn mark(b: bool) -> &'static str {
    if b {
        "X"
    } else {
        ""
    }
}

/// Runs the experiment.
pub fn run(opts: &Options) -> Vec<Table> {
    let mut set = ReplicaSet::start(ReplicaSetConfig {
        replicas: 1,
        base: DbConfig {
            redo_capacity: 1 << 20,
            undo_capacity: 1 << 20,
            ..DbConfig::default()
        },
        ..ReplicaSetConfig::default()
    })
    .expect("replica set starts");
    set.write("CREATE TABLE accounts (id INT PRIMARY KEY, owner TEXT, balance INT)")
        .unwrap();
    for i in 0..50 {
        set.write(&format!(
            "INSERT INTO accounts VALUES ({i}, 'owner{i}', {})",
            i * 100
        ))
        .unwrap();
    }
    let db = set.primary().clone();
    let conn = db.connect("app");
    conn.execute("SELECT * FROM accounts WHERE balance >= 4000")
        .unwrap();
    conn.execute("UPDATE accounts SET balance = 0 WHERE id = 7")
        .unwrap();
    set.wait_for_sync(std::time::Duration::from_secs(10));

    // The Figure 1 matrix, measured — per host: each replica is one more
    // machine the same four vectors apply to.
    let mut matrix = Table::new(
        "Figure 1 - state revealed per attack vector (per host: primary or replica)",
        &["attack", "pers. DB", "vol. DB", "pers. OS", "vol. OS"],
    );
    for vector in AttackVector::ALL {
        let obs = capture(&db, vector);
        let v = obs.visibility();
        matrix.row(&[
            vector.name().to_string(),
            mark(v[0]).into(),
            mark(v[1]).into(),
            mark(v[2]).into(),
            mark(v[3]).into(),
        ]);
        match vector {
            AttackVector::DiskTheft => {
                matrix.claim(
                    "disk theft reveals persistent DB state but not volatile DB state",
                    v[0] && !v[1],
                );
            }
            AttackVector::VmSnapshotLeak => {
                matrix.claim(
                    "a VM snapshot leak reveals all four kinds of state",
                    v.iter().all(|&x| x),
                );
            }
            _ => {}
        }
    }

    // The paper's point, demonstrated: which *query-history artifacts*
    // each vector actually yields on this workload — now with the
    // replicated column: statements the same vector recovers from a
    // REPLICA host's relay log.
    let mut artifacts = Table::new(
        "Figure 1 (extended) - query-history artifacts actually recovered",
        &[
            "attack",
            "binlog stmts",
            "diag tables",
            "heap SQL strings",
            "replica relay stmts",
        ],
    );
    for vector in AttackVector::ALL {
        let obs = capture(&db, vector);
        let binlog_stmts = obs
            .persistent_db
            .as_ref()
            .and_then(|d| d.file(minidb::wal::BINLOG_FILE).map(binlog::parse_binlog))
            .map(|evs| evs.len())
            .unwrap_or(0);
        // Diagnostic tables are reachable through injected SQL, and their
        // backing state sits in process memory for snapshot vectors.
        let diag = match (&obs.sql, &obs.volatile_db) {
            (Some(conn), _) => conn
                .execute("SELECT * FROM performance_schema.events_statements_summary_by_digest")
                .map(|r| r.rows.len())
                .unwrap_or(0),
            (None, Some(mem)) => mem.digest_summary.len(),
            (None, None) => 0,
        };
        let heap_sql = obs
            .volatile_db
            .as_ref()
            .map(|m| memscan::carve_sql(&m.heap).len())
            .unwrap_or(0);
        // The same vector, aimed at the replica host instead.
        let replica_obs = capture(set.replica(0), vector);
        let relay_stmts = replica_obs
            .persistent_db
            .as_ref()
            .map(|d| relay::carve_relay(d).len())
            .unwrap_or(0);
        artifacts.row(&[
            vector.name().to_string(),
            binlog_stmts.to_string(),
            if diag > 0 {
                format!("{diag} digests")
            } else {
                String::new()
            },
            heap_sql.to_string(),
            relay_stmts.to_string(),
        ]);
        match vector {
            AttackVector::DiskTheft => {
                artifacts.claim(
                    "disk theft recovers binlog statements but no heap SQL strings",
                    binlog_stmts > 0 && heap_sql == 0,
                );
                // CREATE + 50 INSERTs + the UPDATE, which the primary
                // binlogs and ships too.
                artifacts.claim(
                    "disk theft of the replica recovers all 52 shipped statements from its relay log",
                    relay_stmts == 52,
                );
            }
            AttackVector::SqlInjection => {
                artifacts.claim(
                    "SQL injection reads the digest tables and carves SQL strings from the heap",
                    diag > 0 && heap_sql > 0,
                );
            }
            _ => {}
        }
    }
    opts.absorb_db(&db);
    opts.absorb_db(set.replica(0));
    set.shutdown();
    vec![matrix, artifacts]
}
