//! The closed-loop run: start the server (and replicas), load through
//! the wire, then drive two connections, each sending its next
//! statement only after the previous reply, for a fixed time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use mdb_repl::{ReplicaSet, ReplicaSetConfig, TransportKind};
use mdb_server::{MdbClient, MdbServer, ServerOptions, WireResultSet};
use mdb_telemetry::MetricsSnapshot;
use minidb::value::Value;
use minidb::{Db, DbConfig};

use crate::workload::{Check, Generator, Kind, Unit, Workload, CONNECTIONS};

/// How long the post-load and post-run replica catch-up may take.
const SYNC_TIMEOUT: Duration = Duration::from_secs(60);

/// A running deployment: the SQL server in front of the primary, and
/// the replica set behind it when the workload is replicated.
pub struct Cluster {
    /// The primary engine.
    pub primary: Db,
    /// Primary + two replicas over loopback TCP, when replicated.
    pub set: Option<ReplicaSet>,
    /// The wire front end of the primary.
    pub server: MdbServer,
}

impl Cluster {
    /// Starts the nodes and the SQL server. Nothing is loaded yet.
    fn start(config: DbConfig, replicated: bool) -> Cluster {
        let (primary, set) = if replicated {
            let set = ReplicaSet::start(ReplicaSetConfig {
                replicas: 2,
                transport: TransportKind::Tcp,
                base: config,
                ..ReplicaSetConfig::default()
            })
            .expect("replica set starts on loopback");
            (set.primary().clone(), Some(set))
        } else {
            (Db::open(config), None)
        };
        let server = MdbServer::start(primary.clone(), ServerOptions::default())
            .expect("server binds an ephemeral loopback port");
        Cluster {
            primary,
            set,
            server,
        }
    }

    /// Starts the workload's deployment and loads its table through the
    /// wire. This is what `setup_s` times.
    pub fn set_up(workload: Workload, config: DbConfig, seed: u64, smoke: bool) -> Cluster {
        let cluster = Cluster::start(config, workload.replicated());
        let mut client =
            MdbClient::connect(cluster.server.local_addr(), "load").expect("load client connects");
        for sql in workload.load_statements(seed, smoke) {
            client.query(&sql).expect("load statement succeeds");
        }
        client.close().expect("load client closes");
        assert!(cluster.sync(), "replicas caught up with the load");
        cluster
    }

    /// Waits until both replicas applied everything the primary logged.
    /// True at once on a single node.
    pub fn sync(&self) -> bool {
        self.set
            .as_ref()
            .is_none_or(|set| set.wait_for_sync(SYNC_TIMEOUT))
    }

    /// Telemetry of every replica, in index order.
    pub fn replica_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.set.as_ref().map_or_else(Vec::new, |set| {
            (0..set.replica_count())
                .map(|i| set.replica(i).metrics_snapshot())
                .collect()
        })
    }
}

/// Process CPU time (user + system) in microseconds, from
/// `/proc/self/stat` fields 14 and 15, in clock ticks of 1/100 s.
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis.
    let after = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let mut fields = after.split(' ').skip(11);
    let mut ticks = || -> u64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime and stime are numbers")
    };
    (ticks() + ticks()) * 10_000
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line present");
    kb / 1024.0
}

/// Whether `result` is what `check` expects.
pub fn check_result(check: &Check, result: &WireResultSet) -> bool {
    match check {
        Check::Done => true,
        Check::Affected(n) => result.rows_affected == *n,
        Check::Row(Some(row)) => result.rows.len() == 1 && result.rows[0] == *row,
        Check::Row(None) => result.rows.is_empty(),
        Check::One => result.rows.len() == 1,
        Check::AtMostOne => result.rows.len() <= 1,
        Check::CountSum { rows, sum } => {
            result.rows.len() as u64 == *rows && first_column_sum(result) == *sum
        }
    }
}

/// Sum of the integer first column of every row.
pub fn first_column_sum(result: &WireResultSet) -> i64 {
    result
        .rows
        .iter()
        .map(|r| match r.first() {
            Some(Value::Int(n)) => *n,
            _ => 0,
        })
        .sum()
}

/// What one connection measured.
#[derive(Default)]
pub struct ConnStats {
    /// Latency of every statement sent, nanoseconds.
    pub stmt_ns: Vec<u64>,
    /// Autocommit read latencies, nanoseconds.
    pub read_ns: Vec<u64>,
    /// Autocommit write latencies, nanoseconds.
    pub write_ns: Vec<u64>,
    /// `BEGIN`…`COMMIT` durations, nanoseconds.
    pub txn_ns: Vec<u64>,
    /// Statements that failed or returned the wrong result, and torn
    /// pairs.
    pub failed: u64,
    /// `SELECT`s acknowledged.
    pub reads: u64,
    /// DML statements acknowledged.
    pub writes: u64,
    /// Durability points acknowledged: autocommit DML and `COMMIT`s of
    /// writing transactions.
    pub commits: u64,
    /// User bytes of acknowledged writes.
    pub user_bytes: u64,
    /// Text of every acknowledged DML statement (replicated workloads
    /// only; the leakage gate looks for them in a relay log).
    pub write_sql: Vec<String>,
}

impl ConnStats {
    /// Folds another connection's measurements into this one.
    pub fn merge(&mut self, other: ConnStats) {
        self.stmt_ns.extend(other.stmt_ns);
        self.read_ns.extend(other.read_ns);
        self.write_ns.extend(other.write_ns);
        self.txn_ns.extend(other.txn_ns);
        self.failed += other.failed;
        self.reads += other.reads;
        self.writes += other.writes;
        self.commits += other.commits;
        self.user_bytes += other.user_bytes;
        self.write_sql.extend(other.write_sql);
    }
}

/// Sends one unit and records it. `keep_sql` keeps DML text for the
/// leakage gate.
fn run_unit(client: &mut MdbClient, unit: Unit, stats: &mut ConnStats, keep_sql: bool) {
    let unit_started = Instant::now();
    let mut select_sum = 0i64;
    let mut ok = true;
    for stmt in &unit.stmts {
        let started = Instant::now();
        let result = client.query(&stmt.sql);
        stats.stmt_ns.push(started.elapsed().as_nanos() as u64);
        match result {
            Ok(r) if check_result(&stmt.check, &r) => select_sum += first_column_sum(&r),
            _ => {
                stats.failed += 1;
                ok = false;
                break;
            }
        }
    }
    if !ok {
        if unit.kind == Kind::Txn {
            let _ = client.query("ROLLBACK");
        }
        return;
    }
    if unit.pair_sum.is_some_and(|s| s != select_sum) {
        // A read-only transaction saw half of a transfer.
        stats.failed += 1;
    }
    let elapsed = unit_started.elapsed().as_nanos() as u64;
    match unit.kind {
        Kind::Read => stats.read_ns.push(elapsed),
        Kind::Write => stats.write_ns.push(elapsed),
        Kind::Txn => stats.txn_ns.push(elapsed),
    }
    stats.user_bytes += unit.user_bytes;
    if unit.user_bytes > 0 {
        stats.commits += 1;
    }
    for stmt in unit.stmts {
        match stmt.check {
            Check::Affected(_) => {
                stats.writes += 1;
                if keep_sql {
                    stats.write_sql.push(stmt.sql);
                }
            }
            Check::Done => {}
            _ => stats.reads += 1,
        }
    }
}

/// Telemetry and process counters at one instant.
pub struct Snapshot {
    /// Primary telemetry.
    pub primary: MetricsSnapshot,
    /// Replica telemetry.
    pub replicas: Vec<MetricsSnapshot>,
    /// Process CPU so far, microseconds.
    pub cpu_us: u64,
}

impl Snapshot {
    /// Reads the cluster's telemetry and the process clock now.
    pub fn take(cluster: &Cluster) -> Snapshot {
        Snapshot {
            primary: cluster.primary.metrics_snapshot(),
            replicas: cluster.replica_snapshots(),
            cpu_us: process_cpu_us(),
        }
    }
}

/// The measured phase of one closed-loop run.
pub struct Phase {
    /// Both connections' measurements, merged.
    pub stats: ConnStats,
    /// Wall time from the common start to the last acknowledgement.
    pub wall: Duration,
    /// Counters when the measured phase began.
    pub before: Snapshot,
    /// Largest replica lag seen while it ran, in binlog events.
    pub lag_events_max: u64,
    /// Each connection's generator, holding its model.
    pub generators: Vec<Generator>,
}

/// Options of one closed-loop run.
pub struct LoopOptions {
    /// Client connections (2, or 1 for the scaling side pass).
    pub connections: usize,
    /// Untimed lead-in per connection.
    pub warmup: Duration,
    /// Measured time.
    pub measure: Duration,
    /// Whether clients attach a trace context to every statement (the
    /// shipped default).
    pub client_tracing: bool,
}

/// Drives `workload` against `cluster` with one thread per connection.
pub fn closed_loop(
    cluster: &Cluster,
    workload: Workload,
    seed: u64,
    smoke: bool,
    opts: &LoopOptions,
) -> Phase {
    let addr = cluster.server.local_addr();
    // The generator threads plus this one, which reads the counters
    // while the generators stand between the two barriers.
    let gate = Barrier::new(opts.connections + 1);
    let running = AtomicBool::new(true);
    let lag_max = AtomicU64::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..opts.connections)
            .map(|conn| {
                let gate = &gate;
                s.spawn(move || {
                    let mut gen = Generator::new(workload, seed, smoke, conn);
                    let mut client = MdbClient::connect(addr, "bench").expect("client connects");
                    client.set_tracing(opts.client_tracing);
                    let mut warm = ConnStats::default();
                    let warm_until = Instant::now() + opts.warmup;
                    while Instant::now() < warm_until {
                        run_unit(
                            &mut client,
                            gen.next_unit(),
                            &mut warm,
                            workload.replicated(),
                        );
                    }
                    let mut stats = ConnStats {
                        // The warm-up's writes are in the logs too.
                        write_sql: std::mem::take(&mut warm.write_sql),
                        failed: warm.failed,
                        ..ConnStats::default()
                    };
                    stats.stmt_ns.reserve(1 << 20);
                    gate.wait();
                    gate.wait();
                    let until = Instant::now() + opts.measure;
                    while Instant::now() < until {
                        run_unit(
                            &mut client,
                            gen.next_unit(),
                            &mut stats,
                            workload.replicated(),
                        );
                    }
                    let finished = Instant::now();
                    client.close().expect("client closes");
                    (stats, gen, finished)
                })
            })
            .collect();
        // Replica lag is a gauge, so a peak has to be sampled.
        let sampler = cluster.set.as_ref().map(|set| {
            let (running, lag_max, primary) = (&running, &lag_max, &cluster.primary);
            s.spawn(move || {
                while running.load(Ordering::Relaxed) {
                    let head = primary.binlog_next_seq();
                    let behind = set
                        .status()
                        .iter()
                        .map(|r| r.next_seq)
                        .min()
                        .unwrap_or(head);
                    lag_max.fetch_max(head.saturating_sub(behind), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
            })
        });

        gate.wait();
        // Start from replicas that hold the warm-up's writes already.
        assert!(cluster.sync(), "replicas caught up with the warm-up");
        let before = Snapshot::take(cluster);
        let started = Instant::now();
        gate.wait();
        let mut stats = ConnStats::default();
        let mut generators = Vec::new();
        let mut last = started;
        for w in workers {
            let (conn_stats, gen, finished) = w.join().expect("generator thread finished");
            stats.merge(conn_stats);
            generators.push(gen);
            last = last.max(finished);
        }
        running.store(false, Ordering::Relaxed);
        if let Some(h) = sampler {
            h.join().expect("lag sampler finished");
        }
        Phase {
            stats,
            wall: last - started,
            before,
            lag_events_max: lag_max.load(Ordering::Relaxed),
            generators,
        }
    })
}

/// The connection count every end-to-end number is measured at.
pub fn default_options(seconds: f64) -> LoopOptions {
    LoopOptions {
        connections: CONNECTIONS,
        // The first 5% of a run warm caches and lazy set-up, untimed.
        warmup: Duration::from_secs_f64(seconds * 0.05),
        measure: Duration::from_secs_f64(seconds),
        client_tracing: true,
    }
}
