//! The chaos run itself: a replica set under sustained mixed load while
//! the scheduler's fault plan executes between workload steps.
//!
//! One driver thread owns all writes (so every write has an unambiguous
//! outcome) and executes the fault plan; `readers` concurrent clients
//! hammer lag-routed reads the whole time. Every operation is recorded
//! into a [`History`] with global order stamps, and the run ends with a
//! heal-everything convergence phase followed by the consistency
//! [`check`].
//!
//! Writes carry carvable secrets: each version of key `k` is written as
//! `'sk-k-v'` in the row's `note` column. On kill seeds, the versions
//! acked during the divergence window exist *only* in the deposed
//! primary's fenced `binlog.divergent` sidecar — the artifact E21
//! images and carves.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{PoisonError, RwLock};
use std::time::{Duration, Instant};

use mdb_repl::{ReplError, ReplResult, ReplicaSet, ReplicaSetConfig, TransportKind};
use minidb::{Db, DbConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::history::{check, CheckContext, Event, History, OpKind, Outcome, Violation};
use crate::scheduler::{ChaosScheduler, FaultAction};

/// Configuration for one chaos run.
#[derive(Clone)]
pub struct ChaosConfig {
    /// Seed for the fault plan and every workload RNG. Odd seeds stage
    /// a primary kill (see [`ChaosScheduler`]).
    pub seed: u64,
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Workload steps (one versioned write per step, plus a session
    /// write/read pair every fourth step).
    pub steps: usize,
    /// Workload key range (keys `1..=keys`; key 0 is the session's).
    pub keys: u64,
    /// Concurrent lag-routed reader clients.
    pub readers: usize,
    /// Replication transport.
    pub transport: TransportKind,
    /// Base engine config for every node (set `encrypted_wal` +
    /// `wal_key` here for a sealed fleet).
    pub base: DbConfig,
    /// The router's staleness bound, in events.
    pub max_read_lag: u64,
    /// Wall-clock grace for the staleness check: writes younger than
    /// this assert nothing about routed reads (covers the router's
    /// partition-detection window).
    pub stale_grace: Duration,
}

impl ChaosConfig {
    /// CI-sized run: a few seconds per seed.
    pub fn quick(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            replicas: 3,
            steps: 80,
            keys: 4,
            readers: 2,
            transport: TransportKind::default(),
            base: DbConfig::default(),
            max_read_lag: 16,
            stale_grace: Duration::from_millis(500),
        }
    }

    /// Longer soak with the same shape.
    pub fn full(seed: u64) -> ChaosConfig {
        ChaosConfig {
            steps: 240,
            keys: 8,
            readers: 3,
            ..ChaosConfig::quick(seed)
        }
    }

    /// The documented staleness bound handed to the checker, in per-key
    /// versions: `max_read_lag` (versions advance at most one per
    /// event) plus slack for the lag measurement racing the read.
    pub fn lag_window(&self) -> u64 {
        self.max_read_lag + 8
    }
}

/// How many of each fault class the run executed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultCounts {
    /// Single-replica partitions opened.
    pub partitions: u64,
    /// Partitions healed by the plan (the final convergence phase heals
    /// the rest).
    pub heals: u64,
    /// Replica crash-restarts.
    pub crash_restarts: u64,
    /// Clock skew injections.
    pub clock_skews: u64,
    /// Whole-fleet isolations (divergence windows).
    pub isolations: u64,
    /// Primary kills.
    pub kills: u64,
}

/// What one chaos run did and found.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// The run's seed.
    pub seed: u64,
    /// Workload steps executed.
    pub steps: usize,
    /// Operations recorded into the history.
    pub ops_recorded: usize,
    /// Acknowledged writes.
    pub acked_writes: u64,
    /// Writes that errored.
    pub failed_writes: u64,
    /// Reads that returned.
    pub reads_ok: u64,
    /// Reads that errored (crashed replica mid-read, …).
    pub reads_failed: u64,
    /// Faults executed.
    pub faults: FaultCounts,
    /// Promotions performed (1 on kill seeds, 0 otherwise).
    pub promotions: u64,
    /// The fleet's promotion epoch at the end of the run.
    pub epoch: u64,
    /// Binlog events fenced off the deposed primary.
    pub fenced_events: u64,
    /// `(key, version)` writes quarantined by fencing — acked, then
    /// sealed into the divergent sidecar.
    pub quarantined: Vec<(u64, u64)>,
    /// Whether every replica reached the primary's end position in the
    /// convergence phase.
    pub synced: bool,
    /// Whether every replica's final `kv` contents equal the primary's.
    pub converged: bool,
    /// Consistency violations the checker found (empty = pass).
    pub violations: Vec<Violation>,
}

impl ChaosReport {
    /// The run's verdict: converged with zero violations.
    pub fn passed(&self) -> bool {
        self.synced && self.converged && self.violations.is_empty()
    }
}

/// A finished run: the report plus the still-standing fleet, so callers
/// (E21) can image the deposed primary's disk.
pub struct ChaosRun {
    /// What happened.
    pub report: ChaosReport,
    /// The fleet, post-convergence. Dropping it shuts everything down.
    pub set: ReplicaSet,
}

/// The carvable secret written as version `ver` of `key` (the row's
/// `note` column, single-quoted in the INSERT statement).
pub fn secret_marker(key: u64, ver: u64) -> String {
    format!("sk-{key}-{ver}")
}

/// Extracts `(key, ver)` from a workload INSERT's secret marker
/// (`None` for DELETEs, DDL, or foreign statements).
pub fn parse_marker(statement: &str) -> Option<(u64, u64)> {
    let at = statement.find("'sk-")?;
    let rest = &statement[at + 4..];
    let end = rest.find('\'')?;
    let mut parts = rest[..end].split('-');
    let key = parts.next()?.parse().ok()?;
    let ver = parts.next()?.parse().ok()?;
    Some((key, ver))
}

fn wall_us(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

/// One versioned write ("put"): DELETE + INSERT, so the statement works
/// identically whether or not the key's previous version survived a
/// failover (an UPDATE would silently no-op on a key whose INSERT was
/// quarantined). Returns whether the write was acknowledged.
#[allow(clippy::too_many_arguments)]
fn put(
    set: &RwLock<ReplicaSet>,
    history: &History,
    started: Instant,
    client: usize,
    key: u64,
    ver: u64,
    session: bool,
) -> bool {
    let invoke = history.stamp();
    let invoke_wall_us = wall_us(started);
    let res = {
        let guard = set.read().unwrap_or_else(PoisonError::into_inner);
        guard
            .write(&format!("DELETE FROM kv WHERE k = {key}"))
            .and_then(|_| {
                guard.write(&format!(
                    "INSERT INTO kv VALUES ({key}, {ver}, '{}')",
                    secret_marker(key, ver)
                ))
            })
    };
    let complete = history.stamp();
    let complete_wall_us = wall_us(started);
    let ok = res.is_ok();
    history.record(Event {
        client,
        op: OpKind::Write { key, ver },
        invoke,
        complete,
        invoke_wall_us,
        complete_wall_us,
        outcome: if ok { Outcome::Ok } else { Outcome::Fail },
        session_primary: session,
    });
    ok
}

fn parse_ver(result: &minidb::QueryResult) -> Option<u64> {
    result
        .rows
        .first()
        .and_then(|row| format!("{}", row[0]).parse().ok())
}

/// Runs the full chaos schedule for `cfg` and checks the recorded
/// history. The returned [`ChaosRun`] keeps the fleet alive so callers
/// can image disks (deposed primaries included); drop it to shut down.
pub fn run_chaos(cfg: &ChaosConfig) -> ReplResult<ChaosRun> {
    let scheduler = ChaosScheduler::new(cfg.seed, cfg.steps, cfg.replicas);
    let set = RwLock::new(ReplicaSet::start(ReplicaSetConfig {
        replicas: cfg.replicas,
        max_read_lag: cfg.max_read_lag,
        transport: cfg.transport,
        base: cfg.base.clone(),
    })?);
    set.read()
        .unwrap_or_else(PoisonError::into_inner)
        .write("CREATE TABLE kv (k INT PRIMARY KEY, ver INT, note TEXT)")
        .map_err(ReplError::Db)?;

    let history = History::default();
    let started = Instant::now();
    let stop = AtomicBool::new(false);

    let mut faults = FaultCounts::default();
    let mut promotions = 0u64;
    let mut epoch = 0u64;
    let mut fenced_events = 0u64;
    let mut quarantined: HashSet<(u64, u64)> = HashSet::new();
    let mut fence_stamp: Option<u64> = None;

    std::thread::scope(|scope| -> ReplResult<()> {
        for client in 1..=cfg.readers {
            let (set, history, stop) = (&set, &history, &stop);
            let seed = cfg.seed ^ (client as u64).wrapping_mul(0xA5A5_5A5A_0F0F_F0F0);
            let keys = cfg.keys;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                while !stop.load(Ordering::SeqCst) {
                    let key = rng.gen_range(1..=keys);
                    let invoke = history.stamp();
                    let invoke_wall_us = wall_us(started);
                    let res = set
                        .read()
                        .unwrap_or_else(PoisonError::into_inner)
                        .read(&format!("SELECT ver FROM kv WHERE k = {key}"));
                    let complete = history.stamp();
                    let complete_wall_us = wall_us(started);
                    let outcome = match &res {
                        Ok(r) => Outcome::OkRead(parse_ver(r)),
                        Err(_) => Outcome::Fail,
                    };
                    history.record(Event {
                        client,
                        op: OpKind::Read { key },
                        invoke,
                        complete,
                        invoke_wall_us,
                        complete_wall_us,
                        outcome,
                        session_primary: false,
                    });
                    std::thread::sleep(Duration::from_micros(500));
                }
            });
        }

        // The driver: faults, then workload, step by step. Any topology
        // error aborts the run — but the stop flag must be raised on
        // every exit path or the reader threads (and this scope) would
        // never finish.
        let mut drive = || -> ReplResult<()> {
            let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut next_ver: BTreeMap<u64, u64> = BTreeMap::new();
            for step in 0..cfg.steps {
                for action in scheduler.actions_at(step) {
                    match action {
                        FaultAction::Partition { replica } => {
                            let guard = set.read().unwrap_or_else(PoisonError::into_inner);
                            let n = guard.replica_count();
                            if n > 0 {
                                guard.partition(replica % n);
                                faults.partitions += 1;
                            }
                        }
                        FaultAction::Heal { replica } => {
                            let guard = set.read().unwrap_or_else(PoisonError::into_inner);
                            let n = guard.replica_count();
                            if n > 0 {
                                guard.heal(replica % n);
                                faults.heals += 1;
                            }
                        }
                        FaultAction::CrashRestart { replica } => {
                            let mut guard = set.write().unwrap_or_else(PoisonError::into_inner);
                            let n = guard.replica_count();
                            if n > 0 {
                                let r = replica % n;
                                guard.replica(r).crash();
                                guard.restart_replica(r)?;
                                faults.crash_restarts += 1;
                            }
                        }
                        FaultAction::ClockSkew { node, delta_s } => {
                            let guard = set.read().unwrap_or_else(PoisonError::into_inner);
                            if node == 0 {
                                guard.primary().advance_time(delta_s);
                            } else {
                                let n = guard.replica_count();
                                if n > 0 {
                                    guard.replica((node - 1) % n).advance_time(delta_s);
                                }
                            }
                            faults.clock_skews += 1;
                        }
                        FaultAction::IsolateAll => {
                            let guard = set.read().unwrap_or_else(PoisonError::into_inner);
                            for i in 0..guard.replica_count() {
                                guard.partition(i);
                            }
                            faults.isolations += 1;
                        }
                        FaultAction::KillAndPromote => {
                            let mut guard = set.write().unwrap_or_else(PoisonError::into_inner);
                            guard.kill_primary();
                            // No replica left: the fleet has no node to
                            // fail over to, as if every link were cut.
                            let best = guard.elect_best().ok_or(ReplError::Disconnected)?;
                            let promo = guard.promote(best)?;
                            for i in 0..guard.replica_count() {
                                guard.heal(i);
                            }
                            promotions += 1;
                            epoch = promo.epoch;
                            fenced_events += promo.fenced.len() as u64;
                            for ev in &promo.fenced {
                                if let Some(kv) = parse_marker(&ev.statement) {
                                    quarantined.insert(kv);
                                }
                            }
                            fence_stamp = Some(history.stamp());
                            faults.kills += 1;
                        }
                    }
                }

                let key = rng.gen_range(1..=cfg.keys);
                let entry = next_ver.entry(key).or_insert(0);
                *entry += 1;
                let ver = *entry;
                put(&set, &history, started, 0, key, ver, false);

                if step % 4 == 3 {
                    // Read-your-writes session on key 0: write, then
                    // immediately read back pinned to the primary.
                    let entry = next_ver.entry(0).or_insert(0);
                    *entry += 1;
                    let sver = *entry;
                    put(&set, &history, started, 0, 0, sver, true);
                    let invoke = history.stamp();
                    let invoke_wall_us = wall_us(started);
                    let res = set
                        .read()
                        .unwrap_or_else(PoisonError::into_inner)
                        .read_on_primary("SELECT ver FROM kv WHERE k = 0");
                    let complete = history.stamp();
                    let complete_wall_us = wall_us(started);
                    let outcome = match &res {
                        Ok(r) => Outcome::OkRead(parse_ver(r)),
                        Err(_) => Outcome::Fail,
                    };
                    history.record(Event {
                        client: 0,
                        op: OpKind::Read { key: 0 },
                        invoke,
                        complete,
                        invoke_wall_us,
                        complete_wall_us,
                        outcome,
                        session_primary: true,
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(())
        };
        let outcome = drive();
        stop.store(true, Ordering::SeqCst);
        outcome
    })?;

    // Convergence phase: heal every partition, revive any halted apply
    // loop, and wait for the whole fleet to reach the primary's end
    // position.
    let (synced, converged, final_state) = {
        let mut guard = set.write().unwrap_or_else(PoisonError::into_inner);
        for i in 0..guard.replica_count() {
            guard.heal(i);
        }
        let halted: Vec<usize> = guard
            .status()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == "stopped")
            .map(|(i, _)| i)
            .collect();
        for i in halted {
            guard.restart_replica(i)?;
        }
        let synced = guard.wait_for_sync(Duration::from_secs(30));

        let final_state = table_state(
            &guard
                .read_on_primary("SELECT k, ver FROM kv")
                .map_err(ReplError::Db)?,
        );
        let mut converged = synced;
        for i in 0..guard.replica_count() {
            let rows = guard
                .replica(i)
                .connect("audit")
                .execute("SELECT k, ver FROM kv")
                .map_err(ReplError::Db)?;
            if table_state(&rows) != final_state {
                converged = false;
            }
        }
        (synced, converged, final_state)
    };

    let events = history.events();
    let violations = check(
        &events,
        &CheckContext {
            lag_window: cfg.lag_window(),
            stale_grace_us: cfg.stale_grace.as_micros() as u64,
            quarantined: quarantined.clone(),
            fence_stamp,
            final_state,
        },
    );

    let mut acked_writes = 0u64;
    let mut failed_writes = 0u64;
    let mut reads_ok = 0u64;
    let mut reads_failed = 0u64;
    for ev in &events {
        match (ev.op, ev.outcome) {
            (OpKind::Write { .. }, Outcome::Ok) => acked_writes += 1,
            (OpKind::Write { .. }, _) => failed_writes += 1,
            (OpKind::Read { .. }, Outcome::OkRead(_)) => reads_ok += 1,
            (OpKind::Read { .. }, _) => reads_failed += 1,
        }
    }

    let mut quarantined: Vec<(u64, u64)> = quarantined.into_iter().collect();
    quarantined.sort_unstable();
    Ok(ChaosRun {
        report: ChaosReport {
            seed: cfg.seed,
            steps: cfg.steps,
            ops_recorded: events.len(),
            acked_writes,
            failed_writes,
            reads_ok,
            reads_failed,
            faults,
            promotions,
            epoch,
            fenced_events,
            quarantined,
            synced,
            converged,
            violations,
        },
        set: set.into_inner().unwrap_or_else(PoisonError::into_inner),
    })
}

/// Parses `SELECT k, ver FROM kv` rows into a `key → version` map.
fn table_state(result: &minidb::QueryResult) -> BTreeMap<u64, u64> {
    result
        .rows
        .iter()
        .filter_map(|row| {
            let k = format!("{}", row[0]).parse().ok()?;
            let v = format!("{}", row[1]).parse().ok()?;
            Some((k, v))
        })
        .collect()
}

/// Images a deposed primary's divergent sidecar from its virtual disk
/// (`None` when the node was never fenced). This is the cold-image
/// artifact E21 carves.
pub fn divergent_sidecar(deposed: &Db) -> Option<Vec<u8>> {
    deposed.read_server_file(minidb::wal::DIVERGENT_FILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marker_roundtrip() {
        let stmt = format!("INSERT INTO kv VALUES (3, 17, '{}')", secret_marker(3, 17));
        assert_eq!(parse_marker(&stmt), Some((3, 17)));
        assert_eq!(parse_marker("DELETE FROM kv WHERE k = 3"), None);
        assert_eq!(parse_marker("INSERT INTO kv VALUES (1, 1, 'x')"), None);
    }

    #[test]
    fn even_seed_run_is_clean_without_promotion() {
        let run = run_chaos(&ChaosConfig {
            steps: 40,
            ..ChaosConfig::quick(4)
        })
        .unwrap();
        let r = &run.report;
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.promotions, 0);
        assert_eq!(r.fenced_events, 0);
        assert!(r.faults.partitions + r.faults.crash_restarts + r.faults.clock_skews > 0);
        assert_eq!(r.failed_writes, 0);
        assert!(r.reads_ok > 0);
    }

    #[test]
    fn odd_seed_run_promotes_fences_and_stays_consistent() {
        let run = run_chaos(&ChaosConfig {
            steps: 40,
            ..ChaosConfig::quick(5)
        })
        .unwrap();
        let r = &run.report;
        assert!(r.passed(), "violations: {:?}", r.violations);
        assert_eq!(r.promotions, 1);
        assert_eq!(r.epoch, 1);
        assert!(r.faults.kills == 1 && r.faults.isolations == 1);
        assert!(
            r.fenced_events > 0,
            "the divergence window must fence a non-empty tail"
        );
        assert!(!r.quarantined.is_empty());
        // The deposed corpse and its sidecar are imageable.
        assert_eq!(run.set.deposed().len(), 1);
        let sidecar = divergent_sidecar(&run.set.deposed()[0]).unwrap();
        assert!(!sidecar.is_empty());
    }

    #[test]
    fn same_seed_same_workload_and_faults() {
        let a = run_chaos(&ChaosConfig {
            steps: 30,
            ..ChaosConfig::quick(7)
        })
        .unwrap()
        .report;
        let b = run_chaos(&ChaosConfig {
            steps: 30,
            ..ChaosConfig::quick(7)
        })
        .unwrap()
        .report;
        assert_eq!(a.acked_writes, b.acked_writes);
        assert_eq!(a.promotions, b.promotions);
        assert_eq!(a.faults.partitions, b.faults.partitions);
        assert_eq!(a.faults.crash_restarts, b.faults.crash_restarts);
        assert_eq!(a.faults.clock_skews, b.faults.clock_skews);
        assert!(a.passed() && b.passed());
    }
}
