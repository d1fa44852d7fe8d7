//! The checks every run makes after its measured phase: the table
//! equals the generators' model on every node, a crash loses no
//! acknowledged write, and the logs leak what their configuration says
//! they leak and nothing more.

use std::time::Instant;

use minidb::wal::{BINLOG_FILE, REDO_FILE, UNDO_FILE};
use minidb::Db;
use snapshot_attack::forensics::relay;

use crate::driver::Cluster;
use crate::workload::{Expected, Workload, MEMO_MARKER};

/// Share of acknowledged write statements a replica's relay log must
/// give up on the seed configuration (E14's headline).
const SEED_RECOVERY_FLOOR: f64 = 0.95;

/// Whether `db`'s table holds exactly the expected rows.
fn table_matches(db: &Db, workload: Workload, expected: &Expected) -> Result<(), String> {
    let result = db
        .connect("gate")
        .execute(&format!("SELECT * FROM {}", workload.table()))
        .map_err(|e| format!("full read failed: {e}"))?;
    if result.rows.len() != expected.len() {
        return Err(format!(
            "{} rows, expected {}",
            result.rows.len(),
            expected.len()
        ));
    }
    // Equal counts and every row expected under its own key: nothing is
    // missing either, since keys are unique.
    match result.rows.iter().find(|r| !expected.matches(r)) {
        Some(row) => Err(format!("unexpected row {row:?}")),
        None => Ok(()),
    }
}

/// Correctness and durability, one line per violation: the final table equals the model on the
/// primary and on both (synced) replicas, and again on the primary
/// after `crash()` + `recover()`, which drops every unflushed page.
pub fn correctness(cluster: &Cluster, workload: Workload, expected: &Expected) -> Vec<String> {
    let mut violations = Vec::new();
    let mut gate = |node: &str, db: &Db| {
        if let Err(e) = table_matches(db, workload, expected) {
            violations.push(format!("{node}: {e}"));
        }
    };
    gate("primary", &cluster.primary);
    if let Some(set) = &cluster.set {
        for i in 0..set.replica_count() {
            gate(&format!("replica {i}"), set.replica(i));
        }
    }
    cluster.primary.crash();
    match cluster.primary.recover() {
        Ok(()) => gate("primary after crash", &cluster.primary),
        Err(e) => violations.push(format!("recovery failed: {e}")),
    }
    violations
}

/// What the carvers got out of the post-run cold images.
#[derive(Default)]
pub struct Leakage {
    /// Share of acknowledged write statements recovered verbatim from
    /// replica 0's relay log.
    pub recovered_fraction: f64,
    /// Relay-log carving speed, MB of image per second.
    pub carve_mb_s: f64,
    /// Gate violations.
    pub violations: Vec<String>,
}

/// The leakage gate, on a replicated workload: the seed fleet's relay
/// log gives up at least 95% of the write statements; the hardened
/// fleet's logs give up no statement and no `memo` value — so no later
/// change can buy speed by quietly dropping a mitigation.
pub fn leakage(cluster: &Cluster, workload: Workload, write_sql: &[String]) -> Leakage {
    let Some(set) = &cluster.set else {
        return Leakage::default();
    };
    let replica = set.replica(0).disk_image();
    let relay_bytes: usize = relay::relay_files(&replica)
        .iter()
        .filter_map(|f| replica.file(f))
        .map(|raw| raw.len())
        .sum();
    let started = Instant::now();
    let carved = relay::carve_relay(&replica);
    let carve_s = started.elapsed().as_secs_f64();
    let mut out = Leakage {
        recovered_fraction: relay::coverage(&carved, write_sql),
        carve_mb_s: relay_bytes as f64 / 1e6 / carve_s.max(f64::MIN_POSITIVE),
        violations: Vec::new(),
    };
    if workload == Workload::OltpReplHardened {
        if !carved.is_empty() {
            out.violations.push(format!(
                "{} statements carved from a sealed relay log",
                carved.len()
            ));
        }
        let primary = cluster.primary.disk_image();
        let logs = [REDO_FILE, UNDO_FILE, BINLOG_FILE]
            .into_iter()
            .filter_map(|f| Some((f, primary.file(f)?)))
            .chain(
                relay::relay_files(&replica)
                    .into_iter()
                    .filter_map(|f| Some((f, replica.file(f)?))),
            );
        for (name, raw) in logs {
            let marker = MEMO_MARKER.as_bytes();
            if raw.windows(marker.len()).any(|w| w == marker) {
                out.violations
                    .push(format!("plaintext memo value in sealed log {name}"));
            }
        }
    } else if out.recovered_fraction < SEED_RECOVERY_FLOOR {
        out.violations.push(format!(
            "relay log gave up only {:.3} of the write statements",
            out.recovered_fraction
        ));
    }
    out
}
