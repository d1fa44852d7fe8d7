//! Replication and failover: the binlog hooks the replication layer
//! drives, the applier, role transitions and divergence fencing, and the
//! health report a failover coordinator reads.

use std::sync::Arc;

use mdb_trace::TraceContext;

use super::{Db, DbInner, QueryResult, REPL_APPLIER_CONN};
use crate::error::DbResult;
use crate::observability::ReplicaStatus;
use crate::wal::BinlogEvent;

/// A node's place in the replication topology, as reported by
/// [`Db::health_report`] / `/healthz` and consulted by the failover
/// coordinator. `Fenced` is the post-deposition state: the node's
/// divergent binlog tail has been quarantined and client writes stay
/// refused until the node rejoins the fleet as a replica.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplRole {
    /// Accepts client writes and streams its binlog to replicas.
    Primary,
    /// Applies the primary's stream; client writes are rejected.
    Replica,
    /// Deposed primary: divergence fenced, writes refused.
    Fenced,
}

impl ReplRole {
    /// Lower-case label (`"primary"` / `"replica"` / `"fenced"`), as it
    /// appears in health payloads.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReplRole::Primary => "primary",
            ReplRole::Replica => "replica",
            ReplRole::Fenced => "fenced",
        }
    }
}

impl Db {
    /// Administrative binlog purge (`PURGE BINARY LOGS`).
    pub fn purge_binlog(&self) {
        let mut g = self.inner.lock();
        let g = &mut *g;
        g.wal.purge_binlog(&mut g.vdisk);
    }

    // ================= replication hooks =================

    /// This server's id (stamped into replication positions).
    pub fn server_id(&self) -> u64 {
        self.inner.lock().host.config.server_id
    }

    /// End-of-binlog position: the sequence number the next committed
    /// write will get.
    pub fn binlog_next_seq(&self) -> u64 {
        self.inner.lock().wal.binlog_next_seq()
    }

    /// Oldest binlog sequence still on disk (purge horizon).
    pub fn binlog_purged_seq(&self) -> u64 {
        self.inner.lock().wal.binlog_purged_seq()
    }

    /// Cursor read over the binlog returning raw frame payloads —
    /// sealed bytes when `encrypted_wal` is on. The replication
    /// streamer ships these verbatim so ciphertext stays ciphertext
    /// across the wire and in the replica's relay log. See
    /// [`crate::wal::Wal::binlog_frames_from`].
    pub fn binlog_frames_from(
        &self,
        from_seq: u64,
        max: usize,
    ) -> (Vec<(u64, bool, Vec<u8>)>, u64) {
        let g = self.inner.lock();
        g.wal.binlog_frames_from(&g.vdisk, from_seq, max)
    }

    /// Decodes one shipped binlog frame payload with this engine's WAL
    /// key (the replica-side apply loop's decrypt point), given whether
    /// the frame arrived under the sealed or plaintext magic. See
    /// [`crate::wal::Wal::decode_binlog_frame`].
    pub fn decode_binlog_frame(&self, sealed: bool, payload: &[u8]) -> DbResult<BinlogEvent> {
        self.inner.lock().wal.decode_binlog_frame(sealed, payload)
    }

    /// Applies one replicated statement on the dedicated applier
    /// "thread" (MySQL's SQL thread). Bypasses the read-only gate,
    /// first dragging the replica's simulated clock up to the primary's
    /// commit time so locally logged timestamps track the origin. The
    /// statement runs through the *full* execution pipeline — heap
    /// copies, perf-schema history, its own redo/undo and binlog — which
    /// is precisely how replication multiplies the paper's snapshot
    /// surfaces onto every replica host.
    pub fn apply_replicated(&self, sql: &str, commit_ts: i64) -> DbResult<QueryResult> {
        self.apply_replicated_ctx(sql, commit_ts, None)
    }

    /// [`Db::apply_replicated`] with the distributed trace context the
    /// binlog event carried: the replica's apply span derives a child of
    /// it, so the apply lands in the same trace as the client's
    /// statement — which is what makes the merged timeline (and the E19
    /// correlation attack) work.
    pub fn apply_replicated_ctx(
        &self,
        sql: &str,
        commit_ts: i64,
        ctx: Option<TraceContext>,
    ) -> DbResult<QueryResult> {
        let front = crate::sql::front(sql);
        // Like any committer, the applier waits for durability outside
        // the engine lock.
        self.run_then_wait(|g| {
            if !g
                .processlist
                .entries()
                .iter()
                .any(|e| e.id == REPL_APPLIER_CONN)
            {
                let now = g.host.now_unix;
                g.processlist
                    .connect(REPL_APPLIER_CONN, "repl_applier", now);
            }
            g.host.now_unix = g
                .host
                .now_unix
                .max(commit_ts - g.host.config.seconds_per_statement);
            g.applying = true;
            let out = g.execute_ctx(REPL_APPLIER_CONN, sql, front, ctx);
            g.applying = false;
            match &out {
                Ok(_) => g.metrics.repl_applied.inc(),
                Err(_) => g.metrics.repl_apply_errors.inc(),
            }
            out
        })
    }

    /// Whether client writes are currently rejected.
    pub fn is_read_only(&self) -> bool {
        self.inner.lock().host.config.read_only
    }

    /// This node's replication role ([`ReplRole`]).
    pub fn repl_role(&self) -> ReplRole {
        self.inner.lock().repl_role
    }

    /// Promotions this node has won ([`Db::promote_to_primary`]).
    pub fn promotion_epoch(&self) -> u64 {
        self.inner.lock().promotion_epoch
    }

    /// Failover transition: this replica becomes the fleet's primary.
    /// Opens the read-only gate, bumps the promotion epoch, and counts
    /// a `repl.promotions` tick. Returns the new epoch. The caller (the
    /// failover coordinator) is responsible for fencing the deposed
    /// primary *before* re-pointing client writes here.
    pub fn promote_to_primary(&self) -> u64 {
        let mut g = self.inner.lock();
        g.repl_role = ReplRole::Primary;
        g.host.config.read_only = false;
        g.promotion_epoch += 1;
        g.metrics.repl_promotions.inc();
        g.promotion_epoch
    }

    /// Failover transition: a fenced (or demoted) node re-enters the
    /// fleet as a read-only replica under the new primary.
    pub fn rejoin_as_replica(&self) {
        let mut g = self.inner.lock();
        g.repl_role = ReplRole::Replica;
        g.host.config.read_only = true;
    }

    /// Divergence fencing on a deposed primary: every binlog event at
    /// sequence `>= promoted_cursor` — acked locally, never replicated —
    /// is moved out of the live binlog into the
    /// [`crate::wal::DIVERGENT_FILE`] quarantine sidecar (the frames'
    /// bytes verbatim, sealed frames staying sealed), the node drops
    /// to [`ReplRole::Fenced`] with the read-only gate shut, and
    /// `repl.fenced_events` counts the quarantined tail. Returns the
    /// quarantined events decoded with this node's own WAL key (the
    /// coordinator logs them; a keyless attacker carving the sidecar
    /// from a cold image gets only what the frames themselves leak).
    ///
    /// Deliberately works on a *crashed* engine — fencing is a
    /// disk-side administrative act on a dead primary, not a query.
    pub fn fence_divergent(&self, promoted_cursor: u64) -> Vec<BinlogEvent> {
        let mut g = self.inner.lock();
        let g = &mut *g;
        let fenced = g.wal.fence_binlog_tail(&mut g.vdisk, promoted_cursor);
        g.repl_role = ReplRole::Fenced;
        g.host.config.read_only = true;
        g.metrics.repl_fenced_events.add(fenced.len() as u64);
        fenced.into_iter().filter_map(Result::ok).collect()
    }

    /// Appends bytes to a server-side file in the data directory (e.g. a
    /// replica's relay log, written by the replication I/O thread). The
    /// file rides along in every [`crate::snapshot::DiskImage`] like any
    /// other on-disk artifact.
    pub fn append_server_file(&self, name: &str, bytes: &[u8]) {
        self.inner.lock().vdisk.append(name, bytes);
    }

    /// Reads a server-side file back (replication recovery: scan the
    /// relay log to find where to resume).
    pub fn read_server_file(&self, name: &str) -> Option<Vec<u8>> {
        self.inner.lock().vdisk.read(name).map(|b| b.to_vec())
    }

    /// Replaces a server-side file wholesale (replication recovery:
    /// truncating a torn relay-log tail before re-attaching).
    pub fn write_server_file(&self, name: &str, bytes: &[u8]) {
        self.inner.lock().vdisk.write(name, bytes.to_vec());
    }

    /// Installs the provider behind `information_schema.replicas`. The
    /// replication coordinator calls this on the *primary*; each SELECT
    /// re-invokes the closure for live rows.
    pub fn set_replica_status_source(
        &self,
        source: Arc<dyn Fn() -> Vec<ReplicaStatus> + Send + Sync>,
    ) {
        self.inner.lock().host.replica_status = Some(source);
    }

    /// The `/healthz` payload, callable in-process: component health
    /// including this node's replication role and promotion epoch.
    pub fn health_report(&self) -> mdb_obs::HealthReport {
        self.inner.lock().health_report()
    }
}

impl DbInner {
    /// The `/healthz` payload: WAL position, buffer-pool occupancy, and
    /// replication lag, gated on the crashed flag. Runs on the obs
    /// accept thread under the engine lock — keep it cheap.
    pub(super) fn health_report(&self) -> mdb_obs::HealthReport {
        use mdb_obs::HealthComponent;
        let mut components = vec![
            HealthComponent {
                name: "engine".into(),
                ok: !self.crashed,
                detail: if self.crashed {
                    "crashed; awaiting recovery".into()
                } else {
                    format!("{} statements executed", self.statements_executed)
                },
            },
            HealthComponent {
                name: "wal".into(),
                ok: !self.crashed,
                detail: format!(
                    "lsn={} binlog_next_seq={}",
                    self.wal.current_lsn(),
                    self.wal.binlog_next_seq()
                ),
            },
            HealthComponent {
                name: "bufpool".into(),
                ok: !self.crashed,
                detail: format!(
                    "cached={}/{}",
                    self.bufpool.cached_pages(),
                    self.host.config.buffer_pool_pages
                ),
            },
            HealthComponent {
                name: "connections".into(),
                ok: !self.crashed,
                detail: format!(
                    "open={} active_txns={}",
                    self.processlist.entries().len(),
                    self.txns.len()
                ),
            },
            HealthComponent {
                name: "role".into(),
                // A fenced node is deliberately not ready: it must not
                // take writes, and its reads may predate the fleet's
                // new timeline. Load balancers drain it off `/healthz`.
                ok: self.repl_role != ReplRole::Fenced,
                detail: format!(
                    "role={} promotion_epoch={}",
                    self.repl_role.as_str(),
                    self.promotion_epoch
                ),
            },
            HealthComponent {
                name: "mvcc".into(),
                ok: !self.crashed,
                detail: format!(
                    "version_backlog={} next_csn={}",
                    self.mvcc.version_count(),
                    self.next_csn
                ),
            },
        ];
        if let Some(source) = &self.host.replica_status {
            let rows = source();
            let lagging = rows.iter().filter(|r| r.state != "streaming").count();
            let max_lag = rows.iter().map(|r| r.lag_events).max().unwrap_or(0);
            components.push(HealthComponent {
                name: "replication".into(),
                ok: lagging == 0,
                detail: format!(
                    "replicas={} non_streaming={} max_lag_events={max_lag}",
                    rows.len(),
                    lagging
                ),
            });
        }
        mdb_obs::HealthReport {
            ready: components.iter().all(|c| c.ok),
            components,
        }
    }
}
