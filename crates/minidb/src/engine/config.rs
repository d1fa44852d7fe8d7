//! What the operator supplies: [`DbConfig`], and the [`Host`] that holds
//! it with everything else that outlives a crash.

use std::collections::HashMap;
use std::sync::Arc;

use mdb_telemetry::Registry;

#[cfg(doc)]
use super::{Connection, Db, DbInner};
use super::{ScalarFn, START_TIME_UNIX};
use crate::group_commit::{GroupCommitPipeline, LEADER_WAIT_US, MAX_BATCH};
use crate::observability::ReplicaStatus;

/// Engine configuration. Defaults mirror a production-ish MySQL: binlog
/// on, general log off, 50 MB circular redo/undo logs, query cache on.
#[derive(Clone)]
#[cfg_attr(test, derive(Debug, PartialEq))]
pub struct DbConfig {
    /// Redo log capacity in bytes.
    pub redo_capacity: usize,
    /// Undo log capacity in bytes.
    pub undo_capacity: usize,
    /// Whether the binlog is enabled (required for replication — §3).
    pub binlog_enabled: bool,
    /// Whether the general query log records every statement. Off in
    /// every experiment, like a production MySQL; kept because the log
    /// is one of the paper's §3 artifacts, and `tests/engine.rs` turns
    /// it on to pin what it writes.
    pub general_log_enabled: bool,
    /// Slow-query threshold in simulated microseconds.
    pub slow_query_threshold_us: u64,
    /// Buffer pool capacity in pages.
    pub buffer_pool_pages: usize,
    /// Number of latch partitions in the buffer pool
    /// ([`crate::storage::ShardedBufferPool`]). Concurrent page accesses
    /// contend only within a shard; `1` degenerates to the classic
    /// single-latch pool. Only
    /// `tests/access_path_golden.rs` sets it (4): the per-shard hit and
    /// miss counts it pins are of that layout.
    pub bufpool_shards: usize,
    /// Hardening knob: when vacuuming superseded MVCC versions, rewrite
    /// the version store so reclaimed before-images are physically gone
    /// rather than merely tombstoned. Off by default — production
    /// engines mark versions dead and let the space be reused
    /// eventually, which is exactly the window E18 carves.
    pub scrub_before_images: bool,
    /// Whether heap pages maintain zone maps (per-page min/max
    /// synopses) and scans use them to prune pages whose value ranges
    /// cannot match the predicate. On by default — it is a pure read
    /// optimisation — and, like every such structure in this codebase,
    /// a leakage surface: synopses persist plaintext per-page value
    /// ranges in page headers and ride along in snapshots.
    pub zone_maps_enabled: bool,
    /// Whether the query cache is enabled.
    pub query_cache_enabled: bool,
    /// `events_statements_history` ring size per thread.
    pub history_size: usize,
    /// Simulated seconds the wall clock advances per statement.
    pub seconds_per_statement: i64,
    /// Buffer-pool LRU dump cadence, in statements (0 = only on
    /// shutdown). Only `tests/access_path_golden.rs` sets it (64): the
    /// dump file it pins is the one that cadence leaves behind.
    pub bufpool_dump_interval: u64,
    /// Hardening knob: zero heap blocks on free (no real DBMS does this;
    /// the mitigation-ablation experiment flips it).
    pub heap_secure_delete: bool,
    /// Whether the telemetry registry records engine metrics. On by
    /// default — every production DBMS ships with status counters on.
    pub telemetry_enabled: bool,
    /// Hardening knob: scrub telemetry alongside
    /// [`Db::flush_diagnostics`]. Off by default — real deployments wipe
    /// `performance_schema` but forget the status counters, which is
    /// exactly the leak the telemetry experiments measure.
    pub telemetry_scrub_on_flush: bool,
    /// Whether the per-statement tracer is armed: stage spans, the
    /// flight-recorder ring, and table lists in slow-log records. On by
    /// default, like every production engine's always-on profiling.
    /// When off, slow-log records degrade to minimal single-span
    /// traces (text + timing only) and the ring stays empty.
    pub trace_enabled: bool,
    /// Flight-recorder ring capacity, in statement traces.
    pub trace_ring_capacity: usize,
    /// Mitigation knob (E19): rehash distributed trace ids with a
    /// process-local secret key before they cross the replication
    /// boundary. Replica-side spans of one trace still correlate with
    /// each other, but join against nothing recorded on the client or
    /// primary — the carved ids become worthless off-box. Off by
    /// default: production tracing propagates ids verbatim, which is
    /// exactly the correlation surface E19 carves.
    pub trace_id_hashing: bool,
    /// Server id, stamped into replication positions (GTID-style).
    pub server_id: u64,
    /// Whether client connections may write. Replicas run read-only; the
    /// replication applier ([`Db::apply_replicated`]) bypasses the check,
    /// exactly like MySQL's `read_only` vs the SQL thread.
    pub read_only: bool,
    /// When set, [`Db::open`] starts an [`mdb_obs::ObsServer`] on this
    /// address serving `/metrics`, `/healthz`, and `/varz` for the
    /// engine's telemetry registry — the status port every production
    /// DBMS exposes. Use `"127.0.0.1:0"` for an ephemeral port
    /// ([`Db::obs_addr`] resolves it). Off by default; E17 measures
    /// what turning it on hands a remote observer.
    pub obs_listen: Option<String>,
    /// Bearer token required on `/metrics` and `/varz` (mitigation
    /// knob; `/healthz` stays open for load balancers).
    pub obs_auth_token: Option<String>,
    /// Scrub the exposition: drop per-table series, quantize values to
    /// powers of two (mitigation knob, [`mdb_obs::prom::scrub`]).
    pub obs_scrub: bool,
    /// Group commit: coalesce concurrent committers into one shared
    /// durability point with a single fsync, via the leader/follower
    /// pipeline in [`crate::group_commit`]. Off by default — the seed's
    /// per-statement `record_fsync` behaviour. The benchmark's
    /// `oltp_repl_hardened` workload turns it on beside `encrypted_wal`.
    pub group_commit: bool,
    /// BigFoot-style encrypted WAL ([`crate::wal`] + `edb-crypto`'s
    /// `logenc`): seal every redo/undo/binlog record with AEAD under a
    /// position-derived nonce. Closes the E2/E3/E14 carvers — a cold
    /// image or a relay log yields ciphertext only.
    pub encrypted_wal: bool,
    /// The log-encryption key. `None` with `encrypted_wal` on draws a
    /// key once at [`Db::open`], which survives a crash but is never
    /// persisted (single-node use); a replicated fleet must set one
    /// shared key explicitly, or the replica's apply loop cannot open
    /// shipped events. Each node seals under a subkey derived from this
    /// key and its own [`server_id`](Self::server_id), so fleet nodes
    /// that log the same `(stream, seq)` positions never share a ChaCha20
    /// keystream.
    pub wal_key: Option<[u8; 32]>,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            redo_capacity: crate::wal::DEFAULT_LOG_CAPACITY,
            undo_capacity: crate::wal::DEFAULT_LOG_CAPACITY,
            binlog_enabled: true,
            general_log_enabled: false,
            slow_query_threshold_us: 2_000_000,
            buffer_pool_pages: 256,
            bufpool_shards: crate::storage::DEFAULT_SHARDS,
            scrub_before_images: false,
            zone_maps_enabled: true,
            query_cache_enabled: true,
            history_size: crate::observability::DEFAULT_HISTORY_SIZE,
            seconds_per_statement: 1,
            bufpool_dump_interval: 1_000,
            heap_secure_delete: false,
            telemetry_enabled: true,
            telemetry_scrub_on_flush: false,
            trace_enabled: true,
            trace_ring_capacity: 64,
            trace_id_hashing: false,
            server_id: 1,
            read_only: false,
            obs_listen: None,
            obs_auth_token: None,
            obs_scrub: false,
            group_commit: false,
            encrypted_wal: false,
            wal_key: None,
        }
    }
}

/// What outlives the process: the part of a node that something outside
/// the process supplies or holds. A crash ([`Db::crash`]) keeps exactly
/// this and the disk; every other field of [`DbInner`] is process memory,
/// rebuilt by [`DbInner::open`]. A field goes here only for that reason,
/// so a field added anywhere else dies with the process by construction.
/// `Default` is only the placeholder [`Db::crash`] leaves in the dead
/// process while it moves the host out.
#[derive(Default)]
pub(crate) struct Host {
    /// The operator's configuration. Its `read_only` is the source of the
    /// replication role at every open; failover transitions flip it.
    pub(crate) config: DbConfig,
    /// The log key, resolved once: the configured `wal_key`, or one drawn
    /// at first open when none is configured. Never persisted, so only
    /// its holder can open sealed logs.
    pub(super) wal_key: Option<[u8; 32]>,
    /// Registered scalar functions (the EDB layers install them).
    pub(super) functions: HashMap<String, ScalarFn>,
    /// The telemetry registry. The server, the replication layer and the
    /// obs server hold clones of it.
    pub(crate) telemetry: Registry,
    /// The observability server, when [`DbConfig::obs_listen`] is set.
    /// Held here so its lifetime matches the engine's; shutdown takes it
    /// out of the lock before joining the accept thread.
    pub(super) obs: Option<mdb_obs::ObsServer>,
    /// `information_schema.replicas` rows, published by the replication
    /// layer (the engine renders, the layer above reports).
    pub(super) replica_status: Option<Arc<dyn Fn() -> Vec<ReplicaStatus> + Send + Sync>>,
    /// The group-commit pipeline, when [`DbConfig::group_commit`] is on.
    /// Committers stage under the engine lock and wait on the pipeline
    /// *after* releasing it (see [`Connection::execute`]), holding their
    /// own `Arc` of it.
    pub(super) group_commit: Option<Arc<GroupCommitPipeline>>,
    /// The simulated wall clock.
    pub(crate) now_unix: i64,
    /// Next connection id. [`Connection`] handles outlive a crash, and
    /// dropping one rolls back by id, so ids never restart.
    pub(super) next_conn: u64,
}

impl Host {
    pub(super) fn new(config: DbConfig) -> Host {
        let telemetry = if config.telemetry_enabled {
            Registry::new()
        } else {
            Registry::new_disabled()
        };
        let group_commit = config.group_commit.then(|| {
            Arc::new(GroupCommitPipeline::new(
                &telemetry,
                MAX_BATCH,
                LEADER_WAIT_US,
            ))
        });
        // No configured key: draw one for this host. It survives a crash
        // (the host holds it) but is never written to disk, so a
        // single node is fine; a fleet must configure a shared key.
        let wal_key = config.encrypted_wal.then(|| {
            config.wal_key.unwrap_or_else(|| {
                let mut k = [0u8; 32];
                for chunk in k.chunks_mut(8) {
                    chunk.copy_from_slice(&mdb_trace::entropy64().to_le_bytes());
                }
                k
            })
        });
        Host {
            config,
            wal_key,
            functions: HashMap::new(),
            telemetry,
            obs: None,
            replica_status: None,
            group_commit,
            now_unix: START_TIME_UNIX,
            next_conn: 1,
        }
    }

    /// Wipes the process data that host-held objects carry: every
    /// registry value (registrations and handles stay valid) and the obs
    /// scrape retention ring.
    pub(super) fn scrub(&self) {
        self.telemetry.scrub();
        if let Some(obs) = &self.obs {
            obs.ring().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rule for `DbConfig` (ROADMAP item 10): a new field needs two
    /// callers outside tests that set it differently; a value with one
    /// setting is a constant next to the code that reads it. The literal
    /// has no `..`, so a 28th field stops compiling here, where the rule
    /// is.
    #[test]
    fn default_config_is_these_27_fields() {
        let spelled_out = DbConfig {
            redo_capacity: 50_000_000,
            undo_capacity: 50_000_000,
            binlog_enabled: true,
            general_log_enabled: false,
            slow_query_threshold_us: 2_000_000,
            buffer_pool_pages: 256,
            bufpool_shards: 8,
            scrub_before_images: false,
            zone_maps_enabled: true,
            query_cache_enabled: true,
            history_size: 10,
            seconds_per_statement: 1,
            bufpool_dump_interval: 1_000,
            heap_secure_delete: false,
            telemetry_enabled: true,
            telemetry_scrub_on_flush: false,
            trace_enabled: true,
            trace_ring_capacity: 64,
            trace_id_hashing: false,
            server_id: 1,
            read_only: false,
            obs_listen: None,
            obs_auth_token: None,
            obs_scrub: false,
            group_commit: false,
            encrypted_wal: false,
            wal_key: None,
        };
        assert_eq!(spelled_out, DbConfig::default());
    }
}
