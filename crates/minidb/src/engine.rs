//! The MiniDB engine: connections, statement execution, transactions,
//! crash/recovery, and all the instrumentation the paper's attacks feed on.

use std::collections::HashMap;
use std::sync::Arc;

use mdb_telemetry::{Counter, Histogram, Registry};
use mdb_trace::{Recorder, StatementTrace, TraceBuilder, TraceContext};
use parking_lot::Mutex;

use crate::cache::{
    AdaptiveHash, CachedResult, QueryCache, ADAPTIVE_HASH_THRESHOLD, QUERY_CACHE_ENTRIES,
};
use crate::catalog::{Catalog, IndexDef, TableDef};
use crate::error::{DbError, DbResult};
use crate::group_commit::{GroupCommitPipeline, LEADER_WAIT_US, MAX_BATCH};
use crate::heap::HeapArena;
use crate::mvcc::{VersionStore, OP_DELETE, OP_UPDATE};
use crate::observability::{PerfSchema, ProcessList, ReplicaStatus};
use crate::predicate::Predicate;
use crate::row::{Row, RowId};
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::{CmpOp, Expr, SelectItem, SelectStmt, Statement};
use crate::sql::{Front, STMT_KINDS};
use crate::storage::btree::BTree;
use crate::storage::shardpool::ShardedBufferPool;
use crate::storage::table::{ScanSink, TableHeap, UpdatePlacement};
use crate::value::Value;
use crate::vdisk::VDisk;
use crate::wal::{BinlogEvent, OpKind, RedoRecord, UndoRecord, Wal};

/// On-disk checkpoint marker file.
pub const CHECKPOINT_FILE: &str = "checkpoint";
/// General query log file (off by default, like MySQL).
pub const GENERAL_LOG_FILE: &str = "general.log";
/// Slow query log file.
pub const SLOW_LOG_FILE: &str = "slow.log";
/// Reserved connection id of the replication applier (MySQL's SQL
/// thread). Ordinary connections start at 1, so 0 never collides.
pub const REPL_APPLIER_CONN: u64 = 0;
/// Where the simulated wall clock starts (UNIX seconds): 2017-01-01,
/// the paper's era.
pub const START_TIME_UNIX: i64 = 1_483_228_800;
/// Modeled execution time of every statement, in microseconds.
pub const STATEMENT_BASE_US: u64 = 300;
/// Modeled microseconds added per examined row.
pub const PER_ROW_US: u64 = 2;
/// Modeled cost of one fixed pipeline stage (parse, plan, WAL append,
/// commit). The elastic stage — the scan or the write — absorbs the
/// data-dependent remainder of the statement's modeled duration, so
/// top-level span durations always sum exactly to
/// `STATEMENT_BASE_US + rows_examined * PER_ROW_US`.
const STAGE_COST_US: u64 = STATEMENT_BASE_US / 8;

/// A registered scalar UDF usable in `WHERE` clauses.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> DbResult<Value> + Send + Sync>;

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

/// Result of executing a statement.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryResult {
    /// Result column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// Rows the execution examined (the `performance_schema` metric).
    pub rows_examined: u64,
    /// Rows affected by DML.
    pub rows_affected: u64,
}

struct RuntimeTable {
    heap: TableHeap,
    btrees: Vec<BTree>, // Parallel to `TableDef::indexes`.
}

struct TxnState {
    id: u64,
    /// Undo records of this transaction, in execution order.
    undo: Vec<UndoRecord>,
    /// Statement texts to binlog at commit, each with the distributed
    /// trace context it ran under (stamped onto its binlog event).
    statements: Vec<(String, Option<TraceContext>)>,
    /// Snapshot CSN pinned at BEGIN: this transaction's reads see
    /// exactly the versions committed at or before it.
    snapshot_csn: u64,
}

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

/// Pre-resolved engine-level telemetry handles. The per-table counters
/// are lazily registered as tables are touched — which is precisely how
/// the registry ends up encoding the query distribution.
struct EngineMetrics {
    statements: Counter,
    errors: Counter,
    query_cache_hits: Counter,
    rows_examined: Histogram,
    rows_returned: Histogram,
    /// Heap pages skipped by zone-map pruning / decoded by scans.
    scan_pages_pruned: Counter,
    scan_pages_decoded: Counter,
    latency_us: Vec<Histogram>, // Parallel to STMT_KINDS.
    table_access: HashMap<String, Counter>,
    repl_applied: Counter,
    repl_apply_errors: Counter,
    repl_promotions: Counter,
    repl_fenced_events: Counter,
    // Shared cells with the bufpool/WAL metrics structs: the tracer
    // reads before/after deltas off them for per-span attributes.
    bufpool_hits: Counter,
    bufpool_misses: Counter,
    wal_redo_bytes: Counter,
    wal_binlog_bytes: Counter,
}

impl EngineMetrics {
    fn new(registry: &Registry) -> Self {
        EngineMetrics {
            statements: registry.counter("sql.statements"),
            errors: registry.counter("sql.errors"),
            query_cache_hits: registry.counter("sql.query_cache_hits"),
            rows_examined: registry.histogram("sql.rows_examined"),
            rows_returned: registry.histogram("sql.rows_returned"),
            scan_pages_pruned: registry.counter("scan.pages_pruned"),
            scan_pages_decoded: registry.counter("scan.pages_decoded"),
            latency_us: STMT_KINDS
                .iter()
                .map(|k| registry.histogram(&format!("sql.latency_us.{k}")))
                .collect(),
            table_access: HashMap::new(),
            repl_applied: registry.counter("repl.applied_events"),
            repl_apply_errors: registry.counter("repl.apply_errors"),
            repl_promotions: registry.counter("repl.promotions"),
            repl_fenced_events: registry.counter("repl.fenced_events"),
            bufpool_hits: registry.counter("bufpool.hits"),
            bufpool_misses: registry.counter("bufpool.misses"),
            wal_redo_bytes: registry.counter("wal.redo.bytes"),
            wal_binlog_bytes: registry.counter("wal.binlog.bytes"),
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
    wal_key: Option<[u8; 32]>,
    /// Registered scalar functions (the EDB layers install them).
    functions: HashMap<String, ScalarFn>,
    /// The telemetry registry. The server, the replication layer and the
    /// obs server hold clones of it.
    pub(crate) telemetry: Registry,
    /// The observability server, when [`DbConfig::obs_listen`] is set.
    /// Held here so its lifetime matches the engine's; shutdown takes it
    /// out of the lock before joining the accept thread.
    obs: Option<mdb_obs::ObsServer>,
    /// `information_schema.replicas` rows, published by the replication
    /// layer (the engine renders, the layer above reports).
    replica_status: Option<Arc<dyn Fn() -> Vec<ReplicaStatus> + Send + Sync>>,
    /// The group-commit pipeline, when [`DbConfig::group_commit`] is on.
    /// Committers stage under the engine lock and wait on the pipeline
    /// *after* releasing it (see [`Connection::execute`]), holding their
    /// own `Arc` of it.
    group_commit: Option<Arc<GroupCommitPipeline>>,
    /// The simulated wall clock.
    pub(crate) now_unix: i64,
    /// Next connection id. [`Connection`] handles outlive a crash, and
    /// dropping one rolls back by id, so ids never restart.
    next_conn: u64,
}

impl Host {
    fn new(config: DbConfig) -> Host {
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
    fn scrub(&self) {
        self.telemetry.scrub();
        if let Some(obs) = &self.obs {
            obs.ring().clear();
        }
    }
}

pub(crate) struct DbInner {
    pub(crate) host: Host,
    pub(crate) vdisk: VDisk,
    pub(crate) catalog: Catalog,
    runtime: HashMap<String, RuntimeTable>,
    pub(crate) bufpool: ShardedBufferPool,
    pub(crate) wal: Wal,
    pub(crate) heap: HeapArena,
    pub(crate) query_cache: QueryCache,
    pub(crate) adaptive_hash: AdaptiveHash,
    pub(crate) perf: PerfSchema,
    pub(crate) processlist: ProcessList,
    metrics: EngineMetrics,
    /// The flight recorder: the last N statement traces.
    pub(crate) trace: Recorder,
    /// Span builder of the statement currently executing, if traced.
    current_trace: Option<TraceBuilder>,
    /// Distributed trace context of the statement currently executing:
    /// the child this node derived from the client's context, or an
    /// engine-generated root when tracing is on and none arrived.
    current_ctx: Option<TraceContext>,
    /// Secret key for the `trace_id_hashing` mitigation, drawn fresh
    /// per process — never persisted, so carved rehashed ids cannot be
    /// inverted offline.
    trace_hash_key: u64,
    /// MVCC version chains and their commit bookkeeping.
    pub(crate) mvcc: VersionStore,
    /// Next commit-sequence number (CSNs start at 1).
    next_csn: u64,
    txns: HashMap<u64, TxnState>, // Active explicit transactions by conn.
    statements_executed: u64,
    /// LSN staged by the statement that just ran, waiting for its
    /// durability wait outside the lock. Taken (and cleared) by the
    /// caller before the engine guard drops.
    staged_commit: Option<u64>,
    crashed: bool,
    /// True while the replication applier runs a shipped statement; lets
    /// it through the read-only gate.
    applying: bool,
    /// This node's replication role. Derived from `read_only` at open
    /// (writable ⇒ primary, read-only ⇒ replica) and mutated only by
    /// failover transitions: [`Db::promote_to_primary`],
    /// [`Db::fence_divergent`], [`Db::rejoin_as_replica`]. `Fenced` is
    /// process state: a fenced node that restarts comes back a replica.
    repl_role: ReplRole,
    /// Bumped once per promotion this process has won. Epoch 0 means the
    /// node has held its role since open.
    promotion_epoch: u64,
}

/// Handle to a MiniDB instance. Cloneable; all clones share the engine.
#[derive(Clone)]
pub struct Db {
    pub(crate) inner: Arc<Mutex<DbInner>>,
}

/// A client connection (a "thread" in MySQL terms).
pub struct Connection {
    db: Db,
    /// Connection / thread id.
    pub id: u64,
}

impl Db {
    /// Opens a fresh database with the given configuration.
    pub fn open(config: DbConfig) -> Db {
        let inner = DbInner::open(Host::new(config), VDisk::new());
        let db = Db {
            inner: Arc::new(Mutex::new(inner)),
        };
        db.start_obs();
        db
    }

    /// Starts the observability server when [`DbConfig::obs_listen`] is
    /// set. The health closure holds only a [`Weak`] engine reference:
    /// the server must not keep the engine alive, and a probe racing
    /// engine teardown reports `503` instead of deadlocking.
    fn start_obs(&self) {
        let mut g = self.inner.lock();
        let Some(listen) = g.host.config.obs_listen.clone() else {
            return;
        };
        let options = mdb_obs::ObsOptions {
            listen,
            auth_token: g.host.config.obs_auth_token.clone(),
            scrub: g.host.config.obs_scrub,
        };
        let weak = Arc::downgrade(&self.inner);
        let health: mdb_obs::HealthSource = Arc::new(move || match weak.upgrade() {
            Some(inner) => inner.lock().health_report(),
            None => mdb_obs::HealthReport::unavailable("engine gone"),
        });
        let server = mdb_obs::ObsServer::start(g.host.telemetry.clone(), health, options)
            .unwrap_or_else(|e| panic!("obs_listen {:?}: {e}", g.host.config.obs_listen));
        g.host.obs = Some(server);
    }

    /// The observability server's bound address, when one is running.
    pub fn obs_addr(&self) -> Option<std::net::SocketAddr> {
        self.inner.lock().host.obs.as_ref().map(|s| s.local_addr())
    }

    /// The scrape retention ring, when the obs server is running.
    pub fn obs_ring(&self) -> Option<mdb_obs::RetentionRing> {
        self.inner.lock().host.obs.as_ref().map(|s| s.ring())
    }

    /// Creates a new connection.
    pub fn connect(&self, user: &str) -> Connection {
        let mut g = self.inner.lock();
        let id = g.host.next_conn;
        g.host.next_conn += 1;
        let now = g.host.now_unix;
        g.processlist.connect(id, user, now);
        Connection {
            db: self.clone(),
            id,
        }
    }

    /// Registers a scalar function callable from `WHERE` clauses — the
    /// hook the encrypted-database layers use to install ciphertext
    /// matchers like `SWP_MATCH`.
    pub fn register_function(&self, name: &str, f: ScalarFn) {
        self.inner
            .lock()
            .host
            .functions
            .insert(name.to_ascii_uppercase(), f);
    }

    /// Advances the simulated wall clock (for workload-time experiments).
    pub fn advance_time(&self, seconds: i64) {
        self.inner.lock().host.now_unix += seconds;
    }

    /// Current simulated UNIX time.
    pub fn now(&self) -> i64 {
        self.inner.lock().host.now_unix
    }

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
        let (out, staged) = {
            let mut g = self.inner.lock();
            let g = &mut *g;
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
            (out, g.take_staged_commit())
        };
        // Like any committer, the applier waits for durability outside
        // the engine lock.
        if let Some((pipeline, lsn)) = staged {
            pipeline.wait_durable(lsn);
        }
        out
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

    /// The engine's telemetry registry. Clones share state — the same
    /// counters are readable here, via `information_schema.metrics`, and
    /// in a [`crate::snapshot::MemoryImage`].
    pub fn telemetry(&self) -> Registry {
        self.inner.lock().host.telemetry.clone()
    }

    /// Point-in-time snapshot of every engine metric.
    pub fn metrics_snapshot(&self) -> mdb_telemetry::MetricsSnapshot {
        self.inner.lock().host.telemetry.snapshot()
    }

    /// The statement trace recorder (the flight-recorder ring). Clones
    /// share state — the same ring is readable here, via
    /// `information_schema.query_traces`, and in a
    /// [`crate::snapshot::MemoryImage`].
    pub fn trace_recorder(&self) -> Recorder {
        self.inner.lock().trace.clone()
    }

    /// Contents of the flight-recorder ring, oldest first.
    pub fn query_traces(&self) -> Vec<StatementTrace> {
        self.inner.lock().trace.traces()
    }

    /// Administrative diagnostics wipe, modeling `TRUNCATE
    /// performance_schema.events_statements_history` + `FLUSH STATUS`:
    /// clears the perf-schema statement history and digests. The
    /// telemetry registry is scrubbed only when
    /// [`DbConfig::telemetry_scrub_on_flush`] is set — by default the
    /// status counters keep the full query distribution, which is the
    /// residual-leakage surface E5/E12 measure.
    pub fn flush_diagnostics(&self) {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        for p in inner.perf.clear() {
            inner.heap.free(p);
        }
        if inner.host.config.telemetry_scrub_on_flush {
            // Scrub means scrub: FLUSH STATUS zeroes counters, gauges,
            // AND the per-kind latency histograms (`sql.latency_us.*`)
            // — a partial scrub that kept histogram state would hand
            // the attacker the statement mix anyway. The flight
            // recorder goes too, or the "wiped" server still carries a
            // per-statement timeline (the e15 surface), and so does the
            // scrape retention ring: a "wiped" server whose status port
            // still serves the last N scrape deltas has not wiped
            // anything.
            inner.host.scrub();
            inner.trace.clear();
        }
    }

    /// Reclaims MVCC versions no active snapshot can still see. The
    /// horizon is the oldest active snapshot CSN (with no open
    /// transaction, every committed supersession is reclaimable).
    /// Whether reclaimed before-images are physically erased or merely
    /// tombstoned follows [`DbConfig::scrub_before_images`]. Returns
    /// `(reclaimed, remaining)` version counts.
    pub fn vacuum(&self) -> (usize, usize) {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        let horizon = inner
            .txns
            .values()
            .map(|t| t.snapshot_csn)
            .min()
            .unwrap_or(u64::MAX);
        let scrub = inner.host.config.scrub_before_images;
        inner.mvcc.vacuum(&mut inner.vdisk, horizon, scrub)
    }

    /// The consistent scrub: walks **every** registered in-memory
    /// leakage surface in one pass, where [`Db::flush_diagnostics`]
    /// wipes only the perf-schema tables (and the counters only when
    /// configured). Surfaces covered: perf-schema history + digests,
    /// the telemetry registry, the flight-recorder ring, the obs scrape
    /// ring, the query cache, the adaptive hash index, and — the one
    /// every "wipe the diagnostics" runbook forgets — the MVCC version
    /// store, vacuumed with physical scrubbing regardless of
    /// [`DbConfig::scrub_before_images`]. Durable logs (redo, undo,
    /// binlog, slow log) are *not* touched: they are recovery state, not
    /// diagnostics, which is exactly why §3 carves them.
    pub fn scrub_all(&self) {
        let mut g = self.inner.lock();
        let inner = &mut *g;
        for p in inner.perf.clear() {
            inner.heap.free(p);
        }
        inner.host.scrub();
        inner.trace.clear();
        inner.query_cache.clear();
        inner.adaptive_hash.clear();
        let horizon = inner
            .txns
            .values()
            .map(|t| t.snapshot_csn)
            .min()
            .unwrap_or(u64::MAX);
        inner.mvcc.vacuum(&mut inner.vdisk, horizon, true);
    }

    /// Number of archived (still-reclaimable or pending) MVCC versions.
    pub fn version_count(&self) -> usize {
        self.inner.lock().mvcc.version_count()
    }

    /// Allocates `bytes` in the DB process heap and keeps them live for the
    /// process lifetime. Models other components of the server process
    /// (keyring plugins, TLS buffers, …) whose state a memory snapshot
    /// captures alongside the engine's own allocations.
    pub fn process_alloc(&self, bytes: &[u8]) {
        let mut g = self.inner.lock();
        let _ = g.heap.alloc(bytes);
    }

    /// Clean shutdown: flush dirty pages, checkpoint, and write the
    /// buffer-pool LRU dump (like MySQL on `SHUTDOWN`).
    pub fn shutdown(&self) {
        let obs = {
            let mut g = self.inner.lock();
            let inner = &mut *g;
            inner.checkpoint();
            inner.bufpool.dump(&mut inner.vdisk);
            inner.host.obs.take()
        };
        // Join the obs accept thread *outside* the engine lock: a
        // health probe racing shutdown takes that lock, and joining
        // while holding it would deadlock.
        drop(obs);
    }

    /// Simulated crash: the process dies, and a new one opens on what
    /// survives — the disk and the [`Host`] — in the crashed state until
    /// [`Db::recover`]. Host-held objects keep no process data: the
    /// registry keeps its names but not its values, and the obs server
    /// keeps no retained scrapes. The slow log's trace records are disk
    /// state and survive, unlike the flight recorder.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        g.host.scrub();
        let host = std::mem::take(&mut g.host);
        let vdisk = std::mem::take(&mut g.vdisk);
        *g = DbInner::open(host, vdisk);
        g.crashed = true;
    }

    /// Crash recovery: ARIES-lite redo of logged changes (pageLSN-gated)
    /// and index rebuild, then rollback of transactions without a commit
    /// marker. Leaves the engine open for business.
    pub fn recover(&self) -> DbResult<()> {
        let mut g = self.inner.lock();
        g.recover()
    }

    /// Whether the engine is in the crashed state.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }
}

impl Connection {
    /// Executes one SQL statement.
    ///
    /// The engine lock covers execution only; a group-commit durability
    /// wait (when [`DbConfig::group_commit`] is on) happens *after* the
    /// lock is released, so concurrent committers from other
    /// connections coalesce into the pipeline instead of serializing
    /// their fsyncs behind the lock.
    pub fn execute(&self, sql: &str) -> DbResult<QueryResult> {
        self.execute_traced(sql, None)
    }

    /// Executes one SQL statement under a client-supplied distributed
    /// trace context (the server side of wire trace propagation). The
    /// engine derives its own child span context, so the recorded trace
    /// shares the client's `trace_id` with a fresh `span_id`.
    pub fn execute_traced(&self, sql: &str, ctx: Option<TraceContext>) -> DbResult<QueryResult> {
        let front = crate::sql::front(sql);
        let (res, staged) = {
            let mut g = self.db.inner.lock();
            let res = g.execute_ctx(self.id, sql, front, ctx);
            (res, g.take_staged_commit())
        };
        if let Some((pipeline, lsn)) = staged {
            pipeline.wait_durable(lsn);
        }
        res
    }

    /// The most recent flight-recorder trace of this connection, if the
    /// ring still holds one (the `\trace` meta-command's data source).
    pub fn last_trace(&self) -> Option<StatementTrace> {
        let g = self.db.inner.lock();
        g.trace
            .traces()
            .into_iter()
            .rev()
            .find(|t| t.conn_id == self.id)
    }

    /// Renders this connection's most recent trace as the
    /// `EXPLAIN ANALYZE`-style span table (the `\trace` meta-command).
    pub fn last_trace_rendered(&self) -> Option<QueryResult> {
        self.last_trace()
            .map(|t| render_explain_analyze(&t, &QueryResult::default()))
    }

    /// The owning database handle.
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let mut g = self.db.inner.lock();
        g.processlist.disconnect(self.id);
        // A dropped connection with an open transaction rolls it back —
        // otherwise its heap mutations would persist unlogged and its
        // pending version records would pin the MVCC store forever.
        if let Some(txn) = g.txns.remove(&self.id) {
            let _ = g.rollback_txn(txn);
        }
    }
}

impl DbInner {
    /// Builds a process on `vdisk` for `host`: every field but the host
    /// comes from the disk's bytes or starts empty. On an empty disk this
    /// is a fresh install; on the disk a crash left it is the restarted
    /// process, whose tables [`DbInner::recover`] then rebuilds. Cannot
    /// fail: everything that parses tables is recovery's.
    fn open(host: Host, mut vdisk: VDisk) -> DbInner {
        let config = &host.config;
        let crypto = host
            .wal_key
            .map(|key| crate::wal::WalCrypto::new(key, config.server_id));
        let mut wal = Wal::open(
            &mut vdisk,
            config.redo_capacity,
            config.undo_capacity,
            config.binlog_enabled,
            crypto,
        );
        wal.attach_telemetry(&host.telemetry);
        let mut bufpool = ShardedBufferPool::new(config.buffer_pool_pages, config.bufpool_shards);
        bufpool.attach_telemetry(&host.telemetry);
        let mut heap = HeapArena::new();
        heap.secure_delete = config.heap_secure_delete;
        heap.attach_telemetry(&host.telemetry);
        DbInner {
            catalog: Catalog::default(),
            runtime: HashMap::new(),
            bufpool,
            wal,
            heap,
            query_cache: QueryCache::new(config.query_cache_enabled, QUERY_CACHE_ENTRIES),
            adaptive_hash: AdaptiveHash::new(ADAPTIVE_HASH_THRESHOLD),
            perf: PerfSchema::new(config.history_size),
            processlist: ProcessList::default(),
            metrics: EngineMetrics::new(&host.telemetry),
            trace: if config.trace_enabled {
                Recorder::new(config.trace_ring_capacity)
            } else {
                Recorder::new_disabled(config.trace_ring_capacity)
            },
            current_trace: None,
            current_ctx: None,
            trace_hash_key: mdb_trace::entropy64(),
            mvcc: VersionStore::default(),
            next_csn: crate::mvcc::max_csn(&vdisk) + 1,
            txns: HashMap::new(),
            statements_executed: 0,
            staged_commit: None,
            crashed: false,
            applying: false,
            repl_role: if config.read_only {
                ReplRole::Replica
            } else {
                ReplRole::Primary
            },
            promotion_epoch: 0,
            vdisk,
            host,
        }
    }

    /// The `/healthz` payload: WAL position, buffer-pool occupancy, and
    /// replication lag, gated on the crashed flag. Runs on the obs
    /// accept thread under the engine lock — keep it cheap.
    fn health_report(&self) -> mdb_obs::HealthReport {
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

    // ================= statement pipeline =================

    /// Runs one statement whose text `front` has already read, outside
    /// the lock. Only the text's side effects happen here, in the order
    /// that is the §4/§5 contract: heap copies, literal buffers, digest
    /// and history rows, processlist, general log, trace.
    fn execute_ctx(
        &mut self,
        conn_id: u64,
        sql: &str,
        front: Front,
        ctx: Option<TraceContext>,
    ) -> DbResult<QueryResult> {
        // Drain contract: whoever called execute_ctx last must have
        // taken the staged group-commit LSN (and waited on it outside
        // the lock). A stale LSN here means some caller skipped
        // take_staged_commit — that commit's durability wait was lost.
        debug_assert!(
            self.staged_commit.is_none(),
            "staged group-commit LSN never drained; every execute_ctx \
             caller must call take_staged_commit after the statement"
        );
        if self.crashed {
            return Err(DbError::Crashed);
        }
        self.statements_executed += 1;
        self.host.now_unix += self.host.config.seconds_per_statement;
        let started = self.host.now_unix;

        // The execution copy of the statement text: allocated in the
        // process heap for the duration of the statement (§5).
        let exec_ptr = self.heap.alloc_str(sql);
        // The instrumentation keeps its own copy, owned by the history
        // ring until it rotates out.
        let hist_ptr = self.heap.alloc_str(sql);
        // The lexer materializes each string literal into its own buffer
        // (as real parsers do); these transient copies are freed at the
        // end of the statement — without being zeroed.
        let literal_ptrs: Vec<_> = front
            .literals
            .iter()
            .map(|s| self.heap.alloc_str(s))
            .collect();
        let digest = &front.digest;

        // Resolve the distributed context this statement runs under:
        // derive a child of an incoming sampled context (the received
        // span_id becomes the parent); an unsampled context propagates
        // nowhere (the sampling mitigation); with no incoming context
        // an armed tracer generates a fresh root, so local statements
        // join the same id space.
        self.current_ctx = match ctx {
            Some(c) if c.sampled => Some(c.child()),
            Some(_) => None,
            None if self.trace.is_enabled() => Some(TraceContext::generate()),
            None => None,
        };
        // Arm the tracer. When tracing is disabled this branch is the
        // *entire* per-statement cost: one relaxed atomic load, no
        // allocation (the invariant the `trace` bench pins down).
        if self.trace.is_enabled() {
            let mut b = TraceBuilder::new(conn_id, started, sql, digest);
            if let Some(c) = self.current_ctx {
                b.set_ctx(c);
            }
            self.current_trace = Some(b);
        }
        self.perf
            .statement_start(conn_id, sql, digest, started, Some(hist_ptr));
        self.processlist.set_query(conn_id, Some(sql.to_string()));
        if self.host.config.general_log_enabled {
            let line = format!("{started} {conn_id} Query\t{sql}\n");
            self.vdisk.append(GENERAL_LOG_FILE, line.as_bytes());
        }

        // `front` parsed the statement; the `parse` span still accounts
        // its modeled cost, and a parse error is counted below.
        self.trace_begin("parse");
        self.trace_end(STAGE_COST_US);
        let outcome = front.stmt.and_then(|stmt| {
            if self.host.config.read_only && !self.applying && writes_state(&stmt) {
                return Err(DbError::ReadOnly);
            }
            self.run_stmt(conn_id, sql, digest, stmt)
        });

        let (rows_examined, rows_returned) = match &outcome {
            Ok(r) => (r.rows_examined, r.rows.len() as u64),
            Err(_) => (0, 0),
        };
        let duration_us = STATEMENT_BASE_US + rows_examined * PER_ROW_US;
        self.metrics.statements.inc();
        if outcome.is_err() {
            self.metrics.errors.inc();
        }
        self.metrics.rows_examined.record(rows_examined);
        self.metrics.rows_returned.record(rows_returned);
        // A traced statement stamps its trace_id as the latency bucket's
        // exemplar — the `/metrics` exposition then links the aggregate
        // back to one concrete distributed trace.
        let latency = &self.metrics.latency_us[front.kind];
        match self.current_ctx {
            Some(c) => latency.record_with_exemplar(duration_us, c.trace_id),
            None => latency.record(duration_us),
        }
        // Close the trace and deposit it in the flight recorder. An
        // `EXPLAIN ANALYZE` arm has already consumed the builder for its
        // own rendering; everything else finishes here.
        let finished = self.current_trace.take().map(|mut b| {
            b.attr("rows_examined", rows_examined);
            b.attr("rows_returned", rows_returned);
            b.finish(duration_us)
        });
        let recorded = match finished {
            Some(t) if self.trace.is_enabled() => Some(self.trace.record(t)),
            other => other,
        };
        if duration_us > self.host.config.slow_query_threshold_us {
            // The slow log is a stream of versioned, checksummed trace
            // records (see `mdb_trace::record`) — the full span tree
            // when the tracer is armed, a minimal text+timing record
            // otherwise. Either way the statement text lands on disk
            // verbatim, carvable long after the ring has rotated.
            let rec = recorded.unwrap_or_else(|| {
                StatementTrace::minimal(conn_id, started, sql, digest, duration_us, rows_examined)
            });
            self.vdisk
                .append(SLOW_LOG_FILE, &mdb_trace::record::encode_record(&rec));
        }
        if let Some(evicted) = self
            .perf
            .statement_end(conn_id, rows_examined, rows_returned)
        {
            self.heap.free(evicted);
        }
        self.processlist.set_query(conn_id, None);
        self.heap.free(exec_ptr);
        for p in literal_ptrs {
            self.heap.free(p);
        }

        if self.host.config.bufpool_dump_interval > 0
            && self
                .statements_executed
                .is_multiple_of(self.host.config.bufpool_dump_interval)
        {
            self.bufpool.dump(&mut self.vdisk);
        }
        self.current_ctx = None;
        outcome
    }

    // ================= tracing plumbing =================
    //
    // Every helper is a no-op unless a `TraceBuilder` is live, so the
    // stage hooks below cost one `Option` check when tracing is off for
    // this statement (the global gate is the relaxed load in `execute`).

    fn trace_begin(&mut self, name: &str) {
        if let Some(t) = self.current_trace.as_mut() {
            t.begin(name);
        }
    }

    fn trace_end(&mut self, cost_us: u64) {
        if let Some(t) = self.current_trace.as_mut() {
            t.end(cost_us);
        }
    }

    fn trace_end_elastic(&mut self) {
        if let Some(t) = self.current_trace.as_mut() {
            t.end_elastic();
        }
    }

    fn trace_attr(&mut self, key: &str, value: u64) {
        if let Some(t) = self.current_trace.as_mut() {
            t.attr(key, value);
        }
    }

    fn run_stmt(
        &mut self,
        conn_id: u64,
        sql: &str,
        digest: &str,
        stmt: Statement,
    ) -> DbResult<QueryResult> {
        match stmt {
            Statement::CreateTable { name, columns } => {
                let r = self.create_table(&name, columns);
                if r.is_ok() {
                    self.binlog_ddl(sql);
                }
                r
            }
            Statement::CreateIndex {
                name,
                table,
                column,
            } => {
                let r = self.create_index(&name, &table, &column);
                if r.is_ok() {
                    self.binlog_ddl(sql);
                }
                r
            }
            Statement::Select(sel) => self.select(conn_id, sql, sel),
            Statement::Explain(sel) => self.explain(sel),
            Statement::ExplainAnalyze(inner) => {
                // EXPLAIN ANALYZE always traces its target, even when
                // the flight recorder is disarmed.
                if self.current_trace.is_none() {
                    let mut b = TraceBuilder::new(conn_id, self.host.now_unix, sql, digest);
                    if let Some(c) = self.current_ctx {
                        b.set_ctx(c);
                    }
                    self.current_trace = Some(b);
                }
                let res = self.run_stmt(conn_id, sql, digest, *inner)?;
                // The target's simulated wall time is fully determined
                // by the engine cost model, so the trace can be closed
                // here — the rendered durations are exactly what the
                // outer pipeline will account for this statement.
                let duration_us = STATEMENT_BASE_US + res.rows_examined * PER_ROW_US;
                let mut b = self.current_trace.take().expect("installed above");
                b.attr("rows_examined", res.rows_examined);
                b.attr("rows_returned", res.rows.len() as u64);
                let trace = b.finish(duration_us);
                let trace = if self.trace.is_enabled() {
                    self.trace.record(trace)
                } else {
                    trace
                };
                Ok(render_explain_analyze(&trace, &res))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.dml(
                conn_id,
                sql,
                DmlOp::Insert {
                    table,
                    columns,
                    rows,
                },
            ),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.dml(
                conn_id,
                sql,
                DmlOp::Update {
                    table,
                    sets,
                    where_clause,
                },
            ),
            Statement::Delete {
                table,
                where_clause,
            } => self.dml(
                conn_id,
                sql,
                DmlOp::Delete {
                    table,
                    where_clause,
                },
            ),
            Statement::DropTable { name } => {
                let r = self.drop_table(&name);
                if r.is_ok() {
                    self.binlog_ddl(sql);
                }
                r
            }
            Statement::Begin => {
                if self.txns.contains_key(&conn_id) {
                    return Err(DbError::Txn("nested BEGIN".into()));
                }
                let id = self.wal.alloc_txn();
                self.txns.insert(
                    conn_id,
                    TxnState {
                        id,
                        undo: Vec::new(),
                        statements: Vec::new(),
                        // Everything committed so far is visible; nothing
                        // that commits from now on is.
                        snapshot_csn: self.next_csn - 1,
                    },
                );
                Ok(QueryResult::default())
            }
            Statement::Commit => {
                let txn = self
                    .txns
                    .remove(&conn_id)
                    .ok_or_else(|| DbError::Txn("COMMIT without BEGIN".into()))?;
                self.commit_txn(txn)?;
                Ok(QueryResult::default())
            }
            Statement::Rollback => {
                let txn = self
                    .txns
                    .remove(&conn_id)
                    .ok_or_else(|| DbError::Txn("ROLLBACK without BEGIN".into()))?;
                self.rollback_txn(txn)?;
                Ok(QueryResult::default())
            }
        }
    }

    // ================= DDL =================

    /// DDL autocommits as its own binlog transaction (MySQL's
    /// implicit-commit rule); statement-shipping replication relies on
    /// this to reproduce schema changes on replicas.
    fn binlog_ddl(&mut self, sql: &str) {
        let lsn = self.wal.alloc_lsn();
        let txn = self.wal.alloc_txn();
        let ctx = self.binlog_ctx(self.current_ctx);
        self.wal.append_binlog(
            &mut self.vdisk,
            &BinlogEvent {
                lsn,
                txn,
                timestamp: self.host.now_unix,
                statement: sql.to_string(),
                ctx,
            },
        );
        self.durability_point();
    }

    /// The context stamped onto binlog events: the statement's own,
    /// put through the keyed rehash when
    /// [`DbConfig::trace_id_hashing`] is on — the mitigation boundary
    /// sits exactly where trace ids leave for other hosts.
    fn binlog_ctx(&self, ctx: Option<TraceContext>) -> Option<TraceContext> {
        match ctx {
            Some(c) if self.host.config.trace_id_hashing => Some(c.rehash(self.trace_hash_key)),
            other => other,
        }
    }

    fn create_table(
        &mut self,
        name: &str,
        columns: Vec<(String, crate::value::ColumnType, bool)>,
    ) -> DbResult<QueryResult> {
        let lname = name.to_ascii_lowercase();
        if self.catalog.tables.contains_key(&lname) {
            return Err(DbError::Schema(format!("table {lname} already exists")));
        }
        let defs: Vec<ColumnDef> = columns
            .into_iter()
            .map(|(n, ty, pk)| ColumnDef {
                name: n,
                ty,
                primary_key: pk,
            })
            .collect();
        let schema = TableSchema::new(&lname, defs)?;
        let file = format!("table_{lname}.ibd");
        let mut heap = TableHeap::create(&self.bufpool, &mut self.vdisk, &file)?;
        heap.set_zone_maps(self.host.config.zone_maps_enabled);
        let id = self.catalog.next_table_id.max(1);
        self.catalog.next_table_id = id + 1;

        let mut indexes = Vec::new();
        let mut btrees = Vec::new();
        if let Some(pk_idx) = schema.primary_key_index() {
            let col = &schema.columns[pk_idx].name;
            let ifile = format!("index_{lname}_{col}.ibd");
            let bt = BTree::create(&self.bufpool, &mut self.vdisk, &ifile)?;
            indexes.push(IndexDef {
                name: format!("pk_{lname}"),
                file: ifile,
                column_idx: pk_idx,
            });
            btrees.push(bt);
        }
        self.catalog.tables.insert(
            lname.clone(),
            TableDef {
                id,
                schema,
                file,
                indexes,
            },
        );
        self.catalog.persist(&mut self.vdisk);
        self.runtime.insert(lname, RuntimeTable { heap, btrees });
        Ok(QueryResult::default())
    }

    /// `DROP TABLE`: removes the table's files and catalog entry. Note
    /// what this does *not* do: the circular undo/redo logs and the binlog
    /// keep their records of the dropped table's rows — the forensic
    /// threat of Stahlberg et al. that the paper builds on.
    fn drop_table(&mut self, name: &str) -> DbResult<QueryResult> {
        let lname = name.to_ascii_lowercase();
        let def = self.catalog.get(&lname)?.clone();
        self.vdisk.remove(&def.file);
        self.bufpool.purge_file(&def.file);
        for ix in &def.indexes {
            self.vdisk.remove(&ix.file);
            self.bufpool.purge_file(&ix.file);
        }
        self.catalog.tables.remove(&lname);
        self.catalog.persist(&mut self.vdisk);
        self.runtime.remove(&lname);
        // Chain state dies with the table, but its disk records do not —
        // like real engines, DROP does not chase undo history.
        self.mvcc.purge_table(&def.schema.name);
        for p in self.query_cache.invalidate_table(&lname) {
            self.heap.free(p);
        }
        Ok(QueryResult::default())
    }

    fn create_index(&mut self, name: &str, table: &str, column: &str) -> DbResult<QueryResult> {
        let ltable = table.to_ascii_lowercase();
        let def = self.catalog.get(&ltable)?.clone();
        let column_idx = def.schema.column_index(column)?;
        if def.indexes.iter().any(|i| i.column_idx == column_idx) {
            return Err(DbError::Schema(format!(
                "column {column} of {ltable} is already indexed"
            )));
        }
        let ifile = format!("index_{ltable}_{}.ibd", def.schema.columns[column_idx].name);
        let bt = BTree::create(&self.bufpool, &mut self.vdisk, &ifile)?;
        // Backfill from existing rows.
        let rt = self
            .runtime
            .get_mut(&ltable)
            .ok_or_else(|| DbError::UnknownTable(ltable.clone()))?;
        let rows = rt.heap.scan(&self.bufpool, &mut self.vdisk)?;
        for row in &rows {
            bt.insert(
                &self.bufpool,
                &mut self.vdisk,
                &row.values[column_idx],
                row.id,
            )?;
        }
        self.catalog
            .tables
            .get_mut(&ltable)
            .expect("checked")
            .indexes
            .push(IndexDef {
                name: name.to_string(),
                file: ifile,
                column_idx,
            });
        self.catalog.persist(&mut self.vdisk);
        self.runtime
            .get_mut(&ltable)
            .expect("checked")
            .btrees
            .push(bt);
        Ok(QueryResult::default())
    }

    // ================= SELECT =================

    /// `EXPLAIN SELECT`: reports the access path the planner would take.
    fn explain(&mut self, sel: SelectStmt) -> DbResult<QueryResult> {
        let plan = if sel.schema.is_some() {
            format!(
                "virtual table scan on {}.{}",
                sel.schema.as_deref().unwrap(),
                sel.table
            )
        } else {
            let def = self.catalog.get(&sel.table)?.clone();
            let plan = sel.where_clause.as_ref().map(|w| plan_scan(&def, w));
            match plan {
                Some(ScanPlan { index: Some(p), .. }) => {
                    let ix = &def.indexes[p.index_pos];
                    format!(
                        "index scan on {} ({}) bounds {:?}..{:?}",
                        ix.name, def.schema.columns[ix.column_idx].name, p.bounds.lo, p.bounds.hi
                    )
                }
                Some(ScanPlan {
                    prune: Some((col, lo, hi)),
                    ..
                }) if self.host.config.zone_maps_enabled => format!(
                    "full table scan on {} (zone-map pruned on {}, bounds {:?}..{:?})",
                    def.schema.name, def.schema.columns[col].name, lo, hi
                ),
                _ => format!("full table scan on {}", def.schema.name),
            }
        };
        Ok(QueryResult {
            columns: vec!["plan".to_string()],
            rows: vec![vec![Value::Text(plan)]],
            ..Default::default()
        })
    }

    fn select(&mut self, conn_id: u64, sql: &str, sel: SelectStmt) -> DbResult<QueryResult> {
        if let Some(schema) = &sel.schema {
            return self.select_virtual(schema.clone(), sel);
        }
        // Inside an explicit transaction, reads are snapshot-isolated:
        // resolve every row against the version chains at the CSN pinned
        // at BEGIN. Snapshot reads bypass the query cache entirely — a
        // cached result reflects the latest committed state, not this
        // transaction's snapshot.
        if let Some(t) = self.txns.get(&conn_id) {
            let (txn_id, snapshot) = (t.id, t.snapshot_csn);
            return self.select_snapshot(txn_id, snapshot, sel);
        }
        // Autocommit reads are read-committed: the latest heap minus the
        // rows of *this table* an open transaction has written. With no
        // such row (the usual case, and always for a transaction on
        // another table) the heap is the committed state.
        let overlay = self.mvcc.uncommitted(&sel.table);
        let heap_is_committed = overlay.is_empty();
        // Query cache: exact-text hits skip execution entirely. Entries
        // only ever hold committed state (writes invalidate, and a read
        // beside an overlay neither looks up nor inserts).
        if heap_is_committed {
            if let Some(hit) = self.query_cache.get(sql).map(CachedResult::decode) {
                let (columns, rows) = hit?;
                self.metrics.query_cache_hits.inc();
                self.trace_begin("query_cache");
                self.trace_attr("hit", 1);
                self.trace_end_elastic();
                return Ok(QueryResult {
                    columns,
                    rows,
                    rows_examined: 0,
                    rows_affected: 0,
                });
            }
        }
        let table = sel.table.clone();
        let def = self.catalog.get(&table)?.clone();
        self.record_table_access(&def.schema.name);
        // Pushdowns: LIMIT may short-circuit the scan only when result
        // order is scan order (no ORDER BY — the truncate in the tail
        // already runs before projection, so aggregates see the same rows
        // either way) and the scan's rows are the result's (no overlay:
        // a dropped dirty row must not have used up the limit). The
        // projection mask covers every column the query can read: select
        // list, WHERE, ORDER BY.
        let push_limit = if sel.order_by.is_none() && heap_is_committed {
            sel.limit
        } else {
            None
        };
        let needed = needed_columns(&def.schema, &sel);
        let (mut rows, mut examined) = self.fetch_rows(
            &def,
            sel.where_clause.as_ref(),
            push_limit,
            needed.as_deref(),
        )?;
        if !heap_is_committed {
            examined +=
                self.patch_uncommitted(&def.schema, sel.where_clause.as_ref(), overlay, &mut rows)?;
        }
        let result = self.finish_select(&def.schema, &sel, rows, examined)?;
        if heap_is_committed {
            // Cache the result (user tables only).
            let text_ptr = self.heap.alloc_str(sql);
            let freed = self.query_cache.insert(
                sql,
                vec![def.schema.name.clone()],
                &result.columns,
                &result.rows,
                text_ptr,
            );
            for p in freed {
                self.heap.free(p);
            }
        }
        Ok(result)
    }

    /// Turns a scan of the latest heap into the read-committed answer:
    /// drops every row an open transaction owns (its uncommitted image,
    /// which the scan matched against WHERE), adds each one's last
    /// committed image if *that* passes WHERE, and orders by row id.
    /// Returns the rows it resolved, which count as examined.
    fn patch_uncommitted(
        &mut self,
        schema: &TableSchema,
        where_clause: Option<&Expr>,
        overlay: Vec<(u64, Option<Row>)>,
        rows: &mut Vec<Row>,
    ) -> DbResult<u64> {
        self.trace_begin("mvcc_visibility");
        // The scan may have skipped compiling WHERE (index bounds
        // guaranteed it); a committed image did not come through it.
        let pred = where_clause.map(|w| Predicate::compile(w, schema, &self.host.functions));
        rows.retain(|r| overlay.binary_search_by_key(&r.id, |(id, _)| *id).is_err());
        let patched = overlay.len() as u64;
        self.trace_attr("rows_patched", patched);
        for image in overlay.into_iter().filter_map(|(_, committed)| committed) {
            if pred.as_ref().map_or(Ok(true), |p| p.holds(&image))? {
                rows.push(image);
            }
        }
        rows.sort_by_key(|r| r.id);
        // A fixed stage: the scan stays the elastic one, the per-row
        // work was its.
        self.trace_end(STAGE_COST_US);
        Ok(patched)
    }

    /// The tail every SELECT shares: ORDER BY, then LIMIT, then the
    /// projection (aggregates included).
    fn finish_select(
        &self,
        schema: &TableSchema,
        sel: &SelectStmt,
        mut rows: Vec<Row>,
        rows_examined: u64,
    ) -> DbResult<QueryResult> {
        if let Some((col, desc)) = &sel.order_by {
            let idx = schema.column_index(col)?;
            rows.sort_by(|a, b| {
                let o = a.values[idx].cmp(&b.values[idx]);
                if *desc {
                    o.reverse()
                } else {
                    o
                }
            });
        }
        if let Some(limit) = sel.limit {
            rows.truncate(limit as usize);
        }
        let result = self.project(schema, &sel.items, rows)?;
        Ok(QueryResult {
            rows_examined,
            ..result
        })
    }

    /// Snapshot-isolated SELECT: full scan, then per-row visibility
    /// resolution against the version chains. Index and zone-map
    /// pushdowns are deliberately skipped — they describe the *latest*
    /// heap state, not the snapshot's — and so is the query cache.
    fn select_snapshot(
        &mut self,
        txn_id: u64,
        snapshot: u64,
        sel: SelectStmt,
    ) -> DbResult<QueryResult> {
        let table = sel.table.clone();
        let def = self.catalog.get(&table)?.clone();
        self.record_table_access(&def.schema.name);
        let (current, examined) = self.fetch_rows(&def, None, None, None)?;
        self.trace_begin("mvcc_visibility");
        let mut live_ids = std::collections::HashSet::with_capacity(current.len());
        let mut visible = Vec::with_capacity(current.len());
        for r in current {
            live_ids.insert(r.id);
            if let Some(v) = self.mvcc.visible_row(&def.schema.name, r, snapshot, txn_id) {
                visible.push(v);
            }
        }
        visible.extend(
            self.mvcc
                .resurrect_deleted(&def.schema.name, &live_ids, snapshot, txn_id),
        );
        visible.sort_by_key(|r| r.id);
        self.trace_attr("rows_visible", visible.len() as u64);
        self.trace_end_elastic();
        let pred = sel
            .where_clause
            .as_ref()
            .map(|w| Predicate::compile(w, &def.schema, &self.host.functions));
        let mut rows = Vec::with_capacity(visible.len());
        for r in visible {
            if pred.as_ref().map_or(Ok(true), |p| p.holds(&r))? {
                rows.push(r);
            }
        }
        self.finish_select(&def.schema, &sel, rows, examined)
    }

    fn select_virtual(&mut self, schema: String, sel: SelectStmt) -> DbResult<QueryResult> {
        let (cols, rows) = match (schema.as_str(), sel.table.as_str()) {
            ("performance_schema", "events_statements_current") => self.perf.render_current(),
            ("performance_schema", "events_statements_history") => self.perf.render_history(),
            ("performance_schema", "events_statements_summary_by_digest") => {
                self.perf.render_digest_summary()
            }
            ("performance_schema", "threads") => {
                // threads: thread id, user, and what it is running now.
                let (_, plist) = self.processlist.render(self.host.now_unix);
                let cols = vec![
                    "thread_id".to_string(),
                    "processlist_user".to_string(),
                    "processlist_info".to_string(),
                ];
                let rows = plist
                    .into_iter()
                    .map(|r| vec![r[0].clone(), r[1].clone(), r[3].clone()])
                    .collect();
                (cols, rows)
            }
            ("information_schema", "processlist") => self.processlist.render(self.host.now_unix),
            ("information_schema", "replicas") => {
                // Replication topology and lag, as reported by the
                // coordinator. Yet another diagnostic surface: one
                // injected SELECT on the primary maps every host that
                // holds a relay-log copy of the query history.
                let cols = vec![
                    "replica_id".to_string(),
                    "state".to_string(),
                    "next_seq".to_string(),
                    "primary_seq".to_string(),
                    "lag_events".to_string(),
                    "retries".to_string(),
                    "last_heartbeat".to_string(),
                ];
                let rows = match &self.host.replica_status {
                    Some(source) => source()
                        .into_iter()
                        .map(|s| {
                            vec![
                                Value::Int(s.replica_id as i64),
                                Value::Text(s.state),
                                Value::Int(s.next_seq as i64),
                                Value::Int(s.primary_seq as i64),
                                Value::Int(s.lag_events as i64),
                                Value::Int(s.retries as i64),
                                Value::Int(s.last_heartbeat),
                            ]
                        })
                        .collect(),
                    None => Vec::new(),
                };
                (cols, rows)
            }
            ("information_schema", "metrics") => {
                // The live registry, SQL-readable. An attacker with a
                // stolen connection (or an injection point) reads the
                // accumulated query distribution with one SELECT.
                let snap = self.host.telemetry.snapshot();
                let cols = vec![
                    "metric".to_string(),
                    "kind".to_string(),
                    "value".to_string(),
                ];
                let mut out = Vec::new();
                for (name, v) in &snap.counters {
                    out.push(vec![
                        Value::Text(name.clone()),
                        Value::Text("counter".to_string()),
                        Value::Int(*v as i64),
                    ]);
                }
                for (name, v) in &snap.gauges {
                    out.push(vec![
                        Value::Text(name.clone()),
                        Value::Text("gauge".to_string()),
                        Value::Int(*v),
                    ]);
                }
                for h in &snap.histograms {
                    for (suffix, v) in [
                        ("count", h.count),
                        ("sum", h.sum),
                        ("p50", h.quantile_upper_bound(0.5)),
                    ] {
                        out.push(vec![
                            Value::Text(format!("{}.{suffix}", h.name)),
                            Value::Text("histogram".to_string()),
                            Value::Int(v as i64),
                        ]);
                    }
                }
                (cols, out)
            }
            ("information_schema", "query_traces") => {
                // The flight recorder, SQL-readable: the last N statement
                // traces with full text, timing, and touched tables. Like
                // the performance_schema, it is an operator convenience
                // that doubles as a query-history disclosure channel.
                let cols = vec![
                    "trace_id".to_string(),
                    "conn_id".to_string(),
                    "started".to_string(),
                    "duration_us".to_string(),
                    "statement".to_string(),
                    "digest".to_string(),
                    "tables".to_string(),
                    "spans".to_string(),
                ];
                let rows = self
                    .trace
                    .traces()
                    .iter()
                    .map(|t| {
                        vec![
                            Value::Int(t.trace_id as i64),
                            Value::Int(t.conn_id as i64),
                            Value::Int(t.started_unix),
                            Value::Int(t.total_us as i64),
                            Value::Text(t.statement.clone()),
                            Value::Text(t.digest.clone()),
                            Value::Text(t.tables.join(",")),
                            Value::Int(t.root.span_count() as i64),
                        ]
                    })
                    .collect();
                (cols, rows)
            }
            _ => {
                return Err(DbError::UnknownTable(format!("{schema}.{}", sel.table)));
            }
        };
        // Virtual tables support filtering and projection like real ones.
        let schema_like = TableSchema::new(
            &sel.table,
            cols.iter()
                .map(|c| ColumnDef {
                    name: c.clone(),
                    // Virtual columns are dynamically typed; TEXT is a
                    // placeholder (check_row is never called on them).
                    ty: crate::value::ColumnType::Text,
                    primary_key: false,
                })
                .collect(),
        )?;
        let pred = sel
            .where_clause
            .as_ref()
            .map(|w| Predicate::compile(w, &schema_like, &self.host.functions));
        let mut kept = Vec::new();
        let examined = rows.len() as u64;
        for values in rows {
            let row = Row { id: 0, values };
            if pred.as_ref().map_or(Ok(true), |p| p.holds(&row))? {
                kept.push(row);
            }
        }
        self.finish_select(&schema_like, &sel, kept, examined)
    }

    /// Fetches the rows of a table that satisfy `where_clause`, using an
    /// index when a sargable predicate exists and a zone-map-pruned
    /// streaming page scan otherwise. Returns surviving rows and the
    /// rows-examined count.
    ///
    /// Pushdowns (callers opt in; DML always passes `None, None`):
    /// * `limit` — stop as soon as that many rows survive the filter.
    ///   Sound only when the caller needs the first matches in (page,
    ///   slot) / index order, i.e. no ORDER BY.
    /// * `needed` — per-column materialization mask; unneeded columns
    ///   decode as NULL placeholders. Sound only when the caller never
    ///   reads the masked columns (projection + WHERE + ORDER BY).
    fn fetch_rows(
        &mut self,
        def: &TableDef,
        where_clause: Option<&Expr>,
        limit: Option<u64>,
        needed: Option<&[bool]>,
    ) -> DbResult<(Vec<Row>, u64)> {
        self.trace_begin("plan");
        let plan = where_clause.map(|w| plan_scan(def, w)).unwrap_or_default();
        // When the index bounds *are* the predicate, re-running the
        // filter per row is pure overhead — there is none to compile.
        let pred = where_clause
            .filter(|_| !plan.guaranteed)
            .map(|w| Predicate::compile(w, &def.schema, &self.host.functions));
        self.trace_attr("index_used", plan.index.is_some() as u64);
        self.trace_end(STAGE_COST_US);

        // The scan is the elastic stage: it absorbs the per-row cost.
        self.trace_begin("scan");
        let hits0 = self.metrics.bufpool_hits.get();
        let misses0 = self.metrics.bufpool_misses.get();
        let rt = self
            .runtime
            .get_mut(&def.schema.name)
            .ok_or_else(|| DbError::UnknownTable(def.schema.name.clone()))?;
        let mut sink = ScanSink::new(pred.as_ref(), needed, limit.map(|l| l as usize));
        // `(pages_pruned, pages_decoded)` of a heap scan.
        let scan_pages = match plan.index {
            Some(ip) => {
                let bt = &rt.btrees[ip.index_pos];
                let lit = ip.bounds.sample_key();
                let (lo, hi) = (ip.bounds.lo, ip.bounds.hi);
                let found = bt.search_range(&self.bufpool, &mut self.vdisk, lo, hi)?;
                // Adaptive hash: record the searched key against the leaf
                // page the lookup landed on.
                if let (Some(leaf), Some(key)) = (found.pages.last(), lit) {
                    let mut key_bytes = Vec::new();
                    key.encode(&mut key_bytes);
                    self.adaptive_hash
                        .record_search((bt.file.clone(), *leaf), &key_bytes);
                }
                rt.heap
                    .fetch_into(&self.bufpool, &mut self.vdisk, &found.row_ids, &mut sink)?;
                None
            }
            None => {
                // Streaming heap scan: one page at a time, consulting the
                // zone map first so non-matching pages are never decoded.
                let prune = plan
                    .prune
                    .filter(|_| self.host.config.zone_maps_enabled)
                    .map(|(col, lo, hi)| (col as u16, lo, hi));
                Some(rt.heap.scan_into(
                    &self.bufpool,
                    &mut self.vdisk,
                    prune.as_ref(),
                    &mut sink,
                )?)
            }
        };
        let ScanSink {
            rows: kept,
            examined,
            ..
        } = sink;
        if let Some((pages_pruned, pages_decoded)) = scan_pages {
            self.metrics.scan_pages_pruned.add(pages_pruned);
            self.metrics.scan_pages_decoded.add(pages_decoded);
            self.trace_attr("pages_pruned", pages_pruned);
            self.trace_attr("pages_decoded", pages_decoded);
        }

        // Buffer-pool I/O nested under the scan: the hit/miss deltas of
        // exactly this stage's page accesses.
        let pages_hit = self.metrics.bufpool_hits.get().saturating_sub(hits0);
        let pages_missed = self.metrics.bufpool_misses.get().saturating_sub(misses0);
        self.trace_begin("bufpool");
        self.trace_attr("pages_hit", pages_hit);
        self.trace_attr("pages_missed", pages_missed);
        // Advisory nested cost: one simulated µs per page fault.
        self.trace_end(pages_missed);

        self.trace_attr("rows_examined", examined);
        self.trace_end_elastic();
        Ok((kept, examined))
    }

    fn project(
        &self,
        schema: &TableSchema,
        items: &[SelectItem],
        rows: Vec<Row>,
    ) -> DbResult<QueryResult> {
        let has_aggregate = items
            .iter()
            .any(|i| matches!(i, SelectItem::CountStar | SelectItem::Aggregate(_, _)));
        if has_aggregate {
            let mut columns = Vec::new();
            let mut out = Vec::new();
            for item in items {
                match item {
                    SelectItem::CountStar => {
                        columns.push("count(*)".to_string());
                        out.push(Value::Int(rows.len() as i64));
                    }
                    SelectItem::Aggregate(func, col) => {
                        let idx = schema.column_index(col)?;
                        columns.push(format!("{func}({col})"));
                        out.push(aggregate(func, idx, &rows)?);
                    }
                    _ => {
                        return Err(DbError::Eval(
                            "cannot mix aggregates and plain columns".into(),
                        ))
                    }
                }
            }
            return Ok(QueryResult {
                columns,
                rows: vec![out],
                rows_examined: 0,
                rows_affected: 0,
            });
        }
        let mut columns = Vec::new();
        let mut proj: Vec<usize> = Vec::new();
        for item in items {
            match item {
                SelectItem::Star => {
                    for (i, c) in schema.columns.iter().enumerate() {
                        columns.push(c.name.clone());
                        proj.push(i);
                    }
                }
                SelectItem::Column(c) => {
                    let idx = schema.column_index(c)?;
                    columns.push(c.clone());
                    proj.push(idx);
                }
                _ => unreachable!("aggregates handled above"),
            }
        }
        // The rows are ours and about to be dropped. When the select list
        // names distinct columns in schema order (`*`, or a subsequence
        // of it) each row's own `Vec` becomes the result row: swap every
        // selected value down into place, then truncate — no allocation.
        // Otherwise move each value out into a fresh `Vec`, or clone it
        // when the list names a column twice.
        let in_place = proj.windows(2).all(|w| w[0] < w[1]);
        let distinct = proj.iter().enumerate().all(|(n, i)| !proj[..n].contains(i));
        let out = rows
            .into_iter()
            .map(|mut r| {
                if in_place {
                    for (k, &i) in proj.iter().enumerate() {
                        r.values.swap(k, i);
                    }
                    r.values.truncate(proj.len());
                    return r.values;
                }
                proj.iter()
                    .map(|&i| match distinct {
                        true => std::mem::replace(&mut r.values[i], Value::Null),
                        false => r.values[i].clone(),
                    })
                    .collect()
            })
            .collect();
        Ok(QueryResult {
            columns,
            rows: out,
            rows_examined: 0,
            rows_affected: 0,
        })
    }

    // ================= DML =================

    fn dml(&mut self, conn_id: u64, sql: &str, op: DmlOp) -> DbResult<QueryResult> {
        let explicit = self.txns.contains_key(&conn_id);
        let txn_id = match self.txns.get(&conn_id) {
            Some(t) => t.id,
            None => self.wal.alloc_txn(),
        };
        let mut undo_written = Vec::new();
        let version_mark = self.mvcc.pending_mark(txn_id);
        let result = self.apply_dml(txn_id, op, &mut undo_written);
        match result {
            Ok(res) => {
                if explicit {
                    let ctx = self.current_ctx;
                    let t = self.txns.get_mut(&conn_id).expect("checked");
                    t.undo.extend(undo_written);
                    t.statements.push((sql.to_string(), ctx));
                } else {
                    self.commit_txn(TxnState {
                        id: txn_id,
                        undo: Vec::new(),
                        statements: vec![(sql.to_string(), self.current_ctx)],
                        snapshot_csn: 0,
                    })?;
                }
                Ok(res)
            }
            Err(e) => {
                // Statement-level rollback: undo whatever this statement
                // already did, in reverse — version records included.
                for rec in undo_written.iter().rev() {
                    self.apply_undo(rec)?;
                }
                self.mvcc.abort_from(&mut self.vdisk, txn_id, version_mark);
                Err(e)
            }
        }
    }

    fn apply_dml(
        &mut self,
        txn_id: u64,
        op: DmlOp,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<QueryResult> {
        match op {
            DmlOp::Insert {
                table,
                columns,
                rows,
            } => {
                let def = self.catalog.get(&table)?.clone();
                self.record_table_access(&def.schema.name);
                // The write is the elastic stage for inserts (no scan).
                self.trace_begin("write");
                let mut affected = 0;
                for literals in rows {
                    let values = arrange_columns(&def.schema, &columns, literals)?;
                    def.schema.check_row(&values)?;
                    self.check_pk_unique(&def, &values, None)?;
                    let row_id = {
                        let rt = self.runtime.get_mut(&table).expect("catalog hit");
                        rt.heap.allocate_row_id()
                    };
                    let row = Row { id: row_id, values };
                    self.insert_row(txn_id, &def, &row, undo_written)?;
                    self.mvcc.record_insert(&def.schema.name, row_id, txn_id);
                    affected += 1;
                }
                self.trace_attr("rows_affected", affected);
                self.trace_end_elastic();
                self.finish_write(&table);
                Ok(QueryResult {
                    rows_affected: affected,
                    ..Default::default()
                })
            }
            DmlOp::Update {
                table,
                sets,
                where_clause,
            } => {
                let def = self.catalog.get(&table)?.clone();
                self.record_table_access(&def.schema.name);
                // No pushdowns: updates re-encode the old row, so every
                // column must be materialized, and all targets matter.
                let (targets, examined) =
                    self.fetch_rows(&def, where_clause.as_ref(), None, None)?;
                self.trace_begin("write");
                let mut set_idx = Vec::new();
                for (col, val) in &sets {
                    let idx = def.schema.column_index(col)?;
                    set_idx.push((idx, val.clone()));
                }
                let affected = targets.len() as u64;
                for old in targets {
                    let mut new_row = old.clone();
                    for (idx, val) in &set_idx {
                        new_row.values[*idx] = val.clone();
                    }
                    def.schema.check_row(&new_row.values)?;
                    self.check_pk_unique(&def, &new_row.values, Some(old.id))?;
                    // Archive the displaced image before it is overwritten:
                    // MVCC writers append versions, they never destroy.
                    self.mvcc.record_supersession(
                        &mut self.vdisk,
                        &def.schema.name,
                        &old,
                        OP_UPDATE,
                        txn_id,
                    )?;
                    self.update_row(txn_id, &def, &old, &new_row, undo_written)?;
                }
                self.trace_attr("rows_affected", affected);
                self.trace_end(STAGE_COST_US);
                self.finish_write(&table);
                Ok(QueryResult {
                    rows_examined: examined,
                    rows_affected: affected,
                    ..Default::default()
                })
            }
            DmlOp::Delete {
                table,
                where_clause,
            } => {
                let def = self.catalog.get(&table)?.clone();
                self.record_table_access(&def.schema.name);
                // No pushdowns: the undo image needs the full old row.
                let (targets, examined) =
                    self.fetch_rows(&def, where_clause.as_ref(), None, None)?;
                self.trace_begin("write");
                let affected = targets.len() as u64;
                for old in targets {
                    self.mvcc.record_supersession(
                        &mut self.vdisk,
                        &def.schema.name,
                        &old,
                        OP_DELETE,
                        txn_id,
                    )?;
                    self.delete_row(txn_id, &def, &old, undo_written)?;
                }
                self.trace_attr("rows_affected", affected);
                self.trace_end(STAGE_COST_US);
                self.finish_write(&table);
                Ok(QueryResult {
                    rows_examined: examined,
                    rows_affected: affected,
                    ..Default::default()
                })
            }
        }
    }

    fn check_pk_unique(
        &mut self,
        def: &TableDef,
        values: &[Value],
        updating: Option<RowId>,
    ) -> DbResult<()> {
        let Some(pk_idx) = def.schema.primary_key_index() else {
            return Ok(());
        };
        let Some(ix_pos) = def.indexes.iter().position(|i| i.column_idx == pk_idx) else {
            return Ok(());
        };
        let bt = self.runtime[&def.schema.name].btrees[ix_pos].clone();
        let found = bt.search_eq(&self.bufpool, &mut self.vdisk, &values[pk_idx])?;
        for rid in found.row_ids {
            if Some(rid) != updating {
                return Err(DbError::DuplicateKey(format!(
                    "{} = {}",
                    def.schema.columns[pk_idx].name, values[pk_idx]
                )));
            }
        }
        Ok(())
    }

    /// Appends a redo record, checkpointing first if the circular log is
    /// about to wrap (so no un-checkpointed history is overwritten).
    fn log_redo(&mut self, rec: RedoRecord) {
        let framed = self.wal.frame_redo(&rec);
        if self.wal.redo.would_wrap(&self.vdisk, framed.len()) {
            self.checkpoint();
        }
        self.wal.append_redo(&mut self.vdisk, &framed);
    }

    /// Checkpoint: flush dirty pages and persist the checkpoint LSN plus
    /// the active-transaction table (ARIES-style), so recovery can tell
    /// "committed long ago, marker wrapped away" apart from "in flight at
    /// the crash".
    fn checkpoint(&mut self) {
        self.bufpool.flush_all(&mut self.vdisk);
        let lsn = self.wal.current_lsn();
        let mut buf = Vec::with_capacity(12 + self.txns.len() * 8);
        buf.extend_from_slice(&lsn.to_le_bytes());
        buf.extend_from_slice(&(self.txns.len() as u32).to_le_bytes());
        for t in self.txns.values() {
            buf.extend_from_slice(&t.id.to_le_bytes());
        }
        self.vdisk.write(CHECKPOINT_FILE, buf);
        // A checkpoint is a durability point: one simulated fsync.
        self.wal.record_fsync();
    }

    fn insert_row(
        &mut self,
        txn_id: u64,
        def: &TableDef,
        row: &Row,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<()> {
        let lsn = self.wal.alloc_lsn();
        let undo = UndoRecord {
            lsn,
            txn: txn_id,
            op: OpKind::Insert,
            table_id: def.id,
            row_id: row.id,
            before: Vec::new(),
        };
        self.wal.append_undo(&mut self.vdisk, &undo);
        undo_written.push(undo);

        let rt = self.runtime.get_mut(&def.schema.name).expect("catalog hit");
        let (page_no, slot) = rt.heap.insert(&self.bufpool, &mut self.vdisk, row)?;
        self.stamp_page_lsn(&def.file, page_no, lsn)?;
        self.log_redo(RedoRecord {
            lsn,
            txn: txn_id,
            op: OpKind::Insert,
            table_id: def.id,
            page_no,
            slot,
            after: row.encode(),
        });
        for (ix, bt) in def
            .indexes
            .iter()
            .zip(self.runtime[&def.schema.name].btrees.clone())
        {
            bt.insert(
                &self.bufpool,
                &mut self.vdisk,
                &row.values[ix.column_idx],
                row.id,
            )?;
        }
        Ok(())
    }

    fn update_row(
        &mut self,
        txn_id: u64,
        def: &TableDef,
        old: &Row,
        new_row: &Row,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<()> {
        let lsn = self.wal.alloc_lsn();
        let undo = UndoRecord {
            lsn,
            txn: txn_id,
            op: OpKind::Update,
            table_id: def.id,
            row_id: old.id,
            before: old.encode(),
        };
        self.wal.append_undo(&mut self.vdisk, &undo);
        undo_written.push(undo);

        let rt = self.runtime.get_mut(&def.schema.name).expect("catalog hit");
        let placement = rt.heap.update(&self.bufpool, &mut self.vdisk, new_row)?;
        match placement {
            UpdatePlacement::InPlace { page_no, slot } => {
                self.stamp_page_lsn(&def.file, page_no, lsn)?;
                self.log_redo(RedoRecord {
                    lsn,
                    txn: txn_id,
                    op: OpKind::Update,
                    table_id: def.id,
                    page_no,
                    slot,
                    after: new_row.encode(),
                });
            }
            UpdatePlacement::Moved { from, to } => {
                self.stamp_page_lsn(&def.file, from.0, lsn)?;
                self.log_redo(RedoRecord {
                    lsn,
                    txn: txn_id,
                    op: OpKind::Delete,
                    table_id: def.id,
                    page_no: from.0,
                    slot: from.1,
                    after: Vec::new(),
                });
                let lsn2 = self.wal.alloc_lsn();
                self.stamp_page_lsn(&def.file, to.0, lsn2)?;
                self.log_redo(RedoRecord {
                    lsn: lsn2,
                    txn: txn_id,
                    op: OpKind::Insert,
                    table_id: def.id,
                    page_no: to.0,
                    slot: to.1,
                    after: new_row.encode(),
                });
            }
        }
        // Index maintenance for changed keys.
        for (ix, bt) in def
            .indexes
            .iter()
            .zip(self.runtime[&def.schema.name].btrees.clone())
        {
            let old_key = &old.values[ix.column_idx];
            let new_key = &new_row.values[ix.column_idx];
            if old_key != new_key {
                bt.delete(&self.bufpool, &mut self.vdisk, old_key, old.id)?;
                bt.insert(&self.bufpool, &mut self.vdisk, new_key, old.id)?;
            }
        }
        Ok(())
    }

    fn delete_row(
        &mut self,
        txn_id: u64,
        def: &TableDef,
        old: &Row,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<()> {
        let lsn = self.wal.alloc_lsn();
        let undo = UndoRecord {
            lsn,
            txn: txn_id,
            op: OpKind::Delete,
            table_id: def.id,
            row_id: old.id,
            before: old.encode(),
        };
        self.wal.append_undo(&mut self.vdisk, &undo);
        undo_written.push(undo);

        let rt = self.runtime.get_mut(&def.schema.name).expect("catalog hit");
        let (page_no, slot) = rt.heap.delete(&self.bufpool, &mut self.vdisk, old.id)?;
        self.stamp_page_lsn(&def.file, page_no, lsn)?;
        self.log_redo(RedoRecord {
            lsn,
            txn: txn_id,
            op: OpKind::Delete,
            table_id: def.id,
            page_no,
            slot,
            after: Vec::new(),
        });
        for (ix, bt) in def
            .indexes
            .iter()
            .zip(self.runtime[&def.schema.name].btrees.clone())
        {
            bt.delete(
                &self.bufpool,
                &mut self.vdisk,
                &old.values[ix.column_idx],
                old.id,
            )?;
        }
        Ok(())
    }

    fn stamp_page_lsn(&mut self, file: &str, page_no: u32, lsn: u64) -> DbResult<()> {
        self.bufpool
            .with_page_mut(&mut self.vdisk, file, page_no, |buf| {
                crate::storage::page::Page::new(buf).set_lsn(lsn);
            })
    }

    fn finish_write(&mut self, table: &str) {
        for p in self.query_cache.invalidate_table(table) {
            self.heap.free(p);
        }
    }

    /// Bumps the lazily-registered per-table access counter. These
    /// counters are the telemetry experiments' star witness: they encode
    /// the query distribution per table name, survive
    /// [`Db::flush_diagnostics`], and ride along in every memory image.
    fn record_table_access(&mut self, table: &str) {
        if let Some(t) = self.current_trace.as_mut() {
            t.table(table);
        }
        let telemetry = &self.host.telemetry;
        self.metrics
            .table_access
            .entry(table.to_string())
            .or_insert_with(|| telemetry.counter(&format!("sql.table_access.{table}")))
            .inc();
    }

    fn commit_txn(&mut self, txn: TxnState) -> DbResult<()> {
        // Stamp the commit CSN into every version record this txn wrote:
        // before-images get their xmax, fresh rows their xmin.
        let csn = self.next_csn;
        self.next_csn += 1;
        self.mvcc.commit(&mut self.vdisk, txn.id, csn);
        let logged0 = self.metrics.wal_redo_bytes.get() + self.metrics.wal_binlog_bytes.get();
        self.trace_begin("wal_append");
        let lsn = self.wal.alloc_lsn();
        self.log_redo(RedoRecord {
            lsn,
            txn: txn.id,
            op: OpKind::Commit,
            table_id: 0,
            page_no: 0,
            slot: 0,
            after: Vec::new(),
        });
        let binlog_events = txn.statements.len() as u64;
        for (stmt, stmt_ctx) in &txn.statements {
            let ctx = self.binlog_ctx(*stmt_ctx);
            self.wal.append_binlog(
                &mut self.vdisk,
                &BinlogEvent {
                    lsn,
                    txn: txn.id,
                    timestamp: self.host.now_unix,
                    statement: stmt.clone(),
                    ctx,
                },
            );
        }
        let logged1 = self.metrics.wal_redo_bytes.get() + self.metrics.wal_binlog_bytes.get();
        self.trace_attr("bytes_logged", logged1.saturating_sub(logged0));
        self.trace_attr("binlog_events", binlog_events);
        self.trace_end(STAGE_COST_US);
        // The durability point: the redo write and the binlog sync.
        self.trace_begin("commit");
        self.durability_point();
        if self.host.group_commit.is_some() {
            self.trace_attr("group_commit", 1);
        } else {
            self.trace_attr("fsyncs", 1);
        }
        self.trace_end(STAGE_COST_US);
        Ok(())
    }

    /// The commit durability point. Without group commit this is the
    /// seed behaviour — one fsync per statement, paid *inside* the
    /// engine lock (which is exactly why concurrent committers
    /// serialize on it). With group commit the LSN is merely staged
    /// here; the caller performs the wait after releasing the lock, and
    /// one pipeline leader fsyncs for the whole batch.
    fn durability_point(&mut self) {
        match &self.host.group_commit {
            Some(p) => {
                let lsn = self.wal.current_lsn();
                p.stage(lsn);
                self.staged_commit = Some(lsn);
            }
            None => self.wal.record_fsync(),
        }
    }

    /// Takes the pending group-commit wait, if the statement that just
    /// ran staged one. The caller must invoke
    /// [`GroupCommitPipeline::wait_durable`] on it **after** dropping
    /// the engine guard.
    pub(crate) fn take_staged_commit(&mut self) -> Option<(Arc<GroupCommitPipeline>, u64)> {
        let lsn = self.staged_commit.take()?;
        self.host
            .group_commit
            .as_ref()
            .map(|p| (Arc::clone(p), lsn))
    }

    fn rollback_txn(&mut self, txn: TxnState) -> DbResult<()> {
        for rec in txn.undo.iter().rev() {
            self.apply_undo(rec)?;
        }
        self.mvcc.abort(&mut self.vdisk, txn.id);
        // Mark the transaction finished so recovery does not re-undo it.
        let lsn = self.wal.alloc_lsn();
        self.log_redo(RedoRecord {
            lsn,
            txn: txn.id,
            op: OpKind::Commit,
            table_id: 0,
            page_no: 0,
            slot: 0,
            after: Vec::new(),
        });
        Ok(())
    }

    /// Applies one undo record (compensation), logging fresh redo so the
    /// compensation itself survives a crash.
    fn apply_undo(&mut self, rec: &UndoRecord) -> DbResult<()> {
        let def = match self.catalog.get_by_id(rec.table_id) {
            Some(d) => d.clone(),
            // The table vanished (e.g. crash before catalog persisted);
            // nothing to compensate.
            None => return Ok(()),
        };
        let mut scratch = Vec::new();
        match rec.op {
            OpKind::Insert => {
                // Undo an insert: delete the row if it exists.
                let exists = self.runtime[&def.schema.name]
                    .heap
                    .locate(rec.row_id)
                    .is_some();
                if exists {
                    let rt = self.runtime.get(&def.schema.name).expect("catalog hit");
                    let old = rt.heap.read(&self.bufpool, &mut self.vdisk, rec.row_id)?;
                    self.delete_row(rec.txn, &def, &old, &mut scratch)?;
                }
            }
            OpKind::Update => {
                let before = Row::decode(&rec.before)?;
                let exists = self.runtime[&def.schema.name]
                    .heap
                    .locate(rec.row_id)
                    .is_some();
                if exists {
                    let rt = self.runtime.get(&def.schema.name).expect("catalog hit");
                    let current = rt.heap.read(&self.bufpool, &mut self.vdisk, rec.row_id)?;
                    self.update_row(rec.txn, &def, &current, &before, &mut scratch)?;
                }
            }
            OpKind::Delete => {
                let before = Row::decode(&rec.before)?;
                let exists = self.runtime[&def.schema.name]
                    .heap
                    .locate(rec.row_id)
                    .is_some();
                if !exists {
                    self.insert_row(rec.txn, &def, &before, &mut scratch)?;
                }
            }
            OpKind::Commit => {}
        }
        Ok(())
    }

    // ================= recovery =================

    pub(crate) fn recover(&mut self) -> DbResult<()> {
        // 1. Redo, one table at a time: open the heap from its (possibly
        //    stale) pages, replay the logged changes newer than each
        //    page's LSN, then rebuild the indexes from the redone heap
        //    (index changes are not WAL-logged in MiniDB; a full rebuild
        //    replaces them).
        self.catalog = Catalog::load(&self.vdisk)?;
        self.runtime.clear();
        let redo = self.wal.carve_redo(&self.vdisk);
        let committed: std::collections::HashSet<u64> = redo
            .iter()
            .filter(|r| r.op == OpKind::Commit)
            .map(|r| r.txn)
            .collect();
        let defs: Vec<TableDef> = self.catalog.tables.values().cloned().collect();
        for def in &defs {
            let (pool, disk) = (&self.bufpool, &mut self.vdisk);
            let mut heap = TableHeap::open(pool, disk, &def.file)?;
            heap.set_zone_maps(self.host.config.zone_maps_enabled);
            for rec in redo.iter().filter(|r| r.table_id == def.id) {
                let (lsn, page, slot) = (rec.lsn, rec.page_no, rec.slot);
                match rec.op {
                    OpKind::Insert => {
                        heap.replay_insert(pool, disk, lsn, page, slot, &rec.after)?
                    }
                    OpKind::Update => {
                        heap.replay_update(pool, disk, lsn, page, slot, &rec.after)?
                    }
                    OpKind::Delete => heap.replay_delete(pool, disk, lsn, page, slot)?,
                    OpKind::Commit => {}
                }
            }
            let rows = heap.scan(pool, disk)?;
            let mut btrees = Vec::new();
            for ix in &def.indexes {
                disk.remove(&ix.file);
                let bt = BTree::create(pool, disk, &ix.file)?;
                for row in &rows {
                    bt.insert(pool, disk, &row.values[ix.column_idx], row.id)?;
                }
                btrees.push(bt);
            }
            self.runtime
                .insert(def.schema.name.clone(), RuntimeTable { heap, btrees });
        }
        // 2. Undo phase. Candidates for rollback are only transactions
        //    that were live at or after the last checkpoint: the
        //    checkpoint's active-transaction table plus every txn whose
        //    redo records postdate the checkpoint LSN. Older transactions
        //    without a visible commit marker committed long ago — their
        //    markers merely wrapped out of the circular log.
        let (ckpt_lsn, ckpt_active) = crate::wal::read_checkpoint(&self.vdisk);
        let mut candidates: std::collections::HashSet<u64> = ckpt_active;
        for rec in &redo {
            if rec.lsn >= ckpt_lsn && rec.op != OpKind::Commit {
                candidates.insert(rec.txn);
            }
        }
        let undo = self.wal.carve_undo(&self.vdisk);
        for rec in undo.iter().rev() {
            if candidates.contains(&rec.txn) && !committed.contains(&rec.txn) {
                self.apply_undo(rec)?;
            }
        }
        self.crashed = false;
        Ok(())
    }

    // ================= expression evaluation =================

    /// Every zone-map synopsis the heaps currently hold in memory, as
    /// `(tablespace file, page number, synopsis)` sorted for stable
    /// snapshot serialization. This is the in-memory half of the
    /// zone-map leakage surface; the persisted half lives in the page
    /// headers of the `.ibd` files themselves.
    pub(crate) fn zone_map_pages(&self) -> Vec<(String, u32, crate::storage::PageSynopsis)> {
        let mut out: Vec<(String, u32, crate::storage::PageSynopsis)> = self
            .runtime
            .values()
            .flat_map(|rt| {
                rt.heap
                    .zone_map()
                    .map(|(page_no, syn)| (rt.heap.file.clone(), page_no, syn.clone()))
            })
            .collect();
        out.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
        out
    }
}

/// Finds sargable conjuncts (`Column op Literal`) over an indexed column
/// and intersects their bounds, so `k >= a AND k <= b` scans only `[a, b]`
/// rather than a half-open range. Returns `None` for unindexable filters.
/// How a `SELECT` will touch a table: an index range (when a sargable
/// predicate hits an indexed column), a zone-map prune spec for the
/// streaming heap scan, and whether the index bounds alone *guarantee*
/// the full predicate (letting the executor skip per-row re-evaluation).
#[derive(Default)]
struct ScanPlan {
    /// Index range, if any sargable conjunct hit an indexed column.
    index: Option<IndexPlan>,
    /// The index bounds are exactly the predicate: every conjunct folded
    /// into them, no residual filter remains, and the range provably
    /// excludes stored NULL keys (NULL sorts below every value, so this
    /// requires a bounded, non-NULL lower bound). Only then may the
    /// executor skip the per-row filter on fetched rows.
    guaranteed: bool,
    /// Zone-map prune spec for the heap path: `(column ordinal, lo, hi)`
    /// over INT bounds. Pages whose synopsis range is disjoint from it
    /// are skipped without decoding.
    prune: Option<(usize, std::ops::Bound<i64>, std::ops::Bound<i64>)>,
}

fn plan_scan(def: &TableDef, where_clause: &Expr) -> ScanPlan {
    let mut conjuncts = Vec::new();
    flatten_and(where_clause, &mut conjuncts);
    let mut plan: Option<IndexPlan> = None;
    // A conjunct the index bounds do not fully capture: the per-row
    // filter stays mandatory.
    let mut residual = false;
    // Accumulated bounds per column (first-mention order) for pruning.
    let mut col_bounds: Vec<(usize, RangeBounds)> = Vec::new();
    for c in conjuncts {
        let Expr::Cmp(l, op, r) = c else {
            residual = true;
            continue;
        };
        let (col, op, lit) = match (l.as_ref(), r.as_ref()) {
            (Expr::Column(c), _) if r.as_literal().is_some() => {
                (c.clone(), *op, r.as_literal().unwrap().clone())
            }
            (_, Expr::Column(c)) if l.as_literal().is_some() => {
                (c.clone(), flip(*op), l.as_literal().unwrap().clone())
            }
            _ => {
                residual = true;
                continue;
            }
        };
        if op == CmpOp::Ne {
            residual = true;
            continue;
        }
        let Ok(col_idx) = def.schema.column_index(&col) else {
            residual = true;
            continue;
        };
        // A NULL literal still narrows the index range (harmlessly — the
        // range finds stored NULLs, eval rejects them), but can never be
        // *guaranteed*: `col = NULL` is unknown, not a match.
        if lit == Value::Null {
            residual = true;
        }
        let bounds = match col_bounds.iter_mut().find(|(i, _)| *i == col_idx) {
            Some((_, b)) => b,
            None => {
                col_bounds.push((col_idx, RangeBounds::new()));
                &mut col_bounds.last_mut().expect("just pushed").1
            }
        };
        bounds.narrow(op, lit.clone());
        match def.indexes.iter().position(|i| i.column_idx == col_idx) {
            Some(pos) => {
                let p = plan.get_or_insert_with(|| IndexPlan::new(pos));
                if p.index_pos != pos {
                    residual = true; // Stick with the first indexed column.
                    continue;
                }
                p.bounds.narrow(op, lit);
            }
            None => residual = true,
        }
    }
    let guaranteed = match &plan {
        Some(p) => {
            !residual
                && matches!(
                    &p.bounds.lo,
                    std::ops::Bound::Included(v) | std::ops::Bound::Excluded(v)
                        if *v != Value::Null
                )
        }
        None => false,
    };
    // Pruning only matters on the heap path; pick the first column whose
    // accumulated bounds are INT and bounded on at least one side.
    let prune = if plan.is_none() {
        col_bounds.iter().find_map(|(idx, b)| {
            let lo = int_bound(&b.lo)?;
            let hi = int_bound(&b.hi)?;
            if matches!(
                (&lo, &hi),
                (std::ops::Bound::Unbounded, std::ops::Bound::Unbounded)
            ) {
                return None;
            }
            Some((*idx, lo, hi))
        })
    } else {
        None
    };
    ScanPlan {
        index: plan,
        guaranteed,
        prune,
    }
}

/// Converts a `Bound<Value>` to `Bound<i64>` — `None` when the literal
/// is not an INT (the zone map only tracks INT columns).
fn int_bound(b: &std::ops::Bound<Value>) -> Option<std::ops::Bound<i64>> {
    use std::ops::Bound::*;
    match b {
        Unbounded => Some(Unbounded),
        Included(Value::Int(v)) => Some(Included(*v)),
        Excluded(Value::Int(v)) => Some(Excluded(*v)),
        _ => None,
    }
}

/// Collects every column an expression reads into `mask`.
fn expr_columns(e: &Expr, schema: &TableSchema, mask: &mut [bool]) -> bool {
    match e {
        Expr::Literal(_) => true,
        Expr::Column(c) => match schema.column_index(c) {
            Ok(i) => {
                mask[i] = true;
                true
            }
            Err(_) => false,
        },
        Expr::Cmp(l, _, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            expr_columns(l, schema, mask) && expr_columns(r, schema, mask)
        }
        Expr::Not(inner) => expr_columns(inner, schema, mask),
        Expr::Func(_, args) => args.iter().all(|a| expr_columns(a, schema, mask)),
    }
}

/// The projection-pushdown mask for a `SELECT`: which columns the query
/// can possibly read (select list + WHERE + ORDER BY). `None` means
/// materialize everything — a `SELECT *`, or any reference the mask
/// cannot account for (unknown column names fall through so the normal
/// error paths report them).
fn needed_columns(schema: &TableSchema, sel: &SelectStmt) -> Option<Vec<bool>> {
    let mut mask = vec![false; schema.columns.len()];
    for item in &sel.items {
        match item {
            SelectItem::Star => return None,
            SelectItem::CountStar => {}
            SelectItem::Column(c) | SelectItem::Aggregate(_, c) => match schema.column_index(c) {
                Ok(i) => mask[i] = true,
                Err(_) => return None,
            },
        }
    }
    if let Some(w) = &sel.where_clause {
        if !expr_columns(w, schema, &mut mask) {
            return None;
        }
    }
    if let Some((c, _)) = &sel.order_by {
        match schema.column_index(c) {
            Ok(i) => mask[i] = true,
            Err(_) => return None,
        }
    }
    Some(mask)
}

/// Accumulated index bounds for one indexed column.
struct IndexPlan {
    index_pos: usize,
    bounds: RangeBounds,
}

impl IndexPlan {
    fn new(index_pos: usize) -> IndexPlan {
        IndexPlan {
            index_pos,
            bounds: RangeBounds::new(),
        }
    }
}

/// An accumulated `[lo, hi]` range over one column.
struct RangeBounds {
    lo: std::ops::Bound<Value>,
    hi: std::ops::Bound<Value>,
}

impl RangeBounds {
    fn new() -> RangeBounds {
        RangeBounds {
            lo: std::ops::Bound::Unbounded,
            hi: std::ops::Bound::Unbounded,
        }
    }

    /// Intersects the current bounds with `col op lit`.
    fn narrow(&mut self, op: CmpOp, lit: Value) {
        use std::ops::Bound::*;
        match op {
            CmpOp::Eq => {
                self.tighten_lo(Included(lit.clone()));
                self.tighten_hi(Included(lit));
            }
            CmpOp::Lt => self.tighten_hi(Excluded(lit)),
            CmpOp::Le => self.tighten_hi(Included(lit)),
            CmpOp::Gt => self.tighten_lo(Excluded(lit)),
            CmpOp::Ge => self.tighten_lo(Included(lit)),
            CmpOp::Ne => {}
        }
    }

    fn tighten_lo(&mut self, new: std::ops::Bound<Value>) {
        use std::ops::Bound::*;
        let stronger = match (&self.lo, &new) {
            (Unbounded, _) => true,
            (_, Unbounded) => false,
            (Included(a) | Excluded(a), Included(b)) => b > a,
            (Included(a), Excluded(b)) => b >= a,
            (Excluded(a), Excluded(b)) => b > a,
        };
        if stronger {
            self.lo = new;
        }
    }

    fn tighten_hi(&mut self, new: std::ops::Bound<Value>) {
        use std::ops::Bound::*;
        let stronger = match (&self.hi, &new) {
            (Unbounded, _) => true,
            (_, Unbounded) => false,
            (Included(a) | Excluded(a), Included(b)) => b < a,
            (Included(a), Excluded(b)) => b <= a,
            (Excluded(a), Excluded(b)) => b < a,
        };
        if stronger {
            self.hi = new;
        }
    }

    /// A representative searched key for the adaptive hash index.
    fn sample_key(&self) -> Option<Value> {
        use std::ops::Bound::*;
        match (&self.lo, &self.hi) {
            (Included(v) | Excluded(v), _) => Some(v.clone()),
            (_, Included(v) | Excluded(v)) => Some(v.clone()),
            _ => None,
        }
    }
}

/// Whether a statement modifies persistent state (the read-only gate's
/// notion of a "write"; transaction control passes so a read-only
/// connection can still scope its reads).
fn writes_state(stmt: &Statement) -> bool {
    match stmt {
        Statement::CreateTable { .. }
        | Statement::CreateIndex { .. }
        | Statement::DropTable { .. }
        | Statement::Insert { .. }
        | Statement::Update { .. }
        | Statement::Delete { .. } => true,
        // EXPLAIN ANALYZE executes its target, so it writes iff the
        // target does.
        Statement::ExplainAnalyze(inner) => writes_state(inner),
        _ => false,
    }
}

/// Renders a finished [`StatementTrace`] as the `EXPLAIN ANALYZE` result
/// set: one row per span, depth-indented, with the simulated stage
/// timings and per-span attributes.
fn render_explain_analyze(trace: &mdb_trace::StatementTrace, res: &QueryResult) -> QueryResult {
    let cols = vec![
        "span".to_string(),
        "start_us".to_string(),
        "dur_us".to_string(),
        "detail".to_string(),
    ];
    let rows = trace
        .root
        .flatten()
        .into_iter()
        .map(|(span, depth)| {
            let detail = span
                .attrs
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            vec![
                Value::Text(format!("{}{}", "  ".repeat(depth), span.name)),
                Value::Int(span.start_us as i64),
                Value::Int(span.dur_us as i64),
                Value::Text(detail),
            ]
        })
        .collect();
    QueryResult {
        columns: cols,
        rows,
        rows_examined: res.rows_examined,
        rows_affected: res.rows_affected,
    }
}

enum DmlOp {
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Value>>,
    },
    Update {
        table: String,
        sets: Vec<(String, Value)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
}

fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::And(l, r) => {
            flatten_and(l, out);
            flatten_and(r, out);
        }
        other => out.push(other),
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

fn arrange_columns(
    schema: &TableSchema,
    columns: &Option<Vec<String>>,
    literals: Vec<Value>,
) -> DbResult<Vec<Value>> {
    match columns {
        None => Ok(literals),
        Some(cols) => {
            if cols.len() != literals.len() {
                return Err(DbError::Schema(format!(
                    "{} columns but {} values",
                    cols.len(),
                    literals.len()
                )));
            }
            let mut values = vec![Value::Null; schema.columns.len()];
            for (c, v) in cols.iter().zip(literals) {
                let idx = schema.column_index(c)?;
                values[idx] = v;
            }
            Ok(values)
        }
    }
}

fn aggregate(func: &str, col_idx: usize, rows: &[Row]) -> DbResult<Value> {
    match func {
        "sum" => {
            let mut acc: i64 = 0;
            for r in rows {
                if let Value::Int(v) = r.values[col_idx] {
                    acc = acc.wrapping_add(v);
                }
            }
            Ok(Value::Int(acc))
        }
        "ashe_sum" => {
            // Seabed's ciphertext aggregation: wrapping u64 addition over
            // the column's bit pattern.
            let mut acc: u64 = 0;
            for r in rows {
                if let Value::Int(v) = r.values[col_idx] {
                    acc = acc.wrapping_add(v as u64);
                }
            }
            Ok(Value::Int(acc as i64))
        }
        "min" => Ok(rows
            .iter()
            .map(|r| r.values[col_idx].clone())
            .filter(|v| *v != Value::Null)
            .min()
            .unwrap_or(Value::Null)),
        "max" => Ok(rows
            .iter()
            .map(|r| r.values[col_idx].clone())
            .filter(|v| *v != Value::Null)
            .max()
            .unwrap_or(Value::Null)),
        other => Err(DbError::UnknownFunction(other.to_string())),
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

    /// Small rings so a few hundred statements wrap them.
    fn small_rings() -> DbConfig {
        DbConfig {
            redo_capacity: 4096,
            undo_capacity: 4096,
            ..DbConfig::default()
        }
    }

    /// A second host holding what `host` holds, with a registry of its
    /// own: the operator re-supplying the same configuration and key.
    fn fork(host: &Host) -> Host {
        Host {
            config: host.config.clone(),
            wal_key: host.wal_key,
            functions: host.functions.clone(),
            telemetry: Registry::new(),
            obs: None,
            replica_status: host.replica_status.clone(),
            group_commit: host.group_commit.clone(),
            now_unix: host.now_unix,
            next_conn: host.next_conn,
        }
    }

    /// A memory image rendered field by field; telemetry by value only,
    /// because a scrubbed registry keeps the names it had.
    fn render(image: &crate::snapshot::MemoryImage) -> Vec<(&'static str, String)> {
        let m = &image.metrics;
        let counters: Vec<_> = m.counters.iter().filter(|(_, v)| *v != 0).collect();
        let gauges: Vec<_> = m.gauges.iter().filter(|(_, v)| *v != 0).collect();
        let histograms: Vec<_> = m.histograms.iter().filter(|h| h.count != 0).collect();
        vec![
            ("heap", format!("{:?}", image.heap)),
            ("processlist", format!("{:?}", image.processlist)),
            (
                "statements_current",
                format!("{:?}", image.statements_current),
            ),
            (
                "statements_history",
                format!("{:?}", image.statements_history),
            ),
            ("digest_summary", format!("{:?}", image.digest_summary)),
            ("query cache", format!("{:?}", image.cached_queries)),
            ("cached_pages", format!("{:?}", image.cached_pages)),
            (
                "page_access_counts",
                format!("{:?}", image.page_access_counts),
            ),
            ("adaptive hash", format!("{:?}", image.adaptive_hash_keys)),
            ("version chains", format!("{:?}", image.version_chains)),
            ("zone maps", format!("{:?}", image.zone_maps)),
            ("traces", format!("{:?}", image.query_traces)),
            (
                "telemetry",
                format!("{counters:?} {gauges:?} {histograms:?}"),
            ),
        ]
    }

    #[test]
    fn a_crashed_engine_is_open_on_its_disk_and_host() {
        let db = Db::open(DbConfig {
            encrypted_wal: true,
            ..small_rings()
        });
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            .unwrap();
        for i in 0..60 {
            conn.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                .unwrap();
        }
        for i in 0..20 {
            conn.execute(&format!("UPDATE t SET v = {} WHERE id = {}", i * 7, i % 5))
                .unwrap();
            conn.execute("SELECT v FROM t WHERE id = 3").unwrap();
            conn.execute("SELECT COUNT(*) FROM t WHERE v > 10").unwrap();
        }
        conn.execute("BEGIN").unwrap();
        conn.execute("UPDATE t SET v = -1 WHERE id = 2").unwrap();
        // A table with uncommitted writes is never cached; this one is.
        let other = db.connect("report");
        other
            .execute("CREATE TABLE s (id INT PRIMARY KEY, v INT)")
            .unwrap();
        other.execute("INSERT INTO s VALUES (1, 1)").unwrap();
        other.execute("SELECT v FROM s WHERE id = 1").unwrap();
        // Every surface the comparison covers but the in-flight statement
        // table (empty between statements) holds something before the
        // crash, so an equal image after it means it was rebuilt.
        let live = render(&db.memory_image());
        let (key_before, csn_before) = {
            let g = db.inner.lock();
            (g.trace_hash_key, g.next_csn)
        };

        db.crash();
        let crashed = render(&db.memory_image());
        let reopened = {
            let g = db.inner.lock();
            Db {
                inner: Arc::new(Mutex::new(DbInner::open(fork(&g.host), g.vdisk.clone()))),
            }
        };
        for ((field, live), ((_, after), (_, fresh))) in live
            .iter()
            .zip(crashed.iter().zip(&render(&reopened.memory_image())))
        {
            if *field != "statements_current" {
                assert_ne!(live, fresh, "{field} was empty before the crash");
            }
            assert_eq!(after, fresh, "{field} outlived the crash");
        }
        assert_past_the_disk(&db);
        let g = db.inner.lock();
        assert_ne!(
            g.trace_hash_key, key_before,
            "the hashing key is per process"
        );
        // The last commit inserted into `s` and stamped no version
        // record, so its CSN is on no byte and the count steps back.
        assert_eq!(g.next_csn, csn_before - 1);
        assert!(g.crashed && g.txns.is_empty() && g.runtime.is_empty());
    }

    /// Every number a restarted process allocates lies past every one on
    /// its disk: LSNs (page LSNs included), transaction ids and CSNs.
    /// This, not equality with the dead process's counters, is what
    /// recovery and snapshot visibility need.
    fn assert_past_the_disk(db: &Db) {
        let mut g = db.inner.lock();
        let g = &mut *g;
        let redo = g.wal.carve_redo(&g.vdisk);
        let undo = g.wal.carve_undo(&g.vdisk);
        let binlog = g.wal.carve_binlog(&g.vdisk);
        let ids = redo
            .iter()
            .map(|r| (r.lsn, r.txn))
            .chain(undo.iter().map(|r| (r.lsn, r.txn)))
            .chain(binlog.iter().map(|e| (e.lsn, e.txn)));
        let (mut max_lsn, mut max_txn) = ids.fold((0, 0), |a, b| (a.0.max(b.0), a.1.max(b.1)));
        for (name, bytes) in &g.vdisk.files {
            if name.ends_with(".ibd") && name != crate::mvcc::VERSIONS_FILE {
                for page in bytes.chunks(crate::storage::PAGE_SIZE) {
                    let mut page = page.to_vec();
                    max_lsn = max_lsn.max(crate::storage::Page::new(&mut page).lsn());
                }
            }
        }
        let (_, active) = crate::wal::read_checkpoint(&g.vdisk);
        max_txn = active.into_iter().fold(max_txn, u64::max);
        assert!(max_lsn > 0 && max_txn > 0, "the disk holds records");
        assert!(g.wal.current_lsn() > max_lsn);
        assert!(g.wal.alloc_txn() > max_txn);
        assert!(g.next_csn > crate::mvcc::max_csn(&g.vdisk));
    }

    /// The transaction a second crash interrupts must get an id no
    /// record on disk carries: reusing one whose commit marker is still
    /// in the redo ring would make recovery keep its uncommitted writes.
    #[test]
    fn a_second_crash_rolls_back_what_the_first_recovery_let_open() {
        let db = Db::open(small_rings());
        let rows = |db: &Db, sql: &str| {
            let mut rows = db.connect("check").execute(sql).unwrap().rows;
            rows.sort_by_key(|r| format!("{r:?}"));
            rows
        };
        {
            let conn = db.connect("app");
            conn.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
                .unwrap();
            for i in 0..8 {
                conn.execute(&format!("INSERT INTO t VALUES ({i}, {i})"))
                    .unwrap();
            }
        }
        db.purge_binlog();
        db.crash();
        assert_past_the_disk(&db);
        db.recover().unwrap();
        let conn = db.connect("app");
        conn.execute("INSERT INTO t VALUES (100, 100)").unwrap();
        conn.execute("BEGIN").unwrap();
        conn.execute("UPDATE t SET v = -1 WHERE id = 1").unwrap();
        conn.execute("INSERT INTO t VALUES (101, 101)").unwrap();
        conn.execute("DELETE FROM t WHERE id = 2").unwrap();
        db.crash();
        assert_past_the_disk(&db);
        db.recover().unwrap();
        assert_eq!(
            rows(&db, "SELECT id, v FROM t WHERE id < 3 OR id > 99"),
            [[0, 0], [1, 1], [100, 100], [2, 2]].map(|r| r.map(Value::Int).to_vec())
        );
    }
}
