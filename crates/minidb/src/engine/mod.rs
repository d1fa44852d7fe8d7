//! The MiniDB engine: connections, statement execution, transactions,
//! crash/recovery, and all the instrumentation the paper's attacks feed on.
//!
//! Every [`Db`] handle shares one process state behind one lock: the
//! host that outlives a crash, and four parts grouped by who writes them
//! — `Data` (catalog, buffer pool, disk), `Log` (WAL, version store,
//! transactions), `Diag` (the §4/§5 surfaces every statement writes
//! beside its answer) and `Node` (role and lifecycle). A stage outside
//! this file takes only the parts it touches. The code is split by what
//! each part owns:
//! * this file — the handles, the parts and opening a process, and the
//!   statement pipeline every statement runs through;
//! * `config` — [`DbConfig`], and the host that outlives a crash;
//! * `read` and `plan` — SELECT, EXPLAIN, virtual tables, access paths;
//! * `write` — DDL, DML, the row-change writer, redo and checkpoints;
//! * `txn` — transactions, undo, the binlog and the durability point;
//! * `recovery` — crash and recovery;
//! * `repl` — replication hooks, failover and health;
//! * `diag` — telemetry, traces and the diagnostics wipes.
//!
//! The tables themselves, definitions and storage, live in one map:
//! [`crate::catalog::Catalog`].

mod config;
mod diag;
mod plan;
mod read;
mod recovery;
mod repl;
mod txn;
mod write;

use std::collections::HashMap;
use std::sync::Arc;

use mdb_trace::{Recorder, StatementTrace, TraceBuilder, TraceContext};
use parking_lot::Mutex;

pub use self::config::DbConfig;
use self::config::Host;
use self::diag::EngineMetrics;
pub use self::repl::ReplRole;
use self::txn::TxnState;
use crate::cache::{AdaptiveHash, QueryCache, ADAPTIVE_HASH_THRESHOLD, QUERY_CACHE_ENTRIES};
use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::heap::HeapArena;
use crate::mvcc::VersionStore;
use crate::observability::{PerfSchema, ProcessList, DEFAULT_HISTORY_SIZE};
use crate::sql::ast::Statement;
use crate::sql::Front;
use crate::storage::shardpool::ShardedBufferPool;
use crate::value::{RowBlock, Value};
use crate::vdisk::VDisk;
use crate::wal::Wal;

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

/// The modeled duration of a statement that examined `rows_examined`
/// rows.
fn modeled_us(rows_examined: u64) -> u64 {
    STATEMENT_BASE_US + rows_examined * PER_ROW_US
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

/// A statement's result as the engine answers it under its lock: the
/// rows are one [`RowBlock`], shared with the query cache. The server
/// splices the block into its reply as it is; [`Answer::decode`] turns
/// it into a [`QueryResult`] for an in-process caller, after the lock
/// is released.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Answer {
    /// Result column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Arc<RowBlock>,
    /// Rows the execution examined (the `performance_schema` metric).
    pub rows_examined: u64,
    /// Rows affected by DML.
    pub rows_affected: u64,
}

impl Answer {
    /// The result with its rows decoded.
    pub fn decode(self) -> DbResult<QueryResult> {
        Ok(QueryResult {
            rows: self.rows.decode()?,
            columns: self.columns,
            rows_examined: self.rows_examined,
            rows_affected: self.rows_affected,
        })
    }
}

impl From<QueryResult> for Answer {
    /// Encodes a result's rows once, into its block.
    fn from(r: QueryResult) -> Answer {
        Answer {
            rows: Arc::new(RowBlock::from_rows(&r.rows)),
            columns: r.columns,
            rows_examined: r.rows_examined,
            rows_affected: r.rows_affected,
        }
    }
}

/// One process: the [`Host`] that outlives it, and four parts grouped by
/// who writes them. Every stage outside this file takes only the parts it
/// touches, so its signature is the set of parts it would lock.
pub(crate) struct DbInner {
    pub(crate) host: Host,
    pub(crate) data: Data,
    pub(crate) log: Log,
    pub(crate) diag: Diag,
    node: Node,
}

/// The tables and the bytes they live in.
pub(crate) struct Data {
    /// Every table: its definition, heap and indexes.
    pub(crate) catalog: Catalog,
    pub(crate) bufpool: ShardedBufferPool,
    pub(crate) vdisk: VDisk,
}

/// What makes a change durable and visible: the logs, the version store
/// and the transactions.
pub(crate) struct Log {
    pub(crate) wal: Wal,
    /// MVCC version chains and their commit bookkeeping.
    pub(crate) mvcc: VersionStore,
    /// Next commit-sequence number (CSNs start at 1).
    next_csn: u64,
    txns: HashMap<u64, TxnState>, // Active explicit transactions by conn.
    /// LSN staged by the statement that just ran, waiting for its
    /// durability wait outside the lock. Taken (and cleared) by the
    /// caller before the engine guard drops.
    staged_commit: Option<u64>,
}

/// The paper's §4/§5 surfaces: what every statement leaves beside its
/// answer, and the tracing that records it.
pub(crate) struct Diag {
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
}

/// This node's lifecycle and place in the fleet.
struct Node {
    /// This node's replication role. Derived from `read_only` at open
    /// (writable ⇒ primary, read-only ⇒ replica) and mutated only by
    /// failover transitions: [`Db::promote_to_primary`],
    /// [`Db::fence_divergent`], [`Db::rejoin_as_replica`]. `Fenced` is
    /// process state: a fenced node that restarts comes back a replica.
    repl_role: ReplRole,
    /// Bumped once per promotion this process has won. Epoch 0 means the
    /// node has held its role since open.
    promotion_epoch: u64,
    crashed: bool,
    /// True while the replication applier runs a shipped statement; lets
    /// it through the read-only gate.
    applying: bool,
    statements_executed: u64,
}

impl Data {
    fn open(host: &Host, vdisk: VDisk) -> Data {
        let config = &host.config;
        let mut bufpool = ShardedBufferPool::new(config.buffer_pool_pages, config.bufpool_shards);
        bufpool.attach_telemetry(&host.telemetry);
        Data {
            catalog: Catalog::default(),
            bufpool,
            vdisk,
        }
    }
}

impl Log {
    /// Every cursor comes from the disk's bytes: the WAL's ring ends and
    /// next LSN and transaction id, and the next CSN.
    fn open(host: &Host, vdisk: &mut VDisk) -> Log {
        let config = &host.config;
        let crypto = host
            .wal_key
            .map(|key| crate::wal::WalCrypto::new(key, config.server_id));
        let mut wal = Wal::open(
            vdisk,
            config.redo_capacity,
            config.undo_capacity,
            config.binlog_enabled,
            crypto,
        );
        wal.attach_telemetry(&host.telemetry);
        Log {
            wal,
            mvcc: VersionStore::default(),
            next_csn: crate::mvcc::max_csn(vdisk) + 1,
            txns: HashMap::new(),
            staged_commit: None,
        }
    }
}

impl Diag {
    fn open(host: &Host) -> Diag {
        let config = &host.config;
        let mut heap = HeapArena::new();
        heap.secure_delete = config.heap_secure_delete;
        heap.attach_telemetry(&host.telemetry);
        let trace = Recorder::new(config.trace_ring_capacity);
        trace.set_enabled(config.trace_enabled);
        Diag {
            heap,
            query_cache: QueryCache::new(config.query_cache_enabled, QUERY_CACHE_ENTRIES),
            adaptive_hash: AdaptiveHash::new(ADAPTIVE_HASH_THRESHOLD),
            perf: PerfSchema::new(DEFAULT_HISTORY_SIZE),
            processlist: ProcessList::default(),
            metrics: EngineMetrics::new(&host.telemetry),
            trace,
            current_trace: None,
            current_ctx: None,
            trace_hash_key: mdb_trace::entropy64(),
        }
    }
}

impl Node {
    fn open(config: &DbConfig) -> Node {
        Node {
            repl_role: match config.read_only {
                true => ReplRole::Replica,
                false => ReplRole::Primary,
            },
            promotion_epoch: 0,
            crashed: false,
            applying: false,
            statements_executed: 0,
        }
    }
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

    /// Starts the observability server when [`DbConfig::obs`] is set.
    /// The health closure holds only a [`Weak`](std::sync::Weak) engine
    /// reference: the server must not keep the engine alive, and a probe
    /// racing engine teardown reports `503` instead of deadlocking.
    fn start_obs(&self) {
        let mut g = self.inner.lock();
        let Some(options) = g.host.config.obs.clone() else {
            return;
        };
        let listen = options.listen.clone();
        let weak = Arc::downgrade(&self.inner);
        let health: mdb_obs::HealthSource = Arc::new(move || match weak.upgrade() {
            Some(inner) => repl::health_report(&inner.lock()),
            None => mdb_obs::HealthReport::unavailable("engine gone"),
        });
        let server = mdb_obs::ObsServer::start(g.host.telemetry.clone(), health, options)
            .unwrap_or_else(|e| panic!("obs listen {listen:?}: {e}"));
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
        g.diag.processlist.connect(id, user, now);
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

    /// Clean shutdown: flush dirty pages, checkpoint, and write the
    /// buffer-pool LRU dump (like MySQL on `SHUTDOWN`).
    pub fn shutdown(&self) {
        let obs = {
            let g = &mut *self.inner.lock();
            write::checkpoint(&mut g.data, &mut g.log);
            g.data.bufpool.dump(&mut g.data.vdisk);
            g.host.obs.take()
        };
        // Join the obs accept thread *outside* the engine lock: a
        // health probe racing shutdown takes that lock, and joining
        // while holding it would deadlock.
        drop(obs);
    }

    /// Runs a statement under the engine lock, then waits for the
    /// durability of what it committed *after* releasing the lock, so
    /// concurrent committers coalesce into the group-commit pipeline
    /// instead of serializing their fsyncs behind the lock.
    fn run_then_wait<T>(&self, run: impl FnOnce(&mut DbInner) -> DbResult<T>) -> DbResult<T> {
        let (res, staged) = {
            let g = &mut *self.inner.lock();
            let res = run(g);
            let staged = g.log.staged_commit.take();
            (res, staged.zip(g.host.group_commit.clone()))
        };
        if let Some((lsn, pipeline)) = staged {
            pipeline.wait_durable(lsn);
        }
        res
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
    /// shares the client's `trace_id` with a fresh `span_id`. The rows
    /// are decoded after the engine lock is released.
    pub fn execute_traced(&self, sql: &str, ctx: Option<TraceContext>) -> DbResult<QueryResult> {
        self.execute_encoded(sql, ctx)?.decode()
    }

    /// [`Self::execute_traced`] with the rows left as the engine's
    /// [`RowBlock`]: what a server splices into its reply.
    pub fn execute_encoded(&self, sql: &str, ctx: Option<TraceContext>) -> DbResult<Answer> {
        let front = crate::sql::front(sql);
        self.db
            .run_then_wait(|g| g.execute_ctx(self.id, sql, front, ctx))
    }

    /// Renders this connection's most recent trace, if the flight
    /// recorder still holds one, as the `EXPLAIN ANALYZE`-style span
    /// table (the `\trace` meta-command).
    pub fn last_trace_rendered(&self) -> Option<QueryResult> {
        let traces = self.db.inner.lock().diag.trace.traces();
        let last = traces.into_iter().rev().find(|t| t.conn_id == self.id)?;
        Some(render_explain_analyze(&last, 0, 0))
    }

    /// The owning database handle.
    pub fn db(&self) -> &Db {
        &self.db
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        let g = &mut *self.db.inner.lock();
        g.diag.processlist.disconnect(self.id);
        // A dropped connection with an open transaction rolls it back —
        // otherwise its heap mutations would persist unlogged and its
        // pending version records would pin the MVCC store forever.
        if let Some(txn) = g.log.txns.remove(&self.id) {
            let _ = txn::rollback_txn(&mut g.data, &mut g.log, txn);
        }
    }
}

impl DbInner {
    /// Builds a process on `vdisk` for `host`: every part comes from the
    /// disk's bytes or starts empty. On an empty disk this is a fresh
    /// install; on the disk a crash left it is the restarted process,
    /// whose tables [`Db::recover`] then rebuilds. Cannot fail:
    /// everything that parses tables is recovery's.
    fn open(host: Host, mut vdisk: VDisk) -> DbInner {
        let log = Log::open(&host, &mut vdisk);
        DbInner {
            data: Data::open(&host, vdisk),
            diag: Diag::open(&host),
            node: Node::open(&host.config),
            log,
            host,
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
    ) -> DbResult<Answer> {
        // Drain contract: whoever called execute_ctx last must have
        // taken the staged group-commit LSN (and waited on it outside
        // the lock). A stale LSN here means some caller skipped
        // `run_then_wait` — that commit's durability wait was lost.
        debug_assert!(
            self.log.staged_commit.is_none(),
            "staged group-commit LSN never drained; every execute_ctx \
             caller must take the staged LSN after the statement"
        );
        if self.node.crashed {
            return Err(DbError::Crashed);
        }
        self.node.statements_executed += 1;
        self.host.now_unix += self.host.config.seconds_per_statement;
        let started = self.host.now_unix;

        // The execution copy of the statement text: allocated in the
        // process heap for the duration of the statement (§5).
        let diag = &mut self.diag;
        let exec_ptr = diag.heap.alloc_str(sql);
        // The instrumentation keeps its own copy, owned by the history
        // ring until it rotates out.
        let hist_ptr = diag.heap.alloc_str(sql);
        // The lexer materializes each string literal into its own buffer
        // (as real parsers do); these transient copies are freed at the
        // end of the statement — without being zeroed.
        let literal_ptrs: Vec<_> = front
            .literals
            .iter()
            .map(|s| diag.heap.alloc_str(s))
            .collect();
        let digest = &front.digest;

        // Resolve the distributed context this statement runs under:
        // derive a child of an incoming sampled context (the received
        // span_id becomes the parent); an unsampled context propagates
        // nowhere (the sampling mitigation); with no incoming context
        // an armed tracer generates a fresh root, so local statements
        // join the same id space.
        diag.current_ctx = match ctx {
            Some(c) if c.sampled => Some(c.child()),
            Some(_) => None,
            None if diag.trace.is_enabled() => Some(TraceContext::generate()),
            None => None,
        };
        // Arm the tracer. When tracing is disabled this branch is the
        // *entire* per-statement cost: one relaxed atomic load, no
        // allocation (the invariant the `trace` bench pins down).
        if diag.trace.is_enabled() {
            diag.trace_open(conn_id, started, sql, digest);
        }
        diag.perf
            .statement_start(conn_id, sql, digest, started, Some(hist_ptr));
        diag.processlist.set_query(conn_id, Some(sql.to_string()));
        if self.host.config.general_log_enabled {
            let line = format!("{started} {conn_id} Query\t{sql}\n");
            self.data.vdisk.append(GENERAL_LOG_FILE, line.as_bytes());
        }

        // `front` parsed the statement; the `parse` span still accounts
        // its modeled cost, and a parse error is counted below.
        self.diag.trace_begin("parse");
        self.diag.trace_end(STAGE_COST_US);
        let outcome = front.stmt.and_then(|stmt| {
            if self.host.config.read_only && !self.node.applying && writes_state(&stmt) {
                return Err(DbError::ReadOnly);
            }
            self.run_stmt(conn_id, sql, digest, stmt)
        });

        let (rows_examined, rows_returned) = match &outcome {
            Ok(r) => (r.rows_examined, r.rows.len() as u64),
            Err(_) => (0, 0),
        };
        let duration_us = modeled_us(rows_examined);
        let diag = &mut self.diag;
        diag.metrics.statements.inc();
        if outcome.is_err() {
            diag.metrics.errors.inc();
        }
        diag.metrics.rows_examined.record(rows_examined);
        diag.metrics.rows_returned.record(rows_returned);
        // A traced statement stamps its trace_id as the latency bucket's
        // exemplar — the `/metrics` exposition then links the aggregate
        // back to one concrete distributed trace.
        let latency = &diag.metrics.latency_us[front.kind];
        match diag.current_ctx {
            Some(c) => latency.record_with_exemplar(duration_us, c.trace_id),
            None => latency.record(duration_us),
        }
        // Close the trace. An `EXPLAIN ANALYZE` arm has already closed
        // it for its own rendering; everything else closes here.
        let recorded = diag.trace_close(rows_examined, rows_returned);
        let config = &self.host.config;
        if duration_us > config.slow_query_threshold_us {
            // The slow log is a stream of versioned, checksummed trace
            // records (see `mdb_trace::record`) — the full span tree
            // when the tracer is armed, a minimal text+timing record
            // otherwise. Either way the statement text lands on disk
            // verbatim, carvable long after the ring has rotated.
            let rec = recorded.unwrap_or_else(|| {
                StatementTrace::minimal(conn_id, started, sql, digest, duration_us, rows_examined)
            });
            let record = mdb_trace::record::encode_record(&rec);
            self.data.vdisk.append(SLOW_LOG_FILE, &record);
        }
        let evicted = diag
            .perf
            .statement_end(conn_id, rows_examined, rows_returned);
        diag.heap.free_all(evicted);
        diag.processlist.set_query(conn_id, None);
        diag.heap.free(exec_ptr);
        diag.heap.free_all(literal_ptrs);

        let interval = config.bufpool_dump_interval;
        if interval > 0 && self.node.statements_executed.is_multiple_of(interval) {
            self.data.bufpool.dump(&mut self.data.vdisk);
        }
        diag.current_ctx = None;
        outcome
    }

    fn run_stmt(
        &mut self,
        conn_id: u64,
        sql: &str,
        digest: &str,
        stmt: Statement,
    ) -> DbResult<Answer> {
        let DbInner {
            host,
            data,
            log,
            diag,
            ..
        } = self;
        let ddl = match stmt {
            Statement::CreateTable { name, columns } => data.create_table(host, &name, columns),
            Statement::CreateIndex {
                name,
                table,
                column,
            } => data.create_index(&name, &table, &column),
            Statement::DropTable { name } => write::drop_table(data, log, diag, &name),
            Statement::Select(sel) => {
                return read::select(host, data, log, diag, conn_id, sql, sel)
            }
            Statement::ExplainAnalyze(target) => {
                return self.explain_analyze(conn_id, sql, digest, *target)
            }
            // Every other statement answers with decoded rows, or none:
            // they are encoded once, here.
            Statement::Explain(sel) => return read::explain(host, data, sel).map(Answer::from),
            dml @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => {
                return write::dml(host, data, log, diag, conn_id, sql, dml).map(Answer::from)
            }
            Statement::Begin => return log.begin(conn_id).map(Answer::from),
            Statement::Commit => {
                return txn::end_txn(host, data, log, diag, conn_id, true).map(Answer::from)
            }
            Statement::Rollback => {
                return txn::end_txn(host, data, log, diag, conn_id, false).map(Answer::from)
            }
        };
        ddl?;
        txn::binlog_ddl(host, data, log, diag, sql);
        Ok(Answer::default())
    }

    /// `EXPLAIN ANALYZE`: runs its target under a trace and renders the
    /// trace's spans as the result.
    fn explain_analyze(
        &mut self,
        conn_id: u64,
        sql: &str,
        digest: &str,
        target: Statement,
    ) -> DbResult<Answer> {
        // EXPLAIN ANALYZE always traces its target, even when the flight
        // recorder is disarmed.
        if self.diag.current_trace.is_none() {
            self.diag
                .trace_open(conn_id, self.host.now_unix, sql, digest);
        }
        let res = self.run_stmt(conn_id, sql, digest, target)?;
        // The target's simulated wall time is fully determined by the
        // engine cost model, so the trace can be closed here — the
        // rendered durations are exactly what the outer pipeline will
        // account for this statement. A nested EXPLAIN ANALYZE has
        // closed it already, and its rendering is the answer.
        let Some(trace) = self
            .diag
            .trace_close(res.rows_examined, res.rows.len() as u64)
        else {
            return Ok(res);
        };
        let rendered = render_explain_analyze(&trace, res.rows_examined, res.rows_affected);
        Ok(Answer::from(rendered))
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
fn render_explain_analyze(
    trace: &mdb_trace::StatementTrace,
    rows_examined: u64,
    rows_affected: u64,
) -> QueryResult {
    let cols = read::names("span start_us dur_us detail");
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
        rows_examined,
        rows_affected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A nested `EXPLAIN ANALYZE` answers with the inner rendering, the
    /// one trace its target ran under.
    #[test]
    fn nested_explain_analyze_renders_the_inner_trace() {
        let db = Db::open(DbConfig::default());
        let conn = db.connect("app");
        conn.execute("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        let sql = "EXPLAIN ANALYZE EXPLAIN ANALYZE SELECT * FROM t";
        let nested = conn.execute(sql).unwrap();
        assert_eq!(nested.columns, ["span", "start_us", "dur_us", "detail"]);
        assert!(nested
            .rows
            .iter()
            .any(|r| r[0] == Value::Text("  scan".into())));
        assert_eq!(
            db.query_traces().len(),
            2,
            "CREATE, and one trace for the nest"
        );
    }
}
