//! The MiniDB engine: connections, statement execution, transactions,
//! crash/recovery, and all the instrumentation the paper's attacks feed on.
//!
//! Every [`Db`] handle shares one process state behind one lock. Its
//! code is split by what each part owns:
//! * this file — the handles, opening a process, and the statement
//!   pipeline every statement runs through;
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
use crate::value::Value;
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

pub(crate) struct DbInner {
    pub(crate) host: Host,
    pub(crate) vdisk: VDisk,
    /// Every table: its definition, heap and indexes.
    pub(crate) catalog: Catalog,
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
            Some(inner) => inner.lock().health_report(),
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

    /// Runs a statement under the engine lock, then waits for the
    /// durability of what it committed *after* releasing the lock, so
    /// concurrent committers coalesce into the group-commit pipeline
    /// instead of serializing their fsyncs behind the lock.
    fn run_then_wait(
        &self,
        run: impl FnOnce(&mut DbInner) -> DbResult<QueryResult>,
    ) -> DbResult<QueryResult> {
        let (res, staged) = {
            let mut g = self.inner.lock();
            let res = run(&mut g);
            (res, g.take_staged_commit())
        };
        if let Some((pipeline, lsn)) = staged {
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
    /// shares the client's `trace_id` with a fresh `span_id`.
    pub fn execute_traced(&self, sql: &str, ctx: Option<TraceContext>) -> DbResult<QueryResult> {
        let front = crate::sql::front(sql);
        self.db
            .run_then_wait(|g| g.execute_ctx(self.id, sql, front, ctx))
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
            bufpool,
            wal,
            heap,
            query_cache: QueryCache::new(config.query_cache_enabled, QUERY_CACHE_ENTRIES),
            adaptive_hash: AdaptiveHash::new(ADAPTIVE_HASH_THRESHOLD),
            perf: PerfSchema::new(DEFAULT_HISTORY_SIZE),
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
            self.trace_open(conn_id, started, sql, digest);
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
        let duration_us = modeled_us(rows_examined);
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
        // Close the trace. An `EXPLAIN ANALYZE` arm has already closed
        // it for its own rendering; everything else closes here.
        let recorded = self.trace_close(rows_examined, rows_returned);
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

    fn run_stmt(
        &mut self,
        conn_id: u64,
        sql: &str,
        digest: &str,
        stmt: Statement,
    ) -> DbResult<QueryResult> {
        let ddl = match stmt {
            Statement::CreateTable { name, columns } => self.create_table(&name, columns),
            Statement::CreateIndex {
                name,
                table,
                column,
            } => self.create_index(&name, &table, &column),
            Statement::DropTable { name } => self.drop_table(&name),
            Statement::Select(sel) => return self.select(conn_id, sql, sel),
            Statement::Explain(sel) => return self.explain(sel),
            Statement::ExplainAnalyze(target) => {
                return self.explain_analyze(conn_id, sql, digest, *target)
            }
            dml @ (Statement::Insert { .. }
            | Statement::Update { .. }
            | Statement::Delete { .. }) => return self.dml(conn_id, sql, dml),
            Statement::Begin => return self.begin(conn_id),
            Statement::Commit => return self.end_txn(conn_id, true),
            Statement::Rollback => return self.end_txn(conn_id, false),
        };
        ddl?;
        self.binlog_ddl(sql);
        Ok(QueryResult::default())
    }

    /// `EXPLAIN ANALYZE`: runs its target under a trace and renders the
    /// trace's spans as the result.
    fn explain_analyze(
        &mut self,
        conn_id: u64,
        sql: &str,
        digest: &str,
        target: Statement,
    ) -> DbResult<QueryResult> {
        // EXPLAIN ANALYZE always traces its target, even when the flight
        // recorder is disarmed.
        if self.current_trace.is_none() {
            self.trace_open(conn_id, self.host.now_unix, sql, digest);
        }
        let res = self.run_stmt(conn_id, sql, digest, target)?;
        // The target's simulated wall time is fully determined by the
        // engine cost model, so the trace can be closed here — the
        // rendered durations are exactly what the outer pipeline will
        // account for this statement. A nested EXPLAIN ANALYZE has
        // closed it already, and its rendering is the answer.
        let Some(trace) = self.trace_close(res.rows_examined, res.rows.len() as u64) else {
            return Ok(res);
        };
        Ok(render_explain_analyze(&trace, &res))
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
        rows_examined: res.rows_examined,
        rows_affected: res.rows_affected,
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
