//! Diagnostics: the engine's telemetry handles, the per-statement trace
//! lifecycle, the diagnostics wipes, and the in-memory surfaces a memory
//! image reads.

use std::collections::HashMap;
use std::sync::Arc;

use mdb_telemetry::{Counter, Histogram, Registry};
use mdb_trace::{Recorder, StatementTrace, TraceBuilder};

#[cfg(doc)]
use super::DbConfig;
use super::{modeled_us, Db, DbInner};
use crate::catalog::TableDef;
use crate::error::DbResult;
use crate::snapshot::ZoneMapPage;
use crate::sql::STMT_KINDS;

/// Pre-resolved engine-level telemetry handles. The per-table counters
/// are lazily registered as tables are touched — which is precisely how
/// the registry ends up encoding the query distribution.
pub(super) struct EngineMetrics {
    pub(super) statements: Counter,
    pub(super) errors: Counter,
    pub(super) query_cache_hits: Counter,
    pub(super) rows_examined: Histogram,
    pub(super) rows_returned: Histogram,
    /// Heap pages skipped by zone-map pruning / decoded by scans.
    pub(super) scan_pages_pruned: Counter,
    pub(super) scan_pages_decoded: Counter,
    pub(super) latency_us: Vec<Histogram>, // Parallel to STMT_KINDS.
    pub(super) table_access: HashMap<String, Counter>,
    pub(super) repl_applied: Counter,
    pub(super) repl_apply_errors: Counter,
    pub(super) repl_promotions: Counter,
    pub(super) repl_fenced_events: Counter,
    // Shared cells with the bufpool/WAL metrics structs: the tracer
    // reads before/after deltas off them for per-span attributes.
    pub(super) bufpool_hits: Counter,
    pub(super) bufpool_misses: Counter,
    pub(super) wal_redo_bytes: Counter,
    pub(super) wal_binlog_bytes: Counter,
}

impl EngineMetrics {
    pub(super) fn new(registry: &Registry) -> Self {
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

impl Db {
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
        inner.clear_statement_history();
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
        let scrub = g.host.config.scrub_before_images;
        g.vacuum(scrub)
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
        inner.clear_statement_history();
        inner.host.scrub();
        inner.trace.clear();
        inner.query_cache.clear();
        inner.adaptive_hash.clear();
        inner.vacuum(true);
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
}

impl DbInner {
    /// Clears the perf-schema statement history and digests, freeing
    /// the statement-text copies they held in the process heap.
    fn clear_statement_history(&mut self) {
        for p in self.perf.clear() {
            self.heap.free(p);
        }
    }

    // ================= tracing =================
    //
    // A statement's trace is opened once and closed once. Every stage
    // helper is a no-op unless a `TraceBuilder` is live, so the stage
    // hooks cost one `Option` check when tracing is off for this
    // statement (the global gate is the relaxed load in `execute`).

    /// Opens the statement's trace under its distributed context.
    pub(super) fn trace_open(&mut self, conn_id: u64, started: i64, sql: &str, digest: &str) {
        let mut b = TraceBuilder::new(conn_id, started, sql, digest);
        if let Some(c) = self.current_ctx {
            b.set_ctx(c);
        }
        self.current_trace = Some(b);
    }

    /// Closes the statement's trace, if one is open: attaches the row
    /// counts, finishes it at the modeled duration, and deposits it in
    /// the flight recorder when that is armed.
    pub(super) fn trace_close(
        &mut self,
        rows_examined: u64,
        rows_returned: u64,
    ) -> Option<StatementTrace> {
        let mut b = self.current_trace.take()?;
        b.attr("rows_examined", rows_examined);
        b.attr("rows_returned", rows_returned);
        let trace = b.finish(modeled_us(rows_examined));
        Some(match self.trace.is_enabled() {
            true => self.trace.record(trace),
            false => trace,
        })
    }

    pub(super) fn trace_begin(&mut self, name: &str) {
        if let Some(t) = self.current_trace.as_mut() {
            t.begin(name);
        }
    }

    pub(super) fn trace_end(&mut self, cost_us: u64) {
        if let Some(t) = self.current_trace.as_mut() {
            t.end(cost_us);
        }
    }

    pub(super) fn trace_end_elastic(&mut self) {
        if let Some(t) = self.current_trace.as_mut() {
            t.end_elastic();
        }
    }

    pub(super) fn trace_attr(&mut self, key: &str, value: u64) {
        if let Some(t) = self.current_trace.as_mut() {
            t.attr(key, value);
        }
    }

    /// A handle to the definition of a table a statement reads or
    /// writes, its access counted in the trace and in the lazily
    /// registered per-table counter. These counters are the telemetry
    /// experiments' star witness: they encode the query distribution per
    /// table name, survive [`Db::flush_diagnostics`], and ride along in
    /// every memory image.
    pub(super) fn table_accessed(&mut self, table: &str) -> DbResult<Arc<TableDef>> {
        let def = Arc::clone(&self.catalog.get(table)?.def);
        let table = &def.schema.name;
        if let Some(t) = self.current_trace.as_mut() {
            t.table(table);
        }
        let telemetry = &self.host.telemetry;
        self.metrics
            .table_access
            .entry(table.to_string())
            .or_insert_with(|| telemetry.counter(&format!("sql.table_access.{table}")))
            .inc();
        Ok(def)
    }

    /// Every zone-map synopsis the heaps currently hold in memory,
    /// sorted by file and page for stable snapshot serialization. This
    /// is the in-memory half of the zone-map leakage surface; the
    /// persisted half lives in the page headers of the `.ibd` files
    /// themselves.
    pub(crate) fn zone_map_pages(&self) -> Vec<ZoneMapPage> {
        let mut out: Vec<ZoneMapPage> = self
            .catalog
            .tables()
            .flat_map(|t| {
                t.heap.zone_map().map(|(page_no, syn)| ZoneMapPage {
                    file: t.heap.file.clone(),
                    page_no,
                    rows: syn.rows as u64,
                    columns: syn.cols.iter().map(|c| (c.col, c.min, c.max)).collect(),
                })
            })
            .collect();
        out.sort_by(|a, b| (&a.file, a.page_no).cmp(&(&b.file, b.page_no)));
        out
    }
}
