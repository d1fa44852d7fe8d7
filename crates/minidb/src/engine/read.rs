//! Reads: SELECT (autocommit, snapshot and virtual tables), EXPLAIN, the
//! row fetch every statement's scan goes through, and projection.

use super::plan::{needed_columns, plan_scan, ScanPlan};
use super::{DbInner, QueryResult, STAGE_COST_US};
use crate::cache::CachedResult;
use crate::catalog::TableDef;
use crate::error::{DbError, DbResult};
use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::{Expr, SelectItem, SelectStmt};
use crate::storage::table::ScanSink;
use crate::value::Value;

impl DbInner {
    /// `EXPLAIN SELECT`: reports the access path the planner would take.
    pub(super) fn explain(&mut self, sel: SelectStmt) -> DbResult<QueryResult> {
        let plan = if let Some(schema) = &sel.schema {
            format!("virtual table scan on {schema}.{}", sel.table)
        } else {
            let def = &self.catalog.get(&sel.table)?.def;
            let plan = sel.where_clause.as_ref().map(|w| plan_scan(def, w));
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

    pub(super) fn select(
        &mut self,
        conn_id: u64,
        sql: &str,
        sel: SelectStmt,
    ) -> DbResult<QueryResult> {
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
                    ..Default::default()
                });
            }
        }
        let def = self.table_accessed(&sel.table)?;
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
        rows.retain(|r| overlay.binary_search_by_key(&r.id, |(id, _)| *id).is_err());
        let patched = overlay.len() as u64;
        self.trace_attr("rows_patched", patched);
        let images = overlay.into_iter().filter_map(|(_, committed)| committed);
        rows.extend(self.matching(schema, where_clause, images)?);
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
        let def = self.table_accessed(&sel.table)?;
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
        let rows = self.matching(&def.schema, sel.where_clause.as_ref(), visible)?;
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
                let cols = names("thread_id processlist_user processlist_info");
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
                let cols = names(
                    "replica_id state next_seq primary_seq lag_events retries last_heartbeat",
                );
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
                let row = |name: String, kind: &str, v: i64| {
                    vec![Value::Text(name), Value::Text(kind.into()), Value::Int(v)]
                };
                let mut out = Vec::new();
                for (name, v) in &snap.counters {
                    out.push(row(name.clone(), "counter", *v as i64));
                }
                for (name, v) in &snap.gauges {
                    out.push(row(name.clone(), "gauge", *v));
                }
                for h in &snap.histograms {
                    let p50 = h.quantile_upper_bound(0.5);
                    for (suffix, v) in [("count", h.count), ("sum", h.sum), ("p50", p50)] {
                        out.push(row(format!("{}.{suffix}", h.name), "histogram", v as i64));
                    }
                }
                (names("metric kind value"), out)
            }
            ("information_schema", "query_traces") => {
                // The flight recorder, SQL-readable: the last N statement
                // traces with full text, timing, and touched tables. Like
                // the performance_schema, it is an operator convenience
                // that doubles as a query-history disclosure channel.
                let cols =
                    names("trace_id conn_id started duration_us statement digest tables spans");
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
            _ => return Err(DbError::UnknownTable(format!("{schema}.{}", sel.table))),
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
        let examined = rows.len() as u64;
        let rows = rows.into_iter().map(|values| Row { id: 0, values });
        let kept = self.matching(&schema_like, sel.where_clause.as_ref(), rows)?;
        self.finish_select(&schema_like, &sel, kept, examined)
    }

    /// The rows `where_clause` holds for (all of them without one).
    fn matching(
        &self,
        schema: &TableSchema,
        where_clause: Option<&Expr>,
        rows: impl IntoIterator<Item = Row>,
    ) -> DbResult<Vec<Row>> {
        let rows = rows.into_iter();
        let Some(w) = where_clause else {
            return Ok(rows.collect());
        };
        let pred = Predicate::compile(w, schema, &self.host.functions);
        let mut kept = Vec::with_capacity(rows.size_hint().0);
        for row in rows {
            if pred.holds(&row)? {
                kept.push(row);
            }
        }
        Ok(kept)
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
    pub(super) fn fetch_rows(
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
        let table = self.catalog.get_mut(&def.schema.name)?;
        let mut sink = ScanSink::new(pred.as_ref(), needed, limit.map(|l| l as usize));
        // `(pages_pruned, pages_decoded)` of a heap scan.
        let scan_pages = match plan.index {
            Some(ip) => {
                let bt = &table.btrees[ip.index_pos];
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
                table
                    .heap
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
                Some(table.heap.scan_into(
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
                ..Default::default()
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
            ..Default::default()
        })
    }
}

fn aggregate(func: &str, col_idx: usize, rows: &[Row]) -> DbResult<Value> {
    let values = rows.iter().map(|r| &r.values[col_idx]);
    match func {
        // `ashe_sum` is Seabed's ciphertext aggregation: wrapping u64
        // addition over the column's bit pattern, which is bit for bit
        // the wrapping i64 sum.
        "sum" | "ashe_sum" => Ok(Value::Int(values.fold(0i64, |acc, v| match v {
            Value::Int(v) => acc.wrapping_add(*v),
            _ => acc,
        }))),
        "min" | "max" => {
            let present = values.filter(|v| **v != Value::Null);
            let found = if func == "min" {
                present.min()
            } else {
                present.max()
            };
            Ok(found.cloned().unwrap_or(Value::Null))
        }
        other => Err(DbError::UnknownFunction(other.to_string())),
    }
}

/// Column names, from one space-separated list.
pub(super) fn names(cols: &str) -> Vec<String> {
    cols.split(' ').map(String::from).collect()
}
