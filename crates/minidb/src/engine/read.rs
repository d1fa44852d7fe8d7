//! Reads: SELECT (autocommit, snapshot and virtual tables), EXPLAIN, the
//! row fetch every statement's scan goes through, and projection.

use std::sync::Arc;

use super::config::Host;
use super::plan::{needed_columns, plan_scan, ScanPlan};
use super::{Answer, Data, Diag, Log, QueryResult, STAGE_COST_US};
use crate::catalog::TableDef;
use crate::error::{DbError, DbResult};
use crate::predicate::Predicate;
use crate::row::Row;
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::{Expr, SelectItem, SelectStmt};
use crate::storage::table::ScanSink;
use crate::value::{RowBlock, Value};

/// `EXPLAIN SELECT`: reports the access path the planner would take.
pub(super) fn explain(host: &Host, data: &Data, sel: SelectStmt) -> DbResult<QueryResult> {
    let plan = if let Some(schema) = &sel.schema {
        format!("virtual table scan on {schema}.{}", sel.table)
    } else {
        let def = &data.catalog.get(&sel.table)?.def;
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
            }) if host.config.zone_maps_enabled => format!(
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
    host: &Host,
    data: &mut Data,
    log: &Log,
    diag: &mut Diag,
    conn_id: u64,
    sql: &str,
    sel: SelectStmt,
) -> DbResult<Answer> {
    if let Some(schema) = &sel.schema {
        return select_virtual(host, diag, schema.clone(), sel);
    }
    // Inside an explicit transaction, reads are snapshot-isolated:
    // resolve every row against the version chains at the CSN pinned
    // at BEGIN. Snapshot reads bypass the query cache entirely — a
    // cached result reflects the latest committed state, not this
    // transaction's snapshot.
    if let Some(t) = log.txns.get(&conn_id) {
        return select_snapshot(host, data, log, diag, t.id, t.snapshot_csn, sel);
    }
    // Autocommit reads are read-committed: the latest heap minus the
    // rows of *this table* an open transaction has written. With no
    // such row (the usual case, and always for a transaction on
    // another table) the heap is the committed state.
    let overlay = log.mvcc.uncommitted(&sel.table);
    let heap_is_committed = overlay.is_empty();
    // Query cache: exact-text hits skip execution entirely, and share
    // the cached block. Entries only ever hold committed state (writes
    // invalidate, and a read beside an overlay neither looks up nor
    // inserts).
    if heap_is_committed {
        if let Some(hit) = diag.query_cache.get(sql) {
            let answer = Answer {
                columns: hit.columns.clone(),
                rows: Arc::clone(&hit.rows),
                ..Default::default()
            };
            diag.metrics.query_cache_hits.inc();
            diag.trace_begin("query_cache");
            diag.trace_attr("hit", 1);
            diag.trace_end_elastic();
            return Ok(answer);
        }
    }
    let def = diag.table_accessed(host, data, &sel.table)?;
    // Pushdowns: LIMIT may short-circuit the scan only when result
    // order is scan order (no ORDER BY — the truncate in the tail
    // already runs before projection, so aggregates see the same rows
    // either way) and the scan's rows are the result's (no overlay:
    // a dropped dirty row must not have used up the limit). The
    // projection mask covers every column the query can read: select
    // list, WHERE, ORDER BY.
    let in_scan_order = sel.order_by.is_none() && heap_is_committed;
    let limit = if in_scan_order { sel.limit } else { None };
    let needed = needed_columns(&def.schema, &sel);
    let where_clause = sel.where_clause.as_ref();
    // When the scan's survivors are the answer, in their order, and the
    // select list only names columns, the scan copies those columns
    // from the page cells into the answer's block and decodes no row.
    // A select list that does not resolve takes the decoding path, and
    // fails there as it always has: after the scan.
    let copied = match in_scan_order {
        true => plain_columns(&def.schema, &sel.items).ok(),
        false => None,
    };
    let answer = match copied {
        Some((columns, proj)) => {
            let (_, block, rows_examined) = scan(
                host,
                data,
                diag,
                &def,
                where_clause,
                limit,
                None,
                Some(&proj),
            )?;
            Answer {
                columns,
                rows: Arc::new(block.unwrap_or_default()),
                rows_examined,
                rows_affected: 0,
            }
        }
        None => {
            let (mut rows, mut examined) = fetch_rows(
                host,
                data,
                diag,
                &def,
                where_clause,
                limit,
                needed.as_deref(),
            )?;
            if !heap_is_committed {
                examined +=
                    patch_uncommitted(host, diag, &def.schema, where_clause, overlay, &mut rows)?;
            }
            finish_select(&def.schema, &sel, rows, examined)?
        }
    };
    if heap_is_committed {
        // Cache the result (user tables only).
        let text_ptr = diag.heap.alloc_str(sql);
        let freed = diag.query_cache.insert(
            sql,
            vec![def.schema.name.clone()],
            &answer.columns,
            Arc::clone(&answer.rows),
            text_ptr,
        );
        diag.heap.free_all(freed);
    }
    Ok(answer)
}

/// Turns a scan of the latest heap into the read-committed answer:
/// drops every row an open transaction owns (its uncommitted image,
/// which the scan matched against WHERE), adds each one's last
/// committed image if *that* passes WHERE, and orders by row id.
/// Returns the rows it resolved, which count as examined.
fn patch_uncommitted(
    host: &Host,
    diag: &mut Diag,
    schema: &TableSchema,
    where_clause: Option<&Expr>,
    overlay: Vec<(u64, Option<Row>)>,
    rows: &mut Vec<Row>,
) -> DbResult<u64> {
    diag.trace_begin("mvcc_visibility");
    // The scan may have skipped compiling WHERE (index bounds
    // guaranteed it); a committed image did not come through it.
    rows.retain(|r| overlay.binary_search_by_key(&r.id, |(id, _)| *id).is_err());
    let patched = overlay.len() as u64;
    diag.trace_attr("rows_patched", patched);
    let images = overlay.into_iter().filter_map(|(_, committed)| committed);
    rows.extend(matching(host, schema, where_clause, images)?);
    rows.sort_by_key(|r| r.id);
    // A fixed stage: the scan stays the elastic one, the per-row
    // work was its.
    diag.trace_end(STAGE_COST_US);
    Ok(patched)
}

/// The tail every SELECT that decodes rows shares: ORDER BY, then
/// LIMIT, then the projection (aggregates included) into the answer's
/// block.
fn finish_select(
    schema: &TableSchema,
    sel: &SelectStmt,
    mut rows: Vec<Row>,
    rows_examined: u64,
) -> DbResult<Answer> {
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
    let (columns, block) = project(schema, &sel.items, &rows)?;
    Ok(Answer {
        columns,
        rows: Arc::new(block),
        rows_examined,
        rows_affected: 0,
    })
}

/// Snapshot-isolated SELECT: full scan, then per-row visibility
/// resolution against the version chains. Index and zone-map
/// pushdowns are deliberately skipped — they describe the *latest*
/// heap state, not the snapshot's — and so is the query cache.
fn select_snapshot(
    host: &Host,
    data: &mut Data,
    log: &Log,
    diag: &mut Diag,
    txn_id: u64,
    snapshot: u64,
    sel: SelectStmt,
) -> DbResult<Answer> {
    let def = diag.table_accessed(host, data, &sel.table)?;
    let (current, examined) = fetch_rows(host, data, diag, &def, None, None, None)?;
    diag.trace_begin("mvcc_visibility");
    let mut live_ids = std::collections::HashSet::with_capacity(current.len());
    let mut visible = Vec::with_capacity(current.len());
    for r in current {
        live_ids.insert(r.id);
        if let Some(v) = log.mvcc.visible_row(&def.schema.name, r, snapshot, txn_id) {
            visible.push(v);
        }
    }
    visible.extend(
        log.mvcc
            .resurrect_deleted(&def.schema.name, &live_ids, snapshot, txn_id),
    );
    visible.sort_by_key(|r| r.id);
    diag.trace_attr("rows_visible", visible.len() as u64);
    diag.trace_end_elastic();
    let rows = matching(host, &def.schema, sel.where_clause.as_ref(), visible)?;
    finish_select(&def.schema, &sel, rows, examined)
}

fn select_virtual(host: &Host, diag: &Diag, schema: String, sel: SelectStmt) -> DbResult<Answer> {
    let (cols, rows) = match (schema.as_str(), sel.table.as_str()) {
        ("performance_schema", "events_statements_current") => diag.perf.render_current(),
        ("performance_schema", "events_statements_history") => diag.perf.render_history(),
        ("performance_schema", "events_statements_summary_by_digest") => {
            diag.perf.render_digest_summary()
        }
        ("performance_schema", "threads") => {
            // threads: thread id, user, and what it is running now.
            let (_, plist) = diag.processlist.render(host.now_unix);
            let cols = names("thread_id processlist_user processlist_info");
            let rows = plist
                .into_iter()
                .map(|r| vec![r[0].clone(), r[1].clone(), r[3].clone()])
                .collect();
            (cols, rows)
        }
        ("information_schema", "processlist") => diag.processlist.render(host.now_unix),
        ("information_schema", "replicas") => {
            // Replication topology and lag, as reported by the
            // coordinator. Yet another diagnostic surface: one
            // injected SELECT on the primary maps every host that
            // holds a relay-log copy of the query history.
            let cols =
                names("replica_id state next_seq primary_seq lag_events retries last_heartbeat");
            let rows = match &host.replica_status {
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
            let snap = host.telemetry.snapshot();
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
            let cols = names("trace_id conn_id started duration_us statement digest tables spans");
            let rows = diag
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
    let kept = matching(host, &schema_like, sel.where_clause.as_ref(), rows)?;
    finish_select(&schema_like, &sel, kept, examined)
}

/// The rows `where_clause` holds for (all of them without one).
fn matching(
    host: &Host,
    schema: &TableSchema,
    where_clause: Option<&Expr>,
    rows: impl IntoIterator<Item = Row>,
) -> DbResult<Vec<Row>> {
    let rows = rows.into_iter();
    let Some(w) = where_clause else {
        return Ok(rows.collect());
    };
    let pred = Predicate::compile(w, schema, &host.functions);
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
    host: &Host,
    data: &mut Data,
    diag: &mut Diag,
    def: &TableDef,
    where_clause: Option<&Expr>,
    limit: Option<u64>,
    needed: Option<&[bool]>,
) -> DbResult<(Vec<Row>, u64)> {
    let (rows, _, examined) = scan(host, data, diag, def, where_clause, limit, needed, None)?;
    Ok((rows, examined))
}

/// [`fetch_rows`], or with a `proj` the copying fetch of a plain select
/// list: plan, then feed the index fetch or the heap scan to a sink that
/// decodes survivors, or copies the columns `proj` lists of each into a
/// block (checking each as a decode would). Returns the
/// decoded rows, the block and the rows-examined count.
#[allow(clippy::too_many_arguments)]
fn scan(
    host: &Host,
    data: &mut Data,
    diag: &mut Diag,
    def: &TableDef,
    where_clause: Option<&Expr>,
    limit: Option<u64>,
    needed: Option<&[bool]>,
    proj: Option<&[usize]>,
) -> DbResult<(Vec<Row>, Option<RowBlock>, u64)> {
    diag.trace_begin("plan");
    let plan = where_clause.map(|w| plan_scan(def, w)).unwrap_or_default();
    // When the index bounds *are* the predicate, re-running the
    // filter per row is pure overhead — there is none to compile.
    let pred = where_clause
        .filter(|_| !plan.guaranteed)
        .map(|w| Predicate::compile(w, &def.schema, &host.functions));
    diag.trace_attr("index_used", plan.index.is_some() as u64);
    diag.trace_end(STAGE_COST_US);

    // The scan is the elastic stage: it absorbs the per-row cost.
    diag.trace_begin("scan");
    let hits0 = diag.metrics.bufpool_hits.get();
    let misses0 = diag.metrics.bufpool_misses.get();
    let table = data.catalog.get_mut(&def.schema.name)?;
    let limit = limit.map(|l| l as usize);
    let mut sink = match proj {
        Some(proj) => ScanSink::copying(pred.as_ref(), proj, limit),
        None => ScanSink::new(pred.as_ref(), needed, limit),
    };
    // `(pages_pruned, pages_decoded)` of a heap scan.
    let scan_pages = match plan.index {
        Some(ip) => {
            let bt = &table.btrees[ip.index_pos];
            let lit = ip.bounds.sample_key();
            let (lo, hi) = (ip.bounds.lo, ip.bounds.hi);
            let found = bt.search_range(&data.bufpool, &mut data.vdisk, lo, hi)?;
            // Adaptive hash: record the searched key against the leaf
            // page the lookup landed on.
            if let (Some(leaf), Some(key)) = (found.pages.last(), lit) {
                let mut key_bytes = Vec::new();
                key.encode(&mut key_bytes);
                diag.adaptive_hash
                    .record_search((bt.file.clone(), *leaf), &key_bytes);
            }
            table
                .heap
                .fetch_into(&data.bufpool, &mut data.vdisk, &found.row_ids, &mut sink)?;
            None
        }
        None => {
            // Streaming heap scan: one page at a time, consulting the
            // zone map first so non-matching pages are never decoded.
            let prune = plan
                .prune
                .filter(|_| host.config.zone_maps_enabled)
                .map(|(col, lo, hi)| (col as u16, lo, hi));
            let heap = &mut table.heap;
            Some(heap.scan_into(&data.bufpool, &mut data.vdisk, prune.as_ref(), &mut sink)?)
        }
    };
    let examined = sink.examined;
    if let Some((pages_pruned, pages_decoded)) = scan_pages {
        diag.metrics.scan_pages_pruned.add(pages_pruned);
        diag.metrics.scan_pages_decoded.add(pages_decoded);
        diag.trace_attr("pages_pruned", pages_pruned);
        diag.trace_attr("pages_decoded", pages_decoded);
    }

    // Buffer-pool I/O nested under the scan: the hit/miss deltas of
    // exactly this stage's page accesses.
    let pages_hit = diag.metrics.bufpool_hits.get().saturating_sub(hits0);
    let pages_missed = diag.metrics.bufpool_misses.get().saturating_sub(misses0);
    diag.trace_begin("bufpool");
    diag.trace_attr("pages_hit", pages_hit);
    diag.trace_attr("pages_missed", pages_missed);
    // Advisory nested cost: one simulated µs per page fault.
    diag.trace_end(pages_missed);

    diag.trace_attr("rows_examined", examined);
    diag.trace_end_elastic();
    Ok((std::mem::take(&mut sink.rows), sink.into_block(), examined))
}

/// The select list's names, and `rows` projected onto it (or folded
/// into the one aggregate row), encoded straight into a block.
fn project(
    schema: &TableSchema,
    items: &[SelectItem],
    rows: &[Row],
) -> DbResult<(Vec<String>, RowBlock)> {
    let mut block = RowBlock::new();
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
                    out.push(aggregate(func, idx, rows)?);
                }
                _ => {
                    return Err(DbError::Eval(
                        "cannot mix aggregates and plain columns".into(),
                    ))
                }
            }
        }
        block.push_row(out.len());
        out.iter().for_each(|v| block.push(v));
        return Ok((columns, block));
    }
    let (columns, proj) = plain_columns(schema, items)?;
    for row in rows {
        block.push_row(proj.len());
        for &i in &proj {
            block.push(column(row, i)?);
        }
    }
    Ok((columns, block))
}

/// Column `i` of a decoded row; a row narrower than its schema is a
/// [`DbError::Storage`].
fn column(row: &Row, i: usize) -> DbResult<&Value> {
    row.values
        .get(i)
        .ok_or_else(|| DbError::Storage(format!("row {} has no column {i}", row.id)))
}

/// The names and schema ordinals of a select list of `*` and column
/// names, in order.
fn plain_columns(
    schema: &TableSchema,
    items: &[SelectItem],
) -> DbResult<(Vec<String>, Vec<usize>)> {
    let mut columns = Vec::new();
    let mut proj = Vec::new();
    for item in items {
        match item {
            SelectItem::Star => {
                for (i, c) in schema.columns.iter().enumerate() {
                    columns.push(c.name.clone());
                    proj.push(i);
                }
            }
            SelectItem::Column(c) => {
                proj.push(schema.column_index(c)?);
                columns.push(c.clone());
            }
            SelectItem::CountStar | SelectItem::Aggregate(_, _) => {
                return Err(DbError::Eval(
                    "cannot mix aggregates and plain columns".into(),
                ))
            }
        }
    }
    Ok((columns, proj))
}

fn aggregate(func: &str, col_idx: usize, rows: &[Row]) -> DbResult<Value> {
    let values = rows.iter().map(|r| column(r, col_idx));
    let values = values.collect::<DbResult<Vec<_>>>()?.into_iter();
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
