//! Writes: DDL, DML, the row-change writer every row change goes
//! through, redo logging and the checkpoint.

use std::sync::Arc;

use super::config::Host;
use super::read::fetch_rows;
use super::txn::{apply_undo, commit_txn, TxnState};
use super::{Data, Diag, Log, QueryResult, CHECKPOINT_FILE, STAGE_COST_US};
use crate::catalog::{IndexDef, Table, TableDef};
use crate::error::{DbError, DbResult};
use crate::mvcc::{OP_DELETE, OP_UPDATE};
use crate::row::{Row, RowId};
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::Statement;
use crate::storage::btree::BTree;
use crate::storage::table::{TableHeap, UpdatePlacement};
use crate::storage::Page;
use crate::value::{ColumnType, Value};
use crate::wal::{OpKind, RedoRecord, UndoRecord};

/// One row change, as the row-change writer logs and applies it.
#[derive(Clone, Copy)]
pub(super) enum RowChange<'a> {
    Insert(&'a Row),
    Update { old: &'a Row, new: &'a Row },
    Delete(&'a Row),
}

impl<'a> RowChange<'a> {
    /// The row's image before the change, if it existed.
    fn before(self) -> Option<&'a Row> {
        match self {
            RowChange::Insert(_) => None,
            RowChange::Update { old, .. } | RowChange::Delete(old) => Some(old),
        }
    }

    /// The row's image after the change, unless the change deletes it.
    fn after(self) -> Option<&'a Row> {
        match self {
            RowChange::Insert(new) | RowChange::Update { new, .. } => Some(new),
            RowChange::Delete(_) => None,
        }
    }
}

impl Data {
    // ================= DDL =================

    pub(super) fn create_table(
        &mut self,
        host: &Host,
        name: &str,
        columns: Vec<(String, ColumnType, bool)>,
    ) -> DbResult<()> {
        if self.catalog.contains(name) {
            return Err(DbError::Schema(format!("table {name} already exists")));
        }
        let defs: Vec<ColumnDef> = columns
            .into_iter()
            .map(|(n, ty, pk)| ColumnDef {
                name: n,
                ty,
                primary_key: pk,
            })
            .collect();
        let schema = TableSchema::new(name, defs)?;
        let lname = &schema.name;
        let file = format!("table_{lname}.ibd");
        let mut heap = TableHeap::create(&self.bufpool, &mut self.vdisk, &file)?;
        heap.set_zone_maps(host.config.zone_maps_enabled);
        let id = self.catalog.alloc_id();

        let mut indexes = Vec::new();
        let mut btrees = Vec::new();
        if let Some(pk_idx) = schema.primary_key_index() {
            let col = &schema.columns[pk_idx].name;
            let ifile = format!("index_{lname}_{col}.ibd");
            btrees.push(BTree::create(&self.bufpool, &mut self.vdisk, &ifile)?);
            indexes.push(IndexDef {
                name: format!("pk_{lname}"),
                file: ifile,
                column_idx: pk_idx,
            });
        }
        let def = TableDef {
            id,
            schema,
            file,
            indexes,
        };
        self.catalog.insert(Table {
            def: Arc::new(def),
            heap,
            btrees,
        });
        self.catalog.persist(&mut self.vdisk);
        Ok(())
    }

    pub(super) fn create_index(&mut self, name: &str, table: &str, column: &str) -> DbResult<()> {
        let t = self.catalog.get_mut(table)?;
        let schema = &t.def.schema;
        let column_idx = schema.column_index(column)?;
        if t.def.indexes.iter().any(|i| i.column_idx == column_idx) {
            return Err(DbError::Schema(format!(
                "column {column} of {} is already indexed",
                schema.name
            )));
        }
        let ifile = format!(
            "index_{}_{}.ibd",
            schema.name, schema.columns[column_idx].name
        );
        let bt = BTree::create(&self.bufpool, &mut self.vdisk, &ifile)?;
        // Backfill from existing rows.
        for row in &t.heap.scan(&self.bufpool, &mut self.vdisk)? {
            bt.insert(
                &self.bufpool,
                &mut self.vdisk,
                &row.values[column_idx],
                row.id,
            )?;
        }
        // No statement holds a handle across DDL, so this edits in place.
        Arc::make_mut(&mut t.def).indexes.push(IndexDef {
            name: name.to_string(),
            file: ifile,
            column_idx,
        });
        t.btrees.push(bt);
        self.catalog.persist(&mut self.vdisk);
        Ok(())
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
        let table = self.catalog.get(&def.schema.name)?;
        let mut trees = def.indexes.iter().zip(&table.btrees);
        let Some((_, bt)) = trees.find(|(ix, _)| ix.column_idx == pk_idx) else {
            return Ok(());
        };
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
}

/// `DROP TABLE`: removes the table's files and catalog entry. Note
/// what this does *not* do: the circular undo/redo logs and the binlog
/// keep their records of the dropped table's rows — the forensic
/// threat of Stahlberg et al. that the paper builds on.
pub(super) fn drop_table(
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    name: &str,
) -> DbResult<()> {
    let def = data.catalog.remove(name)?.def;
    let index_files = def.indexes.iter().map(|ix| &ix.file);
    for file in std::iter::once(&def.file).chain(index_files) {
        data.vdisk.remove(file);
        data.bufpool.purge_file(file);
    }
    data.catalog.persist(&mut data.vdisk);
    // Chain state dies with the table, but its disk records do not —
    // like real engines, DROP does not chase undo history.
    log.mvcc.purge_table(&def.schema.name);
    diag.invalidate(&def.schema.name);
    Ok(())
}

// ================= DML =================

/// Runs an INSERT, UPDATE or DELETE in the connection's transaction,
/// or in its own autocommitted one.
pub(super) fn dml(
    host: &Host,
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    conn_id: u64,
    sql: &str,
    stmt: Statement,
) -> DbResult<QueryResult> {
    let txn_id = match log.txns.get(&conn_id) {
        Some(t) => t.id,
        None => log.wal.alloc_txn(),
    };
    let mut undo_written = Vec::new();
    let version_mark = log.mvcc.pending_mark(txn_id);
    let result = apply_dml(host, data, log, diag, txn_id, stmt, &mut undo_written);
    match result {
        Ok(res) => {
            let statement = (sql.to_string(), diag.outbound_ctx(host));
            match log.txns.get_mut(&conn_id) {
                Some(t) => {
                    t.undo.extend(undo_written);
                    t.statements.push(statement);
                }
                None => {
                    let txn = TxnState {
                        id: txn_id,
                        undo: Vec::new(),
                        statements: vec![statement],
                        snapshot_csn: 0,
                    };
                    commit_txn(host, data, log, diag, txn)?
                }
            }
            Ok(res)
        }
        Err(e) => {
            // Statement-level rollback: undo whatever this statement
            // already did, in reverse — version records included.
            for rec in undo_written.iter().rev() {
                apply_undo(data, log, rec)?;
            }
            log.mvcc.abort_from(&mut data.vdisk, txn_id, version_mark);
            Err(e)
        }
    }
}

fn apply_dml(
    host: &Host,
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    txn_id: u64,
    stmt: Statement,
    undo_written: &mut Vec<UndoRecord>,
) -> DbResult<QueryResult> {
    // An UPDATE carries its assignments; a DELETE has none.
    let (table, sets, where_clause) = match stmt {
        Statement::Insert {
            table,
            columns,
            rows,
        } => {
            let def = diag.table_accessed(host, data, &table)?;
            // Arranged one by one, as each row is written.
            let rows = rows
                .into_iter()
                .map(|literals| arrange_columns(&def.schema, &columns, literals));
            return insert_rows(data, log, diag, txn_id, &def, rows, undo_written);
        }
        Statement::Update {
            table,
            sets,
            where_clause,
        } => (table, Some(sets), where_clause),
        Statement::Delete {
            table,
            where_clause,
        } => (table, None, where_clause),
        // `run_stmt` routes every other statement elsewhere.
        _ => return Err(DbError::Eval("not a DML statement".into())),
    };
    let def = diag.table_accessed(host, data, &table)?;
    // No pushdowns: an update re-encodes the old row and a delete's
    // undo image is all of it, so every column must be materialized,
    // and all targets matter.
    let (targets, examined) =
        fetch_rows(host, data, diag, &def, where_clause.as_ref(), None, None)?;
    diag.trace_begin("write");
    let column = |(col, val): (String, Value)| Ok((def.schema.column_index(&col)?, val));
    let sets: Option<Vec<_>> = sets
        .map(|sets| sets.into_iter().map(column).collect::<DbResult<_>>())
        .transpose()?;
    let affected = targets.len() as u64;
    for old in targets {
        let new = match &sets {
            Some(sets) => {
                let mut new = old.clone();
                for (idx, val) in sets {
                    new.values[*idx] = val.clone();
                }
                def.schema.check_row(&new.values)?;
                data.check_pk_unique(&def, &new.values, Some(old.id))?;
                Some(new)
            }
            None => None,
        };
        let (op, change) = match &new {
            Some(new) => (OP_UPDATE, RowChange::Update { old: &old, new }),
            None => (OP_DELETE, RowChange::Delete(&old)),
        };
        // Archive the displaced image before it is overwritten or
        // removed: MVCC writers append versions, they never destroy.
        let name = &def.schema.name;
        log.mvcc
            .record_supersession(&mut data.vdisk, name, &old, op, txn_id)?;
        write_row(data, log, txn_id, &def, change, undo_written)?;
    }
    diag.trace_attr("rows_affected", affected);
    diag.trace_end(STAGE_COST_US);
    diag.invalidate(&def.schema.name);
    Ok(QueryResult {
        rows_examined: examined,
        rows_affected: affected,
        ..Default::default()
    })
}

fn insert_rows(
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    txn_id: u64,
    def: &TableDef,
    rows: impl Iterator<Item = DbResult<Vec<Value>>>,
    undo_written: &mut Vec<UndoRecord>,
) -> DbResult<QueryResult> {
    // The write is the elastic stage for inserts (no scan).
    diag.trace_begin("write");
    let mut affected = 0;
    for values in rows {
        let values = values?;
        def.schema.check_row(&values)?;
        data.check_pk_unique(def, &values, None)?;
        let table = data.catalog.get_mut(&def.schema.name)?;
        let row = Row {
            id: table.heap.allocate_row_id(),
            values,
        };
        let change = RowChange::Insert(&row);
        write_row(data, log, txn_id, def, change, undo_written)?;
        log.mvcc.record_insert(&def.schema.name, row.id, txn_id);
        affected += 1;
    }
    diag.trace_attr("rows_affected", affected);
    diag.trace_end_elastic();
    diag.invalidate(&def.schema.name);
    Ok(QueryResult {
        rows_affected: affected,
        ..Default::default()
    })
}

/// The row-change writer: every row insert, update and delete goes
/// through here, undo's compensations included. It appends the undo
/// record, changes the heap, stamps each touched page with its LSN
/// and logs the redo record that replays the change there, then
/// maintains the indexes. LSNs are allocated and records appended in
/// exactly this order, which the redo/undo bytes and page LSNs pin.
pub(super) fn write_row(
    data: &mut Data,
    log: &mut Log,
    txn: u64,
    def: &TableDef,
    change: RowChange<'_>,
    undo_written: &mut Vec<UndoRecord>,
) -> DbResult<()> {
    let (op, row_id) = match change {
        RowChange::Insert(row) => (OpKind::Insert, row.id),
        RowChange::Update { old, .. } => (OpKind::Update, old.id),
        RowChange::Delete(old) => (OpKind::Delete, old.id),
    };
    let lsn = log.wal.alloc_lsn();
    let undo = UndoRecord {
        lsn,
        txn,
        op,
        table_id: def.id,
        row_id,
        before: change.before().map_or_else(Vec::new, Row::encode),
    };
    log.wal.append_undo(&mut data.vdisk, &undo);
    undo_written.push(undo);

    let Data {
        catalog,
        bufpool: pool,
        vdisk: disk,
    } = &mut *data;
    let heap = &mut catalog.get_mut(&def.schema.name)?.heap;
    // Where the heap put the change, and where an update that
    // outgrew its slot moved the row: that update is logged as the
    // delete and the insert it was.
    let (op, at, moved_to) = match change {
        RowChange::Insert(row) => (OpKind::Insert, heap.insert(pool, disk, row)?, None),
        RowChange::Delete(old) => (OpKind::Delete, heap.delete(pool, disk, old.id)?, None),
        RowChange::Update { new, .. } => match heap.update(pool, disk, new)? {
            UpdatePlacement::InPlace { page_no, slot } => (OpKind::Update, (page_no, slot), None),
            UpdatePlacement::Moved { from, to } => (OpKind::Delete, from, Some(to)),
        },
    };
    // Stamp each touched page with the LSN of the redo record that
    // replays the change there: the undo record's LSN for the first,
    // a fresh one for a moved row's new place.
    let moved = moved_to.map(|to| (OpKind::Insert, to));
    let pages = [Some((op, at)), moved].into_iter().flatten();
    for (n, (op, (page_no, slot))) in pages.enumerate() {
        let lsn = if n == 0 { lsn } else { log.wal.alloc_lsn() };
        data.bufpool
            .with_page_mut(&mut data.vdisk, &def.file, page_no, |buf| {
                Page::new(buf).set_lsn(lsn)
            })?;
        let after = match (op, change.after()) {
            (OpKind::Delete, _) | (_, None) => Vec::new(),
            (_, Some(row)) => row.encode(),
        };
        let rec = RedoRecord {
            lsn,
            txn,
            op,
            table_id: def.id,
            page_no,
            slot,
            after,
        };
        log_redo(data, log, rec);
    }

    // Index maintenance for changed keys.
    let table = data.catalog.get(&def.schema.name)?;
    for (ix, bt) in def.indexes.iter().zip(&table.btrees) {
        let old_key = change.before().map(|r| &r.values[ix.column_idx]);
        let new_key = change.after().map(|r| &r.values[ix.column_idx]);
        if old_key == new_key {
            continue;
        }
        if let Some(key) = old_key {
            bt.delete(&data.bufpool, &mut data.vdisk, key, row_id)?;
        }
        if let Some(key) = new_key {
            bt.insert(&data.bufpool, &mut data.vdisk, key, row_id)?;
        }
    }
    Ok(())
}

/// Appends a redo record, checkpointing first if the circular log is
/// about to wrap (so no un-checkpointed history is overwritten).
pub(super) fn log_redo(data: &mut Data, log: &mut Log, rec: RedoRecord) {
    let framed = log.wal.frame_redo(&rec);
    if log.wal.redo.would_wrap(&data.vdisk, framed.len()) {
        checkpoint(data, log);
    }
    log.wal.append_redo(&mut data.vdisk, &framed);
}

/// Checkpoint: flush dirty pages and persist the checkpoint LSN plus
/// the active-transaction table (ARIES-style), so recovery can tell
/// "committed long ago, marker wrapped away" apart from "in flight at
/// the crash".
pub(super) fn checkpoint(data: &mut Data, log: &mut Log) {
    data.bufpool.flush_all(&mut data.vdisk);
    let lsn = log.wal.current_lsn();
    let mut buf = Vec::with_capacity(12 + log.txns.len() * 8);
    buf.extend_from_slice(&lsn.to_le_bytes());
    buf.extend_from_slice(&(log.txns.len() as u32).to_le_bytes());
    for t in log.txns.values() {
        buf.extend_from_slice(&t.id.to_le_bytes());
    }
    data.vdisk.write(CHECKPOINT_FILE, buf);
    // A checkpoint is a durability point: one simulated fsync.
    log.wal.record_fsync();
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
