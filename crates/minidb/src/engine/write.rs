//! Writes: DDL, DML, the row-change writer every row change goes
//! through, redo logging and the checkpoint.

use std::sync::Arc;

use super::txn::TxnState;
use super::{DbInner, QueryResult, CHECKPOINT_FILE, STAGE_COST_US};
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

impl DbInner {
    // ================= DDL =================

    pub(super) fn create_table(
        &mut self,
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
        heap.set_zone_maps(self.host.config.zone_maps_enabled);
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

    /// `DROP TABLE`: removes the table's files and catalog entry. Note
    /// what this does *not* do: the circular undo/redo logs and the binlog
    /// keep their records of the dropped table's rows — the forensic
    /// threat of Stahlberg et al. that the paper builds on.
    pub(super) fn drop_table(&mut self, name: &str) -> DbResult<()> {
        let def = self.catalog.remove(name)?.def;
        let index_files = def.indexes.iter().map(|ix| &ix.file);
        for file in std::iter::once(&def.file).chain(index_files) {
            self.vdisk.remove(file);
            self.bufpool.purge_file(file);
        }
        self.catalog.persist(&mut self.vdisk);
        // Chain state dies with the table, but its disk records do not —
        // like real engines, DROP does not chase undo history.
        self.mvcc.purge_table(&def.schema.name);
        self.finish_write(&def.schema.name);
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

    // ================= DML =================

    /// Runs an INSERT, UPDATE or DELETE in the connection's transaction,
    /// or in its own autocommitted one.
    pub(super) fn dml(
        &mut self,
        conn_id: u64,
        sql: &str,
        stmt: Statement,
    ) -> DbResult<QueryResult> {
        let txn_id = match self.txns.get(&conn_id) {
            Some(t) => t.id,
            None => self.wal.alloc_txn(),
        };
        let mut undo_written = Vec::new();
        let version_mark = self.mvcc.pending_mark(txn_id);
        let result = self.apply_dml(txn_id, stmt, &mut undo_written);
        match result {
            Ok(res) => {
                let statement = (sql.to_string(), self.current_ctx);
                match self.txns.get_mut(&conn_id) {
                    Some(t) => {
                        t.undo.extend(undo_written);
                        t.statements.push(statement);
                    }
                    None => self.commit_txn(TxnState {
                        id: txn_id,
                        undo: Vec::new(),
                        statements: vec![statement],
                        snapshot_csn: 0,
                    })?,
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
        stmt: Statement,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<QueryResult> {
        // An UPDATE carries its assignments; a DELETE has none.
        let (table, sets, where_clause) = match stmt {
            Statement::Insert {
                table,
                columns,
                rows,
            } => return self.insert_rows(txn_id, &table, columns, rows, undo_written),
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
        let def = self.table_accessed(&table)?;
        // No pushdowns: an update re-encodes the old row and a delete's
        // undo image is all of it, so every column must be materialized,
        // and all targets matter.
        let (targets, examined) = self.fetch_rows(&def, where_clause.as_ref(), None, None)?;
        self.trace_begin("write");
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
                    self.check_pk_unique(&def, &new.values, Some(old.id))?;
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
            self.mvcc
                .record_supersession(&mut self.vdisk, name, &old, op, txn_id)?;
            self.write_row(txn_id, &def, change, undo_written)?;
        }
        self.trace_attr("rows_affected", affected);
        self.trace_end(STAGE_COST_US);
        self.finish_write(&def.schema.name);
        Ok(QueryResult {
            rows_examined: examined,
            rows_affected: affected,
            ..Default::default()
        })
    }

    fn insert_rows(
        &mut self,
        txn_id: u64,
        table: &str,
        columns: Option<Vec<String>>,
        rows: Vec<Vec<Value>>,
        undo_written: &mut Vec<UndoRecord>,
    ) -> DbResult<QueryResult> {
        let def = self.table_accessed(table)?;
        // The write is the elastic stage for inserts (no scan).
        self.trace_begin("write");
        let mut affected = 0;
        for literals in rows {
            let values = arrange_columns(&def.schema, &columns, literals)?;
            def.schema.check_row(&values)?;
            self.check_pk_unique(&def, &values, None)?;
            let table = self.catalog.get_mut(&def.schema.name)?;
            let row = Row {
                id: table.heap.allocate_row_id(),
                values,
            };
            self.write_row(txn_id, &def, RowChange::Insert(&row), undo_written)?;
            self.mvcc.record_insert(&def.schema.name, row.id, txn_id);
            affected += 1;
        }
        self.trace_attr("rows_affected", affected);
        self.trace_end_elastic();
        self.finish_write(&def.schema.name);
        Ok(QueryResult {
            rows_affected: affected,
            ..Default::default()
        })
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

    /// The row-change writer: every row insert, update and delete goes
    /// through here, undo's compensations included. It appends the undo
    /// record, changes the heap, stamps each touched page with its LSN
    /// and logs the redo record that replays the change there, then
    /// maintains the indexes. LSNs are allocated and records appended in
    /// exactly this order, which the redo/undo bytes and page LSNs pin.
    pub(super) fn write_row(
        &mut self,
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
        let lsn = self.wal.alloc_lsn();
        let undo = UndoRecord {
            lsn,
            txn,
            op,
            table_id: def.id,
            row_id,
            before: change.before().map_or_else(Vec::new, Row::encode),
        };
        self.wal.append_undo(&mut self.vdisk, &undo);
        undo_written.push(undo);

        let heap = &mut self.catalog.get_mut(&def.schema.name)?.heap;
        let (pool, disk) = (&self.bufpool, &mut self.vdisk);
        // Where the heap put the change, and where an update that
        // outgrew its slot moved the row: that update is logged as the
        // delete and the insert it was.
        let (op, at, moved_to) = match change {
            RowChange::Insert(row) => (OpKind::Insert, heap.insert(pool, disk, row)?, None),
            RowChange::Delete(old) => (OpKind::Delete, heap.delete(pool, disk, old.id)?, None),
            RowChange::Update { new, .. } => match heap.update(pool, disk, new)? {
                UpdatePlacement::InPlace { page_no, slot } => {
                    (OpKind::Update, (page_no, slot), None)
                }
                UpdatePlacement::Moved { from, to } => (OpKind::Delete, from, Some(to)),
            },
        };
        // Stamp each touched page with the LSN of the redo record that
        // replays the change there: the undo record's LSN for the first,
        // a fresh one for a moved row's new place.
        let moved = moved_to.map(|to| (OpKind::Insert, to));
        let pages = [Some((op, at)), moved].into_iter().flatten();
        for (n, (op, (page_no, slot))) in pages.enumerate() {
            let lsn = if n == 0 { lsn } else { self.wal.alloc_lsn() };
            self.bufpool
                .with_page_mut(&mut self.vdisk, &def.file, page_no, |buf| {
                    Page::new(buf).set_lsn(lsn)
                })?;
            let after = match (op, change.after()) {
                (OpKind::Delete, _) | (_, None) => Vec::new(),
                (_, Some(row)) => row.encode(),
            };
            self.log_redo(RedoRecord {
                lsn,
                txn,
                op,
                table_id: def.id,
                page_no,
                slot,
                after,
            });
        }

        // Index maintenance for changed keys.
        let table = self.catalog.get(&def.schema.name)?;
        for (ix, bt) in def.indexes.iter().zip(&table.btrees) {
            let old_key = change.before().map(|r| &r.values[ix.column_idx]);
            let new_key = change.after().map(|r| &r.values[ix.column_idx]);
            if old_key == new_key {
                continue;
            }
            if let Some(key) = old_key {
                bt.delete(&self.bufpool, &mut self.vdisk, key, row_id)?;
            }
            if let Some(key) = new_key {
                bt.insert(&self.bufpool, &mut self.vdisk, key, row_id)?;
            }
        }
        Ok(())
    }

    /// Appends a redo record, checkpointing first if the circular log is
    /// about to wrap (so no un-checkpointed history is overwritten).
    pub(super) fn log_redo(&mut self, rec: RedoRecord) {
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
    pub(super) fn checkpoint(&mut self) {
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

    fn finish_write(&mut self, table: &str) {
        for p in self.query_cache.invalidate_table(table) {
            self.heap.free(p);
        }
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
