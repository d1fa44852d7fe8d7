//! Transactions: BEGIN, commit and rollback, undo compensation, the
//! binlog writes and the durability point, and the snapshot horizon.

use std::sync::Arc;

use mdb_trace::TraceContext;

use super::config::Host;
use super::write::{log_redo, write_row, RowChange};
use super::{Data, Diag, Log, QueryResult, STAGE_COST_US};
use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::vdisk::VDisk;
use crate::wal::{BinlogEvent, OpKind, RedoRecord, UndoRecord};

/// Statement texts, each with the trace context its binlog event carries.
type Statements = Vec<(String, Option<TraceContext>)>;

pub(super) struct TxnState {
    pub(super) id: u64,
    /// Undo records of this transaction, in execution order.
    pub(super) undo: Vec<UndoRecord>,
    /// Statement texts to binlog at commit, each with the distributed
    /// trace context its binlog event carries ([`Diag::outbound_ctx`]).
    pub(super) statements: Statements,
    /// Snapshot CSN pinned at BEGIN: this transaction's reads see
    /// exactly the versions committed at or before it.
    pub(super) snapshot_csn: u64,
}

impl Log {
    pub(super) fn begin(&mut self, conn_id: u64) -> DbResult<QueryResult> {
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

    /// The commit durability point. Without group commit this is the
    /// seed behaviour — one fsync per statement, paid *inside* the
    /// engine lock (which is exactly why concurrent committers
    /// serialize on it). With group commit the LSN is merely staged
    /// here; the caller performs the wait after releasing the lock, and
    /// one pipeline leader fsyncs for the whole batch.
    fn durability_point(&mut self, host: &Host) {
        match &host.group_commit {
            Some(p) => {
                let lsn = self.wal.current_lsn();
                p.stage(lsn);
                self.staged_commit = Some(lsn);
            }
            None => self.wal.record_fsync(),
        }
    }

    /// Reclaims MVCC versions no active snapshot can still see, erasing
    /// reclaimed before-images when `scrub`. The horizon is the oldest
    /// active snapshot CSN (with no open transaction, every committed
    /// supersession is reclaimable). Returns `(reclaimed, remaining)`
    /// version counts.
    pub(super) fn vacuum(&mut self, vdisk: &mut VDisk, scrub: bool) -> (usize, usize) {
        let horizon = self
            .txns
            .values()
            .map(|t| t.snapshot_csn)
            .min()
            .unwrap_or(u64::MAX);
        self.mvcc.vacuum(vdisk, horizon, scrub)
    }
}

/// `COMMIT` (`commit`) or `ROLLBACK` of the connection's transaction.
pub(super) fn end_txn(
    host: &Host,
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    conn_id: u64,
    commit: bool,
) -> DbResult<QueryResult> {
    let Some(txn) = log.txns.remove(&conn_id) else {
        let verb = if commit { "COMMIT" } else { "ROLLBACK" };
        return Err(DbError::Txn(format!("{verb} without BEGIN")));
    };
    match commit {
        true => commit_txn(host, data, log, diag, txn)?,
        false => rollback_txn(data, log, txn)?,
    }
    Ok(QueryResult::default())
}

pub(super) fn commit_txn(
    host: &Host,
    data: &mut Data,
    log: &mut Log,
    diag: &mut Diag,
    txn: TxnState,
) -> DbResult<()> {
    // Stamp the commit CSN into every version record this txn wrote:
    // before-images get their xmax, fresh rows their xmin.
    let csn = log.next_csn;
    log.next_csn += 1;
    log.mvcc.commit(&mut data.vdisk, txn.id, csn);
    let logged0 = diag.metrics.wal_redo_bytes.get() + diag.metrics.wal_binlog_bytes.get();
    diag.trace_begin("wal_append");
    let lsn = log_txn_end(data, log, txn.id);
    let binlog_events = txn.statements.len() as u64;
    append_binlog(host, data, log, lsn, txn.id, txn.statements);
    let logged1 = diag.metrics.wal_redo_bytes.get() + diag.metrics.wal_binlog_bytes.get();
    diag.trace_attr("bytes_logged", logged1.saturating_sub(logged0));
    diag.trace_attr("binlog_events", binlog_events);
    diag.trace_end(STAGE_COST_US);
    // The durability point: the redo write and the binlog sync.
    diag.trace_begin("commit");
    log.durability_point(host);
    if host.group_commit.is_some() {
        diag.trace_attr("group_commit", 1);
    } else {
        diag.trace_attr("fsyncs", 1);
    }
    diag.trace_end(STAGE_COST_US);
    Ok(())
}

/// Logs the redo marker that ends a transaction, committed or rolled
/// back (so recovery does not re-undo it), and returns its LSN.
fn log_txn_end(data: &mut Data, log: &mut Log, txn: u64) -> u64 {
    let lsn = log.wal.alloc_lsn();
    let rec = RedoRecord {
        lsn,
        txn,
        op: OpKind::Commit,
        table_id: 0,
        page_no: 0,
        slot: 0,
        after: Vec::new(),
    };
    log_redo(data, log, rec);
    lsn
}

/// DDL autocommits as its own binlog transaction (MySQL's
/// implicit-commit rule); statement-shipping replication relies on
/// this to reproduce schema changes on replicas.
pub(super) fn binlog_ddl(host: &Host, data: &mut Data, log: &mut Log, diag: &Diag, sql: &str) {
    let lsn = log.wal.alloc_lsn();
    let txn = log.wal.alloc_txn();
    let statement = (sql.to_string(), diag.outbound_ctx(host));
    append_binlog(host, data, log, lsn, txn, vec![statement]);
    log.durability_point(host);
}

/// Appends one binlog event per statement of a transaction.
fn append_binlog(
    host: &Host,
    data: &mut Data,
    log: &mut Log,
    lsn: u64,
    txn: u64,
    statements: Statements,
) {
    for (statement, ctx) in statements {
        let timestamp = host.now_unix;
        let event = BinlogEvent {
            lsn,
            txn,
            timestamp,
            statement,
            ctx,
        };
        log.wal.append_binlog(&mut data.vdisk, &event);
    }
}

pub(super) fn rollback_txn(data: &mut Data, log: &mut Log, txn: TxnState) -> DbResult<()> {
    for rec in txn.undo.iter().rev() {
        apply_undo(data, log, rec)?;
    }
    log.mvcc.abort(&mut data.vdisk, txn.id);
    log_txn_end(data, log, txn.id);
    Ok(())
}

/// Applies one undo record (compensation): the row goes from what the
/// heap holds now back to the record's before-image, with fresh redo so
/// the compensation itself survives a crash.
pub(super) fn apply_undo(data: &mut Data, log: &mut Log, rec: &UndoRecord) -> DbResult<()> {
    // The table vanished (dropped, or a crash before the catalog
    // persisted): nothing to compensate.
    let Some(table) = data.catalog.get_by_id(rec.table_id) else {
        return Ok(());
    };
    let def = Arc::clone(&table.def);
    let before = match rec.op {
        OpKind::Update | OpKind::Delete => Some(Row::decode(&rec.before)?),
        OpKind::Insert | OpKind::Commit => None,
    };
    // Only a change the heap still shows is compensated: an insert or
    // update of a row that exists, a delete of one that does not.
    let exists = table.heap.locate(rec.row_id).is_some();
    let current = match (rec.op, exists) {
        (OpKind::Insert | OpKind::Update, true) => Some(table.heap.read(
            &data.bufpool,
            &mut data.vdisk,
            rec.row_id,
        )?),
        (OpKind::Delete, false) => None,
        _ => return Ok(()),
    };
    let change = match (&current, &before) {
        (Some(old), Some(new)) => RowChange::Update { old, new },
        (Some(old), None) => RowChange::Delete(old),
        (None, Some(new)) => RowChange::Insert(new),
        (None, None) => return Ok(()),
    };
    write_row(data, log, rec.txn, &def, change, &mut Vec::new())
}
