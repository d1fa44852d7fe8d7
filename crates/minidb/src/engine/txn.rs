//! Transactions: BEGIN, commit and rollback, undo compensation, the
//! binlog writes and the durability point, and the snapshot horizon.

use std::sync::Arc;

use mdb_trace::TraceContext;

use super::write::RowChange;
#[cfg(doc)]
use super::DbConfig;
use super::{DbInner, QueryResult, STAGE_COST_US};
use crate::error::{DbError, DbResult};
use crate::group_commit::GroupCommitPipeline;
use crate::row::Row;
use crate::wal::{BinlogEvent, OpKind, RedoRecord, UndoRecord};

pub(super) struct TxnState {
    pub(super) id: u64,
    /// Undo records of this transaction, in execution order.
    pub(super) undo: Vec<UndoRecord>,
    /// Statement texts to binlog at commit, each with the distributed
    /// trace context it ran under (stamped onto its binlog event).
    pub(super) statements: Vec<(String, Option<TraceContext>)>,
    /// Snapshot CSN pinned at BEGIN: this transaction's reads see
    /// exactly the versions committed at or before it.
    pub(super) snapshot_csn: u64,
}

impl DbInner {
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

    /// `COMMIT` (`commit`) or `ROLLBACK` of the connection's transaction.
    pub(super) fn end_txn(&mut self, conn_id: u64, commit: bool) -> DbResult<QueryResult> {
        let Some(txn) = self.txns.remove(&conn_id) else {
            let verb = if commit { "COMMIT" } else { "ROLLBACK" };
            return Err(DbError::Txn(format!("{verb} without BEGIN")));
        };
        match commit {
            true => self.commit_txn(txn)?,
            false => self.rollback_txn(txn)?,
        }
        Ok(QueryResult::default())
    }

    pub(super) fn commit_txn(&mut self, txn: TxnState) -> DbResult<()> {
        // Stamp the commit CSN into every version record this txn wrote:
        // before-images get their xmax, fresh rows their xmin.
        let csn = self.next_csn;
        self.next_csn += 1;
        self.mvcc.commit(&mut self.vdisk, txn.id, csn);
        let logged0 = self.metrics.wal_redo_bytes.get() + self.metrics.wal_binlog_bytes.get();
        self.trace_begin("wal_append");
        let lsn = self.log_txn_end(txn.id);
        let binlog_events = txn.statements.len() as u64;
        for (statement, ctx) in txn.statements {
            self.append_binlog(lsn, txn.id, statement, ctx);
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

    /// Logs the redo marker that ends a transaction, committed or rolled
    /// back (so recovery does not re-undo it), and returns its LSN.
    fn log_txn_end(&mut self, txn: u64) -> u64 {
        let lsn = self.wal.alloc_lsn();
        self.log_redo(RedoRecord {
            lsn,
            txn,
            op: OpKind::Commit,
            table_id: 0,
            page_no: 0,
            slot: 0,
            after: Vec::new(),
        });
        lsn
    }

    /// DDL autocommits as its own binlog transaction (MySQL's
    /// implicit-commit rule); statement-shipping replication relies on
    /// this to reproduce schema changes on replicas.
    pub(super) fn binlog_ddl(&mut self, sql: &str) {
        let lsn = self.wal.alloc_lsn();
        let txn = self.wal.alloc_txn();
        self.append_binlog(lsn, txn, sql.to_string(), self.current_ctx);
        self.durability_point();
    }

    /// Appends one statement's binlog event, stamped with its context put
    /// through the keyed rehash when [`DbConfig::trace_id_hashing`] is on
    /// — the mitigation boundary sits exactly where trace ids leave for
    /// other hosts.
    fn append_binlog(&mut self, lsn: u64, txn: u64, statement: String, ctx: Option<TraceContext>) {
        let ctx = match ctx {
            Some(c) if self.host.config.trace_id_hashing => Some(c.rehash(self.trace_hash_key)),
            other => other,
        };
        let event = BinlogEvent {
            lsn,
            txn,
            timestamp: self.host.now_unix,
            statement,
            ctx,
        };
        self.wal.append_binlog(&mut self.vdisk, &event);
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
    pub(super) fn take_staged_commit(&mut self) -> Option<(Arc<GroupCommitPipeline>, u64)> {
        let lsn = self.staged_commit.take()?;
        self.host
            .group_commit
            .as_ref()
            .map(|p| (Arc::clone(p), lsn))
    }

    pub(super) fn rollback_txn(&mut self, txn: TxnState) -> DbResult<()> {
        for rec in txn.undo.iter().rev() {
            self.apply_undo(rec)?;
        }
        self.mvcc.abort(&mut self.vdisk, txn.id);
        self.log_txn_end(txn.id);
        Ok(())
    }

    /// Applies one undo record (compensation), logging fresh redo so the
    /// compensation itself survives a crash.
    pub(super) fn apply_undo(&mut self, rec: &UndoRecord) -> DbResult<()> {
        // The table vanished (dropped, or a crash before the catalog
        // persisted): nothing to compensate.
        let Some(table) = self.catalog.get_by_id(rec.table_id) else {
            return Ok(());
        };
        let def = Arc::clone(&table.def);
        let exists = table.heap.locate(rec.row_id).is_some();
        let mut scratch = Vec::new();
        match rec.op {
            // Undo an insert: delete the row if it exists.
            OpKind::Insert if exists => {
                let old = table
                    .heap
                    .read(&self.bufpool, &mut self.vdisk, rec.row_id)?;
                self.write_row(rec.txn, &def, RowChange::Delete(&old), &mut scratch)
            }
            OpKind::Update => {
                let before = Row::decode(&rec.before)?;
                if !exists {
                    return Ok(());
                }
                let current = table
                    .heap
                    .read(&self.bufpool, &mut self.vdisk, rec.row_id)?;
                let change = RowChange::Update {
                    old: &current,
                    new: &before,
                };
                self.write_row(rec.txn, &def, change, &mut scratch)
            }
            OpKind::Delete => {
                let before = Row::decode(&rec.before)?;
                if exists {
                    return Ok(());
                }
                self.write_row(rec.txn, &def, RowChange::Insert(&before), &mut scratch)
            }
            OpKind::Insert | OpKind::Commit => Ok(()),
        }
    }

    /// Reclaims MVCC versions no active snapshot can still see, erasing
    /// reclaimed before-images when `scrub`. The horizon is the oldest
    /// active snapshot CSN (with no open transaction, every committed
    /// supersession is reclaimable). Returns `(reclaimed, remaining)`
    /// version counts.
    pub(super) fn vacuum(&mut self, scrub: bool) -> (usize, usize) {
        let horizon = self
            .txns
            .values()
            .map(|t| t.snapshot_csn)
            .min()
            .unwrap_or(u64::MAX);
        self.mvcc.vacuum(&mut self.vdisk, horizon, scrub)
    }
}
