//! Crash and recovery. A crash keeps the disk and the [`Host`] and
//! nothing else; recovery rebuilds every table from the disk's bytes.

use std::collections::HashSet;

use super::config::Host;
use super::txn::apply_undo;
use super::{Data, Db, DbInner, Log};
use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::storage::btree::BTree;
use crate::storage::table::TableHeap;
use crate::wal::OpKind;

impl Db {
    /// Simulated crash: the process dies, and a new one opens on what
    /// survives — the disk, and the host's configuration, log key,
    /// registry and clock — in the crashed state until
    /// [`Db::recover`]. Host-held objects keep no process data: the
    /// registry keeps its names but not its values, and the obs server
    /// keeps no retained scrapes. The slow log's trace records are disk
    /// state and survive, unlike the flight recorder.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        g.host.scrub();
        let host = std::mem::take(&mut g.host);
        let vdisk = std::mem::take(&mut g.data.vdisk);
        *g = DbInner::open(host, vdisk);
        g.node.crashed = true;
    }

    /// Crash recovery: ARIES-lite redo of logged changes (pageLSN-gated)
    /// and index rebuild, then rollback of transactions without a commit
    /// marker. Leaves the engine open for business.
    pub fn recover(&self) -> DbResult<()> {
        let g = &mut *self.inner.lock();
        recover(&g.host, &mut g.data, &mut g.log)?;
        g.node.crashed = false;
        Ok(())
    }

    /// Whether the engine is in the crashed state.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().node.crashed
    }
}

/// Redo, one table at a time, then undo of what never committed.
fn recover(host: &Host, data: &mut Data, log: &mut Log) -> DbResult<()> {
    // 1. Redo, one table at a time: open the heap from its (possibly
    //    stale) pages, replay the logged changes newer than each
    //    page's LSN, then rebuild the indexes from the redone heap
    //    (index changes are not WAL-logged in MiniDB; a full rebuild
    //    replaces them).
    let redo = log.wal.carve_redo(&data.vdisk);
    let committed: HashSet<u64> = redo
        .iter()
        .filter(|r| r.op == OpKind::Commit)
        .map(|r| r.txn)
        .collect();
    let pool = &data.bufpool;
    let zone_maps = host.config.zone_maps_enabled;
    data.catalog = Catalog::load(&mut data.vdisk, |disk, def| {
        let mut heap = TableHeap::open(pool, disk, &def.file)?;
        heap.set_zone_maps(zone_maps);
        for rec in redo.iter().filter(|r| r.table_id == def.id) {
            let (lsn, page, slot) = (rec.lsn, rec.page_no, rec.slot);
            match rec.op {
                OpKind::Insert => heap.replay_insert(pool, disk, lsn, page, slot, &rec.after)?,
                OpKind::Update => heap.replay_update(pool, disk, lsn, page, slot, &rec.after)?,
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
                let key = row.values.get(ix.column_idx).ok_or_else(|| {
                    DbError::Storage(format!("row {} has no column {}", row.id, ix.column_idx))
                })?;
                bt.insert(pool, disk, key, row.id)?;
            }
            btrees.push(bt);
        }
        Ok((heap, btrees))
    })?;
    // 2. Undo phase. Candidates for rollback are only transactions
    //    that were live at or after the last checkpoint: the
    //    checkpoint's active-transaction table plus every txn whose
    //    redo records postdate the checkpoint LSN. Older transactions
    //    without a visible commit marker committed long ago — their
    //    markers merely wrapped out of the circular log.
    let (ckpt_lsn, ckpt_active) = crate::wal::read_checkpoint(&data.vdisk);
    let mut candidates: HashSet<u64> = ckpt_active;
    for rec in &redo {
        if rec.lsn >= ckpt_lsn && rec.op != OpKind::Commit {
            candidates.insert(rec.txn);
        }
    }
    let undo = log.wal.carve_undo(&data.vdisk);
    for rec in undo.iter().rev() {
        if candidates.contains(&rec.txn) && !committed.contains(&rec.txn) {
            apply_undo(data, log, rec)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mdb_telemetry::Registry;
    use parking_lot::Mutex;

    use crate::engine::{DbConfig, Host};
    use crate::value::Value;

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
            (g.diag.trace_hash_key, g.log.next_csn)
        };

        db.crash();
        let crashed = render(&db.memory_image());
        let reopened = {
            let g = db.inner.lock();
            Db {
                inner: Arc::new(Mutex::new(DbInner::open(
                    fork(&g.host),
                    g.data.vdisk.clone(),
                ))),
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
            g.diag.trace_hash_key, key_before,
            "the hashing key is per process"
        );
        // The last commit inserted into `s` and stamped no version
        // record, so its CSN is on no byte and the count steps back.
        assert_eq!(g.log.next_csn, csn_before - 1);
        assert!(
            g.node.crashed && g.log.txns.is_empty() && g.data.catalog.tables().next().is_none()
        );
    }

    /// Every number a restarted process allocates lies past every one on
    /// its disk: LSNs (page LSNs included), transaction ids and CSNs.
    /// This, not equality with the dead process's counters, is what
    /// recovery and snapshot visibility need.
    fn assert_past_the_disk(db: &Db) {
        let mut g = db.inner.lock();
        let g = &mut *g;
        let redo = g.log.wal.carve_redo(&g.data.vdisk);
        let undo = g.log.wal.carve_undo(&g.data.vdisk);
        let binlog = g.log.wal.carve_binlog(&g.data.vdisk);
        let ids = redo
            .iter()
            .map(|r| (r.lsn, r.txn))
            .chain(undo.iter().map(|r| (r.lsn, r.txn)))
            .chain(binlog.iter().map(|e| (e.lsn, e.txn)));
        let (mut max_lsn, mut max_txn) = ids.fold((0, 0), |a, b| (a.0.max(b.0), a.1.max(b.1)));
        for (name, bytes) in &g.data.vdisk.files {
            if name.ends_with(".ibd") && name != crate::mvcc::VERSIONS_FILE {
                for page in bytes.as_chunks::<{ crate::storage::PAGE_SIZE }>().0 {
                    max_lsn = max_lsn.max(crate::storage::Page::new(page).lsn());
                }
            }
        }
        let (_, active) = crate::wal::read_checkpoint(&g.data.vdisk);
        max_txn = active.into_iter().fold(max_txn, u64::max);
        assert!(max_lsn > 0 && max_txn > 0, "the disk holds records");
        assert!(g.log.wal.current_lsn() > max_lsn);
        assert!(g.log.wal.alloc_txn() > max_txn);
        assert!(g.log.next_csn > crate::mvcc::max_csn(&g.data.vdisk));
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
