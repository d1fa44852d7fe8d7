//! Topology wiring, lag-aware read routing, and primary failover.
//!
//! A [`ReplicaSet`] stands up one primary and N read replicas, connects
//! each replica's apply loop over the chosen transport, publishes live
//! replica state into the primary's `information_schema.replicas`, and
//! routes traffic: writes to the primary, reads to the least-lagged
//! replica (falling back to the primary when every replica trails by
//! more than `max_read_lag` events).
//!
//! Failover is the router's second job. [`ReplicaSet::promote`] turns a
//! replica into the fleet's primary: its apply loop stops, its applied
//! cursor becomes the fleet's new end-of-timeline, the deposed primary
//! is **fenced** — the binlog tail past that cursor (writes acked
//! locally but never replicated) is truncated into the
//! `binlog.divergent` quarantine sidecar and the node refuses writes
//! until it rejoins as a replica — and every surviving replica re-homes
//! to the new primary through the ordinary GTID-style resume handshake.
//! That handshake works *because* replicas re-log applied statements
//! into their own binlogs under matching sequence numbers: the promoted
//! node's binlog position equals its applied cursor, so survivors
//! resume exactly where they left off (assuming no purge gap opened
//! during the failover window; a gap repositions them like any other
//! purge).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use minidb::observability::ReplicaStatus;
use minidb::wal::BinlogEvent;
use minidb::{Connection, Db, DbConfig, DbResult, QueryResult};
use parking_lot::Mutex;

use crate::primary::PrimaryServer;
use crate::replica::{Replica, ReplicaShared};
use crate::transport::{duplex, FlakyEndpoint, LinkCutter, Transport};
use crate::{ReplError, ReplResult};

/// Which transport carries the replication stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process channels: deterministic, no OS dependencies.
    #[default]
    Channel,
    /// Loopback TCP: the stream crosses a real socket.
    Tcp,
}

/// Configuration for a [`ReplicaSet`].
#[derive(Clone)]
pub struct ReplicaSetConfig {
    /// Number of read replicas.
    pub replicas: usize,
    /// Max events a replica may trail and still serve reads.
    pub max_read_lag: u64,
    /// Replication transport.
    pub transport: TransportKind,
    /// Base engine configuration; the primary gets `server_id = 1`,
    /// replica `i` gets `server_id = 2 + i` and `read_only = true`.
    pub base: DbConfig,
}

impl Default for ReplicaSetConfig {
    fn default() -> Self {
        ReplicaSetConfig {
            replicas: 2,
            max_read_lag: 64,
            transport: TransportKind::default(),
            base: DbConfig::default(),
        }
    }
}

/// Where [`ReplicaSet::read`] would send the next query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadTarget {
    /// Replica by index (0-based).
    Replica(usize),
    /// Every replica is too stale; the primary serves the read.
    Primary,
}

/// What a completed [`ReplicaSet::promote`] did.
#[derive(Debug)]
pub struct Promotion {
    /// Server id of the new primary.
    pub new_primary_id: u64,
    /// The new primary's promotion epoch after the flip.
    pub epoch: u64,
    /// The promoted replica's applied cursor — the fleet's new
    /// end-of-timeline. Everything the deposed primary logged at or
    /// past this sequence was fenced.
    pub cursor: u64,
    /// The deposed primary's quarantined divergent tail, decoded with
    /// its own WAL key (empty when the deposed node had fully
    /// replicated, or when it was unreachable for fencing).
    pub fenced: Vec<BinlogEvent>,
}

struct ReplicaSlot {
    db: Db,
    /// `None` only transiently, while the slot restarts or promotes.
    replica: Option<Replica>,
    shared: Arc<ReplicaShared>,
    /// Cutter for the replica's *current* connection; a reconnect
    /// installs a fresh one, so an injected cut kills exactly one link.
    cutter: Arc<Mutex<LinkCutter>>,
    /// A lasting network partition: while set, the connector refuses to
    /// produce transports, so the apply loop keeps backing off (with
    /// jitter) instead of immediately re-dialing through a one-shot
    /// cut. [`ReplicaSet::heal`] clears it.
    partitioned: Arc<AtomicBool>,
    read_conn: Connection,
}

/// The primary side of the topology, bundled so promotion can swap it
/// atomically: engine, streamer, router connections, and (for TCP) the
/// accept loop.
struct PrimaryHandle {
    db: Db,
    server: Arc<PrimaryServer>,
    write_conn: Connection,
    read_conn: Connection,
    tcp: Option<TcpRuntime>,
}

struct TcpRuntime {
    addr: std::net::SocketAddr,
    handle: Option<std::thread::JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
}

impl PrimaryHandle {
    fn start(db: Db, transport: TransportKind) -> ReplResult<PrimaryHandle> {
        let server = Arc::new(PrimaryServer::new(db.clone()));
        let tcp = match transport {
            TransportKind::Tcp => {
                let acceptor = crate::tcp::TcpAcceptor::bind()?;
                let addr = acceptor.local_addr()?;
                let shutdown = Arc::new(AtomicBool::new(false));
                let handle = {
                    let server = Arc::clone(&server);
                    let stop = Arc::clone(&shutdown);
                    std::thread::spawn(move || {
                        while let Ok(ep) = acceptor.accept() {
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            server.serve(Box::new(ep));
                        }
                    })
                };
                Some(TcpRuntime {
                    addr,
                    handle: Some(handle),
                    shutdown,
                })
            }
            TransportKind::Channel => None,
        };
        let write_conn = db.connect("router_write");
        let read_conn = db.connect("router_read");
        Ok(PrimaryHandle {
            db,
            server,
            write_conn,
            read_conn,
            tcp,
        })
    }

    /// Stops the streamer and (for TCP) the accept loop. The engine
    /// stays as it is — a killed primary is already crashed, a deposed
    /// one lives on to be fenced.
    fn stop(&mut self) {
        if let Some(tcp) = &mut self.tcp {
            tcp.shutdown.store(true, Ordering::SeqCst);
            if let Some(h) = tcp.handle.take() {
                // Wake the blocking accept; the loop sees the flag and
                // serves nothing more.
                let _ = std::net::TcpStream::connect(tcp.addr);
                let _ = h.join();
            }
        }
        self.server.shutdown();
    }

    /// A connector producing fresh transports to this primary. Honors
    /// the slot's persistent partition flag and installs a fresh
    /// [`LinkCutter`] per connection.
    fn connector(
        &self,
        transport: TransportKind,
        cutter: Arc<Mutex<LinkCutter>>,
        partitioned: Arc<AtomicBool>,
    ) -> crate::replica::Connector {
        match transport {
            TransportKind::Channel => {
                let server = Arc::clone(&self.server);
                Box::new(move || {
                    if partitioned.load(Ordering::SeqCst) {
                        return Err(ReplError::Disconnected);
                    }
                    let (p_end, r_end) = duplex();
                    let fresh = LinkCutter::default();
                    *cutter.lock() = fresh.clone();
                    server.serve(Box::new(p_end));
                    Ok(Box::new(FlakyEndpoint::with_cutter(r_end, fresh)) as Box<dyn Transport>)
                })
            }
            TransportKind::Tcp => {
                // A primary started on TCP always has an acceptor; without
                // one there is nothing to connect to.
                let addr = self.tcp.as_ref().map(|t| t.addr);
                Box::new(move || {
                    if partitioned.load(Ordering::SeqCst) {
                        return Err(ReplError::Disconnected);
                    }
                    let addr = addr.ok_or(ReplError::Disconnected)?;
                    let ep = crate::tcp::TcpEndpoint::connect(addr)?;
                    let fresh = LinkCutter::default();
                    *cutter.lock() = fresh.clone();
                    Ok(Box::new(FlakyEndpoint::with_cutter(ep, fresh)) as Box<dyn Transport>)
                })
            }
        }
    }
}

/// A 1-primary / N-replica topology with routed client traffic and
/// failover.
pub struct ReplicaSet {
    primary: PrimaryHandle,
    slots: Vec<ReplicaSlot>,
    /// Fenced former primaries, kept addressable for forensic imaging
    /// and rejoin ([`ReplicaSet::deposed`]).
    deposed: Vec<Db>,
    max_read_lag: u64,
    transport: TransportKind,
}

impl ReplicaSet {
    /// Builds and starts the whole topology.
    pub fn start(config: ReplicaSetConfig) -> ReplResult<ReplicaSet> {
        let primary_db = Db::open(DbConfig {
            server_id: 1,
            read_only: false,
            ..config.base.clone()
        });
        let primary = PrimaryHandle::start(primary_db, config.transport)?;

        let mut set = ReplicaSet {
            primary,
            slots: Vec::with_capacity(config.replicas),
            deposed: Vec::new(),
            max_read_lag: config.max_read_lag,
            transport: config.transport,
        };
        for i in 0..config.replicas {
            let db = Db::open(DbConfig {
                server_id: 2 + i as u64,
                read_only: true,
                ..config.base.clone()
            });
            let cutter = Arc::new(Mutex::new(LinkCutter::default()));
            let partitioned = Arc::new(AtomicBool::new(false));
            let connector = set.primary.connector(
                config.transport,
                Arc::clone(&cutter),
                Arc::clone(&partitioned),
            );
            let replica = Replica::start(db.clone(), connector);
            let shared = replica.shared();
            let read_conn = db.connect("router_read");
            set.slots.push(ReplicaSlot {
                db,
                replica: Some(replica),
                shared,
                cutter,
                partitioned,
                read_conn,
            });
        }
        set.install_status_source();
        Ok(set)
    }

    /// Publishes live replica state into the current primary's
    /// `information_schema.replicas`. The closure runs under the
    /// primary's engine lock, so it only touches shared atomics —
    /// never another Db. Re-invoked after every topology change
    /// (promotion, replica restart) because each (re)start mints a
    /// fresh [`ReplicaShared`] cell.
    fn install_status_source(&self) {
        let status_cells: Vec<(u64, Arc<ReplicaShared>)> = self
            .slots
            .iter()
            .map(|s| (s.db.server_id(), Arc::clone(&s.shared)))
            .collect();
        self.primary.db.set_replica_status_source(Arc::new(move || {
            status_cells
                .iter()
                .map(|(id, shared)| shared.status_row(*id))
                .collect()
        }));
    }

    /// The primary database.
    pub fn primary(&self) -> &Db {
        &self.primary.db
    }

    /// Replica `i`'s database (for snapshotting, direct inspection...).
    pub fn replica(&self, i: usize) -> &Db {
        &self.slots[i].db
    }

    /// Number of replicas.
    pub fn replica_count(&self) -> usize {
        self.slots.len()
    }

    /// Fenced former primaries, oldest first.
    pub fn deposed(&self) -> &[Db] {
        &self.deposed
    }

    /// Executes a write on the primary.
    pub fn write(&self, sql: &str) -> DbResult<QueryResult> {
        self.primary.write_conn.execute(sql)
    }

    /// Executes a read pinned to the current primary — the
    /// read-your-writes session path. Follows the primary across a
    /// promotion.
    pub fn read_on_primary(&self, sql: &str) -> DbResult<QueryResult> {
        self.primary.read_conn.execute(sql)
    }

    /// Where the next read would be routed.
    pub fn route_read(&self) -> ReadTarget {
        let best = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.shared.state() == "streaming")
            .map(|(i, s)| (s.shared.lag_events(), i))
            .min();
        match best {
            Some((lag, i)) if lag <= self.max_read_lag => ReadTarget::Replica(i),
            _ => ReadTarget::Primary,
        }
    }

    /// Executes a read on the least-lagged replica (primary fallback).
    pub fn read(&self, sql: &str) -> DbResult<QueryResult> {
        match self.route_read() {
            ReadTarget::Replica(i) => self.slots[i].read_conn.execute(sql),
            ReadTarget::Primary => self.primary.read_conn.execute(sql),
        }
    }

    /// Live status rows (same data as `information_schema.replicas`).
    pub fn status(&self) -> Vec<ReplicaStatus> {
        self.slots
            .iter()
            .map(|s| s.shared.status_row(s.db.server_id()))
            .collect()
    }

    /// Severs replica `i`'s current link mid-stream; its apply loop
    /// reconnects with backoff. It cuts only a *live* link: before the
    /// replica's first attach there is none, and the call does nothing
    /// — callers that need the cut to land wait for
    /// `status()[i].state == "streaming"` first.
    pub fn inject_disconnect(&self, i: usize) {
        self.slots[i].cutter.lock().cut();
    }

    /// Opens a lasting partition between replica `i` and the primary:
    /// the live link is cut *and* reconnects keep failing until
    /// [`ReplicaSet::heal`].
    pub fn partition(&self, i: usize) {
        self.slots[i].partitioned.store(true, Ordering::SeqCst);
        self.slots[i].cutter.lock().cut();
    }

    /// Heals replica `i`'s partition; the apply loop's next (jittered)
    /// retry reconnects.
    pub fn heal(&self, i: usize) {
        self.slots[i].partitioned.store(false, Ordering::SeqCst);
    }

    /// Kills the primary in place: the engine crashes (volatile state
    /// gone, disk intact) and its streamer and acceptor stop, so
    /// replicas lose the feed mid-stream. The corpse stays addressable
    /// — [`ReplicaSet::promote`] fences it.
    pub fn kill_primary(&mut self) {
        self.primary.db.crash();
        self.primary.stop();
    }

    /// The replica a failover should promote: highest applied cursor
    /// wins (it loses the least acked-but-unreplicated data); ties go
    /// to the lowest index. A crashed or halted replica still counts —
    /// its cursor is durable in its relay log. `None` when no replica is
    /// left to promote.
    pub fn elect_best(&self) -> Option<usize> {
        self.slots
            .iter()
            .enumerate()
            .max_by_key(|(i, s)| (s.shared.next_seq.load(Ordering::SeqCst), usize::MAX - i))
            .map(|(i, _)| i)
    }

    /// Promotes replica `i` to primary. The full failover sequence:
    ///
    /// 1. stop the promoted replica's apply loop and read its applied
    ///    cursor — the fleet's new end-of-timeline;
    /// 2. stop the deposed primary's streamer and **fence** it:
    ///    quarantine its binlog tail past the cursor into the
    ///    `binlog.divergent` sidecar and shut its write gate
    ///    ([`Db::fence_divergent`]);
    /// 3. flip the promoted engine's `read_only` gate and bump its
    ///    promotion epoch ([`Db::promote_to_primary`]);
    /// 4. re-home every surviving replica onto the new primary via the
    ///    ordinary resume handshake, and re-point routed writes and
    ///    primary-pinned reads.
    ///
    /// The promoted replica leaves `slots` (indices above `i` shift
    /// down by one); the deposed primary joins
    /// [`ReplicaSet::deposed`].
    pub fn promote(&mut self, i: usize) -> ReplResult<Promotion> {
        let mut slot = self.slots.remove(i);
        if let Some(mut r) = slot.replica.take() {
            r.stop();
        }
        let cursor = slot.shared.next_seq.load(Ordering::SeqCst);

        // Fence the deposed primary *before* the new one takes writes:
        // its divergent tail must be quarantined while the old timeline
        // is still the only one, or the sidecar could mix timelines.
        let new_primary = PrimaryHandle::start(slot.db.clone(), self.transport)?;
        let mut old = std::mem::replace(&mut self.primary, new_primary);
        old.stop();
        let fenced = old.db.fence_divergent(cursor);
        old.db.set_replica_status_source(Arc::new(Vec::new));
        self.deposed.push(old.db.clone());
        drop(old);

        let epoch = self.primary.db.promote_to_primary();

        // Re-home survivors: each gets a connector to the new primary
        // and restarts its apply loop, which re-recovers its relay
        // position and resumes via the handshake. Partition flags and
        // cutters carry over — a partition outlives a failover.
        for s in &mut self.slots {
            if let Some(mut r) = s.replica.take() {
                r.stop();
            }
            let connector = self.primary.connector(
                self.transport,
                Arc::clone(&s.cutter),
                Arc::clone(&s.partitioned),
            );
            let replica = Replica::start(s.db.clone(), connector);
            s.shared = replica.shared();
            s.replica = Some(replica);
        }
        self.install_status_source();

        Ok(Promotion {
            new_primary_id: self.primary.db.server_id(),
            epoch,
            cursor,
            fenced,
        })
    }

    /// Crash-restarts replica `i`: stop its apply loop, run crash
    /// recovery on the engine (redo, undo, index rebuild), repair any
    /// torn relay tail, and re-attach to the current primary at the
    /// recovered relay position.
    pub fn restart_replica(&mut self, i: usize) -> ReplResult<()> {
        {
            let s = &mut self.slots[i];
            if let Some(mut r) = s.replica.take() {
                r.stop();
            }
        }
        if self.slots[i].db.is_crashed() {
            self.slots[i].db.recover().map_err(ReplError::Db)?;
        }
        let connector = self.primary.connector(
            self.transport,
            Arc::clone(&self.slots[i].cutter),
            Arc::clone(&self.slots[i].partitioned),
        );
        let replica = Replica::start(self.slots[i].db.clone(), connector);
        self.slots[i].shared = replica.shared();
        self.slots[i].replica = Some(replica);
        self.install_status_source();
        Ok(())
    }

    /// Waits until every replica has applied everything the primary has
    /// logged. Returns `false` on timeout.
    ///
    /// Each call records its wall-clock wait into the primary's
    /// `repl.wait_for_sync_us` histogram, so semi-sync commit latency
    /// shows up with p50/p95/p99 tails on the status port — and, like
    /// every histogram there, in every `/metrics` scrape.
    pub fn wait_for_sync(&self, timeout: Duration) -> bool {
        let target = self.primary.db.binlog_next_seq();
        let started = Instant::now();
        let deadline = started + timeout;
        let hist = self
            .primary
            .db
            .telemetry()
            .histogram("repl.wait_for_sync_us");
        loop {
            let synced = self
                .slots
                .iter()
                .all(|s| s.shared.next_seq.load(Ordering::SeqCst) >= target);
            if synced {
                hist.record(started.elapsed().as_micros() as u64);
                return true;
            }
            if Instant::now() >= deadline {
                hist.record(started.elapsed().as_micros() as u64);
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Stops replicas, streamer sessions, and (for TCP) the accept loop.
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            if let Some(mut r) = slot.replica.take() {
                r.stop();
            }
        }
        self.primary.stop();
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::ReplRole;

    #[test]
    fn routes_reads_to_replicas_and_writes_to_primary() {
        let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
        set.write("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..10 {
            set.write(&format!("INSERT INTO t VALUES ({i}, 'row{i}')"))
                .unwrap();
        }
        assert!(set.wait_for_sync(Duration::from_secs(5)));
        assert!(matches!(set.route_read(), ReadTarget::Replica(_)));
        let rows = set.read("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "10");
        // Replica rejects direct client writes.
        let direct = set.replica(0).connect("intruder");
        assert!(direct.execute("INSERT INTO t VALUES (99, 'x')").is_err());
        set.shutdown();
    }

    #[test]
    fn information_schema_replicas_reports_lag() {
        let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
        set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        set.write("INSERT INTO t VALUES (1)").unwrap();
        assert!(set.wait_for_sync(Duration::from_secs(5)));
        let conn = set.primary().connect("admin");
        let rows = conn
            .execute("SELECT replica_id, state, lag_events FROM information_schema.replicas")
            .unwrap();
        assert_eq!(rows.rows.len(), 2);
        set.shutdown();
    }

    #[test]
    fn injected_disconnect_recovers_without_loss_or_dup() {
        let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
        // Wait for replica 0 to attach so the injected cut hits a live
        // link rather than the pre-connection placeholder.
        for _ in 0..500 {
            if set.status()[0].state == "streaming" {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        for i in 0..20 {
            set.write(&format!("INSERT INTO t VALUES ({i})")).unwrap();
            if i == 10 {
                set.inject_disconnect(0);
            }
        }
        assert!(set.wait_for_sync(Duration::from_secs(10)));
        let status = &set.status()[0];
        assert!(status.retries >= 1, "cut link should force a reconnect");
        let rows = set.slots[0]
            .read_conn
            .execute("SELECT COUNT(*) FROM t")
            .unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "20");
        set.shutdown();
    }

    #[test]
    fn partition_outlasts_reconnects_until_healed() {
        let mut set = ReplicaSet::start(ReplicaSetConfig::default()).unwrap();
        set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        set.write("INSERT INTO t VALUES (0)").unwrap();
        assert!(set.wait_for_sync(Duration::from_secs(5)));

        set.partition(0);
        for i in 1..6 {
            set.write(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        // The partitioned replica must not catch up, no matter how many
        // reconnect attempts it burns.
        std::thread::sleep(Duration::from_millis(100));
        assert!(set.status()[0].next_seq < set.primary().binlog_next_seq());
        assert!(
            set.status()[0].retries >= 2,
            "partition should force repeated (jittered) retries"
        );
        // Routing avoids it; the healthy replica or primary serves.
        assert_ne!(set.route_read(), ReadTarget::Replica(0));

        set.heal(0);
        assert!(set.wait_for_sync(Duration::from_secs(10)));
        let rows = set.slots[0]
            .read_conn
            .execute("SELECT COUNT(*) FROM t")
            .unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "6");
        set.shutdown();
    }

    #[test]
    fn promotion_fences_divergence_and_rehomes_survivors() {
        let mut set = ReplicaSet::start(ReplicaSetConfig {
            replicas: 2,
            ..ReplicaSetConfig::default()
        })
        .unwrap();
        set.write("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")
            .unwrap();
        for i in 0..8 {
            set.write(&format!("INSERT INTO t VALUES ({i}, 'replicated')"))
                .unwrap();
        }
        assert!(set.wait_for_sync(Duration::from_secs(5)));

        // Divergence window: isolate every replica, keep acking writes.
        for i in 0..set.replica_count() {
            set.partition(i);
        }
        for i in 100..104 {
            set.write(&format!("INSERT INTO t VALUES ({i}, 'divergent-{i}')"))
                .unwrap();
        }
        let old_primary_end = set.primary().binlog_next_seq();

        // Primary dies; the best survivor takes over.
        set.kill_primary();
        let best = set.elect_best().unwrap();
        let promo = set.promote(best).unwrap();
        for i in 0..set.replica_count() {
            set.heal(i);
        }

        // The divergent tail — and nothing else — was fenced.
        assert_eq!(promo.cursor, 9);
        assert_eq!(
            promo.fenced.len() as u64,
            old_primary_end - promo.cursor,
            "exactly the unreplicated tail is quarantined"
        );
        assert!(promo
            .fenced
            .iter()
            .all(|ev| ev.statement.contains("divergent")));
        assert_eq!(promo.epoch, 1);

        // The deposed node: fenced role, write gate shut, sidecar on disk.
        let deposed = &set.deposed()[0];
        assert_eq!(deposed.repl_role(), ReplRole::Fenced);
        assert!(deposed.is_read_only());
        assert!(deposed
            .read_server_file(minidb::wal::DIVERGENT_FILE)
            .is_some());
        assert_eq!(deposed.binlog_next_seq(), promo.cursor);
        let health = deposed.health_report();
        assert!(!health.ready, "a fenced node must fail its health probe");

        // The new primary: writable, epoch bumped, health advertises it.
        assert_eq!(set.primary().repl_role(), ReplRole::Primary);
        assert!(!set.primary().is_read_only());
        let health = set.primary().health_report();
        assert!(health.components.iter().any(|c| c.name == "role"
            && c.detail.contains("role=primary")
            && c.detail.contains("promotion_epoch=1")));

        // Writes flow on the new timeline and reach the survivor.
        set.write("INSERT INTO t VALUES (200, 'after-failover')")
            .unwrap();
        assert!(set.wait_for_sync(Duration::from_secs(10)));
        let rows = set
            .read_on_primary("SELECT COUNT(*) FROM t WHERE id < 100")
            .unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "8");
        let survivor = set.replica(0).connect("check");
        let rows = survivor.execute("SELECT v FROM t WHERE id = 200").unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "after-failover");
        // The divergent writes are on no surviving node.
        let rows = survivor
            .execute("SELECT COUNT(*) FROM t WHERE id >= 100 AND id < 200")
            .unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "0");

        // Counters landed on the metrics plane of each node.
        assert_eq!(
            set.primary().telemetry().counter("repl.promotions").get(),
            1
        );
        assert_eq!(
            deposed.telemetry().counter("repl.fenced_events").get(),
            promo.fenced.len() as u64
        );
        set.shutdown();
    }

    #[test]
    fn torn_relay_tail_is_repaired_and_refetched_exactly_once() {
        use crate::relay;
        use crate::wire::SequencedEvent;

        let mut set = ReplicaSet::start(ReplicaSetConfig {
            replicas: 1,
            ..ReplicaSetConfig::default()
        })
        .unwrap();
        set.write("CREATE TABLE t (id INT PRIMARY KEY)").unwrap();
        for i in 0..6 {
            set.write(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        assert!(set.wait_for_sync(Duration::from_secs(5)));

        // Crash the replica, then simulate the kill having struck
        // mid-`relay_append`: half of the next event's frame is on disk.
        set.replica(0).crash();
        let (frames, _) = set.primary().binlog_frames_from(0, 64);
        let torn_src = SequencedEvent {
            seq: 99,
            sealed: frames[0].1,
            payload: frames[0].2.clone(),
        };
        let framed = if torn_src.sealed {
            minidb::wal::frame_enc(&torn_src.payload)
        } else {
            minidb::wal::frame(&torn_src.payload)
        };
        let clean_len = relay::relay_len(set.replica(0));
        set.replica(0)
            .append_server_file(relay::RELAY_FILE, &framed[..framed.len() / 2]);

        // More writes land while the replica is down.
        set.write("INSERT INTO t VALUES (6)").unwrap();
        set.write("INSERT INTO t VALUES (7)").unwrap();

        set.restart_replica(0).unwrap();
        assert!(set.wait_for_sync(Duration::from_secs(10)));

        // The torn bytes are gone (repair counter ticked), and every
        // event is present exactly once: no loss, no double-apply.
        let replica = set.replica(0);
        assert!(replica.telemetry().counter("repl.relay.repairs").get() >= 1);
        let raw = replica.read_server_file(relay::RELAY_FILE).unwrap();
        assert!(raw.len() >= clean_len as usize);
        let decoded: Vec<String> = minidb::wal::carve_all_frames(&raw)
            .filter_map(|(_, sealed, p)| replica.decode_binlog_frame(sealed, p).ok())
            .map(|ev| ev.statement)
            .collect();
        let creates_plus_inserts = 1 + 8;
        assert_eq!(decoded.len(), creates_plus_inserts);
        let mut unique = decoded.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), decoded.len(), "no duplicate relay frames");
        let rows = set.slots[0]
            .read_conn
            .execute("SELECT COUNT(*) FROM t")
            .unwrap();
        assert_eq!(format!("{}", rows.rows[0][0]), "8");
        set.shutdown();
    }
}
