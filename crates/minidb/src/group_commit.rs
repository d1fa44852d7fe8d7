//! Group commit: a pipelined WAL durability point shared by concurrent
//! committers.
//!
//! The seed engine called `record_fsync` once per committed statement,
//! *inside* the engine lock — N concurrent committers paid N serialized
//! durability points. This module replaces that with the classic
//! leader/follower protocol (InnoDB's `log_write_up_to`, Postgres's
//! `commit_delay` group): a committer **stages** its commit LSN while it
//! still holds the engine lock, then — after releasing it — **waits**
//! for the staged LSN to become durable. The first waiter to find no
//! flush in progress becomes the leader: it lingers up to
//! [`LEADER_WAIT_US`] for the batch to fill, performs *one* fsync for
//! everything staged so far, and wakes the followers. Committers that
//! arrive during a flush stage behind it and are picked up by the next
//! leader — the pipeline: batch k+1 fills while batch k syncs.
//!
//! The logs live in the in-memory [`VDisk`](crate::vdisk::VDisk), so a
//! flush waits on no device: it counts one `wal.fsyncs` for the batch
//! and publishes the batch as durable.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use mdb_telemetry::{Counter, Histogram, Registry};

/// Most commits one batch of an engine's pipeline may coalesce.
pub const MAX_BATCH: usize = 64;
/// How long an engine's flush leader lingers for its batch to fill, in
/// microseconds (the pipeline still coalesces commits that arrive during
/// a flush).
pub const LEADER_WAIT_US: u64 = 50;

struct State {
    /// Highest LSN staged for durability (monotone: staging happens
    /// under the engine lock, where LSNs are allocated).
    staged_tail: u64,
    /// Commits staged since the in-progress/next batch was snapshotted.
    staged_count: u64,
    /// Everything at or below this LSN is durable.
    durable_lsn: u64,
    /// A leader is gathering or flushing a batch.
    leader_active: bool,
}

/// The shared group-commit pipeline. One per engine; committers hold an
/// `Arc` so the durability wait runs entirely **outside** the engine
/// lock — that release is where the concurrency comes from.
pub struct GroupCommitPipeline {
    state: Mutex<State>,
    cv: Condvar,
    max_batch: usize,
    wait: Duration,
    /// Shared cell with the WAL's `wal.fsyncs` counter: a coalesced
    /// batch counts exactly one fsync (the satellite accounting fix).
    fsyncs: Counter,
    /// `wal.group_commit_batch_size` log2-histogram.
    batch_size: Histogram,
    /// `wal.group_commit_waits`: commits that blocked behind an
    /// in-progress flush (the pipeline's hand-off, not the linger).
    waits: Counter,
}

impl GroupCommitPipeline {
    /// Builds the pipeline and registers its telemetry on `registry`.
    pub fn new(registry: &Registry, max_batch: usize, wait_us: u64) -> GroupCommitPipeline {
        GroupCommitPipeline {
            state: Mutex::new(State {
                staged_tail: 0,
                staged_count: 0,
                durable_lsn: 0,
                leader_active: false,
            }),
            cv: Condvar::new(),
            max_batch: max_batch.max(1),
            wait: Duration::from_micros(wait_us),
            fsyncs: registry.counter("wal.fsyncs"),
            batch_size: registry.histogram("wal.group_commit_batch_size"),
            waits: registry.counter("wal.group_commit_waits"),
        }
    }

    /// Stages a commit LSN for the next batch. Called under the engine
    /// lock (cheap: one mutex op), so staged LSNs arrive in order.
    pub fn stage(&self, lsn: u64) {
        let mut st = self.state.lock();
        st.staged_tail = st.staged_tail.max(lsn);
        st.staged_count += 1;
        drop(st);
        // A gathering leader may be lingering for exactly this record.
        self.cv.notify_all();
    }

    /// Blocks until `lsn` is durable, becoming the flush leader if no
    /// flush is in progress. Must be called *after* the engine lock is
    /// released, with an `lsn` previously passed to [`Self::stage`].
    pub fn wait_durable(&self, lsn: u64) {
        let mut st = self.state.lock();
        let mut counted_wait = false;
        loop {
            if st.durable_lsn >= lsn {
                return;
            }
            if st.leader_active {
                // Follower: ride out the current flush.
                if !counted_wait {
                    self.waits.inc();
                    counted_wait = true;
                }
                st = self.cv.wait(st);
                continue;
            }
            // Leader: linger for the batch to fill, bounded by the knob.
            st.leader_active = true;
            if !self.wait.is_zero() {
                let deadline = Instant::now() + self.wait;
                while (st.staged_count as usize) < self.max_batch {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    let (guard, timeout) = self.cv.wait_for(st, left);
                    st = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
            let flush_to = st.staged_tail;
            let batch = st.staged_count;
            st.staged_count = 0;
            drop(st);

            // One fsync for the whole batch.
            self.fsyncs.inc();
            self.batch_size.record(batch);

            st = self.state.lock();
            st.durable_lsn = st.durable_lsn.max(flush_to);
            st.leader_active = false;
            self.cv.notify_all();
            // Loop: `flush_to >= lsn` (we staged before waiting), so the
            // next check returns unless a spurious state says otherwise.
        }
    }

    /// Highest durable LSN (test/diagnostic hook).
    pub fn durable_lsn(&self) -> u64 {
        self.state.lock().durable_lsn
    }
}

impl std::fmt::Debug for GroupCommitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("GroupCommitPipeline { .. }")
    }
}

/// Convenience alias used by the engine.
pub type SharedPipeline = Arc<GroupCommitPipeline>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_committer_flushes_itself() {
        let registry = Registry::new();
        let p = GroupCommitPipeline::new(&registry, 8, 0);
        p.stage(5);
        p.wait_durable(5);
        assert!(p.durable_lsn() >= 5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("wal.fsyncs"), Some(1));
        assert_eq!(snap.counter("wal.group_commit_waits"), Some(0));
    }

    #[test]
    fn concurrent_committers_coalesce_into_few_fsyncs() {
        let registry = Registry::new();
        // The leader's 2 ms linger forces overlap: while it gathers its
        // batch, the other committers stage and wait behind it.
        let p = Arc::new(GroupCommitPipeline::new(&registry, 64, 2_000));
        let lsn_alloc = Arc::new(Mutex::new(0u64));
        const THREADS: usize = 8;
        const COMMITS: usize = 10;
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let p = Arc::clone(&p);
                let alloc = Arc::clone(&lsn_alloc);
                std::thread::spawn(move || {
                    for _ in 0..COMMITS {
                        let lsn = {
                            let mut a = alloc.lock();
                            *a += 1;
                            *a
                        };
                        p.stage(lsn);
                        p.wait_durable(lsn);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.durable_lsn(), (THREADS * COMMITS) as u64);
        let snap = registry.snapshot();
        let fsyncs = snap.counter("wal.fsyncs").unwrap();
        let total = (THREADS * COMMITS) as u64;
        // A coalesced batch is ONE fsync.
        assert!(
            fsyncs < total / 2,
            "expected coalescing: {fsyncs} fsyncs for {total} commits"
        );
        // Pipelined batches imply followers waited.
        assert!(snap.counter("wal.group_commit_waits").unwrap() > 0);
        // One batch-size sample per fsync.
        let hist = snap.histogram("wal.group_commit_batch_size").unwrap();
        assert_eq!(hist.count, fsyncs);
    }

    #[test]
    fn waiters_always_drain() {
        // Regression guard for lost wakeups: many threads, zero linger —
        // the protocol alone must never deadlock.
        let registry = Registry::new_disabled();
        let p = Arc::new(GroupCommitPipeline::new(&registry, 4, 0));
        let alloc = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..16)
            .map(|_| {
                let p = Arc::clone(&p);
                let alloc = Arc::clone(&alloc);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let lsn = {
                            let mut a = alloc.lock();
                            *a += 1;
                            *a
                        };
                        p.stage(lsn);
                        p.wait_durable(lsn);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.durable_lsn(), 16 * 50);
    }
}
