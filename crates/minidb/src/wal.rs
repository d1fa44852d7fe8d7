//! Write-ahead logging: circular redo and undo logs, the binlog, and LSNs.
//!
//! This is the §3 machinery. Three log structures, mirroring InnoDB/MySQL:
//!
//! * **Redo log** — fixed-capacity *circular* buffer of physical
//!   after-images `(lsn, txn, op, table, page, slot, bytes)`. Old records
//!   survive until the write head laps them; with the 50 MB default and a
//!   modest write rate that is *weeks* of history (the paper's "16 days").
//! * **Undo log** — circular buffer of logical before-images, used for
//!   rollback and MVCC; same retention arithmetic.
//! * **Binlog** — append-only statement log with UNIX timestamps, required
//!   for replication/point-in-time recovery; never purged except by an
//!   explicit administrative action ([`Wal::purge_binlog`]).
//!
//! Records are framed with a magic number so that both crash recovery and
//! a forensic attacker can *carve* them out of raw bytes — the same
//! technique Frühwirt et al. use against real InnoDB logs.
//!
//! The three logs are ordinary [`VDisk`] files ([`REDO_FILE`],
//! [`UNDO_FILE`], [`BINLOG_FILE`]); [`Wal`] holds only the cursors into
//! them and the sealing key, so its methods take the disk they write.
//! [`Wal::open`] derives every cursor from those files' bytes, so a
//! restarted process resumes exactly where the logs say, not where its
//! predecessor's memory said.

// Log bytes come back from a disk an attacker may have rewritten: a
// bad one is a typed error, never a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]

use std::borrow::Cow;
use std::collections::HashSet;

use mdb_telemetry::{Counter, Registry};
use mdb_trace::codec::{self, put_bytes32, put_i64, put_u16, put_u32, put_u64, Reader};

use crate::error::{DbError, DbResult};
use crate::vdisk::VDisk;

/// Default capacity of each circular log (the paper's "default size
/// (50 Mb)").
pub const DEFAULT_LOG_CAPACITY: usize = 50 * 1000 * 1000;

/// On-disk file names (as they appear in a disk snapshot).
pub const REDO_FILE: &str = "ib_logfile0";
/// Undo tablespace file name.
pub const UNDO_FILE: &str = "undo_001";
/// Binlog file name.
pub const BINLOG_FILE: &str = "binlog.000001";
/// Quarantine sidecar for a deposed primary's divergent binlog tail:
/// events acked locally but never replicated, truncated out of the live
/// binlog at fencing time ([`Wal::fence_binlog_tail`]) and preserved
/// here, frames verbatim, for key-holder recovery. Like every vdisk file
/// it rides along in cold [`crate::snapshot::DiskImage`]s — which is
/// exactly the failover-only artifact E21 carves.
pub const DIVERGENT_FILE: &str = "binlog.divergent";
/// The binlog's purge horizon: the sequence number of the oldest event
/// [`Wal::purge_binlog`] kept, as 8 little-endian bytes. Written only by
/// a purge (MySQL keeps the same fact in its binlog index), it is what
/// lets a restarted process number the events still in the binlog — and
/// it tells a disk thief how many events were purged.
pub const BINLOG_INDEX_FILE: &str = "binlog.index";

/// Operation tags shared by redo and undo records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// Row insert.
    Insert,
    /// Row update.
    Update,
    /// Row delete.
    Delete,
    /// Transaction commit marker (redo only).
    Commit,
}

impl OpKind {
    fn to_u8(self) -> u8 {
        match self {
            OpKind::Insert => 1,
            OpKind::Update => 2,
            OpKind::Delete => 3,
            OpKind::Commit => 4,
        }
    }

    fn from_u8(b: u8) -> Option<OpKind> {
        match b {
            1 => Some(OpKind::Insert),
            2 => Some(OpKind::Update),
            3 => Some(OpKind::Delete),
            4 => Some(OpKind::Commit),
            _ => None,
        }
    }
}

/// A redo record: physical after-image keyed by placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RedoRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// Transaction id.
    pub txn: u64,
    /// Operation.
    pub op: OpKind,
    /// Table id (catalog-assigned); 0 for commit markers.
    pub table_id: u32,
    /// Page within the table file.
    pub page_no: u32,
    /// Slot within the page.
    pub slot: u16,
    /// Encoded row after-image (empty for deletes and commits).
    pub after: Vec<u8>,
}

impl RedoRecord {
    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(35 + self.after.len());
        out.push(self.op.to_u8());
        put_u64(&mut out, self.lsn);
        put_u64(&mut out, self.txn);
        put_u32(&mut out, self.table_id);
        put_u32(&mut out, self.page_no);
        put_u16(&mut out, self.slot);
        put_bytes32(&mut out, &self.after);
        out
    }

    /// Parses a record payload.
    pub fn decode(buf: &[u8]) -> DbResult<RedoRecord> {
        let mut r = Reader::new(buf);
        let op = OpKind::from_u8(r.u8()?).ok_or_else(|| DbError::Storage("bad redo op".into()))?;
        let rec = RedoRecord {
            lsn: r.u64()?,
            txn: r.u64()?,
            op,
            table_id: r.u32()?,
            page_no: r.u32()?,
            slot: r.u16()?,
            after: r.bytes32()?.to_vec(),
        };
        if r.remaining() != 0 {
            return Err(DbError::Storage("redo record length mismatch".into()));
        }
        Ok(rec)
    }
}

/// An undo record: logical before-image keyed by row id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UndoRecord {
    /// Log sequence number.
    pub lsn: u64,
    /// Transaction id.
    pub txn: u64,
    /// Operation being undone.
    pub op: OpKind,
    /// Table id.
    pub table_id: u32,
    /// Row id the operation touched.
    pub row_id: u64,
    /// Encoded row before-image (empty for inserts).
    pub before: Vec<u8>,
}

impl UndoRecord {
    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(33 + self.before.len());
        out.push(self.op.to_u8());
        put_u64(&mut out, self.lsn);
        put_u64(&mut out, self.txn);
        put_u32(&mut out, self.table_id);
        put_u64(&mut out, self.row_id);
        put_bytes32(&mut out, &self.before);
        out
    }

    /// Parses a record payload.
    pub fn decode(buf: &[u8]) -> DbResult<UndoRecord> {
        let mut r = Reader::new(buf);
        let op = OpKind::from_u8(r.u8()?).ok_or_else(|| DbError::Storage("bad undo op".into()))?;
        let rec = UndoRecord {
            lsn: r.u64()?,
            txn: r.u64()?,
            op,
            table_id: r.u32()?,
            row_id: r.u64()?,
            before: r.bytes32()?.to_vec(),
        };
        if r.remaining() != 0 {
            return Err(DbError::Storage("undo record length mismatch".into()));
        }
        Ok(rec)
    }
}

/// A binlog event: the full statement text with its commit timestamp
/// and, when the statement ran under distributed tracing, the trace
/// context that replica apply spans join (the E19 surface: the same
/// 128-bit id lands on every machine the event replicates to).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinlogEvent {
    /// Commit LSN of the transaction.
    pub lsn: u64,
    /// Transaction id.
    pub txn: u64,
    /// UNIX timestamp (seconds) at commit.
    pub timestamp: i64,
    /// Verbatim statement text.
    pub statement: String,
    /// Distributed trace context of the statement that produced the
    /// event (`None` when tracing was off — and the wire bytes are then
    /// identical to the pre-xtrace format).
    pub ctx: Option<mdb_trace::TraceContext>,
}

impl BinlogEvent {
    /// Serializes the event payload (without framing). Events without a
    /// trace context encode byte-identically to the pre-xtrace format;
    /// a context appends exactly
    /// [`TraceContext::WIRE_LEN`](mdb_trace::TraceContext::WIRE_LEN)
    /// trailing bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28 + self.statement.len());
        put_u64(&mut out, self.lsn);
        put_u64(&mut out, self.txn);
        put_i64(&mut out, self.timestamp);
        put_bytes32(&mut out, self.statement.as_bytes());
        if let Some(ctx) = &self.ctx {
            ctx.encode(&mut out);
        }
        out
    }

    /// Parses an event payload. Both lengths are accepted: the bare
    /// pre-xtrace layout (`ctx = None`) and the layout with the 25-byte
    /// trace-context tail.
    pub fn decode(buf: &[u8]) -> DbResult<BinlogEvent> {
        let mut r = Reader::new(buf);
        let (lsn, txn, timestamp) = (r.u64()?, r.u64()?, r.i64()?);
        let statement = r.str32()?;
        let ctx = match r.remaining() {
            0 => None,
            mdb_trace::TraceContext::WIRE_LEN => Some(
                mdb_trace::TraceContext::decode(r.take(mdb_trace::TraceContext::WIRE_LEN)?)
                    .ok_or_else(|| DbError::Storage("bad binlog trace context".into()))?,
            ),
            _ => return Err(DbError::Storage("binlog event length mismatch".into())),
        };
        Ok(BinlogEvent {
            lsn,
            txn,
            timestamp,
            statement,
            ctx,
        })
    }
}

/// Frames a plaintext payload: `magic || len || payload`
/// ([`codec::WAL`]'s primary magic, `0xD1DEC0DE`).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    codec::WAL.encode(false, 0, payload)
}

/// Frames a sealed payload — the
/// [`DbConfig::encrypted_wal`](crate::engine::DbConfig::encrypted_wal)
/// on-disk format — under [`codec::WAL`]'s alternate magic
/// (`0x5EA1C0DE`). A distinct magic keeps recovery honest about which
/// codec a frame needs.
pub fn frame_enc(payload: &[u8]) -> Vec<u8> {
    codec::WAL.encode(true, 0, payload)
}

/// Carves frames of *both* magics in offset order, lazily. Each entry
/// is `(offset, sealed, payload)`. This is the recovery-side scan for
/// logs that may hold a mix of plaintext and sealed records (for
/// example a relay log written before and after `encrypted_wal` was
/// enabled), and the one resync loop ([`codec::scan`]) crash recovery
/// and the forensic attacker share. Garbage — including a length field
/// that runs past the buffer after a circular wrap — is skipped.
pub fn carve_all_frames(raw: &[u8]) -> impl Iterator<Item = (usize, bool, &[u8])> {
    codec::scan(&codec::WAL, raw).map(|f| (f.offset, f.alt, f.payload))
}

fn carve_frames_where(raw: &[u8], want_sealed: bool) -> Vec<(usize, &[u8])> {
    carve_all_frames(raw)
        .filter(|&(_, sealed, _)| sealed == want_sealed)
        .map(|(offset, _, payload)| (offset, payload))
        .collect()
}

/// Carves the plaintext frames out of raw bytes as `(offset, payload)`
/// pairs. Sealed frames are stepped over whole, which is the point:
/// without the key they yield lengths and positions, nothing else.
pub fn carve_frames(raw: &[u8]) -> Vec<(usize, &[u8])> {
    carve_frames_where(raw, false)
}

/// Carves sealed frames ([`frame_enc`]). An attacker can run
/// this too — it yields authenticated ciphertext records that reveal
/// only length, stream id, and sequence number without the key.
pub fn carve_enc_frames(raw: &[u8]) -> Vec<(usize, &[u8])> {
    carve_frames_where(raw, true)
}

/// The write cursor of a fixed-capacity circular log file. The file is
/// created zero-filled at its full capacity and never changes length;
/// wrap-around overwrites the oldest bytes, exactly bounding how much
/// history a disk snapshot contains. A wrap zeroes the tail, so the
/// cursor is always the end of the newest (highest-LSN) record.
#[derive(Debug)]
pub struct CircularLog {
    file: &'static str,
    write_pos: usize,
}

impl CircularLog {
    /// Creates `file` on `disk`, zero-filled to `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity < 64`.
    pub fn create(disk: &mut VDisk, file: &'static str, capacity: usize) -> Self {
        assert!(capacity >= 64, "log capacity too small");
        disk.write(file, vec![0u8; capacity]);
        CircularLog { file, write_pos: 0 }
    }

    /// Whether appending `len` more bytes would wrap to the start.
    pub fn would_wrap(&self, disk: &VDisk, len: usize) -> bool {
        self.write_pos + len > disk.len(self.file)
    }

    /// Appends a framed record; returns whether the append wrapped.
    ///
    /// # Panics
    ///
    /// Panics if a single record exceeds the capacity (a config error).
    pub fn append(&mut self, disk: &mut VDisk, framed: &[u8]) -> bool {
        let capacity = disk.len(self.file);
        assert!(framed.len() <= capacity, "record larger than circular log");
        let wraps = self.write_pos + framed.len() > capacity;
        if wraps {
            // Zero the tail so a stale record header there cannot be
            // mis-carved with bytes from two eras.
            disk.write_at(
                self.file,
                self.write_pos,
                &vec![0; capacity - self.write_pos],
            );
            self.write_pos = 0;
        }
        disk.write_at(self.file, self.write_pos, framed);
        self.write_pos += framed.len();
        wraps
    }
}

/// Pre-resolved telemetry handles; absent until a [`Registry`] is
/// attached.
struct WalMetrics {
    redo_bytes: Counter,
    redo_wraps: Counter,
    undo_bytes: Counter,
    undo_wraps: Counter,
    binlog_bytes: Counter,
    binlog_events: Counter,
    fsyncs: Counter,
}

impl std::fmt::Debug for WalMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalMetrics { .. }")
    }
}

/// The sealing state of an encrypted WAL: the (fleet-shared) log key
/// plus this node's origin id. Wrapped so `Debug` output (engine dumps,
/// test failures) never prints key material.
#[derive(Clone)]
pub struct WalCrypto {
    key: edb_crypto::Key,
    origin: u64,
}

impl WalCrypto {
    /// Builds the sealing state from raw key bytes and the sealing
    /// node's server id. The origin feeds per-node subkey derivation:
    /// a fleet sharing one `wal_key` must never reuse a keystream
    /// across nodes that seal the same `(stream, seq)` positions.
    pub fn new(key: [u8; 32], origin: u64) -> Self {
        WalCrypto {
            key: edb_crypto::Key(key),
            origin,
        }
    }

    /// Seals one locally-originated record payload at log position
    /// `(stream, seq)`.
    pub fn seal(&self, stream: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        edb_crypto::logenc::seal(&self.key, self.origin, stream, seq, payload)
    }

    /// Opens a sealed record from *any* origin under the shared key,
    /// returning `(origin, stream, seq, plaintext)`.
    pub fn open(&self, sealed: &[u8]) -> Option<(u64, u8, u64, Vec<u8>)> {
        edb_crypto::logenc::open(&self.key, sealed).ok()
    }
}

impl std::fmt::Debug for WalCrypto {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WalCrypto { key: <redacted> }")
    }
}

/// The WAL subsystem: the LSN and transaction-id allocators and the
/// cursors into the two circular logs and the binlog.
#[derive(Debug)]
pub struct Wal {
    next_lsn: u64,
    /// Transaction ids are log-record fields like LSNs, and are
    /// allocated past every one on disk the same way.
    next_txn: u64,
    /// Redo log cursor ([`REDO_FILE`]).
    pub redo: CircularLog,
    /// Undo log cursor ([`UNDO_FILE`]).
    pub undo: CircularLog,
    /// Whether the binlog is enabled (off on a fresh install, on in any
    /// production/replicated deployment — see §3).
    pub binlog_enabled: bool,
    /// GTID-style sequence number of the *next* binlog event. Monotonic
    /// for the life of the server; replication positions are expressed
    /// in this sequence space.
    binlog_next_seq: u64,
    /// Events with sequence `< binlog_purged_seq` were dropped by
    /// [`Wal::purge_binlog`] and can no longer be served to replicas.
    binlog_purged_seq: u64,
    /// When set, every appended record is sealed (BigFoot-style
    /// encrypted WAL) and the carvers transparently open sealed frames.
    crypto: Option<WalCrypto>,
    metrics: Option<WalMetrics>,
}

impl Wal {
    /// Opens the WAL on `disk`, sealing with `crypto` when set. Missing
    /// files are created: both circular logs zero-filled at their full
    /// capacities, the binlog empty (even when disabled). Files already
    /// there are an earlier process's logs, and every cursor comes from
    /// their bytes, sealed frames opened with the key:
    ///
    /// * each ring's write position is the end of its highest-LSN frame;
    /// * the next LSN and transaction id are one past the highest in any
    ///   ring, binlog or [`DIVERGENT_FILE`] record and in the checkpoint
    ///   (whose LSN is already the *next* one), so nothing a restarted
    ///   process logs can collide with a byte already on disk;
    /// * the binlog's next sequence number is the purge horizon
    ///   ([`BINLOG_INDEX_FILE`]) plus the frames still in the binlog.
    pub fn open(
        disk: &mut VDisk,
        redo_capacity: usize,
        undo_capacity: usize,
        binlog_enabled: bool,
        crypto: Option<WalCrypto>,
    ) -> Self {
        let mut wal = Wal {
            next_lsn: 1,
            next_txn: 1,
            redo: CircularLog {
                file: REDO_FILE,
                write_pos: 0,
            },
            undo: CircularLog {
                file: UNDO_FILE,
                write_pos: 0,
            },
            binlog_enabled,
            binlog_next_seq: 0,
            binlog_purged_seq: 0,
            crypto,
            metrics: None,
        };
        // The highest (LSN, transaction id) on disk.
        let mut high = (0, 0);
        let redo_end = wal.ring_end(disk, REDO_FILE, &mut high);
        let undo_end = wal.ring_end(disk, UNDO_FILE, &mut high);
        for (ring, end, capacity) in [
            (&mut wal.redo, redo_end, redo_capacity),
            (&mut wal.undo, undo_end, undo_capacity),
        ] {
            match end {
                Some(end) => ring.write_pos = end,
                None => *ring = CircularLog::create(disk, ring.file, capacity),
            }
        }
        if disk.read(BINLOG_FILE).is_none() {
            disk.write(BINLOG_FILE, Vec::new());
        }
        for file in [BINLOG_FILE, DIVERGENT_FILE] {
            let raw = disk.read(file).unwrap_or_default();
            for f in codec::scan(&codec::WAL, raw) {
                if let Ok(ev) = wal.decode_binlog_frame(f.alt, f.payload) {
                    high = (high.0.max(ev.lsn), high.1.max(ev.txn));
                }
            }
        }
        wal.binlog_purged_seq = disk
            .read(BINLOG_INDEX_FILE)
            .and_then(|b| b.try_into().ok())
            .map_or(0, u64::from_le_bytes);
        wal.binlog_next_seq = wal.binlog_purged_seq + wal.binlog_frames(disk).count() as u64;
        let (ckpt_lsn, ckpt_active) = read_checkpoint(disk);
        wal.next_lsn = (high.0 + 1).max(ckpt_lsn);
        wal.next_txn = ckpt_active.into_iter().fold(high.1, u64::max) + 1;
        wal
    }

    /// Where ring `file`'s next record goes: the end of its highest-LSN
    /// record, or `None` when the file does not exist. Folds every
    /// record's LSN and transaction id into `high`.
    fn ring_end(&self, disk: &VDisk, file: &str, high: &mut (u64, u64)) -> Option<usize> {
        use edb_crypto::logenc::{STREAM_REDO, STREAM_UNDO};
        let raw = disk.read(file)?;
        let stream = if file == REDO_FILE {
            STREAM_REDO
        } else {
            STREAM_UNDO
        };
        let mut newest = (0, 0);
        for (end, payload) in self.payloads(raw, stream) {
            let ids = match stream {
                STREAM_REDO => RedoRecord::decode(&payload).map(|r| (r.lsn, r.txn)),
                _ => UndoRecord::decode(&payload).map(|r| (r.lsn, r.txn)),
            };
            let Ok((lsn, txn)) = ids else {
                continue;
            };
            *high = (high.0.max(lsn), high.1.max(txn));
            newest = newest.max((lsn, end));
        }
        Some(newest.1)
    }

    /// Registers this WAL's counters on `registry`.
    pub fn attach_telemetry(&mut self, registry: &Registry) {
        self.metrics = Some(WalMetrics {
            redo_bytes: registry.counter("wal.redo.bytes"),
            redo_wraps: registry.counter("wal.redo.wraps"),
            undo_bytes: registry.counter("wal.undo.bytes"),
            undo_wraps: registry.counter("wal.undo.wraps"),
            binlog_bytes: registry.counter("wal.binlog.bytes"),
            binlog_events: registry.counter("wal.binlog.events"),
            fsyncs: registry.counter("wal.fsyncs"),
        });
    }

    /// Counts one simulated fsync (commit and checkpoint durability
    /// points; the engine calls this — the disk itself is in-memory).
    pub fn record_fsync(&self) {
        if let Some(m) = &self.metrics {
            m.fsyncs.inc();
        }
    }

    /// Allocates the next LSN.
    pub fn alloc_lsn(&mut self) -> u64 {
        let l = self.next_lsn;
        self.next_lsn += 1;
        l
    }

    /// Allocates the next transaction id.
    pub fn alloc_txn(&mut self) -> u64 {
        let t = self.next_txn;
        self.next_txn += 1;
        t
    }

    /// Current LSN high-water mark.
    pub fn current_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Frames a record payload at log position `(stream, seq)` in this
    /// WAL's on-disk format: sealed when encryption is armed, plaintext
    /// otherwise.
    fn frame_record(&self, stream: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
        match &self.crypto {
            Some(c) => frame_enc(&c.seal(stream, seq, payload)),
            None => frame(payload),
        }
    }

    /// Frames a redo record as [`Self::append_redo`] takes it. Framing
    /// is separate from appending so the engine can test the framed
    /// length against [`CircularLog::would_wrap`] and checkpoint first.
    pub fn frame_redo(&self, rec: &RedoRecord) -> Vec<u8> {
        self.frame_record(edb_crypto::logenc::STREAM_REDO, rec.lsn, &rec.encode())
    }

    /// Appends a redo record framed by [`Self::frame_redo`]. Returns
    /// `true` if the append wrapped the log (the engine must have
    /// checkpointed *before* calling in that case).
    pub fn append_redo(&mut self, disk: &mut VDisk, framed: &[u8]) -> bool {
        let wraps = self.redo.append(disk, framed);
        if let Some(m) = &self.metrics {
            m.redo_bytes.add(framed.len() as u64);
            if wraps {
                m.redo_wraps.inc();
            }
        }
        wraps
    }

    /// Appends an undo record. Undo records share LSN values with their
    /// redo counterparts; the stream id keeps the sealing nonces apart.
    pub fn append_undo(&mut self, disk: &mut VDisk, rec: &UndoRecord) {
        let framed = self.frame_record(edb_crypto::logenc::STREAM_UNDO, rec.lsn, &rec.encode());
        let wraps = self.undo.append(disk, &framed);
        if let Some(m) = &self.metrics {
            m.undo_bytes.add(framed.len() as u64);
            if wraps {
                m.undo_wraps.inc();
            }
        }
    }

    /// Appends a binlog event (no-op when the binlog is disabled). The
    /// sealing nonce is the event's GTID-style sequence number — commit
    /// LSNs are shared by every statement of a transaction, sequence
    /// numbers are not.
    pub fn append_binlog(&mut self, disk: &mut VDisk, ev: &BinlogEvent) {
        if self.binlog_enabled {
            let framed = self.frame_record(
                edb_crypto::logenc::STREAM_BINLOG,
                self.binlog_next_seq,
                &ev.encode(),
            );
            disk.append(BINLOG_FILE, &framed);
            self.binlog_next_seq += 1;
            if let Some(m) = &self.metrics {
                m.binlog_bytes.add(framed.len() as u64);
                m.binlog_events.inc();
            }
        }
    }

    /// Administrative `PURGE BINARY LOGS`: drops all events up to now
    /// and records the new horizon in [`BINLOG_INDEX_FILE`].
    /// Also resets the `wal.binlog.*` counters — they track the *live*
    /// binlog volume, and a registry that keeps reporting purged bytes
    /// would overstate what a scrub actually removed (E12).
    pub fn purge_binlog(&mut self, disk: &mut VDisk) {
        disk.write(BINLOG_FILE, Vec::new());
        self.binlog_purged_seq = self.binlog_next_seq;
        disk.write(
            BINLOG_INDEX_FILE,
            self.binlog_purged_seq.to_le_bytes().to_vec(),
        );
        if let Some(m) = &self.metrics {
            m.binlog_bytes.reset();
            m.binlog_events.reset();
        }
    }

    /// Divergence fencing (the binlog half): moves every event with
    /// sequence `>= from_seq` out of the live binlog and onto the end of
    /// [`DIVERGENT_FILE`]. The binlog holds nothing but frames, so the
    /// fenced tail is one byte range, moved verbatim: sealed frames stay
    /// sealed. Returns one entry per fenced event, oldest first, decoded
    /// with this WAL's key. The caller (the failover coordinator) logs
    /// them — this log can no longer serve them to anyone, and the next
    /// event this node logs (after rejoining as a replica) reuses the
    /// fenced sequence range under the *new* primary's timeline.
    ///
    /// The `wal.binlog.*` counters are re-derived from what actually
    /// remains, for the same reason [`Wal::purge_binlog`] resets them:
    /// they describe the live log, not its history.
    pub fn fence_binlog_tail(
        &mut self,
        disk: &mut VDisk,
        from_seq: u64,
    ) -> Vec<DbResult<BinlogEvent>> {
        let start = from_seq.max(self.binlog_purged_seq);
        if start >= self.binlog_next_seq {
            return Vec::new();
        }
        let skip = (start - self.binlog_purged_seq) as usize;
        let binlog = disk.read(BINLOG_FILE).unwrap_or_default();
        let cut_at = codec::scan(&codec::WAL, binlog)
            .nth(skip)
            .map_or(binlog.len(), |f| f.offset);
        let (head, tail) = binlog.split_at(cut_at);
        let fenced: Vec<_> = codec::scan(&codec::WAL, tail)
            .map(|f| self.decode_binlog_frame(f.alt, f.payload))
            .collect();
        let (head, tail) = (head.to_vec(), tail.to_vec());
        disk.append(DIVERGENT_FILE, &tail);
        disk.write(BINLOG_FILE, head);
        self.binlog_next_seq = start;
        if let Some(m) = &self.metrics {
            m.binlog_bytes.reset();
            m.binlog_bytes.add(cut_at as u64);
            m.binlog_events.reset();
            m.binlog_events
                .add(self.binlog_next_seq - self.binlog_purged_seq);
        }
        fenced
    }

    // ================= binlog cursor (replication) =================

    /// The binlog's frames in sequence order (`alt` = sealed). Cursor
    /// reads `skip` on this directly: [`codec::Scan`] hops a skipped
    /// frame by its header alone.
    fn binlog_frames<'d>(&self, disk: &'d VDisk) -> codec::Scan<'d> {
        codec::scan(&codec::WAL, disk.read(BINLOG_FILE).unwrap_or_default())
    }

    /// Sequence number the next appended binlog event will get — the
    /// primary's end-of-binlog position.
    pub fn binlog_next_seq(&self) -> u64 {
        self.binlog_next_seq
    }

    /// Oldest sequence number still present in the binlog. Events below
    /// this were purged and cannot be streamed to a replica anymore.
    pub fn binlog_purged_seq(&self) -> u64 {
        self.binlog_purged_seq
    }

    /// Cursor read over the binlog: up to `max` *raw frame payloads* —
    /// the on-disk bytes between the framing, each tagged with its
    /// GTID-style sequence number and whether its frame was sealed
    /// (`(seq, sealed, payload)`) — starting at `from_seq`, plus the
    /// position to resume from. When `from_seq` predates the purge
    /// horizon the cursor silently starts at the horizon — the caller
    /// compares the first returned sequence against its request to
    /// detect the gap. This is what the replication streamer ships: with
    /// `encrypted_wal` on, the wire and the replica's relay log carry
    /// ciphertext end-to-end, and only the replica's apply loop (holding
    /// the key) opens them. The sealed bit travels explicitly so
    /// downstream consumers never classify a payload by probing whether
    /// it happens to parse.
    pub fn binlog_frames_from(
        &self,
        disk: &VDisk,
        from_seq: u64,
        max: usize,
    ) -> (Vec<(u64, bool, Vec<u8>)>, u64) {
        let start = from_seq.max(self.binlog_purged_seq);
        let skip = (start - self.binlog_purged_seq) as usize;
        let out: Vec<_> = (start..)
            .zip(self.binlog_frames(disk).skip(skip).take(max))
            .map(|(seq, f)| (seq, f.alt, f.payload.to_vec()))
            .collect();
        let next = start + out.len() as u64;
        (out, next)
    }

    /// Decodes one binlog frame payload whose framing said `sealed`.
    ///
    /// An encrypted WAL is strict: a sealed payload that fails
    /// authentication is an error (never retried as plaintext), and a
    /// plaintext-framed payload is rejected outright — otherwise an
    /// attacker could inject unauthenticated plaintext frames into the
    /// wire stream or relay log and have an encrypted replica apply
    /// them, MAC never consulted.
    pub fn decode_binlog_frame(&self, sealed: bool, payload: &[u8]) -> DbResult<BinlogEvent> {
        match (&self.crypto, sealed) {
            (Some(c), true) => {
                let (_origin, stream, _seq, plain) = c.open(payload).ok_or_else(|| {
                    DbError::Storage("sealed binlog frame failed authentication".into())
                })?;
                if stream != edb_crypto::logenc::STREAM_BINLOG {
                    return Err(DbError::Storage("sealed frame from wrong stream".into()));
                }
                BinlogEvent::decode(&plain)
            }
            (None, true) => Err(DbError::Storage(
                "sealed binlog frame but no log key configured".into(),
            )),
            (Some(_), false) => Err(DbError::Storage(
                "plaintext binlog frame rejected: encrypted_wal is strict".into(),
            )),
            (None, false) => BinlogEvent::decode(payload),
        }
    }

    /// Every record payload in `raw` this WAL can read, in offset order,
    /// each with the offset one past its frame: plaintext frames as they
    /// are, sealed frames of `stream` opened with the key.
    fn payloads<'a>(
        &'a self,
        raw: &'a [u8],
        stream: u8,
    ) -> impl Iterator<Item = (usize, Cow<'a, [u8]>)> + 'a {
        codec::scan(&codec::WAL, raw).filter_map(move |f| {
            if !f.alt {
                return Some((f.end, Cow::Borrowed(f.payload)));
            }
            let (_, s, _, plain) = self.crypto.as_ref()?.open(f.payload)?;
            (s == stream).then_some((f.end, Cow::Owned(plain)))
        })
    }

    /// Parses every intact redo record currently in the circular buffer,
    /// sorted by LSN (recovery's view; also the attacker's — though
    /// without the key the attacker decodes only plaintext-era frames).
    pub fn carve_redo(&self, disk: &VDisk) -> Vec<RedoRecord> {
        let raw = disk.read(REDO_FILE).unwrap_or_default();
        let mut recs: Vec<RedoRecord> = self
            .payloads(raw, edb_crypto::logenc::STREAM_REDO)
            .filter_map(|(_, p)| RedoRecord::decode(&p).ok())
            .collect();
        recs.sort_by_key(|r| r.lsn);
        recs
    }

    /// Parses every intact undo record, sorted by LSN.
    pub fn carve_undo(&self, disk: &VDisk) -> Vec<UndoRecord> {
        let raw = disk.read(UNDO_FILE).unwrap_or_default();
        let mut recs: Vec<UndoRecord> = self
            .payloads(raw, edb_crypto::logenc::STREAM_UNDO)
            .filter_map(|(_, p)| UndoRecord::decode(&p).ok())
            .collect();
        recs.sort_by_key(|r| r.lsn);
        recs
    }

    /// Parses every binlog event in order (`mysqlbinlog`'s job — with
    /// the key when the binlog is sealed).
    pub fn carve_binlog(&self, disk: &VDisk) -> Vec<BinlogEvent> {
        self.binlog_frames(disk)
            .filter_map(|f| self.decode_binlog_frame(f.alt, f.payload).ok())
            .collect()
    }
}

/// Reads the engine's checkpoint ([`crate::engine::CHECKPOINT_FILE`]):
/// `(next LSN at the checkpoint, active transaction ids)`, or nothing
/// when there is none.
pub(crate) fn read_checkpoint(disk: &VDisk) -> (u64, HashSet<u64>) {
    let Some(buf) = disk.read(crate::engine::CHECKPOINT_FILE) else {
        return (0, HashSet::new());
    };
    let mut r = Reader::new(buf);
    let (Ok(lsn), Ok(n)) = (r.u64(), r.u32()) else {
        return (0, HashSet::new());
    };
    (lsn, (0..n).map_while(|_| r.u64().ok()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A WAL with both rings at `capacity` bytes, on a fresh disk.
    fn open(capacity: usize, binlog_enabled: bool) -> (VDisk, Wal) {
        let mut disk = VDisk::new();
        let wal = Wal::open(&mut disk, capacity, capacity, binlog_enabled, None);
        (disk, wal)
    }

    /// [`open`] with the binlog on and every record sealed under `key`
    /// by node `origin`.
    fn open_sealed(capacity: usize, key: [u8; 32], origin: u64) -> (VDisk, Wal) {
        let mut disk = VDisk::new();
        let crypto = Some(WalCrypto::new(key, origin));
        let wal = Wal::open(&mut disk, capacity, capacity, true, crypto);
        (disk, wal)
    }

    fn file<'d>(disk: &'d VDisk, name: &str) -> &'d [u8] {
        disk.read(name).unwrap()
    }

    fn binlog_ev(seq: u64) -> BinlogEvent {
        BinlogEvent {
            lsn: seq,
            txn: seq,
            timestamp: 1_700_000_000 + seq as i64,
            statement: format!("INSERT INTO t VALUES ({seq})"),
            ctx: None,
        }
    }

    #[test]
    fn fence_binlog_tail_truncates_and_returns_the_tail() {
        let (mut disk, mut wal) = open(4096, true);
        for s in 0..6 {
            wal.append_binlog(&mut disk, &binlog_ev(s));
        }
        assert_eq!(wal.binlog_next_seq(), 6);
        let before = file(&disk, BINLOG_FILE).to_vec();

        let fenced = wal.fence_binlog_tail(&mut disk, 4);
        // The fenced events decode to the removed statements…
        let statements: Vec<_> = fenced.into_iter().map(|e| e.unwrap().statement).collect();
        assert_eq!(
            statements,
            ["INSERT INTO t VALUES (4)", "INSERT INTO t VALUES (5)"]
        );
        // …the live log now ends exactly at the promoted cursor…
        assert_eq!(wal.binlog_next_seq(), 4);
        let live = wal.carve_binlog(&disk);
        assert_eq!(live.len(), 4);
        assert_eq!(live[3].statement, "INSERT INTO t VALUES (3)");
        // …and the two files together are the old binlog, byte for byte.
        let cut = disk.len(BINLOG_FILE);
        assert_eq!(file(&disk, BINLOG_FILE), &before[..cut]);
        assert_eq!(file(&disk, DIVERGENT_FILE), &before[cut..]);
        // Fencing at or past the end is a no-op.
        assert!(wal.fence_binlog_tail(&mut disk, 4).is_empty());
        assert!(wal.fence_binlog_tail(&mut disk, 99).is_empty());
        assert_eq!(disk.len(DIVERGENT_FILE), before.len() - cut);
    }

    #[test]
    fn fence_binlog_tail_keeps_sealed_frames_sealed() {
        let (mut disk, mut wal) = open_sealed(4096, [9u8; 32], 1);
        for s in 0..3 {
            wal.append_binlog(&mut disk, &binlog_ev(s));
        }
        let fenced = wal.fence_binlog_tail(&mut disk, 1);
        // The key holder opens what it fenced…
        assert_eq!(fenced.len(), 2);
        assert_eq!(
            fenced[0].as_ref().unwrap().statement,
            "INSERT INTO t VALUES (1)"
        );
        // …but the quarantine holds sealed frames and no statement text.
        let sidecar = file(&disk, DIVERGENT_FILE);
        assert_eq!(carve_enc_frames(sidecar).len(), 2);
        assert!(carve_frames(sidecar).is_empty());
        assert!(!sidecar.windows(6).any(|w| w == b"INSERT"));
    }

    fn redo(lsn: u64, after: &[u8]) -> RedoRecord {
        RedoRecord {
            lsn,
            txn: lsn,
            op: OpKind::Insert,
            table_id: 1,
            page_no: 0,
            slot: 0,
            after: after.to_vec(),
        }
    }

    #[test]
    fn record_round_trips() {
        let r = redo(7, b"row-bytes");
        assert_eq!(RedoRecord::decode(&r.encode()).unwrap(), r);
        let u = UndoRecord {
            lsn: 9,
            txn: 3,
            op: OpKind::Update,
            table_id: 2,
            row_id: 55,
            before: b"before-image".to_vec(),
        };
        assert_eq!(UndoRecord::decode(&u.encode()).unwrap(), u);
        let b = BinlogEvent {
            lsn: 10,
            txn: 3,
            timestamp: 1_700_000_000,
            statement: "INSERT INTO t VALUES (1)".into(),
            ctx: None,
        };
        assert_eq!(BinlogEvent::decode(&b.encode()).unwrap(), b);
        // With a trace context the event grows by exactly 25 bytes and
        // round-trips; the bare encoding is byte-identical to v1.
        let traced = BinlogEvent {
            ctx: Some(mdb_trace::TraceContext {
                trace_id: 0xFEED_FACE_CAFE_F00D,
                span_id: 0x1234,
                sampled: true,
            }),
            ..b.clone()
        };
        let enc = traced.encode();
        assert_eq!(
            enc.len(),
            b.encode().len() + mdb_trace::TraceContext::WIRE_LEN
        );
        assert_eq!(BinlogEvent::decode(&enc).unwrap(), traced);
        assert!(enc.starts_with(&b.encode()));
        // A truncated context tail is rejected, not misparsed.
        assert!(BinlogEvent::decode(&enc[..enc.len() - 3]).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let r = redo(7, b"row");
        let enc = r.encode();
        assert!(RedoRecord::decode(&enc[..enc.len() - 1]).is_err());
        let mut bad = enc.clone();
        bad[0] = 99;
        assert!(RedoRecord::decode(&bad).is_err());
    }

    #[test]
    fn circular_log_wraps_and_bounds_history() {
        let mut disk = VDisk::new();
        let mut log = CircularLog::create(&mut disk, REDO_FILE, 256);
        // Each framed record: 8 + payload.
        let wraps = (0u64..100)
            .filter(|i| log.append(&mut disk, &frame(&i.to_le_bytes())))
            .count();
        assert!(wraps > 0);
        assert_eq!(disk.len(REDO_FILE), 256, "a ring never grows");
        let frames = carve_frames(file(&disk, REDO_FILE));
        // Only the newest ~16 records survive in 256 bytes.
        assert!(frames.len() <= 16);
        let newest: Vec<u64> = frames
            .iter()
            .map(|(_, p)| u64::from_le_bytes((*p).try_into().unwrap()))
            .collect();
        assert!(newest.contains(&99), "newest record must be present");
        assert!(!newest.contains(&0), "oldest record must be gone");
    }

    #[test]
    fn wal_end_to_end_carving() {
        let (mut disk, mut wal) = open(4096, true);
        for i in 0..10u64 {
            let lsn = wal.alloc_lsn();
            let framed = wal.frame_redo(&redo(lsn, format!("row{i}").as_bytes()));
            wal.append_redo(&mut disk, &framed);
            wal.append_undo(
                &mut disk,
                &UndoRecord {
                    lsn,
                    txn: i,
                    op: OpKind::Insert,
                    table_id: 1,
                    row_id: i,
                    before: Vec::new(),
                },
            );
            wal.append_binlog(
                &mut disk,
                &BinlogEvent {
                    lsn,
                    txn: i,
                    timestamp: 1000 + i as i64,
                    statement: format!("INSERT INTO t VALUES ({i})"),
                    ctx: None,
                },
            );
        }
        assert_eq!(wal.carve_redo(&disk).len(), 10);
        assert_eq!(wal.carve_undo(&disk).len(), 10);
        let bl = wal.carve_binlog(&disk);
        assert_eq!(bl.len(), 10);
        assert_eq!(bl[9].statement, "INSERT INTO t VALUES (9)");
        assert_eq!(bl[9].timestamp, 1009);
        wal.purge_binlog(&mut disk);
        assert!(wal.carve_binlog(&disk).is_empty());
        // Redo/undo survive a binlog purge.
        assert_eq!(wal.carve_redo(&disk).len(), 10);
    }

    #[test]
    fn disabled_binlog_records_nothing() {
        let (mut disk, mut wal) = open(1024, false);
        wal.append_binlog(
            &mut disk,
            &BinlogEvent {
                lsn: 1,
                txn: 1,
                timestamp: 0,
                statement: "INSERT INTO t VALUES (1)".into(),
                ctx: None,
            },
        );
        assert!(wal.carve_binlog(&disk).is_empty());
        assert_eq!(disk.read(BINLOG_FILE), Some(&[][..]), "created empty");
    }

    #[test]
    fn binlog_cursor_pages_and_survives_purge() {
        let (mut disk, mut wal) = open(1024, true);
        for i in 0..6u64 {
            wal.append_binlog(
                &mut disk,
                &BinlogEvent {
                    lsn: i,
                    txn: i,
                    timestamp: i as i64,
                    statement: format!("INSERT INTO t VALUES ({i})"),
                    ctx: None,
                },
            );
        }
        assert_eq!(wal.binlog_next_seq(), 6);
        assert_eq!(wal.binlog_purged_seq(), 0);
        // Paged reads resume where the previous page ended.
        let (page1, next) = wal.binlog_frames_from(&disk, 0, 4);
        assert_eq!(page1.len(), 4);
        assert_eq!(next, 4);
        let (page2, next) = wal.binlog_frames_from(&disk, next, 4);
        assert_eq!(page2.len(), 2);
        assert_eq!(next, 6);
        assert_eq!(page2[0].0, 4, "frames carry their sequence numbers");
        // Purge advances the horizon; sequence numbers keep counting.
        wal.purge_binlog(&mut disk);
        assert_eq!(wal.binlog_purged_seq(), 6);
        assert!(wal.binlog_frames_from(&disk, 0, 10).0.is_empty());
        wal.append_binlog(
            &mut disk,
            &BinlogEvent {
                lsn: 7,
                txn: 7,
                timestamp: 7,
                statement: "INSERT INTO t VALUES (7)".into(),
                ctx: None,
            },
        );
        // A cursor from before the purge lands on the horizon, not on a
        // mis-numbered event.
        let (evs, next) = wal.binlog_frames_from(&disk, 2, 10);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].0, 6);
        assert_eq!(next, 7);
    }

    #[test]
    fn purge_resets_binlog_counters() {
        let registry = Registry::new();
        let (mut disk, mut wal) = open(1024, true);
        wal.attach_telemetry(&registry);
        for i in 0..5u64 {
            wal.append_binlog(
                &mut disk,
                &BinlogEvent {
                    lsn: i,
                    txn: i,
                    timestamp: 0,
                    statement: "INSERT INTO t VALUES (1)".into(),
                    ctx: None,
                },
            );
        }
        assert_eq!(registry.snapshot().counter("wal.binlog.events"), Some(5));
        assert!(registry.snapshot().counter("wal.binlog.bytes").unwrap() > 0);
        wal.purge_binlog(&mut disk);
        // The registry tracks the live binlog, not its purged history.
        assert_eq!(registry.snapshot().counter("wal.binlog.events"), Some(0));
        assert_eq!(registry.snapshot().counter("wal.binlog.bytes"), Some(0));
    }

    #[test]
    fn encrypted_wal_recovers_with_key_and_defeats_plaintext_carving() {
        let (mut disk, mut wal) = open_sealed(8192, [0x5A; 32], 1);
        for i in 0..8u64 {
            let lsn = wal.alloc_lsn();
            let framed = wal.frame_redo(&redo(lsn, format!("secret-row-{i}").as_bytes()));
            wal.append_redo(&mut disk, &framed);
            wal.append_undo(
                &mut disk,
                &UndoRecord {
                    lsn,
                    txn: i,
                    op: OpKind::Insert,
                    table_id: 1,
                    row_id: i,
                    before: format!("before-{i}").into_bytes(),
                },
            );
            wal.append_binlog(
                &mut disk,
                &BinlogEvent {
                    lsn,
                    txn: i,
                    timestamp: 2000 + i as i64,
                    statement: format!("INSERT INTO t VALUES ({i})"),
                    ctx: None,
                },
            );
        }
        // The key holder (recovery, replication) sees everything.
        assert_eq!(wal.carve_redo(&disk).len(), 8);
        assert_eq!(wal.carve_undo(&disk).len(), 8);
        let bl = wal.carve_binlog(&disk);
        assert_eq!(bl.len(), 8);
        assert_eq!(bl[7].statement, "INSERT INTO t VALUES (7)");
        let (evs, next) = wal.binlog_frames_from(&disk, 3, 10);
        assert_eq!(evs.len(), 5);
        assert_eq!(next, 8);
        // The keyless carver (the E2/E3 attacker) decodes nothing, and
        // no plaintext survives anywhere in the raw files.
        for name in [REDO_FILE, UNDO_FILE, BINLOG_FILE] {
            let raw = file(&disk, name);
            assert!(carve_frames(raw).is_empty());
            assert!(!raw
                .windows(6)
                .any(|w| w == b"secret" || w == b"INSERT" || w == b"before"));
        }
        // Sealed frames are still *visible* as ciphertext records.
        assert_eq!(carve_enc_frames(file(&disk, BINLOG_FILE)).len(), 8);
    }

    #[test]
    fn sealed_frames_reject_wrong_key_and_cross_stream_splice() {
        let (mut disk, mut wal) = open_sealed(4096, [1; 32], 1);
        let lsn = wal.alloc_lsn();
        let framed = wal.frame_redo(&redo(lsn, b"payload"));
        wal.append_redo(&mut disk, &framed);
        let sealed = carve_enc_frames(file(&disk, REDO_FILE))[0].1.to_vec();
        // Wrong key: open fails, whatever origin the opener claims.
        assert!(WalCrypto::new([2; 32], 1).open(&sealed).is_none());
        // Right key, but a redo frame is not a binlog frame.
        assert!(wal.decode_binlog_frame(true, &sealed).is_err());
    }

    #[test]
    fn fleet_peers_open_each_others_frames_without_keystream_reuse() {
        // Primary (origin 1) and replica (origin 2) share one key and
        // both seal STREAM_BINLOG seq 0 with different statements of
        // equal length — exactly the cross-node collision the nonce
        // scheme must survive.
        let key = [0x44u8; 32];
        let mk = |origin: u64, stmt: &str| {
            let (mut disk, mut w) = open_sealed(1024, key, origin);
            w.append_binlog(
                &mut disk,
                &BinlogEvent {
                    lsn: 1,
                    txn: 1,
                    timestamp: 100 + origin as i64,
                    statement: stmt.into(),
                    ctx: None,
                },
            );
            (disk, w)
        };
        let (da, a) = mk(1, "INSERT INTO t VALUES (111111)");
        let (db, b) = mk(2, "INSERT INTO u VALUES (222222)");
        let fa = carve_enc_frames(file(&da, BINLOG_FILE))[0].1;
        let fb = carve_enc_frames(file(&db, BINLOG_FILE))[0].1;
        use edb_crypto::logenc::{HEADER_LEN, TAG_LEN};
        let body_a = &fa[HEADER_LEN..fa.len() - TAG_LEN];
        let body_b = &fb[HEADER_LEN..fb.len() - TAG_LEN];
        let pa = a.carve_binlog(&da)[0].encode();
        let pb = b.carve_binlog(&db)[0].encode();
        let ct_xor: Vec<u8> = body_a.iter().zip(body_b).map(|(x, y)| x ^ y).collect();
        let pt_xor: Vec<u8> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();
        assert_ne!(
            &ct_xor[..pt_xor.len().min(ct_xor.len())],
            &pt_xor[..pt_xor.len().min(ct_xor.len())],
            "same (stream, seq) on two nodes reused a keystream"
        );
        // Either key holder still opens the other node's frame (shipped
        // binlog frames stay under the primary's sealing).
        assert!(b.decode_binlog_frame(true, fa).is_ok());
        assert!(a.decode_binlog_frame(true, fb).is_ok());
    }

    #[test]
    fn encrypted_wal_rejects_plaintext_frames() {
        let (_, wal) = open_sealed(1024, [6; 32], 1);
        let ev = BinlogEvent {
            lsn: 1,
            txn: 1,
            timestamp: 7,
            statement: "INSERT INTO t VALUES (99)".into(),
            ctx: None,
        };
        // An injected plaintext frame must not apply on an
        // encrypted node — the MAC has to gate every applied event.
        let err = wal.decode_binlog_frame(false, &ev.encode()).unwrap_err();
        assert!(err.to_string().contains("plaintext binlog frame rejected"));
        // A sealed frame that fails auth is a distinct error, not a
        // fall-through to plaintext parsing.
        let (mut d2, mut w2) = open_sealed(1024, [7; 32], 2);
        w2.append_binlog(&mut d2, &ev);
        let mut sealed = carve_enc_frames(file(&d2, BINLOG_FILE))[0].1.to_vec();
        *sealed.last_mut().unwrap() ^= 1;
        let err = wal.decode_binlog_frame(true, &sealed).unwrap_err();
        assert!(err.to_string().contains("failed authentication"));
        // A plaintext node asked to decode a sealed frame errors too.
        let (_, plain_wal) = open(1024, true);
        let good = carve_enc_frames(file(&d2, BINLOG_FILE))[0].1;
        assert!(plain_wal.decode_binlog_frame(true, good).is_err());
    }

    #[test]
    fn binlog_frames_round_trip_raw_payloads() {
        for encrypted in [false, true] {
            let (mut disk, mut wal) = if encrypted {
                open_sealed(4096, [9; 32], 1)
            } else {
                open(4096, true)
            };
            for i in 0..4u64 {
                wal.append_binlog(
                    &mut disk,
                    &BinlogEvent {
                        lsn: i,
                        txn: i,
                        timestamp: i as i64,
                        statement: format!("INSERT INTO t VALUES ({i})"),
                        ctx: None,
                    },
                );
            }
            let (frames, next) = wal.binlog_frames_from(&disk, 1, 10);
            assert_eq!(next, 4);
            assert_eq!(frames.len(), 3);
            for (seq, sealed, payload) in &frames {
                // The cursor reports each frame's on-disk codec.
                assert_eq!(*sealed, encrypted);
                let ev = wal.decode_binlog_frame(*sealed, payload).unwrap();
                assert_eq!(ev.statement, format!("INSERT INTO t VALUES ({seq})"));
                // Sealed payloads are opaque without the key.
                assert_eq!(BinlogEvent::decode(payload).is_ok(), !encrypted);
            }
        }
    }

    #[test]
    fn lsn_monotonic() {
        let (_, mut wal) = open(1024, true);
        let a = wal.alloc_lsn();
        let b = wal.alloc_lsn();
        assert!(b > a);
    }

    /// `Wal::open` on a clone of a live engine's disk reproduces the live
    /// cursors after every statement of a stream that wraps the redo
    /// ring, commits and rolls back explicit transactions, purges and
    /// fences the binlog and ends on DDL, with plaintext and sealed logs.
    #[test]
    fn open_derives_the_live_cursors_from_the_bytes() {
        use crate::engine::{Db, DbConfig};
        for key in [None, Some([0x3C; 32])] {
            let db = Db::open(DbConfig {
                redo_capacity: 2048,
                undo_capacity: 2048,
                encrypted_wal: key.is_some(),
                wal_key: key,
                ..DbConfig::default()
            });
            let cursors = |w: &Wal| {
                (
                    (w.redo.write_pos, w.undo.write_pos),
                    (w.next_lsn, w.next_txn),
                    (w.binlog_next_seq, w.binlog_purged_seq),
                )
            };
            let check = |step: &str| {
                let g = db.inner.lock();
                let mut disk = g.data.vdisk.clone();
                let crypto = key.map(|k| WalCrypto::new(k, g.host.config.server_id));
                let reopened = Wal::open(&mut disk, 2048, 2048, true, crypto);
                assert_eq!(cursors(&reopened), cursors(&g.log.wal), "after {step}");
                assert_eq!(disk.files, g.data.vdisk.files, "open wrote to a full disk");
            };
            let conn = db.connect("app");
            let run = |sql: &str| {
                conn.execute(sql).unwrap();
                check(sql);
            };
            run("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)");
            for i in 0..40 {
                run(&format!("INSERT INTO t VALUES ({i}, 'value-{i}')"));
            }
            for end in ["COMMIT", "ROLLBACK"] {
                // Right after BEGIN the new id is on no disk yet.
                conn.execute("BEGIN").unwrap();
                run("UPDATE t SET v = 'moved-to-a-longer-value' WHERE id = 3");
                run("DELETE FROM t WHERE id = 4");
                run(end);
            }
            db.purge_binlog();
            check("purge");
            for i in 40..50 {
                run(&format!("INSERT INTO t VALUES ({i}, 'late')"));
            }
            db.fence_divergent(db.binlog_next_seq() - 3);
            check("fence");
            db.promote_to_primary();
            run("CREATE TABLE u (id INT PRIMARY KEY)");
            let wraps = db.telemetry().snapshot().counter("wal.redo.wraps");
            assert!(wraps > Some(1), "the redo ring wrapped: {wraps:?}");
        }
    }
}
