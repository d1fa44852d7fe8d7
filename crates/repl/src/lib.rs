//! # mdb-repl — statement-shipping replication for MiniDB
//!
//! A deliberately MySQL-shaped replication stack: the primary streams its
//! **binlog** (framed statement events with GTID-style sequence numbers)
//! over a transport; each replica persists the events to a **relay log**
//! on its own virtual disk *before* replaying them through the engine,
//! then serves reads. A [`router::ReplicaSet`] fronts the fleet, sending
//! writes to the primary and reads to the least-lagged replica.
//!
//! ## Why this belongs in a paper about encrypted databases
//!
//! The HotOS'17 paper's snapshot attacker steals *one* disk or memory
//! image. Replication multiplies that surface: every statement the
//! primary executes is (1) framed into the primary's binlog, (2) shipped
//! over the wire, (3) re-framed into N relay logs, and (4) re-executed
//! into N more buffer pools and redo logs. Purging the primary's binlog
//! — the textbook hygiene step — does nothing to the copies. A snapshot
//! of *any* replica recovers the full write history with timestamps; see
//! `snapshot-attack`'s `forensics::relay` and experiment E14.
//!
//! ## Crate layout
//!
//! - [`wire`] — protocol messages, framed exactly like the binlog.
//! - [`transport`] — byte-stream transport trait + in-process channel
//!   pair, plus a fault-injection wrapper.
//! - [`tcp`] — loopback TCP transport.
//! - [`primary`] — per-replica binlog streamer sessions on the primary.
//! - [`relay`] — relay-log persistence and recovery on the replica.
//! - [`replica`] — the apply loop: relay-then-replay, retry/backoff,
//!   lag tracking.
//! - [`router`] — [`router::ReplicaSet`]: topology wiring + lag-aware
//!   read routing.

// Library code fails closed: a typed error, never a panic on bytes it
// was handed. Tests may unwrap.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;

use minidb::DbError;

pub mod primary;
pub mod relay;
pub mod replica;
pub mod router;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use primary::PrimaryServer;
pub use replica::{Replica, ReplicaShared};
pub use router::{Promotion, ReadTarget, ReplicaSet, ReplicaSetConfig, TransportKind};
pub use transport::{duplex, FlakyEndpoint, Transport};
pub use wire::{SequencedEvent, WireMessage};

/// Errors surfaced by the replication stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplError {
    /// The peer hung up (or the fault injector cut the link).
    Disconnected,
    /// The byte stream decoded to something that violates the protocol.
    Protocol(String),
    /// The engine rejected a replayed statement.
    Db(DbError),
    /// Transport-level I/O failure (TCP errors, bind failures...).
    Io(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Disconnected => write!(f, "replication link disconnected"),
            ReplError::Protocol(m) => write!(f, "replication protocol error: {m}"),
            ReplError::Db(e) => write!(f, "replica apply error: {e}"),
            ReplError::Io(m) => write!(f, "replication I/O error: {m}"),
        }
    }
}

impl std::error::Error for ReplError {}

impl From<DbError> for ReplError {
    fn from(e: DbError) -> Self {
        ReplError::Db(e)
    }
}

impl From<mdb_trace::codec::ReadError> for ReplError {
    fn from(e: mdb_trace::codec::ReadError) -> Self {
        ReplError::Protocol(e.to_string())
    }
}

/// Convenience alias used across the crate.
pub type ReplResult<T> = Result<T, ReplError>;
